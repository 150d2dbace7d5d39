"""Set-valued mappings with nearly convex graphs.

A mapping is stored as its graph, an NCSet in the product of input and
output space. Evaluation slices the graph pieces at a point (a slice of a
relatively open piece is again relatively open, so the slice is exact with
no extra decomposition). Domains, ranges, images, inverse images,
restrictions, sums, compositions and the composite constructors place
graphs, sets and linear links at given coordinates of one joint space
and take the shadow of their joint ri cells (ncset.joint_image), with
no product, intersection or permutation built on the way.

Each operation whose relative-interior formula needs an overlap
qualification returns a qc flag computed by one strict feasibility check
on the relevant relative interiors (ncset.ri_overlap). The certify_*
helpers and the image check verify the ri formulas themselves as exact
set identities, all through one routine: the ri cells of the operands
are embedded in a common product space and combined, the result is
projected (polyhedron.project_mixed), and its canonical shadow is
compared with the ri cell of the result's canonical hull as a tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Optional, Sequence

from . import linalg as la
from .errors import DimensionMismatch, EmptyDomain, UsageError
from .linalg import Mat, Vec
from .lp import MixedSystem
from .ncset import (
    NCSet,
    ROPoly,
    _ncset_of_cells,
    closure_hull,
    from_faces,
    joint_image,
    linear_image,
    ncset,
    overlap_point,
    permute_coords,
    preimage,
    product,
    relative_interior,
    require_valid,
    ri_overlap,
    sum_link,
    whole_space,
)
from .polyhedron import (
    HPoly,
    closure_hpoly,
    empty_hpoly,
    faces_from,
    project_mixed,
    ri_point,
    strict_point,
)


@dataclass(frozen=True)
class SVMap:
    n: int
    p: int
    graph: NCSet

    def __post_init__(self):
        if self.graph.dim != self.n + self.p:
            raise DimensionMismatch("graph dim must be input dim + output dim")


def svmap(n: int, p: int, graph: NCSet) -> SVMap:
    return SVMap(n, p, graph)


def require_valid_map(f: SVMap) -> None:
    require_valid(f.graph)


def eval_at(f: SVMap, x: Vec) -> NCSet:
    """F(x) as an exact union of relatively open pieces."""
    if len(x) != f.n:
        raise DimensionMismatch("evaluation point dim mismatch")
    x = la.vec(x)
    cells = []
    for pc in f.graph.pieces:
        cell = pc.system().fix(0, x)
        wit = strict_point(cell)
        if wit is not None:
            cells.append((closure_hpoly(cell), wit))
    return _ncset_of_cells(f.p, cells)


def _first_block(n: int, total: int) -> Mat:
    return tuple(la.unit(total, i) for i in range(n))


def _last_block(p: int, total: int) -> Mat:
    return tuple(la.unit(total, total - p + i) for i in range(p))


def dom(f: SVMap) -> NCSet:
    return linear_image(f.graph, _first_block(f.n, f.n + f.p))


def rge(f: SVMap) -> NCSet:
    return linear_image(f.graph, _last_block(f.p, f.n + f.p))


def inverse(f: SVMap) -> SVMap:
    perm = list(range(f.n, f.n + f.p)) + list(range(f.n))
    return SVMap(f.p, f.n, permute_coords(f.graph, perm))


def ri_graph(f: SVMap) -> ROPoly:
    require_valid_map(f)
    ri = relative_interior(f.graph)
    if ri is None:
        raise EmptyDomain("mapping with empty graph")
    return ri


# ---------------------------------------------------------------------------
# images, inverse images, restriction


def _ri_cell(s: NCSet) -> Optional[MixedSystem]:
    hull = closure_hull(s)
    return None if hull is None else hull.ri_system()


def _ri_formula_holds(
    result: NCSet,
    dim: int,
    parts: Sequence[tuple[Optional[MixedSystem], Sequence[int]]],
    keep: Sequence[int],
) -> bool:
    """Exact check of an ri formula: ri(result) equals the shadow on keep
    of the joint cell in R^dim where each part, an ri cell, sits at its
    columns.  Both sides are canonical, so set equality is equality of
    the systems; an empty shadow is the marker 0 <= -1."""
    lhs_cell = _ri_cell(result)
    if any(cell is None for cell, _ in parts):
        return lhs_cell is None
    joint = reduce(MixedSystem.combine, [cell.embed(cols, dim) for cell, cols in parts])
    shadow = project_mixed(joint, keep)
    if lhs_cell is None:
        return shadow == empty_hpoly(len(keep)).closed_system()
    return shadow == lhs_cell


def _clip_parts(f: SVMap, omega: NCSet) -> list:
    """gph F in R^(n+p), and omega at its input coordinates."""
    if omega.dim != f.n:
        raise DimensionMismatch("set dim does not match input dim")
    return [(f.graph, range(f.n + f.p)), (omega, range(f.n))]


def image_of_set(f: SVMap, omega: NCSet) -> tuple[NCSet, bool, bool]:
    """F(omega), the ri-overlap qualification flag, and an exact check of
    the image ri formula (ri of the image = union of ri F(x) over
    x in ri(omega) and ri(dom F))."""
    total, parts = f.n + f.p, _clip_parts(f, omega)
    result, qc = joint_image(total, parts, range(f.n, total)), ri_overlap(total, parts)
    if not qc:
        return result, qc, False
    parts = [(_ri_cell(f.graph), range(total)), (_ri_cell(omega), range(f.n))]
    return result, qc, _ri_formula_holds(result, total, parts, range(f.n, total))


def inverse_image(f: SVMap, theta: NCSet) -> tuple[NCSet, bool]:
    got, qc, _ = image_of_set(inverse(f), theta)
    return got, qc


def certify_inverse_image(f: SVMap, theta: NCSet, got: NCSet) -> bool:
    """ri(F^{-1}(theta)) = {x in ri(dom F) : ri F(x) meets ri(theta)},
    checked exactly via the graph shadow, for the preimage got that
    inverse_image(f, theta) returned.  This is the image formula for
    F^{-1}, laid out as image_of_set lays it out, so under the
    qualification its joint cell and shadow are the ones inverse_image
    has already built."""
    g = inverse(f)
    total = g.n + g.p
    parts = [(_ri_cell(g.graph), range(total)), (_ri_cell(theta), range(g.n))]
    return _ri_formula_holds(got, total, parts, range(g.n, total))


def restrict(f: SVMap, omega: NCSet) -> tuple[SVMap, bool]:
    total, parts = f.n + f.p, _clip_parts(f, omega)
    clipped = joint_image(total, parts, range(total))
    return SVMap(f.n, f.p, clipped), ri_overlap(total, parts)


def certify_restrict(f: SVMap, omega: NCSet, got: SVMap) -> bool:
    """ri gph(F|omega) = ri gph F intersected with ri(omega) x R^p, for
    the restriction got that restrict(f, omega) returned."""
    total = f.n + f.p
    parts = [(_ri_cell(f.graph), range(total)), (_ri_cell(omega), range(f.n))]
    return _ri_formula_holds(got.graph, total, parts, range(total))


# ---------------------------------------------------------------------------
# sum and composition


def map_sum(f1: SVMap, f2: SVMap) -> tuple[SVMap, bool]:
    """The shadow on (x, s) of (x, y1) in gph F1, (x, y2) in gph F2 and
    s = y1 + y2; the qc flag reports ri(dom F1) meets ri(dom F2)."""
    if (f1.n, f1.p) != (f2.n, f2.p):
        raise DimensionMismatch("summed mappings must share both dims")
    n, p = f1.n, f1.p
    total = n + 3 * p
    parts = [
        (f1.graph, range(n + p)),
        (f2.graph, [*range(n), *range(n + p, n + 2 * p)]),
        (sum_link(p), range(n, total)),
    ]
    # the overlap point seeds the fold of the two graphs' hull cells
    z = overlap_point(total, parts[:2])
    graph = joint_image(total, parts, [*range(n), *range(n + 2 * p, total)], z)
    return SVMap(n, p, graph), z is not None


def certify_sum(f1: SVMap, f2: SVMap, got: SVMap) -> bool:
    """ri gph(F1+F2) = image of {x in both ri graphs} under (x,y1,y2) ->
    (x, y1+y2), checked exactly for the sum got that map_sum(f1, f2)
    returned."""
    n, p = f1.n, f1.p
    total = n + 2 * p + p  # (x, y1, y2, s)
    # s = y1 + y2 as rows over (y1, y2, s)
    adder = tuple(
        (la.unit(p, i) + la.unit(p, i) + la.neg(la.unit(p, i)), la.ZERO)
        for i in range(p)
    )
    parts = [
        (_ri_cell(f1.graph), range(n + p)),
        (_ri_cell(f2.graph), [*range(n), *range(n + p, n + 2 * p)]),
        (MixedSystem(3 * p, (), (), adder), range(n, total)),
    ]
    keep = [*range(n), *range(n + 2 * p, total)]
    return _ri_formula_holds(got.graph, total, parts, keep)


def compose(f: SVMap, g: SVMap) -> tuple[SVMap, bool]:
    """g after f, the shadow on (x, z) of (x, y, z) with (x, y) in gph f
    and (y, z) in gph g; the qc flag reports ri(rge f) meets ri(dom g).

    By Rockafellar, Thm 6.6, ri(rge f) and ri(dom g) are the shadows of
    the ri cells of the two graph hulls, so they meet exactly when those
    cells, laid out as the graphs are, have a common point.
    """
    if f.p != g.n:
        raise DimensionMismatch("inner dims do not match")
    total = f.n + f.p + g.p
    parts = [(f.graph, range(f.n + f.p)), (g.graph, range(f.n, total))]
    keep = [*range(f.n), *range(f.n + f.p, total)]
    return SVMap(f.n, g.p, joint_image(total, parts, keep)), ri_overlap(total, parts)


def certify_compose(f: SVMap, g: SVMap, got: SVMap) -> bool:
    """ri gph(G o F) = shadow on (x, z) of ri gph F in (x, y) meeting
    ri gph G in (y, z), checked exactly for the composition got that
    compose(f, g) returned."""
    total = f.n + f.p + g.p
    parts = [
        (_ri_cell(f.graph), range(f.n + f.p)),
        (_ri_cell(g.graph), range(f.n, total)),
    ]
    keep = [*range(f.n), *range(f.n + f.p, total)]
    return _ri_formula_holds(got.graph, total, parts, keep)


# ---------------------------------------------------------------------------
# composite constructors


def _phi_parts(theta: NCSet, f: SVMap, g: SVMap) -> tuple[int, list]:
    """The joint space (x, y, z) of build_phi and its parts: gph F at
    (x, z), theta at x and gph G at (x, y)."""
    if theta.dim != f.n or g.n != f.n:
        raise DimensionMismatch("component input dims must agree")
    n, p, q = f.n, f.p, g.p
    total = n + q + p
    parts = [
        (f.graph, [*range(n), *range(n + q, total)]),
        (theta, range(n)),
        (g.graph, range(n + q)),
    ]
    return total, parts


def build_phi(theta: NCSet, f: SVMap, g: SVMap) -> tuple[SVMap, bool]:
    """(x,y) maps to F(x) when x lies in theta and y in G(x); graph over
    (x, y, z) with x in R^n, y in R^q, z in R^p.  The qc flag reports that
    ri(dom F), ri(dom G) and ri(theta) meet."""
    total, parts = _phi_parts(theta, f, g)
    graph = joint_image(total, parts, range(total))
    return SVMap(f.n + g.p, f.p, graph), ri_overlap(total, parts)


def build_psi(theta: NCSet, f: SVMap, g: SVMap) -> tuple[SVMap, bool]:
    """(x,u,y) maps to F(x+u) when x lies in theta and y in G(x); graph
    over (x, u, y, z).  The qc flag is build_phi's."""
    phi_layout = _phi_parts(theta, f, g)
    n, p, q = f.n, f.p, g.p
    total = 2 * n + q + p
    # F(x+u): the graph of F pulled back under (x,u,y,z) -> (x+u, z)
    t_rows = [
        la.add(la.unit(total, i), la.unit(total, n + i)) for i in range(n)
    ]
    t_rows += [la.unit(total, 2 * n + q + i) for i in range(p)]
    shifted, _ = preimage(f.graph, tuple(t_rows))
    parts = [
        (shifted, range(total)),
        (theta, range(n)),
        (g.graph, [*range(n), *range(2 * n, 2 * n + q)]),
    ]
    graph = joint_image(total, parts, range(total))
    return SVMap(2 * n + q, p, graph), ri_overlap(*phi_layout)


def sum_with_affine_inner(f: SVMap, g: SVMap, a: Mat) -> SVMap:
    """(x,y) maps to F(x) + G(Ax + y); nearly convex from properness alone,
    no qualification condition."""
    n, q = f.n, f.p
    p = g.n
    if g.p != q:
        raise DimensionMismatch("output dims must agree")
    if len(a) != p or (a and len(a[0]) != n):
        raise DimensionMismatch("matrix shape must be p x n")
    if not f.graph.pieces or not g.graph.pieces:
        raise EmptyDomain("both mappings must have nonempty domains")
    # joint space (x, y, z1, z2, s): (x, z1) in gph F, (Ax + y, z2) in
    # gph G, s = z1 + z2, shadow on (x, y, s)
    m = n + p
    total = m + 3 * q
    t_rows = [a[i] + la.unit(p, i) + la.zeros(q) for i in range(p)]
    t_rows += [la.zeros(m) + la.unit(q, i) for i in range(q)]
    pulled, _ = preimage(g.graph, tuple(t_rows))
    parts = [
        (f.graph, [*range(n), *range(m, m + q)]),
        (pulled, [*range(m), *range(m + q, m + 2 * q)]),
        (sum_link(q), range(m, total)),
    ]
    return SVMap(m, q, joint_image(total, parts, [*range(m), *range(m + 2 * q, total)]))


# ---------------------------------------------------------------------------
# concrete map builders


def affine_map(a: Mat, c: Vec) -> SVMap:
    """x -> {Ax + c} as a single-valued mapping."""
    p = len(a)
    n = len(a[0]) if a else 0
    rows = tuple(
        (a[i] + la.neg(la.unit(p, i)), -Fraction(c[i])) for i in range(p)
    )
    return SVMap(n, p, ncset(n + p, [HPoly(n + p, (), rows)]))


def const_map(n: int, s: NCSet) -> SVMap:
    return SVMap(n, s.dim, product(whole_space(n), s))


def affine_plus_cone(a: Mat, c: Vec, cone: HPoly) -> SVMap:
    """x -> Ax + c + K for a polyhedral cone K given by homogeneous rows.

    The graph is the faces of one closed polyhedron, whose root is
    canonicalized from a point in hand: with k0 a point of ri K,
    z = (0, c + k0) lies in the ri of the graph, the preimage of ri K
    under the surjective affine map (x, y) -> y - Ax - c (Rockafellar,
    Thm 6.6).  k0 is the strict point that K's canonical form keeps
    (polyhedron.ri_point), so a K from plfunc.polycone costs no LP here."""
    p = len(a)
    n = len(a[0]) if a else 0
    if cone.dim != p:
        raise DimensionMismatch("cone must live in the output space")
    # k.(y - Ax - c) <= 0 becomes (-A^T k).x + k.y <= k.c
    def shift(rows):
        out = []
        for k, b in rows:
            if b != 0:
                raise UsageError("cone rows must be homogeneous")
            out.append((la.neg(la.mat_t_vec(a, k)) + k, la.dot(k, la.vec(c))))
        return tuple(out)

    closed = HPoly(n + p, shift(cone.ineq), shift(cone.eq))
    z = la.zeros(n) + la.add(la.vec(c), ri_point(cone))
    return SVMap(n, p, from_faces(n + p, faces_from(closed, z)))
