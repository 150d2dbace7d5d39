"""Set-valued mappings with nearly convex graphs.

A mapping is stored as its graph, an NCSet in the product of input and
output space. Evaluation slices the graph pieces at a point (a slice of a
relatively open piece is again relatively open, so the slice is exact with
no extra decomposition). Domains, ranges, images, inverse images,
restrictions, sums, and compositions all reduce to the set calculus on
graphs: products, intersections, coordinate permutations, and projections.
Compositions skip the product and intersection: each pair of pieces is
embedded in the joint space, and the closed shadow of each pair whose
relative interiors meet gives one piece (Rockafellar, Thms 6.5 and 6.6).

Each operation whose relative-interior formula needs an overlap
qualification returns a qc flag computed by one strict feasibility check
on the relevant relative interiors. The certify_* helpers and the image
check verify the ri formulas themselves as exact set identities, all
through one routine: the ri cells of the operands are embedded in a
common product space and combined, the result is projected, and its
shadow is compared with the ri cell of the result by two-way subtraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Optional, Sequence

from . import linalg as la
from .errors import DimensionMismatch, EmptyDomain, UsageError
from .linalg import Mat, Vec
from .lp import MixedSystem, strict_feasible
from .ncset import (
    NCSet,
    ROPoly,
    _ncset_of_cells,
    closed_shadow,
    closure_hull,
    from_closed_hpoly,
    intersect,
    linear_image,
    ncset,
    permute_coords,
    preimage,
    product,
    relative_interior,
    require_valid,
    whole_space,
)
from .polyhedron import HPoly, cells_equal, project_mixed


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
        wit = strict_feasible(cell).witness
        if wit is not None:
            cells.append((HPoly(f.p, cell.strict, cell.eq), wit))
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


def certify_ri_graph(f: SVMap, points: Sequence[Vec]) -> bool:
    """Fiber law spot check: (x,y) in ri(graph) iff x in ri(dom) and
    y in ri(F(x))."""
    ri = ri_graph(f)
    ri_dom = relative_interior(dom(f))
    for xy in points:
        x, y = xy[: f.n], xy[f.n :]
        lhs = ri.contains(la.vec(xy))
        rhs = False
        if ri_dom.contains(x):
            fiber = relative_interior(eval_at(f, x))
            rhs = fiber is not None and fiber.contains(y)
        if lhs != rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# images, inverse images, restriction


def _ri_cell(s: NCSet) -> Optional[MixedSystem]:
    hull = closure_hull(s)
    return None if hull is None else hull.ri_system()


def _ri_overlap(*sets: NCSet) -> bool:
    """Do the relative interiors of all the sets (of one space) meet?"""
    cells = [_ri_cell(s) for s in sets]
    if any(c is None for c in cells):
        return False
    return strict_feasible(reduce(MixedSystem.combine, cells)).feasible


def _ri_formula_holds(
    result: NCSet,
    dim: int,
    parts: Sequence[tuple[Optional[MixedSystem], Sequence[int]]],
    keep: Sequence[int],
) -> bool:
    """Exact check of an ri formula: ri(result) equals the shadow on keep
    of the joint cell in R^dim where each part, an ri cell, sits at its
    columns.  Keeping every column projects nothing."""
    lhs_cell = _ri_cell(result)
    if any(cell is None for cell, _ in parts):
        return lhs_cell is None
    joint = reduce(MixedSystem.combine, [cell.embed(cols, dim) for cell, cols in parts])
    shadow = joint if len(keep) == dim else project_mixed(joint, keep)
    if lhs_cell is None:
        return not strict_feasible(shadow).feasible
    return cells_equal(lhs_cell, shadow)


def image_of_set(f: SVMap, omega: NCSet) -> tuple[NCSet, bool, bool]:
    """F(omega), the ri-overlap qualification flag, and an exact check of
    the image ri formula (ri of the image = union of ri F(x) over
    x in ri(omega) and ri(dom F))."""
    restricted, qc = restrict(f, omega)
    total = f.n + f.p
    result = linear_image(restricted.graph, _last_block(f.p, total))
    if not qc:
        return result, qc, False
    parts = [(_ri_cell(f.graph), range(total)), (_ri_cell(omega), range(f.n))]
    return result, qc, _ri_formula_holds(result, total, parts, range(f.n, total))


def inverse_image(f: SVMap, theta: NCSet) -> tuple[NCSet, bool]:
    got, qc, _ = image_of_set(inverse(f), theta)
    return got, qc


def certify_inverse_image(f: SVMap, theta: NCSet) -> bool:
    """ri(F^{-1}(theta)) = {x in ri(dom F) : ri F(x) meets ri(theta)},
    checked exactly via the graph shadow. Under the qualification this is
    the image formula for F^{-1}, which image_of_set has already checked;
    only without it does the shadow get built here."""
    got, qc, holds = image_of_set(inverse(f), theta)
    if qc:
        return holds
    total = f.n + f.p
    parts = [(_ri_cell(f.graph), range(total)), (_ri_cell(theta), range(f.n, total))]
    return _ri_formula_holds(got, total, parts, range(f.n))


def restrict(f: SVMap, omega: NCSet) -> tuple[SVMap, bool]:
    if omega.dim != f.n:
        raise DimensionMismatch("set dim does not match input dim")
    clipped, _ = intersect(f.graph, product(omega, whole_space(f.p)))
    return SVMap(f.n, f.p, clipped), _ri_overlap(dom(f), omega)


def certify_restrict(f: SVMap, omega: NCSet, got: SVMap) -> bool:
    """ri gph(F|omega) = ri gph F intersected with ri(omega) x R^p, for
    the restriction got that restrict(f, omega) returned."""
    total = f.n + f.p
    parts = [(_ri_cell(f.graph), range(total)), (_ri_cell(omega), range(f.n))]
    return _ri_formula_holds(got.graph, total, parts, range(total))


# ---------------------------------------------------------------------------
# sum and composition


def map_sum(f1: SVMap, f2: SVMap) -> tuple[SVMap, bool]:
    if (f1.n, f1.p) != (f2.n, f2.p):
        raise DimensionMismatch("summed mappings must share both dims")
    n, p = f1.n, f1.p
    pairs = product(f1.graph, f2.graph)  # (x1, y1, x2, y2)
    diag = ncset(
        2 * (n + p),
        [
            HPoly(
                2 * (n + p),
                (),
                tuple(
                    (
                        la.sub(
                            la.unit(2 * (n + p), i),
                            la.unit(2 * (n + p), n + p + i),
                        ),
                        la.ZERO,
                    )
                    for i in range(n)
                ),
            )
        ],
    )
    glued, _ = intersect(pairs, diag)
    rows = [la.unit(2 * (n + p), i) for i in range(n)]
    rows += [
        la.add(
            la.unit(2 * (n + p), n + i), la.unit(2 * (n + p), 2 * n + p + i)
        )
        for i in range(p)
    ]
    graph = linear_image(glued, tuple(rows))
    return SVMap(n, p, graph), _ri_overlap(dom(f1), dom(f2))


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
    """g after f; the qc flag reports ri(rge f) meets ri(dom g).

    Each pair of pieces, ri(A) of f in (x, y) and ri(B) of g in (y, z),
    sits in R^(n+p+q).  When the joint ri cell is nonempty, its closure is
    A' intersected with B' for the embedded bases (Rockafellar, Thm 6.5),
    and the composed piece is the ri of that closed cell's shadow on
    (x, z), since ri(T C) = T(ri C) (Thm 6.6).  By Thm 6.6 again, ri(rge f)
    and ri(dom g) are the shadows of the ri cells of the two graph hulls,
    so they meet exactly when those cells, embedded side by side, have a
    common point: one strict check.  By Thm 6.6 too, the kept coordinates
    of the joint cell's strict witness lie in the ri of the shadow, and
    the shadow is canonicalized from that point.
    """
    if f.p != g.n:
        raise DimensionMismatch("inner dims do not match")
    total = f.n + f.p + g.p
    left, right = range(f.n + f.p), range(f.n, total)
    keep = [*range(f.n), *range(f.n + f.p, total)]
    cells = []
    for a in f.graph.pieces:
        a_cell = a.system().embed(left, total)
        for b in g.graph.pieces:
            joint = a_cell.combine(b.system().embed(right, total))
            wit = strict_feasible(joint).witness
            if wit is not None:
                shadow = closed_shadow(joint.closed(), keep)
                cells.append((shadow, tuple(wit[i] for i in keep)))
    f_ri, g_ri = _ri_cell(f.graph), _ri_cell(g.graph)
    qc = False
    if f_ri is not None and g_ri is not None:
        both = f_ri.embed(left, total).combine(g_ri.embed(right, total))
        qc = strict_feasible(both).feasible
    return SVMap(f.n, g.p, _ncset_of_cells(f.n + g.p, cells)), qc


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


def build_phi(theta: NCSet, f: SVMap, g: SVMap) -> tuple[SVMap, bool]:
    """(x,y) maps to F(x) when x lies in theta and y in G(x); graph over
    (x, y, z) with x in R^n, y in R^q, z in R^p."""
    if theta.dim != f.n or g.n != f.n:
        raise DimensionMismatch("component input dims must agree")
    n, p, q = f.n, f.p, g.p
    # (x, z) + y block, permuted to (x, y, z)
    s1 = product(f.graph, whole_space(q))
    perm = list(range(n)) + list(range(n + p, n + p + q)) + list(range(n, n + p))
    s1 = permute_coords(s1, perm)
    s2 = product(theta, whole_space(q + p))
    s3 = product(g.graph, whole_space(p))
    glued, _ = intersect(s1, s2)
    glued, _ = intersect(glued, s3)
    return SVMap(n + q, p, glued), _ri_overlap(dom(f), dom(g), theta)


def build_psi(theta: NCSet, f: SVMap, g: SVMap) -> tuple[SVMap, bool]:
    """(x,u,y) maps to F(x+u) when x lies in theta and y in G(x); graph
    over (x, u, y, z)."""
    if theta.dim != f.n or g.n != f.n:
        raise DimensionMismatch("component input dims must agree")
    n, p, q = f.n, f.p, g.p
    total = 2 * n + q + p
    # F(x+u): pull the graph of F back under (x,u,y,z) -> (x+u, z)
    t_rows = [
        la.add(la.unit(total, i), la.unit(total, n + i)) for i in range(n)
    ]
    t_rows += [la.unit(total, 2 * n + q + i) for i in range(p)]
    s1, _ = preimage(f.graph, tuple(t_rows))
    s2 = product(theta, whole_space(n + q + p))
    # (x, y) in gph G with u, z free: product gives (x, y, u, z)
    s3 = product(g.graph, whole_space(n + p))
    perm = (
        list(range(n))
        + list(range(n + q, n + q + n))
        + list(range(n, n + q))
        + list(range(2 * n + q, total))
    )
    s3 = permute_coords(s3, perm)
    glued, _ = intersect(s1, s2)
    glued, _ = intersect(glued, s3)
    return SVMap(2 * n + q, p, glued), _ri_overlap(dom(f), dom(g), theta)


def sum_with_affine_inner(f: SVMap, g: SVMap, a: Mat) -> SVMap:
    """(x,y) maps to F(x) + G(Ax + y); nearly convex from properness alone,
    no qualification condition."""
    n, q = f.n, f.p
    p = g.n
    if g.p != q:
        raise DimensionMismatch("output dims must agree")
    if len(a) != p or (a and len(a[0]) != n):
        raise DimensionMismatch("matrix shape must be p x n")
    if not dom(f).pieces or not dom(g).pieces:
        raise EmptyDomain("both mappings must have nonempty domains")
    total = n + p + q
    # H1: (x,y) -> F(x): graph {(x,y,z) : (x,z) in gph F}
    s1 = product(f.graph, whole_space(p))  # (x, z, y)
    perm = list(range(n)) + list(range(n + q, n + q + p)) + list(range(n, n + q))
    h1 = SVMap(n + p, q, permute_coords(s1, perm))
    # H2: (x,y) -> G(Ax+y): pull gph G back under (x,y,z) -> (Ax+y, z)
    t_rows = [a[i] + la.unit(p, i) + la.zeros(q) for i in range(p)]
    t_rows += [la.zeros(n + p) + la.unit(q, i) for i in range(q)]
    s2, _ = preimage(g.graph, tuple(t_rows))
    h2 = SVMap(n + p, q, s2)
    got, _ = map_sum(h1, h2)
    return got


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
    """x -> Ax + c + K for a polyhedral cone K given by homogeneous rows."""
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

    graph = from_closed_hpoly(HPoly(n + p, shift(cone.ineq), shift(cone.eq)))
    return SVMap(n, p, graph)
