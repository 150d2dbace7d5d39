"""Nearly convex sets as finite unions of relatively open polyhedra.

A piece is ri(base) for a canonical nonempty H-polyhedron. The class is
closed under products, intersections, linear images, preimages, and
Minkowski sums, and membership is a finite number of exact row checks.

Near convexity of a union is decided against its closed convex hull H:
the set is nearly convex iff ri(H) is covered by the pieces themselves
(then H = cl ri(H) is covered by the piece closures, so the closure is
convex). The check runs by cell subtraction and reports a witness point
on failure.

Intersections, Minkowski sums and the calculus of svmap, plfunc and
variational are one construction, joint_image: the shadow of sets placed
at given coordinates, one piece per joint ri cell that has a strict
witness.  The piece is canonicalized from that point of its relative
interior (preimages do the same), so canonical_form spends no LP on it.

A dominant piece is one whose base D holds every other piece's base, as
the top face does in the faces of a closed polyhedron (from_closed_hpoly)
and in most epigraphs.  A set made of faces is handed its top face
(from_faces); on any other set, integer row checks find it with no LP,
once per set (NCSet.dominant).  D is then the closed hull of the set,
and the set lies between ri(D) and D: so a linear cost has the same inf
over the set's slice at x as over D's closed slice whenever ri(D) meets
that slice (Rockafellar, Thm 6.5).  closure_hull and plfunc.slice_inf run through
it, and fall back to every piece when there is no dominant piece or its
cell misses the slice.

Operations that are exact pointwise but whose relative-interior formula
needs an overlap qualification (intersection, preimage) return the result
together with the qualification flag instead of raising.  A joint image
under such a qualification (qualified_image) solves its overlap system
once: the point where the relative interiors meet gives the flag and
seeds the folds, so the cells that hold it take no strict LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from . import linalg as la
from .errors import (
    CertificateError,
    DimensionMismatch,
    EmptyPolyhedron,
    NotNearlyConvex,
)
from .linalg import Mat, Vec
from .lp import MixedSystem, _integer_point
from .polyhedron import (
    HPoly,
    VPoly,
    _cancel,
    _canonical,
    _canonical_hpoly,
    _flat,
    _hpoly_sort_key,
    _ri_int_point,
    canonical_form,
    closure_hpoly,
    decompose_mixed,
    difference_witness,
    faces,
    image,
    ri_point,
    ri_shadow,
    shadow,
    strict_point,
    to_hrep,
    to_vrep,
)
from .rationals import format_vector


@dataclass(frozen=True)
class ROPoly:
    """ri(base); base is canonical and nonempty."""

    base: HPoly

    @property
    def dim(self) -> int:
        return self.base.dim

    def system(self) -> MixedSystem:
        return self.base.ri_system()

    def contains(self, x: Vec) -> bool:
        return self.system().satisfies(x)


@dataclass(frozen=True)
class NCSet:
    dim: int
    pieces: tuple[ROPoly, ...]

    def contains(self, x: Vec) -> bool:
        """Exact row checks in integers, the point scaled once for every
        piece."""
        if len(x) != self.dim:
            raise DimensionMismatch("point dim does not match set dim")
        xi, den = _integer_point(x)
        return any(pc.system().satisfies_int(xi, den) for pc in self.pieces)

    @cached_property
    def dominant(self) -> Optional[ROPoly]:
        """The piece whose base holds every other piece's base: the top
        face of a set made by from_faces, or else the one exact row checks
        show (_dominant_piece); kept on the set, not a field, so repr,
        equality and hashing see the pieces alone."""
        return _dominant_piece(self.pieces)


def _holds_on(base: HPoly):
    """A test of integer rows [a..., b] for a.x <= b holding on base, with
    no LP: the row, reduced against the equality block of base, must be
    0 <= b with b >= 0, or a positive multiple of a row of base with a
    bound no smaller.  Sufficient only: an implied row that is no single
    row of base fails the test."""
    weak, _, eq = base.closed_system().rows
    eqs, ineq = _flat(eq), _flat(weak)
    pivots = [next(j for j, v in enumerate(e) if v) for e in eqs]
    bounds = {}  # primitive coefficients -> bound
    for r in ineq:
        g = gcd(*r[:-1])
        bounds[tuple(v // g for v in r[:-1])] = Fraction(r[-1], g)

    def holds(row: list[int]) -> bool:
        for e, pc in zip(eqs, pivots):
            row = _cancel(row, e, pc)
        g = gcd(*row[:-1])
        if not g:
            return row[-1] >= 0
        bound = bounds.get(tuple(v // g for v in row[:-1]))
        return bound is not None and bound <= Fraction(row[-1], g)

    return holds


def _dominant_piece(pieces: Sequence[ROPoly]) -> Optional[ROPoly]:
    """A piece whose base B holds every other base, so that B is the
    closed convex hull of the union and holds every piece; None when no
    piece is shown to.  Only the pieces with the fewest equalities (the
    largest dimension) can be B.  A candidate is kept when each of its
    rows, and each equality row in both directions, holds on every other
    base by _holds_on.  Canonical bases are distinct sets, so at most one
    piece holds all the others."""
    if len(pieces) <= 1:
        return pieces[0] if pieces else None
    fewest = min(len(pc.base.closed_system().rows[2]) for pc in pieces)
    tests = {}  # piece index -> _holds_on of its base, built when first needed
    for pc in pieces:
        weak, _, eq = pc.base.closed_system().rows
        if len(eq) != fewest:
            continue
        rows = _flat(weak) + _flat(eq) + [(*(-v for v in a), -b) for a, b, _ in eq]
        for i, other in enumerate(pieces):
            if other is pc:
                continue
            if i not in tests:
                tests[i] = _holds_on(other.base)
            if not all(map(tests[i], rows)):
                break
        else:
            return pc
    return None


def ropoly(base: HPoly) -> ROPoly:
    canon = canonical_form(base)
    if canon is None:
        raise EmptyPolyhedron("relatively open piece needs a nonempty base")
    return ROPoly(canon)


def ncset(dim: int, bases: Iterable[HPoly]) -> NCSet:
    return _of_canonical(dim, map(canonical_form, bases))


def _ncset_of_cells(dim: int, cells: Iterable[tuple[HPoly, Vec]]) -> NCSet:
    """ncset of the bases of (base, point of ri(base)) pairs, each
    canonicalized from its point."""
    seeded = (_canonical(b, z) for b, z in cells)
    return _of_canonical(dim, (found[0] for found in seeded if found is not None))


def _of_canonical(dim: int, canons: Iterable[Optional[HPoly]]) -> NCSet:
    seen = {c for c in canons if c is not None}
    return NCSet(dim, tuple(ROPoly(c) for c in sorted(seen, key=_hpoly_sort_key)))


def from_mixed(m: MixedSystem) -> NCSet:
    """The solution set of any mixed system, as faces of its closure."""
    return from_faces(m.dim, decompose_mixed(m))


def from_closed_hpoly(p: HPoly) -> NCSet:
    """A closed polyhedron is the union of the ri's of its nonempty faces.
    faces() gives each face once, canonical and in ncset's piece order,
    so this equals from_mixed(p.closed_system()) with no decomposition."""
    return from_faces(p.dim, faces(p))


def from_faces(dim: int, all_faces: Sequence[HPoly]) -> NCSet:
    """The union of the ri's of faces of one closed polyhedron, given in
    faces() order: all of them, or those decompose_mixed keeps.  The
    first face is the polyhedron itself, which holds every other face, so
    it is kept as the set's dominant piece and no row check looks for it."""
    s = NCSet(dim, tuple(ROPoly(f) for f in all_faces))
    if s.pieces:
        s.__dict__["dominant"] = s.pieces[0]
    return s


def from_closure_and_faces(p: HPoly, active_sets: Iterable[Sequence[int]]) -> NCSet:
    bases = [p]
    for active in active_sets:
        extra = tuple(p.ineq[i] for i in active)
        bases.append(HPoly(p.dim, p.ineq, p.eq + extra))
    return ncset(p.dim, bases)


def whole_space(n: int) -> NCSet:
    return NCSet(n, (ROPoly(HPoly(n)),))


def permute_coords(s: NCSet, perm: Sequence[int]) -> NCSet:
    """Reindex coordinates: new coordinate j reads old coordinate perm[j]."""
    if sorted(perm) != list(range(s.dim)):
        raise DimensionMismatch("perm must be a permutation of all coordinates")
    cols = sorted(range(s.dim), key=lambda i: perm[i])  # old i goes to cols[i]
    moved = [pc.base.closed_system().embed(cols, s.dim) for pc in s.pieces]
    return ncset(s.dim, [closure_hpoly(m) for m in moved])


def union(*sets: NCSet) -> NCSet:
    dims = {s.dim for s in sets}
    if len(dims) != 1:
        raise DimensionMismatch("union of sets with mixed dims")
    return ncset(dims.pop(), [pc.base for s in sets for pc in s.pieces])


def membership(s: NCSet, x: Vec) -> bool:
    return s.contains(la.vec(x))


def piece_ri_point(pc: ROPoly) -> Vec:
    """A point of the piece, from its generators: the vertex barycenter
    pushed one unit along every ray."""
    v = to_vrep(pc.base)
    pt = la.scale(la.vsum(v.points), Fraction(1, len(v.points)))
    for r in v.rays:
        pt = la.add(pt, r)
    return pt


def ri_sample(s: NCSet) -> Optional[Vec]:
    """A point of the first piece, or None for the empty set."""
    return piece_ri_point(s.pieces[0]) if s.pieces else None


# ---------------------------------------------------------------------------
# closure hull and the near-convexity test


@lru_cache(maxsize=None)
def closure_hull(s: NCSet) -> Optional[HPoly]:
    """Closed convex hull of the union, canonical. Equals the closure
    exactly when the set is nearly convex.

    The hull H is the convex hull of the pooled generators of the piece
    bases, and it holds every base.  So a base that holds every other base
    is H (it holds the union, and is the closure of its own piece): the
    dominant piece's base gives H with no double description.  Failing
    that, a base that holds every pooled point, and every pooled ray in
    its recession cone, is H; and failing that, H comes from the pooled
    generators."""
    if not s.pieces:
        return None
    if s.dominant is not None:
        return s.dominant.base
    vreps = [to_vrep(pc.base) for pc in s.pieces]
    points = sorted({x for v in vreps for x in v.points})
    rays = sorted({r for v in vreps for r in v.rays})
    for pc in s.pieces:
        base = pc.base
        if all(map(base.contains, points)) and all(map(base.recedes, rays)):
            return base
    return to_hrep(VPoly(s.dim, tuple(points), tuple(rays)))


def shadow_hull(s: NCSet, keep: Sequence[int]) -> Optional[HPoly]:
    """The closed convex hull of the shadow of s on keep (increasing),
    canonical; None when s is empty.  It is the shadow of the closed hull
    H of s.  The convex hull of an image is the image of the convex hull,
    and a linear map sends cl C into cl of the image of C; so the shadow
    of H lies between the convex hull of the shadow and its closure.  The
    image of a polyhedron under a linear map is a closed polyhedron
    (Rockafellar, Thm 19.3), so the shadow of H is that closure, and its
    ri is the shadow of ri(H) (Thm 6.6).  So the hull of dom f is read
    off the hull of epi f, with no shadow of a piece taken, from H's
    generators (polyhedron.shadow)."""
    hull = closure_hull(s)
    return None if hull is None else shadow(hull.closed_system(), keep, ri_point(hull))


@lru_cache(maxsize=None)
def is_nearly_convex(s: NCSet) -> tuple[bool, Optional[Vec]]:
    """Decide near convexity. For a finite union C of relatively open
    pieces, C is nearly convex iff ri(H) is a subset of C, where H is the
    closed convex hull: then H = cl ri(H) lies in cl C too. When a piece
    has H as its base, ri(H) is that piece and no LP runs; otherwise one
    cell subtraction decides. The closed test (H minus the piece
    closures) runs only on failure, to choose the witness: a point of H
    outside cl C when there is one, else a point of ri(H) outside C."""
    if not s.pieces:
        return True, None
    hull = closure_hull(s)
    if hull is None:
        raise CertificateError("a set with pieces has a nonempty hull")
    if any(pc.base == hull for pc in s.pieces):
        return True, None
    z = ri_point(hull)
    ri_wit = difference_witness([(hull.ri_system(), z)], [pc.system() for pc in s.pieces])
    if ri_wit is None:
        return True, None
    wit = difference_witness(
        [(hull.closed_system(), z)], [pc.base.closed_system() for pc in s.pieces]
    )
    return False, ri_wit if wit is None else wit


def require_valid(s: NCSet) -> None:
    ok, wit = is_nearly_convex(s)
    if not ok:
        witness = format_vector(wit)
        raise NotNearlyConvex(f"set is not nearly convex, witness {witness}")


def closure(s: NCSet) -> Optional[HPoly]:
    require_valid(s)
    return closure_hull(s)


def relative_interior(s: NCSet) -> Optional[ROPoly]:
    require_valid(s)
    hull = closure_hull(s)
    return None if hull is None else ROPoly(hull)


# ---------------------------------------------------------------------------
# set comparisons


def contains_set(outer: NCSet, inner: NCSet) -> bool:
    if outer.dim != inner.dim:
        raise DimensionMismatch("comparing sets of different dims")
    cells = [(pc.system(), strict_point(pc.system())) for pc in inner.pieces]
    wit = difference_witness(cells, [pc.system() for pc in outer.pieces])
    return wit is None


def set_equal(a: NCSet, b: NCSet) -> bool:
    return contains_set(a, b) and contains_set(b, a)


# ---------------------------------------------------------------------------
# calculus


def product(s1: NCSet, s2: NCSet) -> NCSet:
    """s1 x s2, one piece ri(A) x ri(B) = ri(A x B) per pair of pieces,
    with no LP: the canonical rows of A and B, padded with zeros, are
    those of A x B, the equalities of A before those of B (so the block
    stays in RREF) and the facets of both sorted.  The ri points A and B
    keep make the point the piece keeps (ri_point)."""
    n, p = s1.dim, s2.dim
    pieces = []
    for a in s1.pieces:
        left = a.base.closed_system().embed(range(n), n + p)
        xa, da = _ri_int_point(a.base)
        for b in s2.pieces:
            weak, _, eq = left.combine(b.base.closed_system().embed(range(n, n + p), n + p)).rows
            xb, db = _ri_int_point(b.base)
            den = lcm(da, db)
            z = [v * (den // da) for v in xa] + [v * (den // db) for v in xb], den
            pieces.append(_canonical_hpoly(n + p, _flat(eq), sorted(_flat(weak)), z))
    return _of_canonical(n + p, pieces)


# sets, each placed at its columns of a joint space
Parts = Sequence[tuple[NCSet, Sequence[int]]]


def joint_image(dim: int, parts: Parts, keep: Sequence[int], z: Optional[Vec] = None) -> NCSet:
    """The shadow on keep (increasing) of the z in R^dim whose coordinates
    at each part's columns lie in that part's set; two or more parts.  A
    linear link such as s = y1 + y2 is a one-piece part.

    The parts are folded in one at a time over one piece of each, and a
    partial cell is dropped as soon as it has no strict point (the first
    part's pieces need no check).  A fold first tries the cell's strict
    witness with the part's new columns solved from the piece's
    equalities (_extend), checked in integers; so a link, whose columns
    are new and whose rows are equalities, takes no LP.  Only when that
    point misses the joint cell does strict_point decide.  A surviving
    cell gives one piece, polyhedron.ri_shadow of it from its strict
    witness: the ri of the closed shadow of its closure (Rockafellar,
    Thms 6.5 and 6.6), canonicalized from the witness's kept
    coordinates.  A point z of R^dim that the caller holds, such as
    overlap_point's, is the witness of each first-part cell that
    holds it, so a fold whose joint cell holds it too takes no LP."""
    keep = list(keep)
    (first, cols), *rest = parts
    cells = [(pc.system().embed(cols, dim), None) for pc in first.pieces]
    if z is not None:
        cells = [(cell, z if cell.satisfies(z) else None) for cell, _ in cells]
    used = set(cols)
    for s, cols in rest:
        new = [c for c in cols if c not in used]
        used.update(cols)
        moved = [pc.system().embed(cols, dim) for pc in s.pieces]
        folded = []
        for cell, wit in cells:
            for m in moved:
                joint = cell.combine(m)
                z = None if wit is None else _extend(wit, m, new)
                if z is None or not joint.satisfies(z):
                    z = strict_point(joint)
                if z is not None:
                    folded.append((joint, z))
        cells = folded
    return _of_canonical(len(keep), (ri_shadow(cell, wit, keep) for cell, wit in cells))


def _extend(z: Vec, m: MixedSystem, new: Sequence[int]) -> Optional[Vec]:
    """z with its entries at the columns new solved from the equalities of
    m, the other entries held; z itself when m has none, and None when
    they cannot be solved."""
    if not (new and m.eq):
        return z
    held = [v if c not in new else la.ZERO for c, v in enumerate(z)]
    solved = la.solve_linear(
        tuple(tuple(a[c] for c in new) for a, _ in m.eq),
        tuple(b - la.dot(a, held) for a, b in m.eq),
    )
    if solved is None:
        return None
    for c, v in zip(new, solved[0]):
        held[c] = v
    return tuple(held)


def overlap_point(dim: int, parts: Parts) -> Optional[Vec]:
    """A point of R^dim where the relative interiors of the parts' sets,
    each at its columns, meet, or None when they do not: strict_point of
    the ri cells of their hulls."""
    hulls = [closure_hull(s) for s, _ in parts]
    if any(h is None for h in hulls):
        return None
    cells = [h.ri_system().embed(cols, dim) for h, (_, cols) in zip(hulls, parts)]
    return strict_point(reduce(MixedSystem.combine, cells))


def qualified_image(dim: int, parts: Parts, keep: Sequence[int]) -> tuple[NCSet, bool]:
    """joint_image(dim, parts, keep) and the qc flag of its ri formula:
    do the relative interiors of the parts' sets meet?  One overlap_point
    gives the flag and seeds the folds."""
    z = overlap_point(dim, parts)
    return joint_image(dim, parts, keep, z), z is not None


def sum_link(p: int) -> NCSet:
    """{(a, b, s) in R^(3p) : s = a + b}, the link part of a sum."""
    rows = tuple(
        (la.unit(p, i) + la.unit(p, i) + la.neg(la.unit(p, i)), la.ZERO)
        for i in range(p)
    )
    return ncset(3 * p, [HPoly(3 * p, (), rows)])


def intersect(s1: NCSet, s2: NCSet) -> tuple[NCSet, bool]:
    """Exact pointwise intersection; the flag reports whether the relative
    interiors of the two sets overlap (which certifies the ri formula)."""
    if s1.dim != s2.dim:
        raise DimensionMismatch("intersecting sets of different dims")
    parts = [(s1, range(s1.dim)), (s2, range(s1.dim))]
    return qualified_image(s1.dim, parts, range(s1.dim))


def linear_image(s: NCSet, t: Mat) -> NCSet:
    """{t x : x in s}, one piece ri(t B) = t ri(B) per piece ri(B)
    (Rockafellar, Thm 6.6), its base the closed image of B's generators
    (polyhedron.image)."""
    p = len(t)
    if p == 0:
        raise DimensionMismatch("image space must have positive dim")
    return _of_canonical(p, [image(pc.base, t) for pc in s.pieces])


def preimage(s: NCSet, t: Mat) -> tuple[NCSet, bool]:
    """{x : t x in s}; flag = preimage of ri(s) is nonempty, which
    certifies ri(result) = preimage of ri(s)."""
    return affine_preimage(s, t, la.zeros(s.dim))


def affine_preimage(s: NCSet, t: Mat, shift: Vec) -> tuple[NCSet, bool]:
    """{x : t x + shift in s}, same certification flag as preimage."""
    if len(t) != s.dim or len(shift) != s.dim:
        raise DimensionMismatch("matrix height does not match set dim")
    cells = []
    for pc in s.pieces:
        cell = pc.system().pullback(t, shift)
        wit = strict_point(cell)
        if wit is not None:
            cells.append((closure_hpoly(cell), wit))
    result = _ncset_of_cells(len(t[0]) if t else 0, cells)
    qc = False
    hull = closure_hull(s)
    if hull is not None:
        qc = strict_point(hull.ri_system().pullback(t, shift)) is not None
    return result, qc


def minkowski_sum(s1: NCSet, s2: NCSet) -> NCSet:
    """The shadow on s of (a, b, s) with a in s1, b in s2, s = a + b."""
    if s1.dim != s2.dim:
        raise DimensionMismatch("summing sets of different dims")
    n = s1.dim
    parts = [(s1, range(n)), (s2, range(n, 2 * n)), (sum_link(n), range(3 * n))]
    return joint_image(3 * n, parts, range(2 * n, 3 * n))
