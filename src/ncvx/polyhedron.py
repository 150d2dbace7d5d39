"""Closed convex polyhedra and relatively open cells, exactly.

The canonical form of an H-polyhedron is the backbone of the library: the
equality block spans the affine hull and is in reduced row echelon form,
the inequality rows are reduced against its pivots and are exactly the
facets, and everything is scaled to primitive integers and sorted. Two
H-descriptions define the same set if and only if their canonical forms
are identical, which turns set equality into tuple comparison. The
relative interior of a canonical polyhedron is exactly "equalities hold,
every remaining inequality strict".

The canonical form spends LPs only on what linear algebra cannot settle.
RREF of the equality block, fraction-free on integer rows, finds the
emptiness that shows as 0 = 1 or as a reduced row 0 <= b < 0. One
strict-feasibility LP over all reduced rows then settles the usual case:
a strict point means no implicit equalities, a Farkas certificate means
empty. A caller that already holds a point of the relative interior hands
it in instead of that LP. Only when it fails do rounds of one slack-sum
LP each sort the rows into implicit equalities and the rest (Fukuda,
Polyhedral computation FAQ). Redundancy is settled from the strict point
when there is one: a ray from it that meets one row before any other
shows a facet with no LP, in the line of Clarkson's ray shooting (1994).
Each row it does not settle costs one LP, and a lone row none.  The
point where a ray meets a facet lies in the facet's relative interior, so
the faces of a polyhedron are enumerated from such points, each facet
seeding its own children.

Projection is Fourier-Motzkin with equality pivoting, on closed systems
only and with no LP: canonical_form removes the redundant rows it leaves.
A relatively open cell has one shadow rule, ri(AC) = A ri(C) (Rockafellar,
Thm 6.6): its shadow is the ri of the closed shadow of its closure,
canonicalized from the kept coordinates of a point of the cell
(ri_shadow). Vertex/ray descriptions come from the double description
method run on the homogenization, and the same cone routine applied to
the polar gives the reverse conversion. The method runs in integers: each
row is scaled once to a primitive integer vector, rays and lineality
vectors stay primitive integer tuples, and each ray carries a bitmask of
the rows it is tight on, so the adjacency test of two rays is a mask test
against the others. Fractions appear only in its result.

Mixed cells (weak + strict + equality rows) are the set-algebra workhorse:
region subtraction peels one constraint at a time, each cell carrying a
point of its own that settles most of its nonemptiness tests with no LP,
and any feasible mixed system splits into relatively open polyhedra by
recursing on the facets of its closure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Optional, Sequence

from . import linalg as la
from .errors import (
    CertificateError,
    DimensionCapExceeded,
    DimensionMismatch,
    PointNotInSet,
    UsageError,
)
from .linalg import ONE, Vec, ZERO
from .lp import (
    MixedSystem,
    Row,
    _dot,
    _integer_point,
    _primitive,
    feasible_point,
    int_system,
    maximize,
    strict_feasible,
)

DEFAULT_DIM_CAP = 6
MAX_CELLS = 50_000


@dataclass(frozen=True)
class HPoly:
    """{x : A x <= b, E x = d} with rational rows.

    Its closed system, ri system and recession-cone system are each made
    once, on first use, and kept in the polyhedron's __dict__ with the
    integer rows they keep (MixedSystem.scaled_rows); they are not fields,
    so repr, equality and hashing see the rows alone."""

    dim: int
    ineq: tuple[Row, ...] = ()
    eq: tuple[Row, ...] = ()

    def __post_init__(self):
        for a, _ in self.ineq + self.eq:
            if len(a) != self.dim:
                raise DimensionMismatch("row length does not match dim")

    def closed_system(self) -> MixedSystem:
        kept = self.__dict__.get("_closed")
        if kept is None:
            kept = MixedSystem(self.dim, self.ineq, (), self.eq)
            self.__dict__["_closed"] = kept
        return kept

    def ri_system(self) -> MixedSystem:
        """Meaningful on canonical forms: strict rows carve the ri."""
        kept = self.__dict__.get("_ri")
        if kept is None:
            kept = self.__dict__["_ri"] = self.closed_system().opened()
        return kept

    def cone_system(self) -> MixedSystem:
        """The recession cone: a.d <= 0 on each row, = 0 on each
        equality."""
        kept = self.__dict__.get("_cone")
        if kept is None:
            kept = self.__dict__["_cone"] = self.closed_system().homogeneous()
        return kept

    def contains(self, x: Vec) -> bool:
        return self.closed_system().satisfies(x)

    def recedes(self, d: Vec) -> bool:
        """Is d in the recession cone?"""
        return self.cone_system().satisfies(d)


@dataclass(frozen=True)
class VPoly:
    """conv(points) + cone(rays); empty iff points is empty."""

    dim: int
    points: tuple[Vec, ...] = ()
    rays: tuple[Vec, ...] = ()


@dataclass(frozen=True)
class NormalConeRep:
    """cone(generators) + span(lineality)."""

    dim: int
    generators: tuple[Vec, ...] = ()
    lineality: tuple[Vec, ...] = ()


def hpoly(dim: int, ineq: Iterable = (), eq: Iterable = ()) -> HPoly:
    return HPoly(
        dim,
        tuple((la.vec(a), Fraction(b)) for a, b in ineq),
        tuple((la.vec(a), Fraction(b)) for a, b in eq),
    )


def empty_hpoly(dim: int) -> HPoly:
    return HPoly(dim, ((la.zeros(dim), Fraction(-1)),), ())


def full_space(dim: int) -> HPoly:
    return HPoly(dim)


def box(bounds: Sequence[tuple]) -> HPoly:
    n = len(bounds)
    rows = []
    for i, (lo, hi) in enumerate(bounds):
        rows.append((la.unit(n, i), Fraction(hi)))
        rows.append((la.neg(la.unit(n, i)), Fraction(-Fraction(lo))))
    return HPoly(n, tuple(rows))


def _norm_ineq(a: Vec, b: Fraction) -> Row:
    joint = la.primitive(a + (b,))
    return joint[:-1], joint[-1]


def _norm_eq(a: Vec, b: Fraction) -> Row:
    joint = la.primitive(a + (b,))
    lead = next((v for v in joint if v != 0), ZERO)
    if lead < 0:
        joint = la.neg(joint)
    return joint[:-1], joint[-1]


IntRow = Sequence[int]  # coefficients, then the right-hand side
IntPoint = tuple[list[int], int]  # (X, D) for the point X / D


def _int_rows(p: HPoly) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """(equality rows, inequality rows) of p as integer rows, read off the
    rows its closed system keeps."""
    weak, _, eq = p.closed_system().scaled_rows()
    return [a + (b,) for a, b, _ in eq], [a + (b,) for a, b, _ in weak]


def _cancel(row: IntRow, e: Sequence[int], pc: int) -> IntRow:
    """primitive(e[pc] row - row[pc] e): zero in column pc, and a positive
    multiple of row minus its part along e, since e[pc] > 0."""
    if not row[pc]:
        return row
    f, p = row[pc], e[pc]
    return _primitive([p * x - f * y for x, y in zip(row, e)])


def _eliminate_int(
    dim: int, eq: Iterable[IntRow], ineq: Iterable[IntRow]
) -> Optional[tuple[list[tuple[int, ...]], list[tuple[int, ...]]]]:
    """Step 1 of canonical_form on integer rows.

    Fraction-free Gauss-Jordan: a pivot row e (e[pc] > 0) cancels column
    pc from every other row by cross-multiplication, keeping rows
    primitive.  The basis comes out in pivot order, each row the
    primitive multiple of its RREF row, whose leading entry is its pivot.
    The inequality rows are reduced the same way; positive multiples keep
    their sense.  They come out primitive, deduplicated and sorted.  None
    when this alone shows the set empty."""
    basis: list[IntRow] = []
    pivots: list[int] = []
    work = [r for r in eq if any(r)]
    for c in range(dim + 1):
        at = next((i for i, r in enumerate(work) if r[c]), None)
        if at is None:
            continue
        if c == dim:
            return None  # 0 = b with b nonzero
        e = work.pop(at)
        if e[c] < 0:
            e = [-x for x in e]
        e = _primitive(e)
        basis = [_cancel(r, e, c) for r in basis]
        work = [r for r in (_cancel(r, e, c) for r in work) if any(r)]
        basis.append(e)
        pivots.append(c)
    rows = set()
    for r in ineq:
        for e, pc in zip(basis, pivots):
            r = _cancel(r, e, pc)
        if not any(r[:-1]):
            if r[-1] < 0:
                return None
            continue
        rows.add(tuple(_primitive(list(r))))
    return [tuple(e) for e in basis], sorted(rows)


def _hpoly_of(dim: int, eq: Sequence[IntRow], ineq: Sequence[IntRow]) -> HPoly:
    """The polyhedron of integer rows, its closed system kept with them."""
    closed = int_system(dim, ineq, (), eq)
    p = HPoly(dim, closed.weak, closed.eq)
    p.__dict__["_closed"] = closed
    return p


def _split_implicit(dim: int, ineq: Sequence[Row], eq: Sequence[Row]) -> list[int]:
    """The indices of the implicit equalities among the rows of a nonempty
    system, in rounds of one LP: maximize the sum of slacks t_i in [0, 1],
    with a_i.x + t_i <= b_i on the rows not yet classified.  A row strict
    at the optimal point is no implicit equality; when no row is strict
    there, the optimum is 0 and every unclassified row is tight on the
    whole set."""
    todo = list(range(len(ineq)))
    while todo:
        k = len(todo)
        slack = dict(zip(todo, la.identity(k)))
        rows = [(a + slack.get(i, la.zeros(k)), b) for i, (a, b) in enumerate(ineq)]
        for t in la.identity(k):
            rows += [(la.zeros(dim) + t, ONE), (la.zeros(dim) + la.neg(t), ZERO)]
        lifted = MixedSystem(
            dim + k, tuple(rows), (), tuple((a + la.zeros(k), b) for a, b in eq)
        )
        out = maximize(la.zeros(dim) + (ONE,) * k, lifted)
        if out.status != "optimal":
            raise CertificateError("slack-sum LP of a nonempty system has an optimum")
        x = out.witness[:dim]
        strict = {i for i in todo if la.dot(ineq[i][0], x) < ineq[i][1]}
        if not strict:
            if out.value != 0:
                raise CertificateError("a positive slack sum makes some row strict")
            break
        todo = [i for i in todo if i not in strict]
    return todo


@lru_cache(maxsize=None)
def canonical_form(p: HPoly) -> Optional[HPoly]:
    """Unique facet-based representation, or None when the set is empty.

    1. RREF of the equality block; the inequality rows are reduced against
       its pivots.  A 0 = 1 pivot or a row 0 <= b < 0 means empty, and
       rows 0 <= b >= 0 are dropped.  No LP; all in integers.
    2. One strict-feasibility LP on the reduced rows made strict.  A
       strict point means no implicit equalities; a Farkas certificate
       for the closed system means empty.
    3. Otherwise the implicit equalities come from slack-sum rounds; they
       join the equality block and step 1 runs once more.
    4. Redundancy.  When step 2 gave a strict point z, a ray from z
       shows facets with no LP (see _facets_seen_from); each other row
       takes one LP.  A lone row needs none: it is nonzero after
       reduction, so it cuts the affine hull.

    A caller that holds a point of ri(p) skips step 2 and seeds step 4
    with it (_canonical_from); the facets are unique, so the result is
    the same.  The rows are integer from step 1 on.  Their Fractions are
    built once, for the LP of step 2, and the result reuses them."""
    found = _canonical(p)
    return None if found is None else found[0]


# a canonical polyhedron and, per facet row, a point of that facet's ri or None
Seeded = tuple[HPoly, list[Optional[IntPoint]]]


def _canonical(p: HPoly) -> Optional[Seeded]:
    """canonical_form(p) and, per facet row, the point of that facet's
    relative interior that step 4 met it at, or None (see _irredundant)."""
    reduced = _eliminate_int(p.dim, *_int_rows(p))
    if reduced is None:
        return None
    eq, ineq = reduced
    q = _hpoly_of(p.dim, eq, ineq)
    inside = None
    if ineq:
        joint = strict_feasible(q.ri_system())
        if joint.feasible:
            inside = _integer_point(joint.witness)
        else:
            if joint.certificate is not None:
                return None
            implicit = _split_implicit(p.dim, q.ineq, q.eq)
            rest = [r for i, r in enumerate(ineq) if i not in implicit]
            reduced = _eliminate_int(p.dim, eq + [ineq[i] for i in implicit], rest)
            if reduced is None:
                raise CertificateError("a nonempty system reduced to an empty one")
            eq, ineq = reduced
            q = _hpoly_of(p.dim, eq, ineq)
    keep, seen = _irredundant(p.dim, eq, ineq, inside)
    if len(keep) < len(ineq):  # only after LPs
        q = _hpoly_of(p.dim, eq, [ineq[i] for i in keep])
    return q, seen


def _canonical_from(p: HPoly, z: Vec) -> Optional[HPoly]:
    """canonical_form(p) for a caller holding z, a point of ri(p)."""
    found = _canonical_seeded(p, z)
    return None if found is None else found[0]


def _canonical_seeded(p: HPoly, z: Vec) -> Optional[Seeded]:
    """_canonical(p) for a caller holding z, a point of ri(p).

    After step 1, z settles step 2 when it satisfies every equality row
    and every reduced row strictly, checked in integers: then the reduced
    rows have a strict point, so none is an implicit equality, and z
    seeds the facet test of step 4.  When the check fails, p goes through
    _canonical."""
    reduced = _eliminate_int(p.dim, *_int_rows(p))
    if reduced is not None:
        eq, ineq = reduced
        zi, den = _integer_point(z)
        if all(_dot(e[:-1], zi) == e[-1] * den for e in eq) and all(
            _dot(r[:-1], zi) < r[-1] * den for r in ineq
        ):
            keep, seen = _irredundant(p.dim, eq, ineq, (zi, den))
            return _hpoly_of(p.dim, eq, [ineq[i] for i in keep]), seen
    return _canonical(p)


def _facets_seen_from(
    eq: Sequence[IntRow], ineq: Sequence[IntRow], z: IntPoint
) -> list[Optional[IntPoint]]:
    """Per row of a reduced system, a point of the facet it cuts shown
    from z = Z / D, a point of the affine hull strictly inside every row;
    None for a row no ray shows.  Rows and points are integer, so the
    callers that only need to know which rows are facets build no
    Fraction.

    For row i, the direction d that equals a_i off the pivot columns of
    the equality block and solves E d = 0 on them has a_i.d > 0, since a_i
    is zero on the pivots.  Along z + s d, the row met first, when no
    other row is met at the same step, is tight at a point of the set
    where every other row is strict, so no other row implies it, and that
    point lies in the relative interior of the facet the row cuts."""
    eq_rows = [(e[:-1], e[-1]) for e in eq]
    rows = [(r[:-1], r[-1]) for r in ineq]
    zi, den = z
    gaps = [b * den - _dot(a, zi) for a, b in rows]  # D (b - a.z) > 0
    pivots = [next(j for j, v in enumerate(e) if v) for e, _ in eq_rows]
    scale = lcm(*(e[pc] for (e, _), pc in zip(eq_rows, pivots)))
    seen: list[Optional[IntPoint]] = [None] * len(rows)
    for a, _ in rows:
        d = [v * scale for v in a]
        for pc in pivots:
            d[pc] = 0
        for (e, _), pc in zip(eq_rows, pivots):
            d[pc] = -_dot(e, d) // e[pc]
        if any(_dot(e, d) for e, _ in eq_rows):
            raise CertificateError("a ray direction must stay in the affine hull")
        first, gap, rate, tie = -1, 0, 1, False
        for j, (aj, _) in enumerate(rows):
            r = _dot(aj, d)
            if r <= 0:
                continue
            # step gaps[j] / (D r); compared by cross-multiplying
            lhs, rhs = gaps[j] * rate, gap * r
            if first < 0 or lhs < rhs:
                first, gap, rate, tie = j, gaps[j], r, False
            elif lhs == rhs:
                tie = True
        if first >= 0 and not tie and seen[first] is None:
            # z + gap / (D rate) d
            seen[first] = [v * rate + gap * w for v, w in zip(zi, d)], den * rate
    return seen


def _irredundant(
    dim: int, eq: Sequence[IntRow], ineq: Sequence[IntRow], inside: Optional[IntPoint]
) -> tuple[list[int], list[Optional[IntPoint]]]:
    """Step 4 of canonical_form on the integer rows of a reduced system
    without implicit equalities: drop each row that the others imply.
    Rows shown to be facets from a point strictly inside every row, when
    one is given, are kept with no LP; each other row takes one LP, on
    Fraction rows built then.  The facets are unique, so the result does
    not depend on which rows the point settles.

    Returns the indices of the kept rows and, per kept row, the point of
    its facet's relative interior that the ray test met, or None
    (_facets_seen_from): a point strictly inside the rows of a larger
    system is strictly inside those kept."""
    keep = list(range(len(ineq)))
    seen: list[Optional[IntPoint]] = [None] * len(ineq)
    if inside is not None:
        seen = _facets_seen_from(eq, ineq, inside)
    if len(keep) < 2 or all(seen):
        return keep, seen
    system = int_system(dim, ineq, (), eq)
    i = 0
    while len(keep) > 1 and i < len(keep):
        if seen[i] is not None:
            i += 1
            continue
        a, b = system.weak[keep[i]]
        others = tuple(system.weak[j] for j in keep if j != keep[i])
        out = maximize(a, MixedSystem(dim, others, (), system.eq))
        if out.status == "optimal" and out.value <= b:
            keep.pop(i)
            seen.pop(i)
        else:
            i += 1
    return keep, seen


def is_empty(p: HPoly) -> bool:
    return canonical_form(p) is None


def polyhedron_equal(p: HPoly, q: HPoly) -> bool:
    if p.dim != q.dim:
        raise DimensionMismatch("comparing polyhedra of different dims")
    return canonical_form(p) == canonical_form(q)


# ---------------------------------------------------------------------------
# Fourier-Motzkin projection and the shadows of relatively open cells


def _dedupe_mixed(m: MixedSystem) -> MixedSystem:
    weak: dict[tuple, Fraction] = {}
    strict: dict[tuple, Fraction] = {}
    false_weak = []
    false_strict = []
    for a, b in m.weak:
        if la.is_zero(a):
            if b < 0:
                false_weak.append((a, b))
            continue
        a, b = _norm_ineq(a, b)
        if a not in weak or b < weak[a]:
            weak[a] = b
    for a, b in m.strict:
        if la.is_zero(a):
            if b <= 0:
                false_strict.append((a, b))
            continue
        a, b = _norm_ineq(a, b)
        if a not in strict or b < strict[a]:
            strict[a] = b
    for a in list(weak):
        if a in strict and strict[a] <= weak[a]:
            del weak[a]
    eq = []
    for a, b in m.eq:
        if la.is_zero(a):
            if b != 0:
                false_weak.append((la.zeros(m.dim), Fraction(-1)))
            continue
        eq.append(_norm_eq(a, b))
    return MixedSystem(
        m.dim,
        tuple(sorted(weak.items())) + tuple(false_weak),
        tuple(sorted(strict.items())) + tuple(false_strict),
        tuple(sorted(set(eq))),
    )


def _drop_coord(v: Vec, idx: int) -> Vec:
    return v[:idx] + v[idx + 1 :]


def _eliminate(m: MixedSystem, idx: int) -> MixedSystem:
    """A closed system with coordinate idx dropped: an equality holding it
    is substituted into the other rows, or else each row positive in it is
    added to each row negative in it (Fourier-Motzkin)."""
    pivot = next(((a, b) for a, b in m.eq if a[idx] != 0), None)
    if pivot is not None:
        pa, pb = pivot

        def subst(row: Row) -> Row:
            a, b = row
            if a[idx] != 0:
                f = a[idx] / pa[idx]
                a = la.sub(a, la.scale(pa, f))
                b = b - f * pb
            return _drop_coord(a, idx), b

        return MixedSystem(
            m.dim - 1,
            tuple(subst(r) for r in m.weak),
            (),
            tuple(subst(r) for r in m.eq if r != pivot),
        )

    stay, pos, neg = [], [], []
    for a, b in m.weak:
        if a[idx] > 0:
            pos.append((a, b))
        elif a[idx] < 0:
            neg.append((a, b))
        else:
            stay.append((_drop_coord(a, idx), b))
    for (ap, bp), (an, bn) in itertools.product(pos, neg):
        coef_p = ap[idx]
        coef_n = -an[idx]
        a = la.add(la.scale(ap, coef_n), la.scale(an, coef_p))
        stay.append((_drop_coord(a, idx), coef_n * bp + coef_p * bn))
    return MixedSystem(
        m.dim - 1,
        tuple(stay),
        (),
        tuple((_drop_coord(a, idx), b) for a, b in m.eq),
    )


def _fm_shadow(m: MixedSystem, keep: Sequence[int]) -> MixedSystem:
    """Fourier-Motzkin shadow of a closed system onto the kept coordinates
    (in the order given), deduplicated between eliminations; redundant
    rows stay."""
    keep = tuple(keep)
    if sorted(set(keep)) != sorted(keep) or any(
        i < 0 or i >= m.dim for i in keep
    ):
        raise DimensionMismatch("bad projection coordinates")
    if sorted(keep) != list(keep):
        raise DimensionMismatch("projection must keep coordinate order")
    if not keep:
        raise DimensionMismatch("cannot project onto no coordinates")
    if m.strict:
        raise CertificateError("Fourier-Motzkin runs on closed systems")
    current = _dedupe_mixed(m)
    for idx in sorted(set(range(m.dim)) - set(keep), reverse=True):
        current = _dedupe_mixed(_eliminate(current, idx))
    return current


def closed_shadow(m: MixedSystem, keep: Sequence[int]) -> HPoly:
    """The projection of a closed system onto the keep coordinates, by
    Fourier-Motzkin with no LP; a relatively open cell projects through
    ri_shadow instead.  Redundant rows are left for canonical_form, which
    every caller applies, to remove."""
    shadow = _fm_shadow(m, keep)
    return HPoly(shadow.dim, shadow.weak, shadow.eq)


def ri_shadow(cell: MixedSystem, z: Vec, keep: Sequence[int]) -> HPoly:
    """The canonical base whose ri is the shadow on keep (increasing) of a
    relatively open cell, strict rows and equalities, that holds z.

    The cell is the ri of its closure cell.closed(), and the ri of a
    linear image is the image of the ri (Rockafellar, Thm 6.6); so the
    base is the closed shadow of the closure, canonicalized from z's kept
    coordinates, a point of its ri.  Keeping every column runs no
    Fourier-Motzkin."""
    keep = list(keep)
    closed = cell.closed()
    if keep == list(range(cell.dim)):
        base = _canonical_from(HPoly(cell.dim, closed.weak, closed.eq), z)
    else:
        base = _canonical_from(closed_shadow(closed, keep), tuple(z[i] for i in keep))
    if base is None:
        raise CertificateError("the shadow of a cell with a point is nonempty")
    return base


def project_mixed(m: MixedSystem, keep: Sequence[int]) -> MixedSystem:
    """The shadow on keep (increasing) of a relatively open cell, given as
    strict rows and equalities: the ri system of ri_shadow from a strict
    witness of the cell, or the marker 0 <= -1 when the cell is empty.
    The result is canonical, so two shadows are one set exactly when they
    are equal.  A weak row raises UsageError: the closure and ri of a
    cell with weak and strict rows need not be its closed() and itself."""
    if m.weak:
        raise UsageError("project_mixed takes strict rows and equalities only")
    keep = list(keep)
    wit = strict_feasible(m).witness
    if wit is None:
        return empty_hpoly(len(keep)).closed_system()
    return ri_shadow(m, wit, keep).ri_system()


def project(p: HPoly, coords: Sequence[int]) -> HPoly:
    canon = canonical_form(closed_shadow(p.closed_system(), coords))
    return canon if canon is not None else empty_hpoly(len(coords))


# ---------------------------------------------------------------------------
# Double description


def _combine(s: int, u: tuple[int, ...], t: int, v: tuple[int, ...]) -> tuple[int, ...]:
    """primitive(s u + t v) for integer vectors."""
    return tuple(_primitive([s * x + t * y for x, y in zip(u, v)]))


def _cone_generators(dim: int, rows: Sequence[Vec]) -> tuple[list[Vec], list[Vec]]:
    """Minimal (lineality, rays) generating {z : r.z >= 0 for all rows}.

    Double description in integers (Fukuda & Prodon 1996).  Each nonzero
    row is scaled once to a primitive integer vector, which keeps its
    half-space, and the rays and lineality vectors stay primitive integer
    tuples, so every dot product is an integer.  Each ray carries a bitmask
    of the processed rows it is tight on, bit k for the k-th nonzero row.
    A row that meets the lineality turns one lineality vector into a ray
    tight on every earlier row, and every old ray becomes tight on it.  A
    row that does not keeps the rays on its side, and each adjacent
    (positive, negative) pair gives a new ray tight on the rows both are
    tight on and on this one.  Adjacency is combinatorial (Zolotykh 2012):
    no third ray is tight on every row the pair shares, and a pair sharing
    fewer than dim - lin - 2 rows cannot span a 2-face.  Fractions appear
    only in the returned generators, sorted."""
    lineality = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays: list[tuple[int, ...]] = []
    masks: list[int] = []
    bit = 1
    for row in rows:
        if la.is_zero(row):
            continue
        den = lcm(*(x.denominator for x in row))
        a = _primitive([x.numerator * (den // x.denominator) for x in row])
        hit_at = next((j for j, l in enumerate(lineality) if _dot(a, l) != 0), None)
        if hit_at is not None:
            hit = lineality.pop(hit_at)
            pv = _dot(a, hit)
            if pv < 0:
                hit, pv = tuple(-x for x in hit), -pv
            lineality = [_combine(pv, l, -_dot(a, l), hit) for l in lineality]
            rays = [_combine(pv, r, -_dot(a, r), hit) for r in rays] + [hit]
            masks = [m | bit for m in masks] + [bit - 1]
        else:
            vals = [_dot(a, r) for r in rays]
            pos = [i for i, v in enumerate(vals) if v > 0]
            zero = [i for i, v in enumerate(vals) if v == 0]
            negs = [i for i, v in enumerate(vals) if v < 0]
            fresh = {rays[i]: masks[i] for i in pos}
            fresh.update((rays[i], masks[i] | bit) for i in zero)
            need = dim - len(lineality) - 2
            for p, n in itertools.product(pos, negs):
                shared = masks[p] & masks[n]
                if shared.bit_count() < need or any(
                    shared & ~m == 0 for k, m in enumerate(masks) if k != p and k != n
                ):
                    continue
                fresh.setdefault(_combine(vals[p], rays[n], -vals[n], rays[p]), shared | bit)
            rays, masks = list(fresh), list(fresh.values())
        bit <<= 1
    basis = la.row_space_basis([la.vec(l) for l in lineality])
    return sorted(la.primitive(l) for l in basis), [la.vec(r) for r in sorted(set(rays))]


def to_vrep(p: HPoly, cap: int = DEFAULT_DIM_CAP) -> VPoly:
    if p.dim > cap:
        raise DimensionCapExceeded(f"dim {p.dim} exceeds cap {cap}")
    canon = canonical_form(p)
    if canon is None:
        return VPoly(p.dim)
    return _vrep_of_canonical(canon)


@lru_cache(maxsize=None)
def _vrep_of_canonical(canon: HPoly) -> VPoly:
    n = canon.dim
    rows = [la.unit(n + 1, 0)]
    for a, b in canon.ineq:
        rows.append((b,) + la.neg(a))
    for a, b in canon.eq:
        rows.append((b,) + la.neg(a))
        rows.append((-b,) + a)
    lineality, rays = _cone_generators(n + 1, rows)
    if any(l[0] != 0 for l in lineality):
        raise CertificateError("homogenized lineality must be horizontal")
    points = []
    directions = set()
    for r in rays:
        if r[0] > 0:
            points.append(tuple(v / r[0] for v in r[1:]))
        elif r[0] == 0:
            directions.add(la.primitive(r[1:]))
        else:
            raise CertificateError("homogenized ray must have a nonnegative height")
    for l in lineality:
        d = la.primitive(l[1:])
        directions.add(d)
        directions.add(la.neg(d))
    if not points:
        raise CertificateError("canonical polyhedron must dehomogenize to a point")
    return VPoly(n, tuple(sorted(set(points))), tuple(sorted(directions)))


def to_hrep(v: VPoly) -> HPoly:
    if not v.points:
        return empty_hpoly(v.dim)
    rows = [(ONE,) + tuple(pt) for pt in v.points]
    rows += [(ZERO,) + tuple(r) for r in v.rays]
    lineality, rays = _cone_generators(v.dim + 1, rows)
    ineq = []
    eq = []
    for w in rays:
        beta, a = w[0], w[1:]
        ineq.append((la.neg(a), beta))
    for w in lineality:
        beta, a = w[0], w[1:]
        eq.append((a, -beta))
    canon = canonical_form(HPoly(v.dim, tuple(ineq), tuple(eq)))
    if canon is None:
        raise CertificateError("a V-polyhedron with a point cannot be empty")
    return canon


def vrep_contains(v: VPoly, x: Vec) -> bool:
    """Exact membership in conv(points)+cone(rays) via one feasibility LP."""
    k, m = len(v.points), len(v.rays)
    if k == 0:
        return False
    dim = k + m
    eq_rows = []
    for j in range(v.dim):
        coeffs = [p[j] for p in v.points] + [r[j] for r in v.rays]
        eq_rows.append((la.vec(coeffs), Fraction(x[j])))
    eq_rows.append((la.vec([1] * k + [0] * m), ONE))
    nonneg = tuple((la.neg(la.unit(dim, i)), ZERO) for i in range(dim))
    system = MixedSystem(dim, nonneg, (), tuple(eq_rows))
    return feasible_point(system).status == "optimal"


# ---------------------------------------------------------------------------
# Faces and normal cones


@lru_cache(maxsize=None)
def faces(p: HPoly) -> tuple[HPoly, ...]:
    """Every nonempty face, canonical, the polyhedron itself included, in
    _hpoly_sort_key order, so the polyhedron comes first.

    Only the root takes a full canonical form.  A child is a facet of a
    canonical face f: f with one of its rows (a, b) made an equality.  The
    row is irredundant, so the facet is nonempty, and no other row of f is
    an implicit equality on it: a row tight on the whole facet would
    define the same facet, and in canonical form two such rows are one
    (Schrijver 1986, Sec. 8.4).  So the child's canonical form is step 1
    and step 4 of canonical_form, with no strict-feasibility LP.  Step 4
    of f met the row at a point of the facet's relative interior when its
    ray test settled the row; that point seeds the child's own ray test,
    so a face whose rows all show from such points takes no LP at all.
    Each face travels as its integer rows from step 1 to the ray test of
    its children, and its Fraction rows are built once, when it is first
    met."""
    root = _canonical(p)
    return () if root is None else _faces_below(*root)


def faces_from(p: HPoly, z: Vec) -> tuple[HPoly, ...]:
    """faces(p) for a caller holding z, a point of ri(p): the root is
    canonicalized from z (_canonical_seeded)."""
    root = _canonical_seeded(p, z)
    return () if root is None else _faces_below(*root)


def _faces_below(root: HPoly, points: list[Optional[IntPoint]]) -> tuple[HPoly, ...]:
    dim = root.dim
    eq, ineq = _int_rows(root)
    found: dict[tuple, HPoly] = {}
    stack = [(eq, ineq, points, root)]
    while stack:
        eq, ineq, points, face = stack.pop()
        key = (tuple(eq), tuple(ineq))
        if key in found:
            continue
        found[key] = face if face is not None else _hpoly_of(dim, eq, ineq)
        for row, z in zip(ineq, points):
            reduced = _eliminate_int(dim, [*eq, row], ineq)
            if reduced is None:
                raise CertificateError("a facet of a canonical face is nonempty")
            child_eq, child_ineq = reduced
            keep, seen = _irredundant(dim, child_eq, child_ineq, z)
            rows = [child_ineq[i] for i in keep]
            if (tuple(child_eq), tuple(rows)) not in found:
                stack.append((child_eq, rows, seen, None))
    return tuple(sorted(found.values(), key=_hpoly_sort_key))


def _hpoly_sort_key(p: HPoly):
    return (len(p.eq), p.eq, p.ineq)


def normal_cone_at(p: HPoly, x: Vec) -> NormalConeRep:
    """Outward normals of active rows plus the equality span; generators are
    reduced to a minimal set up to positive scaling."""
    canon = canonical_form(p)
    if canon is None or not canon.contains(x):
        raise PointNotInSet("normal cone requested at a point outside the set")
    lineality = [la.primitive(a) for a in la.row_space_basis([a for a, _ in canon.eq])]
    gens = []
    for a, b in canon.ineq:
        if la.dot(a, x) == b:
            gens.append(la.primitive(a))
    gens = sorted(set(gens))
    # drop generators that already lie in the cone of the others
    i = 0
    while i < len(gens):
        g = gens[i]
        others = gens[:i] + gens[i + 1 :]
        k = len(others) + len(lineality)
        if k == 0:
            if la.is_zero(g):
                gens.pop(i)
                continue
            i += 1
            continue
        eq_rows = []
        for j in range(p.dim):
            coeffs = [o[j] for o in others] + [l[j] for l in lineality]
            eq_rows.append((la.vec(coeffs), g[j]))
        nonneg = tuple(
            (la.neg(la.unit(k, t)), ZERO) for t in range(len(others))
        )
        feas = feasible_point(MixedSystem(k, nonneg, (), tuple(eq_rows)))
        if feas.status == "optimal":
            gens.pop(i)
        else:
            i += 1
    return NormalConeRep(p.dim, tuple(gens), tuple(sorted(lineality)))


def normal_cone_hrep(v: VPoly, x: Vec) -> HPoly:
    """Normal cone at x of conv(points)+cone(rays), as an H-polyhedron in
    the normal variable: <w, p - x> <= 0 and <w, r> <= 0."""
    rows = [(la.sub(p, x), ZERO) for p in v.points] + [(r, ZERO) for r in v.rays]
    canon = canonical_form(HPoly(v.dim, tuple(rows)))
    if canon is None:
        raise CertificateError("a normal cone always contains zero")
    return canon


# ---------------------------------------------------------------------------
# Mixed cells: subtraction and decomposition into relatively open pieces


def _constraints_of(m: MixedSystem):
    return (
        [("w", a, b) for a, b in m.weak]
        + [("s", a, b) for a, b in m.strict]
        + [("e", a, b) for a, b in m.eq]
    )


def _reverses_a_row(m: MixedSystem, br: MixedSystem) -> bool:
    """Does m hold the reverse of br's one row, so that the two have no
    common point?  c.x < d is excluded by -c.x <= -d, -c.x < -d and
    c.x = d in either sign; c.x <= d by -c.x < -d.  Rows are compared as
    they stand, so a scaled copy is not seen."""
    if br.strict:
        (c, d), = br.strict
        back = (la.neg(c), -d)
        return back in m.weak or back in m.strict or back in m.eq or (c, d) in m.eq
    (c, d), = br.weak
    return (la.neg(c), -d) in m.strict


def subtract_cells(
    cells: list[tuple[MixedSystem, Vec]], sub: MixedSystem
) -> list[tuple[MixedSystem, Vec]]:
    """Replace cells by cells covering exactly (union cells) minus sol(sub).

    Each cell travels with a point of its own.  Peeling the rows of sub
    one at a time, the point of the part affirmed so far satisfies either
    the next branch or the next affirmed row, so it settles one of those
    two nonemptiness questions with no LP.  A branch that reverses a row
    the affirmed part already holds is empty with no LP either.  Only
    what is left takes a strict LP, whose witness becomes the point of
    what it proves nonempty."""
    out: list[tuple[MixedSystem, Vec]] = []
    items = _constraints_of(sub)
    for cell, point in cells:
        if not (sub.satisfies(point) or strict_feasible(cell.combine(sub)).feasible):
            out.append((cell, point))  # disjoint from the subtrahend
            continue
        affirmed, inside = cell, point
        for kind, a, b in items:
            if inside is None:
                inside = strict_feasible(affirmed).witness
                if inside is None:
                    break  # later branches only add rows on top of affirmed
            if kind == "w":
                branches = [MixedSystem(cell.dim, (), ((la.neg(a), -b),), ())]
                keep = MixedSystem(cell.dim, ((a, b),), (), ())
            elif kind == "s":
                branches = [MixedSystem(cell.dim, ((la.neg(a), -b),), (), ())]
                keep = MixedSystem(cell.dim, (), ((a, b),), ())
            else:
                branches = [
                    MixedSystem(cell.dim, (), ((a, b),), ()),
                    MixedSystem(cell.dim, (), ((la.neg(a), -b),), ()),
                ]
                keep = MixedSystem(cell.dim, (), (), ((a, b),))
            for br in branches:
                cand = affirmed.combine(br)
                if br.satisfies(inside):
                    found = inside
                elif _reverses_a_row(affirmed, br):
                    found = None
                else:
                    found = strict_feasible(cand).witness
                if found is not None:
                    out.append((_dedupe_mixed(cand), found))
                    if len(out) > MAX_CELLS:
                        raise DimensionCapExceeded("cell blowup in subtraction")
            affirmed = affirmed.combine(keep)
            if not keep.satisfies(inside):
                inside = None
    return out


def difference_witness(
    start: list[MixedSystem], subtrahends: Iterable[MixedSystem]
) -> Optional[Vec]:
    """A point in (union of start cells) minus (union of subtrahends), or
    None when the difference is empty."""
    cells = []
    for c in start:
        wit = strict_feasible(c).witness
        if wit is not None:
            cells.append((c, wit))
    for sub in subtrahends:
        if not cells:
            return None
        cells = subtract_cells(cells, sub)
    if not cells:
        return None
    wit = strict_feasible(cells[0][0]).witness
    if wit is None:
        raise CertificateError("a cell left by subtraction must have a witness")
    return wit


@lru_cache(maxsize=None)
def decompose_mixed(m: MixedSystem) -> tuple[HPoly, ...]:
    """Split the solution set of a mixed system into relatively open pieces,
    returned as the canonical closed bases whose ri's cover it."""
    if not strict_feasible(m).feasible:
        return ()
    base = canonical_form(HPoly(m.dim, m.weak + m.strict, m.eq))
    if base is None:
        raise CertificateError("the closure of a nonempty set cannot be empty")
    pieces = {base}
    for a, b in base.ineq:
        deeper = decompose_mixed(
            MixedSystem(m.dim, m.weak, m.strict, m.eq + ((a, b),))
        )
        pieces.update(deeper)
    return tuple(sorted(pieces, key=_hpoly_sort_key))
