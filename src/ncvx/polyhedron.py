"""Closed convex polyhedra and relatively open cells, exactly.

The canonical form of an H-polyhedron is the backbone of the library: the
equality block spans the affine hull and is in reduced row echelon form,
the inequality rows are reduced against its pivots and are exactly the
facets, and everything is scaled to primitive integers and sorted. Two
H-descriptions define the same set if and only if their canonical forms
are identical, which turns set equality into tuple comparison. The
relative interior of a canonical polyhedron is exactly "equalities hold,
every remaining inequality strict".

Every kernel here runs on the integer rows a system holds
(lp.MixedSystem), and every polyhedron or cell it makes is built from
integer rows; Fractions appear only in the points it returns and in the
rows a reader asks for.

The canonical form spends LPs only on what linear algebra cannot settle
(see canonical_form): RREF, then a point of the relative interior
(_relative_interior), and redundancy settled from that point, by rays
that show facets with no LP, in the line of Clarkson's ray shooting
(1994), and one LP from the same point for each row they leave.  An LP
on at most two free columns, a redundancy LP here or the closed slice
LP of plfunc, is solved by elimination with no simplex (least): the
cost takes the place of a column, and one Fourier-Motzkin step leaves
bounds on it (Dantzig & Eaves 1973).  The point where a ray meets a
facet lies in the facet's relative interior, so the faces of a
polyhedron are enumerated from such points, each facet seeding its own
children.  A canonical form, and each face seeded so, keeps its point
(ri_point).

Every image is taken from generators.  Vertex/ray descriptions come from
the double description method run on the homogenization (Motzkin et al.
1953; Fukuda & Prodon 1996), and the same cone routine applied to the
polar gives the reverse conversion, whose rows are the facets; rays and
lineality vectors stay primitive integer tuples, and each ray carries a
bitmask of the rows it is tight on, so the adjacency test of two rays
is a mask test against the others.  A linear map sends conv(P) + cone(R)
onto conv(TP) + cone(TR) (Rockafellar, Thm 19.3), so a closed shadow or
image is the reverse conversion of the mapped generators (shadow,
image).  A relatively open cell has one shadow rule, ri(AC) = A ri(C)
(Thm 6.6): its shadow is the ri of the closed shadow of its closure,
canonicalized from the kept coordinates of a point of the cell
(ri_shadow).

Mixed cells (weak + strict + equality rows) are the set-algebra workhorse:
region subtraction peels one constraint at a time, each cell carrying a
point of its own that settles most of its nonemptiness tests with no LP,
and each cell made is deduplicated on its integer rows.  Any mixed system
splits into relatively open polyhedra along the faces of its closure: the
ri's of the faces partition the closure (Rockafellar, Thm 18.2), and the
face walk keeps a face when it lies in the hyperplane of no strict row, a
test of linear algebra on its equality block (decompose_mixed).  Where a
strict point only settles a yes or no, or seeds a unique result,
strict_point takes the relative-interior point of the closure and
checks it against the strict rows, since ri(cl C) = ri C (Rockafellar,
Thm 6.3).  That one routine serves canonical forms and strict points: a
strict point of the rows comes on at most two free columns by
Fourier-Motzkin elimination (Fourier 1827; Motzkin 1936), with no LP,
and on more by the slack LP from a feasible basis with no phase 1
(lp.maximize_from_origin); when there is none, the multipliers that
prove it name rows tight on the whole set (Motzkin's transposition
theorem), which join the equalities before the next round.
strict_feasible's witness, which outputs show, comes from its own
two-phase LP.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from . import linalg as la
from .errors import (
    CertificateError,
    DimensionCapExceeded,
    DimensionMismatch,
    PointNotInSet,
    UsageError,
)
from .linalg import ONE, Mat, Vec, ZERO
from .lp import (
    LPOutcome,
    MixedSystem,
    Scaled,
    _dot,
    _integer_point,
    _primitive,
    _set,
    _verify_point,
    _verify_ray,
    feasible_point,
    maximize_from_origin,
    strict_feasible,
)

DEFAULT_DIM_CAP = 6
MAX_CELLS = 50_000


class HPoly:
    """{x : A x <= b, E x = d} with rational rows.

    Its one field is its closed system, the MixedSystem of the weak rows
    A x <= b and the equalities E x = d, which holds them as integers;
    ineq and eq are its Fraction views, and equality and hashing are its.
    The constructor takes Fraction rows, closure_hpoly a system.  The ri
    and recession-cone systems are made once, on first use.  A canonical
    form made here keeps a point of its ri (ri_point), and one that keeps
    a point is a canonical form, its own (canonical_form)."""

    __slots__ = ("dim", "_closed", "_ri", "_cone", "_inside")

    def __init__(self, dim: int, ineq=(), eq=()):
        _polyhedron(self, MixedSystem(dim, ineq, (), eq))

    ineq = property(lambda self: self._closed.weak)
    eq = property(lambda self: self._closed.eq)

    def __eq__(self, other):
        return self._closed == other._closed if other.__class__ is HPoly else NotImplemented

    def __hash__(self):
        return hash(self._closed)

    def __repr__(self):
        return f"HPoly(dim={self.dim!r}, ineq={self.ineq!r}, eq={self.eq!r})"

    __setattr__ = MixedSystem.__setattr__

    def closed_system(self) -> MixedSystem:
        return self._closed

    def ri_system(self) -> MixedSystem:
        """Meaningful on canonical forms: strict rows carve the ri."""
        if self._ri is None:
            _set(self, "_ri", self._closed.opened())
        return self._ri

    def cone_system(self) -> MixedSystem:
        """The recession cone: a.d <= 0 on each row, = 0 on each
        equality."""
        if self._cone is None:
            _set(self, "_cone", self._closed.homogeneous())
        return self._cone

    def contains(self, x: Vec) -> bool:
        return self._closed.satisfies(x)

    def recedes(self, d: Vec) -> bool:
        """Is d in the recession cone?"""
        return self.cone_system().satisfies(d)


def _polyhedron(p: HPoly, closed: MixedSystem) -> HPoly:
    """p, not yet set, as the polyhedron of closed, with no strict row."""
    _set(p, "dim", closed.dim)
    _set(p, "_closed", closed)
    _set(p, "_ri", None)
    _set(p, "_cone", None)
    _set(p, "_inside", None)
    return p


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


def box(bounds: Sequence[tuple]) -> HPoly:
    n = len(bounds)
    rows = []
    for i, (lo, hi) in enumerate(bounds):
        rows.append((la.unit(n, i), Fraction(hi)))
        rows.append((la.neg(la.unit(n, i)), Fraction(-Fraction(lo))))
    return HPoly(n, tuple(rows))


IntRow = Sequence[int]  # coefficients, then the right-hand side
IntPoint = tuple[list[int], int]  # (X, D) for the point X / D
IntRows = tuple[list[tuple[int, ...]], list[tuple[int, ...]]]  # (equalities, inequalities)


def _flat(block: Sequence[Scaled]) -> list[tuple[int, ...]]:
    """Rows (A, B, L) of a system as the integer rows [A..., B] the
    kernels here take, a positive multiple of each."""
    return [a + (b,) for a, b, _ in block]


def _over_one(rows: Iterable[IntRow]) -> tuple[Scaled, ...]:
    """Integer rows [A..., B] as the rows (A, B, 1) of a system."""
    return tuple([(tuple(r[:-1]), r[-1], 1) for r in rows])


def _cancel(row: IntRow, e: Sequence[int], pc: int) -> IntRow:
    """primitive(e[pc] row - row[pc] e): zero in column pc, and a positive
    multiple of row minus its part along e, since e[pc] > 0."""
    if not row[pc]:
        return row
    f, p = row[pc], e[pc]
    return _primitive([p * x - f * y for x, y in zip(row, e)])


def _echelon(dim: int, eq: Iterable[IntRow]) -> Optional[tuple[list[IntRow], list[int]]]:
    """The Gauss-Jordan step of _eliminate_int: (basis, pivots), or None
    when the equalities are inconsistent (0 = b with b nonzero)."""
    basis: list[IntRow] = []
    pivots: list[int] = []
    work = [r for r in eq if any(r)]
    for c in range(dim + 1):
        at = next((i for i, r in enumerate(work) if r[c]), None)
        if at is None:
            continue
        if c == dim:
            return None
        e = work.pop(at)
        if e[c] < 0:
            e = [-x for x in e]
        e = _primitive(e)
        basis = [_cancel(r, e, c) for r in basis]
        work = [r for r in (_cancel(r, e, c) for r in work) if any(r)]
        basis.append(e)
        pivots.append(c)
    return basis, pivots


def _reduce(row: IntRow, basis: Sequence[IntRow], pivots: Sequence[int]) -> IntRow:
    for e, pc in zip(basis, pivots):
        row = _cancel(row, e, pc)
    return row


def _eliminate_int(dim: int, eq: Iterable[IntRow], ineq: Iterable[IntRow]) -> Optional[IntRows]:
    """Step 1 of canonical_form on integer rows.

    Fraction-free Gauss-Jordan (_echelon): a pivot row e (e[pc] > 0)
    cancels column pc from every other row by cross-multiplication,
    keeping rows primitive.  The basis comes out in pivot order, each row
    the primitive multiple of its RREF row, whose leading entry is its
    pivot.  The inequality rows are reduced the same way; positive
    multiples keep their sense.  They come out primitive, deduplicated and
    sorted.  None when this alone shows the set empty."""
    echelon = _echelon(dim, eq)
    if echelon is None:
        return None
    basis, pivots = echelon
    rows = set()
    for r in ineq:
        r = _reduce(r, basis, pivots)
        if not any(r[:-1]):
            if r[-1] < 0:
                return None
            continue
        rows.add(tuple(_primitive(list(r))))
    return [tuple(e) for e in basis], sorted(rows)


def _relative_interior(
    dim: int, eq: list[IntRow], ineq: list[IntRow]
) -> Optional[tuple[list[IntRow], list[IntRow], IntPoint]]:
    """(eq, ineq, z) for rows as step 1 of canonical_form leaves them, eq
    in echelon form and ineq reduced against it: the same set with every
    implicit equality of ineq moved into eq, the rows again as step 1
    leaves them, and a point z = Z / D of the affine hull strictly inside
    every row of ineq, so in the relative interior; None when the rows
    hold nowhere.

    Each round asks for a strict point of the rows as they stand
    (_reduced_point).  With none but a point, its multipliers y >= 0
    combine the rows to 0 <= 0, and y(b - a.x) = 0 with each term >= 0
    makes every row of positive weight tight at every point of the set
    (Motzkin's transposition theorem, 1936).  Those rows join the
    equalities and step 1 runs again.  They are nonzero and zero on the
    pivot columns, so each round raises the rank of the equalities, and
    there are at most as many rounds as free columns."""
    while True:
        sign, z, y = _reduced_point(dim, eq, ineq)
        if sign > 0:
            return eq, ineq, z
        if sign < 0:
            return None
        tight = {i for i, v in y.items() if v > 0}
        rest = [r for i, r in enumerate(ineq) if i not in tight]
        reduced = _eliminate_int(dim, eq + [ineq[i] for i in tight], rest)
        if reduced is None:
            raise CertificateError("rows with a point keep it once their tight rows are equalities")
        eq, ineq = reduced


def _reduced_point(
    dim: int, eq: Sequence[IntRow], ineq: Sequence[IntRow]
) -> tuple[int, Optional[IntPoint], Optional[dict[int, int]]]:
    """(sign, point, y) for equality rows eq in echelon form and rows ineq
    reduced against them, every row of ineq read as strict.  The rows are
    zero on the pivot columns, so they live on the free columns F.  On at
    most two free columns the answer comes by elimination
    (_eliminated_point), with no LP; on more, by the slack LP (_slack_lp).

    Sign 1: a point Z / D, in lowest terms, on every equality row and
    strictly inside every row of ineq; its pivot columns are solved from
    the equalities (_lifted), and it is checked in integers.  Below 1: the
    multipliers y >= 0 {index: weight} of rows of ineq, not all 0, with
    y.a = 0, and y.b = 0 at sign 0 (the rows hold somewhere, but not all
    strictly) or y.b < 0 at sign -1 (they hold nowhere), checked in
    integers where they are found."""
    pivots = [next(j for j, v in enumerate(e) if v) for e in eq]
    free = [j for j in range(dim) if j not in pivots]
    rows = [[r[j] for j in free] + [r[-1]] for r in ineq] if pivots else ineq
    if len(free) <= 2:
        sign, xf, den, y = _eliminated_point(len(free), rows, len(rows))
    else:
        sign, xf, den, y = _slack_lp(rows)
    if sign < 1:
        return sign, None, y
    x, den = _lifted(dim, eq, pivots, free, xf, den)
    if any(_dot(e[:-1], x) != e[-1] * den for e in eq) or any(
        _dot(r[:-1], x) >= r[-1] * den for r in ineq
    ):
        raise CertificateError("a strict point lies on the equalities, strictly inside the rows")
    g = gcd(den, *x)
    return 1, ([v // g for v in x], den // g), None


def _lifted(
    dim: int,
    basis: Sequence[IntRow],
    pivots: Sequence[int],
    free: Sequence[int],
    xf: Sequence[int],
    den: int,
) -> IntPoint:
    """The point X / D of the affine set of basis, equality rows in
    echelon form with the given pivot columns, that is x_F = xf / den on
    the free columns F: basis row e holds its pivot column at
    (e_b - e_F.x_F) / e_pc.  With den = 0 and each e_b read as 0, the
    direction xf of F lifted into the rows' homogeneous part, as (X, 0)."""
    scale = lcm(*(e[pc] for e, pc in zip(basis, pivots)))
    x = [0] * dim
    for j, v in zip(free, xf):
        x[j] = v * scale
    for e, pc in zip(basis, pivots):
        x[pc] = (e[-1] * den - sum(e[j] * v for j, v in zip(free, xf))) * (scale // e[pc])
    return x, den * scale


def _slack_lp(rows: Sequence[IntRow]) -> tuple[int, list[int], int, Optional[dict[int, int]]]:
    """(sign, X, D, y) of _reduced_point by LP, on the rows [a_F..., b] of
    the free columns.  With t0 = min(1, min b), one LP maximizes t over
    a_F.x_F + t <= b on every row and the cap t <= 1: shifted by t0, its
    right-hand sides are nonnegative, so it starts at x = 0, t = t0
    (maximize_from_origin, which checks its point and dual vector).  Its
    optimum t* is the sign of the answer, since a point where every row
    holds has t = 0.  At t* <= 0 the cap holds strictly, so its weight in
    the dual vector is 0, and the weights y of the rows have y.a_F = 0
    and sum to 1 on the t column, so y.b = t*: the rows of positive
    weight combine to 0 <= t*.  The cap's weight, y != 0 and the sign of
    y.b are checked in integers."""
    if not rows:
        return 1, [], 1, None  # no row: any point, here the origin of F
    width = len(rows[0]) - 1
    t0 = min(1, *(r[-1] for r in rows))
    a = [[*r[:-1], 1] for r in rows] + [[0] * width + [1]]
    out = maximize_from_origin(a, [r[-1] - t0 for r in rows] + [1 - t0], [0] * width + [1])
    if out.ray is not None:
        raise CertificateError("the slack is capped")
    *xf, s = out.point
    t_star = t0 * out.den + s  # t* times den
    if t_star > 0:
        return 1, xf, out.den, None
    *y, cap = out.dual
    total = sum(w * r[-1] for w, r in zip(y, rows))
    if cap or not any(y) or (total >= 0 if t_star < 0 else total):
        raise CertificateError("the rows of positive weight combine to 0 <= t*, the cap to none")
    return (-1 if t_star < 0 else 0), xf, out.den, dict(enumerate(y))


def _shadow_line(width: int, rows: Sequence[IntRow], strict: int) -> list[LineRow]:
    """The rows [a..., b] of at most two columns, the first strict of them
    strict, as rows of the first column (LineRow), the second column
    eliminated in one Fourier-Motzkin step (Fourier 1827; Motzkin 1936):
    each row positive in it is added to each row negative in it,
    cross-multiplied, and the sum is strict when either row is.  The rows
    zero in it stay.  Each row carries its weights on the given rows."""
    line = [
        (r[0] if width else 0, r[-1], i < strict, ((i, 1),))
        for i, r in enumerate(rows)
        if width < 2 or not r[1]
    ]
    if width == 2:
        line += [
            (
                -n[1] * p[0] + p[1] * n[0],
                -n[1] * p[-1] + p[1] * n[-1],
                i < strict or k < strict,
                ((i, -n[1]), (k, p[1])),
            )
            for i, p in enumerate(rows)
            if p[1] > 0
            for k, n in enumerate(rows)
            if n[1] < 0
        ]
    return line


def _eliminated_point(
    width: int, rows: Sequence[IntRow], strict: int
) -> tuple[int, list[int], int, Optional[dict[int, int]]]:
    """(sign, X, D, y) of _reduced_point on at most two free columns, by
    Fourier-Motzkin elimination with no LP, on the rows [a_F..., b] of the
    free columns, the first strict of them strict.

    The second column goes in one step (_shadow_line).  On the first
    column the rows are bounds, which give the sign and a value
    (_on_a_line).  The rows then bound the second column at that value;
    since the value lies in the shadow of the rows, strictly when the sign
    is 1, so does the value _on_a_line reads off those bounds.  A sign
    below 1 carries the multipliers y >= 0 {index: weight} of at most four
    rows, with y.a_F = 0 and y.b < 0 (no point), or y.b = 0 and a strict
    row of positive weight (no strict point), checked in integers before
    it returns."""
    sign, (x, den), y = _on_a_line(_shadow_line(width, rows, strict))
    if sign < 1:
        total = sum(v * rows[i][-1] for i, v in y.items())
        if (
            any(v < 0 for v in y.values())
            or any(sum(v * rows[i][j] for i, v in y.items()) for j in range(width))
            or (total >= 0 if sign < 0 else total)
            or (sign == 0 and not any(v > 0 and i < strict for i, v in y.items()))
        ):
            raise CertificateError("the rows in conflict combine to 0 <= b < 0, or 0 < 0")
    if sign < 0 or width < 2:
        return sign, [x] if width else [], den, y
    # r[1] (D u) <= D b - r[0] X at x = X / D
    cut = [(r[1], r[-1] * den - r[0] * x, i < strict, ()) for i, r in enumerate(rows) if r[1]]
    _, (u, step), _ = _on_a_line(cut)
    return sign, [x * step, u], den * step, y


# c x <= b on one column (c x < b when strict), the sum of the given rows
# with the weights ((index, weight), ...)
LineRow = tuple[int, int, bool, tuple[tuple[int, int], ...]]


def _on_a_line(line: Sequence[LineRow]) -> tuple[int, IntPoint, Optional[dict[int, int]]]:
    """(sign, (X, D), y) for rows of one column: the sign of _reduced_point,
    a value X / D that every row holds, strictly when the sign is 1, and
    at a sign below 1 the weights y {index: weight} of the given rows in
    conflict.

    A row 0 <= b < 0 shows no point, and a row 0 < 0 no strict one.  Of
    the rows c < 0 the tightest lower bound b / c, and of the rows c > 0
    the tightest upper bound, each strict on a tie when one is strict, are
    compared by cross-multiplying: c_U times the lower row plus -c_L times
    the upper row is 0 <= c_U b_L - c_L b_U, whose right-hand side is
    negative exactly when the bounds cross.  The value is the midpoint of
    the bounds, one bound moved by 1 when the other is missing, or 0 when
    there is none."""
    lo = hi = tight = None
    for row in line:
        c, b, strict, w = row
        if not c:
            if b < 0:
                return -1, (0, 1), dict(w)
            if not b and strict:
                tight = dict(w)
        elif c < 0:
            if lo is None or _tighter(b * lo[0] - lo[1] * c, strict, lo[2]):
                lo = row
        elif hi is None or _tighter(hi[1] * c - b * hi[0], strict, hi[2]):
            hi = row
    if lo is not None and hi is not None:
        (cl, bl, sl, wl), (cu, bu, su, wu) = lo, hi
        gap = cu * bl - cl * bu
        value = (cu * -bl + bu * -cl, 2 * -cl * cu)
        if gap < 0 or (gap == 0 and (sl or su)):
            y = dict.fromkeys([i for i, _ in wl + wu], 0)
            for i, v in wl:
                y[i] += cu * v
            for i, v in wu:
                y[i] -= cl * v
            return (-1 if gap < 0 else 0), value, y
    elif lo is not None:
        value = (-lo[1] - lo[0], -lo[0])  # b / c + 1
    elif hi is not None:
        value = (hi[1] - hi[0], hi[0])  # b / c - 1
    else:
        value = (0, 1)
    return (1 if tight is None else 0), value, tight


def _tighter(gain: int, strict: bool, was_strict: bool) -> bool:
    """Does a bound replace the kept one: is it tighter (gain > 0, gain
    the cross-multiplied difference), or as tight and strict where the
    kept one is not?"""
    return gain > 0 or (gain == 0 and strict and not was_strict)


def least(system: MixedSystem, cost: IntPoint) -> Optional[LPOutcome]:
    """solve_lp's answer in status and value, for the cost vector C / E
    given as (C, E), when the equalities of system leave at most two free
    columns; None on more, where the caller runs solve_lp.  Exact, with
    no simplex and no cache (_least), and every answer is checked in
    integers before it returns.  The witness and the ray (certificate,
    when unbounded) are its own, not solve_lp's, and there is no Farkas
    vector, so it serves callers that read only the status and the value,
    which are unique."""
    weak, strict, eq = system.rows
    if strict:
        raise UsageError("least does not accept strict rows")
    c, den = cost
    found = _least(system.dim, eq, weak, c)
    if found is None:
        return None
    status, point, ray, _, _ = found
    if status == "infeasible":
        return LPOutcome(status)
    x, d = point
    witness = tuple([Fraction(v, d) for v in x])
    if status == "unbounded":
        return LPOutcome(status, witness=witness, certificate=tuple(map(Fraction, ray)))
    return LPOutcome(status, Fraction(_dot(c, x), d * den), witness)


def _least(
    dim: int, eq: Sequence[Scaled], ineq: Sequence[Scaled], cost: Sequence[int]
) -> Optional[tuple[str, Optional[IntPoint], Optional[list[int]], dict[int, int], int]]:
    """(status, point, ray, y, lam) for the least cost.x over the rows
    (A, B, L) of a system, eq read as A x = B and ineq as A x <= B, on at
    most two free columns of eq; None on more.

    The equalities go to echelon form (_echelon), and each row r becomes
    S r less its part along the basis, S the lcm of the pivots: zero on
    the pivot columns, and S times r on the affine set of eq, so weights
    on these rows are weights on the given ones.  _free_least solves the
    rows on the free columns, and the point and ray are lifted back
    (_lifted).  Every answer is checked in integers before it returns,
    else CertificateError: the point holds every row and the ray every
    homogeneous row, with cost.ray < 0 (lp._verify_point, lp._verify_ray);
    the multipliers y >= 0 {index: weight} of at most two rows of ineq
    and lam > 0 at an optimum, or of at most four rows and lam = 0 when
    there is no point, each with multipliers of eq found to match them
    (_certified)."""
    flat = _flat(eq)
    echelon = _echelon(dim, flat) if eq else ([], [])
    if echelon is None:
        # a combination of the equality rows reads 0 = -1, checked there
        if _combination(flat, [0] * dim + [-1]) is None:
            raise CertificateError("inconsistent equalities combine to 0 = 1")
        return "infeasible", None, None, {}, 0
    basis, pivots = echelon
    if dim - len(pivots) > 2:
        return None
    rows, cf = ineq, cost
    if basis:
        free = [j for j in range(dim) if j not in pivots]
        scale = lcm(*(e[pc] for e, pc in zip(basis, pivots)))
        steps = [(e, scale // e[pc], pc) for e, pc in zip(basis, pivots)]

        def on_free(r: IntRow) -> list[int]:
            """S r less its part along the basis, on F and b."""
            return [scale * r[j] - sum(r[pc] * f * e[j] for e, f, pc in steps) for j in (*free, -1)]

        rows = [(r[:-1], r[-1], 1) for r in map(on_free, _flat(ineq))]
        cf = on_free([*cost, 0])[:-1]
    status, xf, den, rf, y, lam = _free_least(rows, cf)
    point = ray = None
    if status != "infeasible":
        point = _lifted(dim, basis, pivots, free, xf, den) if basis else (xf, den)
        _verify_point([*ineq, *eq], len(ineq), *point)
        if status == "unbounded":
            ray = _primitive(_lifted(dim, basis, pivots, free, rf, 0)[0]) if basis else rf
            _verify_ray(cost, [*ineq, *eq], len(ineq), ray)
            return status, point, ray, y, lam
    _certified(flat, ineq, y, lam, cost, point)
    return status, point, ray, y, lam


def _free_least(
    rows: Sequence[Scaled], cost: Sequence[int]
) -> tuple[str, Optional[list[int]], int, Optional[list[int]], dict[int, int], int]:
    """(status, X, D, R, y, lam): the least cost.x over the rows (A, B, L),
    read as A x <= B, of width = len(cost) <= 2 columns, by elimination
    (Dantzig & Eaves 1973, Fourier-Motzkin elimination and its dual).  A
    point X / D unless infeasible, a ray R when unbounded, and the
    multipliers y {index: weight} of the rows, with lam, that _least
    checks.

    With zero cost every point is least (_eliminated_point).  Else some
    column j has c_j != 0, and t = c.x takes its place: with u the other
    column, |c_j| a.x = s a_j t + s (c_j a_u - c_u a_j) u for s the sign
    of c_j, so each row, times |c_j|, is a row of (t, u).  u goes in one
    Fourier-Motzkin step (_shadow_line), and the rows of t left are
    bounds.  They cross exactly when there is no point (_on_a_line).
    Else the tightest lower bound c_L t <= b_L (c_L < 0) is the least t,
    the sum of at most two rows with weights w, so y = |c_j| w and
    lam = -c_L have y.A = -lam c and -y.b / lam = t; with no lower bound
    t falls without end.  At the chosen t the rows bound u, which
    _on_a_line reads a value off, and t = -1 on the homogeneous rows
    gives the ray."""
    width = len(cost)
    j = 0 if width and cost[0] else 1 if width == 2 and cost[1] else None
    if j is None:
        sign, xf, den, y = _eliminated_point(width, [(*a, b) for a, b, _ in rows], 0)
        if sign < 0:
            return "infeasible", None, 1, None, y, 0
        return "optimal", xf, den, None, {}, 1
    o = 1 - j
    cj, co = cost[j], cost[o] if width == 2 else 0
    s, m = (1, cj) if cj > 0 else (-1, -cj)
    if width == 2:
        tu = [(s * a[j], s * (cj * a[o] - co * a[j]), m * b) for a, b, _ in rows]
    else:
        tu = [(s * a[0], 0, m * b) for a, b, _ in rows]
    line = _shadow_line(2, tu, 0)
    sign, (t, tden), y = _on_a_line(line)
    if sign < 0:
        return "infeasible", None, 1, None, y, 0
    lo = None
    for row in line:
        if row[0] < 0 and (lo is None or row[1] * lo[0] - lo[1] * row[0] > 0):
            lo = row
    rf = None
    if lo is None:
        status, y, lam = "unbounded", {}, 0
        # t = -1 on the homogeneous rows: r[1] u <= r[0]
        _, (u, step), _ = _on_a_line([(r[1], r[0], False, ()) for r in tu if r[1]])
        rf = [0, 0]
        rf[j], rf[o] = s * (-step - co * u), m * u
        del rf[width:]
    else:
        status, t, tden, lam = "optimal", -lo[1], -lo[0], -lo[0]
        y = dict.fromkeys([i for i, _ in lo[3]], 0)
        for i, v in lo[3]:
            y[i] += m * v
    # r[1] (T u) <= T b - r[0] X at t = X / T
    _, (u, step), _ = _on_a_line([(r[1], r[-1] * tden - r[0] * t, False, ()) for r in tu if r[1]])
    t, den = t * step, tden * step
    xf = [0, 0]
    xf[j], xf[o] = s * (t - co * u), m * u
    del xf[width:]
    return status, xf, m * den, rf, y, lam


def _certified(
    eq: Sequence[IntRow],
    ineq: Sequence[Scaled],
    y: dict[int, int],
    lam: int,
    cost: Sequence[int],
    point: Optional[IntPoint],
) -> None:
    """Check an answer of _least in integers, else CertificateError.  The
    multipliers y >= 0 of rows of ineq and lam >= 0 leave v = y.A +
    lam cost, which must be minus a combination mu of the equality rows
    [E..., d] (_combination, over m > 0; mu = 0 with no equality row):
    then for every point of the rows, m lam cost.x >= -(m y.b + mu.d).
    At lam > 0 (at most two rows) that bound is the value at point; at
    lam = 0 (at most four rows) it reads 0 >= -(m y.b + mu.d) > 0, so
    there is no point."""
    if any(v < 0 for v in y.values()) or lam < 0 or len(y) > (2 if lam else 4):
        raise CertificateError("multipliers are nonnegative, on at most two or four rows")
    v = [lam * c for c in cost]
    yb = 0
    for i, w in y.items():
        a, b, _ = ineq[i]
        v = [p + w * q for p, q in zip(v, a)]
        yb += w * b
    mu, m = [], 1
    if eq:
        found = _combination([e[:-1] for e in eq], [-p for p in v])
        if found is None:
            raise CertificateError("the multipliers combine to a multiple of the cost")
        mu, m = found
    elif any(v):
        raise CertificateError("the multipliers combine to a multiple of the cost")
    total = m * yb + sum(w * e[-1] for w, e in zip(mu, eq))
    if not lam:
        if total >= 0:
            raise CertificateError("the multipliers of no point combine to 0 <= b < 0")
    elif -total * point[1] != m * lam * _dot(cost, point[0]):
        raise CertificateError("the dual bound is the value")


def _combination(rows: Sequence[IntRow], target: Sequence[int]) -> Optional[tuple[list[int], int]]:
    """(M, m): integer weights with sum M_i rows_i = m target, m > 0, or
    None when target is not in the span of the rows; checked in integers.
    The weights solve the transposed system, put in echelon form by
    _echelon: each pivot weight is read off its basis row, and the free
    weights are 0."""
    found = _echelon(len(rows), [[r[j] for r in rows] + [t] for j, t in enumerate(target)])
    if found is None:
        return None
    basis, pivots = found
    m = lcm(*(e[pc] for e, pc in zip(basis, pivots)))
    weights = [0] * len(rows)
    for e, pc in zip(basis, pivots):
        weights[pc] = e[-1] * (m // e[pc])
    if any(sum(w * r[j] for w, r in zip(weights, rows)) != m * t for j, t in enumerate(target)):
        raise CertificateError("the weights combine the rows to the target")
    return weights, m


def _hyperplanes(weak: Sequence[IntRow]) -> set[tuple[int, ...]]:
    """The primitive rows a.x <= b of weak, one of each pair, whose
    reverse -a.x <= -b is also in weak: together they hold exactly on
    a.x = b."""
    rows = {tuple(_primitive(list(r))) for r in weak if any(r[:-1])}
    return {r for r in rows if r > tuple(-v for v in r) and tuple(-v for v in r) in rows}


def strict_point(system: MixedSystem) -> Optional[Vec]:
    """A point of the system, strict rows strictly, or None when there is
    none: the point of the relative interior of its closure that
    _relative_interior finds, when it holds the strict rows strictly.  A
    system C with a point has the closed rows as its closure, and
    ri(cl C) = ri C (Rockafellar, Thm 6.3), so that point lies in C; when
    it misses a strict row, C is empty.  A closed row and its reverse hold
    only on their hyperplane, so such pairs join the equalities before
    any LP (_hyperplanes).  The point is not strict_feasible's witness, so
    it is for callers that only need a yes or no, or a point that seeds a
    unique result."""
    weak, _, eq = system.closed().rows
    rows = _flat(weak)
    reduced = _eliminate_int(system.dim, [*_flat(eq), *_hyperplanes(rows)], rows)
    found = None if reduced is None else _relative_interior(system.dim, *reduced)
    if found is None or not system.satisfies_int(*found[2]):
        return None
    x, den = found[2]
    return tuple(Fraction(v, den) for v in x)


def closure_hpoly(m: MixedSystem) -> HPoly:
    """The polyhedron of m's rows with its strict rows weakened; m.closed()
    (m itself when it has no strict row) is its closed system."""
    return _polyhedron(object.__new__(HPoly), m.closed())


@lru_cache(maxsize=None)
def canonical_form(p: HPoly) -> Optional[HPoly]:
    """Unique facet-based representation, or None when the set is empty.

    1. RREF of the equality block; the inequality rows are reduced against
       its pivots.  A 0 = 1 pivot or a row 0 <= b < 0 means empty, and
       rows 0 <= b >= 0 are dropped.  No LP; all in integers.
    2. The relative interior (_relative_interior): a strict point of the
       reduced rows, by elimination on at most two free columns and else
       by one slack LP, phase 2 only, with its optimum proved by its dual
       vector.  With none, the multipliers that prove it name rows tight
       on the whole set; they join the equality block, step 1 runs once
       more, and so on until a strict point shows that no implicit
       equality is left, or a certificate shows the set empty.
    3. Redundancy, from the strict point z.  A row with a tighter
       parallel row is dropped with no LP (_undominated), and a ray from
       z shows facets with no LP (see _facets_seen_from); each other row
       takes one LP on the rows shifted to z, by elimination on at most
       two free columns (least) and from the origin on more, and a
       dropped row carries a dual certificate (_irredundant).  A lone
       row needs none: it is nonzero after reduction, so it cuts the
       affine hull.

    A caller that holds a point of ri(p) skips step 2 and seeds step 3
    with it (_canonical); the facets are unique, so the result is
    the same.  The result keeps z (ri_point).  Every step works on the
    integer rows, and the result is built from them, with no Fraction.

    A form made here keeps its ri point, and only a canonical form is
    made with one (_canonical_hpoly): so such a p is its own canonical
    form and is returned as it is, with no step run."""
    if p._inside is not None:
        return p
    found = _canonical(p)
    return None if found is None else found[0]


# a canonical polyhedron and, per facet row, a point of that facet's ri or None
Seeded = tuple[HPoly, list[Optional[IntPoint]]]


def _canonical(p: HPoly, z: Optional[Vec] = None) -> Optional[Seeded]:
    """canonical_form(p) and, per facet row, the point of that facet's
    relative interior that step 3 met it at, or None (see _irredundant).
    A point z of ri(p), when given, settles step 2 if it holds every
    equality row and every reduced row strictly, checked in integers: then
    no reduced row is an implicit equality, and z seeds step 3.  The
    result keeps the strict point it was made from (ri_point)."""
    weak, _, eq = p.closed_system().rows
    return _canonical_rows(p.dim, _flat(eq), _flat(weak), z)


def _canonical_rows(
    dim: int, eq: Iterable[IntRow], ineq: Iterable[IntRow], z: Optional[Vec] = None
) -> Optional[Seeded]:
    """_canonical on the integer rows [A..., B] of the equalities and the
    inequalities."""
    reduced = _eliminate_int(dim, eq, ineq)
    if reduced is None:
        return None
    eq, ineq = reduced
    inside = None
    if z is not None:
        zi, den = _integer_point(z)
        if all(_dot(e[:-1], zi) == e[-1] * den for e in eq) and all(
            _dot(r[:-1], zi) < r[-1] * den for r in ineq
        ):
            inside = zi, den
    if inside is None:
        found = _relative_interior(dim, eq, ineq)
        if found is None:
            return None
        eq, ineq, inside = found
    keep, seen = _irredundant(dim, eq, ineq, inside)
    return _canonical_hpoly(dim, eq, [ineq[i] for i in keep], inside), seen


def _canonical_hpoly(dim: int, eq: Iterable[IntRow], ineq: Iterable[IntRow], inside) -> HPoly:
    """The canonical polyhedron of its integer rows [A..., B], keeping
    inside, a point of its ri, when one is given (ri_point)."""
    q = closure_hpoly(MixedSystem.from_ints(dim, _over_one(ineq), (), _over_one(eq)))
    _set(q, "_inside", inside)
    return q


def ri_point(p: HPoly) -> Optional[Vec]:
    """A point of ri(p), the one p keeps when it is a canonical form made
    here, else the one its canonical form keeps; None when p is empty."""
    kept = _ri_int_point(p)
    return None if kept is None else tuple(Fraction(v, kept[1]) for v in kept[0])


def _ri_int_point(p: HPoly) -> Optional[IntPoint]:
    """ri_point(p) as (X, D), for the point X / D."""
    if p._inside is None:
        p = canonical_form(p)
    return None if p is None else p._inside


def _facets_seen_from(
    eq: Sequence[IntRow], ineq: Sequence[IntRow], z: IntPoint, gaps: Sequence[int]
) -> list[Optional[IntPoint]]:
    """Per row of a reduced system, a point of the facet it cuts shown
    from z = Z / D, a point of the affine hull strictly inside every row,
    whose gaps D (b - a.z) > 0 are given; None for a row no ray shows.
    Rows and points are integer, so the callers that only need to know
    which rows are facets build no Fraction.

    For row i, the direction d that equals a_i off the pivot columns of
    the equality block and solves E d = 0 on them has a_i.d > 0, since a_i
    is zero on the pivots.  Along z + s d, the row met first, when no
    other row is met at the same step, is tight at a point of the set
    where every other row is strict, so no other row implies it, and that
    point lies in the relative interior of the facet the row cuts.  When
    no ray has shown row i yet, rays along a_i with the rows met so far
    projected out follow (_project_out): each never meets those rows, and
    has a_i.d > 0 while a_i is not in their span."""
    eq_rows = [(e[:-1], e[-1]) for e in eq]
    rows = [r[:-1] for r in ineq]
    zi, den = z
    pivots = [next(j for j, v in enumerate(e) if v) for e, _ in eq_rows]
    scale = lcm(*(e[pc] for (e, _), pc in zip(eq_rows, pivots)))
    seen: list[Optional[IntPoint]] = [None] * len(rows)

    def shoot(a: Sequence[int]) -> list[int]:
        """The rows met first along the direction of a; one row met alone
        is marked seen."""
        d = [v * scale for v in a]
        for pc in pivots:
            d[pc] = 0
        for (e, _), pc in zip(eq_rows, pivots):
            d[pc] = -_dot(e, d) // e[pc]
        if any(_dot(e, d) for e, _ in eq_rows):
            raise CertificateError("a ray direction must stay in the affine hull")
        met: list[int] = []
        gap, rate = 0, 1
        for j, aj in enumerate(rows):
            r = _dot(aj, d)
            if r <= 0:
                continue
            # step gaps[j] / (D r); compared by cross-multiplying
            lhs, rhs = gaps[j] * rate, gap * r
            if not met or lhs < rhs:
                met, gap, rate = [j], gaps[j], r
            elif lhs == rhs:
                met.append(j)
        if len(met) == 1 and seen[met[0]] is None:
            # z + gap / (D rate) d
            seen[met[0]] = [v * rate + gap * w for v, w in zip(zi, d)], den * rate
        return met

    blocked = [shoot(a) for a in rows]
    for i, (a, met) in enumerate(zip(rows, blocked)):
        basis: list[list[int]] = []
        while seen[i] is None and met:
            size = len(basis)
            for j in met:
                q = _project_out(rows[j], basis) if j != i else []
                if any(q):
                    basis.append(q)
            d = _project_out(a, basis)
            if len(basis) == size or not any(d):
                break
            met = shoot(d)
    return seen


def _project_out(v: Sequence[int], basis: Sequence[Sequence[int]]) -> list[int]:
    """A positive multiple of v minus its part in the span of basis, whose
    vectors are pairwise orthogonal: (q.q) v - (v.q) q for each q in turn,
    kept primitive."""
    out = list(v)
    for q in basis:
        qq, vq = _dot(q, q), _dot(out, q)
        out = _primitive([qq * x - vq * y for x, y in zip(out, q)])
    return out


def _irredundant(
    dim: int, eq: Sequence[IntRow], ineq: Sequence[IntRow], inside: Optional[IntPoint]
) -> tuple[list[int], list[Optional[IntPoint]]]:
    """Step 3 of canonical_form on the integer rows of a reduced system
    without implicit equalities: drop each row that the others imply.

    Of rows with the same normal direction, all but the tightest are
    dropped with no LP (_undominated).  Every other row is settled from a
    point z = Z / D strictly inside every row: inside when given, else
    _reduced_point's.  Rows shown to be facets from z are kept with no LP
    (_facets_seen_from).  Each other row k takes one LP: with
    x = z + v / D, maximize a_k.v over a_j.v <= gap_j (j != k), the gaps
    D (b_j - a_j.z) > 0 on the free columns of the equality block, where
    the reduced rows live.  On at most two free columns it comes by
    elimination (_least), on more from the origin (maximize_from_origin).
    Row k is dropped when the optimum is at most gap_k, on the dual
    vector y >= 0 with y A = lam a_k and y.gap <= lam gap_k (lam > 0),
    checked in integers.  The facets are unique, so the result does not
    depend on which rows z settles, nor on which LP decides.

    Returns the indices of the kept rows and, per kept row, the point of
    its facet's relative interior that the ray test met, or None: a point
    strictly inside the rows of a larger system is strictly inside those
    kept."""
    keep = _undominated(ineq)
    if inside is None:
        if len(keep) < 2:
            return keep, [None] * len(keep)
        sign, inside, _ = _reduced_point(dim, eq, [ineq[k] for k in keep])
        if sign < 1:
            raise CertificateError("rows with no implicit equality have a strict point")
    zi, den = inside
    gaps = [r[-1] * den - _dot(r[:-1], zi) for r in ineq]
    if any(gap <= 0 for gap in gaps):
        raise CertificateError("a seed point lies strictly inside every row")
    seen = _facets_seen_from(eq, [ineq[k] for k in keep], inside, [gaps[k] for k in keep])
    if len(keep) < 2 or all(seen):
        return keep, seen
    pivots = {next(j for j, v in enumerate(e) if v) for e in eq}
    cols = [[r[j] for j in range(dim) if j not in pivots] for r in ineq]
    width = dim - len(pivots)
    i = 0
    while len(keep) > 1 and i < len(keep):
        if seen[i] is not None:
            i += 1
            continue
        k = keep[i]
        others = [j for j in keep if j != k]
        bounds = [gaps[j] for j in others]
        if width <= 2:
            rows = [(cols[j], gap, 1) for j, gap in zip(others, bounds)]
            status, _, _, y, lam = _least(width, (), rows, [-v for v in cols[k]])
            if status == "infeasible":
                raise CertificateError("the origin holds every shifted row")
            dual, dual_den = [y.get(t, 0) for t in range(len(others))], lam
        else:
            out = maximize_from_origin([cols[j] for j in others], bounds, cols[k])
            dual, dual_den = out.dual, out.dual_den if out.dual is not None else 0
        # no dual (dual_den 0) when a_k.v grows without end
        if dual_den and _dot(dual, bounds) <= gaps[k] * dual_den:
            keep.pop(i)
            seen.pop(i)
        else:
            i += 1
    return keep, seen


def _undominated(ineq: Sequence[IntRow]) -> list[int]:
    """The indices, increasing, of the rows that no parallel row implies:
    of the rows whose normals are positive multiples of one primitive a,
    a.x <= b / g for the row (g a, b), only the one of least b / g."""
    least: dict[tuple[int, ...], int] = {}
    for i, r in enumerate(ineq):
        g = gcd(*r[:-1])
        a = tuple(v // g for v in r[:-1])
        j = least.get(a)
        if j is None or r[-1] * gcd(*ineq[j][:-1]) < ineq[j][-1] * g:
            least[a] = i
    return sorted(least.values())


def is_empty(p: HPoly) -> bool:
    return canonical_form(p) is None


def polyhedron_equal(p: HPoly, q: HPoly) -> bool:
    if p.dim != q.dim:
        raise DimensionMismatch("comparing polyhedra of different dims")
    return canonical_form(p) == canonical_form(q)


# ---------------------------------------------------------------------------
# Double description, and every image from its generators


def _combine(s: int, u: tuple[int, ...], t: int, v: tuple[int, ...]) -> tuple[int, ...]:
    """primitive(s u + t v) for integer vectors."""
    return tuple(_primitive([s * x + t * y for x, y in zip(u, v)]))


def _primitive_of(row: Vec) -> list[int]:
    """The primitive integer multiple of a rational vector: the same
    half-space, or the same ray."""
    den = lcm(*(x.denominator for x in row))
    return _primitive([x.numerator * (den // x.denominator) for x in row])


def _cone_generators(dim: int, rows: Sequence[Vec]) -> tuple[list[Vec], list[Vec]]:
    """_int_cone_generators on rational rows; Fractions appear only in the
    returned generators."""
    lineality, rays = _int_cone_generators(dim, [_primitive_of(r) for r in rows])
    return [la.vec(l) for l in lineality], [la.vec(r) for r in rays]


def _int_cone_generators(
    dim: int, rows: Iterable[IntRow]
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Minimal (lineality, rays) generating {z : r.z >= 0 for all rows},
    for integer rows.

    Double description in integers (Fukuda & Prodon 1996).  Each nonzero
    row is made primitive, which keeps its half-space, and the rays and
    lineality vectors stay primitive integer tuples, so every dot product
    is an integer.  Each ray carries a bitmask of the processed rows it is
    tight on, bit k for the k-th nonzero row.  A row that meets the
    lineality turns one lineality vector into a ray tight on every earlier
    row, and every old ray becomes tight on it.  A row that does not keeps
    the rays on its side, and each adjacent (positive, negative) pair
    gives a new ray tight on the rows both are tight on and on this one.
    Adjacency is combinatorial (Zolotykh 2012): no third ray is tight on
    every row the pair shares, and a pair sharing fewer than
    dim - lin - 2 rows cannot span a 2-face.  The lineality comes out as
    the primitive multiples of the RREF rows of its span (_echelon), and
    both lists sorted."""
    lineality = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays: list[tuple[int, ...]] = []
    masks: list[int] = []
    bit = 1
    for row in rows:
        if not any(row):
            continue
        a = _primitive(list(row))
        hit_at = next((j for j, l in enumerate(lineality) if _dot(a, l)), None)
        if hit_at is not None:
            hit = lineality.pop(hit_at)
            pv = _dot(a, hit)
            if pv < 0:
                hit, pv = tuple(-x for x in hit), -pv
            # a vector with a.v = 0 is primitive and stays as it is
            lineality = [_combine(pv, l, -d, hit) if (d := _dot(a, l)) else l for l in lineality]
            rays = [_combine(pv, r, -d, hit) if (d := _dot(a, r)) else r for r in rays] + [hit]
            masks = [m | bit for m in masks] + [bit - 1]
        else:
            vals = [_dot(a, r) for r in rays]
            pos = [i for i, v in enumerate(vals) if v > 0]
            negs = [i for i, v in enumerate(vals) if v < 0]
            fresh = {rays[i]: masks[i] for i in pos}
            fresh.update((rays[i], masks[i] | bit) for i, v in enumerate(vals) if not v)
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
    basis = _echelon(dim, [(*l, 0) for l in lineality])[0]
    return sorted(tuple(e[:-1]) for e in basis), sorted(set(rays))


def _generators(m: MixedSystem) -> list[tuple[int, ...]]:
    """The generators [t, x...] of the homogenization {(t, x) : t >= 0,
    A x <= B t on each weak row, A x = B t on each equality} of the
    closure of m, uncached: its rays, then each lineality vector both
    ways.  The closure is conv of the points x / t (t > 0) plus cone of
    the directions x (t = 0), and empty when no t is positive."""
    weak, _, eq = m.closed().rows
    rows = [(1,) + (0,) * m.dim]
    rows += [(b, *[-v for v in a]) for a, b, _ in weak]
    for a, b, _ in eq:
        rows += [(b, *[-v for v in a]), (-b, *a)]
    lineality, rays = _int_cone_generators(m.dim + 1, rows)
    if any(l[0] for l in lineality) or any(r[0] < 0 for r in rays):
        raise CertificateError("homogenized generators have t >= 0, and t = 0 on the lineality")
    return rays + lineality + [tuple([-v for v in l]) for l in lineality]


def _hull(dim: int, gens: Iterable[IntRow], z: Optional[Vec] = None) -> Optional[HPoly]:
    """The canonical polyhedron of integer generators [t, x...] of its
    homogenization, as _generators gives them, or None with no t > 0.

    The rays w of the polar cone {w : w.g >= 0 for every generator g} are
    the facets -w_x.x <= w_t, less the row 0 <= 1 of t >= 0, and its
    lineality gives the equalities; canonical_form's ray test and LP
    duals still prove the facets (_canonical_rows), from z, a point of
    the ri, or else from the mean of the points plus the sum of the
    directions, a positive combination of every generator and so a point
    of the ri (Rockafellar, Thm 6.9 and Cor. 6.6.2)."""
    gens = sorted({tuple(_primitive(list(g))) for g in gens if any(g)})
    points = [g for g in gens if g[0]]
    if not points:
        return None
    if z is None:
        z = tuple(
            sum(Fraction(g[j], g[0] * len(points)) for g in points)
            + sum(g[j] for g in gens if not g[0])
            for j in range(1, dim + 1)
        )
    lineality, rays = _int_cone_generators(dim + 1, gens)
    eq = [(*w[1:], -w[0]) for w in lineality]
    ineq = [(*[-v for v in w[1:]], w[0]) for w in rays]
    found = _canonical_rows(dim, eq, ineq, z)
    if found is None:
        raise CertificateError("a polyhedron with a point is nonempty")
    return found[0]


def shadow(m: MixedSystem, keep: Sequence[int], z: Optional[Vec] = None) -> Optional[HPoly]:
    """The closed shadow on keep (increasing) of the closure of m,
    canonical, or None when it is empty: _hull of the kept coordinates of
    m's generators, since a linear map sends conv(P) + cone(R) onto
    conv + cone of the images (Rockafellar, Thm 19.3).  z, a point of
    ri(cl m), seeds it with its kept coordinates (Thm 6.6)."""
    keep = list(keep)
    if len(set(keep)) != len(keep) or any(i < 0 or i >= m.dim for i in keep):
        raise DimensionMismatch("bad projection coordinates")
    if sorted(keep) != keep:
        raise DimensionMismatch("projection must keep coordinate order")
    if not keep:
        raise DimensionMismatch("cannot project onto no coordinates")
    gens = [[g[0], *(g[k + 1] for k in keep)] for g in _generators(m)]
    return _hull(len(keep), gens, None if z is None else tuple(z[k] for k in keep))


def ri_shadow(cell: MixedSystem, z: Vec, keep: Sequence[int]) -> HPoly:
    """The canonical base whose ri is the shadow on keep (increasing) of a
    relatively open cell, strict rows and equalities, that holds z.

    The cell is the ri of its closure cell.closed(), and the ri of a
    linear image is the image of the ri (Rockafellar, Thm 6.6); so the
    base is the closed shadow of the closure (shadow), seeded with z.
    Keeping every column, it is the canonical form of the closure, seeded
    with z."""
    if list(keep) != list(range(cell.dim)):
        base = shadow(cell, keep, z)
    else:
        found = _canonical(closure_hpoly(cell), z)
        base = None if found is None else found[0]
    if base is None:
        raise CertificateError("the shadow of a cell with a point is nonempty")
    return base


def project_mixed(m: MixedSystem, keep: Sequence[int]) -> MixedSystem:
    """The shadow on keep (increasing) of a relatively open cell, given as
    strict rows and equalities: the ri system of ri_shadow from a strict
    point of the cell, or the marker 0 <= -1 when the cell is empty.
    The result is canonical, whichever point seeds it, so two shadows are
    one set exactly when they are equal.  A weak row raises UsageError:
    the closure and ri of a cell with weak and strict rows need not be
    its closed() and itself."""
    if m.rows[0]:
        raise UsageError("project_mixed takes strict rows and equalities only")
    keep = list(keep)
    wit = strict_point(m)
    if wit is None:
        return empty_hpoly(len(keep)).closed_system()
    return ri_shadow(m, wit, keep).ri_system()


def image(q: HPoly, t: Mat) -> HPoly:
    """The closed image {t x : x in q} of a nonempty canonical polyhedron,
    canonical: _hull of the images of q's generators (Rockafellar,
    Thm 19.3), seeded with t ri_point(q), a point of its ri (Thm 6.6).
    A generator [g0, x] maps to [L g0, (L t) x], L the lcm of the
    denominators of t, so the map runs in integers."""
    if any(len(r) != q.dim for r in t):
        raise DimensionMismatch("matrix width does not match set dim")
    scale = lcm(*(v.denominator for r in t for v in r))
    rows = [[v.numerator * (scale // v.denominator) for v in r] for r in t]
    gens = [[g[0] * scale, *(_dot(r, g[1:]) for r in rows)] for g in _generators(q.closed_system())]
    return _hull(len(t), gens, la.mat_vec(t, ri_point(q)))


def shadow_and_upward(q: HPoly) -> tuple[HPoly, HPoly]:
    """For a nonempty canonical q in R^(n+1): its closed shadow on the
    first n coordinates and its upward closure q + cone(e_(n+1)), both
    canonical, from one set of q's generators (Rockafellar, Thm 19.3).
    z = ri_point(q) seeds the shadow with its first n coordinates
    (Thm 6.6) and the closure with z + e_(n+1) (Cor. 6.6.2)."""
    z = ri_point(q)
    gens = _generators(q.closed_system())
    shadow = _hull(q.dim - 1, [g[:-1] for g in gens], z[:-1])
    upward = _hull(q.dim, [*gens, (0,) * q.dim + (1,)], (*z[:-1], z[-1] + 1))
    return shadow, upward


def to_vrep(p: HPoly, cap: int = DEFAULT_DIM_CAP) -> VPoly:
    if p.dim > cap:
        raise DimensionCapExceeded(f"dim {p.dim} exceeds cap {cap}")
    canon = canonical_form(p)
    if canon is None:
        return VPoly(p.dim)
    return _vrep_of_canonical(canon)


@lru_cache(maxsize=None)
def _vrep_of_canonical(canon: HPoly) -> VPoly:
    """The vertices and directions of a canonical polyhedron, from its
    generators (_generators): each lineality vector both ways."""
    gens = _generators(canon.closed_system())
    points = {tuple([Fraction(v, g[0]) for v in g[1:]]) for g in gens if g[0]}
    if not points:
        raise CertificateError("canonical polyhedron must dehomogenize to a point")
    directions = {tuple(map(Fraction, g[1:])) for g in gens if not g[0]}
    return VPoly(canon.dim, tuple(sorted(points)), tuple(sorted(directions)))


def to_hrep(v: VPoly) -> HPoly:
    """conv(points) + cone(rays), canonical (_hull); the empty polyhedron
    when there is no point."""
    gens = [_primitive_of((ONE, *x)) for x in v.points]
    gens += [_primitive_of((ZERO, *r)) for r in v.rays]
    found = _hull(v.dim, gens)
    return empty_hpoly(v.dim) if found is None else found


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
    and step 3 of canonical_form, with no strict-feasibility LP.  Step 3
    of f met the row at a point of the facet's relative interior when its
    ray test settled the row; that point seeds the child's own ray test,
    so a face whose rows all show from such points takes no LP at all;
    a face with no such point finds its own (_reduced_point).
    Each face travels as its integer rows from step 1 to the ray test of
    its children, is built from them when it is first met, and keeps the
    point that seeded it (ri_point)."""
    root = _canonical(p)
    return () if root is None else _faces_below(*root)


def faces_from(p: HPoly, z: Vec) -> tuple[HPoly, ...]:
    """faces(p) for a caller holding z, a point of ri(p): the root is
    canonicalized from z (_canonical)."""
    root = _canonical(p, z)
    return () if root is None else _faces_below(*root)


def _faces_below(
    root: HPoly, points: list[Optional[IntPoint]], strict: Sequence[IntRow] = ()
) -> tuple[HPoly, ...]:
    """The faces of faces(), from the canonical root and its facet points,
    less each face, and every face below it, that lies in the hyperplane
    of a row of strict (integer rows [a..., b]): the row reduces to
    0 = 0 against the face's equality block."""
    dim = root.dim
    weak, _, eq = root.closed_system().rows
    found: dict[tuple, Optional[HPoly]] = {}
    stack = [(_flat(eq), _flat(weak), points, None)]
    while stack:
        eq, ineq, points, inside = stack.pop()
        key = (tuple(eq), tuple(ineq))
        if key in found:
            continue
        pivots = [next(j for j, v in enumerate(e) if v) for e in eq]
        if any(not any(_reduce(r, eq, pivots)) for r in strict):
            found[key] = None
            continue
        # the root is met first
        found[key] = _canonical_hpoly(dim, eq, ineq, inside) if found else root
        for row, z in zip(ineq, points):
            reduced = _eliminate_int(dim, [*eq, row], ineq)
            if reduced is None:
                raise CertificateError("a facet of a canonical face is nonempty")
            child_eq, child_ineq = reduced
            keep, seen = _irredundant(dim, child_eq, child_ineq, z)
            rows = [child_ineq[i] for i in keep]
            if (tuple(child_eq), tuple(rows)) not in found:
                stack.append((child_eq, rows, seen, z))
    return tuple(sorted(filter(None, found.values()), key=_hpoly_sort_key))


def _hpoly_sort_key(p: HPoly):
    """Fewest equalities first, then the equality and inequality rows.  On
    canonical forms, whose rows are primitive integers over L = 1, the
    integer rows order as their Fraction rows do."""
    weak, _, eq = p.closed_system().rows
    return (len(eq), eq, weak)


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


def _one_row(dim: int, block: int, row: Scaled) -> MixedSystem:
    """The system of one integer row in block 0 (weak), 1 (strict) or 2
    (equality)."""
    rows: list[tuple] = [(), (), ()]
    rows[block] = (row,)
    return MixedSystem.from_ints(dim, *rows)


def _peeled(sub: MixedSystem) -> list[tuple[list[MixedSystem], MixedSystem]]:
    """Per row of sub, weak, strict, then equality rows: (branches, kept),
    the one-row systems of the part that breaks the row and of the row
    itself.  c.x <= d breaks as -c.x < -d, c.x < d as -c.x <= -d, and
    c.x = d as c.x < d or -c.x < -d.  The reverse of the integer row
    (C, D, L) is (-C, -D, L)."""
    out = []
    for block, rows in enumerate(sub.rows):
        for row in rows:
            c, d, den = row
            back = (tuple([-v for v in c]), -d, den)
            if block < 2:  # a weak row breaks strictly, a strict one weakly
                branches = [_one_row(sub.dim, 1 - block, back)]
            else:
                branches = [_one_row(sub.dim, 1, row), _one_row(sub.dim, 1, back)]
            out.append((branches, _one_row(sub.dim, block, row)))
    return out


def _reverses_a_row(m: MixedSystem, br: MixedSystem) -> bool:
    """Does m hold the reverse of br's one row, so that the two have no
    common point?  c.x < d is excluded by -c.x <= -d, -c.x < -d and
    c.x = d in either sign; c.x <= d by -c.x < -d.  The integer rows are
    compared as they stand, so a scaled copy is not seen."""
    weak, strict, eq = m.rows
    br_weak, br_strict, _ = br.rows
    (c, d, den), = br_strict or br_weak
    back = (tuple([-v for v in c]), -d, den)
    if br_strict:
        return back in weak or back in strict or back in eq or (c, d, den) in eq
    return back in strict


def _merged(eq: Iterable[IntRow], ineq: Iterable[IntRow]) -> Optional[IntRows]:
    """Primitive integer rows deduplicated and sorted: each equality row
    with its first nonzero entry positive, and of the inequality rows with
    parallel normals only the tightest (_undominated).  Rows 0 = 0 and
    0 <= b >= 0 are dropped; None when a row 0 = b (b nonzero) or
    0 <= b < 0 shows the set empty."""
    eqs, rows = set(), set()
    for r in eq:
        if not any(r[:-1]):
            if r[-1]:
                return None
            continue
        lead = next(v for v in r if v)
        eqs.add(tuple(r) if lead > 0 else tuple(-v for v in r))
    for r in ineq:
        if not any(r[:-1]):
            if r[-1] < 0:
                return None
            continue
        rows.add(tuple(r))
    ineq = sorted(rows)
    return sorted(eqs), [ineq[i] for i in _undominated(ineq)]


def _dedupe_mixed(m: MixedSystem) -> MixedSystem:
    """m, a system with a point, with its integer rows made primitive:
    equality rows as _merged leaves them; of the weak (and of the strict)
    rows with one primitive (a, b) normal part a, only the least b; a
    weak row dropped when a strict row with its normal part is as tight;
    rows 0 ? b that hold dropped.  Sorted, and built from them."""
    weak, strict, eq = m.rows
    least: list[dict[tuple[int, ...], int]] = [{}, {}]
    for block, rows in enumerate((weak, strict)):
        bound = least[block]
        for a, b, _ in rows:
            if not any(a):
                if b < 0 or (b == 0 and block == 1):
                    raise CertificateError("a cell with a point holds no false row")
                continue
            *a, b = _primitive([*a, b])
            a = tuple(a)
            if a not in bound or b < bound[a]:
                bound[a] = b
    weak_least, strict_least = least
    for a, b in strict_least.items():
        if a in weak_least and b <= weak_least[a]:
            del weak_least[a]
    found = _merged([_primitive([*a, b]) for a, b, _ in eq], ())
    if found is None:
        raise CertificateError("a cell with a point holds no false row")
    return MixedSystem.from_ints(
        m.dim,
        sorted((a, b, 1) for a, b in weak_least.items()),
        sorted((a, b, 1) for a, b in strict_least.items()),
        _over_one(found[0]),
    )


def subtract_cells(
    cells: list[tuple[MixedSystem, Vec]], sub: MixedSystem
) -> list[tuple[MixedSystem, Vec]]:
    """Replace cells by cells covering exactly (union cells) minus sol(sub).

    Each cell travels with a point of its own.  Peeling the rows of sub
    one at a time, the point of the part affirmed so far satisfies either
    the next branch or the next affirmed row, so it settles one of those
    two nonemptiness questions with no LP.  A branch that reverses a row
    the affirmed part already holds is empty with no LP either.  Only
    what is left takes a strict_point LP, whose point becomes the point of
    what it proves nonempty.  The cells do not depend on the points."""
    out: list[tuple[MixedSystem, Vec]] = []
    peeled = _peeled(sub)
    for cell, point in cells:
        if not (sub.satisfies(point) or strict_point(cell.combine(sub)) is not None):
            out.append((cell, point))  # disjoint from the subtrahend
            continue
        affirmed, inside = cell, point
        for branches, keep in peeled:
            if inside is None:
                inside = strict_point(affirmed)
                if inside is None:
                    break  # later branches only add rows on top of affirmed
            for br in branches:
                cand = affirmed.combine(br)
                if br.satisfies(inside):
                    found = inside
                elif _reverses_a_row(affirmed, br):
                    found = None
                else:
                    found = strict_point(cand)
                if found is not None:
                    out.append((_dedupe_mixed(cand), found))
                    if len(out) > MAX_CELLS:
                        raise DimensionCapExceeded("cell blowup in subtraction")
            affirmed = affirmed.combine(keep)
            if not keep.satisfies(inside):
                inside = None
    return out


def difference_witness(
    start: list[tuple[MixedSystem, Vec]], subtrahends: Iterable[MixedSystem]
) -> Optional[Vec]:
    """A point in (union of start cells) minus (union of subtrahends), or
    None when the difference is empty.  Each start cell comes with a point
    of its own, as in subtract_cells.  The point is strict_feasible's
    witness of the first cell left, which does not depend on the points."""
    cells = list(start)
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
    """The solution set of a mixed system as relatively open pieces: the
    canonical faces of P = cl m, in faces() order, that lie in the
    hyperplane of no strict row of m; their ri's partition it.

    The ri's of the nonempty faces of P, the system with its strict rows
    made weak, partition P (Rockafellar, Thm 18.2).  A strict row holds
    weakly on P, so its hyperplane meets P in a face, and a point of P
    lies in m exactly when the face whose ri holds it lies in no such
    hyperplane.  A face lies in one exactly when the row reduces to 0 = 0
    against its equality block, and then so does every face below it, so
    the face walk drops it with all it would reach (_faces_below).  m is
    empty exactly when P is or the root is dropped.  Only the root takes
    a canonical form, and no strict LP runs."""
    root = _canonical(closure_hpoly(m))
    return () if root is None else _faces_below(*root, _flat(m.rows[1]))
