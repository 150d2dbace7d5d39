"""Exact linear programming over the rationals.

A primal simplex with Bland's anti-cycling pivot rule (smallest eligible
index enters; ties in the ratio test break toward the smallest basic
index), so every solve terminates and is deterministic. Free variables
are split into nonnegative pairs x = x+ - x- and weak rows get slacks.
It has two entries:

- solve_lp (and feasible_point, maximize, strict_feasible on it): any
  system of weak and equality rows, in two phases, cached.  Its witnesses
  and certificates are the ones the library reports, so every answer that
  reaches an output comes from here.  plfunc.slice_inf and cells_inf run
  it on a closed cell only when its equalities leave three or more free
  columns.
- maximize_from_origin: integer rows A u <= g with g >= 0, so the origin
  is feasible and phase 2 starts from the all-slack basis, with no
  artificials, no drive-out and no cache.  The polyhedron module uses it
  where the LP's point never reaches an output, on three or more free
  columns: the slack LP of polyhedron._relative_interior, which gives
  strict points and canonical forms their point and, by its dual vector,
  their implicit equalities, and the redundancy LPs, shifted to a strict
  point.  It answers with a point and, at an optimum, the dual vector
  read off the slack reduced costs, or with an improving ray.

On at most two free columns no simplex runs.  polyhedron.least solves
the closed slice LPs of plfunc and the redundancy LPs of a canonical form
by elimination, and strict points come by elimination too; each answer
is checked in integers, and none reaches an output.

The tableau is fraction-free, in the line of Edmonds (1967) and Bareiss
(1968): each input row is scaled once to integers, and each tableau row is
a list of Python ints standing for itself divided by its basic
coefficient, which is kept positive. The objective row carries one
positive integer denominator. A pivot cross-multiplies and takes out the
gcd of each changed row, and the ratio test compares rhs/coef exactly by
cross-multiplication, so the pivot path is that of the rational tableau.

The tableau stores only the x+, slack and rhs columns. The x- column of
a variable is always minus its x+ column, so Bland's rule reads x-_j as
the x+ column with its sign flipped, and the variables keep their indices
(x+, x-, slacks, artificials) for every tie-break. The artificial
columns of phase 1 never re-enter, so they are not stored either: when
phase 1 ends with a positive value, the Farkas vector is read off the
dual vector pi of the final basis, which solves B^T pi = c_B (on the
weak rows, the slack reduced costs give it). So the pivot path, every
witness and every certificate are those of the full tableau.

A MixedSystem holds each row once, as integers (A, B, L); its Fraction
rows are a view built on first read.  Everything here reads the integer
rows, and a caller that checks one point against many systems scales the
point once (satisfies_int).

Every answer carries an exact certificate: an optimal witness point, a
Farkas vector proving infeasibility, an improving feasible ray proving
unboundedness, or (from the origin) a dual vector proving optimality.
Each is checked in integers against the scaled input rows before it is
returned, and a failed check raises CertificateError; values become
Fractions only in the returned LPOutcome.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul
from typing import Optional, Sequence

from . import linalg as la
from .errors import CertificateError, DimensionMismatch, UsageError
from .linalg import Mat, Vec, ZERO, ONE

Row = tuple[Vec, Fraction]
# (A, B, L): a row a.x ? b times the lcm L of its denominators (_scaled)
Scaled = tuple[tuple[int, ...], int, int]
ScaledRows = tuple[tuple[Scaled, ...], tuple[Scaled, ...], tuple[Scaled, ...]]


_set = object.__setattr__


class MixedSystem:
    """Finitely many weak (<=), strict (<) and equality rows over R^dim.

    The fields are dim and rows: the blocks (weak, strict, eq), each row
    a.x ? b held once as (A, B, L) with L the lcm of the denominators,
    A = L a and B = L b (_scaled), which the row determines one to one.
    Equality and hashing read them.  weak, strict and eq are read-only
    Fraction views, each built on its first read, for repr, JSON output
    and the oracle.  The constructor takes Fraction rows, from_ints
    integer ones; every derived system is worked out on integer rows."""

    __slots__ = ("dim", "rows", "_views", "_hash")

    def __init__(self, dim: int, weak=(), strict=(), eq=()):
        blocks = (weak, strict, eq)
        if any(len(a) != dim for block in blocks for a, _ in block):
            raise DimensionMismatch("row length does not match system dim")
        _fill(self, dim, tuple(tuple([_scaled(a, b) for a, b in block]) for block in blocks))

    @staticmethod
    def from_ints(dim: int, weak=(), strict=(), eq=()) -> "MixedSystem":
        """The system of integer forms (A, B, L), each with L > 0 and
        gcd(L, A, B) = 1, as _scaled gives them; no Fraction is built."""
        rows = (tuple(weak), tuple(strict), tuple(eq))
        for a, b, den in rows[0] + rows[1] + rows[2]:
            if len(a) != dim:
                raise DimensionMismatch("row length does not match system dim")
            if den < 1 or (den > 1 and gcd(den, b, *a) > 1):
                raise UsageError("an integer row (A, B, L) needs L > 0 and gcd 1")
        return _new(dim, rows)

    weak = property(lambda self: self._view(0))
    strict = property(lambda self: self._view(1))
    eq = property(lambda self: self._view(2))

    def _view(self, k: int) -> tuple[Row, ...]:
        if self._views is None:
            _set(self, "_views", [None, None, None])
        if self._views[k] is None:
            self._views[k] = tuple([_fraction_row(*r) for r in self.rows[k]])
        return self._views[k]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.dim == other.dim and self.rows == other.rows

    def __hash__(self):
        if self._hash is None:
            _set(self, "_hash", hash((self.dim, self.rows)))
        return self._hash

    def __repr__(self):
        blocks = f"weak={self.weak!r}, strict={self.strict!r}, eq={self.eq!r}"
        return f"MixedSystem(dim={self.dim!r}, {blocks})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def satisfies(self, x: Vec) -> bool:
        if len(x) != self.dim:
            raise DimensionMismatch("point length does not match system dim")
        return self.satisfies_int(*_integer_point(x))

    def satisfies_int(self, xi: Sequence[int], den: int) -> bool:
        """satisfies(X / D) for integers X and D > 0, in integers: each
        row A.x ? B (over L > 0) is compared as A.X ? B D."""
        weak, strict, eq = self.rows
        return (
            all(b * den >= _dot(a, xi) for a, b, _ in weak)
            and all(b * den > _dot(a, xi) for a, b, _ in strict)
            and all(b * den == _dot(a, xi) for a, b, _ in eq)
        )

    def closed(self) -> "MixedSystem":
        """Weaken every strict row; the closure of a feasible system."""
        weak, strict, eq = self.rows
        return _new(self.dim, (weak + strict, (), eq)) if strict else self

    def opened(self) -> "MixedSystem":
        """Make every weak row strict; on the closed system of a canonical
        polyhedron, its relative interior."""
        weak, strict, eq = self.rows
        return _new(self.dim, ((), weak + strict, eq))

    def homogeneous(self) -> "MixedSystem":
        """The rows with zero right-hand sides; on a closed system, its
        recession cone.  A row (A, B, L) becomes (A, 0, L) over
        gcd(L, A), the lcm of the denominators of A / L."""

        def rows(block):
            out = []
            for a, _, den in block:
                g = gcd(den, *a)
                out.append((tuple([v // g for v in a]), 0, den // g) if g > 1 else (a, 0, den))
            return tuple(out)

        return _new(self.dim, tuple(map(rows, self.rows)))

    def combine(self, other: "MixedSystem") -> "MixedSystem":
        if other.dim != self.dim:
            raise DimensionMismatch("combining systems of different dims")
        return _new(self.dim, tuple(map(add, self.rows, other.rows)))

    # Changes of coordinates, row by row within each block.  Row order is
    # kept: the simplex pivot path, and with it every witness, depends on it.

    def embed(self, cols: Sequence[int], dim: int) -> "MixedSystem":
        """The same rows in R^dim: coordinate j moves to column cols[j] and
        every other column is zero.  Covers padding, interleaving and
        permuting; rows are sliced and concatenated, never multiplied."""
        # runs (source start, target start, length) of consecutive
        # coordinates landing on consecutive columns, in column order
        runs: list[list[int]] = []
        for j, c in enumerate(cols):
            if runs and runs[-1][1] + runs[-1][2] == c:
                runs[-1][2] += 1
            else:
                runs.append([j, c, 1])
        runs.sort(key=lambda run: run[1])

        def place(a):
            out, at = (), 0
            for s, t, k in runs:
                out += (0,) * (t - at) + a[s : s + k]
                at = t + k
            return out + (0,) * (dim - at)

        rows = tuple(tuple([(place(a), b, den) for a, b, den in block]) for block in self.rows)
        return _new(dim, rows)

    def fix(self, start: int, values: Vec) -> "MixedSystem":
        """Substitute values for coordinates start, start+1, ... and drop
        them.  With values = V / D, a row (A, B, L) keeps the coefficients
        of A off the fixed block and gets the right-hand side
        B D - A_fixed.V, all over L D; divided by their gcd with L D, these
        are the rows of the result."""
        stop = start + len(values)
        vi, vd = _integer_point(values)

        def rows(block):
            out = []
            for a, b, den in block:
                rest = a[:start] + a[stop:]
                if vd > 1:
                    rest = tuple([v * vd for v in rest])
                rhs, den = b * vd - _dot(a[start:stop], vi), den * vd
                g = gcd(den, rhs, *rest)
                if g > 1:
                    rest = tuple([v // g for v in rest])
                out.append((rest, rhs // g, den // g))
            return tuple(out)

        rows = tuple(map(rows, self.rows))
        return _new(self.dim - len(values), rows)

    def pullback(self, t: Mat, shift: Vec) -> "MixedSystem":
        """The rows under z -> t z + shift: a.y <= b becomes
        (t^T a).z <= b - a.shift.  With t = T / E and shift = S / F, a row
        (A, B, L) becomes (F T^T A).z <= E (B F - A.S), all over L E F;
        divided by their gcd with L E F, these are the rows of the
        result."""
        dim = len(t[0]) if t else 0
        if len(t) != self.dim or len(shift) != self.dim or any(len(r) != dim for r in t):
            raise DimensionMismatch("pullback map does not match system dim")
        ti, e = _integer_point([v for r in t for v in r])
        cols = [ti[j::dim] for j in range(dim)]
        si, f = _integer_point(shift)

        def rows(block):
            out = []
            for a, b, den in block:
                coeffs = [f * _dot(c, a) for c in cols]
                rhs, den = e * (b * f - _dot(a, si)), den * e * f
                g = gcd(den, rhs, *coeffs)
                out.append((tuple([v // g for v in coeffs]), rhs // g, den // g))
            return tuple(out)

        return _new(dim, tuple(map(rows, self.rows)))


def _fill(system: MixedSystem, dim: int, rows: ScaledRows) -> MixedSystem:
    # the views and the hash come on first use
    _set(system, "dim", dim)
    _set(system, "rows", rows)
    _set(system, "_views", None)
    _set(system, "_hash", None)
    return system


def _new(dim: int, rows: ScaledRows) -> MixedSystem:
    return _fill(object.__new__(MixedSystem), dim, rows)


def _fraction_row(a: Sequence[int], b: int, den: int) -> Row:
    return tuple([Fraction(v, den) for v in a]), Fraction(b, den)


@dataclass(frozen=True)
class LPOutcome:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Optional[Fraction] = None
    witness: Optional[Vec] = None
    # Farkas multipliers over (weak rows, eq rows) when infeasible; an
    # improving recession ray when unbounded.
    certificate: Optional[Vec] = None


@dataclass(frozen=True)
class StrictFeasibility:
    feasible: bool
    witness: Optional[Vec] = None
    margin: Optional[Fraction] = None
    # Farkas certificate for the closed relaxation when even it is empty.
    certificate: Optional[Vec] = None


def _scaled(a: Vec, b: Fraction) -> Scaled:
    """(A, B, L): the row a.x ? b times the lcm L of its denominators."""
    den = lcm(b.denominator, *(x.denominator for x in a))
    ints = tuple([x.numerator * (den // x.denominator) for x in a])
    return ints, b.numerator * (den // b.denominator), den


def _integer_point(x: Vec) -> tuple[list[int], int]:
    """(X, D): x = X / D with D the lcm of the denominators."""
    den = lcm(*(v.denominator for v in x))
    return [v.numerator * (den // v.denominator) for v in x], den


def _pivot(rows, obj, basis, pr, enter):
    """Pivot variable enter = (index, column, sign) into row pr by
    cross-multiplication; the variable's column is sign times the stored
    one.  Row i stands for rows[i] / (its basic variable's entry), which is
    kept positive; obj (when given) ends with a positive denominator after
    its rhs entry."""
    var, col, sign = enter
    prow = rows[pr]
    p = sign * prow[col]
    if p < 0:  # only in the drive-out step
        p = -p
        prow = rows[pr] = [-v for v in prow]
    for i, r in enumerate(rows):
        f = sign * r[col]
        if f and i != pr:
            rows[i] = _primitive([p * a - f * b for a, b in zip(r, prow)])
    if obj is not None and obj[col]:
        f = sign * obj[col]
        new = [p * a - f * b for a, b in zip(obj, prow)]
        new.append(p * obj[-1])
        obj[:] = _primitive(new)
    basis[pr] = var


def _primitive(v: list[int]) -> list[int]:
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _entering(obj, n, width):
    """Bland's choice over x+ (indices 0..n-1), x- (n..2n-1) and the
    slacks (2n..), as (index, stored column, sign), or None at optimum.
    The reduced cost of x-_j is minus that of x+_j."""
    for j in range(n):
        if obj[j] < 0:
            return j, j, 1
    for j in range(n):
        if obj[j] > 0:
            return n + j, j, -1
    for j in range(n, width):
        if obj[j] < 0:
            return n + j, j, 1
    return None


def _run(rows, obj, basis, n, width):
    """Bland iterations for a min problem; None at optimum, else the
    entering variable that proves unboundedness."""
    while True:
        enter = _entering(obj, n, width)
        if enter is None:
            return None
        _, col, sign = enter
        # smallest (rhs / coef, basic index), compared by cross-multiplying
        best_row = -1
        for i, r in enumerate(rows):
            coef = sign * r[col]
            if coef <= 0:
                continue
            if best_row >= 0:
                lhs, rhs = r[-1] * best_coef, best_rhs * coef
                if lhs > rhs or (lhs == rhs and basis[i] > basis[best_row]):
                    continue
            best_row, best_rhs, best_coef = i, r[-1], coef
        if best_row < 0:
            return enter
        _pivot(rows, obj, basis, best_row, enter)


def _entry(r, j, n):
    """The entry of variable j in a stored tableau row r."""
    return -r[j - n] if n <= j < 2 * n else r[j if j < n else j - n]


@lru_cache(maxsize=None)
def solve_lp(c: Vec, system: MixedSystem) -> LPOutcome:
    """Minimize c.x over a system of weak and equality rows."""
    weak, strict, eq = system.rows
    if strict:
        raise UsageError("solve_lp does not accept strict rows")
    n = system.dim
    if len(c) != n:
        raise DimensionMismatch("objective length does not match system dim")

    scaled = weak + eq
    m_w = len(weak)
    m = len(scaled)
    width = n + m_w  # stored columns: x+ block, slack block; then the rhs
    art0 = 2 * n + m_w  # index of the first artificial variable

    signs = []
    rows = []
    for i, (a, b, den) in enumerate(scaled):
        sigma = 1 if b >= 0 else -1
        r = [sigma * v for v in a] if sigma < 0 else list(a)
        r += [0] * m_w
        if i < m_w:
            r[n + i] = sigma * den
        r.append(sigma * b)
        signs.append(sigma)
        rows.append(r)

    basis = [art0 + i for i in range(m)]
    # phase 1 minimizes the sum of the artificials: its objective row is
    # minus the sum of all rows off the artificial columns, over den0
    den0 = lcm(*(den for _, _, den in scaled))
    weights = [den0 // den for _, _, den in scaled]
    obj = [-sum(map(mul, weights, col)) for col in zip(*rows)] or [0] * (width + 1)
    obj = _primitive(obj + [den0])

    if _run(rows, obj, basis, n, width) is not None:
        raise CertificateError("phase 1 is bounded below by zero")
    if obj[-2] < 0:  # the phase-1 value -obj[-2] / obj[-1] is positive
        cert = _farkas(scaled, signs, basis, obj, n, m_w)
        den = lcm(*(y.denominator for y in cert))
        mult = [y.numerator * (den // y.denominator) for y in cert]
        _verify_farkas(scaled, m_w, n, mult, weights)
        return LPOutcome(status="infeasible", certificate=cert)

    # Drive leftover artificials out of the basis; rows that cannot pivot
    # are redundant equalities and get dropped.
    keep = []
    for i in range(len(rows)):
        if basis[i] >= art0:
            pc = next((j for j in range(width) if rows[i][j] != 0), None)
            if pc is None:
                continue
            _pivot(rows, None, basis, i, (pc if pc < n else n + pc, pc, 1))
        keep.append(i)
    rows = [rows[i] for i in keep]
    basis = [basis[i] for i in keep]

    c_int, _, c_den = _scaled(c, ZERO)
    obj = [*c_int] + [0] * (m_w + 1) + [c_den]
    for r, j in zip(rows, basis):
        cb = c_int[j] if j < n else -c_int[j - n] if j < 2 * n else 0
        if cb:
            # obj - (cb / c_den) * r / r[j], over a common denominator
            f, g = cb * obj[-1], c_den * _entry(r, j, n)
            new = [g * o - f * v for o, v in zip(obj, r)]
            new.append(g * obj[-1])
            obj = _primitive(new)

    enter = _run(rows, obj, basis, n, width)

    point, den = _basic_values(rows, basis, n, lambda r: r[-1])
    _verify_point(scaled, m_w, point, den)
    witness = tuple(Fraction(v, den) for v in point)
    if enter is None:
        value = Fraction(_dot(c_int, point), c_den * den)
        return LPOutcome(status="optimal", value=value, witness=witness)

    # the entering variable moves at rate 1 and the basic ones follow
    var, col, sign = enter
    ray, den = _basic_values(rows, basis, n, lambda r: -sign * r[col])
    if var < n:
        ray[var] += den
    elif var < 2 * n:
        ray[var - n] -= den
    ray = _primitive(ray) if any(ray) else ray
    _verify_ray(c_int, scaled, m_w, ray)
    cert = tuple(Fraction(v) for v in ray)
    return LPOutcome(status="unbounded", witness=witness, certificate=cert)


def _farkas(scaled, signs, basis, obj, n, m_w) -> Vec:
    """The Farkas vector of an infeasible phase 1, from its final basis.

    Row i of the phase-1 problem is sigma_i times the input row a_i.x
    (+ s_i) = b_i, plus an artificial with coefficient 1.  The duals pi
    of the final basis B solve B^T pi = c_B, with cost 1 on the
    artificials and 0 elsewhere, and y_i = -sigma_i pi_i: the vector the
    reduced costs 1 - pi_i of the artificial columns would give.  On a
    weak row, the reduced cost -sigma_i pi_i of its slack is y_i itself;
    the equality rows solve what is left of B^T pi = c_B.  The caller
    checks y: nonnegative on the weak rows, y.A = 0, y.b < 0."""
    art0 = 2 * n + m_w
    y = [Fraction(obj[n + k], obj[-1]) for k in range(m_w)]
    eqs = range(m_w, len(scaled))
    if not eqs:
        return tuple(y)
    lhs, rhs = [], []
    for j in basis:
        if j < 2 * n:  # the column of x+_j (or x-_j): sum_i sigma_i a_ij pi_i = 0
            s = 1 if j < n else -1
            col = [Fraction(s * sg * a[j % n], den) for sg, (a, _, den) in zip(signs, scaled)]
            lhs.append(tuple(col[i] for i in eqs))
            # the weak rows' pi_k = -sigma_k y_k, moved to the right
            rhs.append(sum((c * sg * v for c, sg, v in zip(col, signs, y)), ZERO))
        elif j >= art0 + m_w:  # the artificial of an equality row: pi = 1
            lhs.append(tuple(ONE if i == j - art0 else ZERO for i in eqs))
            rhs.append(ONE)
    solved = la.solve_linear(tuple(lhs), tuple(rhs))
    if solved is None or solved[1]:
        raise CertificateError("a simplex basis is nonsingular")
    return tuple(y) + tuple(-signs[i] * pi for i, pi in zip(eqs, solved[0]))


def _basic_values(rows, basis, n, entry) -> tuple[list[int], int]:
    """(X, den): x = X / den where the basic variable of row r takes
    entry(r) / (its own entry in r), every other one 0, and x = x+ - x-."""
    den = 1
    for r, j in zip(rows, basis):
        if j < 2 * n and entry(r):
            den = lcm(den, _entry(r, j, n))
    x = [0] * n
    for r, j in zip(rows, basis):
        if j < 2 * n:
            v = entry(r) * (den // _entry(r, j, n))
            if j < n:
                x[j] += v
            else:
                x[j - n] -= v
    return x, den


def _dot(a: list[int], x: list[int]) -> int:
    return sum(map(mul, a, x))


def _verify_point(scaled, m_w, x, den):
    for i, (a, b, _) in enumerate(scaled):
        lhs, rhs = _dot(a, x), b * den
        if lhs > rhs or (i >= m_w and lhs != rhs):
            raise CertificateError("witness violates a row of the system")


def _verify_farkas(scaled, m_w, n, mult, weights):
    # row i is (a, b) / den_i and weights[i] = den0 / den_i, so the
    # multipliers y_i * weights[i] act on the integer rows
    ys = [y * w for y, w in zip(mult, weights)]
    if any(y < 0 for y in ys[:m_w]):
        raise CertificateError("Farkas multipliers of weak rows must be nonnegative")
    if any(sum(y * a[j] for y, (a, _, _) in zip(ys, scaled)) for j in range(n)):
        raise CertificateError("Farkas combination must vanish")
    if sum(y * b for y, (_, b, _) in zip(ys, scaled)) >= 0:
        raise CertificateError("Farkas value must be negative")


def _verify_ray(c, scaled, m_w, ray):
    if not any(ray):
        raise CertificateError("unbounded ray must be nonzero")
    if _dot(c, ray) >= 0:
        raise CertificateError("ray must improve the objective")
    for i, (a, _, _) in enumerate(scaled):
        d = _dot(a, ray)
        if d > 0 or (i >= m_w and d != 0):
            raise CertificateError("ray must stay in the recession cone")


@dataclass(frozen=True)
class OriginOutcome:
    """An answer of maximize_from_origin, in integers.  x = point / den is
    the final basic point.  At an optimum, y = dual / dual_den has y >= 0,
    y A = c and y.g = c.x; when the LP is unbounded, ray has A ray <= 0
    and c.ray > 0 (dual is None)."""

    point: list[int]
    den: int
    dual: Optional[list[int]] = None
    dual_den: int = 1
    ray: Optional[list[int]] = None


def maximize_from_origin(
    a: Sequence[Sequence[int]], g: Sequence[int], c: Sequence[int]
) -> OriginOutcome:
    """Maximize c.u over the integer rows A u <= g, u free, when g >= 0.

    The origin is feasible, so the all-slack basis starts phase 2 and
    there is no phase 1: no artificials and no drive-out.  The tableau is
    solve_lp's, with slack coefficient 1, and so is the pivot rule.  The
    dual vector is the slack reduced costs of the final basis.  The point,
    the ray and the dual vector are each checked in integers before they
    are returned."""
    n, m = len(c), len(a)
    if any(b < 0 for b in g):
        raise UsageError("the origin must satisfy every row")
    rows = []
    for i, (r, b) in enumerate(zip(a, g)):
        row = [*r] + [0] * m
        row[n + i] = 1
        row.append(b)
        rows.append(row)
    basis = [2 * n + i for i in range(m)]
    cost = [-v for v in c]  # the tableau minimizes
    obj = cost + [0] * (m + 1) + [1]
    enter = _run(rows, obj, basis, n, n + m)

    scaled = [(r, b, 1) for r, b in zip(a, g)]
    point, den = _basic_values(rows, basis, n, lambda r: r[-1])
    _verify_point(scaled, m, point, den)
    if enter is not None:
        var, col, sign = enter
        ray, step = _basic_values(rows, basis, n, lambda r: -sign * r[col])
        if var < n:
            ray[var] += step
        elif var < 2 * n:
            ray[var - n] -= step
        _verify_ray(cost, scaled, m, ray)
        return OriginOutcome(point, den, ray=_primitive(ray))
    dual, dual_den = obj[n : n + m], obj[-1]
    if any(y < 0 for y in dual):
        raise CertificateError("dual multipliers must be nonnegative")
    if any(sum(y * r[j] for y, r in zip(dual, a)) != v * dual_den for j, v in enumerate(c)):
        raise CertificateError("dual combination must equal the objective")
    if _dot(dual, g) * den != _dot(c, point) * dual_den:
        raise CertificateError("dual value must equal the optimal value")
    return OriginOutcome(point, den, dual, dual_den)


def feasible_point(system: MixedSystem) -> LPOutcome:
    """Feasibility of the weak+eq part (strict rows are not allowed)."""
    return solve_lp(la.zeros(system.dim), system)


def maximize(v: Vec, system: MixedSystem) -> LPOutcome:
    """Maximize v.x; value is reported for the max problem."""
    out = solve_lp(la.neg(v), system)
    if out.status == "optimal":
        return LPOutcome("optimal", -out.value, out.witness, out.certificate)
    return out


@lru_cache(maxsize=None)
def strict_feasible(system: MixedSystem) -> StrictFeasibility:
    """Does some point satisfy every row, strict rows strictly?

    One LP maximizes a shared slack t added to every strict row, capped
    at 1.  t* > 0 exactly when some point satisfies all strict rows with
    room to spare.  At t* = 0 the closed relaxation is nonempty, the
    verified optimum (x*, 0) being a point of it, and the answer is "not
    strict" with no certificate.  t* < 0 exactly when the closed
    relaxation is empty, since any of its points would give t = 0; then
    one more LP, feasible_point, gives its Farkas certificate."""
    n = system.dim
    weak, strict, eq = system.rows
    if not strict:
        out = feasible_point(system)
        if out.status == "infeasible":
            return StrictFeasibility(False, certificate=out.certificate)
        return StrictFeasibility(True, witness=out.witness, margin=ONE)

    # Lift to (x, t): strict rows become a.x + t <= b, and t <= 1 keeps the
    # objective bounded. A positive optimum is exactly a strict witness.
    # t has coefficient L in a strict row over L.
    lifted = _new(n + 1, (
        tuple([(a + (0,), b, den) for a, b, den in weak])
        + tuple([(a + (den,), b, den) for a, b, den in strict])
        + (((0,) * n + (1,), 1, 1),),
        (),
        tuple([(a + (0,), b, den) for a, b, den in eq]),
    ))
    out = maximize(la.zeros(n) + (ONE,), lifted)
    if out.status == "infeasible":
        # Certificate rows line up with (weak, strict-as-weak, cap, eq); we
        # drop the cap multiplier and keep the original order.
        cert = out.certificate
        m_w, m_s = len(weak), len(strict)
        reordered = cert[: m_w + m_s] + cert[m_w + m_s + 1 :]
        return StrictFeasibility(False, certificate=reordered)
    if out.status != "optimal":
        raise CertificateError("slack objective is capped at one")
    t_star = out.value
    if t_star == 0:
        return StrictFeasibility(False, margin=t_star)
    if t_star < 0:
        closed_out = feasible_point(system.closed())
        if closed_out.status != "infeasible":
            raise CertificateError("a negative slack optimum needs empty closed rows")
        return StrictFeasibility(False, margin=t_star, certificate=closed_out.certificate)
    point = out.witness[:n]
    if not system.satisfies(point):
        raise CertificateError("strict witness violates a row of the system")
    return StrictFeasibility(True, witness=point, margin=t_star)
