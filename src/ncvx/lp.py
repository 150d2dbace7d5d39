"""Exact linear programming over the rationals.

A two-phase primal simplex with Bland's anti-cycling pivot rule (smallest
eligible index enters; ties in the ratio test break toward the smallest
basic index), so every solve terminates and is deterministic. Free
variables are split into nonnegative pairs and weak rows get slacks.

The tableau is fraction-free, in the line of Edmonds (1967) and Bareiss
(1968): each input row is scaled once to integers, and each tableau row is
a list of Python ints standing for itself divided by its basic
coefficient, which is kept positive. The objective row carries one
positive integer denominator. A pivot cross-multiplies and takes out the
gcd of each changed row, and the ratio test compares rhs/coef exactly by
cross-multiplication, so the pivot path is that of the rational tableau.

Every answer carries an exact certificate: an optimal witness point, a
Farkas vector proving infeasibility, or an improving feasible ray proving
unboundedness. Each is checked in integers against the scaled input rows
before it is returned, and a failed check raises CertificateError; values
become Fractions only in the returned LPOutcome.

Strict feasibility (membership in the relative interior of a row system)
is decided by maximizing a shared slack variable t added to every strict
row, capped at 1. The sign of the optimum t* settles the answer: t* > 0
exactly when some point satisfies all strict rows with room to spare;
t* = 0 when the closed relaxation is nonempty but no point is strict, the
verified optimum (x*, 0) being a point of it; and t* < 0 exactly when the
closed relaxation is empty, since any of its points would give t = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from . import linalg as la
from .errors import CertificateError, DimensionMismatch, UsageError
from .linalg import Mat, Vec, ZERO, ONE

Row = tuple[Vec, Fraction]


def row(coeffs, rhs) -> Row:
    return la.vec(coeffs), Fraction(rhs)


@dataclass(frozen=True)
class MixedSystem:
    """Finitely many weak (<=), strict (<) and equality rows over R^dim."""

    dim: int
    weak: tuple[Row, ...] = ()
    strict: tuple[Row, ...] = ()
    eq: tuple[Row, ...] = ()

    def __post_init__(self):
        for coeffs, _ in self.weak + self.strict + self.eq:
            if len(coeffs) != self.dim:
                raise DimensionMismatch("row length does not match system dim")

    def satisfies(self, x: Vec) -> bool:
        """In integers: x = X / D, and each row scaled once to A.x ? B is
        compared as A.X ? B D."""
        if len(x) != self.dim:
            raise DimensionMismatch("point length does not match system dim")
        xi, den = _integer_point(x)

        def gap(row: Row) -> int:
            a, b, _ = _scaled(*row)
            return b * den - _dot(a, xi)

        return (
            all(gap(r) >= 0 for r in self.weak)
            and all(gap(r) > 0 for r in self.strict)
            and all(gap(r) == 0 for r in self.eq)
        )

    def closed(self) -> "MixedSystem":
        """Weaken every strict row; the closure of a feasible system."""
        return MixedSystem(self.dim, self.weak + self.strict, (), self.eq)

    def combine(self, other: "MixedSystem") -> "MixedSystem":
        if other.dim != self.dim:
            raise DimensionMismatch("combining systems of different dims")
        return MixedSystem(
            self.dim,
            self.weak + other.weak,
            self.strict + other.strict,
            self.eq + other.eq,
        )

    # Changes of coordinates, row by row within each block.  Row order is
    # kept: the simplex pivot path, and with it every witness, depends on it.

    def _map_rows(self, dim: int, move) -> "MixedSystem":
        def rows(block):
            return tuple(move(a, b) for a, b in block)

        return MixedSystem(dim, rows(self.weak), rows(self.strict), rows(self.eq))

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

        def move(a, b):
            out, at = (), 0
            for s, t, k in runs:
                out += la.zeros(t - at) + a[s : s + k]
                at = t + k
            return out + la.zeros(dim - at), b

        return self._map_rows(dim, move)

    def fix(self, start: int, values: Vec) -> "MixedSystem":
        """Substitute values for coordinates start, start+1, ... and drop
        them."""
        stop = start + len(values)

        def move(a, b):
            return a[:start] + a[stop:], b - la.dot(a[start:stop], values)

        return self._map_rows(self.dim - len(values), move)

    def pullback(self, t: Mat, shift: Vec) -> "MixedSystem":
        """The rows under z -> t z + shift: a.y <= b becomes
        (t^T a).z <= b - a.shift."""

        def move(a, b):
            return la.mat_t_vec(t, a), b - la.dot(a, shift)

        return self._map_rows(len(t[0]) if t else 0, move)


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


def _scaled(a: Vec, b: Fraction) -> tuple[list[int], int, int]:
    """(A, B, L): the row a.x ? b times the lcm L of its denominators."""
    den = lcm(b.denominator, *(x.denominator for x in a))
    ints = [x.numerator * (den // x.denominator) for x in a]
    return ints, b.numerator * (den // b.denominator), den


def _integer_point(x: Vec) -> tuple[list[int], int]:
    """(X, D): x = X / D with D the lcm of the denominators."""
    den = lcm(*(v.denominator for v in x))
    return [v.numerator * (den // v.denominator) for v in x], den


def _pivot(rows, obj, basis, pr, pc):
    """Pivot on (pr, pc) by cross-multiplication.  Row i stands for
    rows[i] / rows[i][basis[i]], whose basic coefficient is kept positive;
    obj (when given) ends with a positive denominator after its rhs entry."""
    prow = rows[pr]
    p = prow[pc]
    if p < 0:  # only in the drive-out step
        p = -p
        prow = rows[pr] = [-v for v in prow]
    for i, r in enumerate(rows):
        f = r[pc]
        if f and i != pr:
            rows[i] = _primitive([p * a - f * b for a, b in zip(r, prow)])
    if obj is not None and obj[pc]:
        f = obj[pc]
        new = [p * a - f * b for a, b in zip(obj, prow)]
        new.append(p * obj[-1])
        obj[:] = _primitive(new)
    basis[pr] = pc


def _primitive(v: list[int]) -> list[int]:
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _run(rows, obj, basis, ncols) -> Optional[int]:
    """Bland iterations for a min problem; None at optimum, else the
    entering column that proves unboundedness."""
    while True:
        enter = -1
        for j in range(ncols):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return None
        # smallest (rhs / coef, basic index), compared by cross-multiplying
        best_row = -1
        for i, r in enumerate(rows):
            coef = r[enter]
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


@lru_cache(maxsize=None)
def solve_lp(c: Vec, system: MixedSystem) -> LPOutcome:
    """Minimize c.x over a system of weak and equality rows."""
    if system.strict:
        raise UsageError("solve_lp does not accept strict rows")
    n = system.dim
    if len(c) != n:
        raise DimensionMismatch("objective length does not match system dim")

    scaled = [_scaled(a, b) for a, b in system.weak + system.eq]
    m_w = len(system.weak)
    m = len(scaled)
    n_real = 2 * n + m_w  # x+ block, x- block, slack block
    art0 = n_real

    signs = []
    rows = []
    for i, (a, b, den) in enumerate(scaled):
        sigma = 1 if b >= 0 else -1
        r = [0] * (n_real + m + 1)
        for j in range(n):
            r[j] = sigma * a[j]
            r[n + j] = -sigma * a[j]
        if i < m_w:
            r[2 * n + i] = sigma * den
        r[art0 + i] = den
        r[-1] = sigma * b
        signs.append(sigma)
        rows.append(r)

    basis = [art0 + i for i in range(m)]
    # phase 1 minimizes the sum of the artificials: its objective row is
    # minus the sum of all rows off the artificial columns, over den0
    den0 = lcm(*(den for _, _, den in scaled))
    weights = [den0 // den for _, _, den in scaled]
    obj = [-sum(w * r[j] for w, r in zip(weights, rows)) for j in [*range(n_real), -1]]
    obj = _primitive(obj[:-1] + [0] * m + [obj[-1], den0])

    if _run(rows, obj, basis, n_real) is not None:  # artificials never re-enter
        raise CertificateError("phase 1 is bounded below by zero")
    if obj[-2] < 0:  # the phase-1 value -obj[-2] / obj[-1] is positive
        # Dual multipliers off the artificial reduced costs give a Farkas
        # certificate for the original row order, over the denominator obj[-1].
        den = obj[-1]
        mult = [-sigma * (den - obj[art0 + i]) for i, sigma in enumerate(signs)]
        _verify_farkas(scaled, m_w, n, mult, weights)
        cert = tuple(Fraction(y, den) for y in mult)
        return LPOutcome(status="infeasible", certificate=cert)

    # Drive leftover artificials out of the basis; rows that cannot pivot
    # are redundant equalities and get dropped.
    keep = []
    for i in range(len(rows)):
        if basis[i] >= art0:
            pc = next((j for j in range(n_real) if rows[i][j] != 0), None)
            if pc is None:
                continue
            _pivot(rows, None, basis, i, pc)
        keep.append(i)
    rows = [rows[i][:n_real] + [rows[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    c_int, _, c_den = _scaled(c, ZERO)
    cost = c_int + [-v for v in c_int] + [0] * (m_w + 1)
    obj = cost + [c_den]
    for r, j in zip(rows, basis):
        cb = cost[j]
        if cb:
            # obj - (cb / c_den) * r / r[j], over a common denominator
            f, g = cb * obj[-1], c_den * r[j]
            new = [g * o - f * v for o, v in zip(obj, r)]
            new.append(g * obj[-1])
            obj = _primitive(new)

    enter = _run(rows, obj, basis, n_real)

    point, den = _basic_values(rows, basis, n, lambda r: r[-1])
    _verify_point(scaled, m_w, point, den)
    witness = tuple(Fraction(v, den) for v in point)
    if enter is None:
        value = Fraction(_dot(c_int, point), c_den * den)
        return LPOutcome(status="optimal", value=value, witness=witness)

    # the entering variable moves at rate 1 and the basic ones follow
    ray, den = _basic_values(rows, basis, n, lambda r: -r[enter])
    if enter < n:
        ray[enter] += den
    elif enter < 2 * n:
        ray[enter - n] -= den
    ray = _primitive(ray) if any(ray) else ray
    _verify_ray(c_int, scaled, m_w, ray)
    cert = tuple(Fraction(v) for v in ray)
    return LPOutcome(status="unbounded", witness=witness, certificate=cert)


def _basic_values(rows, basis, n, entry) -> tuple[list[int], int]:
    """(X, den): x = X / den where the basic variable of row r takes
    entry(r) / r[basic], every other one 0, and x = x+ - x-."""
    den = 1
    for r, j in zip(rows, basis):
        if j < 2 * n and entry(r):
            den = lcm(den, r[j])
    x = [0] * n
    for r, j in zip(rows, basis):
        if j < 2 * n:
            v = entry(r) * (den // r[j])
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

    One slack LP, and one more only when its optimum t* is negative: then
    the closed relaxation is empty and feasible_point gives its Farkas
    certificate.  At t* = 0 the closed relaxation is nonempty and the
    answer is "not strict" with no certificate."""
    n = system.dim
    if not system.strict:
        out = feasible_point(system)
        if out.status == "infeasible":
            return StrictFeasibility(False, certificate=out.certificate)
        return StrictFeasibility(True, witness=out.witness, margin=ONE)

    # Lift to (x, t): strict rows become a.x + t <= b, and t <= 1 keeps the
    # objective bounded. A positive optimum is exactly a strict witness.
    weak = [(a + (ZERO,), b) for a, b in system.weak]
    for a, b in system.strict:
        weak.append((a + (ONE,), b))
    weak.append((la.zeros(n) + (ONE,), ONE))
    eq = [(a + (ZERO,), b) for a, b in system.eq]
    lifted = MixedSystem(n + 1, tuple(weak), (), tuple(eq))
    out = maximize(la.zeros(n) + (ONE,), lifted)
    if out.status == "infeasible":
        # Certificate rows line up with (weak, strict-as-weak, cap, eq); we
        # drop the cap multiplier and keep the original order.
        cert = out.certificate
        m_w, m_s = len(system.weak), len(system.strict)
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
