"""Exact linear programming over the rationals.

A two-phase primal simplex on a dense Fraction tableau with Bland's
anti-cycling pivot rule (smallest eligible index enters; ties in the ratio
test break toward the smallest basic index), so every solve terminates and
is deterministic. Free variables are split into nonnegative pairs and weak
rows get slacks. Every answer carries an exact certificate: an optimal
witness point, a Farkas vector proving infeasibility, or an improving
feasible ray proving unboundedness; certificates are re-verified against
the input rows before being returned.

Strict feasibility (membership in the relative interior of a row system)
is decided by maximizing a shared slack variable added to every strict row,
capped at 1: the optimum is positive exactly when some point satisfies all
strict rows with room to spare.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg as la
from .errors import DimensionMismatch, UsageError
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
        if len(x) != self.dim:
            raise DimensionMismatch("point length does not match system dim")
        return (
            all(la.dot(a, x) <= b for a, b in self.weak)
            and all(la.dot(a, x) < b for a, b in self.strict)
            and all(la.dot(a, x) == b for a, b in self.eq)
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


def _pivot(rows, obj, basis, pr, pc):
    piv = rows[pr][pc]
    rows[pr] = [v if not v else v / piv for v in rows[pr]]
    prow = rows[pr]
    for i in range(len(rows)):
        if i != pr and rows[i][pc] != 0:
            f = rows[i][pc]
            rows[i] = [a if not b else a - f * b for a, b in zip(rows[i], prow)]
    if obj[pc] != 0:
        f = obj[pc]
        obj[:] = [a if not b else a - f * b for a, b in zip(obj, prow)]
    basis[pr] = pc


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
        best_key = None
        best_row = -1
        for i in range(len(rows)):
            coef = rows[i][enter]
            if coef > 0:
                key = (rows[i][-1] / coef, basis[i])
                if best_key is None or key < best_key:
                    best_key = key
                    best_row = i
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

    all_rows = list(system.weak) + list(system.eq)
    m_w = len(system.weak)
    m = len(all_rows)
    n_real = 2 * n + m_w  # x+ block, x- block, slack block
    art0 = n_real

    signs = []
    rows = []
    for i, (a, b) in enumerate(all_rows):
        sigma = ONE if b >= 0 else -ONE
        r = [ZERO] * (n_real + m + 1)
        for j in range(n):
            r[j] = sigma * a[j]
            r[n + j] = -sigma * a[j]
        if i < m_w:
            r[2 * n + i] = sigma
        r[art0 + i] = ONE
        r[-1] = sigma * b
        signs.append(sigma)
        rows.append(r)

    basis = [art0 + i for i in range(m)]
    obj = [ZERO] * (n_real + m + 1)
    for j in range(n_real):
        obj[j] = -sum((rows[i][j] for i in range(m)), ZERO)
    obj[-1] = -sum((rows[i][-1] for i in range(m)), ZERO)

    enter = _run(rows, obj, basis, n_real)  # artificials never re-enter
    assert enter is None, "phase 1 is bounded below by zero"
    phase1_value = -obj[-1]
    if phase1_value > 0:
        # Dual multipliers off the artificial reduced costs give a Farkas
        # certificate for the original row order.
        cert = []
        for i in range(m):
            y_i = ONE - obj[art0 + i]
            cert.append(-signs[i] * y_i)
        cert = tuple(cert)
        _verify_farkas(all_rows, m_w, n, cert)
        return LPOutcome(status="infeasible", certificate=cert)

    # Drive leftover artificials out of the basis; rows that cannot pivot
    # are redundant equalities and get dropped.
    keep = []
    for i in range(len(rows)):
        if basis[i] >= art0:
            pc = next((j for j in range(n_real) if rows[i][j] != 0), None)
            if pc is None:
                continue
            _pivot(rows, obj, basis, i, pc)
        keep.append(i)
    rows = [rows[i][:n_real] + [rows[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    cost = [ZERO] * (n_real + 1)
    for j in range(n):
        cost[j] = c[j]
        cost[n + j] = -c[j]
    obj = list(cost)
    for i in range(len(rows)):
        cb = cost[basis[i]]
        if cb != 0:
            obj = [o - cb * v for o, v in zip(obj, rows[i])]

    enter = _run(rows, obj, basis, n_real)

    xstd = [ZERO] * n_real
    for i in range(len(rows)):
        xstd[basis[i]] = rows[i][-1]
    point = tuple(xstd[j] - xstd[n + j] for j in range(n))

    if enter is None:
        assert system.satisfies(point)
        return LPOutcome(status="optimal", value=la.dot(c, point), witness=point)

    dstd = [ZERO] * n_real
    dstd[enter] = ONE
    for i in range(len(rows)):
        dstd[basis[i]] = -rows[i][enter]
    ray = tuple(dstd[j] - dstd[n + j] for j in range(n))
    ray = la.primitive(ray)
    _verify_ray(c, system, ray)
    assert system.satisfies(point)
    return LPOutcome(status="unbounded", witness=point, certificate=ray)


def _verify_farkas(all_rows, m_w, n, cert):
    combo = la.zeros(n)
    total = ZERO
    for mu, (a, b) in zip(cert, all_rows):
        combo = la.add(combo, la.scale(a, mu))
        total += mu * b
    assert all(cert[i] >= 0 for i in range(m_w)), "Farkas sign condition"
    assert la.is_zero(combo), "Farkas combination must vanish"
    assert total < 0, "Farkas value must be negative"


def _verify_ray(c, system, ray):
    assert not la.is_zero(ray)
    assert la.dot(c, ray) < 0, "ray must improve the objective"
    assert all(la.dot(a, ray) <= 0 for a, _ in system.weak)
    assert all(la.dot(a, ray) == 0 for a, _ in system.eq)


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
    """Does some point satisfy every row, strict rows strictly?"""
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
    assert out.status == "optimal", "slack objective is capped at one"
    t_star = out.value
    if t_star <= 0:
        # the slack LP is feasible with t pushed negative, so emptiness of
        # the closed relaxation has to be checked on its own
        closed_out = feasible_point(system.closed())
        cert = closed_out.certificate if closed_out.status == "infeasible" else None
        return StrictFeasibility(False, margin=t_star, certificate=cert)
    point = out.witness[:n]
    assert system.satisfies(point)
    return StrictFeasibility(True, witness=point, margin=t_star)
