"""Simplex and strict-feasibility tests.

Expected values for the random LPs were frozen from a brute-force vertex
enumeration oracle (enumerate all basic solutions, keep the feasible ones,
take the best objective); the oracle lives in this file so the solver can
never confirm itself.
"""

import itertools
import random
from fractions import Fraction

import pytest

from ncvx import linalg as la
from ncvx.errors import UsageError
from ncvx.lp import (
    LPOutcome,
    MixedSystem,
    feasible_point,
    maximize,
    row,
    solve_lp,
    strict_feasible,
)

F = Fraction


def box_system(bounds):
    """[(lo, hi)] per coordinate as weak rows."""
    n = len(bounds)
    weak = []
    for i, (lo, hi) in enumerate(bounds):
        e = [0] * n
        e[i] = 1
        weak.append(row(e, hi))
        e = [0] * n
        e[i] = -1
        weak.append(row(e, -lo))
    return MixedSystem(n, tuple(weak))


def brute_force_lp(c, system):
    """Oracle: enumerate basic solutions of the closed system.

    Returns ("optimal", value) / ("infeasible", None) / ("unbounded", None).
    Only valid when every vertex candidate comes from n active rows, which
    holds for the systems used below.
    """
    n = system.dim
    rows_all = [(a, b, "w") for a, b in system.weak] + [
        (a, b, "e") for a, b in system.eq
    ]
    feasible = []
    for combo in itertools.combinations(range(len(rows_all)), n):
        a_rows = tuple(rows_all[i][0] for i in combo)
        b_vals = la.vec(rows_all[i][1] for i in combo)
        sol = la.solve_linear(a_rows, b_vals)
        if sol is None or sol[1]:
            continue
        x = sol[0]
        if system.satisfies(x):
            feasible.append(x)
    if not feasible:
        got = feasible_point(system)
        if got.status == "infeasible":
            return "infeasible", None
        # feasible but no vertex: unbounded or a non-pointed system
        return "unbounded-or-flat", None
    best = min(la.dot(c, x) for x in feasible)
    # detect unboundedness by scanning recession directions of active sets
    for combo in itertools.combinations(range(len(rows_all)), n - 1):
        a_rows = tuple(rows_all[i][0] for i in combo)
        null = la.nullspace_basis(a_rows, n)
        for d in null:
            for ray in (d, la.neg(d)):
                if la.is_zero(ray):
                    continue
                ok = all(la.dot(a, ray) <= 0 for a, _, k in rows_all if k == "w")
                ok = ok and all(la.dot(a, ray) == 0 for a, _, k in rows_all if k == "e")
                if ok and la.dot(c, ray) < 0:
                    return "unbounded", None
    return "optimal", best


def test_box_corner():
    sys2 = box_system([(0, 1), (0, 1)])
    out = solve_lp(la.vec([-1, -1]), sys2)
    assert out.status == "optimal"
    assert out.value == F(-2)
    assert out.witness == (F(1), F(1))


def test_infeasible_has_farkas_certificate():
    system = MixedSystem(1, (row([1], 0), row([-1], -1)))
    out = solve_lp(la.vec([0]), system)
    assert out.status == "infeasible"
    cert = out.certificate
    assert len(cert) == 2
    assert all(m >= 0 for m in cert)
    combo = cert[0] * F(1) + cert[1] * F(-1)
    assert combo == 0
    assert cert[0] * F(0) + cert[1] * F(-1) < 0


def test_unbounded_ray():
    system = MixedSystem(1, (row([-1], 0),))
    out = solve_lp(la.vec([-1]), system)
    assert out.status == "unbounded"
    assert out.certificate == (F(1),)
    assert system.satisfies(out.witness)


def test_equality_rows():
    system = MixedSystem(
        2, (row([1, 0], 2), row([-1, 0], 0)), (), (row([1, 1], 1),)
    )
    out = solve_lp(la.vec([0, 1]), system)
    assert out.status == "optimal"
    assert out.value == F(-1)
    assert out.witness == (F(2), F(-1))


def test_degenerate_lp_terminates():
    # classic cycling-prone instance; Bland must terminate
    weak = (
        row([F(1, 4), -8, -1, 9], 0),
        row([F(1, 2), -12, F(-1, 2), 3], 0),
        row([0, 0, 1, 0], 1),
    )
    system = MixedSystem(4, weak + tuple(row(la.neg(la.unit(4, i)), 0) for i in range(4)))
    out = solve_lp(la.vec([F(-3, 4), 150, F(-1, 50), 6]), system)
    assert out.status == "optimal"
    # optimum sits at (1, 0, 1, 0): row 2 caps x1 at x3 <= 1, and any move
    # in x2 or x4 raises the objective
    assert out.value == F(-77, 100)
    assert out.witness == (F(1), F(0), F(1), F(0))


def test_strict_feasible_open_interval():
    system = MixedSystem(1, (), (row([1], 1), row([-1], 0)))
    got = strict_feasible(system)
    assert got.feasible
    assert F(0) < got.witness[0] < F(1)


def test_strict_feasible_touching_interiors_fails():
    # open unit square meets the relatively open bottom edge: empty
    square = MixedSystem(
        2,
        (),
        (row([1, 0], 1), row([-1, 0], 0), row([0, 1], 1), row([0, -1], 0)),
    )
    edge = MixedSystem(2, (), (row([1, 0], 1), row([-1, 0], 0)), (row([0, 1], 0),))
    got = strict_feasible(square.combine(edge))
    assert not got.feasible
    assert got.margin == 0


def test_strict_feasible_closed_relaxation_empty():
    system = MixedSystem(1, (row([1], -1),), (row([-1], 0),))
    got = strict_feasible(system)
    assert not got.feasible
    assert got.certificate is not None


def test_strict_rejected_by_solve_lp():
    system = MixedSystem(1, (), (row([1], 1),))
    with pytest.raises(UsageError):
        solve_lp(la.vec([0]), system)


def test_no_rows():
    system = MixedSystem(2)
    assert solve_lp(la.vec([0, 0]), system).status == "optimal"
    out = solve_lp(la.vec([1, 0]), system)
    assert out.status == "unbounded"


def test_maximize_wrapper():
    sys2 = box_system([(-1, 3), (0, 2)])
    out = maximize(la.vec([1, 2]), sys2)
    assert out.status == "optimal"
    assert out.value == F(7)


@pytest.mark.parametrize("seed", range(40))
def test_random_lp_matches_brute_force(seed):
    rng = random.Random(seed)
    n = rng.choice([1, 2, 3])
    rows = []
    for _ in range(rng.randint(n, 5)):
        a = [F(rng.randint(-3, 3)) for _ in range(n)]
        if all(v == 0 for v in a):
            a[rng.randrange(n)] = F(1)
        rows.append((tuple(a), F(rng.randint(-4, 4))))
    # box rows keep the oracle's vertex enumeration complete
    system = MixedSystem(n, tuple(rows)).combine(box_system([(-5, 5)] * n))
    c = la.vec([rng.randint(-3, 3) for _ in range(n)])
    expect_status, expect_value = brute_force_lp(c, system)
    got = solve_lp(c, system)
    assert got.status == expect_status
    if expect_status == "optimal":
        assert got.value == expect_value
        assert system.satisfies(got.witness)
        assert la.dot(c, got.witness) == got.value


@pytest.mark.parametrize("seed", range(40, 60))
def test_random_strict_feasibility_matches_grid(seed):
    rng = random.Random(seed)
    n = rng.choice([1, 2])
    rows = []
    for _ in range(rng.randint(1, 4)):
        a = [F(rng.randint(-2, 2)) for _ in range(n)]
        if all(v == 0 for v in a):
            a[rng.randrange(n)] = F(1)
        rows.append((tuple(a), F(rng.randint(-2, 2))))
    system = MixedSystem(n, (), tuple(rows)).combine(box_system([(-3, 3)] * n))
    got = strict_feasible(system)
    # dense rational grid scan; denominator 8 is enough at these sizes for
    # a strictly feasible system to show a witness
    found = None
    step = F(1, 8)
    coords = [F(-3) + step * k for k in range(49)]
    for p in itertools.product(coords, repeat=n):
        if system.satisfies(p):
            found = p
            break
    assert got.feasible == (found is not None)
    if got.feasible:
        assert system.satisfies(got.witness)


def test_changes_of_coordinates_keep_rows_in_order():
    # x0 + 2 x1 <= 3 (weak), x1 < 4 (strict), x0 - x1 = 5 (eq) over R^2
    m = MixedSystem(2, (row((1, 2), 3),), (row((0, 1), 4),), (row((1, -1), 5),))
    # interleave into R^4: x0 at column 3, x1 at column 1
    wide = m.embed([3, 1], 4)
    assert wide == MixedSystem(
        4, (row((0, 2, 0, 1), 3),), (row((0, 1, 0, 0), 4),), (row((0, -1, 0, 1), 5),)
    )
    # fixing x1 = 2 leaves rows over x0 alone
    assert m.fix(1, (F(2),)) == MixedSystem(
        1, (row((1,), -1),), (row((0,), 2),), (row((1,), 7),)
    )
    # z -> (z0 + z1, -z1) + (1, 0)
    t = la.mat([(1, 1), (0, -1)])
    assert m.pullback(t, la.vec((1, 0))) == MixedSystem(
        2, (row((1, -1), 2),), (row((0, -1), 4),), (row((1, 2), 4),)
    )
