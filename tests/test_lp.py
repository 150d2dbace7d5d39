"""Simplex and strict-feasibility tests.

Expected values for the random LPs were frozen from a brute-force vertex
enumeration oracle (enumerate all basic solutions, keep the feasible ones,
take the best objective); the oracle lives in this file so the solver can
never confirm itself.
"""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from ncvx import linalg as la
from ncvx import lp
from ncvx.errors import CertificateError, DimensionMismatch, UsageError
from ncvx.lp import (
    LPOutcome,
    MixedSystem,
    feasible_point,
    maximize,
    solve_lp,
    strict_feasible,
)
from ncvx.polyhedron import HPoly, closure_hpoly

F = Fraction


def row(coeffs, rhs):
    return la.vec(coeffs), F(rhs)


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


def _integer_rows(system):
    return [lp._scaled(a, b) for a, b in system.weak + system.eq]


def test_corrupted_witness_fails_its_check():
    diagonal = MixedSystem(2, (), (), (row([1, -1], 0),))
    system = box_system([(0, 1), (0, 1)]).combine(diagonal)
    out = solve_lp(la.vec([-1, -1]), system)
    assert out.witness == (F(1), F(1))
    rows = _integer_rows(system)
    lp._verify_point(rows, 4, [1, 1], 1)
    lp._verify_point(rows, 4, [1, 1], 2)  # (1/2, 1/2)
    for x, den in (([2, 2], 1), ([1, 0], 1), ([-1, -1], 2)):
        with pytest.raises(CertificateError):
            lp._verify_point(rows, 4, x, den)


def test_corrupted_farkas_vector_fails_its_check():
    # x <= 0, -x <= -1, and the equality x = 0
    system = MixedSystem(1, (row([1], 0), row([-1], -1)), (), (row([1], 0),))
    out = solve_lp(la.vec([0]), system)
    assert out.status == "infeasible"
    rows = _integer_rows(system)
    weights = [1, 1, 1]
    lp._verify_farkas(rows, 2, 1, [1, 1, 0], weights)
    lp._verify_farkas(rows, 2, 1, [0, 1, 1], weights)
    for mult in ([1, 2, 0], [-1, 0, 1], [0, 0, 0], [1, 0, -1]):
        with pytest.raises(CertificateError):
            lp._verify_farkas(rows, 2, 1, mult, weights)


def test_corrupted_ray_fails_its_check():
    # min -x0 over x0 >= 0 and x1 = 0
    system = MixedSystem(2, (row([-1, 0], 0),), (), (row([0, 1], 0),))
    out = solve_lp(la.vec([-1, 0]), system)
    assert out.certificate == (F(1), F(0))
    rows = _integer_rows(system)
    lp._verify_ray([-1, 0], rows, 1, [1, 0])
    for ray in ([0, 0], [-1, 0], [1, 1]):
        with pytest.raises(CertificateError):
            lp._verify_ray([-1, 0], rows, 1, ray)


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


def test_strict_feasible_touching_takes_one_lp():
    # the open squares (0, 1)^2 and (1, 2) x (0, 1) share only an edge of
    # their closures: the slack optimum is 0 and settles it alone
    rows = [row([1, 0], 1), row([-1, 0], 0), row([0, 1], 1), row([0, -1], 0)]
    rows += [row([1, 0], 2), row([-1, 0], -1), row([0, 1], 1), row([0, -1], 0)]
    solve_lp.cache_clear()
    strict_feasible.cache_clear()
    got = strict_feasible(MixedSystem(2, (), tuple(rows)))
    assert (got.feasible, got.margin, got.certificate) == (False, 0, None)
    assert solve_lp.cache_info().misses == 1


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


def _pinned_systems():
    """A fixed, seeded list of (objective, system) pairs that walks every
    branch of the simplex: fractional coefficients over coprime
    denominators, ratio-test ties, redundant equality rows (driven out of
    the basis, some through a negative pivot), infeasible and unbounded
    systems, and zero rows."""
    rng = random.Random(2303_07793)
    denoms = (1, 2, 3, 5, 7, 11)

    def frac():
        return F(rng.randint(-9, 9), rng.choice(denoms))

    def small():
        return F(rng.randint(-2, 2))

    cases = []
    for k in range(480):
        kind = k % 6
        n = rng.randint(1, 4)
        weak, eq = [], []
        if kind == 0:  # coprime denominators, sometimes boxed
            for _ in range(rng.randint(1, 6)):
                weak.append((tuple(frac() for _ in range(n)), frac()))
            for _ in range(rng.randint(0, 2)):
                eq.append((tuple(frac() for _ in range(n)), frac()))
            if rng.random() < 0.5:
                weak += list(box_system([(-3, 3)] * n).weak)
        elif kind == 1:  # ratio-test ties: degenerate rows and scaled copies
            for _ in range(rng.randint(2, 6)):
                a = tuple(F(rng.randint(-1, 1)) for _ in range(n))
                b = F(rng.randint(0, 1))
                weak.append((a, b))
                if rng.random() < 0.5:
                    s = F(rng.randint(1, 3), rng.choice(denoms))
                    weak.append((la.scale(a, s), b * s))
            weak += list(box_system([(-1, 1)] * n).weak)
        elif kind == 2:  # redundant equalities: degenerate rows and combinations
            def unit_row():
                return tuple(F(rng.randint(-1, 1)) for _ in range(n)), F(rng.choice((0, 0, 1)))

            eq = [unit_row() for _ in range(rng.randint(1, 3))]
            if k % 12 == 2:
                base = list(eq)
                for _ in range(rng.randint(1, 2)):
                    s, t = frac(), frac()
                    a1, b1 = rng.choice(base)
                    a2, b2 = rng.choice(base)
                    eq.append((la.add(la.scale(a1, s), la.scale(a2, t)), s * b1 + t * b2))
                rng.shuffle(eq)
            weak = [unit_row() for _ in range(rng.randint(0, 3))]
        elif kind == 3:  # infeasible: a row against its shifted negation
            for _ in range(rng.randint(0, 3)):
                weak.append((tuple(frac() for _ in range(n)), frac()))
            a, b = tuple(frac() for _ in range(n)), frac()
            gap = F(rng.randint(1, 5), rng.choice(denoms))
            if rng.random() < 0.5:
                weak += [(a, b), (la.neg(a), -b - gap)]
            else:
                eq += [(a, b), (a, b + gap)]
            rng.shuffle(weak)
        elif kind == 4:  # unbounded: few rows, no box
            for _ in range(rng.randint(0, n)):
                weak.append((tuple(small() for _ in range(n)), small()))
        else:  # zero rows among ordinary ones
            zero = la.zeros(n)
            for _ in range(rng.randint(1, 4)):
                weak.append((tuple(small() for _ in range(n)), F(rng.randint(-2, 4))))
            weak.insert(rng.randint(0, len(weak)), (zero, F(rng.randint(-1, 2))))
            eq.insert(0, (zero, F(rng.choice((0, 0, 0, 1)))))
            if rng.random() < 0.5:
                weak += list(box_system([(-2, 2)] * n).weak)
        c = tuple(small() if rng.random() < 0.8 else F(0) for _ in range(n))
        cases.append((c, MixedSystem(n, tuple(weak), (), tuple(eq))))
    return cases


def test_pinned_outcomes():
    # sha256 over repr(LPOutcome) for every pinned case, recorded with the
    # dense Fraction tableau: statuses, values, witnesses and certificates
    # must all survive a kernel rewrite unchanged
    digest = hashlib.sha256()
    for c, system in _pinned_systems():
        digest.update(repr(solve_lp(c, system)).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == (
        "3c9e66532f7b87eb46c396a5082b7548288b2b3435de7352239cbd24d0e9f069"
    )


def _strict_branch(got):
    """Which branch of strict_feasible gave this answer."""
    if got.feasible:
        return "strict"
    if got.margin is None:
        return "weak rows infeasible"
    return "touching" if got.margin == 0 else "closed empty"


def _pinned_strict_systems():
    """Seeded mixed systems with strict rows, in dims 1-3, built to reach
    every branch of strict_feasible: a strict point, a slack optimum of
    exactly zero (the closure is nonempty but no point is strict), a
    negative one (the closure is empty), and weak and equality rows that
    are infeasible on their own."""
    rng = random.Random(7793_2303)

    def vec(n, lo=-2, hi=2):
        a = [F(rng.randint(lo, hi)) for _ in range(n)]
        if not any(a):
            a[rng.randrange(n)] = F(1)
        return tuple(a)

    cases = []
    for k in range(240):
        kind = k % 4
        n = rng.randint(1, 3)
        weak, strict, eq = [], [], []
        center = tuple(F(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(n))
        for _ in range(rng.randint(1, 4)):
            a = vec(n)
            strict.append((a, la.dot(a, center) + F(rng.randint(1, 3))))
        if kind == 1:  # a hyperplane through the center, held weak and strict
            a = vec(n)
            b = la.dot(a, center)
            strict.append((a, b))
            (weak if rng.random() < 0.5 else strict).append((la.neg(a), -b))
        elif kind == 2:  # a slab of negative width
            a = vec(n)
            b = la.dot(a, center)
            gap = F(rng.randint(1, 4), rng.choice((1, 2, 5)))
            strict.append((a, b))
            (weak if rng.random() < 0.5 else strict).append((la.neg(a), -b - gap))
        elif kind == 3:  # weak or equality rows that no point satisfies
            a, b = vec(n), F(rng.randint(-3, 3))
            if rng.random() < 0.5:
                weak += [(a, b), (la.neg(a), -b - 1)]
            else:
                eq += [(a, b), (a, b + 1)]
        for _ in range(rng.randint(0, 2)):
            a = vec(n)
            weak.append((a, la.dot(a, center) + F(rng.randint(0, 2))))
        if rng.random() < 0.3:
            a = vec(n)
            eq.append((a, la.dot(a, center)))
        rng.shuffle(weak)
        rng.shuffle(strict)
        cases.append(MixedSystem(n, tuple(weak), tuple(strict), tuple(eq)))
    return cases


def test_pinned_strict_feasibility():
    # sha256 over repr(StrictFeasibility): verdicts, witnesses, margins and
    # certificates must survive a rewrite of strict_feasible unchanged
    digest = hashlib.sha256()
    branches = set()
    for system in _pinned_strict_systems():
        got = strict_feasible(system)
        branches.add(_strict_branch(got))
        if got.feasible:
            assert system.satisfies(got.witness)
        elif got.margin is not None and got.margin == 0:
            assert got.certificate is None
        else:
            assert got.certificate is not None
        digest.update(repr(got).encode())
        digest.update(b"\n")
    assert branches == {"strict", "touching", "closed empty", "weak rows infeasible"}
    assert digest.hexdigest() == (
        "520a0d2e30070ee3b9a856a5165a78e9509eb65bd9564d5430ee020a074758a1"
    )


# ---------------------------------------------------------------------------
# the integer rows a system holds, and their Fraction view


def _random_mixed(rng, n):
    """Rows with small rational coefficients, zero entries and rows among
    them, in all three blocks."""

    def entry():
        return F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 6)))

    def block(k):
        return tuple((tuple(entry() for _ in range(n)), entry()) for _ in range(k))

    weak, strict, eq = block(rng.randint(0, 3)), block(rng.randint(0, 3)), block(rng.randint(0, 2))
    return MixedSystem(n, weak, strict, eq)


def _fix_by_fractions(system, start, values):
    # the former MixedSystem.fix, row by row in Fractions
    stop = start + len(values)

    def rows(block):
        return tuple(
            (a[:start] + a[stop:], b - la.dot(a[start:stop], values)) for a, b in block
        )

    dim = system.dim - len(values)
    return MixedSystem(dim, rows(system.weak), rows(system.strict), rows(system.eq))


def _by_fractions(system, name, *args):
    """The derived system built from Fraction rows, by its definition."""
    weak, strict, eq = system.weak, system.strict, system.eq
    dim = system.dim

    def rows(block, move):
        return tuple(move(a, b) for a, b in block)

    if name == "closed":
        return MixedSystem(dim, weak + strict, (), eq)
    if name == "opened":
        return MixedSystem(dim, (), weak + strict, eq)
    if name == "homogeneous":
        zero = lambda a, b: (a, F(0))
        return MixedSystem(dim, rows(weak, zero), rows(strict, zero), rows(eq, zero))
    if name == "combine":
        (other,) = args
        return MixedSystem(dim, weak + other.weak, strict + other.strict, eq + other.eq)
    if name == "embed":
        cols, n = args

        def place(a, b):
            out = [F(0)] * n
            for j, c in enumerate(cols):
                out[c] = a[j]
            return tuple(out), b

        return MixedSystem(n, rows(weak, place), rows(strict, place), rows(eq, place))
    if name == "fix":
        return _fix_by_fractions(system, *args)
    t, shift = args
    pull = lambda a, b: (la.mat_t_vec(t, a), b - la.dot(a, shift))
    return MixedSystem(len(t[0]), rows(weak, pull), rows(strict, pull), rows(eq, pull))


def _same_system(got, want):
    """Equal integer rows, equal hashes, and the same Fraction rows."""
    return (
        got == want
        and hash(got) == hash(want)
        and (got.weak, got.strict, got.eq) == (want.weak, want.strict, want.eq)
    )


def test_derived_systems_match_their_fraction_construction():
    # each derived system is worked out on integer rows alone; it equals
    # the system built from the Fraction rows of its definition, and its
    # Fraction view is those rows, whether or not the view of its source
    # was read first
    rng = random.Random(2303_0779)
    for k in range(120):
        n = rng.randint(1, 4)
        system, other = _random_mixed(rng, n), _random_mixed(rng, n)
        if k % 2:
            _ = (system.weak, system.strict, other.eq)  # read the views first
        start = rng.randint(0, n - 1)
        k_fixed = rng.randint(1, n - start)
        values = tuple(F(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in range(k_fixed))
        t = tuple(
            tuple(F(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(2)) for _ in range(n)
        )
        shift = tuple(F(rng.randint(-3, 3), rng.choice((1, 4))) for _ in range(n))
        cols = rng.sample(range(n + 2), n)
        fixed = system.fix(start, values)
        made = [
            (system.closed(), ("closed",)),
            (system.combine(other), ("combine", other)),
            (system.embed(cols, n + 2), ("embed", cols, n + 2)),
            (fixed, ("fix", start, values)),
            (system.pullback(t, shift), ("pullback", t, shift)),
            (system.opened(), ("opened",)),
            (system.homogeneous(), ("homogeneous",)),
        ]
        for derived, (name, *args) in made:
            assert _same_system(derived, _by_fractions(system, name, *args)), (name, system)
        assert _same_system(fixed.closed(), _by_fractions(fixed, "closed"))
    for rows in ([[1, -2, 3], [0, 0, 1]], [[4, 6, -2]], []):
        ints = [(tuple(r[:-1]), r[-1], 1) for r in rows]
        made = MixedSystem.from_ints(2, ints, ints[:1], ints[1:])
        fractions = [(tuple(map(F, r[:-1])), F(r[-1])) for r in rows]
        assert _same_system(made, MixedSystem(2, fractions, fractions[:1], fractions[1:]))


def test_fraction_and_integer_rows_make_one_system():
    # the same rows given as Fractions or as integer rows (A, B, L) make
    # equal systems with equal hashes, printed as the former dataclass
    given = MixedSystem(
        2,
        (((F(1, 2), F(-1)), F(3, 4)),),
        (((F(0), F(2, 3)), F(1)),),
        (((F(1), F(1)), F(-2)),),
    )
    made = MixedSystem.from_ints(2, (((2, -4), 3, 4),), (((0, 2), 3, 3),), (((1, 1), -2, 1),))
    assert given == made and hash(given) == hash(made)
    assert given.rows == made.rows == ((((2, -4), 3, 4),), (((0, 2), 3, 3),), (((1, 1), -2, 1),))
    former = (
        "MixedSystem(dim=2, weak=(((Fraction(1, 2), Fraction(-1, 1)), Fraction(3, 4)),), "
        "strict=(((Fraction(0, 1), Fraction(2, 3)), Fraction(1, 1)),), "
        "eq=(((Fraction(1, 1), Fraction(1, 1)), Fraction(-2, 1)),))"
    )
    assert repr(given) == repr(made) == former
    hp = HPoly(2, (((F(-1, 3), F(0)), F(5, 6)),), (((F(0), F(2)), F(1)),))
    made_hp = closure_hpoly(MixedSystem.from_ints(2, (((-2, 0), 5, 6),), (), (((0, 2), 1, 1),)))
    assert hp == made_hp and hash(hp) == hash(made_hp)
    assert repr(hp) == repr(made_hp) == (
        "HPoly(dim=2, ineq=(((Fraction(-1, 3), Fraction(0, 1)), Fraction(5, 6)),), "
        "eq=(((Fraction(0, 1), Fraction(2, 1)), Fraction(1, 1)),))"
    )
    # (A, B, L) must be the form _scaled gives: L > 0 and gcd 1
    with pytest.raises(UsageError):
        MixedSystem.from_ints(2, (((2, -4), 6, 4),))
    with pytest.raises(DimensionMismatch):
        MixedSystem.from_ints(2, (((1,), 1, 1),))


def _satisfies_by_fractions(system, x):
    # the definition, row by row in Fractions
    def gaps(block):
        return [b - la.dot(a, x) for a, b in block]

    return (
        all(g >= 0 for g in gaps(system.weak))
        and all(g > 0 for g in gaps(system.strict))
        and all(g == 0 for g in gaps(system.eq))
    )


def test_integer_satisfies_matches_the_fraction_definition():
    rng = random.Random(7793)
    verdicts = set()
    on_a_row = 0
    for _ in range(400):
        n = rng.randint(1, 3)
        system = _random_mixed(rng, n)
        x = tuple(F(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n))
        rows = system.weak + system.strict + system.eq
        if rows and rng.random() < 0.5:
            # move x onto a row, so that ties are met
            a, b = rng.choice(rows)
            j = next((j for j, v in enumerate(a) if v), None)
            if j is not None:
                x = x[:j] + (x[j] + (b - la.dot(a, x)) / a[j],) + x[j + 1 :]
                on_a_row += 1
        want = _satisfies_by_fractions(system, x)
        assert system.satisfies(x) == want
        xi, den = lp._integer_point(x)
        scale = rng.randint(1, 3)  # an unreduced X / D names the same point
        assert system.satisfies_int([v * scale for v in xi], den * scale) == want
        verdicts.add(want)
    assert verdicts == {True, False} and on_a_row > 100


def _origin_system(rng, n, boxed):
    """Integer rows A u <= g with g >= 0, and a cost c; box rows |u_i| <= 5
    when boxed keep the brute-force oracle's vertex enumeration complete."""
    a, g = [], []
    for _ in range(rng.randint(0, 5)):
        r = [rng.randint(-3, 3) for _ in range(n)]
        a.append(r)
        g.append(rng.randint(0, 4))
    if boxed:
        for i in range(n):
            for s in (1, -1):
                a.append([s * (j == i) for j in range(n)])
                g.append(5)
    return a, g, [rng.randint(-3, 3) for _ in range(n)]


@pytest.mark.parametrize("seed", range(60))
def test_maximize_from_origin_matches_two_phase(seed):
    # phase 2 from the all-slack basis against the brute-force oracle (boxed)
    # and the two-phase solve_lp; every answer carries its certificate
    rng = random.Random(1000 + seed)
    n = rng.choice([1, 2, 3])
    a, g, c = _origin_system(rng, n, boxed=seed % 2 == 0)
    system = MixedSystem(n, tuple(row(r, b) for r, b in zip(a, g)))
    out = lp.maximize_from_origin(a, g, c)
    x = tuple(F(v, out.den) for v in out.point)
    assert system.satisfies(x)
    two_phase = maximize(la.vec(c), system)
    if out.ray is not None:
        assert two_phase.status == "unbounded"
        assert all(sum(map(lambda u, v: u * v, r, out.ray)) <= 0 for r in a)
        assert sum(map(lambda u, v: u * v, c, out.ray)) > 0
        return
    value = la.dot(la.vec(c), x)
    assert two_phase.status == "optimal" and two_phase.value == value
    if seed % 2 == 0:
        assert brute_force_lp(la.neg(la.vec(c)), system) == ("optimal", -value)
    y = [F(v, out.dual_den) for v in out.dual]
    assert all(v >= 0 for v in y)
    assert all(sum(v * r[j] for v, r in zip(y, a)) == c[j] for j in range(n))
    assert sum(v * b for v, b in zip(y, g)) == value


def test_maximize_from_origin_needs_a_feasible_origin():
    with pytest.raises(UsageError, match="origin"):
        lp.maximize_from_origin([[1]], [-1], [1])
    # no rows: the origin is optimal for c = 0, and any other c is unbounded
    assert lp.maximize_from_origin([], [], [0, 0]).dual == []
    assert lp.maximize_from_origin([], [], [0, -2]).ray == [0, -1]
