"""The checking layer itself: generators, corruption detectors, lattice
scans, and the suite runner.

The corruption generators are the load-bearing part: each one must be
caught by the near-convexity oracle every single time, or the acceptance
counts upstream mean nothing.
"""

import random
from fractions import Fraction as F

import pytest

from ncvx import linalg as la
from ncvx import ncset as ns
from ncvx import oracle as orc
from ncvx import plfunc as pf
from ncvx.errors import SamplingExhausted, UnknownTheorem
from ncvx.lp import MixedSystem

from instances import abs_fn, two_points


SPEC = orc.DEFAULT_SPEC


# ---------------------------------------------------------------------------
# instance generators


def test_random_ncset_is_nearly_convex():
    rng = random.Random(1)
    for _ in range(40):
        dim = rng.randint(1, SPEC.max_dim)
        s = orc.random_ncset(rng, dim, SPEC)
        ok, _ = ns.is_nearly_convex(s)
        assert ok
        ok2, wit = orc.near_convexity_oracle(s)
        assert ok2, wit


def test_anchor_is_inside_set_and_hull_interior():
    rng = random.Random(2)
    for _ in range(25):
        dim = rng.randint(1, SPEC.max_dim)
        anchor = orc._anchor_point(rng, dim, SPEC)
        s = orc.random_ncset(rng, dim, SPEC, anchor)
        assert ns.membership(s, anchor)
        rows = orc._hull_ri_rows(s)
        assert orc._in_ri_rows(rows, anchor)


def test_corruptions_always_detected():
    rng = random.Random(3)
    for make in (orc.corrupt_shell, orc.corrupt_split_without_wall):
        for _ in range(20):
            dim = rng.randint(1, SPEC.max_dim)
            bad = make(rng, dim, SPEC)
            ok, wit = orc.near_convexity_oracle(bad)
            assert not ok
            assert wit is not None and not ns.membership(bad, wit)
            lib_ok, _ = ns.is_nearly_convex(bad)
            assert not lib_ok
    for _ in range(20):
        dim = rng.randint(1, SPEC.max_dim)
        bad = orc.corrupt_translate(rng, orc.random_ncset(rng, dim, SPEC))
        ok, wit = orc.near_convexity_oracle(bad)
        assert not ok and wit is not None


def test_two_points_fail_the_oracle():
    ok, wit = orc.near_convexity_oracle(two_points())
    assert not ok
    assert wit == (F(1, 2),)


def test_empty_set_is_nearly_convex():
    ok, wit = orc.near_convexity_oracle(ns.ncset(1, []))
    assert ok and wit is None


# ---------------------------------------------------------------------------
# lattice membership scans


def test_grid_oracle_passes_identical_sets():
    rng = random.Random(4)
    for _ in range(10):
        dim = rng.randint(1, 2)
        s = orc.random_ncset(rng, dim, SPEC)
        assert orc.grid_membership_oracle(s, s, denominator=8) == []


def test_grid_oracle_flags_a_dropped_piece():
    rng = random.Random(5)
    found = 0
    for _ in range(12):
        dim = rng.randint(1, 2)
        s = orc.random_ncset(rng, dim, SPEC)
        bad = orc._corrupt_result(rng, s)
        mism = orc.grid_membership_oracle(
            bad, s, denominator=8,
            extra_points=[ns.piece_ri_point(pc) for pc in s.pieces],
        )
        assert mism
        x, want, got = mism[0]
        assert want != got
        found += 1
    assert found == 12


def test_grid_oracle_against_callable():
    s = ns.from_closed_hpoly(orc.ph.box([(0, 1)]))
    hits = orc.grid_membership_oracle(
        s, lambda x: 0 <= x[0] <= 1, denominator=4
    )
    assert hits == []
    misses = orc.grid_membership_oracle(
        s, lambda x: 0 <= x[0] < 1, denominator=4
    )
    assert misses and misses[0][0] == (F(1),)


def test_grid_oracle_huge_coefficients_fall_back_exactly():
    big = 2 ** 40
    s = ns.from_closed_hpoly(
        orc.ph.hpoly(1, ineq=[((F(big),), F(big))])
    )  # x <= 1 in disguise
    assert orc.grid_membership_oracle(
        s, lambda x: x[0] <= 1, denominator=16
    ) == []


# ---------------------------------------------------------------------------
# generator sweeps and the tiny eliminator


def test_generator_support_matches_known_values():
    s = ns.from_closed_hpoly(orc.ph.box([(-1, 2), (0, 1)]))
    assert orc.generator_support_oracle(s, (F(1), F(0))) == 2
    assert orc.generator_support_oracle(s, (F(-1), F(1))) == 2
    assert orc.generator_support_oracle(ns.ncset(2, []), (F(1), F(1))) == -orc.math.inf


def test_generator_conjugate_on_abs():
    f = abs_fn()
    assert orc.generator_conjugate_oracle(f, (F(1),)) == 0
    assert orc.generator_conjugate_oracle(f, (F(2),)) == orc.math.inf


def test_tiny_feasible_matches_lp_on_randoms():
    from ncvx.lp import strict_feasible

    rng = random.Random(6)
    for _ in range(60):
        dim = rng.randint(1, 3)
        rows = lambda k: tuple(
            (tuple(F(rng.randint(-2, 2)) for _ in range(dim)), F(rng.randint(-2, 2)))
            for _ in range(k)
        )
        ms = MixedSystem(dim, rows(rng.randint(0, 2)), rows(rng.randint(0, 3)), rows(rng.randint(0, 1)))
        assert orc._tiny_feasible(ms) == strict_feasible(ms).feasible


def test_fix_prefix_and_suffix():
    ms = MixedSystem(
        3,
        (((F(1), F(2), F(3)), F(6)),),
        (),
        (((F(1), F(0), F(1)), F(2)),),
    )
    fixed = orc._fix_prefix(ms, (F(1),))
    assert fixed.dim == 2
    assert fixed.weak == (((F(2), F(3)), F(5)),)
    assert fixed.eq == (((F(0), F(1)), F(1)),)
    tail = orc._fix_suffix(ms, (F(1),))
    assert tail.dim == 2
    assert tail.weak == (((F(1), F(2)), F(3)),)


# ---------------------------------------------------------------------------
# the suite runner


def test_unknown_theorem_raises():
    with pytest.raises(UnknownTheorem):
        orc.theorem_suite("thm99.9", count=1)


def test_registry_covers_every_section():
    ids = orc.registered_theorems()
    assert len(ids) == 45
    for prefix in ("prop2.1", "thm3.1", "thm4.1", "thm5.2", "thm6.1",
                   "thm7.3", "negctl-membership"):
        assert prefix in ids


def test_suite_report_shape_and_determinism():
    r1 = orc.theorem_suite("prop2.1", count=5, seed=9)
    r2 = orc.theorem_suite("prop2.1", count=5, seed=9)
    assert r1 == r2
    assert r1.theorem == "prop2.1"
    assert r1.count == 5
    assert r1.passes == 5 and r1.ok
    assert r1.failures == ()


def test_compare_preds_prints_plain_rationals():
    detail = orc._compare_preds(
        [la.vec([F(1, 2), 0])], lambda x: True, lambda x: False
    )
    assert detail == "predicates split [True, False] at (1/2, 0)"
    assert "Fraction(" not in detail


def test_suite_records_failures_with_seeds():
    # an intentionally broken checker wired through the public runner
    orig = orc._REGISTRY["prop2.1"]
    orc._REGISTRY["prop2.1"] = lambda rng, spec: "forced failure"
    try:
        rep = orc.theorem_suite("prop2.1", count=3, seed=1)
    finally:
        orc._REGISTRY["prop2.1"] = orig
    assert rep.passes == 0 and not rep.ok
    assert len(rep.failures) == 3
    seeds = [s for s, _ in rep.failures]
    assert seeds == sorted(seeds)
    assert all(d == "forced failure" for _, d in rep.failures)


def test_exhausted_sampling_is_a_typed_failure():
    with pytest.raises(SamplingExhausted):
        orc._retry(random.Random(0), lambda: None, lambda t: False)
    orig = orc._REGISTRY["prop2.1"]
    orc._REGISTRY["prop2.1"] = lambda rng, spec: orc._retry(
        rng, lambda: None, lambda t: False, tries=2
    )
    try:
        rep = orc.theorem_suite("prop2.1", count=1)
    finally:
        orc._REGISTRY["prop2.1"] = orig
    assert rep.failures[0][1] == (
        "SamplingExhausted: rejection sampling exhausted its tries"
    )


SMALL_COUNT_SUITES = [
    "prop2.1", "thm2.2c", "thm2.3", "thm3.1", "thm3.8", "thm4.1",
    "thm5.2", "thm6.3", "thm6.6", "thm7.1b", "thm7.3", "thm7.8",
    "negctl-membership", "negctl-identity", "negctl-conjugate",
]


@pytest.mark.parametrize("tid", SMALL_COUNT_SUITES)
def test_suites_pass_at_small_counts(tid):
    rep = orc.theorem_suite(tid, count=4)
    assert rep.ok, rep.failures


@pytest.mark.parametrize(
    "tid", [t for t in orc.registered_theorems() if t not in SMALL_COUNT_SUITES]
)
def test_every_other_suite_passes_once(tid):
    rep = orc.theorem_suite(tid, count=1)
    assert rep.ok, rep.failures
