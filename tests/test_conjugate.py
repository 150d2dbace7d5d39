"""Supports, conjugates, and the convolution identities.

Oracles:
  - every conjugate value is re-derived by sweeping the pooled V-rep
    generators of the epigraph (no LP in the loop);
  - split witnesses are substituted back: the parts must re-evaluate to
    the claimed values and sum to the optimum;
  - optimality of a split is probed by nearby competing splits, which
    must never beat it.
"""

import random
from fractions import Fraction as F

import pytest

from ncvx import conjugate as cj
from ncvx import linalg as la
from ncvx import ncset as ns
from ncvx import oracle as orc
from ncvx import plfunc as pf
from ncvx import svmap as sv
from ncvx import variational as vr
from ncvx.errors import DimensionMismatch, EmptyDomain, IdentityViolated, QCViolated
from ncvx.plfunc import MINUS_INF, PLUS_INF
from ncvx.polyhedron import hpoly

from instances import (
    UNIT_SQUARE,
    abs_fn,
    half_open_interval,
    interval_set,
    random_plfunction,
    strip_map,
)


W_GRID_1 = [(F(k, 2),) for k in range(-6, 7)]


# ---------------------------------------------------------------------------
# supports


def test_support_square():
    s = ns.from_closed_hpoly(UNIT_SQUARE)
    ev = cj.support(s, (F(1), F(2)))
    assert ev.value == 3
    assert ev.maximizer == (F(1), F(1))
    assert ev.ray is None


def test_support_negative_direction_picks_origin_corner():
    s = ns.from_closed_hpoly(UNIT_SQUARE)
    ev = cj.support(s, (F(-1), F(-1)))
    assert ev.value == 0
    assert ev.maximizer == (F(0), F(0))


def test_support_unbounded_has_certifying_ray():
    s = ns.from_closed_hpoly(hpoly(1, ineq=[((F(-1),), F(0))]))  # [0, inf)
    ev = cj.support(s, (F(1),))
    assert ev.value == PLUS_INF
    assert ev.ray is not None
    assert la.dot(ev.ray, (F(1),)) > 0


def test_support_empty_set():
    ev = cj.support(ns.ncset(2, []), (F(1), F(0)))
    assert ev.value == MINUS_INF
    assert ev.maximizer is None and ev.ray is None


def test_support_closure_invariance():
    # the open square supports exactly like its closure
    open_sq = ns.ncset(2, [UNIT_SQUARE])
    closed_sq = ns.from_closed_hpoly(UNIT_SQUARE)
    for v in [(F(1), F(0)), (F(-2), F(1)), (F(1), F(1))]:
        assert cj.support(open_sq, v).value == cj.support(closed_sq, v).value


def test_support_matches_generator_sweep_random():
    rng = random.Random(7)
    for _ in range(25):
        dim = rng.randint(1, 2)
        s = orc.random_ncset(rng, dim, orc.DEFAULT_SPEC)
        v = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
        assert cj.support(s, v).value == orc.generator_support_oracle(s, v)


def test_support_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        cj.support(ns.from_closed_hpoly(UNIT_SQUARE), (F(1),))


# ---------------------------------------------------------------------------
# conjugates of functions


def test_conjugate_of_abs_is_interval_indicator():
    f = abs_fn()
    for (w,) in W_GRID_1:
        want = F(0) if abs(w) <= 1 else PLUS_INF
        assert cj.fenchel_value(f, (w,)) == want


def test_conjugate_of_linear_piece_on_interval():
    # f(x) = x on [0, 2]: f*(w) = max(0, 2(w - 1))
    f = pf.max_affine(1, [((F(1),), F(0))], domain=interval_set(0, 2))
    for (w,) in W_GRID_1:
        assert cj.fenchel_value(f, (w,)) == max(F(0), 2 * (w - 1))


def test_conjugate_of_two_piece_max():
    # f(x) = max(x, 2x - 1) everywhere: f* finite exactly on [1, 2]
    f = pf.max_affine(1, [((F(1),), F(0)), ((F(2),), F(-1))])
    assert cj.fenchel_value(f, (F(1),)) == 0
    assert cj.fenchel_value(f, (F(2),)) == 1
    assert cj.fenchel_value(f, (F(3, 2),)) == F(1, 2)
    assert cj.fenchel_value(f, (F(0),)) == PLUS_INF
    assert cj.fenchel_value(f, (F(5, 2),)) == PLUS_INF


def test_fenchel_function_closes_the_conjugate():
    f = abs_fn()
    g = cj.fenchel(f)
    assert pf.eval_at(g, (F(1),)) == 0
    assert pf.eval_at(g, (F(-1),)) == 0
    assert pf.eval_at(g, (F(3, 2),)) == PLUS_INF


def test_conjugate_values_match_generator_sweep_random():
    rng = random.Random(11)
    for _ in range(30):
        f = random_plfunction(rng)
        w = tuple(F(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(f.n))
        assert cj.fenchel_value(f, w) == orc.generator_conjugate_oracle(f, w)


def test_conjugate_epigraph_empty_for_improper_function():
    # epi is a vertical line: the function takes -inf at the origin
    line = hpoly(2, eq=[((F(1), F(0)), F(0))])
    f = pf.plfunction(1, ns.ncset(2, [line]))
    assert pf.eval_at(f, (F(0),)) == MINUS_INF
    ep = cj.conjugate_epigraph(f)
    assert not ep.contains(la.zeros(2))
    for (w,) in W_GRID_1:
        assert cj.fenchel_value(f, (w,)) == PLUS_INF


def test_conjugate_of_empty_function_raises():
    f = pf.plfunction(1, ns.ncset(2, []))
    with pytest.raises(EmptyDomain):
        cj.fenchel_value(f, (F(0),))
    with pytest.raises(EmptyDomain):
        cj.conjugate_epigraph(f)


def test_biconjugate_is_closure():
    # f(x) = x restricted to the half open interval (0, 1]:
    # the biconjugate closes the domain and keeps the values
    f = pf.max_affine(1, [((F(1),), F(0))], domain=half_open_interval())
    assert pf.eval_at(f, (F(0),)) == PLUS_INF
    g = cj.biconjugate(f)
    assert pf.eval_at(g, (F(0),)) == 0
    assert pf.eval_at(g, (F(1),)) == 1
    assert pf.eval_at(g, (F(1, 2),)) == F(1, 2)
    assert pf.eval_at(g, (F(2),)) == PLUS_INF


def test_biconjugate_below_function_random():
    rng = random.Random(13)
    grid = [(F(k, 2),) for k in range(-4, 5)]
    for _ in range(20):
        f = random_plfunction(rng)
        if f.n != 1:
            continue
        g = cj.biconjugate(f)
        for x in grid:
            assert pf.eval_at(g, x) <= pf.eval_at(f, x)


def test_triple_conjugate_equals_single_random():
    rng = random.Random(17)
    grid = [(F(k, 2),) for k in range(-4, 5)]
    for _ in range(10):
        f = random_plfunction(rng)
        if f.n != 1:
            continue
        fstar = cj.fenchel(f)
        fstar3 = cj.fenchel(cj.biconjugate(f))
        for w in grid:
            assert pf.eval_at(fstar, w) == pf.eval_at(fstar3, w)


# ---------------------------------------------------------------------------
# conjugate of a set-valued mapping


def test_svm_conjugate_is_graph_support():
    fm = strip_map()
    ev = cj.svm_conjugate(fm, (F(1), F(0)))
    assert ev.value == 2
    ev2 = cj.svm_conjugate(fm, (F(0), F(1)))
    assert ev2.value == 3  # y tops out at x + 1 with x = 2
    assert ev2.maximizer == (F(2), F(3))


def test_svm_conjugate_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        cj.svm_conjugate(strip_map(), (F(1),))


# ---------------------------------------------------------------------------
# support of an intersection


def test_intersection_support_worked():
    s1 = interval_set(0, 2)
    s2 = interval_set(1, 3)
    value, wit = cj.support_of_intersection(s1, s2, (F(1),))
    assert value == 2
    assert la.add(wit.w1, wit.w2) == (F(1),)
    p1 = orc.generator_support_oracle(s1, wit.w1)
    p2 = orc.generator_support_oracle(s2, wit.w2)
    assert (p1, p2) == wit.parts
    assert p1 + p2 == 2


def test_convolution_mismatch_reports_plain_rationals():
    # the split LP for sigma of [0, 2] cap [1, 3] at 1 has value 2; a
    # direct side claiming 5/2 must be refused with a readable message
    e1 = cj.support_epigraph(interval_set(0, 2))
    e2 = cj.support_epigraph(interval_set(1, 3))
    with pytest.raises(IdentityViolated) as err:
        cj._convolution(e1, e2, (F(1),), F(5, 2))
    assert str(err.value) == "direct side 5/2 != convolution 2 at (1)"


def test_intersection_support_needs_overlapping_interiors():
    s1 = interval_set(0, 1)
    s2 = interval_set(1, 2)
    with pytest.raises(QCViolated):
        cj.support_of_intersection(s1, s2, (F(1),))


def test_intersection_support_random_splits_are_optimal():
    rng = random.Random(23)
    for _ in range(12):
        dim = rng.randint(1, 2)
        anchor = orc._anchor_point(rng, dim, orc.DEFAULT_SPEC)
        s1 = orc.random_ncset(rng, dim, orc.DEFAULT_SPEC, anchor)
        s2 = orc.random_ncset(rng, dim, orc.DEFAULT_SPEC, anchor)
        v = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
        value, wit = cj.support_of_intersection(s1, s2, v)
        if value == PLUS_INF:
            continue
        assert wit.parts[0] + wit.parts[1] == value
        for _ in range(4):
            u = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
            a1 = orc.generator_support_oracle(s1, u)
            a2 = orc.generator_support_oracle(s2, la.sub(v, u))
            if PLUS_INF not in (a1, a2):
                assert a1 + a2 >= value


# ---------------------------------------------------------------------------
# conjugate of an optimal value function


def _strip_instance():
    # mu(x) = x + indicator of [0, 2]
    f = pf.affine_function((F(0), F(1)), F(0))
    return vr.build_ovf(f, strip_map())


def test_ovf_conjugate_worked():
    inst = _strip_instance()
    for (w,) in W_GRID_1:
        value, wit = cj.ovf_conjugate(inst, (w,))
        assert value == max(F(0), 2 * (w - 1))
        assert wit is not None
        p1 = orc.generator_conjugate_oracle(inst.f, wit.w1 + wit.v)
        p2 = orc.generator_support_oracle(
            inst.fmap.graph, la.sub((w,), wit.w1) + la.neg(wit.v)
        )
        assert (p1, p2) == wit.parts
        assert p1 + p2 == value


def test_ovf_conjugate_full_graph_fast_path():
    # F is the whole space, so mu*(w) collapses to f*(w, 0)
    fmap = sv.svmap(1, 1, ns.whole_space(2))
    f = pf.max_affine(
        2,
        [
            ((F(1), F(1)), F(0)),
            ((F(1), F(-1)), F(0)),
            ((F(-1), F(1)), F(0)),
            ((F(-1), F(-1)), F(0)),
        ],
    )  # |x| + |y|; minimizing over y leaves |x|
    inst = vr.build_ovf(f, fmap)
    assert pf.eval_at(inst.mu, (F(3),)) == 3
    for (w,) in W_GRID_1:
        value, wit = cj.ovf_conjugate(inst, (w,))
        want = F(0) if abs(w) <= 1 else PLUS_INF
        assert value == want
        if value != PLUS_INF:
            assert wit.w1 == (w,) and wit.v == (F(0),)
            assert value == orc.generator_conjugate_oracle(inst.f, (w, F(0)))


def test_ovf_conjugate_random_against_value_function():
    rng = random.Random(29)
    done = 0
    while done < 8:
        inst, _, _ = orc._anchored_ovf(rng, orc.LEAN_SPEC, 1, 1)
        w = (F(rng.randint(-2, 2)),)
        value, _ = cj.ovf_conjugate(inst, w)
        assert value == orc.generator_conjugate_oracle(inst.mu, w)
        done += 1


# ---------------------------------------------------------------------------
# sum and chain rules


def test_conjugate_sum_worked():
    f1 = abs_fn()
    f2 = pf.max_affine(1, [((F(1),), F(-1)), ((F(-1),), F(1))])  # |x - 1|
    value, wit = cj.conjugate_sum(f1, f2, (F(0),))
    assert value == -1  # negative of the minimum of |x| + |x - 1|
    assert la.add(wit.w1, wit.w2) == (F(0),)
    assert wit.parts[0] + wit.parts[1] == -1
    assert orc.generator_conjugate_oracle(f1, wit.w1) == wit.parts[0]
    assert orc.generator_conjugate_oracle(f2, wit.w2) == wit.parts[1]
    value2, _ = cj.conjugate_sum(f1, f2, (F(2),))
    assert value2 == 1


def test_conjugate_sum_disjoint_domains_raise():
    f1 = pf.max_affine(1, [((F(1),), F(0))], domain=interval_set(0, 1))
    f2 = pf.max_affine(1, [((F(1),), F(0))], domain=interval_set(2, 3))
    with pytest.raises(QCViolated):
        cj.conjugate_sum(f1, f2, (F(0),))


def test_conjugate_chain_worked():
    g = abs_fn()
    a_mat = la.mat([[F(2)]])
    for (w,) in W_GRID_1:
        value, v = cj.conjugate_chain(g, a_mat, (w,))
        if abs(w) <= 2:
            assert value == 0
            assert 2 * v[0] == w
            assert orc.generator_conjugate_oracle(g, v) == 0
        else:
            assert value == PLUS_INF and v is None


def test_conjugate_chain_range_condition():
    # dom g = {3} while A maps everything to 0
    g = pf.max_affine(
        1, [((F(1),), F(0))], domain=ns.ncset(1, [hpoly(1, eq=[((F(1),), F(3))])])
    )
    with pytest.raises(QCViolated):
        cj.conjugate_chain(g, la.mat([[F(0)]]), (F(0),))


def test_composite_conjugate_identity_worked():
    g = abs_fn()
    h = pf.max_affine(1, [((F(1),), F(-1)), ((F(-1),), F(1))])  # |y - 1|
    a_mat = la.mat([[F(1)]])
    # g*(-y*) is 0 on [-1, 1] and h*(y*) = y* there, +inf beyond
    assert cj.composite_conjugate_identity(g, h, a_mat, (F(1),)) == 1
    assert cj.composite_conjugate_identity(g, h, a_mat, (F(0),)) == 0
    assert cj.composite_conjugate_identity(g, h, a_mat, (F(1, 2),)) == F(1, 2)
    assert cj.composite_conjugate_identity(g, h, a_mat, (F(2),)) == PLUS_INF


def test_composite_conjugate_identity_random():
    rng = random.Random(31)
    for _ in range(10):
        x0 = orc._anchor_point(rng, 1, orc.DEFAULT_SPEC)
        a_mat = orc._random_matrix(rng, 1, 1)
        g = orc._random_plf(rng, orc.ULTRA_SPEC, 1, anchor=x0)
        h = orc._random_plf(rng, orc.ULTRA_SPEC, 1, anchor=la.mat_vec(a_mat, x0))
        ystar = (F(rng.randint(-2, 2)),)
        value = cj.composite_conjugate_identity(g, h, a_mat, ystar)
        rg = orc.generator_conjugate_oracle(g, la.neg(la.mat_t_vec(a_mat, ystar)))
        rh = orc.generator_conjugate_oracle(h, ystar)
        want = rg + rh if PLUS_INF not in (rg, rh) else PLUS_INF
        assert value == want
