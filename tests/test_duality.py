"""Perturbation duality across the four schemes.

Oracles:
  - every report is re-checked by substitution: primal witnesses are
    evaluated through the perturbation, dual witnesses swept through the
    generator conjugate, and the gap recomputed from both values;
  - the scheme formulas (Lagrangian dual, split dual, conjugate pair)
    are recomputed here from their definitions rather than trusted;
  - weak duality is asserted on unfiltered random instances, including
    ones that fail every qualification.
"""

import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from ncvx import conjugate as cj
from ncvx import duality as du
from ncvx import linalg as la
from ncvx import lp
from ncvx import ncset as ns
from ncvx import oracle as orc
from ncvx import polyhedron as ph
from ncvx import plfunc as pf
from ncvx import svmap as sv
from ncvx.errors import (
    DimensionMismatch,
    IdentityViolated,
    ImproperPerturbation,
)
from ncvx.plfunc import MINUS_INF, PLUS_INF
from ncvx.rationals import ext_add

from instances import abs_fn, clear_caches, interval_set, origin_lp_calls


def _abs_pair():
    # f(x, y) = |x| + |x + y| on R^2, the classic well behaved program
    return pf.max_affine(
        2,
        [
            ((F(2), F(1)), F(0)),
            ((F(0), F(-1)), F(0)),
            ((F(0), F(1)), F(0)),
            ((F(-2), F(-1)), F(0)),
        ],
    )


# ---------------------------------------------------------------------------
# general perturbation scheme


def test_general_duality_worked():
    rep = du.general_duality(_abs_pair(), 1)
    assert rep.scheme == "general"
    assert rep.v_primal == 0 and rep.v_dual == 0 and rep.gap == 0
    assert rep.qc("parameter_origin_interior")
    assert rep.subdiff_nonempty
    assert rep.primal_witness is not None
    f = rep.perturbation
    assert pf.eval_at(f, rep.primal_witness + (F(0),)) == 0
    y = rep.dual_witness
    assert y is not None
    assert orc.generator_conjugate_oracle(f, (F(0),) + y) == 0


def test_general_duality_pathological_gap():
    # f(x, y) = x on the half plane y <= -1: value function never sees 0
    dom = ns.from_closed_hpoly(
        orc.ph.hpoly(2, ineq=[((F(0), F(1)), F(-1))])
    )
    f = pf.max_affine(2, [((F(1), F(0)), F(0))], domain=dom)
    rep = du.general_duality(f, 1)
    assert rep.v_primal == PLUS_INF
    assert rep.v_dual == MINUS_INF
    assert rep.gap == PLUS_INF
    assert not rep.qc("parameter_origin_interior")
    assert not rep.subdiff_nonempty


def test_general_duality_rejects_bad_split():
    with pytest.raises(DimensionMismatch):
        du.general_duality(_abs_pair(), 2)
    with pytest.raises(DimensionMismatch):
        du.general_duality(_abs_pair(), 0)


def test_general_duality_rejects_improper():
    f = pf.plfunction(2, ns.ncset(3, []))
    with pytest.raises(ImproperPerturbation):
        du.general_duality(f, 1)


def test_weak_duality_on_unfiltered_randoms():
    rng = random.Random(3)
    for _ in range(15):
        f = orc._random_plf(rng, orc.ULTRA_SPEC, 2)
        rep = du.general_duality(f, 1)
        assert rep.v_primal >= rep.v_dual
        if rep.subdiff_nonempty:
            assert rep.gap == 0


# ---------------------------------------------------------------------------
# Lagrange scheme


def test_lagrange_duality_worked():
    # minimize x subject to 1 - x <= 0: value 1, multiplier 1
    phi = pf.max_affine(1, [((F(1),), F(0))])
    theta = ns.whole_space(1)
    a_mat = la.mat([[F(-1)]])
    c = (F(1),)
    k = pf.nonneg_orthant(1)
    rep = du.lagrange_cone_duality(phi, theta, a_mat, c, k)
    assert rep.scheme == "lagrange"
    assert rep.v_primal == 1 and rep.v_dual == 1 and rep.gap == 0
    assert rep.qc("cone_ri_overlap")
    assert rep.primal_witness == (F(1),)
    assert rep.dual_witness == (F(1),)  # the multiplier
    assert rep.v_dual_formula == 1


def test_lagrange_dual_value_formula():
    # L(y*) = inf{x + y* . g(x)} for the program above
    phi = pf.max_affine(1, [((F(1),), F(0))])
    theta = ns.whole_space(1)
    g = sv.affine_plus_cone(
        la.mat([[F(-1)]]), (F(1),), pf.nonneg_orthant(1).k
    )
    # y* = -1 prices the constraint: inf x - (1 - x) is attained nowhere
    assert du.lagrange_dual_value(phi, theta, g, (F(-1),)) == 1
    assert du.lagrange_dual_value(phi, theta, g, (F(1),)) == MINUS_INF
    assert du.lagrange_dual_value(phi, theta, g, (F(0),)) == MINUS_INF


def test_lagrange_duality_with_set_constraint():
    rng = random.Random(41)
    for _ in range(8):
        theta, phi, g = orc._anchored_program(rng, orc.ULTRA_SPEC, 1, 1)
        rep = du.lagrange_duality(phi, theta, g)
        assert rep.qc("triple_ri_overlap")
        assert rep.qc("origin_in_ri_image")
        assert rep.gap == 0
        assert rep.v_primal >= rep.v_dual


def test_lagrange_vacuous_constraint_set():
    phi = pf.max_affine(1, [((F(1),), F(0))])
    theta = ns.ncset(1, [])
    g = sv.affine_plus_cone(la.mat([[F(1)]]), (F(0),), pf.nonneg_orthant(1).k)
    rep = du.lagrange_duality(phi, theta, g)
    assert rep.v_primal == PLUS_INF and rep.v_dual == PLUS_INF
    assert rep.gap == 0


def test_cone_multiplier_lands_in_dual_cone():
    rng = random.Random(43)
    for _ in range(6):
        n, q = 1, rng.randint(1, 2)
        a = orc._anchor_point(rng, n, orc.DEFAULT_SPEC)
        theta = orc.random_ncset(rng, n, orc.ULTRA_SPEC, anchor=a)
        phi = orc._random_plf(rng, orc.ULTRA_SPEC, n, anchor=a)
        k = orc._random_cone(rng, orc.DEFAULT_SPEC, q)
        a_mat = orc._random_matrix(rng, q, n)
        c = la.sub(la.neg(la.mat_vec(a_mat, a)), orc._cone_interior(k))
        rep = du.lagrange_cone_duality(phi, theta, a_mat, c, k)
        assert rep.qc("cone_ri_overlap")
        assert rep.gap == 0
        if rep.dual_witness is not None:
            assert pf.dual_cone(k).k.contains(rep.dual_witness)


def test_vg_closed_form_matches_direct():
    a_mat = la.mat([[F(1)], [F(-2)]])
    c = (F(1), F(0))
    k = pf.nonneg_orthant(2)
    g = sv.affine_plus_cone(a_mat, c, k.k)
    for x in [(F(0),), (F(1),), (F(-2),)]:
        for ystar in [(F(0), F(0)), (F(-1), F(-1)), (F(1), F(0)), (F(-2), F(-3))]:
            assert du.vg_value(g, x, ystar) == du.vg_closed_form(
                a_mat, c, k, x, ystar
            )


def _pinned_vg_cases():
    """Seeded (g, x, y*): affine-plus-cone maps, nearly convex graphs and
    the same graphs with one piece dropped, which can leave a hole where a
    closed slice is nonempty but the ri slice is empty. Two of every three
    points are vertices of a piece, so slices often fall on a boundary."""
    rng = random.Random(74)
    spec = orc.LEAN_SPEC
    for i in range(48):
        n, q, kind = 1 + i % 2, 1 + i // 2 % 2, i % 3
        if kind == 0:
            k = orc._random_cone(rng, spec, q)
            a_mat = orc._random_matrix(rng, q, n)
            g = sv.affine_plus_cone(a_mat, orc._anchor_point(rng, q, spec), k.k)
        else:
            graph = orc.random_ncset(rng, n + q, spec)
            if kind == 2:
                drop = rng.randrange(len(graph.pieces))
                graph = ns.NCSet(n + q, graph.pieces[:drop] + graph.pieces[drop + 1 :])
            g = sv.SVMap(n, q, graph)
        for j in range(3):
            if j and g.graph.pieces:
                pc = rng.choice(g.graph.pieces)
                x = rng.choice(ph.to_vrep(pc.base).points)[:n]
            else:
                x = orc._anchor_point(rng, n, spec)
            yield g, x, tuple(orc._coef(rng) for _ in range(q))


def _least_lp_value(cells, ystar):
    # inf of <-y*, y> over the union of closed cells
    best = PLUS_INF
    for cell in cells:
        out = lp.solve_lp(la.neg(la.vec(ystar)), cell)
        if out.status == "unbounded":
            return MINUS_INF
        if out.status == "optimal" and out.value < best:
            best = out.value
    return best


def test_pinned_vg_values():
    # sha256 over repr(vg_value(g, x, y*)), recorded with vg_value
    # iterating over the canonical pieces of G(x)
    digest = hashlib.sha256()
    cases = Counter()
    for g, x, ystar in _pinned_vg_cases():
        value = du.vg_value(g, x, ystar)
        digest.update(repr(value).encode())
        digest.update(b"\n")
        cases[{MINUS_INF: "-inf", PLUS_INF: "+inf"}.get(value, "finite")] += 1
        # every piece's closed slice, holes filled in
        closed = [pc.system().fix(0, la.vec(x)).closed() for pc in g.graph.pieces]
        if _least_lp_value(closed, ystar) != value:
            cases["hole changes the value"] += 1
    print(dict(cases))
    assert set(cases) == {"-inf", "+inf", "finite", "hole changes the value"}
    assert digest.hexdigest() == (
        "4969209b3d2cb502ad0ae08457dfece4e6883c76f47a59fbe65700ba7565b61d"
    )


def _slice_by_fractions(base, x):
    # the former construction of the dominant slice: top.system().fix(0, x)
    # .closed(), each right-hand side b - a_x.x in Fractions
    n = len(x)
    rows = [(a[n:], b - la.dot(a[:n], x)) for a, b in base.ineq]
    eqs = [(a[n:], b - la.dot(a[:n], x)) for a, b in base.eq]
    return lp.MixedSystem(base.dim - n, tuple(rows), (), tuple(eqs))


def _same_system(got, want):
    # equal integer rows, equal hashes and the same Fraction rows
    return (
        got == want
        and hash(got) == hash(want)
        and (got.weak, got.strict, got.eq) == (want.weak, want.strict, want.eq)
    )


def test_slice_lp_matches_the_fraction_slice():
    # the closed LP slice_inf solves on the dominant piece is the former
    # Fraction slice, row for row, with the same LPOutcome; it and the
    # base's closed, ri and cone systems are the systems built from the
    # Fraction rows of their definitions
    statuses = Counter()
    for g, x, ystar in _pinned_vg_cases():
        top = g.graph.dominant
        if top is None:
            continue
        base = top.base
        dim, ineq, eq = base.dim, base.ineq, base.eq
        zero = lambda rows: tuple((a, la.ZERO) for a, _ in rows)
        for system, want in (
            (base.closed_system(), lp.MixedSystem(dim, ineq, (), eq)),
            (base.ri_system(), lp.MixedSystem(dim, (), ineq, eq)),
            (base.cone_system(), lp.MixedSystem(dim, zero(ineq), (), zero(eq))),
        ):
            assert _same_system(system, want)
        x, cost = la.vec(x), la.neg(la.vec(ystar))
        former = _slice_by_fractions(base, x)
        cell = top.system().fix(0, x)
        assert _same_system(cell.closed(), former)
        assert _same_system(cell, lp.MixedSystem(former.dim, (), former.weak, former.eq))
        lp.solve_lp.cache_clear()
        got = lp.solve_lp(cost, cell.closed())
        lp.solve_lp.cache_clear()
        assert got == lp.solve_lp(cost, former)
        statuses[got.status] += 1
    assert set(statuses) == {"optimal", "unbounded", "infeasible"}, statuses


def test_vg_value_matches_an_lp_on_each_canonical_piece():
    # the former definition: G(x) in canonical pieces, one LP on each base
    for g, x, ystar in _pinned_vg_cases():
        bases = [pc.base.closed_system() for pc in sv.eval_at(g, x).pieces]
        assert du.vg_value(g, x, ystar) == _least_lp_value(bases, ystar), (g, x)


def test_vg_value_takes_no_canonical_form():
    cases = list(_pinned_vg_cases())
    ph.canonical_form.cache_clear()
    for g, x, ystar in cases:
        du.vg_value(g, x, ystar)
    assert ph.canonical_form.cache_info().misses == 0


def _vg_closed_form_by_dual_cone(a_mat, c, k, x, ystar):
    # the former definition: build K* and test -y* against its rows
    if pf.dual_cone(k).k.contains(la.neg(la.vec(ystar))):
        return -la.dot(la.vec(ystar), la.add(la.mat_vec(a_mat, la.vec(x)), la.vec(c)))
    return MINUS_INF


def test_vg_closed_form_matches_the_dual_cone_test():
    cones = [
        pf.nonneg_orthant(1),
        pf.nonneg_orthant(2),
        pf.polycone(ph.hpoly(2, [((1, -1), 0), ((-1, 0), 0)])),  # wedge
        pf.polycone(ph.hpoly(2, [((1, 2), 0), ((-1, 1), 0)])),  # wide wedge
        pf.polycone(ph.hpoly(2, eq=[((1, 0), 0), ((0, 1), 0)])),  # {0}
        pf.polycone(ph.hpoly(2)),  # the whole plane
        pf.polycone(ph.hpoly(2, [((1, 0), 0)])),  # half-plane: a line of lineality
        pf.polycone(ph.hpoly(2, eq=[((1, -1), 0)])),  # a line
        pf.polycone(ph.hpoly(2, [((0, -1), 0)], [((1, 0), 0)])),  # a ray
    ]
    grid = [F(v, 2) for v in range(-3, 4)]
    outcomes = Counter()
    for k in cones:
        q = k.k.dim
        a_mat = la.mat([[F(1)], [F(-2)]][:q])
        c = (F(1), F(0))[:q]
        for x in [(F(0),), (F(3, 2),)]:
            for ystar in itertools.product(grid, repeat=q):
                got = du.vg_closed_form(a_mat, c, k, x, ystar)
                assert got == _vg_closed_form_by_dual_cone(a_mat, c, k, x, ystar)
                outcomes[got == MINUS_INF] += 1
    assert set(outcomes) == {True, False}


def test_graph_inf_needs_the_relative_interiors_to_meet():
    # theta = (0, 1) and G with graph {1} x (0, 1): no x of theta has a
    # nonempty G(x), although the closed bases meet at x = 1
    theta = ns.ncset(1, [ph.hpoly(1, [((1,), 1), ((-1,), 0)])])
    segment = ph.hpoly(2, [((0, 1), 1), ((0, -1), 0)], [((1, 0), 1)])
    g = sv.SVMap(1, 1, ns.ncset(2, [segment]))
    phi = pf.const_function(1, 0)
    assert du.lagrange_dual_value(phi, theta, g, (F(-1),)) == PLUS_INF
    assert du.h1_value(phi, theta, g, (F(0),), (F(-1),)) == PLUS_INF
    # on [0, 1] the point x = 1 counts, and inf{y : y in (0, 1)} = 0
    closed = interval_set(0, 1)
    assert du.lagrange_dual_value(phi, closed, g, (F(-1),)) == 0
    assert du.h1_value(phi, closed, g, (F(0),), (F(-1),)) == 0


def _pointed_cone_map():
    # x -> Ax + c + K with K = {(a, b) : b >= a >= 0}, pointed, in R^2
    k = pf.polycone(ph.hpoly(2, [((1, -1), 0), ((-1, 0), 0)]))
    return la.mat([[F(1)], [F(-2)]]), (F(1), F(0)), k


_POINTS = [(F(0),), (F(1),), (F(-3, 2),)]
_DUALS = [(F(a), F(b)) for a in range(-2, 3) for b in range(-2, 3)]


def test_faces_of_a_cone_graph_take_no_lp_of_either_entry(monkeypatch):
    # K's canonical form took the one strict LP and keeps its point; the
    # graph's root is canonicalized from it, and each facet child without
    # an LP, so the graph itself takes none of either entry
    a_mat, c, k = _pointed_cone_map()
    origin = origin_lp_calls(monkeypatch)
    clear_caches()
    g = sv.affine_plus_cone(a_mat, c, k.k)
    assert len(g.graph.pieces) == 4
    assert lp.solve_lp.cache_info().misses + len(origin) == 0


def _cone_graph_by_faces(a_mat, c, k):
    # the former construction: every face of the closed graph, the root
    # canonicalized by its own strict LP
    n = len(a_mat[0])

    def shift(rows):
        return tuple(
            (la.neg(la.mat_t_vec(a_mat, r)) + r, la.dot(r, la.vec(c))) for r, _ in rows
        )

    closed = ph.HPoly(n + k.k.dim, shift(k.k.ineq), shift(k.k.eq))
    return ns.from_closed_hpoly(closed)


def test_cone_graph_over_a_warm_cone_takes_no_strict_lp():
    # the graph's root is canonicalized from (0, c + k0), with k0 the strict
    # witness of K's ri system, which K's own canonical form has paid for
    cones = (
        _pointed_cone_map()[2],
        pf.nonneg_orthant(2),
        pf.polycone(ph.hpoly(2, [((1, 2), 0), ((-1, 1), 0)])),  # wide wedge
        pf.polycone(ph.hpoly(2, [((1, 0), 0)])),  # half-plane
        pf.polycone(ph.hpoly(2, eq=[((1, -1), 0)])),  # a line: 0 is in its ri
        pf.polycone(ph.hpoly(2, [((0, -1), 0)], [((1, 0), 0)])),  # a ray
        pf.polycone(ph.hpoly(2)),  # the plane
    )
    a_mat, c = la.mat([[F(1)], [F(-2)]]), (F(1), F(0))
    for k in cones:
        clear_caches()
        ph.canonical_form(k.k)
        before = lp.strict_feasible.cache_info().misses
        g = sv.affine_plus_cone(a_mat, c, k.k)
        assert lp.strict_feasible.cache_info().misses == before, k
        assert g.graph == _cone_graph_by_faces(a_mat, c, k)
        assert g.graph.dominant == g.graph.pieces[0]


def test_vg_value_takes_no_strict_lp_on_a_cone_graph():
    # every slice value comes with a witness in its own cell
    a_mat, c, k = _pointed_cone_map()
    g = sv.affine_plus_cone(a_mat, c, k.k)
    clear_caches()
    for x in _POINTS:
        for ystar in _DUALS:
            du.vg_value(g, x, ystar)
    assert lp.strict_feasible.cache_info().misses == 0


def test_vg_value_takes_no_simplex_lp_on_a_cone_graph(monkeypatch):
    # the graph's top face holds every other face, so each call is one LP
    # on its closed slice, and the point or ray it returns lies in the
    # closed graph, so no strict point is sought; the slice has at most
    # two free columns, so that LP comes by elimination (ph.least), and no
    # simplex LP of either entry runs
    a_mat, c, k = _pointed_cone_map()
    g = sv.affine_plus_cone(a_mat, c, k.k)
    origin = origin_lp_calls(monkeypatch)
    calls = []

    def counted(system, cost, real=ph.least):
        calls.append(system)
        return real(system, cost)

    monkeypatch.setattr(pf, "least", counted)
    monkeypatch.setattr(pf, "strict_point", lambda system: pytest.fail("a strict point"))
    clear_caches()
    for x in _POINTS:
        for ystar in _DUALS:
            du.vg_value(g, x, ystar)
    assert not origin
    assert lp.solve_lp.cache_info().misses == 0
    assert lp.strict_feasible.cache_info().misses == 0
    assert len(calls) == len(_POINTS) * len(_DUALS) == 75


def test_vg_closed_form_takes_no_canonical_form():
    # the generators are kept on K, so no call even looks a cache up, and
    # they stay out of K's repr and equality
    a_mat, c, k = _pointed_cone_map()
    clear_caches()
    assert k.generators == ph.to_vrep(k.k)
    before = ph.canonical_form.cache_info()
    for x in _POINTS:
        for ystar in _DUALS:
            du.vg_closed_form(a_mat, c, k, x, ystar)
    after = ph.canonical_form.cache_info()
    assert after.hits + after.misses == before.hits + before.misses
    assert repr(k) == f"PolyCone(k={k.k!r})" and k == pf.PolyCone(k.k)


def test_lemma74_lp_budget(monkeypatch):
    # LP work of four lemma7.4 instances from cold caches; the counts do
    # not drift with the machine, so a regression shows through timing noise
    origin = origin_lp_calls(monkeypatch)
    clear_caches()
    report = orc.theorem_suite("lemma7.4", count=4, seed=0)
    assert report.passes == 4
    assert lp.solve_lp.cache_info().misses + len(origin) <= 26
    assert lp.strict_feasible.cache_info().misses == 0
    assert ph.canonical_form.cache_info().misses <= 2


# ---------------------------------------------------------------------------
# Fenchel-Lagrange scheme


def test_fenchel_lagrange_worked():
    phi = pf.max_affine(1, [((F(1),), F(0))])
    theta = ns.whole_space(1)
    g = sv.affine_plus_cone(
        la.mat([[F(-1)]]), (F(1),), pf.nonneg_orthant(1).k
    )
    rep = du.fenchel_lagrange_duality(phi, theta, g)
    assert rep.scheme == "fenchel-lagrange"
    assert rep.v_primal == 1 and rep.v_dual == 1 and rep.gap == 0
    assert rep.dual_witness == (F(1), F(-1))
    ustar, ystar = rep.dual_witness[:1], rep.dual_witness[1:]
    assert du.h1_value(phi, theta, g, ustar, ystar) == 1
    assert rep.v_dual_formula == rep.v_dual


def test_fenchel_lagrange_random():
    rng = random.Random(47)
    for _ in range(6):
        theta, phi, g = orc._anchored_program(rng, orc.ULTRA_SPEC, 1, 1)
        rep = du.fenchel_lagrange_duality(phi, theta, g)
        assert rep.gap == 0
        assert rep.v_dual_formula == rep.v_dual


# ---------------------------------------------------------------------------
# Fenchel scheme


def test_fenchel_duality_worked():
    g = abs_fn()
    h = pf.max_affine(1, [((F(1),), F(-1)), ((F(-1),), F(1))])  # |y - 1|
    rep = du.fenchel_duality(g, h, la.mat([[F(1)]]))
    assert rep.scheme == "fenchel"
    assert rep.v_primal == 1 and rep.v_dual == 1 and rep.gap == 0
    assert rep.qc("affine_image_ri_overlap")
    assert rep.dual_witness == (F(-1),)
    y = rep.dual_witness
    pg = orc.generator_conjugate_oracle(g, la.neg(y))
    ph = orc.generator_conjugate_oracle(h, y)
    assert -(pg + ph) == 1


def test_fenchel_duality_builds_the_sum_once(monkeypatch):
    # the composite conjugate identity is checked at each probe y* on the
    # sum g(x) + h(Ax + y) that the scheme built for its slice, not on a
    # sum built again per probe; the worked instance probes 0 and -1
    calls = []

    def counted(*args, real=pf.add_with_affine_inner):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(pf, "add_with_affine_inner", counted)
    g = abs_fn()
    h = pf.max_affine(1, [((F(1),), F(-1)), ((F(-1),), F(1))])  # |y - 1|
    rep = du.fenchel_duality(g, h, la.mat([[F(1)]]))
    assert rep.gap == 0 and rep.dual_witness == (F(-1),)
    assert len(calls) == 1


def test_fenchel_duality_random():
    rng = random.Random(53)
    for _ in range(6):
        x0 = orc._anchor_point(rng, 1, orc.DEFAULT_SPEC)
        a_mat = orc._random_matrix(rng, 1, 1)
        g = orc._random_plf(rng, orc.ULTRA_SPEC, 1, anchor=x0)
        h = orc._random_plf(rng, orc.ULTRA_SPEC, 1, anchor=la.mat_vec(a_mat, x0))
        rep = du.fenchel_duality(g, h, a_mat)
        assert rep.qc("affine_image_ri_overlap")
        assert rep.gap == 0
        assert rep.v_dual_formula == rep.v_dual


# ---------------------------------------------------------------------------
# domain hulls


def test_schemes_and_sum_and_chain_rules_build_no_domain_set(monkeypatch):
    # each qualification reads the hull of a domain off the hull of the
    # epigraph or graph, and each direct side takes an inf over ri cells,
    # so no domain or linear image is built as a set
    calls = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls[f"{module.__name__}.{name}"] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    for module, name in [(ns, "linear_image"), (sv, "linear_image"), (pf, "dom")]:
        count(module, name)
    count(sv, "dom")
    clear_caches()
    phi = pf.max_affine(1, [((F(1),), F(0))])
    g = sv.affine_plus_cone(la.mat([[F(-1)]]), (F(1),), pf.nonneg_orthant(1).k)
    h = pf.max_affine(1, [((F(1),), F(-1)), ((F(-1),), F(1))])  # |y - 1|
    du.general_duality(_abs_pair(), 1)
    du.lagrange_duality(phi, ns.whole_space(1), g)
    du.fenchel_duality(abs_fn(), h, la.mat([[F(1)]]))
    cj.conjugate_sum(abs_fn(), h, (F(0),))
    cj.conjugate_chain(abs_fn(), la.mat([[F(2)]]), (F(1),))
    assert calls == Counter()


# ---------------------------------------------------------------------------
# report plumbing


def test_report_qc_lookup():
    rep = du.general_duality(_abs_pair(), 1)
    assert rep.qc("parameter_origin_interior") is True
    with pytest.raises(KeyError):
        rep.qc("no_such_flag")
    assert rep.all_qc()


def test_duality_reports_are_deterministic():
    rep1 = du.general_duality(_abs_pair(), 1)
    rep2 = du.general_duality(_abs_pair(), 1)
    assert rep1 == rep2


def test_ext_add_sums_the_dual_formula_terms():
    assert ext_add(F(1, 2), F(-3)) == F(-5, 2)
    assert ext_add(F(4), PLUS_INF) == PLUS_INF
    assert ext_add(MINUS_INF, F(4)) == MINUS_INF
    with pytest.raises(IdentityViolated):
        ext_add(PLUS_INF, MINUS_INF)
