"""Function layer: evaluation, properness, epigraph validity, restriction,
generalized epigraphs, composites, and cone duality.

Oracle: evaluation is cross-checked by scanning a rational lattice in the
lam direction with pure membership tests (no LP involved), valid whenever
the true value is known to lie on the lattice.
"""

import math
import random
from fractions import Fraction as F

import pytest

from ncvx import linalg as la
from ncvx import lp
from ncvx import ncset as ns
from ncvx import oracle as orc
from ncvx import plfunc as pf
from ncvx import svmap as sv
from ncvx.errors import (
    DimensionMismatch,
    EmptyDomain,
    InvalidEpigraph,
    UsageError,
)
from ncvx.lp import MixedSystem
from ncvx.ncset import from_closed_hpoly, from_mixed, membership, ncset
from ncvx.plfunc import MINUS_INF, PLUS_INF
from ncvx.polyhedron import box, hpoly, to_vrep

from instances import (
    abs_fn,
    half_open_interval,
    interval_set,
    point_set,
    random_plfunction,
)


# ---------------------------------------------------------------------------
# oracle: lattice evaluation by membership only


def scan_eval(f, x, lo=-8, hi=8, den=4):
    """Smallest lattice lam with (x, lam) in epi, or +inf; useful when the
    true value is known to sit on the lattice."""
    x = la.vec(x)
    for k in range(lo * den, hi * den + 1):
        lam = F(k, den)
        if membership(f.epi, x + (lam,)):
            return lam
    return math.inf


def lattice(lo, hi, den=2):
    return [F(k, den) for k in range(lo * den, hi * den + 1)]


def ri_set(s):
    """Relative interior as an NCSet."""
    piece = ns.relative_interior(s)
    return ncset(s.dim, [] if piece is None else [piece.base])


# ---------------------------------------------------------------------------
# evaluation


def test_eval_abs_value():
    f = abs_fn()
    assert pf.eval_at(f, (-2,)) == 2
    assert pf.eval_at(f, (0,)) == 0
    assert pf.eval_at(f, (F(-3, 4),)) == F(3, 4)
    for x in lattice(-2, 2, 4):
        assert pf.eval_at(f, (x,)) == abs(x) == scan_eval(f, (x,))


def test_eval_indicator_outside_domain():
    f = pf.indicator(interval_set(0, 1))
    assert pf.eval_at(f, (2,)) == math.inf
    assert pf.eval_at(f, (F(-1, 4),)) == math.inf
    assert pf.eval_at(f, (1,)) == 0
    assert pf.eval_at(f, (F(1, 2),)) == 0


def test_eval_respects_slice_closedness():
    # valid epigraph: the closed half-plane above lam = x with its faces
    closed = pf.PLFunction(1, from_closed_hpoly(hpoly(2, [((1, -1), 0)])))
    assert pf.valid_epigraph(closed)
    for x in lattice(-2, 2):
        assert pf.eval_at(closed, (x,)) == x == scan_eval(closed, (x,))
    # the relatively open version misses its own infima
    ri_only = pf.PLFunction(1, ncset(2, [hpoly(2, [((1, -1), 0)])]))
    assert not pf.valid_epigraph(ri_only)
    assert pf.eval_at(ri_only, (3,)) == 3  # inf of the open slice


def test_eval_unbounded_slice_is_minus_inf():
    bot = pf.PLFunction(1, ns.whole_space(2))
    assert pf.eval_at(bot, (5,)) == -math.inf
    assert pf.valid_epigraph(bot)


def test_eval_vertical_line_piece():
    # f(0) = -inf, f elsewhere = +inf, encoded as a single vertical line
    f = pf.PLFunction(1, ncset(2, [hpoly(2, eq=[((1, 0), 0)])]))
    assert pf.valid_epigraph(f)
    assert pf.eval_at(f, (0,)) == -math.inf
    assert pf.eval_at(f, (1,)) == math.inf
    assert not pf.assert_proper(f)


def test_eval_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        pf.eval_at(abs_fn(), (1, 2))


def _slice_cases():
    """Seeded (s, x, cost) with s in R^(n+m) and x in R^n: nearly convex
    sets, the same with one piece dropped (which leaves holes), corrupted
    sets, and the closed unbounded graphs of x -> Ax + c + K with and
    without their boundary. Two of every three points are vertices of a
    piece, so slices often fall on a boundary."""
    rng = random.Random(2303)
    spec = orc.LEAN_SPEC
    for i in range(60):
        n, m, kind = 1 + i // 5 % 2, 1 + i // 10 % 2, i % 5
        if kind < 2:
            s = orc.random_ncset(rng, n + m, spec)
        elif kind == 2:
            s = orc.random_corrupted(rng, n + m, spec)
        else:
            k = orc._random_cone(rng, spec, m)
            a_mat = orc._random_matrix(rng, m, n)
            s = sv.affine_plus_cone(a_mat, orc._anchor_point(rng, m, spec), k.k).graph
        if kind == 1:
            drop = rng.randrange(len(s.pieces))
            s = ns.NCSet(s.dim, s.pieces[:drop] + s.pieces[drop + 1 :])
        elif kind == 4:
            s = ns.NCSet(s.dim, s.pieces[:1])  # the graph's ri alone
        for j in range(3):
            if j and s.pieces:
                pc = rng.choice(s.pieces)
                x = rng.choice(to_vrep(pc.base).points)[:n]
            else:
                x = orc._anchor_point(rng, n, spec)
            yield s, x, tuple(orc._coef(rng) for _ in range(m))
    # the ri of graphs of x -> Ax + c + K on three free columns, where the
    # closed LP is the simplex, whose unbounded witness plus ray can miss
    # a cell that is not empty; on at most two, elimination picks a point
    # of the relative interior of the closed slice, which a nonempty cell
    # then holds
    for _ in range(6):
        k = orc._random_cone(rng, spec, 3)
        a_mat = orc._random_matrix(rng, 3, 1)
        s = sv.affine_plus_cone(a_mat, orc._anchor_point(rng, 3, spec), k.k).graph
        s = ns.NCSet(s.dim, s.pieces[:1])
        yield s, orc._anchor_point(rng, 1, spec), tuple(orc._coef(rng) for _ in range(3))


def _slice_inf_by_strict_check(s, x, cost):
    # the former definition: a strict-feasibility LP on each piece's slice,
    # then the LP on the closed slice of each piece that passes
    best = PLUS_INF
    for pc in s.pieces:
        cell = pc.system().fix(0, x)
        if not lp.strict_feasible(cell).feasible:
            continue
        out = lp.solve_lp(cost, cell.closed())
        if out.status == "unbounded":
            return MINUS_INF
        best = min(best, out.value)
    return best


def _slice_branches(s, x, cost):
    """Which of cells_inf's ways of deciding a cell this slice takes, with
    the closed LP cells_inf runs (elimination on at most two free
    columns, else the simplex)."""
    cells = [pc.system().fix(0, x) for pc in s.pieces]
    outs = [pf._closed_lp(c, cost) for c in cells]
    for c, out in zip(cells, outs):
        if out.status == "unbounded" and c.satisfies(la.add(out.witness, out.certificate)):
            return {"-inf by witness and ray"}
    kept = sorted(
        (MINUS_INF if out.status == "unbounded" else out.value, not c.satisfies(out.witness), i)
        for i, (c, out) in enumerate(zip(cells, outs))
        if out.status != "infeasible"
    )
    branches = set()
    for value, unverified, i in kept:
        if not unverified or lp.strict_feasible(cells[i]).feasible:
            if value == MINUS_INF:
                branches.add("-inf by the LP")
            elif unverified:
                branches.add("verified by the strict LP")
            else:
                branches.add("verified by the witness")
            break
        branches.add("least closed value on a cell missing the slice")
    return branches


def test_slice_inf_matches_a_strict_check_then_the_closed_lp():
    seen = set()
    for s, x, cost in _slice_cases():
        assert pf.slice_inf(s, x, cost) == _slice_inf_by_strict_check(s, x, cost), (s, x)
        seen |= _slice_branches(s, x, cost)
    assert seen == {
        "-inf by witness and ray",
        "-inf by the LP",
        "verified by the strict LP",
        "verified by the witness",
        "least closed value on a cell missing the slice",
    }


def _dominant_slice_cases():
    """_slice_cases, plus the epigraphs of seeded max-affine functions on
    half-open boxes (some improper) at vertices of the domain, and the
    open square with its open left side: at x = 0 the top piece's cell is
    empty and the slice is the side alone, whose inf is not attained."""
    yield from _slice_cases()
    rng = random.Random(7793)
    for _ in range(30):
        f = random_plfunction(rng, allow_improper=True)
        points = [v.points for v in map(to_vrep, (pc.base for pc in f.epi.pieces))]
        for x in rng.sample([p[: f.n] for ps in points for p in ps], 2):
            yield f.epi, x, (la.ONE,)
    side = hpoly(2, [((0, 1), 1), ((0, -1), 0)], [((1, 0), 0)])
    square = ncset(2, [box([(0, 1), (0, 1)]), side])
    for cost in ((F(1),), (F(-1),)):
        yield square, (F(0),), cost


def _dominant_branch(s, x, cost):
    """Which way slice_inf settles the slice, with the closed LP it runs."""
    top = s.dominant
    if top is None:
        return "no dominant piece"
    cell = top.system().fix(0, x)
    out = pf._closed_lp(cell, cost)
    if out.status == "infeasible":
        return "empty dominant slice"
    if out.status == "optimal" and s.contains(x + out.witness):
        return "attained in the set"
    if out.status == "unbounded" and cell.satisfies(la.add(out.witness, out.certificate)):
        return "-inf along a ray in the dominant cell"
    if lp.strict_feasible(cell).feasible:
        return "the dominant cell decides"
    return "the dominant cell misses the slice"


def test_slice_inf_through_the_dominant_piece_is_exact():
    # the dominant piece's one LP gives the inf over every piece's cell
    values, branches = set(), set()
    for s, x, cost in _dominant_slice_cases():
        got = pf.slice_inf(s, x, cost)
        cells = [pc.system().fix(0, x) for pc in s.pieces]
        assert got == pf.cells_inf(cells, cost), (s, x, cost)
        values.add({MINUS_INF: "-inf", PLUS_INF: "+inf"}.get(got, "finite"))
        branches.add(_dominant_branch(s, x, cost))
    assert values == {"-inf", "+inf", "finite"}
    assert branches == {
        "no dominant piece",
        "empty dominant slice",
        "attained in the set",
        "-inf along a ray in the dominant cell",
        "the dominant cell decides",
        "the dominant cell misses the slice",
    }


# ---------------------------------------------------------------------------
# properness


def test_assert_proper_examples():
    assert pf.assert_proper(abs_fn())
    assert pf.assert_proper(pf.indicator(half_open_interval()))
    assert not pf.assert_proper(pf.PLFunction(1, ns.whole_space(2)))
    # -inf on a domain only
    f = pf.max_affine(1, [], interval_set(0, 1))
    assert not pf.assert_proper(f)
    assert pf.eval_at(f, (F(1, 2),)) == -math.inf


def test_proper_conformance_on_randoms():
    # finite value at a point of ri(dom) forces properness
    rng = random.Random(7)
    checked = 0
    for _ in range(100):
        f = random_plfunction(rng, allow_improper=True)
        hull = ns.closure_hull(pf.dom(f))
        if hull is None:
            continue
        from ncvx.lp import strict_feasible

        witness = strict_feasible(hull.ri_system()).witness
        if witness is None:
            continue
        value = pf.eval_at(f, witness)
        if isinstance(value, F):
            assert pf.assert_proper(f)
            checked += 1
        else:
            assert value == -math.inf
            assert not pf.assert_proper(f)
    assert checked >= 50


# ---------------------------------------------------------------------------
# domain


def test_dom_matches_finite_or_below(subtests=None):
    rng = random.Random(11)
    for _ in range(50):
        f = random_plfunction(rng, allow_improper=True)
        d = pf.dom(f)
        pts = (
            [(x,) for x in lattice(-3, 3)]
            if f.n == 1
            else [(x, y) for x in lattice(-2, 2, 1) for y in lattice(-2, 2, 1)]
        )
        for p in pts:
            assert membership(d, p) == (pf.eval_at(f, p) < math.inf)


def test_dom_of_restriction():
    f, _ = pf.restrict_function(abs_fn(), half_open_interval())
    assert ns.set_equal(pf.dom(f), half_open_interval())


# ---------------------------------------------------------------------------
# epigraphical mapping


def test_epigraphical_map_of_abs():
    e = pf.epigraphical_map(abs_fn())
    assert e.n == 1 and e.p == 1
    got = sv.eval_at(e, (1,))
    assert ns.set_equal(got, from_closed_hpoly(hpoly(1, [((-1,), -1)])))


def test_epigraphical_roundtrip():
    f = abs_fn()
    assert pf.from_epigraphical(pf.epigraphical_map(f)) == f


def test_from_epigraphical_rejects_bad_graphs():
    ri_only = sv.SVMap(1, 1, ncset(2, [hpoly(2, [((1, -1), 0)])]))
    with pytest.raises(InvalidEpigraph):
        pf.from_epigraphical(ri_only)
    wide = sv.SVMap(1, 2, ns.whole_space(3))
    with pytest.raises(UsageError):
        pf.from_epigraphical(wide)


def test_dom_of_mapping_equals_dom_of_function():
    rng = random.Random(23)
    for _ in range(50):
        f = random_plfunction(rng)
        assert ns.set_equal(sv.dom(pf.epigraphical_map(f)), pf.dom(f))


# ---------------------------------------------------------------------------
# envelope and validity


def test_envelope_closes_open_slices():
    open_epi = ncset(2, [hpoly(2, [((1, -1), 0)])])
    assert ns.set_equal(pf.envelope(open_epi), from_closed_hpoly(hpoly(2, [((1, -1), 0)])))


def test_envelope_fixes_valid_epigraphs():
    for f in (abs_fn(), pf.indicator(half_open_interval())):
        assert ns.set_equal(pf.envelope(f.epi), f.epi)


def test_envelope_always_contains_input():
    open_epi = ncset(2, [hpoly(2, [((1, -1), 0)])])
    assert ns.contains_set(pf.envelope(open_epi), open_epi)


def test_constructed_functions_are_valid():
    rng = random.Random(3)
    for _ in range(20):
        f = random_plfunction(rng, allow_improper=True)
        assert pf.valid_epigraph(f)


def test_missing_vertical_ray_detected():
    # the segment {0} x [0,1]: bounded slice, absorbs no ray
    seg = ncset(2, [hpoly(2, ineq=[((0, 1), 1), ((0, -1), 0)], eq=[((1, 0), 0)])])
    assert not pf.valid_epigraph(pf.PLFunction(1, seg))


# ---------------------------------------------------------------------------
# strict epigraph


def test_strict_epi_pointwise():
    f = abs_fn()
    s = pf.epi_strict(f)
    for x in lattice(-2, 2):
        for g in lattice(-1, 3):
            assert membership(s, (x, g)) == (pf.eval_at(f, (x,)) < g)


def test_strict_epi_closure_identity():
    cases = [
        abs_fn(),
        pf.indicator(half_open_interval()),
        pf.restrict_function(abs_fn(), half_open_interval())[0],
        pf.PLFunction(1, ns.whole_space(2)),
        pf.PLFunction(1, ncset(2, [hpoly(2, eq=[((1, 0), 0)])])),
        pf.indicator(point_set(2)),
    ]
    for f in cases:
        assert pf.strict_epi_closure_holds(f)


def test_strict_epi_closure_on_randoms():
    rng = random.Random(31)
    for _ in range(25):
        assert pf.strict_epi_closure_holds(random_plfunction(rng, allow_improper=True))


# ---------------------------------------------------------------------------
# restriction


def test_restrict_abs_to_half_open():
    f, qc = pf.restrict_function(abs_fn(), half_open_interval())
    assert qc
    assert pf.eval_at(f, (0,)) == math.inf
    assert pf.eval_at(f, (1,)) == 1
    assert pf.eval_at(f, (F(1, 2),)) == F(1, 2)
    assert pf.valid_epigraph(f)
    assert pf.certify_restrict_function(abs_fn(), half_open_interval(), f)


def test_restrict_to_superset_is_identity():
    f = pf.indicator(half_open_interval())
    g, qc = pf.restrict_function(f, ns.whole_space(1))
    assert qc
    assert ns.set_equal(g.epi, f.epi)


def test_restrict_qc_failure_at_boundary():
    f = pf.indicator(interval_set(0, 1))
    g, qc = pf.restrict_function(f, point_set(1))
    assert not qc
    assert pf.eval_at(g, (1,)) == 0
    assert pf.eval_at(g, (F(1, 2),)) == math.inf


# ---------------------------------------------------------------------------
# generalized epigraphs


def test_epi_m_identity_map_halfline():
    m = from_closed_hpoly(hpoly(1, [((-1,), 0)]))  # [0, inf)
    em, cert = pf.epi_m(((1,),), (0,), m)
    assert cert
    assert ns.set_equal(em, from_closed_hpoly(hpoly(2, [((1, -1), 0)])))
    assert ns.set_equal(ri_set(em), ncset(2, [hpoly(2, [((1, -1), 0)])]))


def test_epi_m_zero_map_gives_product():
    m = half_open_interval()
    em, cert = pf.epi_m(((0,),), (0,), m)
    assert cert
    assert ns.set_equal(em, ns.product(ns.whole_space(1), m))


def test_epi_m_with_shift():
    # y - x - 1 in [0, inf): y >= x + 1
    m = from_closed_hpoly(hpoly(1, [((-1,), 0)]))
    em, cert = pf.epi_m(((1,),), (1,), m)
    assert cert
    assert ns.set_equal(em, from_closed_hpoly(hpoly(2, [((1, -1), -1)])))


def test_image_plus_set_ri_commutes():
    # ri(g(X) + M) = g(ri X) + ri M on X=[0,1], g(x)=2x, M=[0,1)
    x_set = interval_set(0, 1)
    m = from_mixed(MixedSystem(1, (((-1 * la.ONE,), F(0)),), (((la.ONE,), F(1)),), ()))
    g_rows = ((F(2),),)
    lhs = ri_set(ns.minkowski_sum(ns.linear_image(x_set, g_rows), m))
    rhs = ns.minkowski_sum(ns.linear_image(ri_set(x_set), g_rows), ri_set(m))
    open_03 = ncset(1, [hpoly(1, [((1,), 3), ((-1,), 0)])])
    assert ns.set_equal(lhs, open_03)
    assert ns.set_equal(rhs, open_03)


# ---------------------------------------------------------------------------
# composite constructors


def wedge_g():
    """G(x) = [x, inf) as a mapping of R into R."""
    return sv.affine_plus_cone(((F(1),),), (F(0),), pf.nonneg_orthant(1).k)


def test_phi_worked_instance():
    f = abs_fn()
    theta = interval_set(-1, 1)
    phi, qc = pf.build_composite_phi(f, theta, wedge_g())
    assert qc
    assert phi.n == 2
    assert pf.eval_at(phi, (0, 1)) == 0
    assert pf.eval_at(phi, (0, -1)) == math.inf
    assert pf.eval_at(phi, (F(1, 2), 1)) == F(1, 2)
    assert pf.eval_at(phi, (2, 2)) == math.inf  # outside theta
    assert pf.valid_epigraph(phi)
    assert ns.is_nearly_convex(phi.epi)[0]


def test_phi_trivial_components_reduce_to_f():
    f = abs_fn()
    phi, qc = pf.build_composite_phi(
        f, ns.whole_space(1), sv.const_map(1, ns.whole_space(1))
    )
    assert qc
    for x in lattice(-2, 2):
        for y in lattice(-1, 1, 1):
            assert pf.eval_at(phi, (x, y)) == pf.eval_at(f, (x,))


def test_psi_worked_instance():
    f = abs_fn()
    theta = interval_set(-1, 1)
    psi, qc = pf.build_composite_psi(f, theta, wedge_g())
    assert qc
    assert psi.n == 3
    for x in lattice(-1, 1):
        for u in lattice(-1, 1):
            for y in lattice(-1, 1):
                want = abs(x + u) if y >= x else math.inf
                assert pf.eval_at(psi, (x, u, y)) == want
    assert pf.eval_at(psi, (2, -1, 5)) == math.inf


def test_cone_wrapper_matches_explicit_map():
    f = abs_fn()
    theta = interval_set(-1, 1)
    a, c = ((F(1),),), (F(0),)
    direct, qc1 = pf.build_composite_phi(f, theta, wedge_g())
    wrapped, qc2 = pf.build_composite_phi_cone(f, theta, a, c, pf.nonneg_orthant(1))
    assert qc1 == qc2
    assert direct.epi == wrapped.epi  # same canonical pieces
    direct_p, _ = pf.build_composite_psi(f, theta, wedge_g())
    wrapped_p, _ = pf.build_composite_psi_cone(f, theta, a, c, pf.nonneg_orthant(1))
    assert direct_p.epi == wrapped_p.epi


def test_sum_with_affine_inner_abs_pair():
    # phi(x, y) = |x| + |x + y|
    f = abs_fn()
    s = pf.add_with_affine_inner(f, f, ((F(1),),))
    assert s.n == 2
    for x in lattice(-2, 2):
        for y in lattice(-2, 2):
            assert pf.eval_at(s, (x, y)) == abs(x) + abs(x + y)
    assert ns.is_nearly_convex(s.epi)[0]
    assert pf.valid_epigraph(s)


def test_sum_with_affine_inner_needs_domains():
    f = abs_fn()
    empty = pf.indicator(ncset(1, []))
    with pytest.raises(EmptyDomain):
        pf.add_with_affine_inner(f, empty, ((F(1),),))


# ---------------------------------------------------------------------------
# cones


def test_polycone_rejects_inhomogeneous_rows():
    with pytest.raises(UsageError):
        pf.polycone(hpoly(1, [((1,), 1)]))


def test_dual_cone_orthant_and_space():
    orth = pf.nonneg_orthant(2)
    assert pf.dual_cone(orth).k == orth.k
    whole = pf.polycone(hpoly(2))
    dual = pf.dual_cone(whole)
    v = to_vrep(dual.k)
    assert v.points == ((F(0), F(0)),) and v.rays == ()


def test_dual_cone_wedge():
    # K = {(a, b) : b >= a >= 0}
    k = pf.polycone(hpoly(2, [((1, -1), 0), ((-1, 0), 0)]))
    v = to_vrep(pf.dual_cone(k).k)
    assert set(v.rays) == {(F(1), F(0)), (F(-1), F(1))}


def test_dual_dual_is_identity():
    cones = [
        pf.nonneg_orthant(2),
        pf.polycone(hpoly(2, [((1, -1), 0), ((-1, 0), 0)])),
        pf.polycone(hpoly(2, [((1, 0), 0)])),  # half-plane, not pointed
        pf.polycone(hpoly(2)),
        pf.polycone(hpoly(2, eq=[((1, 0), 0), ((0, 1), 0)])),  # origin
    ]
    for k in cones:
        assert pf.dual_cone(pf.dual_cone(k)).k == k.k


def test_dual_cone_definition_on_grid():
    k = pf.polycone(hpoly(2, [((1, -1), 0), ((-1, 0), 0)]))
    dual = pf.dual_cone(k)
    gens = to_vrep(k.k)
    pts = [
        (F(a, 2), F(b, 2)) for a in range(-4, 5) for b in range(-4, 5)
    ]
    for y in pts:
        by_def = all(la.dot(y, r) >= 0 for r in gens.rays) and all(
            la.dot(y, p) >= 0 for p in gens.points
        )
        assert dual.k.contains(y) == by_def
