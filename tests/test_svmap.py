"""Set-valued mapping tests.

The running example maps x to [x, x+1] on the domain [0,2]; every slice,
projection, and composition result below was computed by hand from that
parallelogram graph, and membership claims are re-checked pointwise
against the graph on a lattice.
"""

import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from instances import clear_caches, interval_set, origin_lp_calls, point_set, strip_map
from ncvx import linalg as la
from ncvx import lp
from ncvx import ncset as ns
from ncvx import oracle as orc
from ncvx import plfunc as pf
from ncvx import polyhedron as ph
from ncvx import svmap as sv
from ncvx import variational as vr
from ncvx.errors import DimensionMismatch, EmptyDomain, UsageError
from ncvx.ncset import (
    NCSet,
    from_closed_hpoly,
    is_nearly_convex,
    ncset,
    relative_interior,
    set_equal,
    whole_space,
)
from ncvx.polyhedron import HPoly, box, canonical_form, hpoly
from ncvx.svmap import (
    SVMap,
    affine_map,
    affine_plus_cone,
    build_phi,
    build_psi,
    certify_compose,
    certify_inverse_image,
    certify_restrict,
    certify_sum,
    compose,
    const_map,
    dom,
    eval_at,
    image_of_set,
    inverse,
    inverse_image,
    map_sum,
    restrict,
    rge,
    ri_graph,
    sum_with_affine_inner,
)

STRIP = strip_map()


def grid(lo, hi, den, dim):
    axis = [F(k, den) for k in range(lo * den, hi * den + 1)]
    return [la.vec(p) for p in itertools.product(axis, repeat=dim)]


def identity_map(n):
    return affine_map(la.identity(n), la.zeros(n))


# ---------------------------------------------------------------------------
# evaluation, domain, range, inverse


def test_eval_slice_of_closed_graph():
    got = eval_at(STRIP, (F(1),))
    assert set_equal(got, interval_set(1, 2))


def test_eval_matches_graph_membership_on_lattice():
    for x in grid(-1, 3, 4, 1):
        got = eval_at(STRIP, x)
        for y in grid(-1, 4, 4, 1):
            assert got.contains(y) == STRIP.graph.contains(x + y), (x, y)


def test_dom_and_rge():
    assert set_equal(dom(STRIP), interval_set(0, 2))
    assert set_equal(rge(STRIP), interval_set(0, 3))


def test_inverse_eval():
    got = eval_at(inverse(STRIP), (F(2),))
    assert set_equal(got, interval_set(1, 2))


def test_inverse_involution():
    back = inverse(inverse(STRIP))
    assert set_equal(back.graph, STRIP.graph)


# ---------------------------------------------------------------------------
# ri of the graph


def test_ri_graph_of_strip():
    ri = ri_graph(STRIP)
    strict = hpoly(
        2, ineq=[((1, 0), 2), ((-1, 0), 0), ((1, -1), 0), ((-1, 1), 1)]
    )
    assert ri.base == canonical_form(strict)
    assert ri.contains(la.vec([1, F(3, 2)]))
    assert not ri.contains(la.vec([1, 1]))


def test_ri_graph_of_constant_map():
    f = const_map(1, interval_set(0, 1))
    ri = ri_graph(f)
    assert ri.contains(la.vec([5, F(1, 2)]))
    assert not ri.contains(la.vec([5, 1]))


def test_ri_graph_of_point():
    f = SVMap(1, 1, point_set(3, 4))
    assert ri_graph(f).base == canonical_form(
        hpoly(2, eq=[((1, 0), 3), ((0, 1), 4)])
    )


def test_eval_nearly_convex_inside_ri_dom():
    ri_dom = relative_interior(dom(STRIP))
    for x in grid(0, 2, 4, 1):
        if ri_dom.contains(x):
            fx = eval_at(STRIP, x)
            ok, _ = is_nearly_convex(fx)
            assert ok
            assert relative_interior(fx) is not None


# ---------------------------------------------------------------------------
# image / inverse image / restriction


def test_image_of_interval():
    got, qc, holds = image_of_set(STRIP, interval_set(0, 1))
    assert qc and holds
    assert set_equal(got, interval_set(0, 2))
    assert relative_interior(got).base == canonical_form(box([(0, 2)]))


def test_image_of_point():
    got, qc, holds = image_of_set(STRIP, point_set(1))
    assert qc and holds
    assert set_equal(got, interval_set(1, 2))


def test_image_qc_fails_on_boundary_overlap():
    omega = from_closed_hpoly(hpoly(1, ineq=[((1,), 0)]))  # x <= 0
    got, qc, _ = image_of_set(STRIP, omega)
    assert not qc
    assert set_equal(got, interval_set(0, 1))  # F(0) pointwise


def test_inverse_image_of_point():
    got, qc = inverse_image(STRIP, point_set(2))
    assert qc
    assert set_equal(got, interval_set(1, 2))
    assert certify_inverse_image(STRIP, point_set(2), got)


def test_inverse_image_of_range_is_domain():
    got, qc = inverse_image(STRIP, rge(STRIP))
    assert qc
    assert set_equal(got, dom(STRIP))


def test_inverse_image_boundary_point_flags_qc():
    got, qc = inverse_image(STRIP, point_set(3))
    assert not qc
    assert set_equal(got, point_set(2))


def test_certify_inverse_image_reuses_the_image_check(monkeypatch):
    # under the qualification inverse_image has already checked the
    # formula: the certificate takes no LP of either entry, solve_lp
    # misses or phase-2 LPs from the origin
    origin = origin_lp_calls(monkeypatch)
    for module in (lp, ph, ns, sv):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    got, _ = inverse_image(STRIP, point_set(2))
    before = lp.solve_lp.cache_info().misses
    origin.clear()
    assert certify_inverse_image(STRIP, point_set(2), got)
    assert lp.solve_lp.cache_info().misses == before
    assert not origin
    # without it the shadow is built: ri F^{-1}(3) = {2}, but ri F(2) misses 3
    got, _ = inverse_image(STRIP, point_set(3))
    assert not certify_inverse_image(STRIP, point_set(3), got)


def test_restrict_to_subinterval():
    got, qc = restrict(STRIP, interval_set(0, 1))
    assert qc
    expected = hpoly(
        2, ineq=[((1, 0), 1), ((-1, 0), 0), ((1, -1), 0), ((-1, 1), 1)]
    )
    assert ri_graph(got).base == canonical_form(expected)
    assert certify_restrict(STRIP, interval_set(0, 1), got)


def test_restrict_to_superset_is_identity():
    got, qc = restrict(STRIP, interval_set(-5, 5))
    assert qc
    assert set_equal(got.graph, STRIP.graph)


def test_restict_to_boundary_point_flags_qc():
    got, qc = restrict(STRIP, point_set(2))
    assert not qc
    assert set_equal(eval_at(got, (F(2),)), interval_set(2, 3))


# ---------------------------------------------------------------------------
# sum and composition


def test_sum_constant_and_identity():
    f1 = const_map(1, interval_set(0, 1))
    f2 = identity_map(1)
    got, qc = map_sum(f1, f2)
    assert qc
    expected = from_closed_hpoly(hpoly(2, ineq=[((1, -1), 0), ((-1, 1), 1)]))
    assert set_equal(got.graph, expected)
    assert certify_sum(f1, f2, got)


def test_sum_with_zero_map():
    f1 = STRIP
    f2 = const_map(1, point_set(0))
    got, qc = map_sum(f1, f2)
    assert qc
    assert set_equal(got.graph, STRIP.graph)


def test_sum_disjoint_domains_flags_qc():
    f1 = restrict(identity_map(1), interval_set(0, 1))[0]
    f2 = restrict(identity_map(1), interval_set(1, 2))[0]
    got, qc = map_sum(f1, f2)
    assert not qc
    assert set_equal(got.graph, point_set(1, 2))


def test_compose_with_doubling():
    g = affine_map(la.mat([[2]]), la.vec([0]))
    got, qc = compose(STRIP, g)
    assert qc
    expected = from_closed_hpoly(
        hpoly(2, ineq=[((1, 0), 2), ((-1, 0), 0), ((2, -1), 0), ((-2, 1), 2)])
    )
    assert set_equal(got.graph, expected)
    assert certify_compose(STRIP, g, got)


def test_ri_formula_checks_subtract_no_cells(monkeypatch):
    # both sides of each ri formula are canonical, so the checks compare
    # systems and run no cell subtraction
    calls = Counter()
    real = ph.subtract_cells

    def counted(*args):
        calls["subtract_cells"] += 1
        return real(*args)

    sum_pair = (const_map(1, interval_set(0, 1)), identity_map(1))
    doubling = affine_map(la.mat([[2]]), la.vec([0]))
    restricted, _ = restrict(STRIP, interval_set(0, 1))
    summed, _ = map_sum(*sum_pair)
    composed, _ = compose(STRIP, doubling)
    halfline = from_closed_hpoly(hpoly(1, [((-1,), 0)]))
    clear_caches()
    monkeypatch.setattr(ph, "subtract_cells", counted)
    assert certify_restrict(STRIP, interval_set(0, 1), restricted)
    assert certify_sum(*sum_pair, summed)
    assert certify_compose(STRIP, doubling, composed)
    assert image_of_set(STRIP, interval_set(0, 1))[1:] == (True, True)
    assert pf.epi_m(((1,),), (1,), halfline)[1]
    assert calls == Counter()


def test_compose_with_identity():
    got, qc = compose(STRIP, identity_map(1))
    assert qc
    assert set_equal(got.graph, STRIP.graph)


def test_compose_boundary_overlap_flags_qc():
    g = restrict(identity_map(1), interval_set(3, 4))[0]
    got, qc = compose(STRIP, g)
    assert not qc
    assert set_equal(got.graph, point_set(2, 3))


def _pinned_compose_pairs():
    """Seeded (f, g) with inner dim 1 or 2: pairs anchored at one point of
    both graphs, unanchored pairs, a corrupted graph on either side, and an
    empty graph on either side."""
    rng = random.Random(38)
    spec = orc.LEAN_SPEC
    for i in range(60):
        n, p, q = 1, 1 + i % 2, 1
        kind = i % 5
        if kind == 0:
            ay = orc._anchor_point(rng, p, spec)
            ax = orc._anchor_point(rng, n, spec)
            f = orc._random_map(rng, spec, n, p, anchor=ax + ay)
            az = orc._anchor_point(rng, q, spec)
            g = orc._random_map(rng, spec, p, q, anchor=ay + az)
            yield "anchored", f, g
            continue
        f = orc._random_map(rng, spec, n, p)
        g = orc._random_map(rng, spec, p, q)
        if kind == 2:
            yield "corrupted", SVMap(n, p, orc.random_corrupted(rng, n + p, spec)), g
        elif kind == 3:
            yield "corrupted", f, SVMap(p, q, orc.random_corrupted(rng, p + q, spec))
        elif kind == 4:
            yield "empty graph", f, SVMap(p, q, NCSet(p + q, ()))
            yield "empty graph", SVMap(n, p, NCSet(n + p, ())), g
        else:
            yield "unanchored", f, g


def test_pinned_compose():
    # sha256 over repr(compose(f, g)): the graph and the qc flag, recorded
    # with compose going through product, intersect and linear_image
    digest = hashlib.sha256()
    cases = Counter()
    for kind, f, g in _pinned_compose_pairs():
        got = compose(f, g)
        digest.update(repr(got).encode())
        digest.update(b"\n")
        cases[kind] += 1
        cases["qc" if got[1] else "no qc"] += 1
    print(dict(cases))
    assert set(cases) == {
        "anchored",
        "unanchored",
        "corrupted",
        "empty graph",
        "qc",
        "no qc",
    }
    assert digest.hexdigest() == (
        "f8bab608061670d6777b30b8636da36489a758110636eb9f0ead91f8c47ad67d"
    )


def test_compose_qc_is_the_overlap_of_range_and_domain():
    # the former definition, through the images rge(f) and dom(g)
    for _, f, g in _pinned_compose_pairs():
        both = [(rge(f), range(f.p)), (dom(g), range(f.p))]
        assert compose(f, g)[1] == ns.ri_overlap(f.p, both)


def test_compose_takes_the_hulls_of_the_two_graphs_only(monkeypatch):
    hull = ns.closure_hull
    seen = []

    def spy(s):
        seen.append(s)
        return hull(s)

    monkeypatch.setattr(ns, "closure_hull", spy)
    monkeypatch.setattr(sv, "closure_hull", spy)
    for _, f, g in itertools.islice(_pinned_compose_pairs(), 10):
        seen.clear()
        compose(f, g)
        assert seen == [f.graph, g.graph]


# ---------------------------------------------------------------------------
# composite constructors


def test_build_phi_worked_example():
    theta = interval_set(0, 2)
    g = identity_map(1)
    phi, qc = build_phi(theta, STRIP, g)
    assert qc
    assert phi.n == 2 and phi.p == 1
    got = eval_at(phi, (F(1), F(1)))
    assert set_equal(got, interval_set(1, 2))
    # y must match G(x) = {x}
    assert not eval_at(phi, (F(1), F(0))).pieces
    ok, _ = is_nearly_convex(phi.graph)
    assert ok


def test_build_phi_with_trivial_components():
    theta = whole_space(1)
    g = const_map(1, whole_space(1))
    phi, qc = build_phi(theta, STRIP, g)
    assert qc
    for x in grid(0, 2, 2, 1):
        for y in grid(-1, 1, 1, 1):
            lhs = eval_at(phi, x + y)
            rhs = eval_at(STRIP, x)
            assert set_equal(lhs, rhs)


def test_build_phi_qc_failure():
    phi, qc = build_phi(point_set(0), STRIP, identity_map(1))
    assert not qc


def test_build_psi_worked_example():
    theta = interval_set(0, 2)
    g = identity_map(1)
    psi, qc = build_psi(theta, STRIP, g)
    assert qc
    assert psi.n == 3 and psi.p == 1
    got = eval_at(psi, (F(1), F(0), F(1)))
    assert set_equal(got, interval_set(1, 2))
    ok, _ = is_nearly_convex(psi.graph)
    assert ok


def test_build_psi_u_slice_reproduces_phi():
    theta = interval_set(0, 2)
    g = identity_map(1)
    phi, _ = build_phi(theta, STRIP, g)
    psi, _ = build_psi(theta, STRIP, g)
    for x in grid(0, 2, 2, 1):
        for y in grid(0, 2, 2, 1):
            assert set_equal(
                eval_at(psi, (x[0], F(0), y[0])), eval_at(phi, (x[0], y[0]))
            )


def test_build_psi_shift_moves_the_fiber():
    theta = interval_set(0, 2)
    g = identity_map(1)
    psi, _ = build_psi(theta, STRIP, g)
    got = eval_at(psi, (F(1), F(1), F(1)))  # F(x+u) = F(2) = [2,3]
    assert set_equal(got, interval_set(2, 3))


# ---------------------------------------------------------------------------
# sum with affine inner map


def test_sum_with_affine_inner_worked_example():
    f = const_map(1, interval_set(0, 1))
    g = identity_map(1)
    phi = sum_with_affine_inner(f, g, la.mat([[1]]))
    assert phi.n == 2 and phi.p == 1
    got = eval_at(phi, (F(1), F(2)))  # [0,1] + {1+2}
    assert set_equal(got, interval_set(3, 4))
    ok, _ = is_nearly_convex(phi.graph)
    assert ok


def test_sum_with_affine_inner_zero_outer():
    f = STRIP
    g = const_map(1, point_set(0))
    phi = sum_with_affine_inner(f, g, la.mat([[1]]))
    for x in grid(0, 2, 2, 1):
        assert set_equal(eval_at(phi, (x[0], F(0))), eval_at(STRIP, x))


def test_sum_with_affine_inner_disjoint_domains_still_nearly_convex():
    f = restrict(const_map(1, interval_set(0, 1)), interval_set(0, 1))[0]
    g = restrict(identity_map(1), interval_set(5, 6))[0]
    phi = sum_with_affine_inner(f, g, la.mat([[1]]))
    ok, _ = is_nearly_convex(phi.graph)
    assert ok
    # x in [0,1] and x + y in [5,6]: at x=0, y=5: [0,1] + {5}
    assert set_equal(eval_at(phi, (F(0), F(5))), interval_set(5, 6))
    assert not eval_at(phi, (F(0), F(8))).pieces


def test_sum_with_affine_inner_needs_nonempty_domains():
    f = SVMap(1, 1, NCSet(2, ()))
    with pytest.raises(EmptyDomain):
        sum_with_affine_inner(f, identity_map(1), la.mat([[1]]))


def test_affine_plus_cone_graph():
    # G(x) = {x} + R_+ in R^1: epigraph-like graph y >= x
    k = HPoly(1, (((F(-1),), F(0)),))
    g = affine_plus_cone(la.mat([[1]]), la.vec([0]), k)
    assert set_equal(
        g.graph, from_closed_hpoly(hpoly(2, ineq=[((1, -1), 0)]))
    )
    with pytest.raises(UsageError, match="homogeneous"):
        affine_plus_cone(la.mat([[1]]), la.vec([0]), HPoly(1, (((F(-1),), F(1)),)))


# ---------------------------------------------------------------------------
# random cross-checks


def test_random_maps_fiber_law_and_involution():
    rng = random.Random(19)
    done = 0
    for _ in range(60):
        if done >= 20:
            break
        rows = [
            (la.vec([rng.randint(-2, 2), rng.randint(-2, 2)]), F(rng.randint(0, 3)))
            for _ in range(3)
        ]
        p = HPoly(2, tuple(rows) + box([(-2, 2)] * 2).ineq)
        if canonical_form(p) is None:
            continue
        done += 1
        f = SVMap(1, 1, from_closed_hpoly(p))
        assert set_equal(inverse(inverse(f)).graph, f.graph)
    assert done >= 10


# ---------------------------------------------------------------------------
# pinned outputs of the constructions built from joint ri cells


def _ovf_mu(f, fmap):
    inst = vr.build_ovf(f, fmap)
    return inst.mu, inst.qc


def _random_rows(rng, n):
    return [
        (tuple(F(rng.randint(-2, 2)) for _ in range(n)), F(rng.randint(-4, 4), 2))
        for _ in range(rng.randint(1, 3))
    ]


def _vertex_of(s):
    """A vertex of the closed hull of s, as a one-point set."""
    return point_set(*ph.to_vrep(ns.closure_hull(s)).points[0])


def _pinned_joint_cases():
    """(operation, function, arguments) over seeded inputs in dims 1-2.
    Kind 0 anchors every part at one point, so the qualification holds;
    kind 1 draws the parts independently; kind 2 puts one part at a vertex
    of another's hull, so the qualification fails; kind 3 makes one part
    empty."""
    spec = orc.LEAN_SPEC
    for i in range(20):
        rng = random.Random(6000 + i)
        kind, p = i % 4, 1 + (i // 4) % 2
        ax = orc._anchor_point(rng, 1, spec)
        anchors = [
            orc._anchor_point(rng, p, spec) if kind == 0 else None for _ in "ab"
        ]
        f1, f2 = (orc._random_map(rng, spec, 1, p, anchor=a and ax + a) for a in anchors)
        if kind == 2:
            f2 = SVMap(1, p, ns.product(_vertex_of(dom(f1)), rge(f2)))
        elif kind == 3:
            f2 = SVMap(1, p, NCSet(1 + p, ()))
        yield "map_sum", map_sum, (f1, f2)
    for i in range(20):
        rng = random.Random(6100 + i)
        kind, n = i % 4, 1 + (i // 4) % 2
        ax = orc._anchor_point(rng, n, spec)
        ay = orc._anchor_point(rng, 3 - n, spec)
        anchored = kind == 0
        f = orc._random_map(rng, spec, n, 3 - n, anchor=ax + ay if anchored else None)
        omega = orc.random_ncset(rng, n, spec, anchor=ax if anchored else None)
        if kind == 2:
            omega = _vertex_of(dom(f))
        elif kind == 3:
            omega = NCSet(n, ())
        yield "restrict", restrict, (f, omega)
    for op, build in (("build_phi", build_phi), ("build_psi", build_psi)):
        for i in range(16):
            rng = random.Random(6200 + i)
            kind, q = i % 4, 1 + (i // 4) % 2 if op == "build_phi" else 1
            if kind == 0:
                theta, f, g = orc._anchored_triple(rng, spec, 1, 1, q, i % 8 == 4)
            else:
                theta = orc.random_ncset(rng, 1, spec)
                f = orc._random_map(rng, spec, 1, 1)
                g = orc._random_map(rng, spec, 1, q)
            if kind == 2:
                theta = _vertex_of(dom(f))
            elif kind == 3:
                theta = NCSet(1, ())
            yield op, build, (theta, f, g)
    for i in range(10):
        rng = random.Random(6300 + i)
        f, g = orc._random_map(rng, spec, 1, 1), orc._random_map(rng, spec, 1, 1)
        yield "sum_with_affine_inner", sum_with_affine_inner, (
            f,
            g,
            orc._random_matrix(rng, 1, 1),
        )
    for i in range(20):
        rng = random.Random(6400 + i)
        dim, kind = 1 + i % 2, i % 4
        s1 = orc.random_ncset(rng, dim, spec)
        s2 = NCSet(dim, ()) if kind == 3 else orc.random_ncset(rng, dim, spec)
        yield "minkowski_sum", ns.minkowski_sum, (s1, s2)
    for i in range(20):
        rng = random.Random(6500 + i)
        n, kind = 1 + i % 2, i % 4
        domain = NCSet(n, ()) if kind == 3 else orc.random_ncset(rng, n, spec)
        rows = [] if kind == 2 else _random_rows(rng, n)
        f = pf.max_affine(n, rows, domain=domain)
        yield "max_affine", pf.max_affine, (n, rows, domain)
        yield "epi_strict", pf.epi_strict, (f,)
    for i in range(8):
        rng = random.Random(6600 + i)
        kind, p = i % 4, 1 + (i // 4) % 2
        ax = orc._anchor_point(rng, 1, spec)
        ay = orc._anchor_point(rng, p, spec)
        anchor = ax + ay if kind == 0 else None
        fmap = orc._random_map(rng, spec, 1, p, anchor=anchor)
        f = orc._random_plf(rng, orc.ULTRA_SPEC, 1 + p, anchor=anchor)
        if kind == 2:
            rows = _random_rows(rng, 1 + p)
            f = pf.max_affine(1 + p, rows, domain=_vertex_of(fmap.graph))
        elif kind == 3:
            fmap = SVMap(1, p, NCSet(1 + p, ()))
        yield "build_ovf", _ovf_mu, (f, fmap)


def test_pinned_joint_constructions():
    # sha256 over repr of each result, one digest per operation, recorded
    # with each construction chaining product, permute_coords, intersect
    # and linear_image
    digests = {}
    cases = Counter()
    for op, fn, args in _pinned_joint_cases():
        got = fn(*args)
        digests.setdefault(op, hashlib.sha256()).update(repr(got).encode() + b"\n")
        if isinstance(got, tuple):
            got, flag = got
            cases[f"{op} qc" if flag else f"{op} no qc"] += 1
        got = getattr(got, "graph", getattr(got, "epi", got))
        cases[op if got.pieces else f"{op} empty"] += 1
    print(dict(cases))
    for op in ("map_sum", "restrict", "build_phi", "build_psi", "build_ovf"):
        assert {f"{op} qc", f"{op} no qc", f"{op} empty", op} <= set(cases)
    for op in ("minkowski_sum", "max_affine", "epi_strict"):
        assert {f"{op} empty", op} <= set(cases)
    assert cases["sum_with_affine_inner"] == 10
    assert {op: d.hexdigest() for op, d in digests.items()} == {
        "map_sum": "d35fb2c9835e8b51af3d9b56dfa5f21b121c1d14f2eae512a9708a5c70c16335",
        "restrict": "2b88c901e600eba89c910ac18403672aab6212e6657df510347a065a6b31b13f",
        "build_phi": "7a7ba5a091cddd0ed34226a5f2d665a41e71291f943f0c2a94b1dfaf722f21ed",
        "build_psi": "7735742c3595e8dbaf1bd1334cb5dbb7461840be4983ba0bfcc8284f0409e376",
        "sum_with_affine_inner": "002d857762db3cfe457478074149d4a2d8cfec515935ed26b10dc00aa000e2e8",
        "minkowski_sum": "c34173d982e523d8922d02b39b37f8cbd11150c7fb887c13dcdbdab88413f973",
        "max_affine": "3b7d5ba6f6727dcbd6a7da4fdbb0bc22d11e3403aa4d774e1540a14a4bcb3df8",
        "epi_strict": "231b11e959cf8ead46367e5b12c6186e6b103bc48f1f28e39cdfe53289491ea0",
        "build_ovf": "0a337e8a9f5685bd13a844f29d864be71a08d075322157fa513e8170b3a2abdf",
    }


def test_joint_constructions_lp_budget(monkeypatch):
    # LP work of a seeded anchored map_sum, build_phi and build_ovf from
    # cold caches, with each result built from its joint ri cells alone,
    # counting both entries: solve_lp misses and phase-2 LPs from the
    # origin; the counts do not drift with the machine
    origin = origin_lp_calls(monkeypatch)
    spec = orc.LEAN_SPEC
    rng = random.Random(2)
    ax = orc._anchor_point(rng, 1, spec)
    f1, f2 = (
        orc._random_map(rng, spec, 1, 2, anchor=ax + orc._anchor_point(rng, 2, spec))
        for _ in "ab"
    )
    theta, f, g = orc._anchored_triple(rng, spec, 1, 1, 2, False)
    inst, _, _ = orc._anchored_ovf(rng, spec, 1, 1)
    misses = {}
    for op, build in (
        ("map_sum", lambda: map_sum(f1, f2)),
        ("build_phi", lambda: build_phi(theta, f, g)),
        ("build_ovf", lambda: vr.build_ovf(inst.f, inst.fmap)),
    ):
        clear_caches()
        origin.clear()
        build()
        misses[op] = lp.solve_lp.cache_info().misses + len(origin)
    print(misses)
    assert misses["map_sum"] <= 36
    assert misses["build_phi"] <= 14
    assert misses["build_ovf"] <= 8



def test_map_sum_link_folds_take_no_lp(monkeypatch):
    # the link s = y1 + y2 is folded in last, on columns no graph uses, so
    # the carried strict witness with s solved from the link lies in every
    # joint cell: no strict LP, of either entry, sees the link's rows.
    # Seeded anchored sums from cold caches, counting solve_lp misses and
    # phase-2 LPs from the origin; the counts do not drift with the machine
    spec = orc.LEAN_SPEC
    strict_systems = []

    def recorded(system, real=ns.strict_point):
        strict_systems.append(system)
        return real(system)

    monkeypatch.setattr(ns, "strict_point", recorded)
    origin = origin_lp_calls(monkeypatch)
    misses, pieces = [], 0
    for seed in range(6):
        rng = random.Random(seed)
        ax = orc._anchor_point(rng, 1, spec)
        f1, f2 = (
            orc._random_map(rng, spec, 1, 2, anchor=ax + orc._anchor_point(rng, 2, spec))
            for _ in "ab"
        )
        link = la.zeros(1) + ns.sum_link(2).pieces[0].base.eq[0][0]
        clear_caches()
        strict_systems.clear()
        origin.clear()
        got, _ = map_sum(f1, f2)
        misses.append(lp.solve_lp.cache_info().misses + len(origin))
        pieces += len(got.graph.pieces)
        assert strict_systems
        assert not any(a == link for m in strict_systems for a, _ in m.eq)
        # the fold of the two graphs' hull cells starts from the overlap
        # point, so no system is solved twice
        assert len(set(strict_systems)) == len(strict_systems), seed
    print(misses)
    assert pieces > 0
    assert all(got <= bound for got, bound in zip(misses, [23, 5, 36, 4, 57, 8]))
