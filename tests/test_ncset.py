"""Nearly convex set calculus tests.

Membership of every constructed set is cross-checked against a lattice
scan that evaluates piece rows directly, independent of the hull and
subtraction machinery under test.
"""

import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from instances import (
    UNIT_SQUARE,
    clear_caches,
    half_open_interval,
    open_square,
    origin_lp_calls,
    point_set,
    punctured_square,
    two_points,
)
from ncvx import linalg as la
from ncvx import oracle as orc
from ncvx import plfunc as pf
from ncvx import polyhedron as ph
from ncvx import svmap as sv
from ncvx import variational as vr
from ncvx.errors import DimensionMismatch, NotNearlyConvex
from ncvx.lp import MixedSystem, solve_lp, strict_feasible
from ncvx.ncset import (
    NCSet,
    _dominant_piece,
    affine_preimage,
    closed_shadow,
    closure,
    closure_hull,
    contains_set,
    from_closed_hpoly,
    from_closure_and_faces,
    from_mixed,
    intersect,
    is_nearly_convex,
    linear_image,
    membership,
    minkowski_sum,
    ncset,
    preimage,
    product,
    relative_interior,
    ropoly,
    set_equal,
    shadow_hull,
    union,
)
from ncvx.polyhedron import (
    HPoly,
    box,
    canonical_form,
    decompose_mixed,
    difference_witness,
    faces,
    hpoly,
    polyhedron_equal,
    to_vrep,
)

OMEGA_B = punctured_square()


def grid(lo, hi, den, dim):
    axis = [F(k, den) for k in range(lo * den, hi * den + 1)]
    return [la.vec(p) for p in itertools.product(axis, repeat=dim)]


# ---------------------------------------------------------------------------
# membership


def test_membership_punctured_square():
    assert not membership(OMEGA_B, (F(1, 2), F(0)))
    assert membership(OMEGA_B, (F(1, 2), F(1, 2)))
    assert membership(OMEGA_B, (F(1, 4), F(0)))


def test_membership_matches_grid_oracle():
    for x in grid(-1, 2, 16, 2):
        in_square = 0 <= x[0] <= 1 and 0 <= x[1] <= 1
        expected = in_square and x != (F(1, 2), F(0))
        assert membership(OMEGA_B, x) == expected, x


def test_membership_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        membership(OMEGA_B, (F(0),))


# ---------------------------------------------------------------------------
# near convexity


def test_punctured_square_is_nearly_convex():
    ok, wit = is_nearly_convex(OMEGA_B)
    assert ok and wit is None


def test_two_points_fail_with_midpoint_witness():
    ok, wit = is_nearly_convex(two_points())
    assert not ok
    assert wit == (F(1, 2),)


def test_open_square_alone_is_nearly_convex():
    ok, _ = is_nearly_convex(open_square())
    assert ok


def test_square_missing_interior_fails():
    # boundary faces without the interior: closure is convex but
    # ri(closure) is not covered
    shell = ncset(
        2, [f for f in faces(UNIT_SQUARE) if f.eq]
    )
    ok, wit = is_nearly_convex(shell)
    assert not ok
    assert wit is not None
    sq = canonical_form(UNIT_SQUARE)
    assert sq.ri_system().satisfies(wit)


def test_empty_set_is_nearly_convex():
    ok, wit = is_nearly_convex(NCSet(2, ()))
    assert ok and wit is None


def _pinned_sets():
    """Seeded sets in dims 1-3: nearly convex ones, corrupted ones, closed
    polytopes as unions of their faces, and nearly convex ones with one
    piece dropped (which may leave a hole, a gap or the empty set)."""
    spec = orc.LEAN_SPEC
    for i in range(240):
        rng = random.Random(i)
        dim = 1 + i % 3
        kind = i % 5
        if kind == 0:
            yield orc.random_ncset(rng, dim, spec)
        elif kind in (1, 4):
            yield orc.random_corrupted(rng, dim, spec)
        elif kind == 2:
            yield from_closed_hpoly(orc.random_polytope(rng, dim, spec))
        else:
            s = orc.random_ncset(rng, dim, spec)
            drop = rng.randrange(len(s.pieces))
            yield NCSet(dim, s.pieces[:drop] + s.pieces[drop + 1 :])


def _near_convexity_case(s, ok):
    if not s.pieces:
        return "empty"
    if len(s.pieces) == 1:
        return "single piece"
    hull = closure_hull(s)
    if ok:
        if any(pc.base == hull for pc in s.pieces):
            return "hull is a piece"
        return "ri test accepts"
    closed_wit = difference_witness(
        [(hull.closed_system(), ph.ri_point(hull))], [pc.base.closed_system() for pc in s.pieces]
    )
    return "closed test fails" if closed_wit is not None else "only ri test fails"


def test_pinned_near_convexity():
    # sha256 over repr(is_nearly_convex(s)): the verdict and the witness,
    # recorded with the closed test run before the ri test
    digest = hashlib.sha256()
    cases = Counter()
    for s in _pinned_sets():
        got = is_nearly_convex(s)
        digest.update(repr(got).encode())
        digest.update(b"\n")
        cases[_near_convexity_case(s, got[0])] += 1
    print(dict(cases))
    assert set(cases) == {
        "empty",
        "single piece",
        "hull is a piece",
        "ri test accepts",
        "closed test fails",
        "only ri test fails",
    }
    assert digest.hexdigest() == (
        "f0716e1a677bb401cb5b354cdcaaec69d27bba2376eae221f699de60af290dc5"
    )


def _near_convexity_lps(origin, s):
    """LPs of both entries, solve_lp misses and phase-2 LPs from the
    origin, that is_nearly_convex(s) takes once the hull is known."""
    caches = (solve_lp, strict_feasible, canonical_form, closure_hull, is_nearly_convex)
    for cached in caches:
        cached.cache_clear()
    closure_hull(s)
    before = solve_lp.cache_info().misses
    origin.clear()
    is_nearly_convex(s)
    return solve_lp.cache_info().misses - before + len(origin)


def test_near_convexity_lp_counts(monkeypatch):
    # the hull is a piece: ri(hull) lies in the set with no LP
    origin = origin_lp_calls(monkeypatch)
    closed_box = from_closed_hpoly(box([(0, 1), (0, 2), (-1, 1)]))
    assert _near_convexity_lps(origin, closed_box) == 0
    assert _near_convexity_lps(origin, open_square()) == 0


# ---------------------------------------------------------------------------
# closure / relative interior / affine hull


def test_closure_and_ri_of_punctured_square():
    assert polyhedron_equal(closure(OMEGA_B), UNIT_SQUARE)
    ri = relative_interior(OMEGA_B)
    assert ri.base == canonical_form(UNIT_SQUARE)
    assert ri.contains(la.vec([F(1, 2), F(1, 2)]))
    assert not ri.contains(la.vec([0, 0]))


def test_closure_and_ri_of_half_open_interval():
    s = half_open_interval()
    assert polyhedron_equal(closure(s), box([(0, 1)]))
    ri = relative_interior(s)
    assert ri.contains(la.vec([F(1, 2)])) and not ri.contains(la.vec([1]))


def test_closure_of_single_point():
    s = point_set(3, -2)
    pt = la.vec([3, -2])
    assert closure(s).contains(pt)
    assert relative_interior(s).contains(pt)
    assert closure(s).eq and not closure(s).ineq


def test_closure_rejects_invalid_set():
    with pytest.raises(NotNearlyConvex):
        closure(two_points())


def test_prop_ri_closure_sandwich():
    for s in (OMEGA_B, half_open_interval(), open_square()):
        hull = closure(s)
        ri = relative_interior(s)
        for x in grid(-1, 2, 8, s.dim):
            if ri.contains(x):
                assert s.contains(x)
            if s.contains(x):
                assert hull.contains(x)


# ---------------------------------------------------------------------------
# product


def test_product_of_half_open_intervals():
    s = product(half_open_interval(), half_open_interval())
    assert s.dim == 2
    for x in grid(-1, 2, 4, 2):
        expected = 0 < x[0] <= 1 and 0 < x[1] <= 1
        assert s.contains(x) == expected, x
    ok, _ = is_nearly_convex(s)
    assert ok
    assert relative_interior(s).base == canonical_form(UNIT_SQUARE)


def test_product_with_point_embeds():
    s = product(OMEGA_B, point_set(5))
    assert s.contains(la.vec([F(1, 4), 0, 5]))
    assert not s.contains(la.vec([F(1, 2), 0, 5]))
    assert not s.contains(la.vec([F(1, 4), 0, 4]))


def test_product_of_relative_interiors_is_single_piece():
    s = product(open_square(), open_square())
    assert len(s.pieces) == 1
    assert s.pieces[0].base == canonical_form(box([(0, 1)] * 4))


def test_product_equals_the_canonical_form_of_each_pair(monkeypatch):
    # each piece's base is read off the factors' canonical rows with no LP
    # of either entry; it is canonical_form of the pair's joint closed
    # system, row for row, and keeps a point of its ri
    origin = origin_lp_calls(monkeypatch)
    rng = random.Random(5)
    pieces = 0
    for _ in range(400):
        n, p = rng.randint(1, 3), rng.randint(1, 3)
        s1, s2 = (orc.random_ncset(rng, d, orc.LEAN_SPEC) for d in (n, p))
        clear_caches()
        origin.clear()
        got = [pc.base for pc in product(s1, s2).pieces]
        assert not origin and solve_lp.cache_info().misses == 0
        want = []
        for a in s1.pieces:
            left = a.base.closed_system().embed(range(n), n + p)
            for b in s2.pieces:
                right = b.base.closed_system().embed(range(n, n + p), n + p)
                want.append(canonical_form(ph.closure_hpoly(left.combine(right))))
        want.sort(key=ph._hpoly_sort_key)
        assert got == want and repr(got) == repr(want)
        for base in got:
            assert base.ri_system().satisfies(ph.ri_point(base))
        pieces += len(got)
    assert pieces > 1000, pieces


# ---------------------------------------------------------------------------
# intersect


def test_intersect_half_open_squares():
    s1 = product(half_open_interval(), from_closed_hpoly(box([(0, 1)])))
    s2 = product(from_closed_hpoly(box([(0, 1)])), half_open_interval())
    got, qc = intersect(s1, s2)
    assert qc
    for x in grid(-1, 2, 4, 2):
        expected = 0 < x[0] <= 1 and 0 < x[1] <= 1
        assert got.contains(x) == expected, x
    ok, _ = is_nearly_convex(got)
    assert ok
    assert relative_interior(got).base == canonical_form(UNIT_SQUARE)


def test_intersect_touching_intervals_flags_qc():
    s1 = from_closed_hpoly(box([(0, 1)]))
    s2 = from_closed_hpoly(box([(1, 2)]))
    got, qc = intersect(s1, s2)
    assert not qc
    assert set_equal(got, point_set(1))


def test_intersect_idempotent():
    got, qc = intersect(OMEGA_B, OMEGA_B)
    assert qc
    assert set_equal(got, OMEGA_B)


def test_intersect_closure_identity_under_qc():
    s1 = product(half_open_interval(), from_closed_hpoly(box([(0, 1)])))
    s2 = product(from_closed_hpoly(box([(0, 1)])), half_open_interval())
    got, qc = intersect(s1, s2)
    assert qc
    lhs = closure(got)
    rhs = canonical_form(
        hpoly(
            2,
            ineq=list(closure(s1).ineq) + list(closure(s2).ineq),
            eq=list(closure(s1).eq) + list(closure(s2).eq),
        )
    )
    assert polyhedron_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# linear image / preimage / minkowski


def test_image_of_punctured_square_is_whole_interval():
    t = la.mat([[1, 0]])
    got = linear_image(OMEGA_B, t)
    full = from_closed_hpoly(box([(0, 1)]))
    assert set_equal(got, full)
    assert relative_interior(got).base == canonical_form(box([(0, 1)]))


def test_identity_image_preserves_set():
    got = linear_image(OMEGA_B, la.identity(2))
    assert set_equal(got, OMEGA_B)


def test_shadow_hull_is_the_hull_of_the_domain():
    # the hull of dom f and of dom G, read off the hull of the epigraph or
    # graph, against the hull of the domain built piece by piece
    spec = orc.LEAN_SPEC
    for seed in range(100):
        rng = random.Random(seed)
        n = 1 + seed % 3
        f = orc._random_plf(rng, spec, n)
        assert shadow_hull(f.epi, range(n)) == closure_hull(pf.dom(f))
        n, p = [(1, 1), (1, 2), (2, 1)][seed % 3]
        g = orc._random_map(rng, spec, n, p)
        assert shadow_hull(g.graph, range(n)) == closure_hull(sv.dom(g))
    assert shadow_hull(NCSet(3, ()), range(2)) is None


def test_ri_commutes_with_linear_image():
    t = la.mat([[1, 1]])
    s = OMEGA_B
    lhs = relative_interior(linear_image(s, t))
    rhs = linear_image(NCSet(2, (relative_interior(s),)), t)
    assert len(rhs.pieces) == 1
    assert lhs.base == rhs.pieces[0].base


def test_open_interval_minkowski_sum():
    s = ncset(1, [box([(0, 1)])])  # ri[0,1]
    got = minkowski_sum(s, s)
    assert len(got.pieces) == 1
    assert got.pieces[0].base == canonical_form(box([(0, 2)]))


def test_preimage_of_half_open_interval():
    t = la.mat([[1, 0]])
    got, qc = preimage(half_open_interval(), t)
    assert qc
    assert got.dim == 2
    for x in grid(-1, 2, 4, 2):
        assert got.contains(x) == (0 < x[0] <= 1), x


def test_preimage_identity_and_zero_map():
    got, qc = preimage(OMEGA_B, la.identity(2))
    assert qc and set_equal(got, OMEGA_B)
    zero = la.mat([[0], [0]])
    got, qc = preimage(ncset(2, [UNIT_SQUARE]), zero)  # open square, 0 on boundary
    assert not got.pieces and not qc
    got2, qc2 = preimage(from_closed_hpoly(UNIT_SQUARE), zero)
    assert got2.pieces and qc2 is False  # 0 is on the boundary, not the ri


# ---------------------------------------------------------------------------
# constructors and comparisons


def test_from_mixed_half_open_square():
    m = MixedSystem(
        2,
        (
            ((F(-1), F(0)), F(0)),
            ((F(0), F(1)), F(1)),
            ((F(0), F(-1)), F(0)),
        ),
        (((F(1), F(0)), F(1)),),
        (),
    )
    s = from_mixed(m)
    for x in grid(-1, 2, 8, 2):
        assert s.contains(x) == m.satisfies(x), x


def _pinned_closed_polyhedra():
    """Seeded closed polyhedra in dims 1-4, four kinds in turn: bounded by
    a box, unbounded, with the last coordinate free (a lineality line),
    and empty; about one in three also gets an equality through 0."""
    rng = random.Random(93)
    for i in range(32):
        dim, kind = 1 + i % 4, i // 4 % 4
        free = dim - 1 if kind == 2 else dim
        rows = []
        if kind == 0:
            rows += orc._box_rows(dim, 2)
        for _ in range(rng.randint(1, dim + 1)):
            a = tuple(F(rng.randint(-2, 2)) for _ in range(free)) + la.zeros(dim - free)
            if not la.is_zero(a):
                rows.append((a, F(rng.randint(0, 4), rng.choice((1, 2)))))
        if kind == 3 and rows:
            a, b = rng.choice(rows)
            rows.append((la.neg(a), -b - 1))
        eq = []
        if rng.random() < 0.3:
            a = tuple(F(rng.randint(-1, 1)) for _ in range(dim))
            if not la.is_zero(a):
                eq.append((a, F(0)))
        yield HPoly(dim, tuple(rows), tuple(eq))


def _closed_polyhedron_cases(p):
    canon = canonical_form(p)
    if canon is None:
        return {"empty"}
    cases = {f"dim {p.dim}"}
    if to_vrep(canon).rays:
        cases.add("unbounded")
    if canon.eq:
        cases.add("lower-dimensional")
    if len(la.row_space_basis([a for a, _ in canon.ineq + canon.eq])) < p.dim:
        cases.add("lineality")
    return cases


def test_pinned_from_closed_hpoly():
    # sha256 over repr(from_closed_hpoly(p)), recorded with the faces found
    # by decompose_mixed on the closed system
    digest = hashlib.sha256()
    cases = Counter()
    for p in _pinned_closed_polyhedra():
        digest.update(repr(from_closed_hpoly(p)).encode())
        digest.update(b"\n")
        cases.update(_closed_polyhedron_cases(p))
    print(dict(cases))
    assert set(cases) == {
        "dim 1",
        "dim 2",
        "dim 3",
        "dim 4",
        "empty",
        "unbounded",
        "lower-dimensional",
        "lineality",
    }
    assert digest.hexdigest() == (
        "1c4e0c1d97b5293be7fa7e603dea12c93d191c375ed942246e517b7247684f25"
    )


def test_from_closed_hpoly_seeds_its_root_as_the_dominant_piece():
    # the root face holds every other face, so it is handed to the set; the
    # row checks of _dominant_piece, when they find a piece, find the same
    shown = unshown = 0
    for p in _pinned_closed_polyhedra():
        s = from_closed_hpoly(p)
        if not s.pieces:
            assert s.dominant is None
            continue
        assert s.__dict__["dominant"] is s.pieces[0]
        assert s.pieces[0].base == canonical_form(p)
        found = _dominant_piece(s.pieces)
        if found is None:
            unshown += 1
        else:
            assert found is s.dominant
            shown += 1
    print(shown, unshown)
    assert shown > 10


def test_from_closed_hpoly_equals_the_decomposed_closed_system():
    # the former definition
    for p in _pinned_closed_polyhedra():
        assert from_closed_hpoly(p) == from_mixed(p.closed_system())


def _faces_by_canonical_form(p):
    # the former definition: canonicalize every child (f, one row as an
    # equality) from scratch
    canon = canonical_form(p)
    if canon is None:
        return ()
    seen = set()
    stack = [canon]
    while stack:
        f = stack.pop()
        if f in seen:
            continue
        seen.add(f)
        for a, b in f.ineq:
            child = canonical_form(HPoly(f.dim, f.ineq, f.eq + ((a, b),)))
            if child is not None and child not in seen:
                stack.append(child)
    return tuple(sorted(seen, key=lambda q: (len(q.eq), q.eq, q.ineq)))


def test_faces_match_canonicalizing_each_child():
    rng = random.Random(84)
    polys = list(_pinned_closed_polyhedra())
    polys += [orc.random_polytope(rng, 1 + i % 4, orc.DEFAULT_SPEC) for i in range(16)]
    assert {p.dim for p in polys} == {1, 2, 3, 4}
    for p in polys:
        assert faces(p) == _faces_by_canonical_form(p), p


def test_from_closed_hpoly_decomposes_nothing():
    before = decompose_mixed.cache_info()
    from_closed_hpoly(box([(0, 1), (0, 2), (-1, 1)]))
    after = decompose_mixed.cache_info()
    assert after.hits + after.misses == before.hits + before.misses


def test_from_closure_and_faces_sugar():
    sq = canonical_form(UNIT_SQUARE)
    # closure plus the ri of the face where row 0 is active
    s = from_closure_and_faces(sq, [[0]])
    assert len(s.pieces) == 2
    a, b = sq.ineq[0]
    face = canonical_form(HPolyLike := hpoly(2, ineq=list(sq.ineq), eq=[(a, b)]))
    assert {pc.base for pc in s.pieces} == {sq, face}


def test_union_and_containment():
    s = union(open_square(), point_set(0, 0))
    assert contains_set(from_closed_hpoly(UNIT_SQUARE), s)
    assert not contains_set(s, from_closed_hpoly(UNIT_SQUARE))
    assert not set_equal(s, open_square())
    assert set_equal(union(OMEGA_B, open_square()), OMEGA_B)


# ---------------------------------------------------------------------------
# pinned outputs of the calculus that canonicalizes its results


def _pinned_calculus_cases():
    """(operation, function, arguments) over seeded inputs in dims 1-3:
    closure hulls of the pinned sets, intersections of anchored and
    unanchored pairs, affine preimages and linear images under random
    matrices, slices of random maps, and the ovf subdifferential
    formula."""
    spec = orc.LEAN_SPEC
    for s in _pinned_sets():
        yield "closure_hull", closure_hull, (s,)
    for i in range(80):
        rng = random.Random(1000 + i)
        dim, kind = 1 + i % 3, i % 4
        anchor = orc._anchor_point(rng, dim, spec) if kind == 0 else None
        s1 = orc.random_ncset(rng, dim, spec, anchor)
        if kind < 2:
            s2 = orc.random_ncset(rng, dim, spec, anchor)
        elif kind == 2:  # a vertex of the hull, in s1 or not
            s2 = point_set(*to_vrep(closure_hull(s1)).points[0])
        else:
            s2 = from_closed_hpoly(orc.random_polytope(rng, dim, spec))
            s2 = NCSet(dim, s2.pieces[1:])  # the polytope's boundary
        yield "intersect", intersect, (s1, s2)
    for i in range(60):
        rng = random.Random(2000 + i)
        m, n = 1 + i % 3, 1 + (i // 3) % 3
        anchor = orc._anchor_point(rng, m, spec)
        s = orc.random_ncset(rng, m, spec, anchor)
        t = orc._random_matrix(rng, m, n)
        x0 = orc._anchor_point(rng, n, spec)
        shift = la.sub(anchor, la.mat_vec(t, x0)) if i % 2 == 0 else la.zeros(m)
        yield "affine_preimage", affine_preimage, (s, t, shift)
        yield "linear_image", linear_image, (s, la.transpose(t))
    for i in range(60):
        rng = random.Random(3000 + i)
        n = 1 + i % 2
        p = 1 + (i // 2) % (3 - n)
        ax, ay = orc._anchor_point(rng, n, spec), orc._anchor_point(rng, p, spec)
        f = orc._random_map(rng, spec, n, p, anchor=ax + ay if i % 3 else None)
        x = ax if i % 4 else orc._anchor_point(rng, n, spec)
        yield "eval_at", sv.eval_at, (f, x)
    for i in range(8):
        rng = random.Random(4000 + i)
        inst, ax, ay = orc._anchored_ovf(rng, spec, 1, 1 + i % 2)
        yield "rhs_formula", vr.rhs_formula, (inst, ax, ay)


def test_pinned_calculus():
    # sha256 over repr of each result, one digest per operation, recorded
    # with closed shadows pruned by LP and every result canonicalized from
    # scratch
    digests = {}
    cases = Counter()
    for op, fn, args in _pinned_calculus_cases():
        got = fn(*args)
        digests.setdefault(op, hashlib.sha256()).update(repr(got).encode() + b"\n")
        if isinstance(got, tuple):
            got, flag = got
            cases[f"{op} qc" if flag else f"{op} no qc"] += 1
        empty = got is None or (isinstance(got, NCSet) and not got.pieces)
        cases[f"{op} empty" if empty else op] += 1
        if op == "closure_hull" and got is not None:
            bases = [pc.base for pc in args[0].pieces]
            if len(bases) == 1:
                cases["hull is one piece"] += 1
            else:
                cases["hull is a piece" if got in bases else "hull is none"] += 1
    print(dict(cases))
    for op in ("intersect", "affine_preimage"):
        assert {f"{op} qc", f"{op} no qc", f"{op} empty", op} <= set(cases)
    assert {"closure_hull", "linear_image", "eval_at", "eval_at empty"} <= set(cases)
    assert {"hull is one piece", "hull is a piece", "hull is none"} <= set(cases)
    assert cases["rhs_formula"] == 8
    assert {op: d.hexdigest() for op, d in digests.items()} == {
        "closure_hull": "3a07d00334892a32e9da888acbf8d93630b01465c8a8ffc88564d69cc21723a1",
        "intersect": "35d3912ddcab4b218df564f1c86e1f56631a56226237a9e4b98e10c2aed02eb3",
        "affine_preimage": "4b31c298c05b07146df5e08b527b5c2b89b3c04d6837759c3793d10b7083e564",
        "linear_image": "e98a2edaa430d51fe862dda8f1769a21a0b2de44bfbeed11e686e50dac1913cb",
        "eval_at": "0da0cd8d111e6a33d2b13be3d8af2297a471424407ed10556e33b47ec6a69719",
        "rhs_formula": "45981ac8ff921ec0b36f57db5751bfc3ab3b4ebecab37635ec68eab552b97b55",
    }


def _clear_caches():
    for cached in (solve_lp, strict_feasible, canonical_form, closure_hull):
        cached.cache_clear()
    ph._vrep_of_canonical.cache_clear()


def _counted(monkeypatch, module, name):
    calls = []
    orig = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_canonicalization_lp_budget(monkeypatch):
    """Seeded anchored pairs in dims 1-3.  A closed shadow solves no LP,
    since canonical_form removes redundant rows anyway; the hull of one
    piece is its base, with no double description; and intersect
    canonicalizes each piece from the strict witness of its cell.  The
    counts do not drift with the machine."""
    rng = random.Random(51)
    spec = orc.LEAN_SPEC
    dd_calls = _counted(monkeypatch, ph, "_cone_generators")
    poly_strict = _counted(monkeypatch, ph, "strict_feasible")
    origin = origin_lp_calls(monkeypatch)
    cut = 0
    for i in range(12):
        dim = 1 + i % 3
        anchor = orc._anchor_point(rng, dim, spec)
        s1 = orc.random_ncset(rng, dim, spec, anchor)
        s2 = orc.random_ncset(rng, dim, spec, anchor)
        for pc in s1.pieces + s2.pieces:
            _clear_caches()
            origin.clear()
            closed_shadow(pc.base.closed_system(), range(dim - 1, dim))
            assert solve_lp.cache_info().misses + len(origin) == 0
            _clear_caches()
            dd_calls.clear()
            assert closure_hull(NCSet(dim, (pc,))) == pc.base
            assert not dd_calls
        _clear_caches()
        closure_hull(s1), closure_hull(s2)
        poly_strict.clear()
        got, qc = intersect(s1, s2)
        assert qc and got.pieces
        assert not poly_strict
        cut += sum(len(pc.base.ineq) for pc in got.pieces)
    assert cut > 0  # pieces with rows, whose canonical form needs a point


# ---------------------------------------------------------------------------
# faces seeded from the ray test, and the dominant piece


def test_faces_take_one_lp_on_a_cube_and_a_simplex(monkeypatch):
    # the root's strict LP; every facet child is seeded with the point at
    # which its parent's ray test met it, and settles its rows from there
    origin = origin_lp_calls(monkeypatch)
    simplex = hpoly(3, [((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0), ((1, 1, 1), 1)])
    for p, count in ((box([(0, 1)] * 3), 27), (simplex, 15)):
        clear_caches()
        origin.clear()
        got = from_closed_hpoly(p)
        assert len(got.pieces) == count
        assert solve_lp.cache_info().misses + len(origin) == 1


def _interval(lo, hi):
    return hpoly(1, [((1,), hi), ((-1,), -lo)])


def test_dominant_piece_of_a_face_set_is_the_top_face():
    for p in (box([(0, 1)] * 3), hpoly(2, [((1, -1), 0), ((-1, 0), 0)])):
        s = from_closed_hpoly(p)
        assert s.dominant.base == canonical_form(p)
    assert punctured_square().dominant.base == canonical_form(UNIT_SQUARE)
    assert half_open_interval().dominant is not None


def test_dominant_piece_none_for_disjoint_or_protruding_pieces():
    assert two_points().dominant is None
    assert ncset(1, [_interval(0, 1), _interval(2, 3)]).dominant is None
    # an open segment that leaves the open square through its side
    segment = hpoly(2, [((1, 0), 2), ((-1, 0), 0)], [((0, 2), 1)])
    assert ncset(2, [UNIT_SQUARE, segment]).dominant is None
    assert NCSet(1, ()).dominant is None


def test_dominant_piece_among_pieces_of_the_same_dimension():
    nested = ncset(1, [_interval(0, 1), _interval(0, 2)])
    assert nested.dominant.base == canonical_form(_interval(0, 2))
    assert ncset(1, [_interval(0, 2), _interval(1, 3)]).dominant is None
    # the same dimension inside a plane: two segments on the x axis
    short, long = (hpoly(2, [((1, 0), hi), ((-1, 0), 0)], [((0, 1), 0)]) for hi in (1, 3))
    assert ncset(2, [short, long]).dominant.base == canonical_form(long)


def test_dominant_piece_is_a_row_check_and_the_hull_does_not_need_it():
    # the triangle lies in the cube's bottom face, but the row x <= 2 is no
    # single row of the triangle, so the row check does not show it; the
    # hull then comes from the pooled generators, and is still the cube
    cube = box([(0, 2), (0, 2), (0, 1)])
    triangle = hpoly(3, [((-1, 0, 0), 0), ((0, -1, 0), 0), ((1, 1, 0), 1)], [((0, 0, 1), 0)])
    s = ncset(3, [cube, triangle])
    assert s.dominant is None
    assert closure_hull(s) == canonical_form(cube)


def test_dominant_piece_is_kept_on_the_set():
    s = from_closed_hpoly(box([(0, 1)] * 2))
    assert s.dominant is s.dominant
    assert repr(s) == f"NCSet(dim=2, pieces={s.pieces!r})"
    assert s == NCSet(s.dim, s.pieces) and hash(s) == hash(NCSet(s.dim, s.pieces))


def test_closure_hull_of_a_dominated_set_runs_no_double_description(monkeypatch):
    dd_calls = _counted(monkeypatch, ph, "_cone_generators")
    rng = random.Random(13)
    dominated = 0
    for i in range(24):
        s = orc.random_ncset(rng, 1 + i % 3, orc.LEAN_SPEC)
        clear_caches()
        dd_calls.clear()
        hull = closure_hull(s)
        if s.dominant is not None:
            dominated += len(s.pieces) > 1
            assert hull == s.dominant.base and not dd_calls
        vreps = [to_vrep(pc.base) for pc in s.pieces]
        points = tuple(x for v in vreps for x in v.points)
        rays = tuple(r for v in vreps for r in v.rays)
        assert hull == ph.to_hrep(ph.VPoly(s.dim, points, rays))
    assert dominated > 0
