"""Geometry layer tests.

The double description results are cross-checked against brute-force
enumeration that uses only linear solves (candidate vertices from n-subsets
of rows, candidate rays from nullspaces, facets from generator subsets), so
neither the simplex code nor the DD code can confirm its own mistakes.
"""

import hashlib
import itertools
import random
from fractions import Fraction as F
from math import lcm

import pytest

from instances import origin_lp_calls
from ncvx import linalg as la
from ncvx import polyhedron as ph
from ncvx.errors import CertificateError, DimensionCapExceeded, PointNotInSet, UsageError
from ncvx.lp import MixedSystem, OriginOutcome, feasible_point, maximize, solve_lp, strict_feasible
from ncvx.polyhedron import (
    HPoly,
    VPoly,
    _cone_generators,
    box,
    canonical_form,
    decompose_mixed,
    difference_witness,
    empty_hpoly,
    faces,
    hpoly,
    is_empty,
    normal_cone_at,
    normal_cone_hrep,
    polyhedron_equal,
    project,
    project_mixed,
    subtract_cells,
    to_hrep,
    to_vrep,
    vrep_contains,
)

SQUARE = box([(0, 1), (0, 1)])


def grid(lo, hi, den, dim):
    axis = [F(k, den) for k in range(lo * den, hi * den + 1)]
    return [la.vec(p) for p in itertools.product(axis, repeat=dim)]


# ---------------------------------------------------------------------------
# brute-force oracles (no LP)


def brute_vertices(p: HPoly):
    rows = list(p.ineq) + list(p.eq)
    verts = set()
    for combo in itertools.combinations(rows, p.dim):
        sol = la.solve_linear(
            tuple(a for a, _ in combo), la.vec([b for _, b in combo])
        )
        if sol is None:
            continue
        x, null = sol
        if null:
            continue
        if p.contains(x):
            verts.add(x)
    return sorted(verts)


def brute_extreme_rays(p: HPoly):
    """Extreme rays of the recession cone, valid when that cone is pointed."""
    normals = [a for a, _ in p.ineq]
    eqs = [a for a, _ in p.eq]
    rows = normals + eqs
    out = set()
    for combo in itertools.combinations(rows, p.dim - 1):
        ns = la.nullspace_basis(list(combo), p.dim)
        if len(ns) != 1:
            continue
        for d in (ns[0], la.neg(ns[0])):
            if any(la.dot(a, d) > 0 for a in normals):
                continue
            if any(la.dot(e, d) != 0 for e in eqs):
                continue
            tight = [a for a in normals if la.dot(a, d) == 0] + eqs
            if la.rank(tight) == p.dim - 1:
                out.add(la.primitive(d))
    return sorted(out)


def brute_facet_rows(v: VPoly):
    """Facet rows of conv(points)+cone(rays) for full-dimensional sets,
    from generator subsets and sign checks only."""
    gens = [(la.ONE,) + p for p in v.points] + [(la.ZERO,) + r for r in v.rays]
    n1 = v.dim + 1
    assert la.rank(gens) == n1, "oracle needs a full-dimensional input"
    rows = set()
    for combo in itertools.combinations(gens, n1 - 1):
        ns = la.nullspace_basis(list(combo), n1)
        if len(ns) != 1:
            continue
        w = ns[0]
        vals = [la.dot(w, g) for g in gens]
        if all(val >= 0 for val in vals):
            pass
        elif all(val <= 0 for val in vals):
            w = la.neg(w)
        else:
            continue
        w = la.primitive(w)
        rows.add((la.neg(w[1:]), w[0]))
    return sorted(rows)


# ---------------------------------------------------------------------------
# canonical form


def test_canonical_drops_redundant_and_duplicate_rows():
    p = hpoly(
        2,
        ineq=[
            ((1, 0), 1),
            ((1, 0), 1),
            ((2, 0), 2),
            ((1, 1), 5),  # implied by x<=1, y<=1
            ((0, 1), 1),
            ((-1, 0), 0),
            ((0, -1), 0),
        ],
    )
    assert canonical_form(p) == canonical_form(SQUARE)


def test_canonical_empty_is_none():
    p = hpoly(1, ineq=[((1,), 0), ((-1,), -1)])
    assert canonical_form(p) is None
    assert is_empty(empty_hpoly(3))


def test_canonical_moves_implicit_rows_to_equalities():
    p = hpoly(1, ineq=[((1,), 0), ((-1,), 0)])
    canon = canonical_form(p)
    assert canon == HPoly(1, (), (((F(1),), F(0)),))


def test_canonical_reduces_inequalities_against_equalities():
    # on x+y=1 the row x <= 3/4 becomes y >= 1/4, which subsumes y >= 0
    p = hpoly(2, ineq=[((1, 0), F(3, 4)), ((0, -1), 0)], eq=[((1, 1), 1)])
    canon = canonical_form(p)
    assert canon.eq == (((F(1), F(1)), F(1)),)
    assert canon.ineq == (((F(0), F(-4)), F(-1)),)


def test_canonical_is_representation_invariant():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.choice([1, 2, 3])
        rows = [
            (la.vec([rng.randint(-2, 2) for _ in range(n)]), F(rng.randint(-2, 4)))
            for _ in range(rng.randint(1, 5))
        ]
        rows += [(la.unit(n, i), F(3)) for i in range(n)]
        rows += [(la.neg(la.unit(n, i)), F(3)) for i in range(n)]
        p = HPoly(n, tuple(rows))
        canon = canonical_form(p)
        scrambled = list(rows)
        rng.shuffle(scrambled)
        scrambled.append(scrambled[0])
        a0, b0 = scrambled[0]
        scrambled.append((la.scale(a0, F(3)), F(3) * b0))
        a1, b1 = scrambled[1]
        scrambled.append((la.add(a0, a1), b0 + b1))  # sum row is redundant
        assert canonical_form(HPoly(n, tuple(scrambled))) == canon


def _pinned_polyhedra():
    """A fixed, seeded list of polyhedra in dims 1-3 that walks every branch
    of the canonical form: hidden implicit pairs (a row and a scaled
    negation) and implicit rows that are no pair, equality rows, zero rows,
    duplicates, lone rows, each way of being empty (0 = 1 after RREF,
    0 <= b < 0 after reduction, infeasible only by LP), and a system whose
    implicit rows show up one slack-sum round at a time."""
    rng = random.Random(2303_07793)
    denoms = (1, 2, 3, 5, 7)

    def frac():
        return F(rng.randint(-6, 6), rng.choice(denoms))

    def vec(n):
        return la.vec(rng.randint(-2, 2) for _ in range(n))

    def scaled(row):
        s = F(rng.randint(1, 4), rng.choice(denoms))
        return la.scale(row[0], s), row[1] * s

    # x <= 1, x >= 1/2, x <= 10 and y = 0 by two rows: three rounds
    seg = [((1,), 1), ((-1,), F(-1, 2)), ((1,), 10)]
    flat = [((1,), 0), ((-1,), 0)]
    out = [
        hpoly(2, ineq=[(a + (0,), b) for a, b in seg] + [((0,) + a, b) for a, b in flat]),
        hpoly(2, ineq=[((0,) + a, b) for a, b in flat] + [(a + (0,), b) for a, b in seg[::-1]]),
        # the same on the plane z = 2, with y + z = 0 by two rows
        hpoly(
            3,
            ineq=[(a + (0, 0), b) for a, b in seg] + [((0,) + a + a, b) for a, b in flat],
            eq=[((0, 0, 1), 2)],
        ),
    ]
    for k in range(320):
        kind = k % 8
        n = rng.randint(1, 3)
        ineq, eq = [], []
        if kind == 0:  # generic rows, sometimes boxed
            ineq = [(vec(n), frac()) for _ in range(rng.randint(1, 5))]
            if rng.random() < 0.5:
                ineq += list(box([(-2, 2)] * n).ineq)
        elif kind == 1:  # hidden implicit pairs among other rows
            ineq = [(vec(n), frac()) for _ in range(rng.randint(0, 3))]
            for _ in range(rng.randint(1, 2)):
                a, b = vec(n), frac()
                ineq += [(a, b), scaled((la.neg(a), -b))]
            rng.shuffle(ineq)
        elif kind == 2:  # implicit rows that are no pair: x_i <= 0, sum x_i >= 0
            m = rng.randint(1, n)
            ineq = [(la.unit(n, i), F(0)) for i in range(m)]
            ineq.append((la.neg(la.vsum([la.unit(n, i) for i in range(m)])), F(0)))
            ineq += [(vec(n), frac() + 2) for _ in range(rng.randint(0, 2))]
            ineq = [scaled(r) for r in ineq]
            rng.shuffle(ineq)
        elif kind == 3:  # equality rows, some dependent, with or without rows
            eq = [(vec(n), frac()) for _ in range(rng.randint(1, n))]
            if rng.random() < 0.5:
                eq.append((la.add(eq[0][0], eq[-1][0]), eq[0][1] + eq[-1][1]))
            ineq = [(vec(n), frac()) for _ in range(rng.choice((0, 0, 1, 3)))]
        elif kind == 4:  # zero rows, duplicates and scaled copies
            ineq = [(vec(n), frac()) for _ in range(rng.randint(1, 3))]
            ineq += [scaled(rng.choice(ineq)) for _ in range(rng.randint(1, 2))]
            ineq.insert(rng.randint(0, len(ineq)), (la.zeros(n), F(rng.randint(-1, 2))))
            if rng.random() < 0.5:
                eq.append((la.zeros(n), F(rng.choice((0, 0, 1)))))
        elif kind == 5:  # a lone row, possibly on an equality block
            ineq = [(vec(n), frac())]
            eq = [(vec(n), frac()) for _ in range(rng.randint(0, n - 1))]
        elif kind == 6:  # empty: 0 = 1 after RREF, or 0 <= b < 0 after reduction
            a, b = vec(n), frac()
            gap = F(rng.randint(1, 3), rng.choice(denoms))
            if rng.random() < 0.5:
                eq = [(a, b), scaled((a, b + gap))]
            else:
                eq = [(a, b)]
                ineq = [scaled((a, b - gap))]
            ineq += [(vec(n), frac()) for _ in range(rng.randint(0, 2))]
        else:  # empty only by LP: a row against its shifted negation, or a triangle
            ineq = [(vec(n), frac()) for _ in range(rng.randint(0, 2))]
            a, b = vec(n), frac()
            if la.is_zero(a):
                a = la.unit(n, 0)
            gap = F(rng.randint(1, 3), rng.choice(denoms))
            ineq += [(a, b), scaled((la.neg(a), -b - gap))]
            rng.shuffle(ineq)
        out.append(HPoly(n, tuple(ineq), tuple(eq)))
    return out


def test_pinned_canonical_forms():
    # sha256 over repr(canonical_form(p)) for every pinned case, recorded
    # with the per-row strict LPs: a canonical form is unique, so any
    # correct procedure gives the same rows byte for byte
    digest = hashlib.sha256()
    for p in _pinned_polyhedra():
        digest.update(repr(canonical_form(p)).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == (
        "997e23b7b1d7a62b1d594f6fa915084936513246f56a2c93a1043cf46582521a"
    )


def test_polyhedron_equal_on_different_presentations():
    p = hpoly(2, ineq=[((1, 1), 1), ((-1, -1), -1), ((1, -1), 1), ((-1, 1), 1)])
    q = hpoly(2, ineq=[((2, -2), 2), ((-1, 1), 1)], eq=[((1, 1), 1)])
    assert polyhedron_equal(p, q)


# ---------------------------------------------------------------------------
# V-rep / H-rep conversion


def test_to_vrep_unit_square():
    v = to_vrep(SQUARE)
    assert v.rays == ()
    assert v.points == tuple(
        sorted([(F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1))])
    )
    assert v.points == tuple(brute_vertices(SQUARE))


def test_to_vrep_coordinate_cone():
    p = hpoly(2, ineq=[((-1, 0), 0), ((0, -1), 0)])
    v = to_vrep(p)
    assert v.points == ((F(0), F(0)),)
    assert v.rays == ((F(0), F(1)), (F(1), F(0)))


def test_to_vrep_whole_line():
    p = hpoly(1, ineq=[((0,), 1)])
    v = to_vrep(p)
    assert v.points == ((F(0),),)
    assert sorted(v.rays) == [(F(-1),), (F(1),)]


def test_to_vrep_dimension_cap():
    with pytest.raises(DimensionCapExceeded):
        to_vrep(HPoly(7))


def test_to_vrep_random_polytopes_match_brute_enumeration():
    rng = random.Random(21)
    for _ in range(20):
        n = rng.choice([2, 2, 3])
        rows = [
            (la.vec([rng.randint(-2, 2) for _ in range(n)]), F(rng.randint(0, 4)))
            for _ in range(rng.randint(2, 4))
        ]
        p = HPoly(n, tuple(rows) + box([(-3, 3)] * n).ineq)
        canon = canonical_form(p)
        if canon is None or canon.eq:
            continue  # oracle below written for the full-dimensional case
        v = to_vrep(p)
        assert v.rays == ()
        assert list(v.points) == brute_vertices(canon)


def test_to_vrep_translated_unimodular_cones():
    rng = random.Random(5)
    for _ in range(12):
        n = rng.choice([2, 3])
        u = [list(r) for r in la.identity(n)]
        for _ in range(4):
            i, j = rng.sample(range(n), 2)
            s = rng.choice([-1, 1])
            u[i] = [a + s * b for a, b in zip(u[i], u[j])]
        apex = la.vec([rng.randint(-2, 2) for _ in range(n)])
        # {x : U(x - apex) >= 0} = apex + cone(columns of U^{-1})
        rows = [(la.neg(la.vec(r)), -la.dot(la.vec(r), apex)) for r in u]
        p = HPoly(n, tuple(rows))
        sol = la.solve_linear(la.mat(u), la.vec([1 if k == 0 else 0 for k in range(n)]))
        v = to_vrep(p)
        assert v.points == (apex,)
        uinv_cols = []
        for k in range(n):
            e = la.unit(n, k)
            col, null = la.solve_linear(la.mat(u), e)
            assert not null
            uinv_cols.append(la.primitive(col))
        assert sorted(v.rays) == sorted(uinv_cols)


def test_to_hrep_square_roundtrip():
    v = to_vrep(SQUARE)
    assert to_hrep(v) == canonical_form(SQUARE)


def test_to_hrep_empty():
    assert is_empty(to_hrep(VPoly(2)))


def test_to_hrep_random_full_dim_matches_brute_facets():
    rng = random.Random(33)
    tried = 0
    for _ in range(60):
        if tried >= 15:
            break
        npts = rng.randint(3, 5)
        pts = {
            tuple(F(rng.randint(-3, 3)) for _ in range(2)) for _ in range(npts)
        }
        rays = ()
        if rng.random() < 0.4:
            rays = (la.primitive(la.vec([rng.randint(-2, 2), rng.randint(0, 2)])),)
            if la.is_zero(rays[0]):
                rays = ()
        v = VPoly(2, tuple(sorted(pts)), rays)
        gens = [(la.ONE,) + p for p in v.points] + [(la.ZERO,) + r for r in v.rays]
        if la.rank(gens) != 3:
            continue
        tried += 1
        h = to_hrep(v)
        assert h.eq == ()
        assert list(h.ineq) == brute_facet_rows(v)


def test_roundtrip_preserves_membership_on_lattice():
    cases = [
        SQUARE,
        hpoly(2, ineq=[((1, 1), 1), ((-1, 0), 1), ((0, -1), 1)]),
        hpoly(2, ineq=[((1, 0), 1)], eq=[((0, 1), 0)]),
        hpoly(2, ineq=[((-2, 1), 0), ((1, -2), 0)]),  # cone between two rays
    ]
    for p in cases:
        h = to_hrep(to_vrep(p))
        assert polyhedron_equal(h, p)
        v2 = to_vrep(h)
        for x in grid(-2, 2, 4, 2):
            assert h.contains(x) == p.contains(x)
            if x[0].denominator <= 2 and x[1].denominator <= 2:
                assert vrep_contains(v2, x) == p.contains(x)


def test_vrep_contains():
    v = VPoly(2, ((F(0), F(0)), (F(1), F(0))), ((F(0), F(1)),))
    assert vrep_contains(v, la.vec([F(1, 2), F(5)]))
    assert not vrep_contains(v, la.vec([2, 0]))
    assert not vrep_contains(VPoly(2), la.vec([0, 0]))


# ---------------------------------------------------------------------------
# double description


def _pinned_cone_rows():
    """A fixed, seeded list of (dim, rows) inputs to the double description
    in dims 1-5: lineality met at the first row and only at the last one,
    fractional rows (homogenized points with denominators, as `to_hrep`
    builds them), homogenized facets (as `to_vrep` builds them), zero rows,
    duplicates and scaled copies, degenerate apexes where many rays are
    tight on the same rows (so a third ray often blocks a pair), the whole
    space and single-ray cones."""
    rng = random.Random(1996)
    denoms = (1, 2, 3, 5, 7)

    def frac():
        return F(rng.randint(-6, 6), rng.choice(denoms))

    def vec(n, lo=-2, hi=2):
        return la.vec(rng.randint(lo, hi) for _ in range(n))

    out = [(1, []), (3, []), (2, [la.zeros(2)]), (1, [la.vec([3])])]
    for k in range(300):
        kind = k % 6
        n = rng.randint(1, 5)
        if kind == 0:  # generic integer rows
            rows = [vec(n) for _ in range(rng.randint(1, n + 3))]
        elif kind == 1:  # the last coordinate is met only by the last row
            rows = [vec(n - 1) + (F(0),) for _ in range(rng.randint(0, n + 1))]
            rows.append(vec(n - 1) + (F(rng.choice((-3, -1, 1, 2))),))
        elif kind == 2:  # homogenized points with denominators, and rays
            rows = [
                (la.ONE,) + tuple(frac() for _ in range(n - 1))
                for _ in range(rng.randint(1, n + 2))
            ]
            rows += [(la.ZERO,) + vec(n - 1) for _ in range(rng.randint(0, 2))]
        elif kind == 3:  # homogenized facets and equality pairs, height row first
            rows = [la.unit(n, 0)]
            for _ in range(rng.randint(1, n + 2)):
                rows.append((frac(),) + vec(n - 1))
            if rng.random() < 0.4:
                a = (frac(),) + vec(n - 1)
                rows += [a, la.neg(a)]
        elif kind == 4:  # degenerate apex: many 0/+-1 rows through one point
            rows = [(la.ONE,) + vec(n - 1, -1, 1) for _ in range(rng.randint(n, 2 * n + 3))]
        else:  # single rays and lines: pairs +-a_i plus at most one more row
            rows = []
            for _ in range(n - 1):
                a = vec(n)
                rows += [a, la.scale(la.neg(a), F(rng.randint(1, 3), rng.choice(denoms)))]
            if rng.random() < 0.8:
                rows.append(vec(n))
            rng.shuffle(rows)
        if rng.random() < 0.3:  # zero rows, duplicates and scaled copies
            rows.insert(rng.randint(0, len(rows)), la.zeros(n))
            if rows:
                rows.append(la.scale(rng.choice(rows), F(rng.randint(1, 4), rng.choice(denoms))))
                rows.insert(rng.randint(0, len(rows)), rng.choice(rows))
        out.append((n, rows))
    return out


def test_pinned_cone_generators():
    # sha256 over repr(_cone_generators(dim, rows)) for every pinned case,
    # recorded with the Fraction zero-set double description: the output is
    # sorted, primitive and minimal, so any correct rewrite of the method
    # that meets the rows in the same order gives it byte for byte
    digest = hashlib.sha256()
    for dim, rows in _pinned_cone_rows():
        digest.update(repr(_cone_generators(dim, rows)).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == (
        "2efe57e88c581fd06fb286837a98a41e3d5d81d9e5fe31cd5b015d1986faa750"
    )


def _mod_lineality(v, basis, pivots):
    """The representative of v + span(basis) with zeros at the pivots of an
    RREF basis, scaled to primitive integers."""
    for e, pc in zip(basis, pivots):
        v = la.sub(v, la.scale(e, v[pc]))
    return la.primitive(v)


def brute_cone_generators(dim, rows):
    """(kernel of the rows, extreme rays of {z : r.z >= 0} modulo it) from
    nullspaces of row subsets and sign checks only: a feasible direction
    tight on rows of rank dim - lin - 1 spans a one-dimensional face of the
    cone divided by its lineality."""
    rows = [r for r in rows if not la.is_zero(r)]
    kernel = la.nullspace_basis(rows, dim)
    basis, pivots = la.rref(kernel)
    k = dim - len(kernel) - 1
    if k < 0:  # no nonzero row: the whole space
        return kernel, []
    rays = set()
    for combo in itertools.combinations(rows, k):
        if la.rank(list(combo)) != k:
            continue
        face = la.nullspace_basis(list(combo), dim)
        v = next(
            w for w in (_mod_lineality(u, basis, pivots) for u in face) if not la.is_zero(w)
        )
        for d in (v, la.neg(v)):
            if all(la.dot(r, d) >= 0 for r in rows):
                rays.add(d)
    return kernel, sorted(rays)


def test_cone_generators_match_brute_enumeration():
    rng = random.Random(1953)
    for _ in range(150):
        dim = rng.randint(1, 4)
        rows = [
            la.vec(F(rng.randint(-2, 2), rng.choice((1, 1, 2, 3))) for _ in range(dim))
            for _ in range(rng.randint(0, 7))
        ]
        if rows and rng.random() < 0.3:
            rows.append(la.neg(rng.choice(rows)))
        lineality, rays = _cone_generators(dim, rows)
        kernel, brute_rays = brute_cone_generators(dim, rows)
        assert la.row_space_basis(lineality) == la.row_space_basis(kernel)
        basis, pivots = la.rref(kernel)
        reduced = [_mod_lineality(r, basis, pivots) for r in rays]
        assert len(set(reduced)) == len(rays)  # minimal: no two rays agree mod lineality
        assert sorted(reduced) == brute_rays


# ---------------------------------------------------------------------------
# projection


def test_project_box_to_axis():
    shadow = project(SQUARE, [0])
    assert shadow == canonical_form(hpoly(1, ineq=[((1,), 1), ((-1,), 0)]))


def test_project_strict_box_keeps_strictness():
    m = MixedSystem(
        2,
        (),
        (
            ((F(1), F(0)), F(1)),
            ((F(-1), F(0)), F(0)),
            ((F(0), F(1)), F(1)),
            ((F(0), F(-1)), F(0)),
        ),
        (),
    )
    shadow = project_mixed(m, [0])
    assert shadow.weak == () and shadow.eq == ()
    assert sorted(shadow.strict) == [((F(-1),), F(0)), ((F(1),), F(1))]


def test_project_cone_covers_line():
    p = hpoly(2, ineq=[((1, -1), 0), ((-1, -1), 0)])
    shadow = project(p, [0])
    assert shadow == HPoly(1)


def test_project_uses_equality_pivot():
    m = MixedSystem(
        2,
        (),
        (((F(1), F(0)), F(3)), ((F(0), F(1)), F(2))),
        (((F(1), F(1)), F(1)),),
    )
    shadow = project_mixed(m, [0])
    # y = 1 - x, so y < 2 becomes -x < 1
    assert sorted(shadow.strict) == [((F(-1),), F(1)), ((F(1),), F(3))]
    assert shadow.weak == () and shadow.eq == ()


def test_project_rejects_weak_rows_next_to_strict_ones():
    # a cell with weak and strict rows need not be the ri of its closure
    m = MixedSystem(
        2,
        (((F(1), F(0)), F(3)),),
        (((F(0), F(1)), F(2)),),
        (((F(1), F(1)), F(1)),),
    )
    with pytest.raises(UsageError):
        project_mixed(m, [0])


def test_project_membership_commutes_with_fiber_feasibility():
    rng = random.Random(11)
    for trial in range(10):
        rows = [
            (la.vec([rng.randint(-2, 2) for _ in range(3)]), F(rng.randint(-1, 3)))
            for _ in range(4)
        ]
        # every other cell lies in a plane, so the shadow pivots on it
        plane = la.vec([1, rng.randint(-1, 1), rng.randint(-1, 1)])
        eq = ((plane, F(rng.randint(-1, 1))),)
        m = MixedSystem(3, (), tuple(rows) + box([(-2, 2)] * 3).ineq, eq[: trial % 2])
        keep = sorted(rng.sample(range(3), 2))
        shadow = project_mixed(m, keep)
        for y in grid(-2, 2, 2, 2):
            fiber = m.combine(
                MixedSystem(
                    3,
                    (),
                    (),
                    tuple((la.unit(3, c), y[i]) for i, c in enumerate(keep)),
                )
            )
            assert shadow.satisfies(y) == strict_feasible(fiber).feasible


def test_canonical_form_lp_counts(monkeypatch):
    # LPs of both entries: solve_lp misses and phase-2 LPs from the origin
    origin = origin_lp_calls(monkeypatch)

    def lps(p):
        canonical_form.cache_clear()
        solve_lp.cache_clear()
        strict_feasible.cache_clear()
        origin.clear()
        canonical_form(p)
        return solve_lp.cache_info().misses + len(origin)

    # equality-only: RREF settles it
    assert lps(hpoly(2, eq=[((1, 1), 1), ((2, 2), 2)])) == 0
    # one row: two free columns, so elimination finds the strict point,
    # and a lone row is irredundant
    assert lps(hpoly(2, ineq=[((1, -1), 3)])) == 0
    # triangle: elimination finds the strict point; from it a ray along
    # each row's normal meets that row first, so all three are facets
    triangle = hpoly(2, ineq=[((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)])
    assert lps(triangle) == 0
    # tetrahedron: three free columns take the slack LP, and the rays
    # show every facet
    tetrahedron = hpoly(
        3, ineq=[((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0), ((1, 1, 1), 1)]
    )
    assert lps(tetrahedron) == 1


def test_two_free_columns_take_no_lp(monkeypatch):
    # the rows left on at most two free columns are solved by elimination:
    # no LP from the origin and no solve_lp, for strict_point and for
    # canonical forms whose facets the rays from that point all show;
    # three free columns still take the slack LP
    origin = origin_lp_calls(monkeypatch)
    triangle = [((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)]
    polygons = [
        hpoly(2, ineq=triangle),
        hpoly(2, ineq=[((1, -1), 3)]),
        hpoly(2, ineq=[*triangle, ((2, 2), 5)]),  # a parallel row, redundant
        box([(0, 1), (-2, 3)]),
        # a triangle on the plane x + y + z = 1, and a segment in R^4
        hpoly(3, ineq=[((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0)], eq=[((1, 1, 1), 1)]),
        hpoly(
            4,
            ineq=[((1, 0, 0, 0), 2), ((-1, 0, 0, 0), 1)],
            eq=[((0, 1, 0, 0), 1), ((1, 0, 1, 1), 0)],
        ),
    ]
    cells = [canonical_form(p).ri_system() for p in polygons]
    cells += [c.combine(MixedSystem(c.dim, (), ((la.unit(c.dim, 0), F(1, 3)),))) for c in cells]
    for p in polygons:
        canonical_form.cache_clear()
        solve_lp.cache_clear()
        origin.clear()
        assert canonical_form(p) is not None
        assert solve_lp.cache_info().misses == 0 and origin == [], p
    for c in cells:
        solve_lp.cache_clear()
        assert c.satisfies(ph.strict_point(c)), c
        assert solve_lp.cache_info().misses == 0 and origin == [], c
    tetrahedron = canonical_form(
        hpoly(3, ineq=[((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0), ((1, 1, 1), 1)])
    )
    origin.clear()
    assert ph.strict_point(tetrahedron.ri_system()) is not None
    assert len(origin) == 1



def test_redundancy_on_two_free_columns_takes_no_lp(monkeypatch):
    # a row that no ray from the strict point shows is tested by an LP on
    # the free columns; on at most two it comes by elimination
    # (ph._least), with no LP from the origin, and the canonical form
    # still drops exactly the implied rows; three free columns still take
    # LPs from the origin
    origin = origin_lp_calls(monkeypatch)
    calls = []

    def counted(*args, real=ph._least):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ph, "_least", counted)
    rng = random.Random(2417)
    dropped = 0
    for i in range(40):
        dim = 2 + i % 2  # three columns less one equality
        z = la.vec([F(1, dim)] * dim)  # strictly inside every row
        rows = []
        for _ in range(4):
            a = la.vec([rng.randint(-3, 3) for _ in range(dim)])
            rows.append((a, la.dot(a, z) + rng.randint(1, 4)))
        # the sum of two rows, loosened: implied, and parallel to neither
        (a1, b1), (a2, b2) = rng.sample(rows, 2)
        rows.append((la.add(a1, a2), b1 + b2 + rng.randint(0, 2)))
        eq = [((1, 1, 1), F(1))] if dim == 3 else []
        p = hpoly(dim, rows, eq)
        canonical_form.cache_clear()
        origin.clear()
        canon = canonical_form(p)
        assert origin == [], p
        if canon is None:
            continue
        for a, b in p.ineq:  # every given row holds on the result
            assert maximize(a, canon.closed_system()).value <= b, p
        for k, (a, b) in enumerate(canon.ineq):  # and no kept row is implied
            rest = MixedSystem(dim, canon.ineq[:k] + canon.ineq[k + 1 :], (), canon.eq)
            out = maximize(a, rest)
            assert out.status == "unbounded" or out.value > b, p
        dropped += len(p.ineq) - len(canon.ineq)
    assert len(calls) >= 20 and dropped >= 40, (len(calls), dropped)
    cube = box([(0, 1)] * 3)
    corner = HPoly(3, (*cube.ineq, ((la.ONE,) * 3, F(3))))
    origin.clear()
    assert canonical_form(corner) == canonical_form(cube) and len(origin) > 1


def _integer_rows(p):
    """(equality rows, inequality rows) of p, each row (a, b) as the
    integer row L (a, b), L the lcm of its denominators."""

    def scaled(a, b):
        den = F(lcm(b.denominator, *(v.denominator for v in a)))
        return tuple(int(v * den) for v in a + (b,))

    return [scaled(*r) for r in p.eq], [scaled(*r) for r in p.ineq]


def _fraction_hpoly(dim, eq, ineq):
    def rows(block):
        return tuple((tuple(map(F, r[:-1])), F(r[-1])) for r in block)

    return HPoly(dim, rows(ineq), rows(eq))


def _split_implicit_by_fractions(dim, ineq, eq):
    """The former slack-sum rounds, two-phase LPs on Fraction rows."""
    todo = list(range(len(ineq)))
    while todo:
        k = len(todo)
        slack = dict(zip(todo, la.identity(k)))
        rows = [(a + slack.get(i, la.zeros(k)), b) for i, (a, b) in enumerate(ineq)]
        for t in la.identity(k):
            rows += [(la.zeros(dim) + t, la.ONE), (la.zeros(dim) + la.neg(t), la.ZERO)]
        lifted = MixedSystem(dim + k, tuple(rows), (), tuple((a + la.zeros(k), b) for a, b in eq))
        x = maximize(la.zeros(dim) + (la.ONE,) * k, lifted).witness[:dim]
        strict = {i for i in todo if la.dot(ineq[i][0], x) < ineq[i][1]}
        if not strict:
            break
        todo = [i for i in todo if i not in strict]
    return todo


def _two_phase_canonical(p):
    """The canonical form as the two-phase LP builds it, kept as the
    reference: step 1, then strict_feasible on the reduced rows made
    strict, slack-sum rounds on Fraction rows when it finds no strict
    point, and one maximize per row over the others, with no ray test."""
    reduced = ph._eliminate_int(p.dim, *_integer_rows(p))
    if reduced is None:
        return None
    eq, ineq = reduced
    q = _fraction_hpoly(p.dim, eq, ineq)
    if ineq:
        joint = strict_feasible(q.ri_system())
        if not joint.feasible:
            if joint.certificate is not None:
                return None
            implicit = _split_implicit_by_fractions(p.dim, q.ineq, q.eq)
            rest = [r for i, r in enumerate(ineq) if i not in implicit]
            eq, ineq = ph._eliminate_int(p.dim, eq + [ineq[i] for i in implicit], rest)
    system = _fraction_hpoly(p.dim, eq, ineq).closed_system()
    keep = list(range(len(ineq)))
    i = 0
    while len(keep) > 1 and i < len(keep):
        a, b = system.weak[keep[i]]
        others = tuple(system.weak[j] for j in keep if j != keep[i])
        out = maximize(a, MixedSystem(p.dim, others, (), system.eq))
        if out.status == "optimal" and out.value <= b:
            keep.pop(i)
        else:
            i += 1
    return _fraction_hpoly(p.dim, eq, [ineq[i] for i in keep])


def _seeded_system(rng, dim, kind):
    """Rows of one of four kinds over small integers and halves: plain,
    with an implicit equality, with redundant rows, or empty."""
    def vec():
        return la.vec([F(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(dim)])

    rows = [(vec(), F(rng.randint(-2, 4))) for _ in range(rng.randint(0, 4))]
    eq = [(vec(), F(rng.randint(-1, 1)))] if rng.random() < 0.25 else []
    a, b = vec(), F(rng.randint(-2, 2))
    if kind == "implicit":
        rows += [(a, b), (la.neg(a), -b)]
    elif kind == "redundant":
        rows += [(la.scale(a, F(2)), 2 * b + 1), (a, b)]
        if len(rows) > 2:
            (a1, b1), (a2, b2) = rows[0], rows[1]
            rows.append((la.add(a1, a2), b1 + b2 + rng.randint(0, 2)))
    elif kind == "empty":
        rows += [(a, b), (la.neg(a), -b - 1)]
    rng.shuffle(rows)
    return HPoly(dim, tuple(rows), tuple(eq))


def test_canonical_form_equals_the_two_phase_construction():
    # 400 seeded systems in dims 1-3; the canonical form is unique, so the
    # slack LP from the origin and the redundancy LPs shifted to a strict
    # point must give what the two-phase LP gives, and the point the
    # result keeps lies in its relative interior; seeded with a point of
    # its ri, or with one on its boundary, which falls through to step 2,
    # the result is the same
    rng = random.Random(19)
    kinds = ("plain", "implicit", "redundant", "empty")
    seen = {"empty": 0, "implicit": 0, "dropped": 0, "unbounded": 0, "boundary seed": 0}
    for i in range(400):
        dim = 1 + i % 3
        p = _seeded_system(rng, dim, kinds[i % 4])
        canonical_form.cache_clear()
        got = canonical_form(p)
        assert got == _two_phase_canonical(p), p
        if got is None:
            seen["empty"] += 1
            continue
        assert got.ri_system().satisfies(ph.ri_point(got))
        for z in {ph.ri_point(f) for f in (got, faces(got)[-1])}:
            seeded, _ = ph._canonical(p, z)
            assert seeded == got and seeded.ri_system().satisfies(ph.ri_point(seeded))
            seen["boundary seed"] += not got.ri_system().satisfies(z)
        eq, ineq = ph._eliminate_int(dim, *_integer_rows(p))
        seen["implicit"] += len(got.eq) > len(eq)
        seen["dropped"] += len(got.ineq) < len(ineq)
        seen["unbounded"] += any(
            got.recedes(d) for d in itertools.product((-1, 0, 1), repeat=dim) if any(d)
        )
    assert min(seen.values()) >= 40, seen


def _implicit_cases(count, seed):
    """(dim, rows, kind): rows the pair (eq, ineq) of integer rows
    [a..., b] in dims 1-5 as step 1 of canonical_form leaves them, or None
    when step 1 alone shows them empty.  A few rows hold at an integer
    point z0, some of them tight there; each kind adds rows: a tight
    triple a, b, -a-b through z0, which no pair of reverse rows shows, two
    triples, a reverse pair, a triple made empty by 1, or nothing.  One
    equality through z0 at most leaves three free columns or more from
    dim 4 up."""
    rng = random.Random(seed)
    kinds = ("triple", "two triples", "pair", "empty", "plain")
    for i in range(count):
        dim, kind = 1 + i % 5, kinds[(i // 5) % len(kinds)]
        z0 = [rng.randint(-2, 2) for _ in range(dim)]

        def through(a, slack=0):
            return (*a, sum(x * y for x, y in zip(a, z0)) + slack)

        def vec():
            return [rng.randint(-3, 3) for _ in range(dim)]

        rows = [through(vec(), rng.choice((0, 0, 1, 2))) for _ in range(rng.randint(0, 3))]
        for _ in range(2 if kind == "two triples" else kind in ("triple", "empty")):
            a, b = vec(), vec()
            rows += [through(a), through(b), through([-x - y for x, y in zip(a, b)])]
        if kind == "pair":
            a = vec()
            rows += [through(a), through([-x for x in a])]
        if kind == "empty":
            rows[-1] = (*rows[-1][:-1], rows[-1][-1] - 1)
        eq = [through(vec())] if dim >= 4 and rng.random() < 0.5 else []
        rng.shuffle(rows)
        yield dim, ph._eliminate_int(dim, eq, rows), kind


def test_relative_interior_matches_the_fraction_rounds(monkeypatch):
    # the implicit equalities that _relative_interior reads off the
    # multipliers of its strict-point kernel are exactly those the former
    # slack-sum rounds find, on two-phase LPs over Fraction rows: the rows
    # it returns are step 1 on the given equalities plus those rows, its
    # point lies on them and strictly inside the rest, and it finds no
    # point exactly when feasible_point finds none.  Mutations on a copy,
    # each caught: rows of zero weight taken as tight, and the cap's
    # weight read as a row's (the y.b check: test_slack_lp_checks_its_dual)
    seen = {}

    def tally(key):
        seen[key] = seen.get(key, 0) + 1

    def recorded(name):
        real = getattr(ph, name)

        def run(*args):
            out = real(*args)
            tally(f"{name} sign {out[0]}")
            return out

        monkeypatch.setattr(ph, name, run)

    for name in ("_slack_lp", "_eliminated_point", "_reduced_point"):
        recorded(name)
    for dim, reduced, kind in _implicit_cases(500, seed=2503):
        tally(kind)
        if reduced is None:
            tally("empty by step 1")
            continue
        eq, ineq = reduced
        rounds = seen.get("_reduced_point sign 0", 0)
        found = ph._relative_interior(dim, eq, ineq)
        tally(f"{seen.get('_reduced_point sign 0', 0) - rounds} tight rounds")
        q = _fraction_hpoly(dim, eq, ineq)
        if found is None:
            assert feasible_point(q.closed_system()).status == "infeasible", (eq, ineq)
            continue
        implicit = _split_implicit_by_fractions(dim, q.ineq, q.eq)
        rest = [r for i, r in enumerate(ineq) if i not in implicit]
        got_eq, got_ineq, (zi, den) = found
        assert (got_eq, got_ineq) == ph._eliminate_int(dim, eq + [ineq[i] for i in implicit], rest)
        z = la.vec([F(v, den) for v in zi])
        assert _fraction_hpoly(dim, got_eq, got_ineq).ri_system().satisfies(z), (eq, ineq)
        tally(f"{dim - len(got_eq)} free left")
    print(dict(sorted(seen.items())))
    paths = ("_slack_lp sign 0", "_slack_lp sign -1", "_eliminated_point sign 0")
    for key in (*paths, "_eliminated_point sign -1", "1 tight rounds", "2 tight rounds"):
        assert seen.get(key, 0) >= 30, (key, seen)


def test_slack_lp_checks_its_dual(monkeypatch):
    # the slack LP names the tight rows by its dual vector; a dual with
    # weight on the cap, with no weight, or whose rows combine to
    # 0 <= b with b != 0 at a slack optimum of 0 proves nothing, and is
    # refused, here at the origin of rows x <= 0, -x <= 0, x <= 1, -x <= 1
    # on three columns
    rows = [(1, 0, 0, 0), (-1, 0, 0, 0), (1, 0, 0, 1), (-1, 0, 0, 1)]
    sign, _, _, y = ph._slack_lp(rows)
    assert sign == 0 and {i for i, v in y.items() if v > 0} == {0, 1}
    for dual in ([1, 1, 0, 0, 1], [0, 0, 0, 0, 0], [0, 0, 1, 1, 0]):
        outcome = OriginOutcome([0, 0, 0, 0], 1, dual, 2)
        monkeypatch.setattr(ph, "maximize_from_origin", lambda *args, out=outcome: out)
        with pytest.raises(CertificateError):
            ph._slack_lp(rows)


def test_implicit_equalities_on_two_free_columns_take_no_lp(monkeypatch):
    # rows with no strict point on at most two free columns: the
    # multipliers of elimination name the rows tight on the whole set, so
    # the canonical form takes no LP from the origin, and equals the
    # two-phase construction; a tight triple on three free columns still
    # takes the slack LP
    origin = origin_lp_calls(monkeypatch)
    rng = random.Random(2521)
    for i in range(40):
        dim = 2 + i % 2  # three columns less one equality
        z = [rng.randint(-2, 2) for _ in range(dim)]
        a, b = [rng.randint(-3, 3) for _ in range(dim)], [rng.randint(-3, 3) for _ in range(dim)]
        normals = [a, [-x for x in a]] if i % 4 < 2 else [a, b, [-x - y for x, y in zip(a, b)]]
        rows = [(la.vec(n), la.dot(la.vec(n), la.vec(z))) for n in normals]
        rows += [(la.unit(dim, 0), F(z[0] + 1)), (la.neg(la.unit(dim, 0)), F(1 - z[0]))]
        eq = [((1, 1, 1), F(sum(z)))] if dim == 3 else []
        p = hpoly(dim, rows, eq)
        canonical_form.cache_clear()
        origin.clear()
        assert canonical_form(p) == _two_phase_canonical(p), p
        assert origin == [], p
    triple = hpoly(3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((-1, -1, 0), 0), ((0, 0, 1), 1)])
    canonical_form.cache_clear()
    origin.clear()
    assert canonical_form(triple).eq == (((1, 0, 0), 0), ((0, 1, 0), 0)) and len(origin) == 1


def test_origin_lps_over_seeded_systems_stay_bounded(monkeypatch):
    # LPs from the origin over the canonical forms of the systems of
    # _implicit_cases, and the strict points of the same rows, every
    # other one strict, from cold caches: at most the 1,264 that the
    # slack-sum rounds and the second slack LP of strict points took on
    # the same systems
    origin = origin_lp_calls(monkeypatch)
    for dim, reduced, _ in _implicit_cases(500, seed=2503):
        if reduced is None:
            continue
        q = _fraction_hpoly(dim, *reduced)
        canonical_form.cache_clear()
        canonical_form(q)
        rows = q.ineq
        ph.strict_point(MixedSystem(dim, rows[::2], rows[1::2], q.eq))
    print(len(origin))
    assert len(origin) <= 1264


def test_strict_point_agrees_with_strict_feasible():
    # a weak row and a multiple of its reverse join the equalities before
    # any LP; three weak rows summing to 0 <= 0 are tight on the whole
    # closed set, which the multipliers of elimination or of the slack LP
    # show, and they join the equalities for the next round.  The point
    # found lies in the system, strict rows strictly
    rng = random.Random(29)
    answers = {True: 0, False: 0, "pair": 0, "triple": 0}
    for i in range(300):
        dim = 1 + i % 3

        def rows(k):
            return tuple(
                (la.vec([rng.randint(-2, 2) for _ in range(dim)]), F(rng.randint(-1, 3)))
                for _ in range(k)
            )

        weak, strict = rows(rng.randint(0, 2)), rows(rng.randint(0, 3))
        eq = rows(1) if rng.random() < 0.2 else ()
        if i % 4 == 0:  # a weak pair that holds only on a hyperplane
            (a, b), = rows(1)
            k = rng.randint(1, 3)
            weak += ((a, b), (la.scale(a, F(-k)), -k * b))
        elif i % 4 == 1:  # three weak rows that hold only where all are tight
            (a, b), (c, d) = rows(2)
            weak += ((a, b), (c, d), (la.neg(la.add(a, c)), -b - d))
        m = MixedSystem(dim, weak, strict, eq)
        point = ph.strict_point(m)
        feasible = strict_feasible(m).feasible
        assert (point is not None) == feasible, m
        if point is not None:
            assert m.satisfies(point)
        answers[feasible] += 1
        answers["pair"] += feasible and i % 4 == 0
        answers["triple"] += feasible and i % 4 == 1
    assert answers[True] >= 40 and answers[False] >= 40, answers
    assert answers["pair"] >= 15 and answers["triple"] >= 15, answers

# ---------------------------------------------------------------------------
# normal cones


def test_normal_cone_square_corner():
    nc = normal_cone_at(SQUARE, la.vec([0, 0]))
    assert nc.generators == ((F(-1), F(0)), (F(0), F(-1)))
    assert nc.lineality == ()


def test_normal_cone_square_interior():
    nc = normal_cone_at(SQUARE, la.vec([F(1, 2), F(1, 2)]))
    assert nc.generators == () and nc.lineality == ()


def test_normal_cone_square_edge():
    nc = normal_cone_at(SQUARE, la.vec([F(1, 4), 0]))
    assert nc.generators == ((F(0), F(-1)),)


def test_normal_cone_outside_raises():
    with pytest.raises(PointNotInSet):
        normal_cone_at(SQUARE, la.vec([2, 0]))


def test_normal_cone_drops_conically_dependent_generators():
    p = hpoly(2, ineq=[((1, 0), 1), ((0, 1), 1), ((1, 1), 2)])
    nc = normal_cone_at(p, la.vec([1, 1]))
    # (1,1) is a positive combination of the other two active normals
    assert nc.generators == ((F(0), F(1)), (F(1), F(0)))


def test_normal_cone_matches_definition_cone():
    rng = random.Random(3)
    for _ in range(8):
        rows = [
            (la.vec([rng.randint(-2, 2) for _ in range(2)]), F(rng.randint(1, 3)))
            for _ in range(3)
        ]
        p = HPoly(2, tuple(rows) + box([(-2, 2)] * 2).ineq)
        canon = canonical_form(p)
        v = to_vrep(canon)
        xbar = v.points[0]
        nc = normal_cone_at(canon, xbar)
        definition = normal_cone_hrep(v, xbar)
        for g in nc.generators:
            assert definition.contains(g)
        # converse: every generator of the definition cone lies in cone(nc)
        dv = to_vrep(definition)
        for r in dv.rays:
            k = len(nc.generators)
            eq_rows = [
                (la.vec([g[j] for g in nc.generators]), r[j]) for j in range(2)
            ]
            nonneg = tuple((la.neg(la.unit(k, t)), la.ZERO) for t in range(k))
            ok = feasible_point(MixedSystem(k, nonneg, (), tuple(eq_rows)))
            assert ok.status == "optimal"


# ---------------------------------------------------------------------------
# faces, cells, decomposition


def test_faces_of_square():
    fs = faces(SQUARE)
    assert len(fs) == 9
    dims = sorted(2 - len(f.eq) for f in fs)
    assert dims == [0, 0, 0, 0, 1, 1, 1, 1, 2]


def test_faces_of_segment():
    p = box([(0, 1), (0, 0)])
    fs = faces(p)
    assert len(fs) == 3


def test_decompose_strict_square_is_single_piece():
    m = canonical_form(SQUARE).ri_system()
    pieces = decompose_mixed(m)
    assert pieces == (canonical_form(SQUARE),)


def test_decompose_closed_square_gives_all_faces():
    pieces = decompose_mixed(SQUARE.closed_system())
    assert set(pieces) == set(faces(SQUARE))


def test_decompose_half_open_square():
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
    pieces = decompose_mixed(m)
    assert len(pieces) == 6
    for x in grid(-1, 2, 8, 2):
        want = 0 <= x[0] < 1 and 0 <= x[1] <= 1
        got = any(pc.ri_system().satisfies(x) for pc in pieces)
        assert got == want, x


def test_subtract_cells_leaves_boundary():
    cells = [(SQUARE.closed_system(), la.vec([0, 0]))]
    out = subtract_cells(cells, canonical_form(SQUARE).ri_system())
    for x in grid(-1, 2, 4, 2):
        on_boundary = SQUARE.contains(x) and (
            x[0] in (0, 1) or x[1] in (0, 1)
        )
        assert any(c.satisfies(x) for c, _ in out) == on_boundary, x
    # each cell comes with a point of its own
    assert all(c.satisfies(point) for c, point in out)


def _difference_lps(origin, start, subtrahends):
    """The witness, and the LPs of both entries: solve_lp misses and
    phase-2 LPs from the origin."""
    for cached in (canonical_form, solve_lp, strict_feasible):
        cached.cache_clear()
    origin.clear()
    wit = difference_witness(start, subtrahends)
    return wit, solve_lp.cache_info().misses + len(origin)


def test_difference_witness_lp_budget(monkeypatch):
    # each cell carries a point, which settles the branch or the affirmed
    # part with no LP, and a branch that reverses a row of the cell is
    # empty with none; the cells left live on at most two free columns,
    # where elimination finds their points with no LP; so only the final
    # witness, strict_feasible's, takes one; the counts do not drift with
    # the machine
    origin = origin_lp_calls(monkeypatch)
    sq = SQUARE.closed_system()
    ri = canonical_form(SQUARE).ri_system()
    dot_cell = MixedSystem(2, (), (), (((F(1), F(0)), F(1, 2)), ((F(0), F(1)), F(0))))
    z = ph.ri_point(SQUARE)
    wit, lps = _difference_lps(origin, [(sq, z)], [ri, dot_cell])
    assert wit == (F(0), F(1))
    assert lps == 1
    wit, lps = _difference_lps(origin, [(ri, z)], [sq])
    assert wit is None
    assert lps == 0


def test_difference_witness_none_when_covered():
    sq = SQUARE.closed_system()
    z = ph.ri_point(SQUARE)
    assert difference_witness([(sq, z)], [sq]) is None
    ri = canonical_form(SQUARE).ri_system()
    assert difference_witness([(ri, z)], [sq]) is None


def test_difference_witness_found():
    sq = SQUARE.closed_system()
    ri = canonical_form(SQUARE).ri_system()
    z = ph.ri_point(SQUARE)
    wit = difference_witness([(sq, z)], [ri])
    assert wit is not None
    assert sq.satisfies(wit) and not ri.satisfies(wit)
    # removing a single point leaves a witness exactly on that point's cell
    dot_cell = MixedSystem(2, (), (), (((F(1), F(0)), F(1, 2)), ((F(0), F(1)), F(0))))
    wit2 = difference_witness([(sq, z)], [dot_cell])
    assert wit2 is not None and wit2 != (F(1, 2), F(0))
