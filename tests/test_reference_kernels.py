"""The shadow taken from generators (polyhedron.shadow), against the
Fraction Fourier-Motzkin projection it replaced; the integer subtraction
cells and the face-walk decomposition of mixed systems, against the
former constructions; all kept here as references.  The strict points
and the LPs solved by elimination on at most two free columns, against
the simplex.

Canonical forms are unique, so the shadows are compared canonicalized;
subtraction cells and their points must be the same rows in the same
order, compared by repr, and so must the pieces of a decomposition.
Every system the integer constructions hand on equals the system built
from the Fraction rows of its reference construction, with the same hash
and the same Fraction view.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction as F

from instances import clear_caches, origin_lp_calls
from ncvx import linalg as la
from ncvx import lp
from ncvx import oracle as orc
from ncvx import polyhedron as ph
from ncvx.lp import MixedSystem, strict_feasible
from ncvx.polyhedron import (
    HPoly,
    canonical_form,
    closure_hpoly,
    decompose_mixed,
    subtract_cells,
)

# ---------------------------------------------------------------------------
# the former Fraction constructions


def _norm_ineq(a, b):
    joint = la.primitive(a + (b,))
    return joint[:-1], joint[-1]


def _norm_eq(a, b):
    joint = la.primitive(a + (b,))
    if next((v for v in joint if v != 0), la.ZERO) < 0:
        joint = la.neg(joint)
    return joint[:-1], joint[-1]


def _fraction_dedupe(m):
    weak, strict, false_weak, false_strict = {}, {}, [], []
    for a, b in m.weak:
        if la.is_zero(a):
            if b < 0:
                false_weak.append((a, b))
            continue
        a, b = _norm_ineq(a, b)
        if a not in weak or b < weak[a]:
            weak[a] = b
    for a, b in m.strict:
        if la.is_zero(a):
            if b <= 0:
                false_strict.append((a, b))
            continue
        a, b = _norm_ineq(a, b)
        if a not in strict or b < strict[a]:
            strict[a] = b
    for a in list(weak):
        if a in strict and strict[a] <= weak[a]:
            del weak[a]
    eq = []
    for a, b in m.eq:
        if la.is_zero(a):
            if b != 0:
                false_weak.append((la.zeros(m.dim), F(-1)))
            continue
        eq.append(_norm_eq(a, b))
    return MixedSystem(
        m.dim,
        tuple(sorted(weak.items())) + tuple(false_weak),
        tuple(sorted(strict.items())) + tuple(false_strict),
        tuple(sorted(set(eq))),
    )


def _drop(v, idx):
    return v[:idx] + v[idx + 1 :]


def _fraction_eliminate(m, idx):
    pivot = next(((a, b) for a, b in m.eq if a[idx] != 0), None)
    if pivot is not None:
        pa, pb = pivot

        def subst(row):
            a, b = row
            if a[idx] != 0:
                f = a[idx] / pa[idx]
                a, b = la.sub(a, la.scale(pa, f)), b - f * pb
            return _drop(a, idx), b

        rest = tuple(subst(r) for r in m.eq if r != pivot)
        return MixedSystem(m.dim - 1, tuple(subst(r) for r in m.weak), (), rest)
    stay, pos, neg = [], [], []
    for a, b in m.weak:
        if a[idx] > 0:
            pos.append((a, b))
        elif a[idx] < 0:
            neg.append((a, b))
        else:
            stay.append((_drop(a, idx), b))
    for (ap, bp), (an, bn) in itertools.product(pos, neg):
        a = la.add(la.scale(ap, -an[idx]), la.scale(an, ap[idx]))
        stay.append((_drop(a, idx), -an[idx] * bp + ap[idx] * bn))
    eq = tuple((_drop(a, idx), b) for a, b in m.eq)
    return MixedSystem(m.dim - 1, tuple(stay), (), eq)


def _fraction_shadow(m, keep):
    current = _fraction_dedupe(m)
    for idx in sorted(set(range(m.dim)) - set(keep), reverse=True):
        current = _fraction_dedupe(_fraction_eliminate(current, idx))
    return HPoly(current.dim, current.weak, current.eq)


def _fraction_reverses_a_row(m, br):
    if br.strict:
        (c, d), = br.strict
        back = (la.neg(c), -d)
        return back in m.weak or back in m.strict or back in m.eq or (c, d) in m.eq
    (c, d), = br.weak
    return (la.neg(c), -d) in m.strict


def _fraction_subtract_cells(cells, sub):
    out = []
    items = (
        [("w", a, b) for a, b in sub.weak]
        + [("s", a, b) for a, b in sub.strict]
        + [("e", a, b) for a, b in sub.eq]
    )
    for cell, point in cells:
        if not (sub.satisfies(point) or ph.strict_point(cell.combine(sub)) is not None):
            out.append((cell, point))
            continue
        affirmed, inside = cell, point
        for kind, a, b in items:
            if inside is None:
                inside = ph.strict_point(affirmed)
                if inside is None:
                    break
            if kind == "w":
                branches = [MixedSystem(cell.dim, (), ((la.neg(a), -b),), ())]
                keep = MixedSystem(cell.dim, ((a, b),), (), ())
            elif kind == "s":
                branches = [MixedSystem(cell.dim, ((la.neg(a), -b),), (), ())]
                keep = MixedSystem(cell.dim, (), ((a, b),), ())
            else:
                branches = [
                    MixedSystem(cell.dim, (), ((a, b),), ()),
                    MixedSystem(cell.dim, (), ((la.neg(a), -b),), ()),
                ]
                keep = MixedSystem(cell.dim, (), (), ((a, b),))
            for br in branches:
                cand = affirmed.combine(br)
                if br.satisfies(inside):
                    found = inside
                elif _fraction_reverses_a_row(affirmed, br):
                    found = None
                else:
                    found = ph.strict_point(cand)
                if found is not None:
                    out.append((_fraction_dedupe(cand), found))
            affirmed = affirmed.combine(keep)
            if not keep.satisfies(inside):
                inside = None
    return out


def _recursive_decompose(m, memo):
    """The former decompose_mixed: nothing when m has no strict point,
    else the canonical closure of m and, for each of its facet rows, the
    pieces of m with that row made an equality."""
    if m not in memo:
        pieces = set()
        if strict_feasible(m).feasible:
            base = canonical_form(closure_hpoly(m))
            pieces.add(base)
            for row in base.ineq:
                facet = m.combine(MixedSystem(m.dim, (), (), (row,)))
                pieces.update(_recursive_decompose(facet, memo))
        memo[m] = tuple(sorted(pieces, key=lambda q: (len(q.eq), q.eq, q.ineq)))
    return memo[m]


# ---------------------------------------------------------------------------
# seeded inputs


def _rows(rng, dim, k, free=()):
    """k rows with small coefficients, some of them fractional, and zero
    in the free columns."""
    out = []
    for _ in range(k):
        a = [0 if j in free else rng.randint(-3, 3) for j in range(dim)]
        den = rng.choice((1, 1, 2, 3))
        out.append((la.vec([F(v, den) for v in a]), F(rng.randint(-2, 4), den)))
    return tuple(out)


def _closed_systems(count, seed):
    """(system, keep, kind) for closed systems with equalities, empty ones,
    free columns, and zero rows; keep is one column, all but one, or a
    random set, in turn."""
    rng = random.Random(seed)
    for i in range(count):
        dim = 2 + i % 4
        kind = ("eq", "empty", "free", "plain")[(i // 3) % 4]
        free = {rng.randrange(dim)} if kind == "free" else set()
        weak = _rows(rng, dim, rng.randint(2, 6), free)
        eq = _rows(rng, dim, rng.randint(1, 2), free) if kind == "eq" else ()
        if kind == "empty":
            (a, b), = _rows(rng, dim, 1)
            weak += ((a, b), (la.neg(a), -b - rng.randint(1, 2)))
        if rng.random() < 0.1:
            zero = (la.zeros(dim), F(rng.randint(-1, 1)))
            weak, eq = (weak + (zero,), eq) if rng.random() < 0.5 else (weak, eq + (zero,))
        if i % 3 == 0:
            keep = [rng.randrange(dim)]
        elif i % 3 == 1:
            keep = sorted(set(range(dim)) - {rng.randrange(dim)})
        else:
            keep = sorted(rng.sample(range(dim), rng.randint(1, dim - 1)))
        yield MixedSystem(dim, weak, (), eq), keep, kind


def _mixed(rng, dim):
    weak = _rows(rng, dim, rng.randint(0, 2))
    strict = _rows(rng, dim, rng.randint(0, 2))
    eq = _rows(rng, dim, 1) if rng.random() < 0.25 else ()
    return MixedSystem(dim, weak, strict, eq)


def _decomposed_systems(count, seed):
    """(system, kind) from a piece of an oracle.random_ncset set in dims
    1-3, in turn: some of its facet rows made strict, random strict rows
    added, the reverse of a weak row added (with random strict rows), and
    a random strict row with its reverse made weak, which is empty."""
    rng = random.Random(seed)
    for i in range(count):
        dim = 1 + i % 3
        base = rng.choice(orc.random_ncset(rng, dim, orc.LEAN_SPEC).pieces).base
        weak, strict = list(base.ineq), []
        kind = ("facets", "random", "reverse", "empty")[i % 4]
        if kind == "facets" and weak:
            rng.shuffle(weak)
            k = rng.randint(1, len(weak))
            weak, strict = weak[k:], weak[:k]
        elif kind == "reverse" and weak:
            a, b = rng.choice(weak)
            weak.append((la.neg(a), -b))
            strict = list(_rows(rng, dim, rng.randint(0, 2)))
        elif kind == "empty":
            (a, b), = _rows(rng, dim, 1)
            weak, strict = weak + [(la.neg(a), -b)], [(a, b)]
        else:
            kind = "random"
            strict = list(_rows(rng, dim, rng.randint(1, 3)))
        yield MixedSystem(dim, tuple(weak), tuple(strict), base.eq), kind


def _few_free_columns(count, seed):
    """(system, kind) for mixed systems in dims 1-4 whose equality rows,
    with the weak rows whose reverse is also a weak row, leave at most two
    free columns, in turn: equality rows, weak pairs, parallel, duplicate
    and opposite rows, an empty closure, a strict row held tight by its
    weak reverse, and one row or none (unbounded)."""
    rng = random.Random(seed)
    kinds = ("eq", "pair", "parallel", "empty", "tight", "unbounded")
    for i in range(count):
        dim = 1 + i % 4
        kind = kinds[(i // 4) % len(kinds)]
        # rows diagonal on the cut columns take out dim - 2 columns, or more
        cut = rng.sample(range(dim), max(0, dim - 2) + (rng.random() < 0.3 and dim > 0))
        cuts = []
        for j in cut:
            a = [0 if k in cut else rng.randint(-2, 2) for k in range(dim)]
            a[j] = rng.choice((-2, -1, 1, 3))
            cuts.append((la.vec(a), F(rng.randint(-2, 2), rng.choice((1, 2)))))
        pairs = kind == "pair" or (kind != "eq" and rng.random() < 0.5)
        eq = () if pairs else tuple(cuts)
        weak = [r for a, b in cuts for r in ((a, b), (la.neg(a), -b))] if pairs else []
        weak += _rows(rng, dim, rng.randint(0, 2))
        strict = list(_rows(rng, dim, rng.randint(0, 2)))
        (a, b), = _rows(rng, dim, 1)
        if kind == "parallel":
            weak.append((a, b))
            strict.append((la.scale(a, F(2)), 2 * b))  # a duplicate, scaled
            (weak if rng.random() < 0.5 else strict).append((a, b + 1))  # parallel
            (weak if rng.random() < 0.5 else strict).append((la.neg(a), -b + rng.randint(0, 2)))
        elif kind == "empty":
            weak += [(a, b), (la.neg(a), -b - rng.randint(1, 2))]
        elif kind == "tight":
            weak, strict = weak[: 2 * len(cut)] if pairs else [], [(a, b)]
            weak.append((la.neg(a), -b))
        elif kind == "unbounded":
            weak, strict = weak[: 2 * len(cut)] if pairs else [], strict[:1]
        yield MixedSystem(dim, tuple(weak), tuple(strict), eq), kind


def _least_cases(count, seed):
    """(system, cost, kind) for closed systems in dims 0-2, and in dims 3-4
    with equality rows that leave at most two free columns, in turn: plain
    rows, equality rows (some inconsistent), a cost zero on the free
    columns, an empty system, parallel and duplicate rows, and no weak
    row at all."""
    rng = random.Random(seed)
    kinds = ("plain", "eq", "zero cost", "empty", "parallel", "no rows")
    for i in range(count):
        kind = kinds[i % len(kinds)]
        dim = (i // len(kinds)) % 5
        # rows diagonal on the cut columns take out dim - 2 columns, or more
        more = kind == "eq" and dim > 0 and rng.random() < 0.3
        cut = rng.sample(range(dim), max(0, dim - 2) + more)
        eq = []
        for j in cut:
            a = [0 if k in cut else rng.randint(-2, 2) for k in range(dim)]
            a[j] = rng.choice((-2, -1, 1, 3))
            eq.append((la.vec(a), F(rng.randint(-2, 2), rng.choice((1, 2)))))
        if kind == "eq" and not cut and dim:
            eq += _rows(rng, dim, 1)
        if kind == "eq" and rng.random() < 0.25:
            a, b = eq[0] if eq else (la.zeros(dim), F(0))
            eq.append((la.scale(a, F(2)), 2 * b + rng.choice((0, 1))))  # duplicate or 0 = 1
        weak = list(_rows(rng, dim, rng.randint(1, 5)))
        cost = la.vec([F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(dim)])
        (a, b), = _rows(rng, dim, 1)
        if kind == "zero cost":  # a combination of the equality rows
            cost = la.zeros(dim)
            for e, _ in eq:
                cost = la.add(cost, la.scale(e, F(rng.randint(-2, 2))))
        elif kind == "empty":
            weak += [(a, b), (la.neg(a), -b - rng.randint(1, 2))]
        elif kind == "parallel":
            weak += [(a, b), (la.scale(a, F(2)), 2 * b), (a, b + 1)]
            weak.append((la.neg(a), -b + rng.randint(0, 2)))
        elif kind == "no rows":
            weak = []
        yield MixedSystem(dim, tuple(weak), (), tuple(eq)), cost, kind


def _same_system(got: MixedSystem, want: MixedSystem) -> bool:
    return (
        got == want
        and hash(got) == hash(want)
        and (got.weak, got.strict, got.eq) == (want.weak, want.strict, want.eq)
    )


# ---------------------------------------------------------------------------
# tests


def test_integer_shadow_matches_the_fraction_shadow():
    seen = {"eq": 0, "empty": 0, "lineality": 0, "one": 0, "all but one": 0}
    for m, keep, kind in _closed_systems(320, seed=2003):
        got = ph.shadow(m, keep)
        want = canonical_form(_fraction_shadow(m, keep))
        assert got == want, (m, keep)
        dropped = [c for c in range(m.dim) if c not in keep]
        seen["eq"] += kind == "eq" and any(a[c] for a, _ in m.eq for c in dropped)
        seen["empty"] += got is None
        if got is not None:
            normals = [a for a, _ in got.ineq + got.eq]
            seen["lineality"] += not normals or la.rank(normals) < len(keep)
        seen["one"] += len(keep) == 1
        seen["all but one"] += len(keep) == m.dim - 1 > 1
    assert min(seen.values()) >= 40, seen


def test_integer_cells_match_the_fraction_cells():
    rng = random.Random(2011)
    changed = 0
    for i in range(160):
        dim = 1 + i % 3
        cells = []
        for _ in range(rng.randint(1, 3)):
            cell = _mixed(rng, dim)
            point = ph.strict_point(cell)
            if point is not None:
                cells.append((cell, point))
        subs = [_mixed(rng, dim) for _ in range(2)]
        if cells and rng.random() < 0.4:  # a subtrahend sharing rows with a cell
            base = cells[0][0]
            subs[0] = MixedSystem(dim, base.strict, base.weak, subs[0].eq)
        got, want = cells, cells
        for sub in subs:
            got, want = subtract_cells(got, sub), _fraction_subtract_cells(want, sub)
            assert repr(got) == repr(want)
            changed += repr(got) != repr(cells)
    assert changed >= 100, changed


def test_shadows_cells_and_pullbacks_match_their_fraction_construction():
    for m, keep, _ in _closed_systems(60, seed=2017):
        shadow = ph.shadow(m, keep) or ph.empty_hpoly(len(keep))
        rebuilt = MixedSystem(shadow.dim, shadow.ineq, (), shadow.eq)
        assert _same_system(shadow.closed_system(), rebuilt), (m, keep)
        assert canonical_form(shadow) == canonical_form(_fraction_shadow(m, keep))
    rng = random.Random(2027)
    cells = 0
    for i in range(60):
        dim = 1 + i % 3
        cell = _mixed(rng, dim)
        point = ph.strict_point(cell)
        if point is None:
            continue
        sub = _mixed(rng, dim)
        got = subtract_cells([(cell, point)], sub)
        want = _fraction_subtract_cells([(cell, point)], sub)
        assert len(got) == len(want)
        for (out, z), (ref, w) in zip(got, want):
            assert _same_system(out, ref) and z == w, out
            cells += 1
        t = tuple(
            la.vec([F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(2)])
            for _ in range(dim)
        )
        shift = la.vec([F(rng.randint(-2, 2), rng.choice((1, 3))) for _ in range(dim)])
        pulled = cell.pullback(t, shift)
        rows = [
            tuple((la.mat_t_vec(t, a), b - la.dot(a, shift)) for a, b in block)
            for block in (cell.weak, cell.strict, cell.eq)
        ]
        assert _same_system(pulled, MixedSystem(2, *rows))
    assert cells >= 30, cells


def test_face_walk_decomposition_matches_the_recursion():
    memo = {}
    seen = Counter()
    for m, kind in _decomposed_systems(240, seed=2039):
        got, want = decompose_mixed(m), _recursive_decompose(m, memo)
        assert got == want and repr(got) == repr(want), m
        seen[kind] += 1
        seen["no piece"] += not want
        seen["several pieces"] += len(want) > 1
        seen["lower-dimensional"] += bool(want) and bool(want[0].eq)
    print(dict(seen))
    assert min(seen.values()) >= 20, seen
    assert seen["no piece"] >= seen["empty"] + 20, seen


def test_decompose_mixed_runs_no_strict_lp(monkeypatch):
    # only the root's canonical form runs LPs, phase 2 from the origin;
    # no strict_feasible call and no solve_lp miss, from cold caches
    calls = []

    def counted(system, real=strict_feasible):
        calls.append(system)
        return real(system)

    monkeypatch.setattr(ph, "strict_feasible", counted)
    pieces = 0
    for m, _ in _decomposed_systems(60, seed=2053):
        clear_caches()
        pieces += len(decompose_mixed(m))
        assert lp.solve_lp.cache_info().misses == 0, m
        assert lp.strict_feasible.cache_info().misses == 0, m
    assert calls == [] and pieces > 60, pieces


def test_eliminated_points_match_the_two_phase_kernel(monkeypatch):
    # on at most two free columns the relative interior of the closure and
    # the strict point come by elimination, with no LP from the origin;
    # the closure has a point exactly when feasible_point finds one, the
    # system a strict point exactly when strict_feasible finds a witness,
    # and every point holds the rows: the closure's point its closed rows,
    # and the strict point, which is the closure's when that holds the
    # strict rows strictly, the system
    origin = origin_lp_calls(monkeypatch)
    seen = Counter()
    for m, kind in _few_free_columns(480, seed=2063):
        weak, _, eq = (ph._flat(block) for block in m.closed().rows)
        reduced = ph._eliminate_int(m.dim, [*eq, *ph._hyperplanes(weak)], weak)
        found = None if reduced is None else ph._relative_interior(m.dim, *reduced)
        assert (found is not None) == (lp.feasible_point(m.closed()).status == "optimal"), m
        point = ph.strict_point(m)
        assert (point is not None) == (strict_feasible(m).witness is not None), m
        if found is not None:
            z = tuple(F(v, found[2][1]) for v in found[2][0])
            assert m.closed().satisfies(z), m
            assert point == (z if m.satisfies(z) else None), m
        if point is not None:
            assert m.satisfies(point), m
        if reduced is not None:
            seen[f"{m.dim - len(reduced[0])} free"] += 1
        seen[kind] += 1
        answer = "strict point" if point is not None else "no strict point"
        seen[answer if found is not None else "no point"] += 1
        seen[f"dim {m.dim}"] += 1
    print(dict(seen))
    assert min(seen.values()) >= 30, seen
    assert origin == []


def _check_multipliers(m, cost, found):
    """The multipliers of ph._least, rechecked in Fractions: y >= 0 on at
    most two rows (four with no point) and lam, with y.A + lam c = -mu.E
    for some mu (la.solve_linear); the bound -(y.b + mu.d) / lam is the
    value at the optimum, and y.b + mu.d < 0 with no point.  Equalities
    with no solution need no weak multiplier."""
    status, point, _, y, lam = found
    if status == "unbounded":
        assert not y and not lam
        return
    weak, _, eq = m.rows
    c, _ = lp._integer_point(cost) if cost else ([], 1)
    assert all(v >= 0 for v in y.values()) and len(y) <= (2 if lam else 4)
    v = [F(lam * x) for x in c]
    yb = 0
    for i, w in y.items():
        a, b, _ = weak[i]
        v = [x + w * ai for x, ai in zip(v, a)]
        yb += w * b
    if status == "infeasible" and not y:
        assert la.solve_linear(tuple(a for a, _ in m.eq), tuple(b for _, b in m.eq)) is None
        return
    rows = tuple(tuple(F(e[j]) for e, _, _ in eq) for j in range(m.dim))
    solved = la.solve_linear(rows, tuple(-x for x in v))
    assert solved is not None, (m, cost)
    total = yb + sum(mu * d for mu, (_, d, _) in zip(solved[0], eq))
    if lam:
        assert -F(total) / lam == F(lp._dot(c, point[0]), point[1]), (m, cost)
    else:
        assert total < 0, (m, cost)


def test_least_matches_the_simplex(monkeypatch):
    # status and value against lp.solve_lp; every point holds the rows,
    # every ray recedes in them and lowers the cost, and the multipliers
    # are checked again here.  Mutations on a copy, each caught: the
    # substitution sign of t = c.x flipped, the upper bound of t taken
    # for the lower, and the equality multipliers dropped from the check
    origin = origin_lp_calls(monkeypatch)
    seen = Counter()
    for m, cost, kind in _least_cases(720, seed=2411):
        c = lp._integer_point(cost) if cost else ([], 1)
        got, want = ph.least(m, c), lp.solve_lp(cost, m)
        assert got.status == want.status and got.value == want.value, (m, cost)
        if got.status != "infeasible":
            assert m.satisfies(got.witness), (m, cost)
        if got.status == "unbounded":
            ray = got.certificate
            assert m.homogeneous().satisfies(ray) and la.dot(cost, ray) < 0, (m, cost)
        weak, _, eq = m.rows
        _check_multipliers(m, cost, ph._least(m.dim, eq, weak, c[0]))
        echelon = ph._echelon(m.dim, ph._flat(eq))
        seen[got.status] += 1
        seen[kind] += 1
        seen[f"dim {m.dim}"] += 1
        if echelon is not None:
            seen[f"{m.dim - len(echelon[1])} free"] += 1
    print(dict(seen))
    assert min(seen.values()) >= 40, seen
    assert origin == []
