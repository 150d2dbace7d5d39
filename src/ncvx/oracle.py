"""Brute-force verifiers and randomized theorem suites.

The checking layer prefers enumeration and direct linear algebra over the
simplex so that solver bugs cannot confirm themselves: membership scans a
rational lattice in exact integer arithmetic, conjugates and supports are
swept over generator sets, relative interiors come from double-description
rows evaluated directly, and existential questions are settled by a small
Fourier-Motzkin eliminator. The suites draw seeded random instances, run
a library identity next to the matching oracle, and report reproducer
seeds for every failure.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from . import conjugate as cj
from . import duality as du
from . import linalg as la
from . import ncset as ns
from . import plfunc as pl
from . import polyhedron as ph
from . import svmap as sv
from . import variational as vr
from .errors import (
    CertificateError,
    IdentityViolated,
    NcvxError,
    SamplingExhausted,
    UnknownTheorem,
    UsageError,
)
from .linalg import Mat, Vec
from .lp import MixedSystem
from .ncset import NCSet
from .plfunc import MINUS_INF, PLUS_INF, PLFunction, Value
from .polyhedron import HPoly
from .rationals import format_vector
from .svmap import SVMap


@dataclass(frozen=True)
class InstanceSpec:
    """Caps for the random instance generator. Sets are built inside the
    bounding box, from a random polytope plus face selections or a single
    split, so every generated set is nearly convex by construction."""

    seed: int = 0
    max_dim: int = 3
    max_pieces: int = 4
    max_rows: int = 6
    max_den: int = 8
    bound: int = 4


DEFAULT_SPEC = InstanceSpec()

# trimmed caps for checkers whose library side stacks several LP layers
LEAN_SPEC = InstanceSpec(max_pieces=3, max_rows=4)
ULTRA_SPEC = InstanceSpec(max_pieces=2, max_rows=3)

F = Fraction


# ---------------------------------------------------------------------------
# random rationals and polytopes


def _coef(rng: random.Random) -> Fraction:
    return F(rng.randint(-2, 2))


def _rhs(rng: random.Random, spec: InstanceSpec) -> Fraction:
    return F(rng.randint(0, spec.bound), rng.choice((1, 1, 1, 2, spec.max_den // 2)))


def _anchor_point(rng: random.Random, dim: int, spec: InstanceSpec) -> Vec:
    half = spec.bound  # numerators over den 2 stay inside half the box
    return tuple(F(rng.randint(-half, half), 2) for _ in range(dim))


def _box_rows(dim: int, bound: int) -> list:
    rows = []
    for i in range(dim):
        rows.append((la.unit(dim, i), F(bound)))
        rows.append((la.neg(la.unit(dim, i)), F(bound)))
    return rows


def random_polytope(
    rng: random.Random, dim: int, spec: InstanceSpec, anchor: Optional[Vec] = None
) -> HPoly:
    """A canonical nonempty polytope in the box; when an anchor is given
    it lies strictly inside every inequality (and on every equality)."""
    while True:
        rows = _box_rows(dim, spec.bound)
        for _ in range(rng.randint(0, spec.max_rows - 1)):
            c = tuple(_coef(rng) for _ in range(dim))
            if la.is_zero(c):
                continue
            rows.append((c, _rhs(rng, spec)))
        eqs = []
        if dim > 1 and rng.random() < 0.25:
            c = tuple(_coef(rng) for _ in range(dim))
            if not la.is_zero(c):
                t = la.dot(c, anchor) if anchor else _rhs(rng, spec)
                eqs.append((c, t))
        if anchor is not None:
            rows = [
                (c, b if la.dot(c, anchor) < b else la.dot(c, anchor) + 1)
                for c, b in rows
            ]
        p = ph.canonical_form(ph.hpoly(dim, ineq=rows, eq=eqs))
        if p is not None:
            return p


def _vertices(p: HPoly) -> tuple[Vec, ...]:
    return ph.to_vrep(p).points


def random_ncset(
    rng: random.Random, dim: int, spec: InstanceSpec, anchor: Optional[Vec] = None
) -> NCSet:
    """A nearly convex set built from one polytope: its ri, a face
    selection, a wall split through an interior point, or (small cases)
    the whole closed polytope. The anchor, when given, lies in ri(hull)
    and in the set itself."""
    if anchor is None:
        anchor = _anchor_point(rng, dim, spec)
    p = random_polytope(rng, dim, spec, anchor)
    mode = rng.choice(("ri", "faces", "split", "closed"))
    if mode == "faces":
        subsets: list[tuple[int, ...]] = [()]
        idx = range(len(p.ineq))
        for _ in range(rng.randint(1, spec.max_pieces - 1)):
            k = rng.randint(1, max(1, min(2, len(p.ineq))))
            subsets.append(tuple(sorted(rng.sample(list(idx), k))) if p.ineq else ())
        return ns.from_closure_and_faces(p, subsets)
    if mode == "split":
        verts = _vertices(p)
        if len(verts) >= 2:
            v1, v2 = rng.sample(list(verts), 2)
            c = la.primitive(la.sub(v2, v1))
            beta = la.dot(c, anchor)
            lo = HPoly(dim, p.ineq + ((c, beta),), p.eq)
            hi = HPoly(dim, p.ineq + ((la.neg(c), -beta),), p.eq)
            wall = HPoly(dim, p.ineq, p.eq + ((c, beta),))
            return ns.ncset(dim, [lo, hi, wall])
        mode = "ri"
    if mode == "closed" and len(ph.faces(p)) <= spec.max_pieces:
        return ns.from_closed_hpoly(p)
    return ns.ncset(dim, [p])


# corrupted counterparts: each breaks ri(hull) subset-of union, provably


def corrupt_shell(rng: random.Random, dim: int, spec: InstanceSpec) -> NCSet:
    """The union of two or more proper faces of a polytope; the centroid
    of the face barycenters lands in ri(hull) but outside every piece."""
    while True:
        p = random_polytope(rng, dim, spec)
        if len(_vertices(p)) < 2:
            continue
        proper = [f for f in ph.faces(p) if f != p]
        if len(proper) < 2:
            continue
        take = rng.randint(2, min(3, len(proper)))
        chosen = rng.sample(proper, take)
        # if one chosen face swallows all pooled vertices (a face plus its
        # own sub-face), the union is genuinely nearly convex; skip it
        gens = [v for f in chosen for v in ph.to_vrep(f).points]
        if any(all(f.contains(v) for v in gens) for f in chosen):
            continue
        return ns.ncset(dim, chosen)


def corrupt_split_without_wall(
    rng: random.Random, dim: int, spec: InstanceSpec
) -> NCSet:
    """Both open halves of a wall split, with the wall itself missing."""
    while True:
        anchor = _anchor_point(rng, dim, spec)
        p = random_polytope(rng, dim, spec, anchor)
        verts = _vertices(p)
        if len(verts) < 2:
            continue
        v1, v2 = rng.sample(list(verts), 2)
        c = la.primitive(la.sub(v2, v1))
        beta = la.dot(c, anchor)
        lo = HPoly(dim, p.ineq + ((c, beta),), p.eq)
        hi = HPoly(dim, p.ineq + ((la.neg(c), -beta),), p.eq)
        return ns.ncset(dim, [lo, hi])


def _translate_hpoly(p: HPoly, t: Vec) -> HPoly:
    ineq = tuple((a, b + la.dot(a, t)) for a, b in p.ineq)
    eq = tuple((a, b + la.dot(a, t)) for a, b in p.eq)
    return HPoly(p.dim, ineq, eq)


def corrupt_translate(rng: random.Random, s: NCSet) -> NCSet:
    """Append a far translate of a piece whose barycenter is interior to
    the hull; the segment to the copy crosses an empty middle region."""
    rows = _hull_ri_rows(s)
    pick = next(
        pc
        for pc in s.pieces
        if rows is not None and _in_ri_rows(rows, ns.piece_ri_point(pc))
    )
    shift = (F(24),) + la.zeros(s.dim - 1)
    bases = [pc.base for pc in s.pieces] + [_translate_hpoly(pick.base, shift)]
    return ns.ncset(s.dim, bases)


def random_corrupted(rng: random.Random, dim: int, spec: InstanceSpec) -> NCSet:
    mode = rng.choice(("shell", "nowall", "translate"))
    if mode == "shell":
        return corrupt_shell(rng, dim, spec)
    if mode == "nowall":
        return corrupt_split_without_wall(rng, dim, spec)
    return corrupt_translate(rng, random_ncset(rng, dim, spec))


# ---------------------------------------------------------------------------
# generator pooling and double-description hull rows


def _pooled_generators(s: NCSet) -> tuple[list[Vec], list[Vec]]:
    pts: list[Vec] = []
    rays: list[Vec] = []
    for pc in s.pieces:
        v = ph.to_vrep(pc.base)
        pts.extend(v.points)
        rays.extend(v.rays)
    return pts, rays


def _rows_from_generators(
    dim: int, pts: Sequence[Vec], rays: Sequence[Vec]
) -> tuple[tuple, tuple]:
    """(inequality rows, equality rows) of conv(pts) + cone(rays), via one
    double-description run on the homogenization; the relative interior is
    exactly where every inequality is strict and every equality holds."""
    gens = [p + (la.ONE,) for p in pts] + [r + (la.ZERO,) for r in rays]
    lin, rr = ph._cone_generators(dim + 1, [la.neg(g) for g in gens])
    ineq = tuple((r[:dim], -r[dim]) for r in rr)
    eq = tuple((l[:dim], -l[dim]) for l in lin)
    return ineq, eq


def _hull_ri_rows(s: NCSet) -> Optional[tuple[tuple, tuple]]:
    pts, rays = _pooled_generators(s)
    if not pts:
        return None
    return _rows_from_generators(s.dim, pts, rays)


def _in_ri_rows(rows: tuple[tuple, tuple], x: Vec) -> bool:
    ineq, eq = rows
    return all(la.dot(a, x) == b for a, b in eq) and all(
        la.dot(a, x) < b for a, b in ineq
    )


def _in_hull_rows(rows: tuple[tuple, tuple], x: Vec) -> bool:
    ineq, eq = rows
    return all(la.dot(a, x) == b for a, b in eq) and all(
        la.dot(a, x) <= b for a, b in ineq
    )


@dataclass(frozen=True)
class _Rows:
    """Weak, strict and equality rows in Fractions, as the oracle builds
    them; unlike a MixedSystem's, they are read back as given."""

    dim: int
    weak: tuple = ()
    strict: tuple = ()
    eq: tuple = ()


def _joined(a: _Rows | MixedSystem, b: _Rows | MixedSystem) -> _Rows:
    """The rows of a, then those of b, block by block."""
    return _Rows(a.dim, a.weak + b.weak, a.strict + b.strict, a.eq + b.eq)


def _ri_rows_as_system(dim: int, rows: tuple[tuple, tuple]) -> _Rows:
    ineq, eq = rows
    return _Rows(dim, (), ineq, eq)


# ---------------------------------------------------------------------------
# lattice scans (numpy fast path with exact integer arithmetic)


@lru_cache(maxsize=32)
def _np_lattice(dim: int, den: int, bound: int) -> np.ndarray:
    axis = np.arange(-bound * den, bound * den + 1, dtype=np.int64)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


def _np_row(a: Vec, b: Fraction, pts: np.ndarray, den: int, op: str) -> np.ndarray:
    scale = math.lcm(b.denominator, *(f.denominator for f in a))
    ai = [int(f * scale) for f in a]
    bi = int(b * scale) * den
    limit = max((abs(v) for v in ai), default=0) * den * len(a) * (
        int(pts.max(initial=0)) + 1
    )
    if max(limit, abs(bi)) >= 2**62:  # exact fallback off the int64 fast path
        vals = [sum(c * int(k) for c, k in zip(ai, row)) for row in pts]
        lhs = np.array([v < bi if op == "<" else v <= bi if op == "<=" else v == bi
                        for v in vals])
        return lhs
    lhs = pts @ np.array(ai, dtype=np.int64)
    if op == "<":
        return lhs < bi
    if op == "<=":
        return lhs <= bi
    return lhs == bi


def _np_system_mask(ms: _Rows | MixedSystem, pts: np.ndarray, den: int) -> np.ndarray:
    mask = np.ones(len(pts), dtype=bool)
    for a, b in ms.weak:
        mask &= _np_row(a, b, pts, den, "<=")
    for a, b in ms.strict:
        mask &= _np_row(a, b, pts, den, "<")
    for a, b in ms.eq:
        mask &= _np_row(a, b, pts, den, "==")
    return mask


def _np_union_mask(
    systems: Sequence[MixedSystem], pts: np.ndarray, den: int
) -> np.ndarray:
    mask = np.zeros(len(pts), dtype=bool)
    for msys in systems:
        mask |= _np_system_mask(msys, pts, den)
    return mask


def _point_of(row: np.ndarray, den: int) -> Vec:
    return tuple(F(int(k), den) for k in row)


def _set_systems(s: NCSet) -> list[MixedSystem]:
    return [pc.base.ri_system() for pc in s.pieces]


Membership = Union[NCSet, Callable[[Vec], bool]]


def grid_membership_oracle(
    got: NCSet,
    expected: Membership,
    denominator: int = 16,
    bound: Optional[int] = None,
    extra_points: Sequence[Vec] = (),
) -> list[tuple[Vec, bool, bool]]:
    """Mismatches between a computed set and a reference membership test,
    over the rational lattice of the given denominator plus the piece
    barycenters of both sides. Empty list means agreement."""
    dim = got.dim
    bound = DEFAULT_SPEC.bound if bound is None else bound
    is_set = isinstance(expected, NCSet)
    exp_fn = (lambda x: ns.membership(expected, x)) if is_set else expected

    mismatches: list[tuple[Vec, bool, bool]] = []
    probes = list(extra_points)
    probes += [ns.piece_ri_point(pc) for pc in got.pieces]
    if is_set:
        probes += [ns.piece_ri_point(pc) for pc in expected.pieces]
    seen = set()
    for x in probes:
        if x in seen or any(abs(c) > bound * 8 for c in x):
            continue
        seen.add(x)
        e, g = exp_fn(x), ns.membership(got, x)
        if e != g:
            mismatches.append((x, e, g))

    if denominator and dim <= 3:
        pts = _np_lattice(dim, denominator, bound)
        got_mask = _np_union_mask(_set_systems(got), pts, denominator)
        if is_set:
            exp_mask = _np_union_mask(_set_systems(expected), pts, denominator)
        else:
            exp_mask = np.array([exp_fn(_point_of(r, denominator)) for r in pts])
        for i in np.nonzero(got_mask != exp_mask)[0][:8]:
            x = _point_of(pts[i], denominator)
            mismatches.append((x, bool(exp_mask[i]), bool(got_mask[i])))
    return mismatches


# ---------------------------------------------------------------------------
# near-convexity oracle straight from the definition


_LATTICE_DEN = {1: 16, 2: 8, 3: 2}


def _segment_probes(rows: Sequence[tuple], b1: Vec, b2: Vec) -> list[Vec]:
    """Points along [b1, b2]: every parameter where a row changes sign,
    midpoints of consecutive parameters, and the midpoint itself."""
    d = la.sub(b2, b1)
    params = {F(0), F(1), F(1, 2)}
    for a, b in rows:
        slope = la.dot(a, d)
        if slope != 0:
            t = (b - la.dot(a, b1)) / slope
            if 0 < t < 1:
                params.add(t)
    ordered = sorted(params)
    mids = [(u + v) / 2 for u, v in zip(ordered, ordered[1:])]
    return [la.add(b1, la.scale(d, t)) for t in ordered + mids]


def near_convexity_oracle(
    s: NCSet, denominator: Optional[int] = None
) -> tuple[bool, Optional[Vec]]:
    """Is ri(conv of the pooled generators) contained in the union? The
    reverse inclusion (union inside the closed hull) holds by
    construction, so this single scan decides near convexity. Probes:
    piece barycenters, their centroid, segment crossings between every
    barycenter pair, and a rational lattice in low dimension."""
    if not s.pieces:
        return True, None
    rows = _hull_ri_rows(s)
    if rows is None:
        raise CertificateError("a set with pieces has hull rows")
    barys = [ns.piece_ri_point(pc) for pc in s.pieces]
    for b in barys:
        if not _in_hull_rows(rows, b):
            raise IdentityViolated("piece escapes its own hull")

    probes: list[Vec] = list(barys)
    probes.append(la.scale(la.vsum(barys), F(1, len(barys))))
    seg_rows = list(rows[0]) + list(rows[1])
    for msys in _set_systems(s):
        seg_rows += list(msys.strict) + list(msys.eq)
    for i in range(len(barys)):
        for j in range(i + 1, len(barys)):
            probes += _segment_probes(seg_rows, barys[i], barys[j])
    seen = set()
    for x in probes:
        if x in seen:
            continue
        seen.add(x)
        if _in_ri_rows(rows, x) and not ns.membership(s, x):
            return False, x

    den = _LATTICE_DEN.get(s.dim) if denominator is None else denominator
    if den and s.dim <= 3:
        pts = _np_lattice(s.dim, den, DEFAULT_SPEC.bound)
        ri_mask = _np_system_mask(_ri_rows_as_system(s.dim, rows), pts, den)
        union = _np_union_mask(_set_systems(s), pts, den)
        bad = np.nonzero(ri_mask & ~union)[0]
        if len(bad):
            return False, _point_of(pts[bad[0]], den)
    return True, None


# ---------------------------------------------------------------------------
# generator sweeps for supports and conjugates


def generator_support_oracle(s: NCSet, w) -> Value:
    """sup of <w, x> over the set, swept over pooled V-rep generators."""
    w = la.vec(w)
    pts, rays = _pooled_generators(s)
    if not pts:
        return MINUS_INF
    if any(la.dot(w, r) > 0 for r in rays):
        return PLUS_INF
    return max(la.dot(w, x) for x in pts)


def generator_conjugate_oracle(f: PLFunction, w) -> Value:
    """f*(w) as the support of the epigraph at (w, -1), no LP involved."""
    w = la.vec(w)
    return generator_support_oracle(f.epi, w + (F(-1),))


# ---------------------------------------------------------------------------
# existential questions by Fourier-Motzkin, for fiber-search oracles


def _tiny_feasible(ms: _Rows | MixedSystem) -> bool:
    """Feasibility of a small mixed system by strictness-tracking
    Fourier-Motzkin elimination; meant for a handful of variables."""
    rows = [(a, b, False) for a, b in ms.weak]
    rows += [(a, b, True) for a, b in ms.strict]
    for a, b in ms.eq:
        rows.append((a, b, False))
        rows.append((la.neg(a), -b, False))
    for j in range(ms.dim - 1, -1, -1):
        pos, neg, rest = [], [], []
        for a, b, strict in rows:
            if a[j] > 0:
                pos.append((a, b, strict))
            elif a[j] < 0:
                neg.append((a, b, strict))
            else:
                rest.append((a[:j] + a[j + 1 :], b, strict))
        for ap, bp, sp in pos:
            for an, bn, sn in neg:
                coeff = la.sub(la.scale(an, ap[j]), la.scale(ap, an[j]))
                rhs = bn * ap[j] - bp * an[j]
                rest.append((coeff[:j] + coeff[j + 1 :], rhs, sp or sn))
        rows = rest
    return all(b > 0 if strict else b >= 0 for _, b, strict in rows)


def _fix_prefix(ms: _Rows | MixedSystem, x: Vec) -> _Rows:
    """Substitute the first len(x) coordinates, leaving the tail free."""
    k = len(x)

    def sub_rows(rows):
        return tuple((a[k:], b - la.dot(a[:k], x)) for a, b in rows)

    return _Rows(ms.dim - k, sub_rows(ms.weak), sub_rows(ms.strict), sub_rows(ms.eq))


def _fix_suffix(ms: _Rows | MixedSystem, y: Vec) -> _Rows:
    k = ms.dim - len(y)

    def sub_rows(rows):
        return tuple((a[:k], b - la.dot(a[k:], y)) for a, b in rows)

    return _Rows(k, sub_rows(ms.weak), sub_rows(ms.strict), sub_rows(ms.eq))


def _with_eq(ms: _Rows | MixedSystem, rows: Sequence[tuple]) -> _Rows:
    return _Rows(ms.dim, ms.weak, ms.strict, ms.eq + tuple(rows))


# ---------------------------------------------------------------------------
# probe sets for identity comparisons


@lru_cache(maxsize=32)
def _frac_lattice(dim: int, den: int, bound: int) -> tuple[Vec, ...]:
    pts = _np_lattice(dim, den, bound)
    return tuple(_point_of(row, den) for row in pts)


def _probe_dens(dim: int) -> int:
    return {1: 8, 2: 2, 3: 1}.get(dim, 0)


def _identity_probes(dim: int, *sets: NCSet, den: Optional[int] = None) -> list[Vec]:
    probes: list[Vec] = []
    den = _probe_dens(dim) if den is None else den
    if den:
        probes += list(_frac_lattice(dim, den, DEFAULT_SPEC.bound))
    for s in sets:
        probes += [ns.piece_ri_point(pc) for pc in s.pieces]
    out, seen = [], set()
    for x in probes:
        if x not in seen:
            seen.add(x)
            out.append(x)
    return out


def _compare_preds(
    probes: Iterable[Vec], *preds: Callable[[Vec], bool]
) -> Optional[str]:
    for x in probes:
        vals = [p(x) for p in preds]
        if any(v != vals[0] for v in vals[1:]):
            return f"predicates split {vals} at {format_vector(x)}"
    return None


# ---------------------------------------------------------------------------
# suite plumbing


@dataclass(frozen=True)
class SuiteReport:
    theorem: str
    count: int
    passes: int
    failures: tuple[tuple[int, str], ...]

    @property
    def ok(self) -> bool:
        return self.passes == self.count


def theorem_suite(
    theorem_id: str,
    count: int = 100,
    seed: int = 0,
    spec: InstanceSpec = DEFAULT_SPEC,
) -> SuiteReport:
    """Run one registered checker on `count` seeded instances."""
    check = _REGISTRY.get(theorem_id)
    if check is None:
        raise UnknownTheorem(f"no suite registered for {theorem_id!r}")
    if count < 1:
        raise UsageError(f"count must be at least 1, got {count}")
    failures: list[tuple[int, str]] = []
    for i in range(count):
        inst_seed = (seed + spec.seed) * 1_000_003 + i
        rng = random.Random(inst_seed)
        try:
            detail = check(rng, spec)
        except NcvxError as e:
            failures.append((inst_seed, f"{type(e).__name__}: {e}"))
        else:
            if detail is not None:
                failures.append((inst_seed, detail))
    return SuiteReport(theorem_id, count, count - len(failures), tuple(failures))


def registered_theorems() -> tuple[str, ...]:
    return tuple(_REGISTRY)


# ---------------------------------------------------------------------------
# shared generators for the checkers


def _retry(rng, build, accept, tries: int = 64):
    for _ in range(tries):
        cand = build()
        if accept(cand):
            return cand
    raise SamplingExhausted("rejection sampling exhausted its tries")


def _random_map(
    rng, spec, n: int, p: int, anchor: Optional[Vec] = None
) -> SVMap:
    graph = random_ncset(rng, n + p, spec, anchor)
    return SVMap(n, p, graph)


def _random_plf(
    rng, spec, n: int, anchor: Optional[Vec] = None
) -> PLFunction:
    domain = random_ncset(rng, n, spec, anchor)
    rows = [
        (tuple(_coef(rng) for _ in range(n)), _rhs(rng, spec))
        for _ in range(rng.randint(1, 3))
    ]
    return pl.max_affine(n, rows, domain=domain)


def _anchored_ovf(rng, spec, n: int, p: int):
    ax = _anchor_point(rng, n, spec)
    ay = _anchor_point(rng, p, spec)
    fmap = _random_map(rng, spec, n, p, anchor=ax + ay)
    f = _random_plf(rng, spec, n + p, anchor=ax + ay)
    inst = vr.build_ovf(f, fmap)
    if not inst.qc:
        raise IdentityViolated("anchored instance missed the ovf qualification")
    return inst, ax, ay


def _random_cone(rng, spec, q: int) -> pl.PolyCone:
    if rng.random() < 0.6:
        return pl.nonneg_orthant(q)
    rows = []
    for _ in range(rng.randint(1, q + 1)):
        c = tuple(_coef(rng) for _ in range(q))
        if not la.is_zero(c):
            rows.append((c, F(0)))
    if not rows:
        return pl.nonneg_orthant(q)
    return pl.polycone(ph.hpoly(q, ineq=rows))


def _cone_interior(k: pl.PolyCone) -> Vec:
    q = k.k.dim
    gens = [la.neg(c) for c, _ in k.k.ineq]
    gens += [c for c, _ in k.k.eq] + [la.neg(c) for c, _ in k.k.eq]
    lin, rays = ph._cone_generators(q, gens)
    point = la.zeros(q)
    for r in rays:
        point = la.add(point, r)
    return point


# ---------------------------------------------------------------------------
# checkers: near convexity and the ri calculus


def _chk_prop21(rng, spec) -> Optional[str]:
    dim = rng.randint(1, spec.max_dim)
    valid = rng.random() < 0.5
    s = random_ncset(rng, dim, spec) if valid else random_corrupted(rng, dim, spec)
    got, wit = ns.is_nearly_convex(s)
    orc, owit = near_convexity_oracle(s)
    if got != valid:
        return f"library verdict {got} on a {'valid' if valid else 'corrupted'} set"
    if orc != valid:
        return f"oracle verdict {orc} disagrees with construction"
    if owit is not None and ns.membership(s, owit):
        return "oracle witness is not outside the set"
    return None


def _near_convex_both(s: NCSet) -> Optional[str]:
    ok, _ = ns.is_nearly_convex(s)
    if not ok:
        return "library says the result is not nearly convex"
    orc, w = near_convexity_oracle(s)
    if not orc:
        return f"oracle found a hole at {format_vector(w)}"
    return None


def _lib_ri_pred(s: NCSet) -> Callable[[Vec], bool]:
    hull = ns.closure_hull(s)
    if hull is None:
        return lambda x: False
    system = hull.ri_system()
    return system.satisfies


def _chk_thm22a(rng, spec) -> Optional[str]:
    d1 = rng.randint(1, 2)
    d2 = rng.randint(1, 3 - d1)
    s1 = random_ncset(rng, d1, spec)
    s2 = random_ncset(rng, d2, spec)
    prod = ns.product(s1, s2)
    bad = _near_convex_both(prod)
    if bad:
        return bad
    r1, r2 = _hull_ri_rows(s1), _hull_ri_rows(s2)
    rows = _hull_ri_rows(prod)
    probes = _identity_probes(d1 + d2, prod)
    return _compare_preds(
        probes,
        _lib_ri_pred(prod),
        lambda x: _in_ri_rows(rows, x),
        lambda x: _in_ri_rows(r1, x[:d1]) and _in_ri_rows(r2, x[d1:]),
    ) or _compare_preds(
        probes,
        lambda x: ns.membership(prod, x),
        lambda x: ns.membership(s1, x[:d1]) and ns.membership(s2, x[d1:]),
    )


def _chk_thm22c(rng, spec) -> Optional[str]:
    dim = rng.randint(1, spec.max_dim)
    anchor = _anchor_point(rng, dim, spec)
    s1 = random_ncset(rng, dim, spec, anchor)
    s2 = random_ncset(rng, dim, spec, anchor)
    inter, qc = ns.intersect(s1, s2)
    if not qc:
        return "anchored instance missed the qualification"
    bad = _near_convex_both(inter)
    if bad:
        return bad
    h1, h2 = ns.closure_hull(s1), ns.closure_hull(s2)
    meet = ph.canonical_form(HPoly(dim, h1.ineq + h2.ineq, h1.eq + h2.eq))
    if meet != ns.closure_hull(inter):
        return "closure of the intersection is not the meet of closures"
    r1, r2 = _hull_ri_rows(s1), _hull_ri_rows(s2)
    probes = _identity_probes(dim, inter, s1, s2)
    return _compare_preds(
        probes,
        _lib_ri_pred(inter),
        lambda x: _in_ri_rows(r1, x) and _in_ri_rows(r2, x),
    ) or _compare_preds(
        probes,
        lambda x: ns.membership(inter, x),
        lambda x: ns.membership(s1, x) and ns.membership(s2, x),
    )


def _random_matrix(rng, m: int, n: int) -> Mat:
    while True:
        t = la.mat([[_coef(rng) for _ in range(n)] for _ in range(m)])
        if any(not la.is_zero(r) for r in t):
            return t


def _chk_thm22d(rng, spec) -> Optional[str]:
    d = rng.randint(1, 2)
    m = rng.randint(1, 2)
    s = random_ncset(rng, d, spec)
    t = _random_matrix(rng, m, d)
    img = ns.linear_image(s, t)
    bad = _near_convex_both(img)
    if bad:
        return bad
    src = _hull_ri_rows(s)
    eq_for = lambda y: [(t[i], y[i]) for i in range(m)]

    def oracle_member(y: Vec) -> bool:
        return any(
            _tiny_feasible(_with_eq(msys, eq_for(y)))
            for msys in _set_systems(s)
        )

    def oracle_ri(y: Vec) -> bool:
        return _tiny_feasible(
            _with_eq(_ri_rows_as_system(d, src), eq_for(y))
        )

    extra = [la.mat_vec(t, ns.piece_ri_point(pc)) for pc in s.pieces]
    probes = _identity_probes(m, img) + extra
    return _compare_preds(
        probes, lambda y: ns.membership(img, y), oracle_member
    ) or _compare_preds(probes, _lib_ri_pred(img), oracle_ri)


def _fiber_hull_rows(
    f: SVMap, x: Vec
) -> Optional[tuple[tuple, tuple]]:
    """Hull rows of F(x) from the nonempty piece fibers' generators."""
    pts: list[Vec] = []
    rays: list[Vec] = []
    for pc in f.graph.pieces:
        fib = _fix_prefix(pc.base.ri_system(), x)
        if not _tiny_feasible(fib):
            continue
        closed = ph.canonical_form(
            HPoly(f.p, fib.weak + fib.strict, fib.eq)
        )
        if closed is None:
            raise CertificateError("a feasible fiber has a nonempty closure")
        v = ph.to_vrep(closed)
        pts.extend(v.points)
        rays.extend(v.rays)
    if not pts:
        return None
    return _rows_from_generators(f.p, pts, rays)


def _chk_thm23(rng, spec) -> Optional[str]:
    n = rng.randint(1, 2)
    p = rng.randint(1, 3 - n)
    f = _random_map(rng, spec, n, p)
    graph_rows = _hull_ri_rows(f.graph)
    gens = _pooled_generators(f.graph)
    dom_rows = _rows_from_generators(
        n, [g[:n] for g in gens[0]], [g[:n] for g in gens[1] if not la.is_zero(g[:n])]
    )
    lib_pred = _lib_ri_pred(f.graph)

    xs = [ns.piece_ri_point(pc)[:n] for pc in f.graph.pieces]
    xs += list(_frac_lattice(n, 2 if n == 1 else 1, spec.bound))
    ys = list(_frac_lattice(p, 2 if p == 1 else 1, spec.bound))
    seen = set()
    for x in xs:
        if x in seen:
            continue
        seen.add(x)
        in_dom = _in_ri_rows(dom_rows, x)
        fiber = _fiber_hull_rows(f, x) if in_dom else None
        for y in ys:
            left = _in_ri_rows(graph_rows, x + y)
            right = in_dom and fiber is not None and _in_ri_rows(fiber, y)
            if left != right:
                return (
                    f"graph ri split at x = {format_vector(x)}, "
                    f"y = {format_vector(y)}: {left} vs {right}"
                )
            if left != lib_pred(x + y):
                return (
                    f"library hull ri disagrees at x = {format_vector(x)}, "
                    f"y = {format_vector(y)}"
                )
    return None


def _chk_thm24(rng, spec) -> Optional[str]:
    n = rng.randint(1, 2)
    q = rng.randint(1, 3 - n)
    g_mat = _random_matrix(rng, q, n)
    g_shift = _anchor_point(rng, q, spec)
    m = random_ncset(rng, q, spec)
    got, certified = pl.epi_m(g_mat, g_shift, m)
    if not certified:
        return "epi_m did not certify its ri formula"
    bad = _near_convex_both(got)
    if bad:
        return bad
    m_rows = _hull_ri_rows(m)
    rows = _hull_ri_rows(got)

    def gval(x: Vec) -> Vec:
        return la.add(la.mat_vec(g_mat, x), g_shift)

    def slack(z: Vec) -> Vec:
        return la.sub(z[n:], gval(z[:n]))

    probes = _identity_probes(n + q, got)
    probes += [
        x + la.add(gval(x), w)
        for x in _frac_lattice(n, 1, 2)
        for w in [ns.piece_ri_point(pc) for pc in m.pieces]
    ]
    return _compare_preds(
        probes,
        lambda z: ns.membership(got, z),
        lambda z: ns.membership(m, slack(z)),
    ) or _compare_preds(
        probes,
        _lib_ri_pred(got),
        lambda z: _in_ri_rows(rows, z),
        lambda z: _in_ri_rows(m_rows, slack(z)),
    )


def _chk_prop25(rng, spec) -> Optional[str]:
    n = rng.randint(1, 2)
    f = _random_plf(rng, spec, n)
    x = ns.ri_sample(pl.dom(f))
    value = pl.eval_at(f, x)
    if not isinstance(value, Fraction):
        return f"finite-on-domain function evaluated to {value}"
    if not pl.assert_proper(f):
        return "function finite on ri(dom) flagged improper"
    return None


def _chk_thm31(rng, spec, cone_form: bool = False) -> Optional[str]:
    n = rng.randint(1, 2)
    p = rng.randint(1, 3 - n)
    ax = _anchor_point(rng, n, spec)
    ay = _anchor_point(rng, p, spec)
    if cone_form:
        k = _random_cone(rng, spec, p)
        a_mat = _random_matrix(rng, p, n)
        c = la.sub(la.sub(ay, la.mat_vec(a_mat, ax)), _cone_interior(k))
        f = sv.affine_plus_cone(a_mat, c, k.k)
    else:
        f = _random_map(rng, spec, n, p, anchor=ax + ay)
    omega = random_ncset(rng, n, spec, anchor=ax)
    img, qc, holds = sv.image_of_set(f, omega)
    if not qc:
        return "anchored instance missed the qualification"
    if not holds:
        return "library could not certify its own image formula"
    bad = _near_convex_both(img)
    if bad:
        return bad
    om_rows = _hull_ri_rows(omega)
    g_rows = _hull_ri_rows(f.graph)
    om_sys = _ri_rows_as_system(n, om_rows)
    g_sys = _ri_rows_as_system(n + p, g_rows)

    ocs = [pc.base.ri_system() for pc in omega.pieces]
    gcs = [pc.base.ri_system() for pc in f.graph.pieces]

    def oracle_member(y: Vec) -> bool:
        return any(
            _tiny_feasible(_joined(oc, _fix_suffix(gc, y)))
            for oc in ocs
            for gc in gcs
        )

    def oracle_ri(y: Vec) -> bool:
        return _tiny_feasible(_joined(om_sys, _fix_suffix(g_sys, y)))

    probes = _identity_probes(p, img)
    return _compare_preds(
        probes, lambda y: ns.membership(img, y), oracle_member
    ) or _compare_preds(probes, _lib_ri_pred(img), oracle_ri)


def _chk_thm33(rng, spec, cone_form: bool = False) -> Optional[str]:
    n = rng.randint(1, 2)
    p = rng.randint(1, 3 - n)
    ax = _anchor_point(rng, n, spec)
    ay = _anchor_point(rng, p, spec)
    if cone_form:
        k = _random_cone(rng, spec, p)
        a_mat = _random_matrix(rng, p, n)
        c = la.sub(la.sub(ay, la.mat_vec(a_mat, ax)), _cone_interior(k))
        f = sv.affine_plus_cone(a_mat, c, k.k)
    else:
        f = _random_map(rng, spec, n, p, anchor=ax + ay)
    theta = random_ncset(rng, p, spec, anchor=ay)
    pre, qc = sv.inverse_image(f, theta)
    if not qc:
        return "anchored instance missed the qualification"
    if not sv.certify_inverse_image(f, theta, pre):
        return "library could not certify its inverse-image formula"
    bad = _near_convex_both(pre)
    if bad:
        return bad
    th_rows = _hull_ri_rows(theta)
    g_rows = _hull_ri_rows(f.graph)
    th_sys = _ri_rows_as_system(p, th_rows)
    g_sys = _ri_rows_as_system(n + p, g_rows)

    tcs = [pc.base.ri_system() for pc in theta.pieces]
    gcs = [pc.base.ri_system() for pc in f.graph.pieces]

    def oracle_member(x: Vec) -> bool:
        return any(
            _tiny_feasible(_joined(tc, _fix_prefix(gc, x)))
            for tc in tcs
            for gc in gcs
        )

    def oracle_ri(x: Vec) -> bool:
        return _tiny_feasible(_joined(th_sys, _fix_prefix(g_sys, x)))

    probes = _identity_probes(n, pre)
    return _compare_preds(
        probes, lambda x: ns.membership(pre, x), oracle_member
    ) or _compare_preds(probes, _lib_ri_pred(pre), oracle_ri)


def _chk_thm35(rng, spec) -> Optional[str]:
    n = rng.randint(1, 2)
    p = rng.randint(1, 3 - n)
    ax = _anchor_point(rng, n, spec)
    ay = _anchor_point(rng, p, spec)
    f = _random_map(rng, spec, n, p, anchor=ax + ay)
    omega = random_ncset(rng, n, spec, anchor=ax)
    cut, qc = sv.restrict(f, omega)
    if not qc:
        return "anchored instance missed the qualification"
    if not sv.certify_restrict(f, omega, cut):
        return "library could not certify its restriction formula"
    bad = _near_convex_both(cut.graph)
    if bad:
        return bad
    g_rows = _hull_ri_rows(f.graph)
    o_rows = _hull_ri_rows(omega)
    probes = _identity_probes(n + p, cut.graph, f.graph)
    return _compare_preds(
        probes,
        lambda z: ns.membership(cut.graph, z),
        lambda z: ns.membership(f.graph, z) and ns.membership(omega, z[:n]),
    ) or _compare_preds(
        probes,
        _lib_ri_pred(cut.graph),
        lambda z: _in_ri_rows(g_rows, z) and _in_ri_rows(o_rows, z[:n]),
    )


def _chk_cor36(rng, spec) -> Optional[str]:
    n = rng.randint(1, 2)
    a = _anchor_point(rng, n, spec)
    f = _random_plf(rng, spec, n, anchor=a)
    omega = random_ncset(rng, n, spec, anchor=a)
    cut, qc = pl.restrict_function(f, omega)
    if not qc:
        return "anchored instance missed the qualification"
    if not pl.certify_restrict_function(f, omega, cut):
        return "library could not certify the restricted epigraph"
    bad = _near_convex_both(cut.epi)
    if bad:
        return bad
    e_rows = _hull_ri_rows(f.epi)
    o_rows = _hull_ri_rows(omega)
    probes = _identity_probes(n + 1, cut.epi, f.epi)
    return _compare_preds(
        probes,
        lambda z: ns.membership(cut.epi, z),
        lambda z: ns.membership(f.epi, z) and ns.membership(omega, z[:n]),
    ) or _compare_preds(
        probes,
        _lib_ri_pred(cut.epi),
        lambda z: _in_ri_rows(e_rows, z) and _in_ri_rows(o_rows, z[:n]),
    )


def _chk_thm37(rng, spec) -> Optional[str]:
    n, p = 1, rng.choice((1, 1, 2))
    spec = LEAN_SPEC
    ax = _anchor_point(rng, n, spec)
    f1 = _random_map(rng, spec, n, p, anchor=ax + _anchor_point(rng, p, spec))
    f2 = _random_map(rng, spec, n, p, anchor=ax + _anchor_point(rng, p, spec))
    total, qc = sv.map_sum(f1, f2)
    if not qc:
        return "anchored instance missed the qualification"
    if not sv.certify_sum(f1, f2, total):
        return "library could not certify the sum formula"
    bad = _near_convex_both(total.graph)
    if bad:
        return bad
    r1, r2 = _hull_ri_rows(f1.graph), _hull_ri_rows(f2.graph)
    s1 = _ri_rows_as_system(n + p, r1)
    s2 = _ri_rows_as_system(n + p, r2)

    def split_sys(msys: _Rows | MixedSystem, z: Vec) -> _Rows:
        # rows over y1 for the second graph evaluated at (x, y - y1)
        x, y = z[:n], z[n:]
        fixed = _fix_prefix(msys, x)

        def flip(rows):
            return tuple((la.neg(a), b - la.dot(a, y)) for a, b in rows)

        return _Rows(p, flip(fixed.weak), flip(fixed.strict), flip(fixed.eq))

    c1s = [pc.base.ri_system() for pc in f1.graph.pieces]
    c2s = [pc.base.ri_system() for pc in f2.graph.pieces]

    def oracle_member(z: Vec) -> bool:
        x = z[:n]
        return any(
            _tiny_feasible(_joined(_fix_prefix(c1, x), split_sys(c2, z)))
            for c1 in c1s
            for c2 in c2s
        )

    def oracle_ri(z: Vec) -> bool:
        return _tiny_feasible(
            _joined(_fix_prefix(s1, z[:n]), split_sys(s2, z))
        )

    probes = _identity_probes(n + p, total.graph, den={1: 8, 2: 1}.get(n + p, 0))
    return _compare_preds(
        probes, lambda z: ns.membership(total.graph, z), oracle_member
    ) or _compare_preds(probes, _lib_ri_pred(total.graph), oracle_ri)


def _chk_thm38(rng, spec) -> Optional[str]:
    n, p, q = 1, rng.randint(1, 2), 1
    ax = _anchor_point(rng, n, spec)
    ay = _anchor_point(rng, p, spec)
    az = _anchor_point(rng, q, spec)
    f = _random_map(rng, spec, n, p, anchor=ax + ay)
    g = _random_map(rng, spec, p, q, anchor=ay + az)
    comp, qc = sv.compose(f, g)
    if not qc:
        return "anchored instance missed the qualification"
    if not sv.certify_compose(f, g, comp):
        return "library could not certify the composition formula"
    bad = _near_convex_both(comp.graph)
    if bad:
        return bad
    rf = _ri_rows_as_system(n + p, _hull_ri_rows(f.graph))
    rg = _ri_rows_as_system(p + q, _hull_ri_rows(g.graph))

    def mid_system(c1: _Rows | MixedSystem, c2: _Rows | MixedSystem, z: Vec) -> _Rows:
        return _joined(_fix_prefix(c1, z[:n]), _fix_suffix(c2, z[n:]))

    c1s = [pc.base.ri_system() for pc in f.graph.pieces]
    c2s = [pc.base.ri_system() for pc in g.graph.pieces]

    def oracle_member(z: Vec) -> bool:
        return any(
            _tiny_feasible(mid_system(c1, c2, z))
            for c1 in c1s
            for c2 in c2s
        )

    def oracle_ri(z: Vec) -> bool:
        return _tiny_feasible(mid_system(rf, rg, z))

    probes = _identity_probes(n + q, comp.graph)
    return _compare_preds(
        probes, lambda z: ns.membership(comp.graph, z), oracle_member
    ) or _compare_preds(probes, _lib_ri_pred(comp.graph), oracle_ri)


# ---------------------------------------------------------------------------
# checkers: the composite constructors keep near convexity


def _anchored_triple(rng, spec, n: int, p: int, q: int, cone_g: bool):
    a = _anchor_point(rng, n, spec)
    theta = random_ncset(rng, n, spec, anchor=a)
    f = _random_map(rng, spec, n, p, anchor=a + _anchor_point(rng, p, spec))
    if cone_g:
        k = _random_cone(rng, spec, q)
        a_mat = _random_matrix(rng, q, n)
        bq = _anchor_point(rng, q, spec)
        c = la.sub(la.sub(bq, la.mat_vec(a_mat, a)), _cone_interior(k))
        g = sv.affine_plus_cone(a_mat, c, k.k)
    else:
        g = _random_map(rng, spec, n, q, anchor=a + _anchor_point(rng, q, spec))
    return theta, f, g


def _chk_thm41(rng, spec, cone_g: bool = False) -> Optional[str]:
    theta, f, g = _anchored_triple(rng, spec, 1, 1, rng.randint(1, 2), cone_g)
    got, qc = sv.build_phi(theta, f, g)
    if not qc:
        return "anchored instance missed the qualification"
    return _near_convex_both(got.graph)


def _anchored_fn_triple(rng, spec, n: int, q: int, cone_g: bool):
    a = _anchor_point(rng, n, spec)
    theta = random_ncset(rng, n, spec, anchor=a)
    f = _random_plf(rng, spec, n, anchor=a)
    if cone_g:
        k = _random_cone(rng, spec, q)
        a_mat = _random_matrix(rng, q, n)
        bq = _anchor_point(rng, q, spec)
        c = la.sub(la.sub(bq, la.mat_vec(a_mat, a)), _cone_interior(k))
        return theta, f, (a_mat, c, k), None
    g = _random_map(rng, spec, n, q, anchor=a + _anchor_point(rng, q, spec))
    return theta, f, None, g


def _chk_cor43(rng, spec, psi: bool = False) -> Optional[str]:
    q = 1 if psi else rng.randint(1, 2)
    theta, f, _, g = _anchored_fn_triple(rng, LEAN_SPEC if psi else spec, 1, q, False)
    build = pl.build_composite_psi if psi else pl.build_composite_phi
    got, qc = build(f, theta, g)
    if not qc:
        return "anchored instance missed the qualification"
    return _near_convex_both(got.epi)


def _chk_cor44(rng, spec, psi: bool = False) -> Optional[str]:
    q = 1 if psi else rng.randint(1, 2)
    theta, f, cone, _ = _anchored_fn_triple(rng, LEAN_SPEC if psi else spec, 1, q, True)
    a_mat, c, k = cone
    build = pl.build_composite_psi_cone if psi else pl.build_composite_phi_cone
    got, qc = build(f, theta, a_mat, c, k)
    if not qc:
        return "anchored instance missed the qualification"
    return _near_convex_both(got.epi)


def _chk_thm45(rng, spec, cone_g: bool = False) -> Optional[str]:
    theta, f, g = _anchored_triple(rng, spec, 1, 1, 1, cone_g)
    got, qc = sv.build_psi(theta, f, g)
    if not qc:
        return "anchored instance missed the qualification"
    return _near_convex_both(got.graph)


def _chk_thm49(rng, spec) -> Optional[str]:
    # the pairing construction squares the ambient space, so stay small
    n, p, q = 1, 1, 1
    f = _random_map(rng, LEAN_SPEC, n, q)
    g = _random_map(rng, LEAN_SPEC, p, q)
    a_mat = _random_matrix(rng, p, n)
    got = sv.sum_with_affine_inner(f, g, a_mat)
    return _near_convex_both(got.graph)


def _chk_cor410(rng, spec) -> Optional[str]:
    n = p = 1
    f = _random_plf(rng, ULTRA_SPEC, n)
    g = _random_plf(rng, ULTRA_SPEC, p)
    a_mat = _random_matrix(rng, p, n)
    got = pl.add_with_affine_inner(f, g, a_mat)
    return _near_convex_both(got.epi)


# ---------------------------------------------------------------------------
# checkers: optimal value functions


def _chk_thm52(rng, spec) -> Optional[str]:
    n, p = 1, rng.choice((1, 1, 1, 2))
    inst, _, _ = _anchored_ovf(rng, LEAN_SPEC, n, p)
    bad = _near_convex_both(inst.mu.epi)
    if bad:
        return bad
    if not pl.strict_epi_closure_holds(inst.mu):
        return "strict epigraph closure identity failed on mu"
    if not pl.strict_epi_closure_holds(inst.f):
        return "strict epigraph closure identity failed on the objective"
    return None


def _chk_lemma51(rng, spec) -> Optional[str]:
    n = rng.randint(1, 2)
    f = _random_plf(rng, spec, n)
    if not pl.strict_epi_closure_holds(f):
        return "strict epigraph closure identity failed"
    return None


def _chk_thm53(rng, spec) -> Optional[str]:
    def build():
        n, p = 1, rng.choice((1, 1, 1, 2))
        inst, ax, _ = _anchored_ovf(rng, LEAN_SPEC, n, p)
        if not isinstance(pl.eval_at(inst.mu, ax), Fraction):
            return None
        sol = vr.solution_map(inst, ax)
        if not sol.pieces:
            return None
        return inst, ax, ns.ri_sample(sol)

    picked = _retry(rng, build, lambda t: t is not None)
    inst, ax, ay = picked
    lhs = vr.subdifferential(inst.mu, ax).set
    rhs = vr.ovf_subdifferential(inst, ax, ay).set
    if ph.canonical_form(lhs) != ph.canonical_form(rhs):
        return f"subdifferential sets differ at {format_vector(ax)}"
    return None


# ---------------------------------------------------------------------------
# checkers: supports and conjugates


def _chk_thm61(rng, spec) -> Optional[str]:
    dim = rng.randint(1, 2)
    anchor = _anchor_point(rng, dim, spec)
    s1 = random_ncset(rng, dim, spec, anchor)
    s2 = random_ncset(rng, dim, spec, anchor)
    w = tuple(_coef(rng) for _ in range(dim))
    value, wit = cj.support_of_intersection(s1, s2, w)
    inter, _ = ns.intersect(s1, s2)
    direct = generator_support_oracle(inter, w)
    if direct != value:
        return f"generator support {direct} != library {value}"
    if value == PLUS_INF:
        return None
    p1 = generator_support_oracle(s1, wit.w1)
    p2 = generator_support_oracle(s2, wit.w2)
    if la.add(wit.w1, wit.w2) != la.vec(w):
        return "support split does not sum to the queried vector"
    if (p1, p2) != wit.parts or p1 + p2 != value:
        parts, again = format_vector(wit.parts), format_vector((p1, p2))
        return f"support split {parts} does not re-verify {again}"
    for _ in range(4):
        u = tuple(_coef(rng) for _ in range(dim))
        alt1 = generator_support_oracle(s1, u)
        alt2 = generator_support_oracle(s2, la.sub(la.vec(w), la.vec(u)))
        if PLUS_INF not in (alt1, alt2) and alt1 + alt2 < value:
            return f"convolution split at {format_vector(u)} beats the claimed optimum"
    return None


def _chk_prop62(rng, spec) -> Optional[str]:
    n = rng.randint(1, 2)
    f = _random_plf(rng, spec, n)
    w = tuple(_coef(rng) for _ in range(n))
    direct = cj.fenchel_value(f, w)
    swept = generator_conjugate_oracle(f, w)
    ev = cj.svm_conjugate(pl.epigraphical_map(f), la.vec(w) + (F(-1),))
    if direct != swept or ev.value != direct:
        return f"conjugate values split: {direct}, {swept}, {ev.value}"
    if isinstance(direct, Fraction) and ev.maximizer is not None:
        x, t = ev.maximizer[:n], ev.maximizer[n]
        if la.dot(la.vec(w), x) - t != direct:
            return "support maximizer does not attain the value"
    return None


def _chk_thm63(rng, spec, full_space: bool = False) -> Optional[str]:
    n, p = 1, rng.choice((1, 1, 1, 2))
    if full_space:
        fmap = sv.svmap(n, p, ns.whole_space(n + p))
        f = _random_plf(rng, LEAN_SPEC, n + p)
        inst = vr.build_ovf(f, fmap)
    else:
        inst, _, _ = _anchored_ovf(rng, LEAN_SPEC, n, p)
    w = tuple(_coef(rng) for _ in range(n))
    value, wit = cj.ovf_conjugate(inst, w)
    swept = generator_conjugate_oracle(inst.mu, w)
    if swept != value:
        return f"generator conjugate {swept} != library {value}"
    if full_space:
        direct = generator_conjugate_oracle(inst.f, la.vec(w) + la.zeros(p))
        if direct != value:
            return f"full-graph slice {direct} != mu* {value}"
    if value == PLUS_INF:
        return None
    p1 = generator_conjugate_oracle(inst.f, wit.w1 + wit.v)
    p2 = generator_support_oracle(
        inst.fmap.graph, la.sub(la.vec(w), wit.w1) + la.neg(wit.v)
    )
    if (p1, p2) != wit.parts or p1 + p2 != value:
        parts, again = format_vector(wit.parts), format_vector((p1, p2))
        return f"conjugate split {parts} does not re-verify {again}"
    return None


def _chk_thm66(rng, spec) -> Optional[str]:
    n = rng.randint(1, 2)
    anchor = _anchor_point(rng, n, spec)
    f1 = _random_plf(rng, spec, n, anchor=anchor)
    f2 = _random_plf(rng, spec, n, anchor=anchor)
    w = tuple(_coef(rng) for _ in range(n))
    value, wit = cj.conjugate_sum(f1, f2, w)
    if value == PLUS_INF:
        return None
    p1 = generator_conjugate_oracle(f1, wit.w1)
    p2 = generator_conjugate_oracle(f2, wit.w2)
    if la.add(wit.w1, wit.w2) != la.vec(w):
        return "conjugate split does not sum to the queried vector"
    if (p1, p2) != wit.parts or p1 + p2 != value:
        parts, again = format_vector(wit.parts), format_vector((p1, p2))
        return f"conjugate split {parts} does not re-verify {again}"
    for _ in range(4):
        u = tuple(_coef(rng) for _ in range(n))
        alt1 = generator_conjugate_oracle(f1, u)
        alt2 = generator_conjugate_oracle(f2, la.sub(la.vec(w), la.vec(u)))
        if PLUS_INF not in (alt1, alt2) and alt1 + alt2 < value:
            return f"convolution split at {format_vector(u)} beats the claimed optimum"
    return None


def _chk_thm67(rng, spec) -> Optional[str]:
    p = rng.randint(1, 2)
    n = rng.randint(1, 2)
    a_mat = _random_matrix(rng, p, n)
    x0 = _anchor_point(rng, n, spec)
    g = _random_plf(rng, spec, p, anchor=la.mat_vec(a_mat, x0))
    w = tuple(_coef(rng) for _ in range(n))
    value, v = cj.conjugate_chain(g, a_mat, w)
    a_t = la.transpose(a_mat)
    if value == PLUS_INF:
        if v is not None:
            return "infinite chain conjugate carried a witness"
        return None
    if la.mat_vec(a_t, v) != la.vec(w):
        return "chain witness does not satisfy the adjoint equations"
    swept = generator_conjugate_oracle(g, v)
    if swept != value:
        return f"generator conjugate {swept} at the witness != {value}"
    for z in la.nullspace_basis(a_t, p):
        for step in (F(1), F(-1), F(1, 2)):
            alt = generator_conjugate_oracle(g, la.add(v, la.scale(z, step)))
            if alt != PLUS_INF and alt < value:
                return "a nearby adjoint solution beats the claimed optimum"
    return None


def _chk_ex68(rng, spec) -> Optional[str]:
    n = p = 1
    x0 = _anchor_point(rng, n, spec)
    a_mat = _random_matrix(rng, p, n)
    g = _random_plf(rng, ULTRA_SPEC, n, anchor=x0)
    h = _random_plf(rng, ULTRA_SPEC, p, anchor=la.mat_vec(a_mat, x0))
    ystar = tuple(_coef(rng) for _ in range(p))
    f = pl.add_with_affine_inner(g, h, a_mat)
    value = cj.composite_conjugate_identity(f, g, h, a_mat, ystar)
    lhs = generator_conjugate_oracle(f, la.zeros(n) + la.vec(ystar))
    rg = generator_conjugate_oracle(g, la.neg(la.mat_t_vec(a_mat, ystar)))
    rh = generator_conjugate_oracle(h, ystar)
    rhs = rg + rh if PLUS_INF not in (rg, rh) else PLUS_INF
    if lhs != value or rhs != value:
        return f"generator sides {lhs}, {rhs} disagree with {value}"
    return None


# ---------------------------------------------------------------------------
# checkers: duality schemes


def _dual_value_recheck(rep: du.DualityReport) -> Optional[str]:
    if rep.v_primal < rep.v_dual:
        return "weak duality violated in the report"
    if rep.primal_witness is not None:
        p = rep.primal_witness
        f = rep.perturbation
        got = pl.eval_at(f, p + la.zeros(f.n - len(p)))
        if got != rep.v_primal:
            return f"primal witness evaluates to {got}, not {rep.v_primal}"
    if rep.dual_witness is not None and rep.scheme != "fenchel":
        y = rep.dual_witness
        if rep.scheme == "lagrange" and rep.qc_flags and rep.qc_flags[-1].name == "cone_ri_overlap":
            y = la.neg(y)  # cone reports carry the multiplier, flip back
        f = rep.perturbation
        swept = generator_conjugate_oracle(f, la.zeros(f.n - len(y)) + y)
        if swept != PLUS_INF and -swept != rep.v_dual:
            return f"conjugate sweep gives dual {-swept}, report {rep.v_dual}"
    return None


def _chk_thm71b(rng, spec) -> Optional[str]:
    n, p = 1, rng.choice((1, 1, 1, 2))
    f = _random_plf(rng, ULTRA_SPEC, n + p)
    rep = du.general_duality(f, p)
    bad = _dual_value_recheck(rep)
    if bad:
        return bad
    if rep.subdiff_nonempty and rep.gap != 0:
        return "nonempty subdifferential left a gap"
    return None


def _chk_cor72(rng, spec) -> Optional[str]:
    n, p = rng.choice((1, 1, 2)), 1
    x0 = _anchor_point(rng, n, spec)
    f = _random_plf(rng, LEAN_SPEC, n + p, anchor=x0 + la.zeros(p))
    rep = du.general_duality(f, p)
    if not rep.qc("parameter_origin_interior"):
        return "anchored instance missed the qualification"
    if rep.gap != 0:
        return "qualified instance left a gap"
    return _dual_value_recheck(rep)


def _anchored_program(rng, spec, n: int, p: int):
    a = _anchor_point(rng, n, spec)
    theta = random_ncset(rng, n, spec, anchor=a)
    phi = _random_plf(rng, spec, n, anchor=a)
    g = _random_map(rng, spec, n, p, anchor=a + la.zeros(p))
    return theta, phi, g


def _chk_thm73(rng, spec) -> Optional[str]:
    theta, phi, g = _anchored_program(rng, ULTRA_SPEC, rng.randint(1, 2), 1)
    rep = du.lagrange_duality(phi, theta, g)
    if not (rep.qc("triple_ri_overlap") and rep.qc("origin_in_ri_image")):
        return "anchored instance missed the qualification"
    if rep.gap != 0:
        return "qualified constrained program left a gap"
    if rep.primal_witness is not None:
        x = rep.primal_witness
        if not ns.membership(theta, x):
            return "primal witness escapes the base set"
        if not ns.membership(sv.eval_at(g, x), la.zeros(g.p)):
            return "primal witness is not feasible for the constraint"
        if pl.eval_at(phi, x) != rep.v_primal:
            return "primal witness does not attain the optimal value"
    return _dual_value_recheck(rep)


def _chk_cor75(rng, spec) -> Optional[str]:
    n = rng.randint(1, 2)
    q = rng.randint(1, 2)
    a = _anchor_point(rng, n, spec)
    theta = random_ncset(rng, n, spec, anchor=a)
    phi = _random_plf(rng, spec, n, anchor=a)
    k = _random_cone(rng, spec, q)
    a_mat = _random_matrix(rng, q, n)
    c = la.sub(la.neg(la.mat_vec(a_mat, a)), _cone_interior(k))
    rep = du.lagrange_cone_duality(phi, theta, a_mat, c, k)
    if not rep.qc("cone_ri_overlap"):
        return "anchored instance missed the cone qualification"
    if rep.gap != 0:
        return "strictly feasible cone program left a gap"
    lam = rep.dual_witness
    if lam is not None:
        if not pl.dual_cone(k).k.contains(lam):
            return "multiplier escapes the dual cone"
        g = sv.affine_plus_cone(a_mat, c, k.k)
        samples = [a] + [ns.piece_ri_point(pc)[:n] for pc in g.graph.pieces]
        for x in samples:
            direct = du.vg_value(g, x, la.neg(lam))
            closed = du.vg_closed_form(a_mat, c, k, x, la.neg(lam))
            if direct != closed:
                return f"support-term formula splits at {format_vector(x)}"
        if rep.primal_witness is not None:
            gx = la.add(la.mat_vec(a_mat, rep.primal_witness), c)
            if not k.k.contains(la.neg(gx)):
                return "primal witness is not cone feasible"
            if la.dot(lam, gx) != 0:
                return "complementary slackness fails at the optimum"
    return _dual_value_recheck(rep)


def _chk_thm76(rng, spec) -> Optional[str]:
    theta, phi, g = _anchored_program(rng, ULTRA_SPEC, 1, 1)
    rep = du.fenchel_lagrange_duality(phi, theta, g)
    if not (rep.qc("triple_ri_overlap") and rep.qc("origin_in_ri_image")):
        return "anchored instance missed the qualification"
    if rep.gap != 0:
        return "qualified split program left a gap"
    if rep.dual_witness is not None and rep.v_dual_formula != rep.v_dual:
        return "split dual formula does not match the slice value"
    return _dual_value_recheck(rep)


def _chk_thm78(rng, spec) -> Optional[str]:
    n = p = 1
    x0 = _anchor_point(rng, n, spec)
    a_mat = _random_matrix(rng, p, n)
    g = _random_plf(rng, LEAN_SPEC, n, anchor=x0)
    h = _random_plf(rng, LEAN_SPEC, p, anchor=la.mat_vec(a_mat, x0))
    rep = du.fenchel_duality(g, h, a_mat)
    if not rep.qc("affine_image_ri_overlap"):
        return "anchored instance missed the qualification"
    if rep.gap != 0:
        return "qualified additive program left a gap"
    if rep.primal_witness is not None:
        x = rep.primal_witness
        total = pl.eval_at(g, x) + pl.eval_at(h, la.mat_vec(a_mat, x))
        if total != rep.v_primal:
            return "primal witness does not attain the optimal value"
    if rep.dual_witness is not None:
        y = rep.dual_witness
        pg = generator_conjugate_oracle(g, la.neg(la.mat_t_vec(a_mat, y)))
        ph_ = generator_conjugate_oracle(h, y)
        if PLUS_INF in (pg, ph_) or -(pg + ph_) != rep.v_dual:
            return f"conjugate pair ({pg}, {ph_}) does not attain the dual"
    return _dual_value_recheck(rep)


def _chk_lemma74(rng, spec) -> Optional[str]:
    n = rng.randint(1, 2)
    q = rng.randint(1, 2)
    k = _random_cone(rng, spec, q)
    a_mat = _random_matrix(rng, q, n)
    c = _anchor_point(rng, q, spec)
    g = sv.affine_plus_cone(a_mat, c, k.k)
    for _ in range(6):
        x = _anchor_point(rng, n, spec)
        ystar = tuple(_coef(rng) for _ in range(q))
        direct = du.vg_value(g, x, ystar)
        closed = du.vg_closed_form(a_mat, c, k, x, ystar)
        if direct != closed:
            return (
                f"support-term formula splits at x = {format_vector(x)}, "
                f"y* = {format_vector(ystar)}"
            )
    return None


# ---------------------------------------------------------------------------
# checkers: negative controls


def _corrupt_result(rng, s: NCSet) -> NCSet:
    # dropping a piece only counts when the others do not cover it
    order = list(range(len(s.pieces)))
    rng.shuffle(order)
    for i in order:
        trimmed = NCSet(
            s.dim, tuple(pc for j, pc in enumerate(s.pieces) if j != i)
        )
        if trimmed.pieces and not ns.membership(
            trimmed, ns.piece_ri_point(s.pieces[i])
        ):
            return trimmed
    shift = (F(24),) + la.zeros(s.dim - 1)
    return ns.ncset(s.dim, [_translate_hpoly(pc.base, shift) for pc in s.pieces])


def _chk_negctl_membership(rng, spec) -> Optional[str]:
    dim = rng.randint(1, spec.max_dim)
    s = random_ncset(rng, dim, spec)
    bad = _corrupt_result(rng, s)
    if not grid_membership_oracle(bad, s, denominator=4):
        return "corrupted piece list went undetected"
    return None


def _chk_negctl_identity(rng, spec) -> Optional[str]:
    dim = rng.randint(1, 2)
    anchor = _anchor_point(rng, dim, spec)
    s1 = random_ncset(rng, dim, spec, anchor)
    s2 = random_ncset(rng, dim, spec, anchor)
    inter, _ = ns.intersect(s1, s2)
    if not inter.pieces:
        return None
    bad = _corrupt_result(rng, inter)
    mism = grid_membership_oracle(
        bad,
        lambda x: ns.membership(s1, x) and ns.membership(s2, x),
        denominator=4,
        extra_points=[ns.piece_ri_point(pc) for pc in inter.pieces],
    )
    if not mism:
        return "corrupted intersection went undetected"
    return None


def _epi_value_at(rows_ineq, rows_eq, n: int, w: Vec) -> Value:
    """min beta with (w, beta) inside the row system, by arithmetic."""
    best: Value = MINUS_INF
    for a, b in rows_eq:
        if a[n] == 0:
            if la.dot(a[:n], w) != b:
                return PLUS_INF
        else:
            # an equality pins beta outright
            t = (b - la.dot(a[:n], w)) / a[n]
            return t if best <= t else PLUS_INF
    for a, b in rows_ineq:
        if a[n] == 0:
            if la.dot(a[:n], w) > b:
                return PLUS_INF
        elif a[n] < 0:
            t = (b - la.dot(a[:n], w)) / a[n]
            if best == MINUS_INF or t > best:
                best = t
    return best


def _chk_negctl_conjugate(rng, spec) -> Optional[str]:
    n = rng.randint(1, 2)
    f = _random_plf(rng, spec, n)
    ep = cj.conjugate_epigraph(f)
    idx = next(i for i, (a, _) in enumerate(ep.ineq) if a[n] != 0)
    a, b = ep.ineq[idx]
    corrupted = ep.ineq[:idx] + ((a, b - 1),) + ep.ineq[idx + 1 :]
    facet = ph.canonical_form(HPoly(n + 1, ep.ineq, ep.eq + ((a, b),)))
    if facet is None:
        raise IdentityViolated("irredundant row lost its facet")
    wt = ns.piece_ri_point(ns.ropoly(facet))
    w = wt[:n]
    honest = generator_conjugate_oracle(f, w)
    broken = _epi_value_at(corrupted, ep.eq, n, w)
    if broken == honest:
        return "tightened conjugate inequality went undetected"
    return None


# ---------------------------------------------------------------------------
# the registry


_REGISTRY: dict[str, Callable] = {
    "prop2.1": _chk_prop21,
    "thm2.2a": _chk_thm22a,
    "thm2.2c": _chk_thm22c,
    "thm2.2d": _chk_thm22d,
    "thm2.3": _chk_thm23,
    "thm2.4": _chk_thm24,
    "prop2.5": _chk_prop25,
    "thm3.1": _chk_thm31,
    "cor3.2": lambda rng, spec: _chk_thm31(rng, spec, cone_form=True),
    "thm3.3": _chk_thm33,
    "cor3.4": lambda rng, spec: _chk_thm33(rng, spec, cone_form=True),
    "thm3.5": _chk_thm35,
    "cor3.6": _chk_cor36,
    "thm3.7": _chk_thm37,
    "thm3.8": _chk_thm38,
    "thm4.1": _chk_thm41,
    "cor4.2": lambda rng, spec: _chk_thm41(rng, spec, cone_g=True),
    "cor4.3": _chk_cor43,
    "cor4.4": _chk_cor44,
    "thm4.5": _chk_thm45,
    "cor4.6": lambda rng, spec: _chk_thm45(rng, spec, cone_g=True),
    "cor4.7": lambda rng, spec: _chk_cor43(rng, spec, psi=True),
    "cor4.8": lambda rng, spec: _chk_cor44(rng, spec, psi=True),
    "thm4.9": _chk_thm49,
    "cor4.10": _chk_cor410,
    "lemma5.1": _chk_lemma51,
    "thm5.2": _chk_thm52,
    "thm5.3": _chk_thm53,
    "thm6.1": _chk_thm61,
    "prop6.2": _chk_prop62,
    "thm6.3": _chk_thm63,
    "cor6.4": lambda rng, spec: _chk_thm63(rng, spec, full_space=True),
    "thm6.6": _chk_thm66,
    "thm6.7": _chk_thm67,
    "ex6.8": _chk_ex68,
    "thm7.1b": _chk_thm71b,
    "cor7.2": _chk_cor72,
    "thm7.3": _chk_thm73,
    "lemma7.4": _chk_lemma74,
    "cor7.5": _chk_cor75,
    "thm7.6": _chk_thm76,
    "thm7.8": _chk_thm78,
    "negctl-membership": _chk_negctl_membership,
    "negctl-identity": _chk_negctl_identity,
    "negctl-conjugate": _chk_negctl_conjugate,
}
