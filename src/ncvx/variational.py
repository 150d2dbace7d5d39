"""Normal cones, subdifferentials, coderivatives, and optimal value
functions of parametric problems min_y f(x, y) over y in F(x).

Normal cones of nearly convex sets are computed on their closures: a
linear functional has the same sup over a set and its closure, so the
defining inequalities agree.  Subdifferentials and coderivatives then
fall out of one H-representation of the cone, sliced at a fixed block.

The value function mu is assembled exactly: the shadow on (x, t) of the
objective's epigraph at (x, y, t) joined with the constraint map's graph
at (x, y), each slice closed from below with the envelope operator.
This pins down boundary attainment pointwise, not just up to closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg as la
from . import plfunc as pl
from . import svmap as sv
from .errors import (
    CertificateError,
    DimensionMismatch,
    EmptySolutionMap,
    ImproperObjective,
    IdentityViolated,
    PointNotInGraph,
    PointNotInSet,
    QCViolated,
    ValueNotFinite,
)
from .linalg import Vec
from .lp import MixedSystem
from .ncset import (
    NCSet,
    closure_hull,
    from_mixed,
    joint_image,
    membership,
    ncset,
    ri_overlap,
    union,
)
from .plfunc import PLFunction
from .polyhedron import (
    HPoly,
    NormalConeRep,
    canonical_form,
    closed_shadow,
    closure_hpoly,
    empty_hpoly,
    normal_cone_at,
    normal_cone_hrep,
    polyhedron_equal,
    to_vrep,
)
from .svmap import SVMap


# ---------------------------------------------------------------------------
# normal cones of nearly convex sets


def normal_cone(omega: NCSet, x: Vec) -> NormalConeRep:
    """Normals v with <v, z - x> <= 0 over all z in omega; x must belong
    to omega itself, not merely its closure."""
    x = la.vec(x)
    if not membership(omega, x):
        raise PointNotInSet("normal cone requested at a point outside the set")
    hull = closure_hull(omega)
    if hull is None:
        raise CertificateError("a set with a point has a nonempty hull")
    return normal_cone_at(hull, x)


def _normal_hrep_of(s: NCSet, x: Vec) -> HPoly:
    """H-representation of the normal cone of cl(s) at x, via generators."""
    hull = closure_hull(s)
    if hull is None:
        raise CertificateError("a set with a point has a nonempty hull")
    return normal_cone_hrep(to_vrep(hull), x)


# ---------------------------------------------------------------------------
# subdifferentials


@dataclass(frozen=True)
class Subdifferential:
    """All v with <v, x - base> <= f(x) - f(base) everywhere."""

    set: HPoly

    def contains(self, v: Vec) -> bool:
        return self.set.contains(la.vec(v))

    def is_empty(self) -> bool:
        return canonical_form(self.set) is None


def subdifferential(f: PLFunction, x: Vec) -> Subdifferential:
    """{v : (v, -1) lies in the normal cone of the epigraph at (x, f(x))}."""
    x = la.vec(x)
    value = pl.eval_at(f, x)
    if not isinstance(value, Fraction):
        raise ValueNotFinite("subdifferential needs a finite value")
    cone = _normal_hrep_of(f.epi, x + (value,)).closed_system()
    at = cone.fix(f.n, (-la.ONE,))
    canon = canonical_form(closure_hpoly(at))
    return Subdifferential(canon if canon is not None else empty_hpoly(f.n))


def coderivative(f: SVMap, point: Vec, v: Vec) -> HPoly:
    """D*F(point)(v) = {u : (u, -v) in the normal cone of the graph}."""
    point = la.vec(point)
    v = la.vec(v)
    if len(point) != f.n + f.p or len(v) != f.p:
        raise DimensionMismatch("point or direction has the wrong length")
    if not membership(f.graph, point):
        raise PointNotInGraph("coderivative requested off the graph")
    cone = _normal_hrep_of(f.graph, point).closed_system()
    at = cone.fix(f.n, la.neg(v))
    canon = canonical_form(closure_hpoly(at))
    return canon if canon is not None else empty_hpoly(f.n)


# ---------------------------------------------------------------------------
# optimal value functions


@dataclass(frozen=True)
class OVFInstance:
    """mu(x) = inf{f(x, y) : y in F(x)} with everything precomputed."""

    f: PLFunction
    fmap: SVMap
    mu: PLFunction
    qc: bool


def build_ovf(f: PLFunction, fmap: SVMap) -> OVFInstance:
    """Assemble mu exactly; flag records ri(dom f) meets ri(gph F)."""
    n, p = fmap.n, fmap.p
    if f.n != n + p:
        raise DimensionMismatch("objective must take (x, y) jointly")
    if not pl.assert_proper(f):
        raise ImproperObjective("objective takes -inf")
    sv.require_valid_map(fmap)

    total = n + p + 1
    parts = [(f.epi, range(total)), (fmap.graph, range(n + p))]
    shadow = joint_image(total, parts, [*range(n), n + p])
    mu = PLFunction(n, pl.envelope(shadow))
    return OVFInstance(f, fmap, mu, ri_overlap(total, parts))


def solution_map(inst: OVFInstance, x: Vec) -> NCSet:
    """Argmin set S(x) = {y in F(x) : f(x, y) = mu(x)}; exact, possibly
    empty when the infimum is not attained."""
    x = la.vec(x)
    value = pl.eval_at(inst.mu, x)
    if not isinstance(value, Fraction):
        raise ValueNotFinite("solution map needs a finite value")
    n, p = inst.fmap.n, inst.fmap.p
    pieces = []
    for gp in inst.fmap.graph.pieces:
        g_rows = gp.system().fix(0, x)
        for ep in inst.f.epi.pieces:
            # y as free block: fix x up front and the value at the back
            e_rows = ep.system().fix(0, x).fix(p, (value,))
            pieces.append(from_mixed(g_rows.combine(e_rows)))
    if not pieces:
        return ncset(p, [])
    return union(*pieces)


# ---------------------------------------------------------------------------
# the subdifferential formula for mu


def rhs_formula(inst: OVFInstance, x: Vec, y: Vec) -> HPoly:
    """Union over (u, v) in the objective's subdifferential at (x, y) of
    u + D*F(x, y)(v), computed in one stroke as a projection of
    {(u, v, w, s) : (u, v, -1) in N(epi f), (w, -v) in N(gph F), s = u + w}."""
    x, y = la.vec(x), la.vec(y)
    n, p = inst.fmap.n, inst.fmap.p
    value = pl.eval_at(inst.f, x + y)
    if not isinstance(value, Fraction):
        raise ValueNotFinite("subdifferential needs a finite value")
    cone_f = _normal_hrep_of(inst.f.epi, x + y + (value,)).closed_system()
    cone_g = _normal_hrep_of(inst.fmap.graph, x + y).closed_system()

    total = 3 * n + p
    # (u, v, -1) in N(epi f), over (u, v)
    f_rows = cone_f.fix(n + p, (-la.ONE,)).embed(range(n + p), total)
    # (w, -v) in N(gph F): its rows read (u, v, w, s) through (w, -v)
    to_wv = tuple(la.unit(total, n + p + i) for i in range(n))
    to_wv += tuple(la.neg(la.unit(total, n + j)) for j in range(p))
    g_rows = cone_g.pullback(to_wv, la.zeros(n + p))
    # s = u + w
    sums = tuple(
        (la.neg(e) + la.zeros(p) + la.neg(e) + e, la.ZERO) for e in la.identity(n)
    )
    cell = f_rows.combine(g_rows).combine(MixedSystem(total, (), (), sums))
    canon = canonical_form(closed_shadow(cell, range(2 * n + p, total)))
    return canon if canon is not None else empty_hpoly(n)


def ovf_subdifferential(inst: OVFInstance, x: Vec, y: Vec) -> Subdifferential:
    """Subdifferential of mu at x, with the formula through (x, y) checked
    against the direct computation; the two must agree exactly."""
    x, y = la.vec(x), la.vec(y)
    if not inst.qc:
        raise QCViolated("overlap condition fails for this instance")
    value = pl.eval_at(inst.mu, x)
    if not isinstance(value, Fraction):
        raise ValueNotFinite("mu must be finite at the base point")
    sols = solution_map(inst, x)
    if not sols.pieces:
        raise EmptySolutionMap("no minimizer at the base point")
    if not membership(sols, y):
        raise PointNotInSet("y is not a minimizer at x")
    lhs = subdifferential(inst.mu, x)
    rhs = rhs_formula(inst, x, y)
    if not polyhedron_equal(lhs.set, rhs):
        raise IdentityViolated("value function subdifferential mismatch")
    return lhs
