"""Support functions, Fenchel conjugates, and infimal convolutions.

One device drives the whole module: the epigraph of a support function,
read off the generators of a closed convex hull by polarity.  A point
generator p contributes the row <v, p> <= t and a ray generator r
contributes <v, r> <= 0.  A conjugate is the support function of an
epigraph evaluated at (w, -1), so the same rows express every conjugate,
and each infimal convolution becomes a single LP whose optimal split is
an exact witness.  Values are compared against an independent direct
side on the primal side, a mismatch raising instead of returning.  For
sums, chains and intersections that side is an inf over the joint ri
cells of the input pieces (plfunc.cells_inf), with no set built; their
qualifications read the hull of dom f off the hull of epi f
(ncset.shadow_hull).

Support values are closure- and hull-invariant, so all LPs run over
closed piece systems without losing exactness on the relatively open
input sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from . import linalg as la
from . import plfunc as pf
from .errors import (
    CertificateError,
    DimensionMismatch,
    EmptyDomain,
    IdentityViolated,
    QCViolated,
)
from .linalg import Mat, Vec, ZERO, ONE
from .lp import LPOutcome, MixedSystem, maximize, solve_lp
from .ncset import NCSet, closure_hull, from_closed_hpoly, ncset, shadow_hull
from .plfunc import MINUS_INF, PLUS_INF, PLFunction, Value
from .polyhedron import HPoly, canonical_form, empty_hpoly, hpoly, strict_point, to_vrep
from .rationals import ext_add, format_rational, format_vector
from .svmap import SVMap
from .variational import OVFInstance


@dataclass(frozen=True)
class SupportEvaluation:
    """sup{<v, x> : x in s}; the maximizer lies in cl(s) when finite.

    An unbounded direction is certified by ``ray``: a recession vector of
    cl(s) with a positive pairing against the queried vector.  The empty
    set evaluates to -inf with neither witness.
    """

    value: Value
    maximizer: Optional[Vec] = None
    ray: Optional[Vec] = None


@dataclass(frozen=True)
class SplitWitness:
    """An attained infimal-convolution split: w1 + w2 is the queried
    vector and parts are the two conjugate (or support) values, summing
    to the claimed optimum.  ``v`` carries the inner dual block when the
    convolution ranges over one."""

    w1: Vec
    w2: Vec
    v: Optional[Vec]
    parts: tuple[Fraction, Fraction]


# ---------------------------------------------------------------------------
# support functions


def support(s: NCSet, v) -> SupportEvaluation:
    """One LP per piece closure; the union's sup is their max.

    A feasible mixed cell is dense in its weak relaxation, so closed-row
    LPs are exact on the relatively open pieces.
    """
    v = la.vec(v)
    if len(v) != s.dim:
        raise DimensionMismatch("support vector length does not match dim")
    best: Optional[LPOutcome] = None
    for pc in s.pieces:
        out = maximize(v, pc.base.closed_system())
        if out.status == "unbounded":
            return SupportEvaluation(PLUS_INF, None, out.certificate)
        if out.status != "optimal":  # pieces are nonempty by construction
            raise CertificateError("support LP on a nonempty piece has no optimum")
        if best is None or out.value > best.value:
            best = out
    if best is None:
        return SupportEvaluation(MINUS_INF, None, None)
    return SupportEvaluation(best.value, best.witness, None)


@lru_cache(maxsize=None)
def support_epigraph(s: NCSet) -> HPoly:
    """epi sigma_s in R^(dim+1) by polarity from the generators of the
    closed convex hull; the empty set yields the whole space."""
    hull = closure_hull(s)
    if hull is None:
        return HPoly(s.dim + 1)
    vv = to_vrep(hull)
    rows = [(p + (-ONE,), ZERO) for p in vv.points]
    rows += [(r + (ZERO,), ZERO) for r in vv.rays]
    canon = canonical_form(hpoly(s.dim + 1, rows))
    if canon is None:
        raise CertificateError("the origin satisfies every generator row")
    return canon


def support_of_intersection(
    s1: NCSet, s2: NCSet, v
) -> tuple[Value, Optional[SplitWitness]]:
    """Support of s1 cap s2 as the infimal convolution of the two
    supports, with an attained split when finite.

    The direct side is the sup over the joint ri cells of the piece pairs
    (plfunc.cells_inf), with no intersection built; the split side is the
    epigraph-sum LP over (v1, t1, t2).  The two must agree exactly or
    IdentityViolated is raised.
    """
    v = la.vec(v)
    if s1.dim != s2.dim or len(v) != s1.dim:
        raise DimensionMismatch("sets and vector must share one dim")
    h1, h2 = closure_hull(s1), closure_hull(s2)
    if h1 is None or h2 is None:
        raise QCViolated("an empty set has no relative interior")
    if strict_point(h1.ri_system().combine(h2.ri_system())) is None:
        raise QCViolated("relative interiors of the sets do not meet")

    n = s1.dim
    cells = [a.system().combine(b.system()) for a in s1.pieces for b in s2.pieces]
    direct = -pf.cells_inf(cells, la.neg(v))

    z = _convolution(support_epigraph(s1), support_epigraph(s2), v, direct)
    if z is None:
        return PLUS_INF, None
    return direct, SplitWitness(z[:n], la.sub(v, z[:n]), None, (z[n], z[n + 1]))


def _convolution(e1: HPoly, e2: HPoly, target: Vec, direct: Value) -> Optional[Vec]:
    """The epigraph-sum LP of an infimal convolution: minimize t1 + t2 over
    (v1, t1, t2) with (v1, t1) in e1 and (target - v1, t2) in e2.

    Its value must equal ``direct``, the same quantity computed on the
    primal side, or IdentityViolated is raised.  Returns an optimal
    (v1, t1, t2), or None when both sides are +inf.
    """
    m = len(target)
    first = e1.closed_system().embed(range(m + 1), m + 2)
    # (v1, t1, t2) -> (target - v1, t2)
    to_second = tuple(la.neg(la.unit(m + 2, j)) for j in range(m))
    to_second += (la.unit(m + 2, m + 1),)
    second = e2.closed_system().pullback(to_second, target + (ZERO,))
    out = solve_lp(la.zeros(m) + (ONE, ONE), first.combine(second))
    at = format_vector(target)
    if direct == PLUS_INF:
        if out.status == "optimal":
            raise IdentityViolated(f"convolution finite at {at}, direct side inf")
        return None
    if out.status != "optimal" or out.value != direct:
        got = format_rational(out.value) if out.status == "optimal" else out.status
        raise IdentityViolated(
            f"direct side {format_rational(direct)} != convolution {got} at {at}"
        )
    return out.witness


# ---------------------------------------------------------------------------
# Fenchel conjugates of functions and set-valued mappings


@lru_cache(maxsize=None)
def conjugate_epigraph(f: PLFunction) -> HPoly:
    """epi f* in R^(n+1): generator (x, t) of cl(epi f) gives the row
    <w, x> - beta <= t and a ray (r, s) gives <w, r> <= s.

    A function that takes -inf anywhere produces an empty polyhedron,
    which is exactly f* identically +inf.
    """
    hull = closure_hull(f.epi)
    if hull is None:
        raise EmptyDomain("conjugate of the function with empty epigraph")
    vv = to_vrep(hull)
    rows = [(p[:-1] + (-ONE,), p[-1]) for p in vv.points]
    rows += [(r[:-1] + (ZERO,), r[-1]) for r in vv.rays]
    canon = canonical_form(hpoly(f.n + 1, rows))
    return empty_hpoly(f.n + 1) if canon is None else canon


def fenchel(f: PLFunction) -> PLFunction:
    """f* as a closed convex function, all epigraph faces included."""
    epi = conjugate_epigraph(f)
    if strict_point(epi.closed_system()) is None:
        return PLFunction(f.n, ncset(f.n + 1, []))
    return PLFunction(f.n, from_closed_hpoly(epi))


def fenchel_value(f: PLFunction, w) -> Value:
    """sup{<w, x> - f(x)} by direct LPs over the epigraph pieces."""
    w = la.vec(w)
    if len(w) != f.n:
        raise DimensionMismatch("conjugate argument length does not match n")
    ev = support(f.epi, w + (-ONE,))
    if ev.value == MINUS_INF:
        raise EmptyDomain("conjugate of the function with empty epigraph")
    return ev.value


def biconjugate(f: PLFunction) -> PLFunction:
    return fenchel(fenchel(f))


def svm_conjugate(fm: SVMap, uv) -> SupportEvaluation:
    """Conjugate of a set-valued mapping: the support of its graph."""
    uv = la.vec(uv)
    if len(uv) != fm.n + fm.p:
        raise DimensionMismatch("conjugate argument must live in R^(n+p)")
    return support(fm.graph, uv)


# ---------------------------------------------------------------------------
# conjugate of the optimal value function and its corollaries


def _full_graph(fm: SVMap) -> bool:
    hull = closure_hull(fm.graph)
    return hull is not None and not any(hull.closed_system().rows)


def ovf_conjugate(inst: OVFInstance, w) -> tuple[Value, Optional[SplitWitness]]:
    """mu*(w) as the convolution of f* and the graph support at (w, 0).

    The direct side evaluates mu* by LP on the assembled value function;
    the split side solves the epigraph-sum LP over (w1, v, t1, t2).  When
    the constraint graph is the whole space the split collapses to
    f*(w, 0) and no qualification is needed.
    """
    n, p = inst.fmap.n, inst.fmap.p
    w = la.vec(w)
    if len(w) != n:
        raise DimensionMismatch("conjugate argument length does not match n")
    full = _full_graph(inst.fmap)
    if not full and not inst.qc:
        raise QCViolated("ri(dom f) does not meet ri(gph F)")
    lhs = fenchel_value(inst.mu, w)

    if full:
        rhs = fenchel_value(inst.f, w + la.zeros(p))
        if rhs != lhs:
            at = format_vector(w)
            raise IdentityViolated(f"mu*{at} = {lhs} but f*(w, 0) = {rhs}")
        if lhs == PLUS_INF:
            return PLUS_INF, None
        return lhs, SplitWitness(w, la.zeros(n), la.zeros(p), (lhs, ZERO))

    # f* at (w1, v, t1), the graph support at (w - w1, -v, t2)
    ef = conjugate_epigraph(inst.f)
    z = _convolution(ef, support_epigraph(inst.fmap.graph), w + la.zeros(p), lhs)
    if z is None:
        return PLUS_INF, None
    m = n + p
    w1, v = z[:n], z[n:m]
    return lhs, SplitWitness(w1, la.sub(w, w1), v, (z[m], z[m + 1]))


# ---------------------------------------------------------------------------
# sum and chain rules


def conjugate_sum(
    f1: PLFunction, f2: PLFunction, w
) -> tuple[Value, Optional[SplitWitness]]:
    """(f1 + f2)* versus the convolution of the two conjugates.

    The left side is the sup over the lifted cells {(x, t1, t2) : (x, t1)
    in a piece of epi f1, (x, t2) in a piece of epi f2}, by
    plfunc.cells_inf; the right side is the epigraph-sum LP with its split
    witness.  Exact agreement is asserted.
    """
    if f1.n != f2.n:
        raise DimensionMismatch("summands must share the argument space")
    n = f1.n
    w = la.vec(w)
    if len(w) != n:
        raise DimensionMismatch("conjugate argument length does not match n")
    d1, d2 = shadow_hull(f1.epi, range(n)), shadow_hull(f2.epi, range(n))
    if d1 is None or d2 is None:
        raise QCViolated("a summand has empty domain")
    if strict_point(d1.ri_system().combine(d2.ri_system())) is None:
        raise QCViolated("relative interiors of the domains do not meet")

    # direct side: (x, t1) and (x, t2) placed at (x, t1, t2)
    cells = [
        c1.system().embed(range(n + 1), n + 2).combine(
            c2.system().embed([*range(n), n + 1], n + 2)
        )
        for c1 in f1.epi.pieces
        for c2 in f2.epi.pieces
    ]
    lhs = -pf.cells_inf(cells, la.neg(w) + (ONE, ONE))
    if lhs == MINUS_INF:
        raise IdentityViolated("qc guarantees a common finite point")

    z = _convolution(conjugate_epigraph(f1), conjugate_epigraph(f2), w, lhs)
    if z is None:
        return PLUS_INF, None
    return lhs, SplitWitness(z[:n], la.sub(w, z[:n]), None, (z[n], z[n + 1]))


def conjugate_chain(
    g: PLFunction, a_mat: Mat, w
) -> tuple[Value, Optional[Vec]]:
    """(g o A)*(w) = inf{g*(v) : A^T v = w}, with an attaining v.

    The left side is the sup over the epigraph cells of g pulled back by
    (x, t) -> (Ax, t), by plfunc.cells_inf; the right side is an LP over
    epi g* with the adjoint equations.
    """
    a_mat = la.mat(a_mat)
    p = g.n
    if len(a_mat) != p:
        raise DimensionMismatch("matrix must map into the function's space")
    n = len(a_mat[0]) if a_mat else 0
    w = la.vec(w)
    if len(w) != n:
        raise DimensionMismatch("conjugate argument length does not match n")
    hull_d = shadow_hull(g.epi, range(p))
    if hull_d is None:
        raise QCViolated("inner function has empty domain")
    pulled = hull_d.ri_system().pullback(a_mat, la.zeros(p))
    if strict_point(pulled) is None:
        raise QCViolated("the range of A misses ri(dom g)")

    # (x, t) -> (Ax, t) pulls epi g back to epi (g o A)
    t_rows = tuple(a_mat[i] + (ZERO,) for i in range(p))
    t_rows += (la.zeros(n) + (ONE,),)
    cells = [pc.system().pullback(t_rows, la.zeros(p + 1)) for pc in g.epi.pieces]
    lhs = -pf.cells_inf(cells, la.neg(w) + (ONE,))
    if lhs == MINUS_INF:
        raise IdentityViolated("qc guarantees the composition is somewhere finite")

    eg = conjugate_epigraph(g)
    # variables (v, beta); adjoint rows A^T v = w
    eqs = [
        (tuple(a_mat[i][j] for i in range(p)) + (ZERO,), w[j]) for j in range(n)
    ]
    out = solve_lp(
        la.zeros(p) + (ONE,),
        eg.closed_system().combine(MixedSystem(p + 1, (), (), tuple(eqs))),
    )
    if lhs == PLUS_INF:
        if out.status == "optimal":
            raise IdentityViolated("chain LP finite while (g o A)* is not")
        return PLUS_INF, None
    if out.status != "optimal" or out.value != lhs:
        got = out.value if out.status == "optimal" else out.status
        at = format_vector(w)
        raise IdentityViolated(f"(g o A)*{at} = {lhs} != chain value {got}")
    return lhs, out.witness[:p]


def composite_conjugate_identity(
    g: PLFunction, h: PLFunction, a_mat: Mat, ystar
) -> Value:
    """For f(x, y) = g(x) + h(Ax + y): f*(0, y*) equals
    g*(-A^T y*) + h*(y*); both sides are computed and must agree."""
    a_mat = la.mat(a_mat)
    ystar = la.vec(ystar)
    if len(a_mat) != h.n or len(ystar) != h.n:
        raise DimensionMismatch("matrix and y* must live in h's space")
    n = len(a_mat[0]) if a_mat else 0
    if n != g.n:
        raise DimensionMismatch("matrix width must match g's space")
    f = pf.add_with_affine_inner(g, h, a_mat)
    lhs = fenchel_value(f, la.zeros(n) + ystar)
    rhs_g = fenchel_value(g, la.neg(la.mat_t_vec(a_mat, ystar)))
    rhs_h = fenchel_value(h, ystar)
    rhs = ext_add(rhs_g, rhs_h)
    if lhs != rhs:
        raise IdentityViolated(f"f*(0, y*) = {lhs} != split sum {rhs}")
    return lhs
