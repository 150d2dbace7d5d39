"""Primal and dual optimal values for perturbed polyhedral programs.

A perturbation function f on R^{n+p} (decision block first, parameter
block second) induces mu(y) = inf_x f(x, y), the primal value V = mu(0),
and the dual value V_d = sup_{y*} -f*(0, y*). The dual sup runs as an LP
over the zero-parameter slice of the conjugate's epigraph, so both values
are exact. V >= V_d is checked on every instance; the named schemes also
evaluate their textbook dual formulas separately and cross-check them
against the slice value, raising IdentityViolated on any disagreement.

Each qualification flag is one check on hulls.  The hull of a domain is
the shadow of the hull of the epigraph or graph (ncset.shadow_hull), and
dom f is nonempty exactly when epi f has a piece, so no domain is built
as a set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from . import conjugate as cj
from . import linalg as la
from . import ncset as ns
from . import plfunc as pl
from . import svmap as sv
from . import variational as vr
from .errors import (
    DimensionMismatch,
    IdentityViolated,
    ImproperObjective,
    ImproperPerturbation,
)
from .linalg import Mat, Vec
from .lp import MixedSystem, solve_lp, strict_feasible
from .ncset import NCSet
from .plfunc import MINUS_INF, PLUS_INF, PLFunction, Value
from .rationals import ext_add, format_vector
from .svmap import SVMap


@dataclass(frozen=True)
class QCFlag:
    """One qualification decision with its evidence: a strict interior
    point when it holds, or Farkas multipliers when even the closed
    relaxation of the overlap system is empty."""

    name: str
    holds: bool
    witness: Optional[Vec] = None
    certificate: Optional[tuple] = None


@dataclass(frozen=True)
class DualityReport:
    scheme: str
    v_primal: Value
    v_dual: Value
    v_dual_formula: Optional[Value]
    gap: Value
    qc_flags: tuple[QCFlag, ...]
    primal_witness: Optional[Vec]
    dual_witness: Optional[Vec]
    subdiff_nonempty: Optional[bool]
    perturbation: PLFunction
    mu: PLFunction

    def qc(self, name: str) -> bool:
        for flag in self.qc_flags:
            if flag.name == name:
                return flag.holds
        raise KeyError(name)

    def all_qc(self) -> bool:
        return all(flag.holds for flag in self.qc_flags)


# ---------------------------------------------------------------------------
# extended-value helpers


def _gap_of(v: Value, vd: Value) -> Value:
    if v == vd:
        return la.ZERO
    if v == PLUS_INF or vd == MINUS_INF:
        return PLUS_INF
    return v - vd


def _check_weak_duality(v: Value, vd: Value) -> None:
    if v < vd:
        raise IdentityViolated(f"weak duality failed: primal {v} < dual {vd}")


def _proper(f: PLFunction) -> bool:
    return pl.assert_proper(f) and bool(f.epi.pieces)


# ---------------------------------------------------------------------------
# the general scheme


def _swap_blocks(f: PLFunction, n: int, p: int) -> PLFunction:
    """Reorder epigraph coordinates from (x, y, t) to (y, x, t)."""
    perm = tuple(range(n, n + p)) + tuple(range(n)) + (n + p,)
    return PLFunction(f.n, ns.permute_coords(f.epi, perm))


def _parameter_value_function(f: PLFunction, p: int):
    """mu(y) = inf over the decision block, plus the instance whose
    solution map yields argmin points."""
    n = f.n - p
    swapped = _swap_blocks(f, n, p)
    free = sv.svmap(p, n, ns.whole_space(p + n))
    inst = vr.build_ovf(swapped, free)
    return inst.mu, inst


def _dual_slice_value(f: PLFunction, p: int) -> tuple[Value, Optional[Vec]]:
    """sup_{y*} -f*(0, y*), as min beta over the conjugate's epigraph with
    the decision-block coordinates pinned to zero."""
    n = f.n - p
    epi_star = cj.conjugate_epigraph(f)
    dim = f.n + 1
    pins = tuple((la.unit(dim, i), la.ZERO) for i in range(n))
    system = epi_star.closed_system().combine(MixedSystem(dim, (), (), pins))
    out = solve_lp(la.unit(dim, dim - 1), system)
    if out.status == "infeasible":
        return MINUS_INF, None
    if out.status == "unbounded":
        return PLUS_INF, None
    return -out.value, out.witness[n : n + p]


def _general_flags(f: PLFunction, p: int) -> tuple[QCFlag, ...]:
    """Does the origin lie in the relative interior of the parameter
    shadow of dom f?"""
    hull = ns.shadow_hull(f.epi, range(f.n - p, f.n))
    origin = la.zeros(p)
    holds = hull is not None and hull.ri_system().satisfies(origin)
    return (QCFlag("parameter_origin_interior", holds, origin if holds else None),)


def general_duality(f: PLFunction, p: int) -> DualityReport:
    """Exact primal and dual values; the last p coordinates of f's
    argument are the parameter block.

    Strong duality is enforced, not just reported, whenever the origin
    flag holds or mu has a subgradient at the origin; a gap under either
    hypothesis raises IdentityViolated.
    """
    if not 1 <= p < f.n:
        raise DimensionMismatch("parameter block must be a proper suffix")
    if not _proper(f):
        raise ImproperPerturbation(
            "perturbation must be proper with nonempty domain"
        )
    mu, inst = _parameter_value_function(f, p)
    origin = la.zeros(p)
    v = pl.eval_at(mu, origin)
    vd, ystar = _dual_slice_value(f, p)
    _check_weak_duality(v, vd)

    flags = _general_flags(f, p)
    sub_ok: Optional[bool] = None
    if isinstance(v, Fraction):
        sub_ok = not vr.subdifferential(mu, origin).is_empty()
    if (flags[0].holds or sub_ok) and v != vd:
        raise IdentityViolated(f"strong duality expected, got {v} vs {vd}")

    primal = None
    if isinstance(v, Fraction):
        primal = ns.ri_sample(vr.solution_map(inst, origin))
    return DualityReport(
        scheme="general",
        v_primal=v,
        v_dual=vd,
        v_dual_formula=None,
        gap=_gap_of(v, vd),
        qc_flags=flags,
        primal_witness=primal,
        dual_witness=ystar,
        subdiff_nonempty=sub_ok,
        perturbation=f,
        mu=mu,
    )


# ---------------------------------------------------------------------------
# constrained scheme: minimize phi over theta subject to 0 in G(x)


def _lagrange_flags(phi: PLFunction, theta: NCSet, g: SVMap) -> tuple[QCFlag, ...]:
    """Do ri(dom phi), ri(dom G) and ri(theta) meet, and does the origin
    lie in the ri of G's image of theta and dom phi?"""
    n, p = theta.dim, g.p
    hulls = [
        ns.shadow_hull(phi.epi, range(n)),
        ns.shadow_hull(g.graph, range(n)),
        ns.closure_hull(theta),
    ]
    if any(hull is None for hull in hulls):
        return (
            QCFlag("triple_ri_overlap", False),
            QCFlag("origin_in_ri_image", False),
        )
    cells = [hull.ri_system() for hull in hulls]
    sf = strict_feasible(cells[0].combine(cells[1]).combine(cells[2]))
    triple = QCFlag("triple_ri_overlap", sf.feasible, sf.witness, sf.certificate)

    # G(theta cap dom phi): the y-shadow of x in theta, (x, t) in epi phi
    # and (x, y) in gph G, over (x, y, t)
    parts = [
        (theta, range(n)),
        (phi.epi, [*range(n), n + p]),
        (g.graph, range(n + p)),
    ]
    hull = ns.closure_hull(ns.joint_image(n + p + 1, parts, range(n, n + p)))
    origin = la.zeros(p)
    holds = hull is not None and hull.ri_system().satisfies(origin)
    at_zero = QCFlag("origin_in_ri_image", holds, origin if holds else None)
    return triple, at_zero


def _graph_inf(
    theta: NCSet, g: SVMap, phi: Optional[PLFunction], cx: Vec, cy: Vec
) -> Value:
    """inf of <cx, x> + <cy, y> + phi(x) over x in theta, y in G(x); the
    phi term is optional. +inf when nothing is feasible.

    The feasible set is the union over (theta piece, graph piece,
    epigraph piece) of the joint ri cells, each embedded at (x, y, t), so
    this is `plfunc.cells_inf` on them: a triple counts only when the
    relative interiors meet."""
    n, p = g.n, g.p
    with_phi = phi is not None
    dim = n + p + 1 if with_phi else n + p
    cost = tuple(cx) + tuple(cy) + ((la.ONE,) if with_phi else ())
    f_cells = [MixedSystem(dim)]
    if with_phi:
        # epigraph cells (x, t) of phi, placed at (x, y, t)
        at = [*range(n), n + p]
        f_cells = [pc.system().embed(at, dim) for pc in phi.epi.pieces]
    cells = []
    for tc in theta.pieces:
        t_cell = tc.system().embed(range(n), dim)
        for gc in g.graph.pieces:
            tg_cell = t_cell.combine(gc.system().embed(range(n + p), dim))
            cells += [tg_cell.combine(fc) for fc in f_cells]
    return pl.cells_inf(cells, la.vec(cost))


def lagrange_dual_value(
    phi: PLFunction, theta: NCSet, g: SVMap, ystar: Vec
) -> Value:
    """The dual function: inf over x in theta of phi(x) plus the support
    term inf{<-y*, y> : y in G(x)}, evaluated as one joint program."""
    return _graph_inf(theta, g, phi, la.zeros(g.n), la.neg(la.vec(ystar)))


def _vacuous_report(
    scheme: str, flags: tuple[QCFlag, ...], f: PLFunction, p: int
) -> DualityReport:
    # no (x, y) satisfies the constraints for any parameter: both values
    # are +inf (the dual sup ranges over -f* = +inf identically)
    return DualityReport(
        scheme=scheme,
        v_primal=PLUS_INF,
        v_dual=PLUS_INF,
        v_dual_formula=PLUS_INF,
        gap=la.ZERO,
        qc_flags=flags,
        primal_witness=None,
        dual_witness=None,
        subdiff_nonempty=None,
        perturbation=f,
        mu=PLFunction(p, NCSet(p + 1, ())),
    )


def lagrange_duality(phi: PLFunction, theta: NCSet, g: SVMap) -> DualityReport:
    """Constrained scheme: minimize phi(x) over x in theta with 0 in G(x),
    perturbed by translating the constraint parameter."""
    if phi.n != g.n or theta.dim != g.n:
        raise DimensionMismatch("objective, constraint map, and base set disagree")
    if not _proper(phi):
        raise ImproperObjective("objective must be proper")
    f, built_qc = pl.build_composite_phi(phi, theta, g)
    flags = _lagrange_flags(phi, theta, g)
    if flags[0].holds != built_qc:
        raise IdentityViolated("the built and the checked qualification disagree")
    if not f.epi.pieces:
        return _vacuous_report("lagrange", flags, f, g.p)

    base = general_duality(f, g.p)
    probes = [la.zeros(g.p)]
    if base.dual_witness is not None:
        probes.append(base.dual_witness)
    formula = None
    for ystar in probes:
        want = -cj.fenchel_value(f, la.zeros(g.n) + tuple(ystar))
        formula = lagrange_dual_value(phi, theta, g, ystar)
        if formula != want:
            raise IdentityViolated(
                "dual function disagrees with the conjugate slice at "
                + format_vector(ystar)
            )
    if flags[0].holds and flags[1].holds and base.gap != 0:
        raise IdentityViolated("qualified constrained program left a gap")
    return replace(
        base,
        scheme="lagrange",
        qc_flags=base.qc_flags + flags,
        v_dual_formula=formula,
    )


# cone-order specialization: constraint g(x) <= 0 against a cone K


def _cone_flag(
    phi: PLFunction, theta: NCSet, a_mat: Mat, c: Vec, k: pl.PolyCone
) -> QCFlag:
    """Is some x in ri(theta) and ri(dom phi) strictly cone-feasible,
    meaning -g(x) lands in ri K?"""
    hull_p = ns.shadow_hull(phi.epi, range(phi.n))
    hull_t = ns.closure_hull(theta)
    if hull_p is None or hull_t is None:
        return QCFlag("cone_ri_overlap", False)
    # -g(x) in ri K: pull ri K back under x -> -Ax - c
    minus_a = tuple(la.neg(row) for row in a_mat)
    pulled = k.k.ri_system().pullback(minus_a, la.neg(la.vec(c)))
    joint = hull_p.ri_system().combine(hull_t.ri_system()).combine(pulled)
    sf = strict_feasible(joint)
    return QCFlag("cone_ri_overlap", sf.feasible, sf.witness, sf.certificate)


def lagrange_cone_duality(
    phi: PLFunction, theta: NCSet, a_mat: Mat, c: Vec, k: pl.PolyCone
) -> DualityReport:
    """Affine constraint g(x) = Ax + c ordered by the cone K: feasibility
    is -g(x) in K, realized as 0 in g(x) + K.

    The reported dual witness is the cone multiplier, the negative of the
    parameter-space dual vector, so it is nonnegative against K.
    """
    a_mat = la.mat(a_mat)
    g = sv.affine_plus_cone(a_mat, c, k.k)
    report = lagrange_duality(phi, theta, g)
    cone_flag = _cone_flag(phi, theta, a_mat, c, k)
    if cone_flag.holds and report.gap != 0:
        raise IdentityViolated("strictly cone-feasible program left a gap")
    lam = None
    if report.dual_witness is not None:
        lam = la.neg(report.dual_witness)
    return replace(
        report, qc_flags=report.qc_flags + (cone_flag,), dual_witness=lam
    )


def vg_value(g: SVMap, x: Vec, ystar: Vec) -> Value:
    """inf of <-y*, y> over y in G(x), the support term of Lemma 7.4, by
    plfunc.slice_inf: the same value as an LP on each canonical piece of
    G(x), with no canonical form taken.  The graph of x -> Ax + c + K is
    the faces of one closed polyhedron, whose top face holds all the
    others, so each call is one LP on that face's closed slice: a point
    or ray it returns lies in the closed graph, so no strict point is
    sought.  On at most two free columns of the slice, that LP comes by
    elimination with no simplex (polyhedron.least)."""
    return pl.slice_inf(g.graph, la.vec(x), la.neg(la.vec(ystar)))


def vg_closed_form(
    a_mat: Mat, c: Vec, k: pl.PolyCone, x: Vec, ystar: Vec
) -> Value:
    """-<y*, g(x)> when -y* lies in the positive dual cone, else -inf.

    -y* is in K* = {z : <z, y> >= 0 for all y in K} exactly when
    <y*, g> <= 0 for every generator g of K (its rays and its point, the
    origin), read from the generators kept on K with no LP."""
    ystar = la.vec(ystar)
    v = k.generators
    if all(la.dot(ystar, r) <= 0 for r in v.rays + v.points):
        gx = la.add(la.mat_vec(la.mat(a_mat), la.vec(x)), la.vec(c))
        return -la.dot(ystar, gx)
    return MINUS_INF


# ---------------------------------------------------------------------------
# split scheme: the objective argument perturbed separately


def h1_value(
    phi: PLFunction, theta: NCSet, g: SVMap, ustar: Vec, ystar: Vec
) -> Value:
    """-phi*(u*) plus the best <u*, x> - <y*, y> over the constraint
    graph clipped to theta."""
    inner = _graph_inf(theta, g, None, la.vec(ustar), la.neg(la.vec(ystar)))
    return ext_add(-cj.fenchel_value(phi, la.vec(ustar)), inner)


def fenchel_lagrange_duality(
    phi: PLFunction, theta: NCSet, g: SVMap
) -> DualityReport:
    """Same primal as the constrained scheme, but the objective argument
    carries its own perturbation, so the dual variable splits as
    (u*, y*) and the dual function separates through phi*."""
    if phi.n != g.n or theta.dim != g.n:
        raise DimensionMismatch("objective, constraint map, and base set disagree")
    if not _proper(phi):
        raise ImproperObjective("objective must be proper")
    f1, built_qc = pl.build_composite_psi(phi, theta, g)
    flags = _lagrange_flags(phi, theta, g)
    if flags[0].holds != built_qc:
        raise IdentityViolated("the built and the checked qualification disagree")
    n, p = g.n, g.p
    if not f1.epi.pieces:
        return _vacuous_report("fenchel-lagrange", flags, f1, n + p)

    base = general_duality(f1, n + p)
    probes = [(la.zeros(n), la.zeros(p))]
    if base.dual_witness is not None:
        w = base.dual_witness
        probes.append((w[:n], w[n:]))
    formula = None
    for ustar, ystar in probes:
        want = -cj.fenchel_value(f1, la.zeros(n) + tuple(ustar) + tuple(ystar))
        formula = h1_value(phi, theta, g, ustar, ystar)
        if formula != want:
            raise IdentityViolated(
                "split dual formula disagrees with the slice at "
                f"u* = {format_vector(ustar)}, y* = {format_vector(ystar)}"
            )
    if flags[0].holds and flags[1].holds and base.gap != 0:
        raise IdentityViolated("qualified split program left a gap")
    return replace(
        base,
        scheme="fenchel-lagrange",
        qc_flags=base.qc_flags + flags,
        v_dual_formula=formula,
    )


# ---------------------------------------------------------------------------
# additive scheme: g(x) + h(Ax), parameter shifting the inner argument


def _fenchel_flag(g_fn: PLFunction, h_fn: PLFunction, a_mat: Mat) -> QCFlag:
    hull_g = ns.shadow_hull(g_fn.epi, range(g_fn.n))
    hull_h = ns.shadow_hull(h_fn.epi, range(h_fn.n))
    if hull_g is None or hull_h is None:
        return QCFlag("affine_image_ri_overlap", False)
    pulled = hull_h.ri_system().pullback(a_mat, la.zeros(h_fn.n))
    sf = strict_feasible(hull_g.ri_system().combine(pulled))
    return QCFlag("affine_image_ri_overlap", sf.feasible, sf.witness, sf.certificate)


def _fenchel_dual_lp(
    g_fn: PLFunction, h_fn: PLFunction, a_mat: Mat
) -> tuple[Value, Optional[Vec]]:
    """sup_{y*} -g*(-A^T y*) - h*(y*) as one LP over the two conjugate
    epigraphs, variables (y*, beta_g, beta_h)."""
    eg = cj.conjugate_epigraph(g_fn).closed_system()
    eh = cj.conjugate_epigraph(h_fn).closed_system()
    n, p = g_fn.n, h_fn.n
    dim = p + 2
    # g* is read at (-A^T y*, beta_g) and h* at (y*, beta_h)
    to_g = tuple(
        tuple(-a_mat[j][i] for j in range(p)) + (la.ZERO, la.ZERO) for i in range(n)
    ) + (la.unit(dim, p),)
    system = eg.pullback(to_g, la.zeros(n + 1))
    system = system.combine(eh.embed([*range(p), p + 1], dim))
    cost = la.add(la.unit(dim, p), la.unit(dim, p + 1))
    out = solve_lp(cost, system)
    if out.status == "infeasible":
        return MINUS_INF, None
    if out.status == "unbounded":
        return PLUS_INF, None
    return -out.value, out.witness[:p]


def fenchel_duality(
    g_fn: PLFunction, h_fn: PLFunction, a_mat: Mat
) -> DualityReport:
    """Additive scheme for g(x) + h(Ax) with A mapping R^n to R^p."""
    a_mat = la.mat(a_mat)
    n, p = g_fn.n, h_fn.n
    if len(a_mat) != p or any(len(row) != n for row in a_mat):
        raise DimensionMismatch("matrix shape must map dom g into dom h")
    for fn in (g_fn, h_fn):
        if not _proper(fn):
            raise ImproperObjective("both summands must be proper")
    f = pl.add_with_affine_inner(g_fn, h_fn, a_mat)
    base = general_duality(f, p)

    vd2, ystar2 = _fenchel_dual_lp(g_fn, h_fn, a_mat)
    if vd2 != base.v_dual:
        raise IdentityViolated(
            f"conjugate-pair dual {vd2} disagrees with the slice {base.v_dual}"
        )
    probes = {la.zeros(p), ystar2, base.dual_witness} - {None}
    for ys in sorted(probes):
        cj.composite_conjugate_identity(g_fn, h_fn, a_mat, ys)

    flag = _fenchel_flag(g_fn, h_fn, a_mat)
    if flag.holds and base.gap != 0:
        raise IdentityViolated("qualified additive program left a gap")
    dual = base.dual_witness if base.dual_witness is not None else ystar2
    return replace(
        base,
        scheme="fenchel",
        qc_flags=base.qc_flags + (flag,),
        v_dual_formula=vd2,
        dual_witness=dual,
    )
