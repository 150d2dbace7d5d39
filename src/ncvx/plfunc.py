"""Extended-real piecewise linear functions carried by their epigraphs.

A function is stored as the set epi = {(x, lam) : f(x) <= lam} in R^{n+1},
a nearly convex set whenever the function is.  Two structural rules make
the set an honest epigraph: it absorbs upward vertical rays, and every
nonempty vertical slice attains its infimum (or is unbounded below).  The
``envelope`` operator rebuilds the epigraph induced by an arbitrary set,
so validity is the single exact equality envelope(s) = s.

Values are Fractions, with ``rationals.PLUS_INF`` / ``MINUS_INF`` for the
two extended values.  Improper functions are representable; most
downstream constructions require ``assert_proper`` first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional, Sequence

from . import linalg as la
from . import svmap as sv
from .errors import CertificateError, DimensionMismatch, InvalidEpigraph, UsageError
from .linalg import Mat, Vec
from .lp import LPOutcome, MixedSystem, _integer_point, solve_lp
from .ncset import (
    NCSet,
    affine_preimage,
    closure_hull,
    contains_set,
    from_closed_hpoly,
    is_nearly_convex,
    joint_image,
    ncset,
    product,
    require_valid,
    whole_space,
)
from .polyhedron import (
    HPoly,
    VPoly,
    canonical_form,
    closed_shadow,
    decompose_mixed,
    hpoly,
    least,
    polyhedron_equal,
    project_mixed,
    ri_point,
    ri_shadow,
    strict_point,
    to_vrep,
)
from .rationals import MINUS_INF, PLUS_INF, ExtReal as Value
from .svmap import SVMap


@dataclass(frozen=True)
class PLFunction:
    """f: R^n -> [-inf, +inf] with polyhedrally representable epigraph."""

    n: int
    epi: NCSet

    def __post_init__(self):
        if self.epi.dim != self.n + 1:
            raise DimensionMismatch("epigraph must live in R^(n+1)")


def plfunction(n: int, epi: NCSet) -> PLFunction:
    return PLFunction(n, epi)


# ---------------------------------------------------------------------------
# concrete constructors


def max_affine(n: int, rows: Sequence[tuple], domain: Optional[NCSet] = None) -> PLFunction:
    """max_i(a_i.x + b_i), plus the indicator of ``domain`` when given.

    An empty ``rows`` list gives the constant -inf on the domain.
    """
    epi_rows = []
    for a, b in rows:
        a = la.vec(a)
        if len(a) != n:
            raise DimensionMismatch("affine row length does not match n")
        # lam >= a.x + b
        epi_rows.append((a + (-la.ONE,), -Fraction(b)))
    if epi_rows:
        epi = from_closed_hpoly(hpoly(n + 1, epi_rows))
    else:
        epi = whole_space(n + 1)
    if domain is not None:
        if domain.dim != n:
            raise DimensionMismatch("domain dim does not match n")
        parts = [(epi, range(n + 1)), (domain, range(n))]
        epi = joint_image(n + 1, parts, range(n + 1))
    return PLFunction(n, epi)


def indicator(s: NCSet) -> PLFunction:
    """0 on s, +inf elsewhere."""
    upward = from_closed_hpoly(hpoly(1, [((-la.ONE,), la.ZERO)]))
    return PLFunction(s.dim, product(s, upward))


def affine_function(a, b) -> PLFunction:
    a = la.vec(a)
    return max_affine(len(a), [(a, b)])


def const_function(n: int, v) -> PLFunction:
    return max_affine(n, [(la.zeros(n), v)])


# ---------------------------------------------------------------------------
# evaluation, domain, properness


def cells_inf(cells: Sequence[MixedSystem], cost: Vec) -> Value:
    """inf of <cost, z> over the union of the cells, each the solution set
    of a mixed system (a relatively open convex set); +inf when every cell
    is empty, -inf when the union is unbounded below.

    A nonempty cell C has the LP value of its closed system.  For z0 in C
    and z in the closed system, (1 - t) z0 + t z lies in C for 0 <= t < 1,
    so cl C is the closed system (Rockafellar, Thm 6.5: cl of an
    intersection of convex sets whose ri's meet is the intersection of the
    closures), and a linear cost has the same inf over C and over cl C.
    So the answer is the least closed-LP value over the nonempty cells,
    and only emptiness needs deciding.  One closed LP per cell, then
    (_closed_lp: by elimination on at most two free columns, else by the
    simplex):
    - infeasible: the cell is empty, by the LP's Farkas certificate;
    - unbounded: when the point plus the improving ray satisfies the
      cell, that point lies in C and the ray keeps it there, so the inf
      is -inf at once;
    - otherwise the value is kept, marked verified when the LP's point
      satisfies the cell.
    The kept values are walked from the least (-inf first, verified before
    unverified, then by cell order); the first that is verified, or whose
    cell `strict_point` finds nonempty, is the inf.  So a strict point is
    sought only on a cell that the walk reaches and whose LP point misses
    it."""
    kept = []
    for i, cell in enumerate(cells):
        out = _closed_lp(cell, cost)
        if out.status == "infeasible":
            continue
        if out.status == "unbounded":
            if cell.satisfies(la.add(out.witness, out.certificate)):
                return MINUS_INF
            value = MINUS_INF
        else:
            value = out.value
        kept.append((value, not cell.satisfies(out.witness), i))
    for value, unverified, i in sorted(kept):
        if not unverified or strict_point(cells[i]) is not None:
            return value
    return PLUS_INF


def _closed_lp(cell: MixedSystem, cost: Vec) -> LPOutcome:
    """The LP of cost on the closed system of a cell: polyhedron.least,
    exact with no simplex, when the equalities leave at most two free
    columns, else solve_lp.  least's witness and ray are not solve_lp's,
    so they serve only the checks that settle which value, each unique,
    is the inf."""
    closed = cell.closed()
    return least(closed, _integer_point(cost)) or solve_lp(cost, closed)


def slice_inf(s: NCSet, x: Vec, cost: Vec) -> Value:
    """inf of <cost, y> over the slice {y : (x, y) in s}; +inf when the
    slice is empty, -inf when it is unbounded below.

    The slice is the union of the cells {y : (x, y) in ri(B)} of the
    pieces, so `cells_inf` on them gives it.  When ri(B) meets the affine
    set L = {x} x R^m, the closure of ri(B) intersected with L is B
    intersected with L (Rockafellar, Thm 6.5): the closed base of the
    slice's own ri piece, with the same LP value, so no slice is put in
    canonical form.

    A set with a dominant piece D (`NCSet.dominant`) needs one closed LP,
    on the slice D_x of D (_closed_lp: by elimination, with no simplex,
    when its equalities leave at most two free columns): every piece lies
    in D, so the slice lies in D_x and no value is below the LP's.
    - Infeasible: the slice is empty, +inf; the Farkas certificate
      covers every piece at once.
    - Optimal at w with (x, w) in the set: the LP value is attained.
    - Unbounded with point w and ray r, where w + r lies in the dominant
      cell ri(D) with L: r recedes in its closure D_x, and a relatively
      open convex set holds every point between one of its points and a
      point of its closure (Rockafellar, Thm 6.1), so the cell holds the
      whole ray and the inf is -inf.
    - Otherwise the dominant cell decides, by `strict_point`.  When it is
      nonempty its closure is D_x (Thm 6.5), and the slice lies between
      the two, so the LP value (or -inf) is the inf.
    Only an empty dominant cell, or a set with no dominant piece, goes
    through `cells_inf` over every piece.

    The dominant slice is `MixedSystem.fix` of D's ri system, worked on
    its integer rows and the integer x with no Fraction built."""
    if len(x) + len(cost) != s.dim:
        raise DimensionMismatch("point length does not match input dim")
    top = s.dominant
    if top is not None:
        cell = top.system().fix(0, x)
        out = _closed_lp(cell, cost)
        if out.status == "infeasible":
            return PLUS_INF
        if out.status == "optimal":
            if s.contains(x + out.witness):
                return out.value
        elif cell.satisfies(la.add(out.witness, out.certificate)):
            return MINUS_INF
        if strict_point(cell) is not None:
            return MINUS_INF if out.status == "unbounded" else out.value
    return cells_inf([pc.system().fix(0, x) for pc in s.pieces], cost)


def eval_at(f: PLFunction, x: Vec) -> Value:
    """inf{lam : (x, lam) in epi}; +inf off the domain, -inf when the
    slice is unbounded below.  One closed LP on the slice of the
    epigraph's dominant piece when it has one (`slice_inf`), which every
    epigraph built by `from_closed_hpoly` does."""
    return slice_inf(f.epi, la.vec(x), (la.ONE,))


def dom(f: PLFunction) -> NCSet:
    """Projection of the epigraph onto the argument block, as a set.  The
    library reads only the hull of a domain, off the hull of the epigraph
    (ncset.shadow_hull), and its emptiness, which is that of the
    epigraph; the full set serves callers that sample or compare the
    domain itself."""
    return sv.dom(epigraphical_map(f))


def assert_proper(f: PLFunction) -> bool:
    """True iff f never takes -inf.

    A piece produces -inf exactly when its closed base recedes straight
    down, which is a sign condition on the lam column of its rows.
    """
    for pc in f.epi.pieces:
        weak, _, eq = pc.base.closed_system().rows
        if all(a[f.n] >= 0 for a, _, _ in weak) and all(a[f.n] == 0 for a, _, _ in eq):
            return False
    return True


# ---------------------------------------------------------------------------
# the epigraphical mapping E_f


def epigraphical_map(f: PLFunction) -> SVMap:
    """x => {lam : f(x) <= lam}; its graph is the epigraph itself."""
    return SVMap(f.n, 1, f.epi)


def from_epigraphical(e: SVMap) -> PLFunction:
    """Inverse of epigraphical_map; rejects maps whose graphs break the
    epigraph rules."""
    if e.p != 1:
        raise UsageError("epigraphical mappings have one output coordinate")
    f = PLFunction(e.n, e.graph)
    require_valid_function(f)
    return f


# ---------------------------------------------------------------------------
# epigraph validity via the lower envelope


@lru_cache(maxsize=None)
def envelope(s: NCSet) -> NCSet:
    """Epigraph of x -> inf{lam : (x, lam) in s}.

    Always contains s; equals s exactly when s is a legitimate epigraph.
    Per piece: the x-shadow of the piece (relatively open, ri_shadow from
    the ri point its canonical base keeps) crossed with the upward
    closure of the closed base (closed_shadow, no LP), split into open
    cells.
    """
    n = s.dim - 1
    xs = list(range(n))
    bases = []
    for pc in s.pieces:
        q = pc.base
        shadow = ri_shadow(q.ri_system(), ri_point(q), xs).ri_system()
        # upward closure of q, computed over (x, lam', lam) with lam' <= lam
        chain = (la.zeros(n) + (la.ONE, -la.ONE), la.ZERO)
        lifted = q.closed_system().embed(range(n + 1), n + 2)
        lifted = lifted.combine(MixedSystem(n + 2, (chain,)))
        upward = closed_shadow(lifted, xs + [n + 1]).closed_system()
        cell = upward.combine(shadow.embed(xs, n + 1))
        bases.extend(decompose_mixed(cell))
    return ncset(s.dim, bases)


def valid_epigraph(f: PLFunction) -> bool:
    """Exact check of the vertical-ray and attained-slice rules."""
    return contains_set(f.epi, envelope(f.epi))


def require_valid_function(f: PLFunction) -> None:
    if not valid_epigraph(f):
        raise InvalidEpigraph("set is not the epigraph of any function")


# ---------------------------------------------------------------------------
# strict epigraph {(x, lam) : f(x) < lam}


def epi_strict(f: PLFunction) -> NCSet:
    """Strict epigraph, epi plus the open upward ray: the shadow on
    (x, mu) of (x, lam, mu) with (x, lam) in epi and lam < mu."""
    n = f.n
    below = ncset(2, [hpoly(2, [((la.ONE, -la.ONE), la.ZERO)])])  # ri: lam < mu
    parts = [(f.epi, range(n + 1)), (below, (n, n + 1))]
    return joint_image(n + 2, parts, [*range(n), n + 1])


def strict_epi_closure_holds(f: PLFunction) -> bool:
    """cl(strict epi) = cl(epi), an identity for every valid function."""
    a = closure_hull(f.epi)
    b = closure_hull(epi_strict(f))
    if a is None or b is None:
        return a is None and b is None
    return polyhedron_equal(a, b)


# ---------------------------------------------------------------------------
# restriction to a set


def restrict_function(f: PLFunction, omega: NCSet) -> tuple[PLFunction, bool]:
    """f + indicator of omega; flag is the overlap condition
    ri(dom f) meets ri(omega)."""
    g, qc = sv.restrict(epigraphical_map(f), omega)
    return PLFunction(f.n, g.graph), qc


def certify_restrict_function(f: PLFunction, omega: NCSet, got: PLFunction) -> bool:
    """Exact equality ri(epi of restriction) = ri(epi) within omega's ri,
    for the restriction got that restrict_function(f, omega) returned."""
    return sv.certify_restrict(epigraphical_map(f), omega, epigraphical_map(got))


# ---------------------------------------------------------------------------
# generalized epigraphs with respect to a set of the output space


def epi_m(g_mat: Mat, g_shift: Vec, m: NCSet) -> tuple[NCSet, bool]:
    """{(x, y) : y - (Gx + c) in M} together with an exact certificate
    that its ri is the same set built from ri(M).

    The defining map (x, y) -> y - Gx - c is affine and onto, so the
    certificate holds on every valid instance; it is still computed, not
    assumed.
    """
    require_valid(m)
    p = m.dim
    g_mat = la.mat(g_mat)
    g_shift = la.vec(g_shift)
    if len(g_mat) != p or len(g_shift) != p:
        raise DimensionMismatch("affine map must have M's dim many rows")
    t = tuple(la.neg(g_mat[i]) + la.unit(p, i) for i in range(p))
    shift = la.neg(g_shift)
    result, _ = affine_preimage(m, t, shift)

    hull_m = closure_hull(m)
    hull_r = closure_hull(result)
    if hull_m is None or hull_r is None:
        return result, hull_m is None and hull_r is None
    pulled_ri = hull_m.ri_system().pullback(t, shift)
    ok, _ = is_nearly_convex(result)
    certified = ok and (
        project_mixed(pulled_ri, range(pulled_ri.dim)) == hull_r.ri_system()
    )
    return result, certified


# ---------------------------------------------------------------------------
# composite constructors


def build_composite_phi(
    f: PLFunction, theta: NCSet, g: SVMap
) -> tuple[PLFunction, bool]:
    """(x, y) -> f(x) when x in theta and y in G(x), +inf otherwise."""
    e, qc = sv.build_phi(theta, epigraphical_map(f), g)
    return PLFunction(e.n, e.graph), qc


def build_composite_psi(
    f: PLFunction, theta: NCSet, g: SVMap
) -> tuple[PLFunction, bool]:
    """(x, u, y) -> f(x+u) when x in theta and y in G(x), +inf otherwise."""
    e, qc = sv.build_psi(theta, epigraphical_map(f), g)
    return PLFunction(e.n, e.graph), qc


def build_composite_phi_cone(
    f: PLFunction, theta: NCSet, a: Mat, c: Vec, k: "PolyCone"
) -> tuple[PLFunction, bool]:
    """Constraint given as g(x) <= y in the cone order: y in g(x) + K."""
    return build_composite_phi(f, theta, sv.affine_plus_cone(a, c, k.k))


def build_composite_psi_cone(
    f: PLFunction, theta: NCSet, a: Mat, c: Vec, k: "PolyCone"
) -> tuple[PLFunction, bool]:
    return build_composite_psi(f, theta, sv.affine_plus_cone(a, c, k.k))


def add_with_affine_inner(f: PLFunction, g: PLFunction, a: Mat) -> PLFunction:
    """(x, y) -> f(x) + g(Ax + y); needs nonempty domains, no overlap
    condition."""
    e = sv.sum_with_affine_inner(epigraphical_map(f), epigraphical_map(g), a)
    return PLFunction(e.n, e.graph)


# ---------------------------------------------------------------------------
# polyhedral cones and duality between them


@dataclass(frozen=True)
class PolyCone:
    """Closed cone {y : Ky <= 0, Ey = 0}, kept in canonical form."""

    k: HPoly

    def __post_init__(self):
        weak, _, eq = self.k.closed_system().rows
        if any(b for _, b, _ in weak + eq):
            raise UsageError("cone rows must be homogeneous")

    @cached_property
    def generators(self) -> VPoly:
        """to_vrep(k), kept on the cone; not a field, so repr, equality and
        hashing see k alone."""
        return to_vrep(self.k)


def polycone(p: HPoly) -> PolyCone:
    weak, _, eq = p.closed_system().rows
    if any(b for _, b, _ in weak + eq):
        raise UsageError("cone rows must be homogeneous")
    canon = canonical_form(p)
    if canon is None:
        raise CertificateError("0 satisfies every homogeneous row")
    return PolyCone(canon)


def nonneg_orthant(q: int) -> PolyCone:
    return polycone(hpoly(q, [(la.neg(la.unit(q, i)), la.ZERO) for i in range(q)]))


def dual_cone(k: PolyCone) -> PolyCone:
    """{y* : <y*, y> >= 0 for all y in K}, via the generators of K."""
    v = k.generators
    rows = [(la.neg(r), la.ZERO) for r in v.rays]
    rows += [(la.neg(p), la.ZERO) for p in v.points if not la.is_zero(p)]
    canon = canonical_form(hpoly(k.k.dim, rows))
    if canon is None:
        raise CertificateError("0 satisfies every homogeneous row")
    return PolyCone(canon)
