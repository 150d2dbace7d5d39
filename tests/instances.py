"""Shared fixed instances used across test modules."""

import importlib
import pkgutil
from fractions import Fraction as F

import ncvx
from ncvx import linalg as la
from ncvx import polyhedron
from ncvx.ncset import NCSet, ncset
from ncvx.polyhedron import HPoly, box, hpoly

UNIT_SQUARE = box([(0, 1), (0, 1)])


def clear_caches() -> None:
    """Empty every cache in the ncvx modules, so LP counts start cold."""
    for info in pkgutil.iter_modules(ncvx.__path__):
        module = importlib.import_module(f"ncvx.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def origin_lp_calls(monkeypatch) -> list:
    """A list that grows by one at each phase-2 LP from the origin
    (lp.maximize_from_origin), which has no cache: the polyhedron module,
    its only caller, calls a counting wrapper until monkeypatch undoes it."""
    calls = []
    real = polyhedron.maximize_from_origin

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(polyhedron, "maximize_from_origin", counted)
    return calls


def punctured_square() -> NCSet:
    """The unit square with the midpoint of its bottom edge removed: the
    interior, three full open edges, two open bottom half-edges, and the
    four vertices."""
    pieces = [UNIT_SQUARE]
    # full open edges: left, right, top
    pieces.append(hpoly(2, ineq=[((0, 1), 1), ((0, -1), 0)], eq=[((1, 0), 0)]))
    pieces.append(hpoly(2, ineq=[((0, 1), 1), ((0, -1), 0)], eq=[((1, 0), 1)]))
    pieces.append(hpoly(2, ineq=[((1, 0), 1), ((-1, 0), 0)], eq=[((0, 1), 1)]))
    # bottom edge, split at the removed midpoint (1/2, 0)
    pieces.append(hpoly(2, ineq=[((1, 0), F(1, 2)), ((-1, 0), 0)], eq=[((0, 1), 0)]))
    pieces.append(hpoly(2, ineq=[((1, 0), 1), ((-1, 0), F(-1, 2))], eq=[((0, 1), 0)]))
    for vx in (0, 1):
        for vy in (0, 1):
            pieces.append(hpoly(2, eq=[((1, 0), vx), ((0, 1), vy)]))
    return ncset(2, pieces)


def half_open_interval() -> NCSet:
    """(0, 1] = ri[0,1] union {1}."""
    return ncset(
        1,
        [
            hpoly(1, ineq=[((1,), 1), ((-1,), 0)]),
            hpoly(1, eq=[((1,), 1)]),
        ],
    )


def two_points() -> NCSet:
    """{0} union {1} in R: not nearly convex."""
    return ncset(1, [hpoly(1, eq=[((1,), 0)]), hpoly(1, eq=[((1,), 1)])])


def open_square() -> NCSet:
    return ncset(2, [UNIT_SQUARE])


def point_set(*coords) -> NCSet:
    n = len(coords)
    return ncset(n, [hpoly(n, eq=[(la.unit(n, i), F(c)) for i, c in enumerate(coords)])])


def strip_map():
    """x maps to [x, x+1] for x in [0,2]: closed parallelogram graph."""
    from ncvx.ncset import from_closed_hpoly
    from ncvx.svmap import SVMap

    graph = hpoly(
        2,
        ineq=[((1, 0), 2), ((-1, 0), 0), ((1, -1), 0), ((-1, 1), 1)],
    )
    return SVMap(1, 1, from_closed_hpoly(graph))


def interval_set(lo, hi) -> NCSet:
    from ncvx.ncset import from_closed_hpoly

    return from_closed_hpoly(box([(lo, hi)]))


def abs_fn():
    """f(x) = |x|."""
    from ncvx.plfunc import max_affine

    return max_affine(1, [((1,), 0), ((-1,), 0)])


def random_plfunction(rng, allow_improper=False):
    """Random max-affine function on a random box-with-open-faces domain.

    Coefficients and breakpoints have small denominators so values land
    on a coarse lattice.
    """
    from ncvx.lp import MixedSystem
    from ncvx.ncset import from_mixed
    from ncvx.plfunc import max_affine

    n = rng.choice([1, 1, 2])
    n_rows = rng.randint(0, 3) if allow_improper else rng.randint(1, 3)
    rows = []
    for _ in range(n_rows):
        a = tuple(F(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(n))
        rows.append((a, F(rng.randint(-2, 2), rng.choice([1, 2]))))
    weak, strict = [], []
    for i in range(n):
        lo, hi = sorted(rng.sample(range(-2, 3), 2))
        for row in ((la.unit(n, i), F(hi)), (la.neg(la.unit(n, i)), F(-lo))):
            (strict if rng.random() < 0.4 else weak).append(row)
    domain = from_mixed(MixedSystem(n, tuple(weak), tuple(strict), ()))
    return max_affine(n, rows, domain)
