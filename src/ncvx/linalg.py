"""Small exact linear algebra over Fraction tuples.

Vectors are tuples of Fraction, matrices are tuples of row tuples; both are
immutable and hashable so polyhedra built from them can be cached and used
as dict keys. Everything here is O(small): dimensions in this library stay
in the single digits.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence

from .errors import CertificateError, DimensionMismatch

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(entries: Iterable) -> Vec:
    """A Fraction tuple; Fraction entries pass through as they are."""
    return tuple(e if type(e) is Fraction else Fraction(e) for e in entries)


def mat(rows: Iterable[Iterable]) -> Mat:
    out = tuple(vec(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise DimensionMismatch("ragged matrix")
    return out


def zeros(n: int) -> Vec:
    return (ZERO,) * n


def unit(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def dot(a: Vec, b: Vec) -> Fraction:
    """One integer numerator over the running product of the terms'
    denominators, and one Fraction (one gcd) at the end."""
    if len(a) != len(b):
        raise DimensionMismatch(f"dot: {len(a)} vs {len(b)}")
    num, den = 0, 1
    for x, y in zip(a, b):
        n = x.numerator * y.numerator
        if n:
            d = x.denominator * y.denominator
            if d == den:
                num += n
            else:
                num, den = num * d + n * den, den * d
    return Fraction(num, den)


def add(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise DimensionMismatch(f"add: {len(a)} vs {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def sub(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise DimensionMismatch(f"sub: {len(a)} vs {len(b)}")
    return tuple(x - y for x, y in zip(a, b))


def vsum(vs: Sequence[Vec]) -> Vec:
    total = vs[0]
    for v in vs[1:]:
        total = add(total, v)
    return total


def scale(a: Vec, s: Fraction) -> Vec:
    return tuple(x * s for x in a)


def neg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def is_zero(a: Vec) -> bool:
    return all(x == 0 for x in a)


def mat_vec(m: Mat, x: Vec) -> Vec:
    return tuple(dot(row, x) for row in m)


def mat_t_vec(m: Mat, y: Vec) -> Vec:
    """Transpose-times-vector without materializing the transpose."""
    if len(m) != len(y):
        raise DimensionMismatch(f"mat_t_vec: {len(m)} rows vs {len(y)}")
    n = len(m[0]) if m else 0
    return tuple(sum((m[i][j] * y[i] for i in range(len(m))), ZERO) for j in range(n))


def transpose(m: Mat) -> Mat:
    if not m:
        return ()
    return tuple(tuple(m[i][j] for i in range(len(m))) for j in range(len(m[0])))


def identity(n: int) -> Mat:
    return tuple(unit(n, i) for i in range(n))


def primitive(a: Vec) -> Vec:
    """Scale a rational vector to coprime integers, keeping the sign."""
    if is_zero(a):
        return a
    den_lcm = 1
    for x in a:
        den_lcm = den_lcm * x.denominator // gcd(den_lcm, x.denominator)
    ints = [int(x * den_lcm) for x in a]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    return tuple(Fraction(v, g) for v in ints)


def rref(rows: Sequence[Vec]) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    work = [list(r) for r in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pv = work[r][c]
        work[r] = [x / pv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [tuple(row) for row in work[:r]], pivots


def solve_linear(a: Mat, b: Vec) -> Optional[tuple[Vec, list[Vec]]]:
    """Solve A x = b exactly.

    Returns (particular solution, nullspace basis) or None when the system
    is inconsistent. The nullspace basis comes from the RREF free columns,
    so repeated calls on equal systems give identical output.
    """
    m = len(a)
    if m != len(b):
        raise DimensionMismatch("solve_linear: rows vs rhs")
    n = len(a[0]) if a else 0
    aug = [a[i] + (b[i],) for i in range(m)]
    reduced, pivots = rref(aug)
    if n in pivots:
        return None  # a pivot in the rhs column means 0 = 1 somewhere
    x = [ZERO] * n
    for row, pc in zip(reduced, pivots):
        x[pc] = row[n]
    free_cols = [c for c in range(n) if c not in pivots]
    basis: list[Vec] = []
    for fc in free_cols:
        v = [ZERO] * n
        v[fc] = ONE
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return tuple(x), basis


def row_space_basis(rows: Sequence[Vec]) -> list[Vec]:
    reduced, _ = rref(rows)
    return reduced


def nullspace_basis(rows: Sequence[Vec], n: int) -> list[Vec]:
    """Basis of {x : R x = 0} for rows of length n."""
    if not rows:
        return [unit(n, i) for i in range(n)]
    sol = solve_linear(tuple(rows), zeros(len(rows)))
    if sol is None:
        raise CertificateError("a homogeneous system has the zero solution")
    return sol[1]


def rank(rows: Sequence[Vec]) -> int:
    return len(rref(rows)[0])
