import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncvx import linalg as la
from ncvx.errors import DimensionMismatch

F = Fraction

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=8
)


def test_solve_linear_unique():
    a = la.mat([[2, 1], [1, -1]])
    x, null = la.solve_linear(a, la.vec([3, 0]))
    assert x == (F(1), F(1))
    assert null == []


def test_solve_linear_underdetermined():
    a = la.mat([[1, 1, 0]])
    x, null = la.solve_linear(a, la.vec([2]))
    assert la.mat_vec(a, x) == (F(2),)
    assert len(null) == 2
    for v in null:
        assert la.mat_vec(a, v) == (F(0),)


def test_solve_linear_inconsistent():
    a = la.mat([[1, 1], [2, 2]])
    assert la.solve_linear(a, la.vec([1, 3])) is None


def test_primitive():
    assert la.primitive(la.vec([F(1, 2), F(-3, 4)])) == (F(2), F(-3))
    assert la.primitive(la.vec([0, 0])) == (F(0), F(0))
    assert la.primitive(la.vec([-4, 2])) == (F(-2), F(1))


def test_dot_equals_the_fraction_sum():
    rng = random.Random(4)
    dens = (1, 1, 2, 3, 4, 6, 7)

    def entry():
        if rng.random() < 0.3:
            return F(0)
        return F(rng.randint(-9, 9), rng.choice(dens))

    pairs = [((), ())]
    for _ in range(300):
        n = rng.randint(1, 6)
        pairs.append((tuple(entry() for _ in range(n)), tuple(entry() for _ in range(n))))
    for a, b in pairs:
        got = la.dot(a, b)
        assert type(got) is F
        assert got == sum((x * y for x, y in zip(a, b)), F(0))
    with pytest.raises(DimensionMismatch):
        la.dot((F(1),), (F(1), F(2)))


def test_rref_rank():
    assert la.rank(la.mat([[1, 2], [2, 4], [0, 1]])) == 2
    assert la.rank(()) == 0


@given(st.lists(rationals, min_size=2, max_size=4), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_linear_residual_is_zero(entries, data):
    n = len(entries)
    m = data.draw(st.integers(1, 3))
    rows = tuple(
        tuple(data.draw(rationals) for _ in range(n)) for _ in range(m)
    )
    b = la.mat_vec(rows, tuple(entries))
    got = la.solve_linear(rows, b)
    assert got is not None  # constructed consistent
    x, null = got
    assert la.mat_vec(rows, x) == b
    for v in null:
        assert la.mat_vec(rows, v) == la.zeros(m)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_nullspace_dimension(data):
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(0, 3))
    rows = tuple(
        tuple(data.draw(rationals) for _ in range(n)) for _ in range(m)
    )
    null = la.nullspace_basis(rows, n)
    assert len(null) == n - la.rank(rows)
