"""Exact linear algebra over int and Fraction."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from periodic_cluster.linalg import (
    column,
    determinant,
    dot,
    freeze,
    from_columns,
    identity,
    inverse,
    mat_mul,
    mat_vec,
    scale,
    transpose,
)


def test_identity_and_transpose():
    i3 = identity(3)
    assert i3 == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    m = freeze([[1, 2], [3, 4]])
    assert transpose(m) == ((1, 3), (2, 4))
    assert transpose(transpose(m)) == m


def test_determinant_known():
    assert determinant(((2, 0), (0, 3))) == 6
    assert determinant(((1, 2), (2, 4))) == 0
    gamma = ((-1, 2, 0), (-2, 3, 0), (-1, 2, -1))
    assert determinant(gamma) == -1


def test_inverse_integer_result():
    gamma = ((-1, 2, 0), (-2, 3, 0), (-1, 2, -1))
    inv = inverse(gamma)
    assert mat_mul(gamma, inv) == identity(3)
    assert all(isinstance(x, int) for row in inv for x in row)


def test_inverse_fraction_result():
    m = ((2, 0), (0, 4))
    inv = inverse(m)
    assert inv == ((Fraction(1, 2), 0), (0, Fraction(1, 4)))


def test_inverse_singular_raises():
    with pytest.raises(ValueError):
        inverse(((1, 2), (2, 4)))


def test_columns_round_trip():
    m = freeze([[1, 2, 3], [4, 5, 6]])
    cols = [column(m, j) for j in range(3)]
    assert from_columns(cols) == m
    assert column(m, 1) == (2, 5)


@st.composite
def unimodular(draw, n):
    """Product of random elementary row operations applied to I."""
    rows = [list(r) for r in identity(n)]
    for _ in range(draw(st.integers(0, 8))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if i == j:
            continue
        c = draw(st.integers(-3, 3))
        for k in range(n):
            rows[i][k] += c * rows[j][k]
    return freeze(rows)


@given(unimodular(3))
def test_unimodular_inverse_exact(m):
    assert determinant(m) == 1
    inv = inverse(m)
    assert all(isinstance(x, int) for row in inv for x in row)
    assert mat_mul(m, inv) == identity(3)
    assert mat_mul(inv, m) == identity(3)


@given(unimodular(3), unimodular(3))
def test_product_transpose_and_determinant(a, b):
    assert transpose(mat_mul(a, b)) == mat_mul(transpose(b), transpose(a))
    assert determinant(mat_mul(a, b)) == determinant(a) * determinant(b)


@given(st.lists(st.integers(-9, 9), min_size=3, max_size=3))
def test_mat_vec_against_dot(v):
    m = ((1, 2, 3), (0, 1, 0), (2, 0, 1))
    out = mat_vec(m, tuple(v))
    assert out == tuple(dot(row, tuple(v)) for row in m)


def test_scale():
    assert scale(((1, 2), (3, 4)), -1) == ((-1, -2), (-3, -4))


def _singular_by_fractions(a):
    """Reference test for singularity: plain Gaussian elimination over Fraction."""
    rows = [[Fraction(x) for x in row] for row in a]
    n = len(rows)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return True
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, n):
            f = rows[r][col] / rows[col][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return False


@st.composite
def integer_matrices(draw):
    """Square int matrices, n <= 8; some have a row forced dependent."""
    n = draw(st.integers(1, 8))
    rows = [draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)]
    return freeze(rows)


@given(integer_matrices(), st.lists(st.integers(1, 6), min_size=8, max_size=8))
def test_inverse_random_integer_matrices(a, denoms):
    n = len(a)
    if _singular_by_fractions(a):
        assert determinant(a) == 0
        with pytest.raises(ValueError, match="singular"):
            inverse(a)
        return
    inv = inverse(a)
    assert mat_mul(inv, a) == identity(n)
    assert mat_mul(a, inv) == identity(n)
    # Rows scaled by 1/d_i: a Fraction input whose denominators differ.
    d = denoms[:n]
    b = tuple(tuple(Fraction(x, di) for x in row) for row, di in zip(a, d))
    inv_b = inverse(b)
    assert inv_b == tuple(tuple(x * dj for x, dj in zip(row, d)) for row in inv)
    assert mat_mul(inv_b, b) == identity(n)
    for row in inv + inv_b:
        for x in row:
            assert type(x) is int or (type(x) is Fraction and x.denominator != 1)
    det_scale = 1
    for di in d:
        det_scale *= di
    assert determinant(b) == determinant(a) / det_scale
