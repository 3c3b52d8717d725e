"""Sign functions, Euler matrices, projective roots."""

import pytest
from hypothesis import given, strategies as st

from periodic_cluster import (
    MINUS,
    PLUS,
    SignFunction,
    euler_form,
    euler_matrix,
    null_root,
    projective_roots,
    root_vector,
)
from periodic_cluster.linalg import identity, inverse, mat_mul, transpose

from conftest import surjective_signs


def test_from_string_round_trip():
    eps = SignFunction.from_string("-++")
    assert eps.n == 3
    assert eps.to_string() == "-++"
    assert eps.at(1) == MINUS and eps.at(2) == PLUS
    # n-periodicity in both directions
    assert eps.at(4) == eps.at(1)
    assert eps.at(0) == eps.at(3)
    assert eps.at(-1) == eps.at(2)


def test_from_string_rejects_junk():
    with pytest.raises(ValueError):
        SignFunction.from_string("-+0")
    with pytest.raises(ValueError):
        SignFunction.from_string("")


def test_flip_and_reflect_are_involutions():
    eps = SignFunction.from_string("-++-")
    assert eps.flipped().flipped() == eps
    assert eps.reflected().reflected() == eps
    assert eps.flipped().to_string() == "+--+"
    for k in range(-5, 6):
        assert eps.reflected().at(k) == eps.at(-k)


def test_euler_matrix_frozen_minus_plus_plus():
    e = euler_matrix(SignFunction.from_string("-++"))
    assert e == ((1, -1, -1), (0, 1, 0), (0, -1, 1))


def test_euler_matrix_frozen_four_periodic():
    e = euler_matrix(SignFunction.from_string("+++-"))
    assert e == (
        (1, 0, 0, 0),
        (-1, 1, 0, 0),
        (0, -1, 1, 0),
        (-1, 0, -1, 1),
    )
    assert inverse(e) == (
        (1, 0, 0, 0),
        (1, 1, 0, 0),
        (1, 1, 1, 0),
        (2, 1, 1, 1),
    )


def test_projective_roots_frozen():
    eps = SignFunction.from_string("-++")
    assert projective_roots(eps) == ((1, 2, 1), (0, 1, 0), (0, 1, 1))
    # Kronecker quiver: dim P_1 = (1,0), dim P_2 = (2,1)
    assert projective_roots(SignFunction.from_string("+-")) == ((1, 0), (2, 1))


def test_projective_roots_defining_property():
    # <pi_j, x> = x_j for every x, i.e. pi_j^t E = e_j^t
    for n in range(2, 6):
        for s in surjective_signs(n):
            eps = SignFunction.from_string(s)
            e = euler_matrix(eps)
            for j, pi in enumerate(projective_roots(eps)):
                row = tuple(
                    sum(pi[i] * e[i][k] for i in range(n)) for k in range(n)
                )
                assert row == tuple(identity(n)[j]), (s, j)


def test_null_root_is_radical():
    for n in range(2, 6):
        delta = null_root(n)
        assert delta == (1,) * n
        for s in surjective_signs(n):
            e = euler_matrix(SignFunction.from_string(s))
            assert euler_form(e, delta, delta) == 0


def test_euler_form_matches_matrix_product():
    eps = SignFunction.from_string("-++")
    e = euler_matrix(eps)
    x, y = (1, 2, 1), (0, 1, 1)
    direct = sum(x[i] * e[i][j] * y[j] for i in range(3) for j in range(3))
    assert euler_form(e, x, y) == direct


def test_asymmetry_with_null_root_detects_type():
    # <delta, alpha> - <alpha, delta> is negative, zero, positive exactly for
    # preprojective, regular, preinjective real Schur roots
    from periodic_cluster import REAL_SCHUR_TYPES, classify_root

    sign_of_type = {"preprojective": -1, "regular": 0, "preinjective": 1}
    for n in range(2, 6):
        delta = null_root(n)
        for s in surjective_signs(n):
            eps = SignFunction.from_string(s)
            e = euler_matrix(eps)
            for i in range(1, n + 1):
                for j in range(i + 1, i + 3 * n + 1):
                    kind = classify_root(eps, i, j)
                    if kind not in REAL_SCHUR_TYPES:
                        continue
                    alpha = root_vector(n, i, j)
                    gap = euler_form(e, delta, alpha) - euler_form(e, alpha, delta)
                    assert (gap > 0) - (gap < 0) == sign_of_type[kind], (s, i, j)


@given(st.integers(2, 6))
def test_unimodular_euler_matrix(n):
    for s in surjective_signs(n)[:6]:
        e = euler_matrix(SignFunction.from_string(s))
        inv = inverse(e)
        assert mat_mul(e, inv) == identity(n)
        assert all(isinstance(x, int) for row in inv for x in row)


def test_projective_roots_are_inverse_transpose_columns():
    for s in ["-+", "+-", "-++", "+-+", "+++-"]:
        eps = SignFunction.from_string(s)
        e_inv_t = inverse(transpose(euler_matrix(eps)))
        cols = tuple(
            tuple(e_inv_t[i][j] for i in range(eps.n)) for j in range(eps.n)
        )
        assert projective_roots(eps) == cols


def test_sign_function_stores_a_tuple():
    from periodic_cluster import bfs

    eps = SignFunction([1, -1, 1])
    assert eps.signs == (1, -1, 1) and eps == SignFunction.from_string("+-+")
    assert projective_roots(eps) == projective_roots(SignFunction.from_string("+-+"))
    assert len(bfs(eps, 1, verify=False).nodes) == 4


@pytest.mark.parametrize("signs", [(1.0, -1), (True, -1), (1, False), ("+", "-")])
def test_sign_function_rejects_non_int_signs(signs):
    with pytest.raises(TypeError):
        SignFunction(signs)
