"""Periodic functions and the difference-vector map."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from periodic_cluster import (
    PeriodicFunction,
    collision,
    f_map,
    function_combination,
    is_injective,
    pairing,
    root_vector,
)
from periodic_cluster.linalg import dot


def test_at_periodicity():
    pi = PeriodicFunction((5, 1, 0), 3)
    assert pi.at(1) == 5 and pi.at(2) == 1 and pi.at(3) == 0
    assert pi.at(4) == 8
    assert pi.at(0) == -3
    assert pi.at(-2) == 5 - 3
    assert pi.at(7) == 5 + 6


def test_empty_values_rejected():
    with pytest.raises(ValueError):
        PeriodicFunction(())


def test_values_and_m_must_be_exact():
    bad = [
        ((Fraction(1, 2), Fraction(1, 4), Fraction(1, 10)), 1.0),
        ((0.5, 0.25, 0.1), 1),
        ((True, 2), 3),
        ((0, 1), False),
        (("1", 2), 3),
    ]
    for values, m in bad:
        with pytest.raises(TypeError):
            PeriodicFunction(values, m)


def test_values_are_stored_as_a_tuple():
    pi = PeriodicFunction([5, 1, 0], 3)
    assert pi.values == (5, 1, 0)
    assert pi == PeriodicFunction((5, 1, 0), 3)
    assert hash(pi) == hash(PeriodicFunction((5, 1, 0), 3))


def test_f_map_sums_to_slope():
    pi = PeriodicFunction((5, 1, 0), 3)
    y = f_map(pi)
    assert y == (8, -4, -1)
    assert sum(y) == pi.m


def test_pairing_is_value_difference():
    pi = PeriodicFunction((5, 1, 0), 3)
    assert pairing(pi, 1, 5) == pi.at(5) - pi.at(1) == 1 + 3 - 5


rationals = st.fractions(
    min_value=-9, max_value=9, max_denominator=4
).map(Fraction)


@given(
    st.lists(rationals, min_size=2, max_size=5),
    rationals,
    st.integers(-6, 6),
    st.integers(1, 12),
)
def test_pairing_matches_dot_with_root_vector(values, m, i, span):
    # F(pi)^t beta_{ij} telescopes to pi(j) - pi(i)
    pi = PeriodicFunction(tuple(values), m)
    j = i + span
    beta = root_vector(pi.n, i, j)
    assert dot(f_map(pi), beta) == pairing(pi, i, j)


def test_is_injective_cases():
    assert not is_injective(PeriodicFunction((0, 1, 2), 0))
    # pi(1) = 0, pi(4) = 0 + m: collision when (v_u - v_v)/m is an integer
    assert not is_injective(PeriodicFunction((0, 2), 2))
    assert not is_injective(PeriodicFunction((0, 1, 2), 2))
    assert is_injective(PeriodicFunction((5, 1, 0), 3))
    assert is_injective(PeriodicFunction((0, Fraction(1, 2)), 2))
    assert is_injective(PeriodicFunction((0, 1), -3))


@given(st.lists(rationals, min_size=2, max_size=5), rationals)
def test_is_injective_agrees_with_window_scan(values, m):
    # Any collision pi(k) = pi(l) can be shifted so k lies in 1..n; then
    # l - k <= n * |pi(u) - pi(v)| / |m|, which the value bounds cap at 72n.
    pi = PeriodicFunction(tuple(values), m)
    window = [pi.at(k) for k in range(1, 73 * pi.n + 1)]
    assert is_injective(pi) == (len(set(window)) == len(window))


def _collision_by_all_pairs(pi):
    """Least (i, j), i < j, with pi(i) = pi(j), from every ordered pair of
    residues: pi(u) = pi(v + t*n) for t = (pi(u) - pi(v)) / m."""
    n = pi.n
    if pi.m == 0:
        return (1, 1 + n)
    pairs = []
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            t = Fraction(pi.values[u - 1] - pi.values[v - 1]) / Fraction(pi.m)
            if t.denominator != 1:
                continue
            j = v + t.numerator * n
            if j != u:
                pairs.append((min(u, j), max(u, j)))
    return min(pairs, default=None)


@given(
    st.lists(st.one_of(rationals, st.integers(-3, 3)), min_size=1, max_size=9),
    st.one_of(st.just(0), st.integers(-3, 3), rationals),
)
def test_collision_agrees_with_all_pairs_scan(values, m):
    pi = PeriodicFunction(values, m)
    want = _collision_by_all_pairs(pi)
    assert collision(pi) == want
    assert is_injective(pi) == (want is None)
    if want is not None:
        assert pi.at(want[0]) == pi.at(want[1])


def test_collision_cases():
    assert collision(PeriodicFunction((0, 1), 0)) == (1, 3)
    assert collision(PeriodicFunction((0, 0), 1)) == (1, 2)
    # pi(-1) = pi(2) - m = 0 = pi(1); the pair may reach below 1
    assert collision(PeriodicFunction((0, 1, Fraction(1, 2)), 1)) == (-1, 1)
    assert collision(PeriodicFunction((5, 1, 0), 3)) is None


def test_shift_and_tilt():
    pi = PeriodicFunction((1, 2), 1)
    up = pi.shifted_by(Fraction(1, 2))
    assert up.values == (Fraction(3, 2), Fraction(5, 2)) and up.m == 1
    tilted = pi.tilted(2)
    assert tilted.m == 1 + 2 * 2
    for k in range(-3, 4):
        assert tilted.at(k) == pi.at(k) + 2 * k


def test_function_combination_endpoints_and_midpoint():
    p0 = PeriodicFunction((0, 0), 0)
    p1 = PeriodicFunction((2, 4), 6)
    assert function_combination(p0, p1, 0) == p0
    assert function_combination(p0, p1, 1) == p1
    mid = function_combination(p0, p1, Fraction(1, 2))
    assert mid.values == (1, 2) and mid.m == 3
