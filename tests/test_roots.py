"""Root vectors, Schur classification, stability domains."""

import random
from fractions import Fraction

import pytest

from periodic_cluster import (
    BOUNDARY,
    INTERIOR,
    MINUS,
    NOT_A_ROOT,
    NULL_MULTIPLE,
    OUTSIDE,
    PLUS,
    PREINJECTIVE,
    PREPROJECTIVE,
    REAL_SCHUR_TYPES,
    REGULAR,
    PeriodicFunction,
    SignFunction,
    classify_root,
    euler_matrix,
    in_stability_domain,
    interior_witness,
    null_root,
    pi_from_vector,
    root_vector,
    subroots,
)
from periodic_cluster.functions import f_map
from periodic_cluster.linalg import mat_vec, transpose

from conftest import surjective_signs


def test_root_vector_frozen():
    assert root_vector(3, 1, 5) == (1, 2, 1)
    assert root_vector(3, 1, 2) == (0, 1, 0)
    assert root_vector(3, 2, 3) == (0, 0, 1)
    assert root_vector(3, 1, 4) == null_root(3)
    assert root_vector(3, 1, 8) == (2, 3, 2)
    with pytest.raises(ValueError):
        root_vector(3, 2, 2)


def test_root_vector_translation_and_period_shift():
    for n in (2, 3, 4):
        for i in range(1, n + 1):
            for j in range(i + 1, i + 2 * n + 1):
                base = root_vector(n, i, j)
                assert root_vector(n, i + n, j + n) == base
                shifted = root_vector(n, i, j + n)
                assert shifted == tuple(b + 1 for b in base)
                assert sum(base) == j - i


def test_classify_root_frozen_table():
    eps = SignFunction.from_string("-++")
    assert classify_root(eps, 1, 2) == PREPROJECTIVE
    assert classify_root(eps, 1, 5) == PREPROJECTIVE
    assert classify_root(eps, 1, 8) == PREPROJECTIVE
    assert classify_root(eps, 2, 3) == REGULAR
    assert classify_root(eps, 3, 5) == REGULAR
    assert classify_root(eps, 2, 4) == PREINJECTIVE
    assert classify_root(eps, 1, 4) == NULL_MULTIPLE
    assert classify_root(eps, 2, 6) == NOT_A_ROOT
    assert classify_root(eps, 5, 8) == classify_root(eps, 2, 5)
    with pytest.raises(ValueError):
        classify_root(eps, 3, 3)


def test_subroots_frozen():
    eps = SignFunction.from_string("-++")
    assert subroots(eps, 1, 5) == ((1, 2), (1, 3), (1, 5), (4, 5))
    # the root is always its own subroot, first in its row
    for i, j in [(1, 2), (2, 3), (1, 8)]:
        assert (i, j) in subroots(eps, i, j)
    with pytest.raises(ValueError):
        subroots(eps, 1, 4)


def test_subroots_are_coordinatewise_below():
    for s in surjective_signs(3) + surjective_signs(4):
        eps = SignFunction.from_string(s)
        n = eps.n
        for i in range(1, n + 1):
            for j in range(i + 1, i + 2 * n + 1):
                if classify_root(eps, i, j) not in REAL_SCHUR_TYPES:
                    continue
                big = root_vector(n, i, j)
                for a, b in subroots(eps, i, j):
                    assert i <= a < b <= j
                    small = root_vector(n, a, b)
                    assert all(x <= y for x, y in zip(small, big)), (s, i, j, a, b)


def test_stability_frozen_verdicts():
    eps = SignFunction.from_string("-++")
    assert in_stability_domain(eps, 1, 5, PeriodicFunction((0, -1, -2), 1)) == INTERIOR
    assert in_stability_domain(eps, 1, 5, PeriodicFunction((0, -1, 0), 1)) == BOUNDARY
    assert in_stability_domain(eps, 1, 5, PeriodicFunction((0, 1, 0), 1)) == OUTSIDE
    assert in_stability_domain(eps, 1, 5, PeriodicFunction((0, 0, 0), 1)) == OUTSIDE
    # no interior vertices: the wall condition alone decides, zero qualifies
    assert in_stability_domain(eps, 1, 2, PeriodicFunction((0, 0, 0), 0)) == INTERIOR
    with pytest.raises(ValueError):
        in_stability_domain(eps, 1, 4, PeriodicFunction((0, 0, 0), 0))
    with pytest.raises(ValueError):
        in_stability_domain(eps, 1, 5, PeriodicFunction((0, 0), 0))


def test_stability_translation_invariance():
    eps = SignFunction.from_string("-++")
    for pi in [
        PeriodicFunction((0, -1, -2), 1),
        PeriodicFunction((0, -1, 0), 1),
        PeriodicFunction((0, 1, 0), 1),
    ]:
        assert in_stability_domain(eps, 4, 8, pi) == in_stability_domain(eps, 1, 5, pi)


def _verdict_by_vertex_scan(eps, i, j, pi):
    if pi.at(i) != pi.at(j):
        return OUTSIDE
    level = pi.at(i)
    tight = False
    for k in range(i + 1, j):
        if eps.at(k) == MINUS and pi.at(k) < level:
            return OUTSIDE
        if eps.at(k) == PLUS and pi.at(k) > level:
            return OUTSIDE
        if pi.at(k) == level:
            tight = True
    return BOUNDARY if tight else INTERIOR


def _verdict_by_subroots(eps, i, j, pi, real_schur_only):
    if pi.at(i) != pi.at(j):
        return OUTSIDE
    tight = False
    for a, b in subroots(eps, i, j):
        if real_schur_only and classify_root(eps, a, b) not in REAL_SCHUR_TYPES:
            continue
        gap = pi.at(a) - pi.at(b)
        if gap < 0:
            return OUTSIDE
        if gap == 0 and (a, b) != (i, j):
            tight = True
    return BOUNDARY if tight else INTERIOR


def test_three_stability_formulations_agree():
    rng = random.Random(20816)
    cases = 0
    while cases < 200:
        n = rng.randint(2, 4)
        s = rng.choice(surjective_signs(n))
        eps = SignFunction.from_string(s)
        i = rng.randint(1, n)
        j = i + rng.randint(1, 3 * n)
        if classify_root(eps, i, j) not in REAL_SCHUR_TYPES:
            continue
        values = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
        pi = PeriodicFunction(values, Fraction(rng.randint(-3, 3)))
        # tilt so the wall condition pi(i) = pi(j) holds exactly
        drop = pi.at(j) - pi.at(i)
        pi = pi.tilted(Fraction(-drop, j - i))
        assert pi.at(i) == pi.at(j)
        want = in_stability_domain(eps, i, j, pi)
        assert _verdict_by_vertex_scan(eps, i, j, pi) == want, (s, i, j, pi)
        assert _verdict_by_subroots(eps, i, j, pi, False) == want, (s, i, j, pi)
        assert _verdict_by_subroots(eps, i, j, pi, True) == want, (s, i, j, pi)
        cases += 1


def test_interior_witness_is_interior():
    for n in (2, 3):
        for s in surjective_signs(n):
            eps = SignFunction.from_string(s)
            for i in range(1, n + 1):
                for j in range(i + 1, i + 3 * n + 1):
                    if classify_root(eps, i, j) not in REAL_SCHUR_TYPES:
                        continue
                    pi = interior_witness(eps, i, j)
                    assert all(isinstance(v, int) for v in pi.values)
                    assert in_stability_domain(eps, i, j, pi) == INTERIOR, (s, i, j)


def test_interior_witness_at_large_indices():
    # near 10**17 a float quotient (k - j) / n rounds to the wrong floor
    eps = SignFunction.from_string("-++")
    for i in (1, 3 * 10**17 + 1):
        for j in (i + 2, i + 4):
            pi = interior_witness(eps, i, j)
            assert in_stability_domain(eps, i, j, pi) == INTERIOR, (i, j)


def test_pi_from_vector_inverts_transposed_euler():
    rng = random.Random(7)
    for s in ["-+", "-++", "+-+", "+++-"]:
        eps = SignFunction.from_string(s)
        et = transpose(euler_matrix(eps))
        for _ in range(10):
            v = tuple(rng.randint(-5, 5) for _ in range(eps.n))
            pi = pi_from_vector(eps, v)
            assert f_map(pi) == mat_vec(et, v)
