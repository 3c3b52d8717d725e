"""Acceptance gate: ten exact-arithmetic criteria, one PASS/FAIL line each.

The PASS/FAIL lines go to the real stdout so they survive pytest's capture.
Everything here is exact; there are no tolerances anywhere.
"""

import random
import sys
from fractions import Fraction

from periodic_cluster import (
    DOWN,
    UP,
    Edge,
    INTERIOR,
    PeriodicTree,
    REAL_SCHUR_TYPES,
    SignFunction,
    bfs,
    c_vectors,
    classify_root,
    dimension_matrix,
    edge_matrix,
    euler_matrix,
    exchange_matrix,
    extended_exchange_matrix,
    fz_mutate,
    in_region,
    in_stability_domain,
    initial_tree,
    interior_witness,
    invariant_battery,
    mutate_tree,
    mutation_descent,
    projective_roots,
    psi_infinity,
    quiver_of_cluster,
    summand,
    summands,
    synthesize_morphism,
    tree_from_function,
)
from periodic_cluster.functions import PeriodicFunction
from periodic_cluster.linalg import (
    column,
    identity,
    inverse,
    mat_mul,
    scale,
    transpose,
)

from conftest import make_fig1, make_ztree, random_injective, surjective_signs
from test_roots import _verdict_by_subroots, _verdict_by_vertex_scan


def _criterion(num: int):
    # Announce on the real stdout: pytest's default capture replaces the
    # stdout file descriptor itself, so suspend it around the print.
    def wrap(fn):
        def run(request):
            capman = request.config.pluginmanager.getplugin("capturemanager")

            def announce(outcome: str) -> None:
                line = f"criterion {num}: {outcome}"
                if capman is None:
                    print(line, file=sys.__stdout__, flush=True)
                else:
                    with capman.global_and_fixture_disabled():
                        print(line, flush=True)

            try:
                fn()
            except BaseException:
                announce("FAIL")
                raise
            announce("PASS")

        run.__name__ = fn.__name__
        return run

    return wrap


def _column_permutation(mine, printed):
    """sigma with column j of mine == column sigma(j) of printed, or None."""
    n = len(mine)
    sigma = {}
    used = set()
    for j in range(n):
        cj = column(mine, j)
        hits = [t for t in range(n) if t not in used and column(printed, t) == cj]
        if not hits:
            return None
        sigma[j] = hits[0]
        used.add(hits[0])
    return sigma


FIG1_GAMMA_PRINTED = ((-1, 0, 2), (-2, 0, 3), (-1, -1, 2))
FIG1_GAMMA_INVERSE_PRINTED = ((3, -2, 0), (1, 0, -1), (2, -1, 0))


@_criterion(1)
def test_criterion_1_edge_matrix_and_inverse():
    gamma = edge_matrix(make_fig1())
    sigma = _column_permutation(gamma, FIG1_GAMMA_PRINTED)
    assert sigma is not None
    inv = inverse(gamma)
    for j in range(3):
        assert inv[j] == FIG1_GAMMA_INVERSE_PRINTED[sigma[j]]


@_criterion(2)
def test_criterion_2_euler_matrix_and_projectives():
    eps = SignFunction.from_string("-++")
    assert euler_matrix(eps) == ((1, -1, -1), (0, 1, 0), (0, -1, 1))
    assert projective_roots(eps) == ((1, 2, 1), (0, 1, 0), (0, 1, 1))


E4_PRINTED = (
    (1, 0, 0, 0),
    (-1, 1, 0, 0),
    (0, -1, 1, 0),
    (-1, 0, -1, 1),
)
E4_INVERSE_PRINTED = (
    (1, 0, 0, 0),
    (1, 1, 0, 0),
    (1, 1, 1, 0),
    (2, 1, 1, 1),
)
GAMMA4_PRINTED = (
    (1, 0, 0, -1),
    (1, 0, 0, 0),
    (0, -1, 0, 0),
    (0, -1, 1, -1),
)
EGAMMA4_PRINTED = (
    (1, 0, 0, -1),
    (0, 0, 0, 1),
    (-1, -1, 0, 0),
    (-1, 0, 1, 0),
)
EGAMMA4_INVERSE_PRINTED = (
    (1, 1, 0, 0),
    (-1, -1, -1, 0),
    (1, 1, 0, 1),
    (0, 1, 0, 0),
)
PSI4_PRINTED = (
    (0, 1, 0, 0),
    (0, 0, -1, 0),
    (-1, 1, -1, 1),
    (-1, 1, 0, 0),
)


@_criterion(3)
def test_criterion_3_four_periodic_end_to_end():
    tree = make_ztree()
    e = euler_matrix(tree.eps)
    assert e == E4_PRINTED
    assert inverse(e) == E4_INVERSE_PRINTED

    gamma = edge_matrix(tree)
    sigma = _column_permutation(gamma, GAMMA4_PRINTED)
    assert sigma is not None

    egamma = mat_mul(e, gamma)
    for j in range(4):
        assert column(egamma, j) == column(EGAMMA4_PRINTED, sigma[j])
    inv = inverse(egamma)
    for j in range(4):
        assert inv[j] == EGAMMA4_INVERSE_PRINTED[sigma[j]]

    got = {(s.dim, s.kind) for s in summands(tree)}
    assert got == {
        ((1, 1, 0, 0), "Preprojective"),
        ((-1, -1, -1, 0), "ShiftedProjective"),
        ((1, 1, 0, 1), "Regular"),
        ((0, 1, 0, 0), "Regular"),
    }

    for k in range(1, 5):
        assert psi_infinity(tree, k) == PSI4_PRINTED[sigma[k - 1]]


FIG1_B_PRINTED = ((0, 2, -1), (-2, 0, 1), (1, -1, 0))


@_criterion(4)
def test_criterion_4_exchange_matrix_and_quiver():
    b = exchange_matrix(make_fig1())
    n = 3
    perms = [
        (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
    ]
    assert any(
        all(
            b[p[i]][p[j]] == FIG1_B_PRINTED[i][j]
            for i in range(n)
            for j in range(n)
        )
        for p in perms
    )
    arrows = quiver_of_cluster(make_fig1())
    assert sorted(arrows.values()) == [1, 1, 2]
    succ = {a: b2 for (a, b2) in arrows}
    assert set(succ) == {1, 2, 3}
    walk = [1, succ[1], succ[succ[1]]]
    assert sorted(walk) == [1, 2, 3] and succ[walk[2]] == 1


@_criterion(5)
def test_criterion_5_mutation_at_the_ascending_edge():
    tree = make_fig1()
    k = next(i for i in range(1, 4) if tree.edge(i) == Edge(1, 8, UP))
    result = mutate_tree(tree, k)
    assert set(result.tree.edges) == {
        Edge(1, 8, DOWN),
        Edge(2, 3, DOWN),
        Edge(1, 11, UP),
    }
    new_gamma = edge_matrix(result.tree)
    assert {column(new_gamma, j) for j in range(3)} == {
        (3, 4, 3),
        (0, 0, -1),
        (-2, -3, -2),
    }
    ext = fz_mutate(extended_exchange_matrix(tree), k)
    new_b = exchange_matrix(result.tree)
    idx = result.index_map
    for i in range(1, 4):
        for j in range(1, 4):
            assert ext.top[i - 1][j - 1] == new_b[idx[i] - 1][idx[j] - 1]
        assert column(ext.bottom, i - 1) == tuple(
            -x for x in column(new_gamma, idx[i] - 1)
        )


@_criterion(6)
def test_criterion_6_summand_of_the_long_descending_edge():
    tree = make_fig1()
    k = next(i for i in range(1, 4) if tree.edge(i) == Edge(1, 5, DOWN))
    assert psi_infinity(tree, k) == (3, -2, 0)
    got = summand(tree, k)
    assert got.kind == "Preprojective"
    # dim must match (E^t)^{-1} psi; with psi = (3,-2,0) that is (3,4,3)
    assert got.dim == (3, 4, 3)


@_criterion(7)
def test_criterion_7_initial_objects():
    for n in range(2, 6):
        for s in surjective_signs(n):
            t0 = initial_tree(s)
            e = euler_matrix(t0.eps)
            assert edge_matrix(t0) == scale(identity(n), -1)
            ext = extended_exchange_matrix(t0)
            asym = tuple(
                tuple(e[j][i] - e[i][j] for j in range(n)) for i in range(n)
            )
            assert ext.top == asym
            assert ext.bottom == identity(n)
            assert dimension_matrix(t0) == scale(inverse(transpose(e)), -1)


@_criterion(8)
def test_criterion_8_battery_over_bfs():
    for n in (2, 3, 4):
        depth = 8 if n == 2 else 4
        for s in surjective_signs(n):
            graph = bfs(s, depth, verify=True)
            if n == 2:
                assert len(graph.nodes) == 2 * depth + 1


@_criterion(9)
def test_criterion_9_region_properties():
    rng = random.Random(20250816)
    for n in (2, 3, 4):
        for s in surjective_signs(n):
            eps = SignFunction.from_string(s)
            cache = {}
            for _ in range(1000):
                pi = random_injective(rng, n)
                tree = tree_from_function(eps, pi)
                assert in_region(tree, pi)
                key = tree.edges
                for other_key, other in cache.items():
                    if other_key != key:
                        assert not in_region(other, pi)
                if key not in cache and len(cache) < 16:
                    cache[key] = tree
                assert mutation_descent(eps, pi).edges == tree.edges


@_criterion(10)
def test_criterion_10_stability_domains():
    for n in (2, 3, 4):
        for s in surjective_signs(n):
            eps = SignFunction.from_string(s)
            for i in range(1, n + 1):
                for j in range(i + 1, i + 3 * n + 1):
                    if classify_root(eps, i, j) not in REAL_SCHUR_TYPES:
                        continue
                    pi = interior_witness(eps, i, j)
                    assert in_stability_domain(eps, i, j, pi) == INTERIOR

    rng = random.Random(1105)
    samples = 0
    while samples < 1000:
        n = rng.randint(2, 4)
        s = rng.choice(surjective_signs(n))
        eps = SignFunction.from_string(s)
        i = rng.randint(1, n)
        j = i + rng.randint(1, 3 * n)
        if classify_root(eps, i, j) not in REAL_SCHUR_TYPES:
            continue
        values = tuple(rng.randint(-6, 6) for _ in range(n))
        pi = PeriodicFunction(values, rng.randint(-4, 4))
        drop = pi.at(j) - pi.at(i)
        pi = pi.tilted(Fraction(-drop, j - i))
        want = in_stability_domain(eps, i, j, pi)
        assert _verdict_by_vertex_scan(eps, i, j, pi) == want
        assert _verdict_by_subroots(eps, i, j, pi, False) == want
        assert _verdict_by_subroots(eps, i, j, pi, True) == want
        samples += 1
