"""Mutation of trees and of edge vectors, and their agreement."""

import random

import pytest

from periodic_cluster import (
    DOWN,
    UP,
    Edge,
    PeriodicTree,
    edge_matrix,
    exchange_matrix,
    extended_exchange_matrix,
    fz_mutate,
    initial_tree,
    invariant_battery,
    mutate_edge_vectors,
    mutate_tree,
    tree_from_function,
    validate,
)
from periodic_cluster.linalg import column

from conftest import random_injective, surjective_signs


def test_mutate_fig1_at_ascending_edge(fig1):
    # edge 2 is the ascending class (1,8)
    result = mutate_tree(fig1, 2)
    assert result.tree.edges == (
        Edge(1, 8, DOWN),
        Edge(1, 11, UP),
        Edge(2, 3, DOWN),
    )
    assert result.index_map == {1: 2, 2: 1, 3: 3}
    assert validate(result.tree) == ()


def test_mutate_fig1_vectors_follow(fig1):
    result = mutate_tree(fig1, 2)
    new_gamma = edge_matrix(result.tree)
    cols = {column(new_gamma, j) for j in range(3)}
    assert cols == {(3, 4, 3), (0, 0, -1), (-2, -3, -2)}


def test_mutate_initial_tree():
    t0 = initial_tree("+++-")
    # canonical order puts the class ending at residue 1 first
    result = mutate_tree(t0, 1)
    gamma = edge_matrix(result.tree)
    cols = {column(gamma, j) for j in range(4)}
    assert (1, 0, 0, 0) in cols


def test_mutate_initial_tree_small():
    t0 = initial_tree("-++")
    result = mutate_tree(t0, 1)
    assert validate(result.tree) == ()
    gamma = edge_matrix(result.tree)
    cols = {column(gamma, j) for j in range(3)}
    assert cols == {(1, 0, 0), (-1, -1, 0), (-1, 0, -1)}


def test_mutation_is_an_involution(fig1, ztree):
    for t in (fig1, ztree, initial_tree("-++"), initial_tree("+-")):
        for k in range(1, t.n + 1):
            once = mutate_tree(t, k)
            twice = mutate_tree(once.tree, once.index_map[k])
            assert twice.tree.edges == t.edges
            # composing the index maps gives the identity
            for i in range(1, t.n + 1):
                assert twice.index_map[once.index_map[i]] == i


def test_vector_rule_matches_fz(fig1):
    # mutate_edge_vectors on Gamma and fz_mutate on the extended matrix
    # both land on the mutated tree's data, up to the column relabeling
    gamma, b = edge_matrix(fig1), exchange_matrix(fig1)
    ext = extended_exchange_matrix(fig1)
    for k in range(1, 4):
        new_gamma = mutate_edge_vectors(gamma, b, k)
        result = mutate_tree(fig1, k, check=False)
        actual = edge_matrix(result.tree)
        for j in range(1, 4):
            assert column(new_gamma, j - 1) == column(actual, result.index_map[j] - 1)
        mutated = fz_mutate(ext, k)
        new_b = exchange_matrix(result.tree)
        idx = result.index_map
        for i in range(1, 4):
            for j in range(1, 4):
                assert mutated.top[i - 1][j - 1] == new_b[idx[i] - 1][idx[j] - 1]
            # coefficient rows track the negated edge vectors columnwise
            assert column(mutated.bottom, i - 1) == tuple(
                -x for x in column(actual, idx[i] - 1)
            )


def test_battery_vector_rule_everywhere():
    # tree-level and vector-level mutation agree at every edge
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(2, 4)
        eps = rng.choice(surjective_signs(n))
        t = tree_from_function(eps, random_injective(rng, n))
        assert invariant_battery(t)["vector_rule"], (eps, t.edges)


def test_mutate_descending_edge_via_reflection(fig1):
    # a down edge mutates through the reflected picture; still valid
    result = mutate_tree(fig1, 1)
    assert validate(result.tree) == ()
    back = mutate_tree(result.tree, result.index_map[1])
    assert back.tree.edges == fig1.edges


def test_mutate_edge_index_out_of_range(fig1):
    with pytest.raises(ValueError):
        mutate_tree(fig1, 0)
    with pytest.raises(ValueError):
        mutate_tree(fig1, 4)
