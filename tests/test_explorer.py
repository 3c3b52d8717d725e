"""Exchange-graph exploration, the invariant battery, and region descent."""

import random

import pytest

from periodic_cluster import (
    DescentExhausted,
    NonGenericFunctionError,
    PeriodicFunction,
    PeriodicTree,
    SignFunction,
    bfs,
    canonical_key,
    edge_matrix,
    in_region,
    initial_tree,
    invariant_battery,
    mutation_descent,
    tree_from_function,
)

from conftest import random_injective, surjective_signs

BATTERY_CHECKS = {
    "validate",
    "edge_vectors_schur",
    "det_unimodular",
    "inverse_sign_coherent",
    "column_sums",
    "exchange_skew",
    "endpoint_counts",
    "dimension_identity",
    "psi_two_path",
    "summand_kinds",
    "slope_trichotomy",
    "zero_slope_witness",
    "round_trip",
    "mutation_involution",
    "vector_rule",
    "fz_matches_tree",
}


def test_canonical_key_frozen(fig1):
    assert canonical_key(fig1) == "-++|D1,5;U1,8;D2,3"
    assert canonical_key(initial_tree("-++")) == "-++|D1,2;D2,3;D3,4"


def test_battery_passes_on_valid_trees(fig1, ztree):
    for t in (fig1, ztree, initial_tree("-++"), initial_tree("+-")):
        report = invariant_battery(t)
        assert set(report) == BATTERY_CHECKS
        assert all(report.values()), [k for k, v in report.items() if not v]


def test_battery_flags_bad_trees():
    t = PeriodicTree("-++", [(1, 4, "up"), (1, 2, "down"), (2, 3, "down")])
    report = invariant_battery(t)
    failed = {k for k, v in report.items() if not v}
    assert "validate" in failed
    assert "edge_vectors_schur" in failed
    assert "column_sums" in failed


def test_bfs_small_exchange_graph():
    g = bfs("-++", 2, verify=False)
    assert len(g.nodes) == 10
    assert len(g.arcs) == 18
    assert sorted(g.depth.values()).count(1) == 3
    root = canonical_key(initial_tree("-++"))
    assert g.depth[root] == 0


def test_bfs_line_graph_for_period_two():
    g = bfs("-+", 8, verify=True)
    assert len(g.nodes) == 17  # a path: 2 * depth + 1
    # arcs come in opposite pairs
    arcset = set(g.arcs)
    for a, k, b in g.arcs:
        assert any((b, kk, a) in arcset for kk in (1, 2))
    # edge matrices separate the nodes
    mats = {edge_matrix(t) for t in g.nodes.values()}
    assert len(mats) == len(g.nodes)
    # interior nodes have exactly two distinct neighbors, frontier one
    for key in g.nodes:
        neighbors = {b for a, _, b in g.arcs if a == key}
        assert len(neighbors) == (2 if g.depth[key] < 8 else 1)


def test_bfs_node_cap_and_depth_errors():
    g = bfs("-+", 8, max_nodes=5, verify=False)
    assert len(g.nodes) == 5
    with pytest.raises(ValueError):
        bfs("-+", -1)


def test_bfs_node_cap_keeps_arcs_inside_the_graph():
    full = bfs("-++", 2, verify=False).arcs
    for cap in (0, 1, 4):
        g = bfs("-++", 2, max_nodes=cap, verify=False)
        for a, _, b in g.arcs:
            assert a in g.nodes and b in g.nodes
        # no arc between retained nodes is lost
        assert g.arcs == tuple(x for x in full if x[0] in g.nodes and x[2] in g.nodes)


def test_descent_reaches_fig1(fig1):
    got = mutation_descent("-++", PeriodicFunction((5, 1, 0), 3))
    assert got.edges == fig1.edges


def test_descent_fixed_point_for_descending_functions():
    t0 = initial_tree("-++")
    got = mutation_descent("-++", PeriodicFunction((0, -1, -2), -3))
    assert got.edges == t0.edges


def test_descent_agrees_with_reconstruction():
    rng = random.Random(2718)
    for _ in range(40):
        n = rng.randint(2, 4)
        eps = SignFunction.from_string(rng.choice(surjective_signs(n)))
        pi = random_injective(rng, n)
        expected = tree_from_function(eps, pi)
        got = mutation_descent(eps, pi)
        assert got.edges == expected.edges
        assert in_region(got, pi)


def test_descent_input_validation():
    with pytest.raises(ValueError, match="period mismatch"):
        mutation_descent("-++", PeriodicFunction((0, 1), 3))
    with pytest.raises(ValueError, match="injective"):
        mutation_descent("-++", PeriodicFunction((0, 1, 2), 0))


def test_descent_step_cap():
    with pytest.raises(DescentExhausted, match="within 0 steps"):
        mutation_descent("-++", PeriodicFunction((5, 1, 0), 3), max_steps=0)


def test_descent_rejects_wall_functions(monkeypatch):
    # pi(3) = pi(4) pairs to zero against the edge (3,4); sneak it past
    # the injectivity gate to reach the genericity check
    monkeypatch.setattr("periodic_cluster.explorer.is_injective", lambda pi: True)
    wall_pi = PeriodicFunction((0, 1, 2), 2)
    with pytest.raises(NonGenericFunctionError):
        mutation_descent("-++", wall_pi)
