"""Edge matrices, exchange matrices, summands, quivers, wall points."""

import json
import random

import pytest

from periodic_cluster import (
    DOWN,
    PREINJECTIVE_SUMMAND,
    PREPROJECTIVE_SUMMAND,
    REGULAR_SUMMAND,
    SHIFTED_PROJECTIVE,
    UP,
    ZERO,
    PeriodicTree,
    SignFunction,
    c_vectors,
    classify_slope,
    dimension_matrix,
    edge_matrix,
    euler_matrix,
    exchange_matrix,
    extended_exchange_matrix,
    f_map,
    face_point,
    fz_mutate,
    in_region,
    initial_tree,
    projective_roots,
    psi_infinity,
    quiver_of_cluster,
    summand,
    summands,
    tree_from_function,
    tree_to_dict,
)
from periodic_cluster.cli import main
from periodic_cluster.linalg import (
    column,
    dot,
    from_columns,
    identity,
    inverse,
    is_skew_symmetric,
    mat_mul,
    mat_vec,
    transpose,
)

from conftest import random_injective, surjective_signs


def test_edge_matrix_frozen(fig1, ztree):
    assert edge_matrix(fig1) == ((-1, 2, 0), (-2, 3, 0), (-1, 2, -1))
    assert edge_matrix(ztree) == (
        (-1, 1, 0, 0),
        (0, 1, 0, 0),
        (0, 0, -1, 0),
        (-1, 0, -1, 1),
    )
    assert edge_matrix(initial_tree("-++")) == tuple(
        tuple(-x for x in row) for row in identity(3)
    )


def test_exchange_matrix_frozen(fig1, ztree):
    assert exchange_matrix(fig1) == ((0, 2, -1), (-2, 0, 1), (1, -1, 0))
    assert exchange_matrix(ztree) == (
        (0, 0, 0, 1),
        (0, 0, 2, -1),
        (0, -2, 0, 1),
        (-1, 1, -1, 0),
    )


def test_exchange_matrix_skew(fig1, ztree):
    rng = random.Random(5)
    trees = [fig1, ztree, initial_tree("+-+")]
    trees += [
        tree_from_function("-++", random_injective(rng, 3)) for _ in range(5)
    ]
    for t in trees:
        assert is_skew_symmetric(exchange_matrix(t))


def test_extended_exchange_matrix(fig1):
    ext = extended_exchange_matrix(fig1)
    assert ext.top == exchange_matrix(fig1)
    assert ext.bottom == ((1, -2, 0), (2, -3, 0), (1, -2, 1))


def test_c_vectors_negate_edge_columns(fig1):
    assert c_vectors(fig1) == ((1, 2, 1), (-2, -3, -2), (0, 0, 1))
    gamma = edge_matrix(fig1)
    for j, c in enumerate(c_vectors(fig1)):
        assert c == tuple(-x for x in column(gamma, j))


def test_dimension_matrix_frozen(fig1, ztree):
    assert dimension_matrix(fig1) == ((3, 2, 1), (4, 3, 1), (3, 2, 0))
    assert dimension_matrix(ztree) == (
        (0, 1, -1, 1),
        (1, 1, -1, 1),
        (0, 0, -1, 0),
        (0, 0, 0, 1),
    )


def test_dimension_matrix_inverts_pairing():
    rng = random.Random(77)
    for _ in range(8):
        n = rng.randint(2, 4)
        eps = rng.choice(surjective_signs(n))
        t = tree_from_function(eps, random_injective(rng, n))
        v = dimension_matrix(t)
        product = mat_mul(transpose(v), mat_mul(euler_matrix(t.eps), edge_matrix(t)))
        assert product == identity(n)


def test_psi_frozen(fig1, ztree):
    assert [psi_infinity(fig1, k) for k in (1, 2, 3)] == [
        (3, -2, 0),
        (2, -1, 0),
        (1, 0, -1),
    ]
    assert [psi_infinity(ztree, k) for k in (1, 2, 3, 4)] == [
        (-1, 1, 0, 0),
        (0, 1, 0, 0),
        (0, 0, -1, 0),
        (-1, 1, -1, 1),
    ]
    with pytest.raises(ValueError):
        psi_infinity(fig1, 4)


def test_psi_is_dual_basis_to_edge_vectors():
    # dot(psi_k, gamma_j) = delta_kj: limiting heights rise by one across
    # their own edge and are constant across every other
    rng = random.Random(13)
    trees = [tree_from_function("-++", random_injective(rng, 3)) for _ in range(4)]
    trees += [tree_from_function("+-+-", random_injective(rng, 4)) for _ in range(3)]
    for t in trees:
        gamma = edge_matrix(t)
        for k in range(1, t.n + 1):
            psi = psi_infinity(t, k)
            for j in range(1, t.n + 1):
                assert dot(psi, column(gamma, j - 1)) == (1 if j == k else 0)


def test_summands_frozen(fig1, ztree):
    got = summands(fig1)
    assert got[0].dim == (3, 4, 3) and got[0].kind == PREPROJECTIVE_SUMMAND
    assert got[1].dim == (2, 3, 2) and got[1].kind == PREPROJECTIVE_SUMMAND
    assert got[2].dim == (1, 1, 0) and got[2].kind == REGULAR_SUMMAND

    kinds = {(s.dim, s.kind) for s in summands(ztree)}
    assert kinds == {
        ((0, 1, 0, 0), REGULAR_SUMMAND),
        ((1, 1, 0, 0), PREPROJECTIVE_SUMMAND),
        ((-1, -1, -1, 0), SHIFTED_PROJECTIVE),
        ((1, 1, 0, 1), REGULAR_SUMMAND),
    }


def test_shifted_projectives_on_initial_trees():
    # the straight descending line carries exactly the n shifted projectives
    for s in ["-+", "-++", "+-+", "+++-"]:
        t = initial_tree(s)
        assert all(x.kind == SHIFTED_PROJECTIVE for x in summands(t))


def test_zero_slope_kinds_follow_walk_not_direction():
    # All four edges sit on the quotient cycle of this zero-slope tree.
    # The ascending edge (2,3) is crossed right-to-left by the forward
    # walk, so its summand loses height per period and is preinjective
    # even though the edge points up.
    t = PeriodicTree("++--", [(4, 5, UP), (1, 3, DOWN), (2, 3, UP), (2, 4, DOWN)])
    assert classify_slope(t) == ZERO
    got = summands(t)
    assert got[0].dim == (1, 0, 0, 0) and got[0].kind == PREPROJECTIVE_SUMMAND
    assert got[1].dim == (-1, -1, 0, 0) and got[1].kind == SHIFTED_PROJECTIVE
    assert got[2].dim == (0, 0, 1, 0) and got[2].kind == PREINJECTIVE_SUMMAND
    assert got[3].dim == (-1, 0, 0, -1) and got[3].kind == SHIFTED_PROJECTIVE


def test_quiver_frozen(fig1, ztree):
    assert quiver_of_cluster(fig1) == {(1, 2): 2, (2, 3): 1, (3, 1): 1}
    assert quiver_of_cluster(ztree) == {(1, 4): 1, (2, 3): 2, (3, 4): 1, (4, 2): 1}


def test_quiver_rejects_slot_conflicts():
    bad = PeriodicTree("-++", [(1, 5, "down"), (1, 8, "down"), (2, 3, "down")])
    with pytest.raises(ValueError, match="slot conflict"):
        quiver_of_cluster(bad)


def test_fz_mutate_is_an_involution(fig1):
    ext = extended_exchange_matrix(fig1)
    for k in (1, 2, 3):
        assert fz_mutate(fz_mutate(ext, k), k) == ext


def test_face_point_sits_on_exactly_one_wall(fig1):
    gamma = edge_matrix(fig1)
    for k in (1, 2, 3):
        pi = face_point(fig1, k)
        y = f_map(pi)
        assert dot(y, column(gamma, k - 1)) == 0
        for j in (1, 2, 3):
            if j != k:
                assert dot(y, column(gamma, j - 1)) > 0
        assert not in_region(fig1, pi)


def _summand_per_edge(tree, k):
    """Edge k's summand the long way: union-find psi, then E^{-t} psi."""
    psi = psi_infinity(tree, k)
    dim = mat_vec(inverse(transpose(euler_matrix(tree.eps))), psi)
    if sum(psi) > 0:
        kind = PREPROJECTIVE_SUMMAND
    elif sum(psi) == 0:
        kind = REGULAR_SUMMAND
    elif tuple(-x for x in dim) in projective_roots(tree.eps):
        kind = SHIFTED_PROJECTIVE
    else:
        kind = PREINJECTIVE_SUMMAND
    return dim, kind


def _seeded_trees(seed, periods):
    rng = random.Random(seed)
    for n in periods:
        for _ in range(3):
            signs = [rng.choice((1, -1)) for _ in range(n - 2)] + [1, -1]
            rng.shuffle(signs)
            yield tree_from_function(SignFunction(tuple(signs)), random_injective(rng, n))


def test_summands_match_per_edge_derivation():
    for t in _seeded_trees(31, range(2, 11)):
        expected = [_summand_per_edge(t, k) for k in range(1, t.n + 1)]
        assert [(s.dim, s.kind) for s in summands(t)] == expected
        for k in range(1, t.n + 1):
            assert tuple(summand(t, k)) == expected[k - 1]
        assert dimension_matrix(t) == from_columns([dim for dim, _ in expected])
    with pytest.raises(ValueError):
        summand(t, t.n + 1)
    with pytest.raises(ValueError):
        summand(t, 0)


def test_cli_summands_psi_matches_union_find(tmp_path, capsys):
    for i, t in enumerate(_seeded_trees(32, (3, 5, 8))):
        path = tmp_path / f"t{i}.json"
        path.write_text(json.dumps(tree_to_dict(t)))
        assert main(["summands", "--tree", str(path), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["summands"]
        assert [tuple(r["psi"]) for r in rows] == [
            psi_infinity(t, k) for k in range(1, t.n + 1)
        ]
