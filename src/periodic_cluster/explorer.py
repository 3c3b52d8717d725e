"""Exchange-graph exploration with a per-node invariant battery.

Breadth-first search from the straight descending tree, deduplicating
nodes by a canonical string key.  Every newly discovered tree can be run
through a battery of structural checks; a failure aborts the walk and
names the offending tree and check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .cluster import (
    PREINJECTIVE_SUMMAND,
    PREPROJECTIVE_SUMMAND,
    SHIFTED_PROJECTIVE,
    dimension_matrix,
    edge_matrix,
    exchange_matrix,
    extended_exchange_matrix,
    fz_mutate,
    psi_infinity,
    summands,
)
from .functions import PeriodicFunction, _integerized, f_map, is_injective
from .linalg import (
    column_sign_coherent,
    determinant,
    dot,
    identity,
    inverse,
    mat_mul,
    transpose,
)
from .mutation import mutate_edge_vectors, mutate_tree
from .quiver import MINUS, PLUS, SignFunction, euler_matrix
from .roots import REAL_SCHUR_TYPES, classify_root
from .tree import (
    DOWN,
    NEGATIVE,
    POSITIVE,
    UP,
    ZERO,
    Edge,
    PeriodicTree,
    classify_slope,
    in_region,
    infinite_path_edges,
    infinite_path_gains,
    initial_tree,
    synthesize_morphism,
    tree_from_function,
    validate,
)

__all__ = [
    "BatteryFailure",
    "NonGenericFunctionError",
    "DescentExhausted",
    "ExchangeGraph",
    "canonical_key",
    "invariant_battery",
    "bfs",
    "mutation_descent",
]


class BatteryFailure(ValueError):
    def __init__(self, key: str, check: str):
        super().__init__(f"invariant {check!r} failed on {key}")
        self.key = key
        self.check = check


class NonGenericFunctionError(ValueError):
    """The function lies on a wall: some edge pairing vanishes."""


class DescentExhausted(RuntimeError):
    """The descent step cap was hit before reaching the containing region."""


def canonical_key(tree: PeriodicTree) -> str:
    body = ";".join(
        f"{'U' if d == UP else 'D'}{l},{r}"
        for l, r, d in sorted(tree.edges, key=lambda e: (e.left, e.right, e.dir))
    )
    return f"{tree.eps.to_string()}|{body}"


def _shared_endpoints(tree: PeriodicTree, i: int, j: int) -> int:
    def classes(k: int) -> set[int]:
        l, r, _ = tree.edge(k)
        return {tree.bar(l), tree.bar(r)}

    return len(classes(i) & classes(j))


def invariant_battery(tree: PeriodicTree) -> dict[str, bool]:
    """Pass/fail report for the structural invariants of one tree."""
    n = tree.n
    eps = tree.eps
    report: dict[str, bool] = {}

    report["validate"] = validate(tree) == ()
    report["edge_vectors_schur"] = all(
        classify_root(eps, l, r) in REAL_SCHUR_TYPES for l, r, _ in tree.edges
    )

    gamma = edge_matrix(tree)
    b = exchange_matrix(tree)
    e = euler_matrix(eps)
    v = dimension_matrix(tree)

    report["det_unimodular"] = determinant(gamma) in (1, -1)
    report["inverse_sign_coherent"] = column_sign_coherent(inverse(gamma))
    report["column_sums"] = all(
        sum(gamma[i][j] for i in range(n)) % n != 0 for j in range(n)
    )
    report["exchange_skew"] = all(
        b[i][j] == -b[j][i] for i in range(n) for j in range(n)
    )
    report["endpoint_counts"] = all(
        abs(b[i - 1][j - 1]) == _shared_endpoints(tree, i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    )
    report["dimension_identity"] = mat_mul(mat_mul(transpose(v), e), gamma) == identity(n)

    etv = mat_mul(transpose(e), v)
    psis = [psi_infinity(tree, k) for k in range(1, n + 1)]
    report["psi_two_path"] = all(
        psis[k - 1] == tuple(etv[i][k - 1] for i in range(n)) for k in range(1, n + 1)
    )

    # Kinds are computed from psi sums; cross-check them against the
    # geometry of the quotient cycle, which never looks at psi.
    kinds = [s.kind for s in summands(tree)]
    cycle = set(infinite_path_edges(tree))
    gains = infinite_path_gains(tree)
    ok = all((kinds[k - 1] == "Regular") == (k not in cycle) for k in range(1, n + 1))
    for k in cycle:
        if gains[k] > 0:
            ok = ok and kinds[k - 1] == PREPROJECTIVE_SUMMAND
        else:
            ok = ok and kinds[k - 1] in (PREINJECTIVE_SUMMAND, SHIFTED_PROJECTIVE)
    report["summand_kinds"] = ok

    slope = classify_slope(tree)
    if slope == POSITIVE:
        report["slope_trichotomy"] = all(
            k not in (PREINJECTIVE_SUMMAND, SHIFTED_PROJECTIVE) for k in kinds
        )
    elif slope == NEGATIVE:
        report["slope_trichotomy"] = all(k != PREPROJECTIVE_SUMMAND for k in kinds)
    else:
        report["slope_trichotomy"] = any(k == PREPROJECTIVE_SUMMAND for k in kinds) and any(
            k in (PREINJECTIVE_SUMMAND, SHIFTED_PROJECTIVE) for k in kinds
        )

    if slope == ZERO:
        base = synthesize_morphism(tree, injective=False)
        report["zero_slope_witness"] = base.m == 0 and in_region(tree, base)
    else:
        report["zero_slope_witness"] = True

    pi = synthesize_morphism(tree)
    report["round_trip"] = tree_from_function(eps, pi) == tree

    ext = extended_exchange_matrix(tree)
    involution = vector_rule = fz_rule = True
    for k in range(1, n + 1):
        res = mutate_tree(tree, k, check=False)
        back = mutate_tree(res.tree, res.index_map[k], check=False)
        involution = involution and back.tree == tree

        expected = mutate_edge_vectors(gamma, b, k)
        actual = edge_matrix(res.tree)
        perm = res.index_map
        vector_rule = vector_rule and all(
            expected[i][j - 1] == actual[i][perm[j] - 1]
            for i in range(n)
            for j in range(1, n + 1)
        )

        fz = fz_mutate(ext, k)
        b2 = exchange_matrix(res.tree)
        c2 = tuple(tuple(-x for x in row) for row in edge_matrix(res.tree))
        fz_rule = fz_rule and all(
            fz.top[i - 1][j - 1] == b2[perm[i] - 1][perm[j] - 1]
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        )
        fz_rule = fz_rule and all(
            fz.bottom[i][j - 1] == c2[i][perm[j] - 1]
            for i in range(n)
            for j in range(1, n + 1)
        )
    report["mutation_involution"] = involution
    report["vector_rule"] = vector_rule
    report["fz_matches_tree"] = fz_rule
    return report


@dataclass
class ExchangeGraph:
    nodes: dict[str, PeriodicTree] = field(default_factory=dict)
    arcs: tuple[tuple[str, int, str], ...] = ()
    depth: dict[str, int] = field(default_factory=dict)


def bfs(
    eps,
    max_depth: int,
    max_nodes: int | None = None,
    verify: bool = True,
) -> ExchangeGraph:
    """Explore mutations outward from the straight descending tree."""
    if isinstance(eps, str):
        eps = SignFunction.from_string(eps)
    if max_depth < 0:
        raise ValueError("max_depth must be nonnegative")

    root = initial_tree(eps)
    root_key = canonical_key(root)
    nodes = {root_key: root}
    depth = {root_key: 0}
    arcs: set[tuple[str, int, str]] = set()
    if verify:
        _run_battery(root, root_key)

    frontier = [root_key]
    while frontier:
        next_frontier = []
        for key in sorted(frontier):
            tree = nodes[key]
            d = depth[key]
            if d >= max_depth:
                continue
            for k in range(1, tree.n + 1):
                res = mutate_tree(tree, k, check=False)
                other = canonical_key(res.tree)
                arcs.add((key, k, other))
                arcs.add((other, res.index_map[k], key))
                if other in nodes:
                    continue
                if max_nodes is not None and len(nodes) >= max_nodes:
                    continue
                if verify:
                    _run_battery(res.tree, other)
                nodes[other] = res.tree
                depth[other] = d + 1
                next_frontier.append(other)
        frontier = next_frontier
    # max_nodes can leave mutations whose result was never added
    kept = sorted(a for a in arcs if a[0] in nodes and a[2] in nodes)
    return ExchangeGraph(nodes=nodes, arcs=tuple(kept), depth=depth)


def _run_battery(tree: PeriodicTree, key: str) -> None:
    for check, passed in invariant_battery(tree).items():
        if not passed:
            raise BatteryFailure(key, check)


@lru_cache(maxsize=4096)
def _edge_columns(tree: PeriodicTree):
    gamma = edge_matrix(tree)
    return tuple(
        tuple(gamma[i][j] for i in range(tree.n)) for j in range(tree.n)
    )


@lru_cache(maxsize=None)
def _initial_interior(eps: SignFunction):
    return _integerized(f_map(synthesize_morphism(initial_tree(eps))))


@lru_cache(maxsize=None)
def _zero_slope_waypoint(eps: SignFunction):
    """Image of an interior point of a region meeting the slope wall.

    Built from the straight descending line by turning one edge upward
    at a sign change: flipping (i, i+1) gives p_{i+1} two children and
    p_i two parents, so it needs eps(i) = - and eps(i+1) = +.
    """
    pick = None
    for i in range(1, eps.n + 1):
        if eps.at(i) == MINUS and eps.at(i + 1) == PLUS:
            pick = i
            break
    if pick is None:
        raise ValueError("sign function must take both values")
    edges = [Edge(j, j + 1, UP if j == pick else DOWN) for j in range(1, eps.n + 1)]
    return _integerized(f_map(synthesize_morphism(PeriodicTree(eps, edges), injective=False)))


def mutation_descent(eps, pi: PeriodicFunction, max_steps: int | None = None) -> PeriodicTree:
    """Walk from the initial tree to the region containing pi.

    Follows a piecewise-linear path from an interior point of the
    initial region to the image of pi.  Among the edges whose pairing
    with the current leg's endpoint is negative (the walls still ahead
    on that leg), mutate at the one whose wall the leg crosses first;
    ties break to the least edge index.  A vanishing pairing with pi
    means pi lies on a wall and no single region contains it.

    Picking a negative-pairing edge by index alone can cycle forever:
    the walls of a region are bounded pieces of their hyperplanes, so a
    path may cross a hyperplane outside the wall and re-enter the
    positive side later.  Ordering crossings along the path is what
    makes the walk terminate.  The initial region has negative slope,
    and walls accumulate along the slope wall from both sides, so a
    positive-slope target is reached in two legs through an interior
    point of a region meeting the slope wall; a single straight segment
    would cross infinitely many walls on the way.
    """
    if isinstance(eps, str):
        eps = SignFunction.from_string(eps)
    if pi.n != eps.n:
        raise ValueError("period mismatch")
    if not is_injective(pi):
        raise ValueError("function must be injective")
    if max_steps is None:
        bound = max(abs(x) for x in (*pi.values, pi.m))
        max_steps = 10 * eps.n * (1 + math.ceil(bound))

    tree = initial_tree(eps)
    source = _initial_interior(eps)
    # only directions matter, so every vector is scaled to integers
    y = _integerized(f_map(pi))
    legs = [_zero_slope_waypoint(eps), y] if pi.m > 0 else [y]
    steps = 0
    for target in legs:
        while True:
            columns = _edge_columns(tree)
            if any(dot(y, col) == 0 for col in columns):
                raise NonGenericFunctionError("pairing vanishes on an edge vector")
            crossings = []
            for j, col in enumerate(columns, start=1):
                g1 = dot(target, col)
                if g1 < 0:
                    # crossing order along the leg is the order of g1/g0;
                    # g0 = 0 means the leg starts on this wall, cross now
                    g0 = dot(source, col)
                    crossings.append((g0 != 0, Fraction(g1, g0) if g0 else 0, j))
            if not crossings:
                break
            if steps >= max_steps:
                raise DescentExhausted(f"no region found within {max_steps} steps")
            tree = mutate_tree(tree, min(crossings)[2], check=False).tree
            steps += 1
        source = target
    return tree
