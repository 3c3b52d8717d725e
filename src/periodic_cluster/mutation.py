"""Tree mutation: reverse one edge and slide its neighbors.

Mutation at an ascending edge (p_a, p_b) reverses that edge and re-attaches
the distinguished parent edge of p_b and the distinguished child edge of
p_a.  Descending edges are handled by reflecting the index line, mutating
the ascending image, and reflecting back.  The result is reported together
with the permutation that tracks where every edge class lands in the new
canonical column order.
"""

from __future__ import annotations

from typing import NamedTuple

from .quiver import MINUS, PLUS
from .tree import (
    DOWN,
    UP,
    Edge,
    PeriodicTree,
    _column_key,
    _flip,
    _normalize_edge,
    require_valid,
)

__all__ = ["MutationResult", "mutate_tree", "mutate_edge_vectors"]


class MutationResult(NamedTuple):
    tree: PeriodicTree
    index_map: dict[int, int]


def _directed(child: int, parent: int) -> tuple[int, int, str]:
    if child < parent:
        return (child, parent, UP)
    return (parent, child, DOWN)


def _parent_of(tree: PeriodicTree, edge: Edge, b: int) -> int | None:
    """Position of the distinguished parent of p_b along this class, if any.

    A plus vertex has at most one parent and it counts either way; a minus
    vertex only yields its left parent.
    """
    n = tree.n
    l, r, d = edge
    allow_right = tree.eps.at(b) == PLUS
    if d == DOWN and (r - b) % n == 0:
        return l + (b - r)
    if allow_right and d == UP and (l - b) % n == 0:
        return r + (b - l)
    return None


def _child_of(tree: PeriodicTree, edge: Edge, a: int) -> int | None:
    """Position of the distinguished child of p_a along this class, if any.

    Dual to _parent_of: a minus vertex has at most one child, a plus vertex
    only yields its right child.
    """
    n = tree.n
    l, r, d = edge
    allow_left = tree.eps.at(a) == MINUS
    if d == DOWN and (l - a) % n == 0:
        return r + (a - l)
    if allow_left and d == UP and (r - a) % n == 0:
        return l + (a - r)
    return None


def _mutate_ascending(tree: PeriodicTree, k: int) -> MutationResult:
    n = tree.n
    a, b, _ = tree.edge(k)
    replacements: list[tuple[int, Edge]] = [(k, Edge(a, b, DOWN))]
    for i in range(1, n + 1):
        if i == k:
            continue
        edge = tree.edge(i)
        candidates = []
        c = _parent_of(tree, edge, b)
        if c is not None:
            if (c - a) % n == 0:
                # The parent is a translate of p_a; the edge jumps a period.
                candidates.append(_directed(a, b + (c - a)))
            else:
                candidates.append(_directed(a, c))
        d = _child_of(tree, edge, a)
        if d is not None:
            if (d - b) % n == 0:
                candidates.append(_directed(a + (d - b), b))
            else:
                candidates.append(_directed(d, b))
        if not candidates:
            replacements.append((i, edge))
            continue
        normalized = {_normalize_edge(*cand, n) for cand in candidates}
        if len(normalized) > 1:
            raise ValueError(f"conflicting slide rules for edge {edge}")
        replacements.append((i, normalized.pop()))

    keyed = sorted(replacements, key=lambda pair: _column_key(pair[1], n))
    new_tree = PeriodicTree._canonical(tree.eps, [e for _, e in keyed])
    index_map = {old: pos for pos, (old, _) in enumerate(keyed, start=1)}
    return MutationResult(new_tree, index_map)


def _reflect_with_map(tree: PeriodicTree) -> tuple[PeriodicTree, dict[int, int]]:
    n = tree.n
    reflected = [_normalize_edge(-r, -l, _flip(d), n) for l, r, d in tree.edges]
    new_tree = PeriodicTree._canonical(tree.eps.reflected(), reflected)
    positions = {e: pos for pos, e in enumerate(new_tree.edges, start=1)}
    return new_tree, {i + 1: positions[e] for i, e in enumerate(reflected)}


def mutate_tree(tree: PeriodicTree, k: int, check: bool = True) -> MutationResult:
    """Mutate at the k-th edge class (canonical order, 1-based)."""
    edge = tree.edge(k)
    if edge.dir == UP:
        result = _mutate_ascending(tree, k)
    else:
        mirrored, fwd = _reflect_with_map(tree)
        inner = _mutate_ascending(mirrored, fwd[k])
        final, back = _reflect_with_map(inner.tree)
        index_map = {i: back[inner.index_map[fwd[i]]] for i in range(1, tree.n + 1)}
        result = MutationResult(final, index_map)
    if check:
        require_valid(result.tree)
    return result


def _column_sign(column: tuple) -> int:
    for entry in column:
        if entry:
            return 1 if entry > 0 else -1
    raise ValueError("zero column has no sign")


def mutate_edge_vectors(gamma, b, k: int):
    """Vector-level mutation of the edge matrix at column k.

    Column k is negated; column j absorbs |b_kj| copies of column k exactly
    when b_kj opposes the sign of column k.
    """
    n = len(gamma)
    cols = [[gamma[i][j] for i in range(n)] for j in range(n)]
    sk = _column_sign(cols[k - 1])
    for j in range(n):
        if j == k - 1:
            continue
        bkj = b[k - 1][j]
        if bkj and (bkj > 0) != (sk > 0):
            cols[j] = [x + abs(bkj) * y for x, y in zip(cols[j], cols[k - 1])]
    cols[k - 1] = [-x for x in cols[k - 1]]
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))

