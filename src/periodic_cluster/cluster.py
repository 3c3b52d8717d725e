"""Cluster-side data of a periodic tree.

Each edge class carries a signed root vector; stacking them in canonical
column order gives the edge matrix Γ.  From it derive the exchange matrix,
its extended form with coefficient rows, dimension vectors of the summands
attached to the edges, and the quiver of the cluster.  All arithmetic is
exact: integers and fractions only.

Production path: summands and the dimension matrix come from one inverse
of Γ, whose row k is psi_k (c-/g-vector duality), and from E^{-t}, cached
per sign function by `projective_roots`.  Oracles, which only cross-check:
`psi_infinity` (union-find over heights), the triple product Γ^t (E^t - E) Γ
in `exchange_matrix`, and the slot rule in `quiver_of_cluster`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .functions import PeriodicFunction, f_map, function_combination
from .linalg import dot, from_columns, inverse, mat_mul, scale, transpose
from .mutation import mutate_tree
from .quiver import PLUS, euler_matrix, projective_roots
from .roots import root_vector
from .tree import UP, PeriodicTree, _OffsetUnionFind, synthesize_morphism

__all__ = [
    "PREPROJECTIVE_SUMMAND",
    "PREINJECTIVE_SUMMAND",
    "REGULAR_SUMMAND",
    "SHIFTED_PROJECTIVE",
    "ClusterSummand",
    "ExtendedExchangeMatrix",
    "edge_matrix",
    "exchange_matrix",
    "extended_exchange_matrix",
    "fz_mutate",
    "c_vectors",
    "dimension_matrix",
    "psi_infinity",
    "summand",
    "summands",
    "quiver_of_cluster",
    "face_point",
]

PREPROJECTIVE_SUMMAND = "Preprojective"
PREINJECTIVE_SUMMAND = "Preinjective"
REGULAR_SUMMAND = "Regular"
SHIFTED_PROJECTIVE = "ShiftedProjective"


class ClusterSummand(NamedTuple):
    dim: tuple[int, ...]
    kind: str


class ExtendedExchangeMatrix(NamedTuple):
    top: tuple[tuple[int, ...], ...]
    bottom: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=4096)
def edge_matrix(tree: PeriodicTree):
    """Signed root vectors of the edges, as columns in canonical order."""
    n = tree.n
    cols = []
    for l, r, d in tree.edges:
        beta = root_vector(n, l, r)
        cols.append(beta if d == UP else tuple(-x for x in beta))
    return from_columns(cols)


def exchange_matrix(tree: PeriodicTree):
    gamma = edge_matrix(tree)
    e = euler_matrix(tree.eps)
    asym = tuple(
        tuple(e[j][i] - e[i][j] for j in range(tree.n)) for i in range(tree.n)
    )
    return mat_mul(mat_mul(transpose(gamma), asym), gamma)


def extended_exchange_matrix(tree: PeriodicTree) -> ExtendedExchangeMatrix:
    return ExtendedExchangeMatrix(exchange_matrix(tree), scale(edge_matrix(tree), -1))


def fz_mutate(ext: ExtendedExchangeMatrix, k: int) -> ExtendedExchangeMatrix:
    """Matrix mutation at index k applied to all 2n rows."""
    rows = list(ext.top) + list(ext.bottom)
    n = len(ext.top)
    p = k - 1
    new_rows = []
    for i, row in enumerate(rows):
        new_row = []
        for j in range(n):
            if i == p or j == p:
                new_row.append(-row[j])
            else:
                bik, bkj = row[p], rows[p][j]
                new_row.append(row[j] + (abs(bik) * bkj + bik * abs(bkj)) // 2)
        new_rows.append(tuple(new_row))
    return ExtendedExchangeMatrix(tuple(new_rows[:n]), tuple(new_rows[n:]))


def c_vectors(tree: PeriodicTree) -> tuple[tuple[int, ...], ...]:
    gamma = edge_matrix(tree)
    n = tree.n
    return tuple(tuple(-gamma[i][j] for i in range(n)) for j in range(n))


def dimension_matrix(tree: PeriodicTree):
    """Columns are the dimension vectors of the cluster summands: E^{-t} Γ^{-t}."""
    return transpose(mat_mul(inverse(edge_matrix(tree)), projective_roots(tree.eps)))


def psi_infinity(tree: PeriodicTree, k: int) -> tuple[int, ...]:
    """Feature vector of the limiting height function for edge k.

    Every edge class except the k-th is collapsed to height zero while the
    k-th rises by exactly one; the result is returned through the
    difference map, always an integer vector.
    """
    n = tree.n
    if not 1 <= k <= n:
        raise ValueError(f"edge index {k} out of range 1..{n}")

    def shift(x: int) -> int:
        return (x - tree.bar(x)) // n

    # A height is c + d*mu for the slope mu; c and d run through the same
    # merges, so the two union-finds stay identical in shape.
    merges = [
        # Collapsed edge: equal heights at both endpoints of the instance.
        (tree.bar(l), tree.bar(r), 0, shift(l) - shift(r))
        for i, (l, r, _) in enumerate(tree.edges, start=1)
        if i != k
    ]
    l, r, d = tree.edge(k)
    lo, hi = (l, r) if d == UP else (r, l)
    merges.append((tree.bar(lo), tree.bar(hi), 1, shift(lo) - shift(hi)))
    const, slope = _OffsetUnionFind(n), _OffsetUnionFind(n)
    mu = None
    for a, b, c, d in merges:
        rc, rd = const.merge(a, b, c), slope.merge(a, b, d)
        if rc is None:
            continue
        # A closed cycle forces rc + rd*mu = 0.
        if rd:
            closed = Fraction(-rc, rd)
            if mu is not None and mu != closed:
                raise ValueError("inconsistent height constraints")
            mu = closed
        elif rc:
            raise ValueError("inconsistent height constraints")
    if mu is None:
        raise ValueError("height slope left undetermined")

    def psi(x: int) -> Fraction:
        v = tree.bar(x)
        return const.find(v)[1] + (slope.find(v)[1] + shift(x)) * mu

    out = []
    for i in range(1, n + 1):
        y = psi(i) - psi(i - 1)
        if y.denominator != 1:
            raise ValueError("height increments are not integral")
        out.append(int(y))
    return tuple(out)


def summand(tree: PeriodicTree, k: int) -> ClusterSummand:
    """Dimension vector and kind of the summand attached to edge k."""
    if not 1 <= k <= tree.n:
        raise ValueError(f"edge index {k} out of range 1..{tree.n}")
    return summands(tree)[k - 1]


def summands(tree: PeriodicTree) -> tuple[ClusterSummand, ...]:
    """Dimension vectors and kinds of all summands, from one inverse of Γ.

    Row k of Γ^{-1} is psi_k and dim_k = E^{-t} psi_k.  The kind follows
    the pairing of dim_k with the null root, which equals sum(psi_k):
    positive means preprojective, zero regular, negative preinjective
    unless -dim_k is projective, which makes it a shifted projective.
    """
    projectives = projective_roots(tree.eps)
    psis = inverse(edge_matrix(tree))
    out = []
    for psi, dim in zip(psis, mat_mul(psis, projectives)):
        total = sum(psi)
        if total > 0:
            kind = PREPROJECTIVE_SUMMAND
        elif total == 0:
            kind = REGULAR_SUMMAND
        elif tuple(-x for x in dim) in projectives:
            kind = SHIFTED_PROJECTIVE
        else:
            kind = PREINJECTIVE_SUMMAND
        out.append(ClusterSummand(dim, kind))
    return tuple(out)


def _slot_cycles(tree: PeriodicTree) -> dict[int, list[int | None]]:
    """Occupied attachment slots around each vertex class, in rotation order.

    Plus vertices rotate through [parent, left child, right child], minus
    vertices through [child, right parent, left parent].
    """
    n = tree.n
    cycles: dict[int, list[int | None]] = {v: [None, None, None] for v in range(1, n + 1)}

    def occupy(v: int, slot: int, idx: int) -> None:
        if cycles[v][slot] is not None:
            raise ValueError(f"slot conflict at vertex class {v}")
        cycles[v][slot] = idx

    for idx, (l, r, d) in enumerate(tree.edges, start=1):
        cl, cr = tree.bar(l), tree.bar(r)
        if d == UP:
            # p_l gains a right parent, p_r gains a left child.
            if tree.eps.at(cl) == PLUS:
                occupy(cl, 0, idx)  # parent slot
            else:
                occupy(cl, 1, idx)  # right parent slot
            if tree.eps.at(cr) == PLUS:
                occupy(cr, 1, idx)  # left child slot
            else:
                occupy(cr, 0, idx)  # child slot
        else:
            # p_l gains a right child, p_r gains a left parent.
            if tree.eps.at(cl) == PLUS:
                occupy(cl, 2, idx)  # right child slot
            else:
                occupy(cl, 0, idx)  # child slot
            if tree.eps.at(cr) == PLUS:
                occupy(cr, 0, idx)  # parent slot
            else:
                occupy(cr, 2, idx)  # left parent slot
    return cycles


def quiver_of_cluster(tree: PeriodicTree) -> dict[tuple[int, int], int]:
    """Arrows between edge indices, with multiplicities.

    Read off the exchange matrix and cross-checked against the geometric
    rule: arrows join edges occupying cyclically adjacent slots around a
    shared vertex class, and an empty slot in between blocks the pair.
    """
    b = exchange_matrix(tree)
    n = tree.n
    arrows: dict[tuple[int, int], int] = {}
    for i in range(n):
        for j in range(n):
            if b[i][j] > 0:
                arrows[(i + 1, j + 1)] = b[i][j]

    geometric: dict[tuple[int, int], int] = {}
    for v, slots in _slot_cycles(tree).items():
        for t in range(3):
            src, dst = slots[t], slots[(t + 1) % 3]
            if src is not None and dst is not None and src != dst:
                geometric[(src, dst)] = geometric.get((src, dst), 0) + 1
    if geometric != arrows:
        raise ValueError(
            f"quiver mismatch: matrix gives {arrows}, geometry gives {geometric}"
        )
    return arrows


def face_point(tree: PeriodicTree, k: int) -> PeriodicFunction:
    """A height function on the shared wall between a tree and its mutation.

    The segment between interior points of the two adjacent regions crosses
    only the wall attached to edge k; the crossing point is returned.
    """
    pi0 = synthesize_morphism(tree)
    pi1 = synthesize_morphism(mutate_tree(tree, k, check=False).tree)
    gamma = edge_matrix(tree)
    col = tuple(gamma[i][k - 1] for i in range(tree.n))
    g0 = dot(f_map(pi0), col)
    g1 = dot(f_map(pi1), col)
    if g0 <= 0 or g1 >= 0:
        raise ValueError("interior points do not bracket the wall")
    return function_combination(pi0, pi1, Fraction(g0) / (Fraction(g0) - Fraction(g1)))
