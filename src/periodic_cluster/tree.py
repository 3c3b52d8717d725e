"""Periodic trees: admissibility, slope, region morphisms, and reconstruction.

A tree over a sign function with period n is stored as n oriented edge
classes.  An edge (left, right, dir) joins the vertices p_left and p_right
of the underlying Z-indexed vertex set; dir is "up" when p_left sits below
p_right in the order and "down" otherwise.  Every statement about the tree
is invariant under translation by n, so classes are normalized to have
their left endpoint in 1..n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .functions import PeriodicFunction, f_map, is_injective
from .quiver import MINUS, PLUS, SignFunction

__all__ = [
    "UP",
    "DOWN",
    "POSITIVE",
    "ZERO",
    "NEGATIVE",
    "Edge",
    "Violation",
    "Extrema",
    "PeriodicTree",
    "initial_tree",
    "validate",
    "require_valid",
    "classify_slope",
    "synthesize_morphism",
    "in_region",
    "tree_from_function",
    "leaves",
    "internal_extrema",
    "infinite_path_edges",
    "infinite_path_gains",
]

UP = "up"
DOWN = "down"

POSITIVE = "Positive"
ZERO = "Zero"
NEGATIVE = "Negative"


class Edge(NamedTuple):
    left: int
    right: int
    dir: str


class Violation(NamedTuple):
    check: str
    witness: str


class Extrema(NamedTuple):
    maxima: tuple[int, ...]
    minima: tuple[int, ...]


def _flip(direction: str) -> str:
    return DOWN if direction == UP else UP


def _bar(x: int, n: int) -> int:
    return (x - 1) % n + 1


def _normalize_edge(left: int, right: int, direction: str, n: int) -> Edge:
    for x in (left, right):
        if isinstance(x, bool) or not isinstance(x, int):
            raise TypeError(f"edge endpoints must be ints, got {x!r}")
    if direction not in (UP, DOWN):
        raise ValueError(f"edge direction must be 'up' or 'down', got {direction!r}")
    if left == right:
        raise ValueError(f"edge endpoints coincide: ({left},{right})")
    if left > right:
        left, right, direction = right, left, _flip(direction)
    shift = left - _bar(left, n)
    return Edge(left - shift, right - shift, direction)


def _column_key(e: Edge, n: int) -> tuple[int, int, int, str]:
    # Columns are grouped by the residue of the upper-index endpoint so that
    # the straight descending tree gets the negated identity as edge matrix.
    return (_bar(e.right, n), e.left, e.right, e.dir)


@dataclass(frozen=True)
class PeriodicTree:
    eps: SignFunction
    edges: tuple[Edge, ...]

    def __init__(self, eps, edges):
        if isinstance(eps, str):
            eps = SignFunction.from_string(eps)
        n = eps.n
        normalized = [_normalize_edge(l, r, d, n) for (l, r, d) in edges]
        normalized.sort(key=lambda e: _column_key(e, n))
        if len(normalized) != n:
            raise ValueError(f"expected {n} edge classes, got {len(normalized)}")
        for a, b in zip(normalized, normalized[1:]):
            if a == b:
                raise ValueError(f"duplicate edge class {a}")
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "edges", tuple(normalized))

    @property
    def n(self) -> int:
        return self.eps.n

    def bar(self, x: int) -> int:
        return _bar(x, self.n)

    def edge(self, k: int) -> Edge:
        """1-based access in canonical column order."""
        if not 1 <= k <= self.n:
            raise ValueError(f"edge index {k} out of range 1..{self.n}")
        return self.edges[k - 1]


def initial_tree(eps) -> PeriodicTree:
    """The straight descending line: edges p_{i-1} > p_i for every i."""
    if isinstance(eps, str):
        eps = SignFunction.from_string(eps)
    return PeriodicTree(eps, [(i - 1, i, DOWN) for i in range(1, eps.n + 1)])


def _slot_counts(tree: PeriodicTree) -> dict[int, list[int]]:
    # Per vertex class: [left parents, right parents, left children, right children].
    counts = {v: [0, 0, 0, 0] for v in range(1, tree.n + 1)}
    for l, r, d in tree.edges:
        cl, cr = tree.bar(l), tree.bar(r)
        if d == UP:
            counts[cl][1] += 1  # parent to the right of p_l
            counts[cr][2] += 1  # child to the left of p_r
        else:
            counts[cl][3] += 1  # child to the right of p_l
            counts[cr][0] += 1  # parent to the left of p_r
    return counts


class _OffsetUnionFind:
    """Union-find over vertex classes tracking integer offsets (lift
    positions in validate, height parts in cluster.psi_infinity)."""

    def __init__(self, n: int):
        self.parent = list(range(n + 1))
        self.offset = [0] * (n + 1)  # position relative to the root

    def find(self, v: int) -> tuple[int, int]:
        path = []
        while self.parent[v] != v:
            path.append(v)
            v = self.parent[v]
        pos = 0
        for u in reversed(path):
            pos += self.offset[u]
            self.parent[u] = v
            self.offset[u] = pos
        return v, 0 if not path else self.offset[path[0]]

    def merge(self, a: int, b: int, delta: int) -> int | None:
        """Impose pos(b) = pos(a) + delta; return the winding of a closed cycle."""
        ra, pa = self.find(a)
        rb, pb = self.find(b)
        if ra == rb:
            return pa + delta - pb
        self.parent[rb] = ra
        self.offset[rb] = pa + delta - pb
        return None


def validate(tree: PeriodicTree) -> tuple[Violation, ...]:
    """All admissibility violations, empty when the tree is valid."""
    n = tree.n
    found: list[Violation] = []

    for l, r, _ in tree.edges:
        if (r - l) % n == 0:
            found.append(Violation("EDGE_LENGTH", f"({l},{r})"))

    counts = _slot_counts(tree)
    slot_names = ("left parent", "right parent", "left child", "right child")
    for v in range(1, n + 1):
        lp, rp, lc, rc = counts[v]
        for slot, c in zip(slot_names, counts[v]):
            if c > 1:
                found.append(Violation("T1", f"p_{v} {slot}"))
        if tree.eps.at(v) == PLUS and lp + rp > 1:
            found.append(Violation("T2", f"p_{v}"))
        if tree.eps.at(v) == MINUS and lc + rc > 1:
            found.append(Violation("T3", f"p_{v}"))

    uf = _OffsetUnionFind(n)
    windings = []
    for l, r, _ in tree.edges:
        w = uf.merge(tree.bar(l), tree.bar(r), r - l)
        if w is not None:
            windings.append(w)
    roots = {uf.find(v)[0] for v in range(1, n + 1)}
    if len(roots) > 1:
        found.append(Violation("CYCLE", "quotient graph disconnected"))
    else:
        for w in windings[1:]:
            found.append(Violation("CYCLE", f"extra cycle, winding {w}"))
        if windings and abs(windings[0]) != n:
            found.append(Violation("CYCLE", f"winding {windings[0]}"))

    if not found:
        # The between-vertex sign condition is certified by reconstruction:
        # a strict order-respecting function must reproduce the tree exactly.
        try:
            pi = synthesize_morphism(tree)
            if tree_from_function(tree.eps, pi).edges != tree.edges:
                found.append(Violation("T4", "round trip"))
        except ValueError as exc:
            found.append(Violation("T4", f"synthesis failed: {exc}"))
    return tuple(found)


def require_valid(tree: PeriodicTree) -> None:
    violations = validate(tree)
    if violations:
        detail = "; ".join(f"{v.check} {v.witness}" for v in violations)
        raise ValueError(f"tree is not admissible: {detail}")


class _CycleWalk(NamedTuple):
    cycle_indices: tuple[int, ...]
    visits: tuple[tuple[int, int], ...]  # (lift position, vertex class)
    steps_up: tuple[bool, ...]
    step_edges: tuple[int, ...]  # 0-based edge index used by each step
    winding: int


def _cycle_walk(tree: PeriodicTree) -> _CycleWalk:
    n = tree.n
    # Endpoint slots per class: (edge index, side) with side 0 = left endpoint.
    incident: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, n + 1)}
    for idx, (l, r, _) in enumerate(tree.edges):
        incident[tree.bar(l)].append((idx, 0))
        incident[tree.bar(r)].append((idx, 1))

    alive = [True] * n
    degree = {v: len(incident[v]) for v in incident}
    queue = [v for v in incident if degree[v] == 1]
    while queue:
        v = queue.pop()
        for idx, side in incident[v]:
            if not alive[idx]:
                continue
            alive[idx] = False
            l, r, _ = tree.edges[idx]
            other = tree.bar(r) if side == 0 else tree.bar(l)
            degree[v] -= 1
            degree[other] -= 1
            if degree[other] == 1:
                queue.append(other)

    cycle_indices = tuple(i for i, a in enumerate(alive) if a)
    if not cycle_indices:
        raise ValueError("quotient graph has no cycle")
    slots: dict[int, list[tuple[int, int]]] = {}
    for idx in cycle_indices:
        l, r, _ = tree.edges[idx]
        slots.setdefault(tree.bar(l), []).append((idx, 0))
        slots.setdefault(tree.bar(r), []).append((idx, 1))
    for v, ss in slots.items():
        if len(ss) != 2:
            raise ValueError(f"quotient cycle is not simple at class {v}")

    start = min(slots)
    pos, cls = start, start
    visits = [(pos, cls)]
    steps_up = []
    step_edges = []
    prev: tuple[int, int] | None = None
    while True:
        options = [s for s in slots[cls] if s != prev]
        idx, side = min(options)
        l, r, d = tree.edges[idx]
        if side == 0:
            pos, cls = pos + (r - l), tree.bar(r)
            steps_up.append(d == UP)
        else:
            pos, cls = pos - (r - l), tree.bar(l)
            steps_up.append(d == DOWN)
        prev = (idx, 1 - side)
        step_edges.append(idx)
        visits.append((pos, cls))
        if cls == start:
            break
    return _CycleWalk(
        cycle_indices, tuple(visits), tuple(steps_up), tuple(step_edges), pos - start
    )


def classify_slope(tree: PeriodicTree) -> str:
    """Positive, Zero, or Negative, read off the quotient cycle."""
    walk = _cycle_walk(tree)
    if all(walk.steps_up):
        ascending = True
    elif not any(walk.steps_up):
        ascending = False
    else:
        return ZERO
    sign = (1 if ascending else -1) * (1 if walk.winding > 0 else -1)
    return POSITIVE if sign > 0 else NEGATIVE


def _base_morphism(tree: PeriodicTree) -> PeriodicFunction:
    n = tree.n
    walk = _cycle_walk(tree)
    values: dict[int, Fraction | int] = {}

    if all(walk.steps_up) or not any(walk.steps_up):
        k = len(walk.steps_up)
        m = (k if all(walk.steps_up) else -k) * n // walk.winding
        heights = range(0, k) if all(walk.steps_up) else range(0, -k, -1)
        for (pos, cls), h in zip(walk.visits[:-1], heights):
            values[cls] = h - m * ((pos - cls) // n)
    else:
        m = 0
        # The orientation of the quotient is acyclic here; heights follow a
        # deterministic topological order.
        succ: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
        indeg = {v: 0 for v in range(1, n + 1)}
        for l, r, d in tree.edges:
            lo, hi = (tree.bar(l), tree.bar(r)) if d == UP else (tree.bar(r), tree.bar(l))
            if hi not in succ[lo]:
                succ[lo].add(hi)
                indeg[hi] += 1
        ready = sorted(v for v in indeg if indeg[v] == 0)
        order = []
        while ready:
            v = ready.pop(0)
            order.append(v)
            for u in sorted(succ[v]):
                indeg[u] -= 1
                if indeg[u] == 0:
                    ready.append(u)
            ready.sort()
        if len(order) != n:
            raise ValueError("order constraints are cyclic")
        for h, v in enumerate(order):
            values[v] = h

    branch = [tree.edges[i] for i in range(n) if i not in walk.cycle_indices]
    while branch:
        progressed = False
        remaining = []
        for l, r, d in branch:
            cl, cr = tree.bar(l), tree.bar(r)
            if cl in values and cr in values:
                progressed = True
            elif cl in values:
                pl = values[cl] + m * ((l - cl) // n)
                pr = pl + (1 if d == UP else -1)
                values[cr] = pr - m * ((r - cr) // n)
                progressed = True
            elif cr in values:
                pr = values[cr] + m * ((r - cr) // n)
                pl = pr - (1 if d == UP else -1)
                values[cl] = pl - m * ((l - cl) // n)
                progressed = True
            else:
                remaining.append((l, r, d))
        if not progressed:
            raise ValueError("quotient graph disconnected")
        branch = remaining
    return PeriodicFunction(tuple(values[v] for v in range(1, n + 1)), m)


def synthesize_morphism(tree: PeriodicTree, injective: bool = True) -> PeriodicFunction:
    """A function strictly respecting every edge orientation.

    With injective=True (the default) the result is also injective on all
    of Z with nonzero slope, which the reconstruction below requires.  The
    raw integer height assignment, slope zero included, is available with
    injective=False.
    """
    base = _base_morphism(tree)
    if not injective:
        return base
    result = base
    if not is_injective(result):
        # Integer heights leave every edge a margin of at least 1, so a
        # shear below 1/(2L+1) per unit length cannot cross zero.
        longest = max(r - l for l, r, _ in tree.edges)
        result = result.tilted(Fraction(1, 2 * longest + 1))
    mu = Fraction(1, 2 * tree.n * tree.n * (2 * max(r - l for l, r, _ in tree.edges) + 1))
    while not is_injective(result):
        bumped = PeriodicFunction(
            tuple(v + (i + 1) * (i + 1) * mu for i, v in enumerate(result.values)),
            result.m,
        )
        if is_injective(bumped):
            result = bumped
            break
        mu /= 2
    if not in_region(tree, result):
        raise ValueError("synthesized function left the region")
    return result


def in_region(tree: PeriodicTree, pi: PeriodicFunction) -> bool:
    """True when pi strictly respects the orientation of every edge."""
    if pi.n != tree.n:
        raise ValueError(f"period mismatch: tree has {tree.n}, function has {pi.n}")
    for l, r, d in tree.edges:
        diff = pi.at(r) - pi.at(l)
        if (diff <= 0) if d == UP else (diff >= 0):
            return False
    return True


def _adjacent_with_sign(eps_t: tuple[int, ...], j: int, sign: int) -> tuple[int, int]:
    """Nearest positions below and above j carrying the given sign."""
    q = len(eps_t)
    lo = next(t for t in range(j - 1, j - q - 1, -1) if eps_t[(t - 1) % q] == sign)
    hi = next(t for t in range(j + 1, j + q + 1) if eps_t[(t - 1) % q] == sign)
    return lo, hi


def _edge_between(x: int, y: int, pi_at: Callable[[int], Fraction]) -> tuple[int, int, str]:
    a, b = (x, y) if x < y else (y, x)
    return (a, b, UP if pi_at(b) > pi_at(a) else DOWN)


def _find_leaf(eps_t, pi_at):
    """First residue matching a leaf pattern, with its attachment vertex."""
    q = len(eps_t)
    for j in range(1, q + 1):
        sign = eps_t[j - 1]
        lo, hi = _adjacent_with_sign(eps_t, j, sign)
        window = [t for t in range(lo, hi + 1) if t != j]
        pj = pi_at(j)
        if sign == MINUS:
            if all(pi_at(t) < pj for t in window):
                return j, max(window, key=pi_at)
        else:
            if all(pi_at(t) > pj for t in window):
                return j, min(window, key=pi_at)
    return None


def _scan_extrema(eps_t, pi_at):
    """Residues that are strict extrema between adjacent opposite signs."""
    q = len(eps_t)
    result = []
    for j in range(1, q + 1):
        sign = eps_t[j - 1]
        opposite = MINUS if sign == PLUS else PLUS
        if opposite not in eps_t:
            continue
        lo, hi = _adjacent_with_sign(eps_t, j, opposite)
        window = [t for t in range(lo, hi + 1) if t != j]
        pj = pi_at(j)
        if sign == PLUS and all(pi_at(t) < pj for t in window):
            result.append(j)
        elif sign == MINUS and all(pi_at(t) > pj for t in window):
            result.append(j)
    return result


def _successor(values, m, x, pi_at):
    """The vertex holding the least value above pi(x), for monotone lines."""
    q = len(values)
    px = pi_at(x)
    best = None
    for u in range(1, q + 1):
        ratio = (px - values[u - 1]) / Fraction(m)
        t = math.floor(ratio) + 1 if m > 0 else math.ceil(ratio) - 1
        y = values[u - 1] + t * m
        if best is None or y < best[0]:
            best = (y, u + t * q)
    return best[1]


def _reconstruct(eps_t: tuple[int, ...], values: tuple, m) -> list[tuple[int, int, str]]:
    q = len(eps_t)

    def pi_at(x: int):
        idx = (x - 1) % q
        return values[idx] + m * ((x - 1 - idx) // q)

    if q == 1:
        return [(1, 2, UP if m > 0 else DOWN)]

    leaf = _find_leaf(eps_t, pi_at)
    if leaf is not None:
        j, attach = leaf

        def old(x: int) -> int:
            return x + (x - j) // (q - 1) + 1

        sub_eps = tuple(eps_t[(old(x) - 1) % q] for x in range(1, q))
        sub_values = tuple(pi_at(old(x)) for x in range(1, q))
        lifted = [(old(a), old(b), d) for a, b, d in _reconstruct(sub_eps, sub_values, m)]
        lifted.append(_edge_between(j, attach, pi_at))
        return lifted

    extrema = sorted(_scan_extrema(eps_t, pi_at))
    if extrema:
        stretches = list(zip(extrema, extrema[1:])) + [(extrema[-1], extrema[0] + q)]
        edges = []
        for a, b in stretches:
            chain = sorted(range(a, b + 1), key=pi_at)
            edges.extend(_edge_between(u, v, pi_at) for u, v in zip(chain, chain[1:]))
        return edges

    return [_edge_between(x, _successor(values, m, x, pi_at), pi_at) for x in range(1, q + 1)]


def tree_from_function(eps, pi: PeriodicFunction) -> PeriodicTree:
    """The unique tree whose region contains the given injective function."""
    if isinstance(eps, str):
        eps = SignFunction.from_string(eps)
    if pi.n != eps.n:
        raise ValueError(f"period mismatch: sign function has {eps.n}, function has {pi.n}")
    if pi.m == 0:
        raise ValueError("slope increment must be nonzero")
    if not is_injective(pi):
        raise ValueError("function must be injective")
    return PeriodicTree(eps, _reconstruct(tuple(eps.signs), tuple(pi.values), pi.m))


def _quotient_degrees(tree: PeriodicTree) -> dict[int, int]:
    degree = {v: 0 for v in range(1, tree.n + 1)}
    for l, r, _ in tree.edges:
        degree[tree.bar(l)] += 1
        degree[tree.bar(r)] += 1
    return degree


def leaves(tree: PeriodicTree) -> tuple[int, ...]:
    """Vertex classes of quotient degree one."""
    return tuple(v for v, d in sorted(_quotient_degrees(tree).items()) if d == 1)


def internal_extrema(tree: PeriodicTree) -> Extrema:
    """Maxima have two children and no parent; minima are dual."""
    counts = _slot_counts(tree)
    maxima, minima = [], []
    for v in range(1, tree.n + 1):
        lp, rp, lc, rc = counts[v]
        if lp + rp == 0 and lc + rc == 2:
            maxima.append(v)
        if lp + rp == 2 and lc + rc == 0:
            minima.append(v)
    return Extrema(tuple(maxima), tuple(minima))


def infinite_path_edges(tree: PeriodicTree) -> tuple[int, ...]:
    """1-based indices of the edges lying on the quotient cycle."""
    return tuple(i + 1 for i in _cycle_walk(tree).cycle_indices)


def infinite_path_gains(tree: PeriodicTree) -> dict[int, int]:
    """Height change (+1 or -1) across each cycle edge, 1-based index keyed.

    Gains are measured along the walk oriented toward increasing lift
    positions, so they sum to the number of ascents minus descents per
    period of the infinite path.
    """
    walk = _cycle_walk(tree)
    forward = 1 if walk.winding > 0 else -1
    return {
        idx + 1: forward * (1 if up else -1)
        for idx, up in zip(walk.step_edges, walk.steps_up)
    }
