"""Periodic trees: admissibility, slope, region morphisms, and reconstruction.

A tree over a sign function with period n is stored as n oriented edge
classes.  An edge (left, right, dir) joins the vertices p_left and p_right
of the underlying Z-indexed vertex set; dir is "up" when p_left sits below
p_right in the order and "down" otherwise.  Every statement about the tree
is invariant under translation by n, so classes are normalized to have
their left endpoint in 1..n.

Production path: tree_from_function scales pi once to integers by its
common denominator (the tree depends only on the order of the values and
the sign of m), then strips leaves from a worklist over a linked list of
surviving residues and reads the infinite path off the survivors, in
near-linear time and int arithmetic only.  synthesize_morphism tilts and
bumps integer numerators over one denominator and builds Fractions only
for the value it returns.  validate certifies T4 by that round trip.
Oracles: in_region checks a function against every edge directly, and the
explorer battery's round_trip check repeats the round trip on each tree.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .functions import PeriodicFunction, _integerized, is_injective
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
        self._fill(eps, [_normalize_edge(l, r, d, eps.n) for (l, r, d) in edges])

    @classmethod
    def _canonical(cls, eps: SignFunction, edges) -> "PeriodicTree":
        """A tree from edges already in normal form (_normalize_edge), in any order."""
        tree = object.__new__(cls)
        tree._fill(eps, list(edges))
        return tree

    def _fill(self, eps: SignFunction, normalized: list[Edge]) -> None:
        n = eps.n
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
    n = tree.n
    counts = {v: [0, 0, 0, 0] for v in range(1, n + 1)}
    for l, r, d in tree.edges:
        cl, cr = _bar(l, n), _bar(r, n)
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
        w = uf.merge(_bar(l, n), _bar(r, n), r - l)
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
        incident[_bar(l, n)].append((idx, 0))
        incident[_bar(r, n)].append((idx, 1))

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
            other = _bar(r, n) if side == 0 else _bar(l, n)
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
        slots.setdefault(_bar(l, n), []).append((idx, 0))
        slots.setdefault(_bar(r, n), []).append((idx, 1))
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
            pos, cls = pos + (r - l), _bar(r, n)
            steps_up.append(d == UP)
        else:
            pos, cls = pos - (r - l), _bar(l, n)
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
    values: dict[int, int] = {}

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
            lo, hi = (_bar(l, n), _bar(r, n)) if d == UP else (_bar(r, n), _bar(l, n))
            if hi not in succ[lo]:
                succ[lo].add(hi)
                indeg[hi] += 1
        ready = [v for v in indeg if indeg[v] == 0]  # sorted, so already a heap
        order = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for u in succ[v]:
                indeg[u] -= 1
                if indeg[u] == 0:
                    heapq.heappush(ready, u)
        if len(order) != n:
            raise ValueError("order constraints are cyclic")
        for h, v in enumerate(order):
            values[v] = h

    # Branch edges form trees hanging from the valued vertices; one
    # traversal gives each branch vertex its height from its parent.
    cycle = set(walk.cycle_indices)
    incident: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for i, (l, r, _) in enumerate(tree.edges):
        if i not in cycle:
            incident[_bar(l, n)].append(i)
            incident[_bar(r, n)].append(i)
    branches = len(tree.edges) - len(cycle)
    seen = set()
    stack = list(values)
    while stack:
        for i in incident[stack.pop()]:
            if i in seen:
                continue
            seen.add(i)
            l, r, d = tree.edges[i]
            cl, cr = _bar(l, n), _bar(r, n)
            step = 1 if d == UP else -1
            if cr not in values:
                values[cr] = values[cl] + m * ((l - cl) // n) + step - m * ((r - cr) // n)
                stack.append(cr)
            elif cl not in values:
                values[cl] = values[cr] + m * ((r - cr) // n) - step - m * ((l - cl) // n)
                stack.append(cl)
    if len(seen) != branches:
        raise ValueError("quotient graph disconnected")
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
    scaled, den = base, 1
    if not is_injective(base):
        # Integer heights leave every edge a margin of at least 1, so a
        # shear below 1/(2L+1) per unit length cannot cross zero.  The shear
        # and the bumps run on integer numerators over the denominator den.
        n, den = tree.n, 2 * max(r - l for l, r, _ in tree.edges) + 1
        tilted = tuple(den * v + i + 1 for i, v in enumerate(base.values))
        tilted_m = den * base.m + n
        scaled, grow = PeriodicFunction(tilted, tilted_m), 1
        while not is_injective(scaled):
            # Bump pi(i) by i^2 * mu, mu = 1/(2 n^2 den) halved until injective.
            grow = 2 * grow if grow > 1 else 2 * n * n
            scaled = PeriodicFunction(
                tuple(grow * v + i * i for i, v in enumerate(tilted, start=1)), grow * tilted_m
            )
        den *= grow
    if not in_region(tree, scaled):
        raise ValueError("synthesized function left the region")
    if den == 1:
        return base
    return PeriodicFunction(tuple(Fraction(v, den) for v in scaled.values), Fraction(scaled.m, den))


def in_region(tree: PeriodicTree, pi: PeriodicFunction) -> bool:
    """True when pi strictly respects the orientation of every edge."""
    if pi.n != tree.n:
        raise ValueError(f"period mismatch: tree has {tree.n}, function has {pi.n}")
    for l, r, d in tree.edges:
        diff = pi.at(r) - pi.at(l)
        if (diff <= 0) if d == UP else (diff >= 0):
            return False
    return True


def _edge_between(x: int, px: int, y: int, py: int) -> tuple[int, int, str]:
    """The edge joining positions x and y, which hold the values px and py."""
    if x > y:
        x, px, y, py = y, py, x, px
    return (x, y, UP if py > px else DOWN)


def _reconstruct(signs: tuple[int, ...], values: tuple[int, ...], m: int) -> list[tuple[int, int, str]]:
    """Edges of the tree of an injective integer function, by leaf stripping.

    Residue r (0-based) at lift t is the position r + 1 + q*t, with value
    values[r] + m*t.  A residue of sign s is a leaf when s*(pi(u) - pi(r))
    > 0 for every survivor u in its window, which runs between its nearest
    surviving same-sign neighbours; it hangs from the window's extreme
    value and is removed with all its lifts.  The surviving residues form a
    cyclic linked list in residue order, so lifts stay explicit and no
    re-indexing is needed.  A failed test records a witness u.  Windows
    lose only removed residues, so the verdict stands until the witness
    itself is removed, and then exactly the residues it witnessed are
    tested again.  A leaf stays a leaf, and the tree is unique, so the
    removal order does not matter.  The survivors that no leaf pattern
    removes form the infinite path and its extrema, read off by
    _path_edges.
    """
    q = len(signs)
    nxt = [(r + 1) % q for r in range(q)]
    prv = [(r - 1) % q for r in range(q)]
    same_nxt, same_prv = [0] * q, [0] * q
    for s in (PLUS, MINUS):
        ring = [r for r in range(q) if signs[r] == s]
        for a, b in zip(ring, ring[1:] + ring[:1]):
            same_nxt[a], same_prv[b] = b, a
    alive = [True] * q
    witnessed: list[list[int]] = [[] for _ in range(q)]
    attach: list[tuple[int, int]] = [(0, 0)] * q
    leaves: list[int] = []

    def test(r: int) -> None:
        s, a, b = signs[r], same_prv[r], same_nxt[r]
        if a == r:  # alone in its sign, and pi(r - q) or pi(r + q) lies beyond
            return
        least, best = s * values[r], None
        u, t, tb = a, -(a > r), int(b < r)
        while True:
            key = s * (values[u] + m * t)
            if key < least:
                witnessed[u].append(r)
                return
            if best is None or key < best[0]:
                best = (key, u, t)
            if u == b and t == tb:
                break
            u, t = nxt[u], t + (nxt[u] <= u)
            if u == r:
                u, t = nxt[r], int(nxt[r] <= r)
        attach[r] = best[1:]
        leaves.append(r)

    for r in range(q):
        test(r)
    edges = []
    while leaves:
        r = leaves.pop()
        c, t = attach[r]
        edges.append(_edge_between(r + 1, values[r], c + 1 + q * t, values[c] + m * t))
        alive[r] = False
        nxt[prv[r]], prv[nxt[r]] = nxt[r], prv[r]
        same_nxt[same_prv[r]], same_prv[same_nxt[r]] = same_nxt[r], same_prv[r]
        for p in witnessed[r]:
            if alive[p]:
                test(p)
    survivors = [r for r in range(q) if alive[r]]
    return edges + _path_edges(signs, values, m, survivors)


def _path_edges(signs, values, m: int, survivors: list[int]) -> list[tuple[int, int, str]]:
    """Edges among the residues that carry no leaf pattern.

    Extrema are residues beyond both nearest opposite-sign survivors and
    the rest of their same-sign run.  Between consecutive extrema the
    survivors form a chain sorted by value.  Without extrema the survivors
    form a monotone line, each joined to the lift holding the least value
    above it: the next residue in the cyclic order of values mod |m|.
    """
    q, k = len(signs), len(survivors)

    def position(i: int) -> tuple[int, int]:
        # Survivor index i, taken cyclically, as (position, value).
        r, t = survivors[i % k], i // k
        return r + 1 + q * t, values[r] + m * t

    def edge(i: int, j: int) -> tuple[int, int, str]:
        return _edge_between(*position(i), *position(j))

    starts = [i for i in range(k) if signs[survivors[i]] != signs[survivors[i - 1]]]
    extrema = []
    for a, b in zip(starts, starts[1:] + [i + k for i in starts[:1]]):
        s = signs[survivors[a]]
        top = max(range(a, b), key=lambda x: s * position(x)[1])
        if s * position(top)[1] > max(s * position(a - 1)[1], s * position(b)[1]):
            extrema.append(top)
    out = []
    if extrema:
        for a, b in zip(extrema, extrema[1:] + [extrema[0] + k]):
            chain = sorted(range(a, b + 1), key=lambda x: position(x)[1])
            out.extend(edge(x, y) for x, y in zip(chain, chain[1:]))
        return out
    size = abs(m)
    order = sorted(range(k), key=lambda i: values[survivors[i]] % size)
    for i, j in zip(order, order[1:] + order[:1]):
        x, u = values[survivors[i]], values[survivors[j]]
        above = x + ((u - x) % size or size)
        out.append(edge(i, j + k * ((above - u) // m)))
    return out


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
    # The tree depends only on the order of the values and the sign of m,
    # so one positive scaling to integers leaves it unchanged.
    *values, m = _integerized((*pi.values, pi.m))
    return PeriodicTree(eps, _reconstruct(eps.signs, tuple(values), m))


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
