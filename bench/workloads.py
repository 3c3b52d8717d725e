"""Seeded inputs, ops and exact output checks for the four workloads.

An op is one closed-loop request.  ``run(call)`` makes the op's top-level
public calls through ``call(name, fn, *args)``: the timed passes hand in a
plain pass-through, the traced pass a tracer that records a span per call.
``check(out)`` decides, outside the timed region, whether the op's output
is exactly right, and ``digest(out)`` fingerprints it so that every repeat
of a run can be compared with the first.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
from fractions import Fraction
from typing import Callable, NamedTuple

from periodic_cluster import (
    FORMAT_TAG,
    PeriodicFunction,
    SignFunction,
    bfs,
    canonical_key,
    dumps,
    in_region,
    initial_tree,
    mutate_tree,
    mutation_descent,
    tree_from_function,
    tree_to_dict,
)
from periodic_cluster import cli

WORKLOADS = ("bfs_battery", "region_descent", "tree_queries", "mutation_walk")


class Op(NamedTuple):
    label: str
    run: Callable
    check: Callable
    digest: Callable
    # (new nodes, mutations performed) for an op that explores a graph
    counts: Callable | None = None


def random_signs(rng: random.Random, n: int) -> SignFunction:
    while True:
        text = "".join(rng.choice("+-") for _ in range(n))
        if "+" in text and "-" in text:
            return SignFunction.from_string(text)


def random_injective(rng: random.Random, n: int, span: int = 3) -> PeriodicFunction:
    """A seeded injective periodic function with n values and nonzero m.

    Values are a/den for one common denominator den.  pi is injective
    exactly when (a_u - a_v) / (den * m) is never an integer, that is when
    the numerators are pairwise distinct mod den * |m|.  Each value is
    drawn once and redrawn only when its residue is taken; with at least
    2n residues available a draw succeeds with probability at least 1/2,
    so the generator scales to any n.
    """
    m = rng.choice((-3, -2, -1, 1, 2, 3))
    den = rng.randint(2 * n, 4 * n)
    modulus = abs(m) * den
    taken: set[int] = set()
    values = []
    while len(values) < n:
        a = rng.randint(-span * den, span * den)
        if a % modulus in taken:
            continue
        taken.add(a % modulus)
        values.append(Fraction(a, den))
    return PeriodicFunction(tuple(values), m)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# bfs_battery: criterion 8's verification path.  Every surjective sign
# function of period 3 to 5 is explored once per pass; the depth shrinks
# as n grows so that one pass stays a few seconds.
BFS_DEPTH = {3: 3, 4: 2, 5: 1}


def _surjective_signs(n: int) -> list[str]:
    out = []
    for bits in range(2**n):
        text = "".join("+" if bits & (1 << i) else "-" for i in range(n))
        if "+" in text and "-" in text:
            out.append(text)
    return out


def _bfs_ops(rng: random.Random, workdir: str) -> list[Op]:
    specs = [(s, BFS_DEPTH[n]) for n in sorted(BFS_DEPTH) for s in _surjective_signs(n)]
    rng.shuffle(specs)
    return [_bfs_op(SignFunction.from_string(s), depth) for s, depth in specs]


def _bfs_op(eps: SignFunction, depth: int) -> Op:
    def run(call):
        return call("explorer.bfs", bfs, eps, depth, None, True)

    root = canonical_key(initial_tree(eps))

    def check(graph) -> bool:
        if graph.depth.get(root) != 0 or any(d > depth for d in graph.depth.values()):
            return False
        if any(a not in graph.nodes or b not in graph.nodes for a, _, b in graph.arcs):
            return False
        out_arcs = {(a, k) for a, k, _ in graph.arcs}
        return all(
            (key, k) in out_arcs
            for key, d in graph.depth.items()
            if d < depth
            for k in range(1, eps.n + 1)
        )

    def digest(graph) -> str:
        return _sha(repr((sorted(graph.nodes), graph.arcs)))

    def counts(graph) -> tuple[int, int]:
        expanded = sum(1 for d in graph.depth.values() if d < depth)
        return len(graph.nodes) - 1, expanded * eps.n

    return Op(f"bfs {eps.to_string()} depth {depth}", run, check, digest, counts)


# region_descent: criterion 9's routing path.  Periods 4..24 are visited in
# turn so every seed sees the same mix of sizes; only the sign functions and
# height functions change with the seed.
DESCENT_PERIODS = range(4, 25)
DESCENT_ROUNDS = 12


def _descent_ops(rng: random.Random, workdir: str) -> list[Op]:
    ops = []
    for _ in range(DESCENT_ROUNDS):
        for n in DESCENT_PERIODS:
            ops.append(_descent_op(random_signs(rng, n), random_injective(rng, n)))
    return ops


def _descent_op(eps: SignFunction, pi: PeriodicFunction) -> Op:
    def run(call):
        tree = call("tree.tree_from_function", tree_from_function, eps, pi)
        inside = call("tree.in_region", in_region, tree, pi)
        walked = call("explorer.mutation_descent", mutation_descent, eps, pi)
        return tree, inside, walked

    def check(out) -> bool:
        tree, inside, walked = out
        return inside and walked == tree

    def digest(out) -> str:
        return canonical_key(out[2])

    return Op(f"descent n={eps.n}", run, check, digest)


# tree_queries: every read-only CLI verb, run in-process, on three tree
# documents per period.  The verbs reparse the same document, so this is the
# workload where edge_matrix cache hits across calls count.  The cost of
# summands varies by about 15% from tree to tree, hence three trees per period.
QUERY_PERIODS = (16, 24, 32)
QUERY_TREES_PER_PERIOD = 3


def _query_verbs(path: str, eps: SignFunction, pi: PeriodicFunction, edge: int):
    pi_text = ",".join(str(v) for v in pi.values) + f";{pi.m}"
    return [
        ("cli.validate", ["validate", path]),
        ("cli.matrices", ["matrices", "--tree", path, "--json"]),
        ("cli.summands", ["summands", "--tree", path, "--json"]),
        ("cli.classify", ["classify", "--tree", path]),
        ("cli.mutate", ["mutate", "--tree", path, "--edge", str(edge)]),
        ("cli.export_dot", ["export", "--tree", path, "--dot"]),
        ("cli.export_svg", ["export", "--tree", path, "--svg"]),
        ("cli.from_function", ["from-function", "--epsilon", eps.to_string(), "--pi", pi_text]),
    ]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main in-process, with its stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _query_ops(rng: random.Random, workdir: str) -> list[Op]:
    ops = []
    for n in QUERY_PERIODS:
        for i in range(QUERY_TREES_PER_PERIOD):
            eps = random_signs(rng, n)
            pi = random_injective(rng, n)
            tree = tree_from_function(eps, pi)
            path = os.path.join(workdir, f"tree{n}-{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(dumps({"format": FORMAT_TAG, **tree_to_dict(tree)}))
            for name, argv in _query_verbs(path, eps, pi, rng.randint(1, n)):
                ops.append(_query_op(f"{name} n={n} tree {i}", name, argv))
    return ops


def _query_op(label: str, name: str, argv: list[str]) -> Op:
    def run(call):
        return call(name, run_cli, argv)

    def check(out) -> bool:
        return out[0] == 0

    def digest(out) -> str:
        return _sha(out[1])

    return Op(label, run, check, digest)


# mutation_walk: the write path.  Several short walks per period, visited in
# turn, so every op makes a tree no earlier op has seen.  validate's cost
# varies with the tree's shape, so a pass spreads its steps over many trees.
WALK_PERIODS = (32, 48, 64, 80, 96)
WALKS_PER_PERIOD = 3
WALK_STEPS = 3


def _walk_ops(rng: random.Random, workdir: str) -> list[Op]:
    walks = []
    for n in WALK_PERIODS:
        for _ in range(WALKS_PER_PERIOD):
            eps = random_signs(rng, n)
            walks.append([tree_from_function(eps, random_injective(rng, n))])
    ops = []
    for _ in range(WALK_STEPS):
        for walk in walks:
            ops.append(_walk_op(walk, rng.randint(1, len(walk[0].edges))))
    return ops


def _walk_op(walk: list, k: int) -> Op:
    """Mutate the walk's current tree at edge k; walk[0] is the current tree."""

    def run(call):
        before = walk[0]
        result = call("mutation.mutate_tree.check", mutate_tree, before, k, True)
        walk[0] = result.tree
        return before, result

    def check(out) -> bool:
        before, result = out
        n = before.n
        if sorted(result.index_map) != list(range(1, n + 1)):
            return False
        if sorted(result.index_map.values()) != list(range(1, n + 1)):
            return False
        back = mutate_tree(result.tree, result.index_map[k], check=False)
        return back.tree == before

    def digest(out) -> str:
        return canonical_key(out[1].tree)

    return Op(f"walk n={len(walk[0].edges)} edge {k}", run, check, digest)


_OP_LISTS = {
    "bfs_battery": _bfs_ops,
    "region_descent": _descent_ops,
    "tree_queries": _query_ops,
    "mutation_walk": _walk_ops,
}


def build_ops(workload: str, seed: int, workdir: str) -> list[Op]:
    """The op list of one pass; the same seed gives the same ops."""
    return _OP_LISTS[workload](random.Random(f"{workload}:{seed}"), workdir)
