"""Spans around public calls, and replays of the public calls composites make.

The package has no tracing of its own, so every span is recorded from
outside.  A top-level call is timed as it runs.  When the called function
is a composite (it calls other layers' public functions), its children are
replayed: the benchmark makes the same public calls on the same input,
in the same order, and times each as a child span.  Self time is a span's
duration minus its direct children's durations.

The only state the package keeps between calls is its caches (the
4096-entry edge_matrix cache and the explorer's caches).  A top-level call
that reads them (CACHE_READERS) is therefore replayed in a forked copy of
the process taken just before the real call, so the replay starts from
exactly the cache state the call saw and leaves the real process's state
untouched.  Every other composite is timed first and its children
replayed after it in the same process; below the top level an edge_matrix
call that missed inside the composite may then hit in the replay, which
at the sizes measured costs microseconds.

Self time is the difference of two separately timed runs of the same
work, so it carries the host's drift between them and can come out
slightly negative for a span whose own work is small.
"""

from __future__ import annotations

import gc
import json
import math
import os
import time
import traceback
from fractions import Fraction

from periodic_cluster import (
    DOWN,
    UP,
    ZERO,
    Edge,
    PeriodicFunction,
    PeriodicTree,
    SignFunction,
    c_vectors,
    canonical_key,
    classify_slope,
    dimension_matrix,
    dumps,
    edge_matrix,
    euler_matrix,
    exchange_matrix,
    extended_exchange_matrix,
    f_map,
    fz_mutate,
    in_region,
    initial_tree,
    invariant_battery,
    is_injective,
    matrix_to_lists,
    mutate_edge_vectors,
    mutate_tree,
    parse_rational,
    projective_roots,
    psi_infinity,
    quiver_of_cluster,
    summands,
    synthesize_morphism,
    tree_from_dict,
    tree_from_function,
    validate,
)
from periodic_cluster.linalg import determinant, dot, inverse, mat_mul, transpose
from periodic_cluster.quiver import MINUS, PLUS

# Every function the traced run reports, by span name.  A name is
# <module>.<function>; mutate_tree is split by its check flag and the CLI
# has one name per verb.
LAYER_FUNCTIONS = (
    "linalg.inverse",
    "linalg.determinant",
    "quiver.euler_matrix",
    "quiver.projective_roots",
    "functions.is_injective",
    "tree.validate",
    "tree.tree_from_function",
    "tree.synthesize_morphism",
    "tree.in_region",
    "tree.classify_slope",
    "mutation.mutate_tree.check",
    "mutation.mutate_tree.nocheck",
    "mutation.mutate_edge_vectors",
    "cluster.edge_matrix",
    "cluster.exchange_matrix",
    "cluster.extended_exchange_matrix",
    "cluster.dimension_matrix",
    "cluster.psi_infinity",
    "cluster.summands",
    "cluster.fz_mutate",
    "cluster.quiver_of_cluster",
    "explorer.bfs",
    "explorer.invariant_battery",
    "explorer.mutation_descent",
    "explorer.canonical_key",
    "serialize.tree_from_dict",
    "serialize.dumps",
    "cli.validate",
    "cli.matrices",
    "cli.summands",
    "cli.classify",
    "cli.mutate",
    "cli.export_dot",
    "cli.export_svg",
    "cli.from_function",
)


class Tracer:
    """Records spans [name, start_ns, end_ns, parent, op] in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.parent: int | None = None
        self.op = 0
        # (name, args) of every completed top-level call, for replays whose
        # input includes caches filled by earlier ops
        self.history: list[tuple[str, tuple]] = []

    def call(self, name: str, fn, *args):
        replay = REPLAYS.get(name)
        top = self.parent is None
        forked = None
        if top and name in CACHE_READERS:
            forked = _replay_in_fork(self, replay, args)
        start = time.perf_counter_ns()
        result = fn(*args)
        end = time.perf_counter_ns()
        sid = len(self.spans)
        self.spans.append([name, start, end, self.parent, self.op])
        if forked is not None:
            offset = len(self.spans)
            for span in forked:
                span[3] = sid if span[3] is None else span[3] + offset
                span[4] = self.op
            self.spans.extend(forked)
        elif replay:
            self._replay(replay, sid, result, args)
        if top:
            self.history.append((name, args))
        return result

    def _replay(self, replay, sid: int, result, args) -> None:
        outer, self.parent = self.parent, sid
        try:
            replay(self, result, *args)
        finally:
            self.parent = outer


def _replay_in_fork(tracer: Tracer, replay, args) -> list[list]:
    """Replay a top-level call's children from the cache state it will see."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            # A collection writes to every tracked object, so the page copies
            # the fork owes happen here rather than inside a timed call.
            gc.collect()
            child = Tracer()
            child.history = tracer.history
            child.spans.append(None)  # stands for the top-level span
            child._replay(replay, 0, None, args)
            spans = child.spans[1:]
            for span in spans:
                span[3] = None if span[3] == 0 else span[3] - 1
            with os.fdopen(write_fd, "w") as fh:
                json.dump(spans, fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError("replay process failed")
    return json.loads(data)


def summarize(spans: list[list], ops: int) -> dict:
    """Calls, self and total time per name; replay coverage; top-level time per op."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span[3] is not None:
            child_ns[span[3]] += span[2] - span[1]
    layers: dict[str, dict] = {}
    replayed = composite = 0
    top_ms = [0.0] * ops
    for span, inner in zip(spans, child_ns):
        name, start, end, parent, op = span
        total = end - start
        entry = layers.setdefault(name, {"calls": 0, "self_ns": 0, "total_ns": 0})
        entry["calls"] += 1
        entry["self_ns"] += total - inner
        entry["total_ns"] += total
        if name in REPLAYS:
            replayed += inner
            composite += total
        if parent is None:
            top_ms[op] += total / 1e6
    return {
        "layers": layers,
        "coverage": replayed / composite if composite else 0.0,
        "top_ms": top_ms,
    }


# Replays.  Each takes the tracer, the call's result (None when replayed in
# a fork, before the call has run) and the call's arguments, and makes
# the public calls the function makes, in the order the source makes them.
# Glue that only rebuilds an argument, or that calls a function no metric
# names, runs untimed and stays in the parent's self time.


def _replay_tree_from_function(t: Tracer, result, eps, pi) -> None:
    t.call("functions.is_injective", is_injective, pi)


def _replay_synthesize(t: Tracer, result, tree, injective=True) -> None:
    if not injective:
        return
    pi = synthesize_morphism(tree, injective=False)
    longest = max(r - l for l, r, _ in tree.edges)
    if not t.call("functions.is_injective", is_injective, pi):
        pi = pi.tilted(Fraction(1, 2 * longest + 1))
    mu = Fraction(1, 2 * tree.n * tree.n * (2 * longest + 1))
    while not t.call("functions.is_injective", is_injective, pi):
        bumped = PeriodicFunction(
            tuple(v + (i + 1) * (i + 1) * mu for i, v in enumerate(pi.values)), pi.m
        )
        if t.call("functions.is_injective", is_injective, bumped):
            pi = bumped
            break
        mu /= 2
    t.call("tree.in_region", in_region, tree, pi)


def _replay_validate(t: Tracer, result, tree) -> None:
    # The round trip runs only once the local checks pass.
    if result is None:
        result = validate(tree)
    if any(v.check != "T4" for v in result):
        return
    pi = t.call("tree.synthesize_morphism", synthesize_morphism, tree)
    t.call("tree.tree_from_function", tree_from_function, tree.eps, pi)


def _replay_mutate_check(t: Tracer, result, tree, k, check=True) -> None:
    if result is None:
        result = mutate_tree(tree, k, check=False)
    t.call("tree.validate", validate, result.tree)


def _replay_projective_roots(t: Tracer, result, eps) -> None:
    e = t.call("quiver.euler_matrix", euler_matrix, eps)
    t.call("linalg.inverse", inverse, transpose(e))


def _replay_exchange(t: Tracer, result, tree) -> None:
    t.call("cluster.edge_matrix", edge_matrix, tree)
    t.call("quiver.euler_matrix", euler_matrix, tree.eps)


def _replay_extended(t: Tracer, result, tree) -> None:
    t.call("cluster.exchange_matrix", exchange_matrix, tree)
    t.call("cluster.edge_matrix", edge_matrix, tree)


def _replay_dimension(t: Tracer, result, tree) -> None:
    e = t.call("quiver.euler_matrix", euler_matrix, tree.eps)
    gamma = t.call("cluster.edge_matrix", edge_matrix, tree)
    t.call("linalg.inverse", inverse, mat_mul(e, gamma))


def _replay_summands(t: Tracer, result, tree) -> None:
    for k in range(1, tree.n + 1):
        psi = t.call("cluster.psi_infinity", psi_infinity, tree, k)
        e = t.call("quiver.euler_matrix", euler_matrix, tree.eps)
        t.call("linalg.inverse", inverse, transpose(e))
        if sum(psi) < 0:
            t.call("quiver.projective_roots", projective_roots, tree.eps)


def _replay_quiver(t: Tracer, result, tree) -> None:
    t.call("cluster.exchange_matrix", exchange_matrix, tree)


def _replay_battery(t: Tracer, result, tree) -> None:
    n, eps = tree.n, tree.eps
    t.call("tree.validate", validate, tree)
    gamma = t.call("cluster.edge_matrix", edge_matrix, tree)
    b = t.call("cluster.exchange_matrix", exchange_matrix, tree)
    t.call("quiver.euler_matrix", euler_matrix, eps)
    t.call("cluster.dimension_matrix", dimension_matrix, tree)
    t.call("linalg.determinant", determinant, gamma)
    t.call("linalg.inverse", inverse, gamma)
    for k in range(1, n + 1):
        t.call("cluster.psi_infinity", psi_infinity, tree, k)
    t.call("cluster.summands", summands, tree)
    if t.call("tree.classify_slope", classify_slope, tree) == ZERO:
        base = t.call("tree.synthesize_morphism", synthesize_morphism, tree, False)
        t.call("tree.in_region", in_region, tree, base)
    pi = t.call("tree.synthesize_morphism", synthesize_morphism, tree)
    t.call("tree.tree_from_function", tree_from_function, eps, pi)
    ext = t.call("cluster.extended_exchange_matrix", extended_exchange_matrix, tree)
    for k in range(1, n + 1):
        res = t.call("mutation.mutate_tree.nocheck", mutate_tree, tree, k, False)
        t.call("mutation.mutate_tree.nocheck", mutate_tree, res.tree, res.index_map[k], False)
        t.call("mutation.mutate_edge_vectors", mutate_edge_vectors, gamma, b, k)
        t.call("cluster.edge_matrix", edge_matrix, res.tree)
        t.call("cluster.fz_mutate", fz_mutate, ext, k)
        t.call("cluster.exchange_matrix", exchange_matrix, res.tree)
        t.call("cluster.edge_matrix", edge_matrix, res.tree)


def _replay_bfs(t: Tracer, result, eps, max_depth, max_nodes=None, verify=True) -> None:
    if isinstance(eps, str):
        eps = SignFunction.from_string(eps)
    root = initial_tree(eps)
    root_key = t.call("explorer.canonical_key", canonical_key, root)
    nodes = {root_key: root}
    depth = {root_key: 0}
    if verify:
        t.call("explorer.invariant_battery", invariant_battery, root)
    frontier = [root_key]
    while frontier:
        next_frontier = []
        for key in sorted(frontier):
            tree = nodes[key]
            if depth[key] >= max_depth:
                continue
            for k in range(1, tree.n + 1):
                res = t.call("mutation.mutate_tree.nocheck", mutate_tree, tree, k, False)
                other = t.call("explorer.canonical_key", canonical_key, res.tree)
                if other in nodes or (max_nodes is not None and len(nodes) >= max_nodes):
                    continue
                if verify:
                    t.call("explorer.invariant_battery", invariant_battery, res.tree)
                nodes[other] = res.tree
                depth[other] = depth[key] + 1
                next_frontier.append(other)
        frontier = next_frontier


def _integerized(vector) -> tuple:
    scale = 1
    for v in vector:
        d = Fraction(v).denominator
        scale = scale * d // math.gcd(scale, d)
    return tuple(int(v * scale) for v in vector)


def _waypoint_tree(eps: SignFunction) -> PeriodicTree:
    """The tree mutation_descent routes positive slopes through."""
    pick = next(i for i in range(1, eps.n + 1) if eps.at(i) == MINUS and eps.at(i + 1) == PLUS)
    return PeriodicTree(eps, [Edge(j, j + 1, UP if j == pick else DOWN) for j in range(1, eps.n + 1)])


def _replay_descent(t: Tracer, result, eps, pi, max_steps=None) -> None:
    if isinstance(eps, str):
        eps = SignFunction.from_string(eps)
    t.call("functions.is_injective", is_injective, pi)
    # The interior points are cached per sign function for the life of the
    # process, so only the first descent over eps synthesizes them.
    earlier = [args for name, args in t.history if name == "explorer.mutation_descent"]
    first = all(args[0] != eps for args in earlier)
    first_positive = all(args[0] != eps or args[1].m <= 0 for args in earlier)
    interior_pi = synthesize_morphism(initial_tree(eps))
    if first:
        t.call("tree.synthesize_morphism", synthesize_morphism, initial_tree(eps))
    legs = [_integerized(f_map(pi))]
    if pi.m > 0:
        waypoint = _waypoint_tree(eps)
        if first_positive:
            t.call("tree.synthesize_morphism", synthesize_morphism, waypoint, False)
        legs.insert(0, _integerized(f_map(synthesize_morphism(waypoint, injective=False))))
    if max_steps is None:
        bound = max(abs(x) for x in list(pi.values) + [pi.m])
        max_steps = 10 * eps.n * (1 + math.ceil(bound))

    tree = initial_tree(eps)
    source = _integerized(f_map(interior_pi))
    steps = 0
    for target in legs:
        while steps <= max_steps:
            # The program reads the columns through its own cache, which
            # calls edge_matrix only on a miss; replaying one edge_matrix
            # call per step counts a cheap edge_matrix hit where it hit.
            columns = transpose(t.call("cluster.edge_matrix", edge_matrix, tree))
            crossings = []
            for j, col in enumerate(columns, start=1):
                g1 = dot(target, col)
                if g1 < 0:
                    g0 = dot(source, col)
                    crossings.append((float("-inf") if g0 == 0 else Fraction(g1, g0), j))
            if not crossings:
                break
            tree = t.call("mutation.mutate_tree.nocheck", mutate_tree, tree, min(crossings)[1], False).tree
            steps += 1
        source = target


def _flag(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _read_tree(t: Tracer, path: str):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return t.call("serialize.tree_from_dict", tree_from_dict, doc)


def _replay_cli_validate(t: Tracer, result, argv) -> None:
    t.call("tree.validate", validate, _read_tree(t, argv[1]))


def _replay_cli_matrices(t: Tracer, result, argv) -> None:
    tree = _read_tree(t, _flag(argv, "--tree"))
    t.call("tree.validate", validate, tree)
    ext = t.call("cluster.extended_exchange_matrix", extended_exchange_matrix, tree)
    doc = {
        "format": "periodic-cluster/1",
        "edge_matrix": matrix_to_lists(t.call("cluster.edge_matrix", edge_matrix, tree)),
        "exchange_matrix": matrix_to_lists(t.call("cluster.exchange_matrix", exchange_matrix, tree)),
        "extended_exchange_matrix": {
            "top": matrix_to_lists(ext.top),
            "bottom": matrix_to_lists(ext.bottom),
        },
        "dimension_matrix": matrix_to_lists(
            t.call("cluster.dimension_matrix", dimension_matrix, tree)
        ),
        "c_vectors": matrix_to_lists(c_vectors(tree)),
    }
    t.call("serialize.dumps", dumps, doc)


def _replay_cli_summands(t: Tracer, result, argv) -> None:
    tree = _read_tree(t, _flag(argv, "--tree"))
    t.call("tree.validate", validate, tree)
    rows = []
    for k, s in enumerate(t.call("cluster.summands", summands, tree), start=1):
        psi = t.call("cluster.psi_infinity", psi_infinity, tree, k)
        rows.append({"dim": list(s.dim), "kind": s.kind, "psi": list(psi)})
    t.call("serialize.dumps", dumps, {"format": "periodic-cluster/1", "summands": rows})


def _replay_cli_classify(t: Tracer, result, argv) -> None:
    tree = _read_tree(t, _flag(argv, "--tree"))
    t.call("tree.validate", validate, tree)
    t.call("tree.classify_slope", classify_slope, tree)


def _replay_cli_mutate(t: Tracer, result, argv) -> None:
    tree = _read_tree(t, _flag(argv, "--tree"))
    k = int(_flag(argv, "--edge"))
    res = t.call("mutation.mutate_tree.check", mutate_tree, tree, k, True)
    t.call("explorer.canonical_key", canonical_key, res.tree)


def _replay_cli_export_dot(t: Tracer, result, argv) -> None:
    tree = _read_tree(t, _flag(argv, "--tree"))
    t.call("tree.validate", validate, tree)
    c_vectors(tree)
    t.call("cluster.quiver_of_cluster", quiver_of_cluster, tree)


def _replay_cli_export_svg(t: Tracer, result, argv) -> None:
    tree = _read_tree(t, _flag(argv, "--tree"))
    t.call("tree.validate", validate, tree)
    pi = t.call("tree.synthesize_morphism", synthesize_morphism, tree)
    t.call("tree.in_region", in_region, tree, pi)


def _replay_cli_from_function(t: Tracer, result, argv) -> None:
    eps = SignFunction.from_string(_flag(argv, "--epsilon"))
    values, m = _flag(argv, "--pi").split(";")
    pi = PeriodicFunction(tuple(parse_rational(v) for v in values.split(",")), parse_rational(m))
    t.call("functions.is_injective", is_injective, pi)
    tree = t.call("tree.tree_from_function", tree_from_function, eps, pi)
    t.call("cluster.edge_matrix", edge_matrix, tree)
    t.call("cluster.exchange_matrix", exchange_matrix, tree)
    c_vectors(tree)
    t.call("explorer.canonical_key", canonical_key, tree)
    t.call("cluster.edge_matrix", edge_matrix, tree)
    t.call("cluster.exchange_matrix", exchange_matrix, tree)
    c_vectors(tree)


# Composites whose public calls read the edge_matrix or explorer caches.
CACHE_READERS = {
    "explorer.bfs",
    "explorer.mutation_descent",
    "cli.matrices",
    "cli.export_dot",
    "cli.from_function",
}

REPLAYS = {
    "tree.tree_from_function": _replay_tree_from_function,
    "tree.synthesize_morphism": _replay_synthesize,
    "tree.validate": _replay_validate,
    "mutation.mutate_tree.check": _replay_mutate_check,
    "quiver.projective_roots": _replay_projective_roots,
    "cluster.exchange_matrix": _replay_exchange,
    "cluster.extended_exchange_matrix": _replay_extended,
    "cluster.dimension_matrix": _replay_dimension,
    "cluster.summands": _replay_summands,
    "cluster.quiver_of_cluster": _replay_quiver,
    "explorer.invariant_battery": _replay_battery,
    "explorer.bfs": _replay_bfs,
    "explorer.mutation_descent": _replay_descent,
    "cli.validate": _replay_cli_validate,
    "cli.matrices": _replay_cli_matrices,
    "cli.summands": _replay_cli_summands,
    "cli.classify": _replay_cli_classify,
    "cli.mutate": _replay_cli_mutate,
    "cli.export_dot": _replay_cli_export_dot,
    "cli.export_svg": _replay_cli_export_svg,
    "cli.from_function": _replay_cli_from_function,
}
