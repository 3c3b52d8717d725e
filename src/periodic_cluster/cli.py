"""Command-line front end.

Verbs: validate, from-function, mutate, matrices, summands, classify,
bfs, export.  Exit codes: 0 ok, 1 domain error, 2 I/O or parse error.
All numeric input is exact ("p/q" rationals); output is byte-stable
for identical invocations.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cluster import (
    c_vectors,
    dimension_matrix,
    edge_matrix,
    exchange_matrix,
    extended_exchange_matrix,
    quiver_of_cluster,
    summands,
)
from .explorer import bfs, canonical_key
from .functions import PeriodicFunction, _integerized, collision, is_injective
from .linalg import mat_vec, transpose
from .mutation import mutate_tree
from .quiver import SignFunction, euler_matrix
from .roots import classify_root, in_stability_domain, root_vector
from .serialize import (
    FORMAT_TAG,
    SchemaError,
    dumps,
    function_to_dict,
    matrix_to_lists,
    parse_rational,
    tree_from_dict,
    tree_to_dict,
)
from .tree import (
    classify_slope,
    in_region,
    require_valid,
    synthesize_morphism,
    tree_from_function,
    validate,
)


def _read_tree(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return tree_from_dict(json.load(fh))


def _parse_pi(pi_text: str, m_text: str | None) -> PeriodicFunction:
    """Accept "5,1,0" with a separate m, or the compact "5,1,0;3"."""
    if ";" in pi_text:
        if m_text is not None:
            raise SchemaError("give m either after ';' or via --m, not both")
        pi_text, m_text = pi_text.split(";", 1)
    if m_text is None:
        raise SchemaError("missing m (use --m or the 'values;m' form)")
    values = tuple(parse_rational(v) for v in pi_text.split(","))
    return PeriodicFunction(values, parse_rational(m_text))


def _print_matrix(label: str, matrix) -> None:
    print(f"{label}:")
    for row in matrix_to_lists(matrix):
        print("  " + " ".join(str(x) for x in row))


def _vec(v) -> str:
    return "(" + ",".join(str(x) for x in v) + ")"


def cmd_validate(args) -> int:
    tree = _read_tree(args.file)
    violations = validate(tree)
    if args.json:
        doc = {
            "format": FORMAT_TAG,
            "valid": not violations,
            "violations": [{"check": v.check, "witness": v.witness} for v in violations],
        }
        print(dumps(doc))
    else:
        for v in violations:
            print(f"{v.check}\t{v.witness}")
    return 1 if violations else 0


def cmd_from_function(args) -> int:
    eps = SignFunction.from_string(args.epsilon)
    pi = _parse_pi(args.pi, args.m)
    if not is_injective(pi):
        i, j = collision(pi)
        print(f"non-injective: pi({i}) = pi({j})", file=sys.stderr)
        return 1
    tree = tree_from_function(eps, pi)
    doc = {
        "format": FORMAT_TAG,
        "tree": tree_to_dict(tree),
        "function": function_to_dict(pi),
        "edge_matrix": matrix_to_lists(edge_matrix(tree)),
        "exchange_matrix": matrix_to_lists(exchange_matrix(tree)),
        "c_vectors": matrix_to_lists(c_vectors(tree)),
    }
    if args.json:
        print(dumps(doc))
    else:
        print(canonical_key(tree))
        _print_matrix("edge_matrix", edge_matrix(tree))
        _print_matrix("exchange_matrix", exchange_matrix(tree))
        print("c_vectors: " + " ".join(_vec(c) for c in c_vectors(tree)))
    return 0


def cmd_mutate(args) -> int:
    tree = _read_tree(args.tree)
    result = mutate_tree(tree, args.edge)
    if args.json:
        doc = {
            "format": FORMAT_TAG,
            "tree": tree_to_dict(result.tree),
            "index_map": {str(k): v for k, v in sorted(result.index_map.items())},
        }
        print(dumps(doc))
    else:
        print(canonical_key(result.tree))
        print(
            "index_map: "
            + " ".join(f"{k}->{v}" for k, v in sorted(result.index_map.items()))
        )
    return 0


def cmd_matrices(args) -> int:
    tree = _read_tree(args.tree)
    require_valid(tree)
    ext = extended_exchange_matrix(tree)
    if args.json:
        doc = {
            "format": FORMAT_TAG,
            "edge_matrix": matrix_to_lists(edge_matrix(tree)),
            "exchange_matrix": matrix_to_lists(exchange_matrix(tree)),
            "extended_exchange_matrix": {
                "top": matrix_to_lists(ext.top),
                "bottom": matrix_to_lists(ext.bottom),
            },
            "dimension_matrix": matrix_to_lists(dimension_matrix(tree)),
            "c_vectors": matrix_to_lists(c_vectors(tree)),
        }
        print(dumps(doc))
    else:
        _print_matrix("edge_matrix", edge_matrix(tree))
        _print_matrix("exchange_matrix", exchange_matrix(tree))
        _print_matrix("extended_top", ext.top)
        _print_matrix("extended_bottom", ext.bottom)
        _print_matrix("dimension_matrix", dimension_matrix(tree))
        print("c_vectors: " + " ".join(_vec(c) for c in c_vectors(tree)))
    return 0


def cmd_summands(args) -> int:
    tree = _read_tree(args.tree)
    require_valid(tree)
    et = transpose(euler_matrix(tree.eps))  # psi_k = E^t dim_k
    rows = [{"dim": list(s.dim), "kind": s.kind, "psi": list(mat_vec(et, s.dim))}
            for s in summands(tree)]
    if args.json:
        print(dumps({"format": FORMAT_TAG, "summands": rows}))
    else:
        for k, row in enumerate(rows, start=1):
            dim = _vec(row["dim"])
            psi = _vec(row["psi"])
            print(f"{k}\t{row['kind']}\tdim {dim}\tpsi {psi}")
    return 0


def cmd_classify(args) -> int:
    if args.tree is not None:
        tree = _read_tree(args.tree)
        require_valid(tree)
        slope = classify_slope(tree)
        if args.json:
            print(dumps({"format": FORMAT_TAG, "slope": slope}))
        else:
            print(slope)
        return 0
    if args.root is None or args.epsilon is None:
        raise SchemaError("classify needs --tree, or --epsilon with --root i,j")
    eps = SignFunction.from_string(args.epsilon)
    parts = args.root.split(",")
    try:
        i, j = (int(p) for p in parts)
    except ValueError:
        raise SchemaError("--root takes two comma-separated integers") from None
    kind = classify_root(eps, i, j)
    doc = {
        "format": FORMAT_TAG,
        "root": [i, j],
        "vector": list(root_vector(eps.n, i, j)),
        "type": kind,
    }
    if args.pi is not None:
        pi = _parse_pi(args.pi, args.m)
        doc["stability"] = in_stability_domain(eps, i, j, pi)
    if args.json:
        print(dumps(doc))
    else:
        print(f"root ({i},{j}) {_vec(doc['vector'])}: {kind}")
        if "stability" in doc:
            print(f"stability: {doc['stability']}")
    return 0


def cmd_bfs(args) -> int:
    graph = bfs(args.epsilon, args.depth, max_nodes=args.max_nodes, verify=args.verify)
    checks = 16
    battery = f"passed ({checks} checks x {len(graph.nodes)} nodes)" if args.verify else "skipped"
    if args.json:
        nodes = [
            {"key": key, "depth": graph.depth[key], "tree": tree_to_dict(tree)}
            for key, tree in sorted(graph.nodes.items(), key=lambda kv: (graph.depth[kv[0]], kv[0]))
        ]
        doc = {
            "format": FORMAT_TAG,
            "epsilon": args.epsilon,
            "max_depth": args.depth,
            "nodes": nodes,
            "arcs": [list(a) for a in graph.arcs],
            "battery": battery,
        }
        print(dumps(doc))
    else:
        print(f"nodes\t{len(graph.nodes)}")
        print(f"arcs\t{len(graph.arcs)}")
        print(f"battery\t{battery}")
    return 0


def _dot(tree) -> str:
    cvecs = c_vectors(tree)
    lines = ["digraph quiver {"]
    for k in range(1, tree.n + 1):
        lines.append(f'  v{k} [label="v{k} {_vec(cvecs[k - 1])}"];')
    arrows = quiver_of_cluster(tree)
    for (i, j), mult in sorted(arrows.items()):
        lines.extend(f"  v{i} -> v{j};" for _ in range(mult))
    lines.append("}")
    return "\n".join(lines)


def _svg(tree, pi: PeriodicFunction) -> str:
    """Three periods of the embedding k -> (k, pi(k)), integer grid."""
    n = tree.n
    lo_x, hi_x = -n, 2 * n
    segments = []
    xs_used = set(range(lo_x, hi_x + 1))
    for e in tree.edges:
        t_min = -((e.right - lo_x) // n)
        t_max = (hi_x - e.left) // n
        for t in range(t_min, t_max + 1):
            a, b = e.left + t * n, e.right + t * n
            segments.append((a, b))
            xs_used.update((a, b))
    xs = sorted(xs_used)
    scaled = dict(zip(xs, _integerized([pi.at(k) for k in xs])))
    y_min, y_max = min(scaled.values()), max(scaled.values())
    span = y_max - y_min
    margin = max(1, -(-span // 20))
    height = span + 2 * margin
    sx = max(1, -(-height // (3 * n)))
    width = (hi_x - lo_x) * sx

    def px(k: int) -> int:
        return (k - lo_x) * sx

    def py(k: int) -> int:
        return (y_max + margin) - scaled[k]

    sw = max(1, height // 150)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">'
    ]
    for a, b in segments:
        lines.append(
            f'  <line x1="{px(a)}" y1="{py(a)}" x2="{px(b)}" y2="{py(b)}" '
            f'stroke="black" stroke-width="{sw}"/>'
        )
    for k in range(lo_x, hi_x + 1):
        lines.append(f'  <circle cx="{px(k)}" cy="{py(k)}" r="{2 * sw}" fill="black"/>')
    lines.append("</svg>")
    return "\n".join(lines)


def cmd_export(args) -> int:
    tree = _read_tree(args.tree)
    require_valid(tree)
    if args.dot:
        print(_dot(tree))
        return 0
    if args.pi is not None:
        pi = _parse_pi(args.pi, args.m)
    else:
        pi = synthesize_morphism(tree)
    if not in_region(tree, pi):
        raise ValueError("function is not in the region of this tree")
    print(_svg(tree, pi))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="periodic-cluster",
        description="Periodic trees, their edge matrices, mutations, and regions.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", parents=[common], help="check a tree document")
    p.add_argument("file")
    p.set_defaults(run=cmd_validate)

    p = sub.add_parser("from-function", parents=[common], help="build the tree whose region contains pi")
    p.add_argument("--epsilon", required=True)
    p.add_argument("--pi", required=True, help='"5,1,0" with --m, or "5,1,0;3"')
    p.add_argument("--m")
    p.set_defaults(run=cmd_from_function)

    p = sub.add_parser("mutate", parents=[common], help="mutate a tree at an edge index")
    p.add_argument("--tree", required=True)
    p.add_argument("--edge", type=int, required=True)
    p.set_defaults(run=cmd_mutate)

    p = sub.add_parser("matrices", parents=[common], help="edge, exchange, extended, dimension matrices")
    p.add_argument("--tree", required=True)
    p.set_defaults(run=cmd_matrices)

    p = sub.add_parser("summands", parents=[common], help="summand dimensions and kinds")
    p.add_argument("--tree", required=True)
    p.set_defaults(run=cmd_summands)

    p = sub.add_parser("classify", parents=[common], help="slope of a tree, or type of a root")
    p.add_argument("--tree")
    p.add_argument("--epsilon")
    p.add_argument("--root", help='"i,j"')
    p.add_argument("--pi", help="optional function for a stability verdict")
    p.add_argument("--m")
    p.set_defaults(run=cmd_classify)

    p = sub.add_parser("bfs", parents=[common], help="explore the exchange graph")
    p.add_argument("--epsilon", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--max-nodes", type=int, default=None)
    p.add_argument("--verify", action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(run=cmd_bfs)

    p = sub.add_parser("export", parents=[common], help="DOT quiver or SVG embedding")
    p.add_argument("--tree", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--dot", action="store_true")
    group.add_argument("--svg", action="store_true")
    p.add_argument("--pi", help="function for the SVG embedding; defaults to a synthesized one")
    p.add_argument("--m")
    p.set_defaults(run=cmd_export)
    return parser


_VALUE_FLAGS = {"--epsilon", "--pi", "--m", "--root"}


def _merge_flag_values(argv: list[str]) -> list[str]:
    """Join "--flag value" into "--flag=value" so values may start with '-'."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_merge_flag_values(list(argv)))
    try:
        return args.run(args)
    except (SchemaError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
