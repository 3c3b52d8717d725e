"""End-to-end CLI tests, run in process through main()."""

import json
import re

import pytest

from periodic_cluster import initial_tree, quiver_of_cluster, tree_from_dict, tree_to_dict
from periodic_cluster.cli import main

from conftest import make_fig1


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.json"
    path.write_text(json.dumps(tree_to_dict(make_fig1())))
    return str(path)


@pytest.fixture
def bad_tree_file(tmp_path):
    doc = {
        "epsilon": "-++",
        "edges": [
            {"left": 1, "right": 4, "dir": "up"},
            {"left": 1, "right": 2, "dir": "down"},
            {"left": 2, "right": 3, "dir": "down"},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_ok(fig1_file, capsys):
    assert main(["validate", fig1_file]) == 0
    assert capsys.readouterr().out == ""


def test_validate_reports_violations(bad_tree_file, capsys):
    assert main(["validate", bad_tree_file]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "EDGE_LENGTH\t(1,4)" in out
    assert "T3\tp_1" in out


def test_validate_json(bad_tree_file, capsys):
    assert main(["validate", "--json", bad_tree_file]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["valid"] is False
    assert {"check": "EDGE_LENGTH", "witness": "(1,4)"} in doc["violations"]


def test_validate_missing_file_is_io_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_garbage_json(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2


def test_validate_wrong_format_tag(tmp_path, capsys):
    doc = tree_to_dict(make_fig1())
    doc["format"] = "periodic-cluster/999"
    path = tmp_path / "tagged.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2


def test_from_function_builds_fig1(capsys):
    assert main(["from-function", "--epsilon", "-++", "--pi", "5,1,0;3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert tree_from_dict(doc["tree"]).edges == make_fig1().edges
    assert doc["edge_matrix"] == [[-1, 2, 0], [-2, 3, 0], [-1, 2, -1]]
    assert doc["exchange_matrix"] == [[0, 2, -1], [-2, 0, 1], [1, -1, 0]]
    assert doc["c_vectors"] == [[1, 2, 1], [-2, -3, -2], [0, 0, 1]]
    assert doc["function"] == {"values": ["5", "1", "0"], "m": "3"}


def test_from_function_separate_m_flag(capsys):
    assert main(["from-function", "--epsilon", "-++", "--pi", "5,1,0", "--m", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("-++|D1,5;U1,8;D2,3\n")


def test_from_function_non_injective(capsys):
    assert main(["from-function", "--epsilon", "-+", "--pi", "0,0;1"]) == 1
    assert capsys.readouterr().err.strip() == "non-injective: pi(1) = pi(2)"


def test_from_function_zero_slope_collision(capsys):
    assert main(["from-function", "--epsilon", "-+", "--pi", "0,1;0"]) == 1
    assert capsys.readouterr().err.strip() == "non-injective: pi(1) = pi(3)"


def test_from_function_both_m_forms_rejected(capsys):
    assert main(["from-function", "--epsilon", "-+", "--pi", "0,1;2", "--m", "2"]) == 2
    assert main(["from-function", "--epsilon", "-+", "--pi", "0,1"]) == 2


def test_mutate(fig1_file, capsys):
    assert main(["mutate", "--tree", fig1_file, "--edge", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "-++|D1,8;U1,11;D2,3"
    assert out[1] == "index_map: 1->2 2->1 3->3"


def test_mutate_json_round_trips(fig1_file, capsys):
    assert main(["mutate", "--tree", fig1_file, "--edge", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["index_map"] == {"1": 2, "2": 1, "3": 3}
    tree_from_dict(doc["tree"])


def test_mutate_bad_index(fig1_file, capsys):
    assert main(["mutate", "--tree", fig1_file, "--edge", "9"]) == 1


def test_matrices_json(fig1_file, capsys):
    assert main(["matrices", "--tree", fig1_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["edge_matrix"] == [[-1, 2, 0], [-2, 3, 0], [-1, 2, -1]]
    assert doc["extended_exchange_matrix"]["top"] == doc["exchange_matrix"]
    assert doc["extended_exchange_matrix"]["bottom"] == [[1, -2, 0], [2, -3, 0], [1, -2, 1]]
    assert doc["dimension_matrix"] == [[3, 2, 1], [4, 3, 1], [3, 2, 0]]


def test_matrices_text(fig1_file, capsys):
    assert main(["matrices", "--tree", fig1_file]) == 0
    out = capsys.readouterr().out
    assert "edge_matrix:" in out and "extended_bottom:" in out
    assert "c_vectors: (1,2,1) (-2,-3,-2) (0,0,1)" in out


def test_matrices_reject_invalid_tree(bad_tree_file):
    assert main(["matrices", "--tree", bad_tree_file]) == 1


def test_summands(fig1_file, capsys):
    assert main(["summands", "--tree", fig1_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "1\tPreprojective\tdim (3,4,3)\tpsi (3,-2,0)"
    assert out[1] == "2\tPreprojective\tdim (2,3,2)\tpsi (2,-1,0)"
    assert out[2] == "3\tRegular\tdim (1,1,0)\tpsi (1,0,-1)"
    assert main(["summands", "--tree", fig1_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summands"][0] == {"dim": [3, 4, 3], "kind": "Preprojective", "psi": [3, -2, 0]}


def test_classify_tree_slope(fig1_file, capsys):
    assert main(["classify", "--tree", fig1_file]) == 0
    assert capsys.readouterr().out.strip() == "Positive"


def test_classify_root(capsys):
    assert main(["classify", "--epsilon", "-++", "--root", "1,5"]) == 0
    assert capsys.readouterr().out.strip() == "root (1,5) (1,2,1): preprojective"


def test_classify_root_with_stability(capsys):
    rc = main(["classify", "--epsilon", "-++", "--root", "1,5",
               "--pi", "0,-1,-2;1", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["type"] == "preprojective"
    assert doc["vector"] == [1, 2, 1]
    assert doc["stability"] == "interior"


def test_classify_needs_arguments(capsys):
    assert main(["classify", "--epsilon", "-++"]) == 2
    assert main(["classify", "--epsilon", "-++", "--root", "1"]) == 2


def test_classify_root_not_integer_is_parse_error(capsys):
    assert main(["classify", "--epsilon", "-++", "--root", "1,x"]) == 2
    assert "--root" in capsys.readouterr().err


def test_bfs_text(capsys):
    assert main(["bfs", "--epsilon", "-++", "--depth", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "nodes\t10"
    assert out[1] == "arcs\t18"
    assert out[2] == "battery\tpassed (16 checks x 10 nodes)"


def test_bfs_json(capsys):
    assert main(["bfs", "--epsilon", "-+", "--depth", "3", "--no-verify", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["battery"] == "skipped"
    assert len(doc["nodes"]) == 7
    assert doc["nodes"][0]["depth"] == 0
    depths = [node["depth"] for node in doc["nodes"]]
    assert depths == sorted(depths)
    keys = {node["key"] for node in doc["nodes"]}
    for a, k, b in doc["arcs"]:
        assert a in keys and b in keys and k in (1, 2)


def test_export_dot_matches_quiver(fig1_file, capsys):
    assert main(["export", "--tree", fig1_file, "--dot"]) == 0
    out = capsys.readouterr().out
    arrows = re.findall(r"(v\d) -> (v\d);", out)
    counted = {}
    for a, b in arrows:
        counted[(int(a[1]), int(b[1]))] = counted.get((int(a[1]), int(b[1])), 0) + 1
    assert counted == quiver_of_cluster(make_fig1())
    assert 'v1 [label="v1 (1,2,1)"];' in out


def _orient(o, a, b):
    v = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
    return (v > 0) - (v < 0)


def _on_segment(p, a, b):
    return (
        _orient(a, b, p) == 0
        and min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _segments_cross(s, t):
    a, b = (s[0], s[1]), (s[2], s[3])
    c, d = (t[0], t[1]), (t[2], t[3])
    shared = {a, b} & {c, d}
    if shared:
        others = [p for p in (a, b, c, d) if p not in shared]
        return any(
            _on_segment(p, c, d) if p in (a, b) else _on_segment(p, a, b)
            for p in others
        )
    if _orient(a, b, c) != _orient(a, b, d) and _orient(c, d, a) != _orient(c, d, b):
        return True
    return any(
        [_on_segment(c, a, b), _on_segment(d, a, b), _on_segment(a, c, d), _on_segment(b, c, d)]
    )


def _svg_segments(svg_text):
    return [
        tuple(int(g) for g in m.groups())
        for m in re.finditer(r'x1="(-?\d+)" y1="(-?\d+)" x2="(-?\d+)" y2="(-?\d+)"', svg_text)
    ]


def test_export_svg_planar_and_deterministic(fig1_file, capsys):
    assert main(["export", "--tree", fig1_file, "--svg", "--pi", "5,1,0;3"]) == 0
    first = capsys.readouterr().out
    assert main(["export", "--tree", fig1_file, "--svg", "--pi", "5,1,0;3"]) == 0
    assert capsys.readouterr().out == first

    segs = _svg_segments(first)
    assert len(segs) == 13
    for i, s in enumerate(segs):
        for t in segs[i + 1:]:
            assert not _segments_cross(s, t), (s, t)


def test_export_svg_descending_staircase(tmp_path, capsys):
    path = tmp_path / "t0.json"
    path.write_text(json.dumps(tree_to_dict(initial_tree("-++"))))
    assert main(["export", "--tree", str(path), "--svg", "--pi", "0,-1,-2;-3"]) == 0
    segs = _svg_segments(capsys.readouterr().out)
    # one unit-length step per consecutive pair, all sloping the same way
    widths = {s[2] - s[0] for s in segs}
    assert len(widths) == 1
    assert all((s[3] > s[1]) == (s[2] > s[0]) for s in segs)


def test_export_svg_function_outside_region(fig1_file, capsys):
    assert main(["export", "--tree", fig1_file, "--svg", "--pi", "0,-1,-2;-3"]) == 1
    assert "not in the region" in capsys.readouterr().err


def test_export_rejects_invalid_tree(bad_tree_file):
    assert main(["export", "--tree", bad_tree_file, "--dot"]) == 1


def test_unknown_verb_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
