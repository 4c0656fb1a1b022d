"""End-to-end runs of the command-line tool, one in-process call per check."""
from __future__ import annotations

import json
import math
import stat
import sys

import pytest

jsonschema = pytest.importorskip("jsonschema")

from okplanar.cli import main, schema_path
from okplanar.generators import complete, random_outer_k_planar
from okplanar.graphs import build_graph
from okplanar.io import format_drawing, format_graph, parse_instance
from okplanar.maximal import saturate
from okplanar.mso2 import parse_sexpr


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def validated(out: str, command: str) -> dict:
    doc = json.loads(out)
    with open(schema_path(command)) as fh:
        jsonschema.validate(doc, json.load(fh))
    return doc


@pytest.fixture()
def k5(tmp_path):
    path = tmp_path / "k5.txt"
    path.write_text(format_graph(complete(5)))
    return str(path)


# ------------------------------------------------------------ instance files


def test_instance_roundtrip_random(tmp_path):
    import random

    rng = random.Random(4101)
    for _ in range(20):
        n = rng.randrange(2, 12)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = build_graph(n, rng.sample(pool, min(len(pool), rng.randrange(0, 14))))
        again = parse_instance(format_graph(g))
        assert again.graph.edges == g.edges and again.order is None
        d = random_outer_k_planar(n + 3, 2, rng.randrange(999))
        back = parse_instance(format_drawing(d))
        assert back.order == d.order and back.graph.edges == d.graph.edges


def test_instance_comments_and_errors():
    inst = parse_instance("# hi\n\n3 1  # header\n0 1\norder\n2 0 1\n")
    assert inst.graph.m == 1 and inst.order == (2, 0, 1)
    for bad in (
        "",
        "garbage\n",
        "3 2\n0 1\n",  # fewer edge lines than declared
        "3 2\n0 1\n0 1\n",  # duplicate edge
        "3 1\n0 1\nfoo\n",  # junk trailing section
        "3 1\n0 1\norder\n0 1 1\n",  # not a permutation
        "3 1\n0 1\norder\n0 1 2\n5 5\n",  # junk after the order line
        "2 1\n0 3\n",  # endpoint out of range
    ):
        with pytest.raises(ValueError):
            parse_instance(bad)


def test_generate_families(capsys, tmp_path):
    for argv, has_order in [
        (["generate", "--family", "complete", "--n", "5"], False),
        (["generate", "--family", "bipartite", "--p", "3", "--q", "4"], False),
        (["generate", "--kind", "grid", "--rows", "3", "--cols", "4"], False),
        (["generate", "--family", "3tree", "--levels", "2"], False),
        (["generate", "--family", "frame", "--n", "9", "--k", "3"], True),
        (["generate", "--kind", "random-okp", "--n", "11", "--k", "2", "--seed", "5"], True),
    ]:
        code, out = run(capsys, *argv)
        assert code == 0
        inst = parse_instance(out)
        assert (inst.order is not None) == has_order
    code, out = run(capsys, "generate", "--family", "complete", "--n", "4")
    assert parse_instance(out).graph.edges == complete(4).edges


def test_generate_seed_determinism(capsys):
    a = run(capsys, "generate", "--kind", "random-okp", "--n", "30", "--k", "2", "--seed", "8")
    b = run(capsys, "generate", "--kind", "random-okp", "--n", "30", "--k", "2", "--seed", "8")
    c = run(capsys, "generate", "--kind", "random-okp", "--n", "30", "--k", "2", "--seed", "9")
    assert a == b and a[1] != c[1]


# ------------------------------------------------------------------- check


def test_check_k5(capsys, k5):
    code, out = run(capsys, "check", "--k", "2", "--variant", "planar", k5)
    doc = validated(out, "check")
    assert code == 0 and doc["in_class"] and doc["variant"] == "outer-planar"
    assert doc["report"]["max_per_edge"] == 2 and doc["report"]["max_mutual"] == 2
    assert len(doc["report"]["per_edge"]) == 10
    assert k5 in doc["inputs"] and len(doc["inputs"][k5]) == 64
    code, out = run(capsys, "check", "--k", "1", "--variant", "planar", k5)
    assert code == 2 and not json.loads(out)["in_class"]


def test_check_closed_needs_boundary(capsys, tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text(format_graph(build_graph(4, [(0, 1), (1, 2), (2, 3)])))
    code, out = run(capsys, "check", "--k", "2", "--variant", "closed-planar", str(path))
    doc = validated(out, "check")
    assert code == 2 and not doc["closed"] and not doc["in_class"]
    code, _ = run(capsys, "check", "--k", "0", "--variant", "planar", str(path))
    assert code == 0
    # below three vertices there is no boundary cycle: open variants still
    # get a verdict, closed ones fail as recognize does
    two = tmp_path / "edge2.txt"
    two.write_text(format_graph(build_graph(2, [(0, 1)])))
    code, out = run(capsys, "check", "--k", "0", "--variant", "planar", str(two))
    doc = validated(out, "check")
    assert code == 0 and not doc["closed"] and doc["in_class"]
    assert main(["check", "--k", "0", "--variant", "closed-planar", str(two)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "closed drawings need n >= 3" in captured.err


def test_check_svg_and_out(capsys, tmp_path, k5):
    svg = tmp_path / "k5.svg"
    out_file = tmp_path / "report.json"
    code, out = run(capsys, "check", "--k", "3", "--variant", "quasi",
                    "--svg", str(svg), "--out", str(out_file), k5)
    assert code == 0 and out == ""
    assert svg.read_text().startswith("<svg")
    doc = validated(out_file.read_text(), "check")
    assert doc["in_class"]
    code2, stdout = run(capsys, "check", "--k", "3", "--variant", "quasi",
                        "--svg", str(svg), k5)
    assert out_file.read_text() == stdout  # --out writes the same bytes


# --------------------------------------------------------------- recognize


def test_recognize_engines_agree(capsys, tmp_path, k5):
    k4 = tmp_path / "k4.txt"
    k4.write_text(format_graph(complete(4)))
    for args, want in [
        (("--k", "1", "--variant", "planar"), 0),
        (("--k", "2", "--variant", "quasi"), 2),
    ]:
        docs = []
        for engine in ("sat", "brute"):
            code, out = run(capsys, "recognize", *args, "--engine", engine, str(k4))
            doc = validated(out, "recognize")
            assert code == want and doc["in_class"] == (want == 0)
            docs.append(doc)
        assert docs[0]["in_class"] == docs[1]["in_class"]
    code, out = run(capsys, "recognize", "--k", "3", "--variant", "quasi",
                    "--engine", "sat", k5)
    doc = validated(out, "recognize")
    assert code == 0 and sorted(doc["witness"]["order"]) == list(range(5))
    assert doc["witness"]["max_mutual"] <= 2


def test_recognize_emit_cnf(capsys, tmp_path):
    k4 = tmp_path / "k4.txt"
    k4.write_text(format_graph(complete(4)))
    cnf = tmp_path / "enc.cnf"
    code, out = run(capsys, "recognize", "--k", "1", "--variant", "closed-planar",
                    "--emit-cnf", str(cnf), str(k4))
    doc = validated(out, "recognize")
    assert code == 0 and doc["emitted_cnf"] == str(cnf)
    text = cnf.read_text()
    assert "p cnf " in text
    code, _ = run(capsys, "solve-cnf", str(cnf))
    assert code == 10  # the emitted encoding is satisfiable, like the verdict


def test_recognize_solver_flag(capsys, tmp_path, k5):
    script = tmp_path / "extsolver"
    script.write_text(f"#!/bin/sh\nexec {sys.executable} -m okplanar.cli solve-cnf \"$1\"\n")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    code, out = run(capsys, "recognize", "--k", "3", "--variant", "quasi",
                    "--solver", str(script), "--graph", k5)
    assert code == 0 and json.loads(out)["in_class"]


# --------------------------------------------------- separator and levels


def test_separator_flat_and_recursive(capsys, tmp_path):
    path = tmp_path / "d40.txt"
    path.write_text(format_drawing(random_outer_k_planar(40, 2, 31)))
    code, out = run(capsys, "separator", str(path))
    doc = validated(out, "separator")
    assert code == 0 and doc["valid"] and doc["size"] <= doc["size_bound"]
    sep = set(doc["separator"])
    for side in (doc["a_side"], doc["b_side"]):
        assert len(set(side) - sep) <= math.ceil(2 * doc["n"] / 3)
    code, out = run(capsys, "separator", "--recursive", "--leaf-size", "9", str(path))
    doc = validated(out, "separator")
    assert code == 0 and doc["depth"] >= 1 and doc["leaf_size"] == 9

    def leaves(node):
        kids = node.get("children", [])
        return [node] if not kids else [x for c in kids for x in leaves(c)]

    for leaf in leaves(doc["tree"]):
        assert leaf["n"] <= 9 or leaf.get("leaf") in ("trivial-small", "no-progress")


def test_levels_reports(capsys, tmp_path):
    full = saturate(random_outer_k_planar(12, 1, 77), 3)
    path = tmp_path / "sat12.txt"
    path.write_text(format_drawing(full))
    code, out = run(capsys, "levels", "--k", "3", str(path))
    doc = validated(out, "levels")
    assert code == 0 and doc["in_class"] and doc["maximal"]
    assert doc["long_edge"] is not None and doc["verification"]["pass"]
    assert 1 <= doc["levels"]["t"] <= 1  # k-2 levels at k=3
    k4 = tmp_path / "k4.txt"
    k4.write_text(format_graph(complete(4)))
    code, out = run(capsys, "levels", "--k", "2", str(k4))
    doc = validated(out, "levels")
    assert code == 2 and not doc["in_class"] and len(doc["witness_mutual"]) == 2


def test_levels_svg(capsys, tmp_path):
    full = saturate(random_outer_k_planar(10, 1, 3), 3)
    path = tmp_path / "sat10.txt"
    path.write_text(format_drawing(full))
    svg = tmp_path / "lv.svg"
    code, out = run(capsys, "levels", "--k", "3", "--svg", str(svg), str(path))
    assert code == 0 and json.loads(out)["svg"] == str(svg)
    assert svg.read_text().startswith("<svg")


# ---------------------------------------------------------------- saturate


def test_saturate_modes(capsys, tmp_path):
    full = tmp_path / "full.txt"
    code, out = run(capsys, "saturate", "--n", "10", "--k", "3", "--seed", "4",
                    "--write-drawing", str(full))
    doc = validated(out, "saturate")
    assert code == 0 and doc["matches_formula"] and doc["maximal"]
    assert doc["start"]["kind"] == "seeded" and doc["start"]["seed"] == 4
    inst = parse_instance(full.read_text())  # round-trips as a drawing file
    assert inst.graph.m == doc["final_edges"] and list(inst.order) == doc["drawing"]["order"]
    code, _ = run(capsys, "check", "--k", "3", "--variant", "quasi", str(full))
    assert code == 0
    once = run(capsys, "saturate", "--n", "10", "--k", "3", "--seed", "4")
    again = run(capsys, "saturate", "--n", "10", "--k", "3", "--seed", "4")
    assert once == again and once[0] == 0
    code, out = run(capsys, "saturate", "--n", "8", "--k", "2")
    doc = validated(out, "saturate")
    assert code == 0 and doc["start"]["kind"] == "empty"
    assert doc["final_edges"] == doc["expected_maximal_edges"]
    path = tmp_path / "k6.txt"
    path.write_text(format_drawing(parse_instance(format_graph(complete(6))).drawing()))
    code, out = run(capsys, "saturate", "--order", str(path), "--k", "2")
    doc = validated(out, "saturate")
    assert code == 2 and not doc["in_class"] and len(doc["witness_mutual"]) >= 2


# ------------------------------------------------------------------ bounds


def test_bounds_plain_and_corpus(capsys, tmp_path):
    code, out = run(capsys, "bounds", "--k", "2")
    doc = validated(out, "bounds")
    assert code == 0 and doc["degeneracy_bound"] == 4
    assert doc["chromatic_bound"] == 5 and doc["largest_complete_graph"] == 5
    corp = tmp_path / "corp"
    corp.mkdir()
    for i, n in enumerate((12, 16, 20)):
        (corp / f"g{i}.txt").write_text(format_drawing(random_outer_k_planar(n, 2, i)))
    code, out = run(capsys, "bounds", "--k", "2", "--corpus", str(corp))
    doc = validated(out, "bounds")
    assert code == 0 and doc["corpus"]["violation"] is None
    assert [r["file"] for r in doc["corpus"]["instances"]] == ["g0.txt", "g1.txt", "g2.txt"]
    assert doc["corpus"]["summary"]["max_degeneracy"] <= 4


# -------------------------------------------------------------------- mso2


def test_mso2_emit_and_eval(capsys, tmp_path):
    code, out = run(capsys, "mso2", "--k", "2", "--variant", "quasi")
    doc = validated(out, "mso2")
    assert code == 0 and doc["variant"] == "closed-outer-quasi"
    parse_sexpr(doc["sexpr"])  # the emitted text is well formed
    assert "E^{*}" in doc["latex"] and doc["evaluation"] is None
    c5 = tmp_path / "c5.txt"
    c5.write_text(format_graph(build_graph(5, [(i, (i + 1) % 5) for i in range(5)])))
    code, out = run(capsys, "mso2", "--k", "1", "--variant", "closed-planar",
                    "--eval", str(c5))
    doc = validated(out, "mso2")
    assert code == 0 and doc["evaluation"]["value"] is True
    k4 = tmp_path / "k4.txt"
    k4.write_text(format_graph(complete(4)))
    code, out = run(capsys, "mso2", "--k", "2", "--variant", "closed-quasi",
                    "--eval", str(k4))
    doc = validated(out, "mso2")
    assert code == 2 and doc["evaluation"]["value"] is False


# ------------------------------------------------------- errors and goldens


def test_usage_errors_exit_one(capsys, k5):
    cases = [
        ["check", "--k", "2", "--variant", "planar"],  # no input file
        ["check", "--k", "2", "--variant", "bogus", k5],
        ["check", "--k", "-1", "--variant", "planar", k5],
        ["check", "--k", "1", "--variant", "quasi", k5],  # quasi needs k >= 2
        ["recognize", "--k", "2", "--variant", "planar", "--engine", "sat", "/no/such/file"],
        ["generate", "--family", "complete"],  # missing --n
        ["generate"],  # missing family
        ["levels", "--k", "1", k5],
        ["saturate", "--k", "3"],  # neither --order nor --n
        ["frobnicate"],
        [],
    ]
    for argv in cases:
        assert main(argv) == 1, argv
        capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "separator" in out and "solve-cnf" in out


def test_reports_are_byte_stable(capsys, tmp_path, k5):
    d14 = tmp_path / "d14.txt"
    d14.write_text(format_drawing(random_outer_k_planar(14, 2, 6)))
    argvs = [
        ["check", "--k", "2", "--variant", "planar", k5],
        ["recognize", "--k", "1", "--variant", "planar", "--engine", "brute", k5],
        ["recognize", "--k", "3", "--variant", "quasi", "--engine", "sat", k5],
        ["separator", str(d14)],
        ["separator", "--recursive", str(d14)],
        ["levels", "--k", "2", str(d14)],
        ["saturate", "--n", "9", "--k", "2", "--seed", "1"],
        ["bounds", "--k", "3"],
        ["mso2", "--k", "1", "--variant", "closed-planar"],
        ["generate", "--family", "frame", "--n", "8", "--k", "2"],
    ]
    for argv in argvs:
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second, argv
