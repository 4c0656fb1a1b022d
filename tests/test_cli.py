"""End-to-end runs of the command-line tool, one in-process call per check."""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from okplanar import io
from okplanar.cli import main
from okplanar.drawing import identity_drawing
from okplanar.generators import complete, random_outer_k_planar
from okplanar.graphs import build_graph
from okplanar.io import format_drawing, format_graph, parse_instance
from okplanar.maximal import saturate
from okplanar.mso2 import parse_sexpr

from oracles import schema_path


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
        assert parse_instance(format_graph(g)) == identity_drawing(g)
        d = random_outer_k_planar(n + 3, 2, rng.randrange(999))
        assert parse_instance(format_drawing(d)) == d


def test_empty_and_tiny_drawings_read_back():
    for n in range(4):
        d = identity_drawing(build_graph(n, []))
        assert parse_instance(format_drawing(d)) == d


def test_order_is_judged_by_make_drawing():
    with pytest.raises(ValueError, match=r"^line 4: order is not a permutation of 0\.\.2$"):
        parse_instance("3 1\n0 1\norder\n0 1 1\n")


def test_instance_comments_and_errors():
    inst = parse_instance("# hi\n\n3 1  # header\n0 1\norder\n2 0 1\n")
    assert inst.graph.m == 1 and inst.order == (2, 0, 1)
    for bad in (
        "",
        "garbage\n",
        "3 2\n0 1\n0 1\n",  # duplicate edge
        "3 1\n0 1\nfoo\n",  # junk trailing section
        "3 1\n0 1\norder\n0 1 1\n",  # not a permutation
        "2 1\n0 3\n",  # endpoint out of range
    ):
        with pytest.raises(ValueError):
            parse_instance(bad)
    # errors name the offending line, comments and blanks counted
    for bad, line in (
        ("3 1\n0 0\n", 2),  # loop
        ("3 1\n0 5\n", 2),  # endpoint out of range
        ("3 2\n0 1\n1 0\n", 3),  # duplicate edge
        ("# c\n4 3\n0 1\n\n1 2\n2 1  # again\n", 6),  # duplicate after a blank
        ("4 3\n0 1\n1 0\n3 3\n", 4),  # a loop outranks an earlier duplicate
        ("3 2\n0 1\n", 1),  # fewer edge lines than declared: the header
        ("3 1\n0 1\norder\n0 1 2\n5 5\n", 5),  # junk after the order line
        ("3 1\n0 1\norder\n", 3),  # an order section with no ids
        ("3 1\n0 1 2\n", 2),  # three integers on an edge line
        ("-1 0\n", 1),  # a negative count in the header
        ("3 1\n0 1\norder\n0 1\n", 4),  # an order shorter than n
        ("3 1\n0 1\norder\n0 1 1\n", 4),  # an order that is not a permutation
    ):
        with pytest.raises(ValueError, match=rf"^line {line}: "):
            parse_instance(bad)


def test_vertex_cap_refuses_the_header_before_any_edge(monkeypatch):
    def unreachable(*_):
        raise AssertionError("build_graph ran")

    monkeypatch.setattr(io, "build_graph", unreachable)
    n = io.MAX_VERTICES + 1
    with pytest.raises(ValueError, match=rf"^line 1: header declares {n} vertices, "
                                         r"above MAX_VERTICES = 100000$"):
        parse_instance(f"{n} 0\n")


def test_vertex_cap_admits_exactly_the_cap(monkeypatch):
    monkeypatch.setattr(io, "MAX_VERTICES", 5)
    assert parse_instance("5 0\n").n == 5
    with pytest.raises(ValueError, match=r"^line 1: header declares 6 vertices, above MAX_VERTICES = 5$"):
        parse_instance("6 0\n")


def test_check_refuses_a_header_above_the_vertex_cap(capsys, tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("1000000 0\n")
    assert main(["check", str(path), "--k", "1", "--variant", "planar"]) == 1
    assert "above MAX_VERTICES = 100000" in capsys.readouterr().err


def test_generate_families(capsys, tmp_path):
    for argv, has_order in [
        (["generate", "--kind", "complete", "--n", "5"], False),
        (["generate", "--kind", "bipartite", "--p", "3", "--q", "4"], False),
        (["generate", "--kind", "grid", "--rows", "3", "--cols", "4"], False),
        (["generate", "--kind", "3tree", "--levels", "2"], False),
        (["generate", "--kind", "frame", "--n", "9", "--k", "3"], True),
        (["generate", "--kind", "random-okp", "--n", "11", "--k", "2", "--seed", "5"], True),
    ]:
        code, out = run(capsys, *argv)
        assert code == 0
        parse_instance(out)
        assert ("\norder\n" in out) == has_order
    code, out = run(capsys, "generate", "--kind", "complete", "--n", "4")
    assert parse_instance(out).graph.edges == complete(4).edges


def test_generate_out_writes_the_printed_bytes(capsys, tmp_path):
    argv = ["generate", "--kind", "grid", "--rows", "3", "--cols", "4"]
    code, printed = run(capsys, *argv)
    out = tmp_path / "grid.txt"
    assert run(capsys, *argv, "--out", str(out)) == (0, "")
    assert code == 0 and out.read_text() == printed


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


def test_recognize_timeout_keeps_the_report(capsys, k5):
    argv = ["recognize", "--k", "3", "--variant", "quasi", k5]
    plain = run(capsys, *argv)
    assert run(capsys, *argv, "--timeout", "60") == plain
    assert plain[0] == 0 and validated(plain[1], "recognize")["in_class"]


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


def test_recognize_emit_cnf_names_the_path_it_cannot_write(capsys, tmp_path):
    k4 = tmp_path / "k4.txt"
    k4.write_text(format_graph(complete(4)))
    cnf = tmp_path / "missing" / "enc.cnf"
    assert main(["recognize", "--k", "1", "--variant", "planar", "--emit-cnf", str(cnf), str(k4)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"cannot write DIMACS to {cnf}" in captured.err


def test_recognize_engines_agree_below_three_vertices(capsys, tmp_path):
    edge = tmp_path / "edge2.txt"
    edge.write_text(format_graph(build_graph(2, [(0, 1)])))
    for engine in ("sat", "brute"):
        code, out = run(capsys, "recognize", "--k", "0", "--variant", "planar", "--engine", engine, str(edge))
        doc = validated(out, "recognize")
        assert code == 0 and doc["in_class"] and doc["witness"]["order"] == [0, 1], engine


def test_recognize_emit_cnf_encodes_once(capsys, tmp_path, k5, monkeypatch):
    # the SAT engine solves the encoding it wrote to the DIMACS file
    import okplanar.sat

    calls = []
    real = okplanar.sat.encode

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(okplanar.sat, "encode", counting)
    for k, want in ((3, 0), (2, 2)):
        calls.clear()
        code, out = run(capsys, "recognize", "--k", str(k), "--variant", "quasi",
                        "--engine", "sat", "--emit-cnf", str(tmp_path / "enc.cnf"), k5)
        assert code == want and validated(out, "recognize")["emitted_cnf"]
        assert len(calls) == 1


def test_recognize_brute_emits_the_sat_encoding(capsys, tmp_path, k5, monkeypatch):
    import okplanar.sat

    # every encoding starts with the order axioms: count encodings there
    built = []
    real = okplanar.sat.encode_order_axioms

    def counting(n):
        built.append(n)
        return real(n)

    monkeypatch.setattr(okplanar.sat, "encode_order_axioms", counting)
    for variant in ("quasi", "closed-planar"):
        written = []
        for engine in ("sat", "brute"):
            cnf = tmp_path / f"{engine}.cnf"
            code, out = run(capsys, "recognize", "--k", "3", "--variant", variant,
                            "--engine", engine, "--emit-cnf", str(cnf), k5)
            assert validated(out, "recognize")["emitted_cnf"] == str(cnf)
            written.append(cnf.read_bytes())
        assert written[0] == written[1], variant
    built.clear()
    code, out = run(capsys, "recognize", "--k", "3", "--variant", "quasi",
                    "--engine", "brute", k5)
    assert code == 0 and validated(out, "recognize")["emitted_cnf"] is None
    assert built == []  # brute force without --emit-cnf builds no encoding
    # a refuted disconnected graph still gets its encoding, which is UNSAT
    disconnected = tmp_path / "disconnected.txt"
    disconnected.write_text(format_graph(build_graph(5, [(0, 1), (2, 3)])))
    cnf = tmp_path / "disconnected.cnf"
    code, out = run(capsys, "recognize", "--k", "1", "--variant", "closed-planar",
                    "--engine", "brute", "--emit-cnf", str(cnf), str(disconnected))
    doc = validated(out, "recognize")
    assert code == 2 and doc["emitted_cnf"] == str(cnf) and cnf.exists()
    assert run(capsys, "solve-cnf", str(cnf))[0] == 20


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
    path.write_text(format_drawing(parse_instance(format_graph(complete(6)))))
    code, out = run(capsys, "saturate", "--order", str(path), "--k", "2")
    doc = validated(out, "saturate")
    assert code == 2 and not doc["in_class"] and len(doc["witness_mutual"]) >= 2


def test_saturate_writes_an_empty_drawing_that_check_reads(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    code, _ = run(capsys, "saturate", "--n", "0", "--k", "3", "--write-drawing", str(path))
    assert code == 0
    code, out = run(capsys, "check", str(path), "--k", "3", "--variant", "quasi")
    assert code == 0 and validated(out, "check")["n"] == 0


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


def test_bounds_corpus_without_instances_exits_one(capsys, tmp_path):
    (tmp_path / "notes.md").write_text("no instances here\n")
    assert main(["bounds", "--k", "2", "--corpus", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"no *.txt instances under {tmp_path}" in captured.err


def test_bounds_corpus_names_the_file_it_cannot_parse(capsys, tmp_path):
    (tmp_path / "x.txt").write_text(format_drawing(random_outer_k_planar(8, 2, 1)))
    (tmp_path / "bad.txt").write_text("junk\n")
    assert main(["bounds", "--k", "2", "--corpus", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    bad = tmp_path / "bad.txt"
    assert captured.out == ""
    assert captured.err == f"error: {bad}: line 1: expected integers, got 'junk'\n"


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


@pytest.mark.parametrize("text", ["0 0\n", "1 0\n", "2 1\n0 1\n"])
def test_mso2_eval_refuses_fewer_than_three_vertices(capsys, tmp_path, text):
    small = tmp_path / "small.txt"
    small.write_text(text)
    assert main(["mso2", "--k", "1", "--variant", "closed-planar", "--eval", str(small)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "closed variants need n >= 3" in captured.err


# ------------------------------------------------------- errors and goldens


def test_usage_errors_exit_one(capsys, k5):
    cases = [
        ["check", "--k", "2", "--variant", "planar"],  # no input file
        ["check", k5, "--drawing", k5, "--k", "2", "--variant", "planar"],  # one input spelling
        ["check", "--k", "2", "--variant", "bogus", k5],
        ["check", "--k", "-1", "--variant", "planar", k5],
        ["check", "--k", "1", "--variant", "quasi", k5],  # quasi needs k >= 2
        ["recognize", "--k", "2", "--variant", "planar", "--engine", "sat", "/no/such/file"],
        ["generate", "--kind", "complete"],  # missing --n
        ["generate"],  # missing --kind
        ["generate", "--family", "complete", "--n", "5"],  # one spelling: --kind
        ["levels", "--k", "1", k5],
        ["saturate", "--k", "3"],  # neither --order nor --n
        ["saturate", "--order", k5, "--k", "3", "--n", "9"],  # --order fixes n
        ["saturate", "--order", k5, "--k", "3", "--seed", "4"],  # and the start
        ["recognize", "--k", "3", "--variant", "quasi", "--solver", "x", k5],  # no such option
        ["repro", "props", "--solver", "x"],  # neither command takes a solver
        ["frobnicate"],
        [],
    ]
    for argv in cases:
        assert main(argv) == 1, argv
        capsys.readouterr()


@pytest.mark.parametrize("argv, msg", [
    (["generate", "--kind", "grid", "--rows", "-1", "--cols", "-3"],
     "grid sides must be nonnegative, got -1 x -3"),
    (["generate", "--kind", "bipartite", "--p", "-1", "--q", "2"],
     "part sizes must be nonnegative, got -1 and 2"),
    (["separator", "K5", "--leaf-size", "4"], "--leaf-size needs --recursive"),
    (["recognize", "--k", "3", "--variant", "quasi", "--engine", "brute", "--timeout", "5", "K5"],
     "the brute engine takes none"),
])
def test_rejected_arguments_print_nothing_and_name_the_problem(capsys, k5, argv, msg):
    assert main([k5 if a == "K5" else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and msg in captured.err


@pytest.mark.parametrize("text, bad", [
    ("p cnf\n1 0\n", "line 1 is malformed: 'p cnf'"),
    ("c comment\np cnf 2 1\n1 x 0\n", "line 3 is malformed: '1 x 0'"),
])
def test_solve_cnf_names_the_malformed_line(capsys, tmp_path, text, bad):
    cnf = tmp_path / "bad.cnf"
    cnf.write_text(text)
    assert main(["solve-cnf", str(cnf)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: DIMACS {bad}\n"


def test_solve_cnf_normalizes_its_input(capsys, tmp_path):
    clauses = [[1, 1, -2], [3, -3], [-1], [2, -3]]
    cnf = tmp_path / "sat.cnf"
    cnf.write_text("p cnf 3 4\n1 1 -2 0\n3 -3 0\n-1 0\n2 -3\n")
    code, out = run(capsys, "solve-cnf", str(cnf))
    lines = out.splitlines()
    assert code == 10 and lines[0] == "s SATISFIABLE"
    model = {int(tok) for line in lines[1:] for tok in line.split()[1:]} - {0}
    assert sorted(map(abs, model)) == [1, 2, 3]
    assert all(any(lit in model for lit in c) for c in clauses)
    cnf.write_text("p cnf 1 2\n1 1 0\n-1 -1 0\n")
    assert run(capsys, "solve-cnf", str(cnf)) == (20, "s UNSATISFIABLE\n")
    cnf.write_text("p cnf 1 2\n1 0\n-1\n")  # UNSAT only if the last clause is read
    assert run(capsys, "solve-cnf", str(cnf))[0] == 20


def test_solve_cnf_wraps_long_model_lines(capsys, tmp_path):
    cnf = tmp_path / "free.cnf"
    cnf.write_text("p cnf 40 0\n")
    code, out = run(capsys, "solve-cnf", str(cnf))
    lines = out.splitlines()
    assert code == 10 and lines[0] == "s SATISFIABLE" and len(lines) > 2
    assert all(line.startswith("v ") for line in lines[1:]) and lines[-1].endswith(" 0")
    assert all(len(line) <= 76 for line in lines[1:-1])
    lits = [int(tok) for line in lines[1:] for tok in line.split()[1:]]
    assert lits[-1] == 0 and sorted(map(abs, lits[:-1])) == list(range(1, 41))


def test_error_without_text_names_the_exception(capsys, monkeypatch):
    # the parser is built once per process and holds the cmd_* functions, so
    # patch a function the command imports when it runs
    import okplanar.bounds

    def exhausted(k):
        raise MemoryError()

    monkeypatch.setattr(okplanar.bounds, "outer_k_planar_degeneracy_bound", exhausted)
    assert main(["bounds", "--k", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: MemoryError\n"


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command", ["recognize", "solve-cnf"])
def test_timeout_must_be_positive(capsys, tmp_path, k5, command, value):
    cnf = tmp_path / "one.cnf"
    cnf.write_text("p cnf 1 1\n1 0\n")
    argv = {
        "recognize": ["recognize", "--k", "3", "--variant", "quasi", k5],
        "solve-cnf": ["solve-cnf", str(cnf)],
    }[command]
    assert main(argv + ["--timeout", value]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--timeout" in captured.err


def test_repro_fails_when_a_row_that_is_not_definition_sensitive_misses(capsys, monkeypatch):
    import okplanar.cli

    monkeypatch.setattr(okplanar.cli, "_PROP_ROWS", (("K6", lambda: complete(6), True, False),))
    code, out = run(capsys, "repro", "props")
    doc = validated(out, "repro")
    assert code == 1 and not doc["pass"] and not doc["rows"][0]["pass"]


def test_broken_pipe_exits_one_without_a_message(capsys, monkeypatch):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["bounds", "--k", "3"]) == 1
    monkeypatch.undo()
    assert capsys.readouterr().err == ""


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
        ["generate", "--kind", "frame", "--n", "8", "--k", "2"],
    ]
    for argv in argvs:
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second, argv


def test_one_parser_per_process_prints_what_lone_runs_print(capsys, tmp_path):
    """main builds its parser once; a usage error and then two saturate runs
    that differ only in --seed each print the bytes a fresh process prints."""
    import okplanar.cli

    src = Path(okplanar.cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    argvs = [
        ["saturate", "--n", "6", "--k", "x"],
        ["saturate", "--n", "6", "--k", "3", "--seed", "1"],
        ["saturate", "--n", "6", "--k", "3"],
    ]
    for argv, code in zip(argvs, (1, 0, 0)):
        lone = subprocess.run([sys.executable, "-m", "okplanar.cli", *argv], env=env,
                              cwd=tmp_path, capture_output=True, text=True)
        assert main(argv) == lone.returncode == code, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (lone.stdout, lone.stderr), argv
    assert okplanar.cli._parser is not None
