"""Byte-for-byte golden reports: every subcommand on fixed inputs.

Each case runs the command line in-process from a scratch directory that
holds a copy of tests/golden/inputs, so every path a report mentions is
relative and stable. Its stdout must equal tests/golden/<case>.out byte for
byte, its exit code must match, and every side file it writes (SVG, DIMACS,
drawing) must equal tests/golden/<side file>. `test_reports_are_byte_stable`
only compares two runs of one checkout; these files pin the bytes across
changes to the code. Every JSON golden must also validate against its
command's schema in src/okplanar/schemas.

After an intended change to report bytes, rewrite the goldens with
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

from okplanar.cli import main

from oracles import schema_path

GOLDEN = Path(__file__).parent / "golden"

# (case name, argv, exit code); side files are named after their case
CASES = [
    # check: every variant name, a reversed and a shuffled order, SVGs
    ("check-k5-planar", ["check", "inputs/k5.txt", "--k", "2", "--variant", "planar"], 0),
    ("check-k5-planar-no", ["check", "inputs/k5.txt", "--k", "1", "--variant", "outer-planar"], 2),
    ("check-k5-quasi", ["check", "inputs/k5.txt", "--k", "3", "--variant", "quasi"], 0),
    ("check-k5-outer-quasi", ["check", "inputs/k5.txt", "--k", "2", "--variant", "outer-quasi"], 2),
    ("check-k5-outer-quasi-planar",
     ["check", "inputs/k5.txt", "--k", "3", "--variant", "outer-quasi-planar"], 0),
    ("check-k5-closed-planar",
     ["check", "inputs/k5.txt", "--k", "2", "--variant", "closed-planar"], 0),
    ("check-k5-closed-outer-planar",
     ["check", "inputs/k5.txt", "--k", "1", "--variant", "closed-outer-planar"], 2),
    ("check-k5-closed-quasi",
     ["check", "inputs/k5.txt", "--k", "3", "--variant", "closed-quasi"], 0),
    ("check-k5-closed-outer-quasi",
     ["check", "inputs/k5.txt", "--k", "3", "--variant", "closed-outer-quasi"], 0),
    ("check-k5-closed-outer-quasi-planar",
     ["check", "inputs/k5.txt", "--k", "2", "--variant", "closed-outer-quasi-planar"], 2),
    ("check-p4-closed-planar",
     ["check", "inputs/p4.txt", "--k", "2", "--variant", "closed-planar"], 2),
    ("check-c5-reversed", ["check", "inputs/c5-reversed.txt", "--k", "0", "--variant", "closed-planar"], 0),
    ("check-dense20", ["check", "inputs/dense20.txt", "--k", "5", "--variant", "quasi",
                       "--svg", "check-dense20.svg"], 2),
    ("check-okp30", ["check", "inputs/okp30.txt", "--k", "2", "--variant", "planar",
                     "--svg", "check-okp30.svg"], 0),
    # n < 3: open variants report closed false, closed ones are an error
    ("check-edge2-planar", ["check", "inputs/edge2.txt", "--k", "0", "--variant", "planar"], 0),
    ("check-edge2-closed-planar",
     ["check", "inputs/edge2.txt", "--k", "0", "--variant", "closed-planar"], 1),
    # recognize: both engines on every canonical variant, YES and NO
    ("recognize-sat-planar-k4", ["recognize", "inputs/k4.txt", "--k", "1", "--variant", "planar"], 0),
    ("recognize-brute-planar-k4",
     ["recognize", "inputs/k4.txt", "--k", "1", "--variant", "planar", "--engine", "brute"], 0),
    ("recognize-sat-planar-k5-no", ["recognize", "inputs/k5.txt", "--k", "1", "--variant", "planar"], 2),
    ("recognize-brute-planar-k5-no",
     ["recognize", "inputs/k5.txt", "--k", "1", "--variant", "planar", "--engine", "brute"], 2),
    ("recognize-sat-quasi-k5", ["recognize", "inputs/k5.txt", "--k", "3", "--variant", "quasi"], 0),
    ("recognize-brute-quasi-k5",
     ["recognize", "inputs/k5.txt", "--k", "3", "--variant", "quasi", "--engine", "brute"], 0),
    ("recognize-sat-quasi-k6-no", ["recognize", "inputs/k6.txt", "--k", "3", "--variant", "quasi"], 2),
    ("recognize-brute-quasi-k6-no",
     ["recognize", "inputs/k6.txt", "--k", "3", "--variant", "quasi", "--engine", "brute"], 2),
    ("recognize-sat-closed-planar-grid33",
     ["recognize", "inputs/grid33.txt", "--k", "2", "--variant", "closed-planar"], 2),
    ("recognize-brute-closed-planar-grid33",
     ["recognize", "inputs/grid33.txt", "--k", "2", "--variant", "closed-planar",
      "--engine", "brute"], 2),
    ("recognize-sat-closed-quasi-k5",
     ["recognize", "inputs/k5.txt", "--k", "3", "--variant", "closed-quasi"], 0),
    ("recognize-brute-closed-quasi-k5",
     ["recognize", "inputs/k5.txt", "--k", "3", "--variant", "closed-quasi",
      "--engine", "brute"], 0),
    # the paper's 3-tree that is not outer 3-quasi-planar is outer 4-quasi-planar
    ("recognize-sat-quasi-3tree4-k4",
     ["recognize", "inputs/3tree4.txt", "--k", "4", "--variant", "quasi"], 0),
    # NO answered by a refutation certificate before any search, one per
    # kind: the degeneracy and edge-count kinds are the k5 and k6 NOs above
    ("recognize-sat-closed-planar-disconnected",
     ["recognize", "inputs/disconnected5.txt", "--k", "1", "--variant", "closed-planar"], 2),
    ("recognize-brute-closed-quasi-cut-vertex",
     ["recognize", "inputs/bowtie5.txt", "--k", "2", "--variant", "closed-quasi",
      "--engine", "brute"], 2),
    # --emit-cnf: the DIMACS of each encoder, and a refuted NO's UNSAT encoding
    ("recognize-emit-planar-k4",
     ["recognize", "inputs/k4.txt", "--k", "1", "--variant", "outer-planar",
      "--emit-cnf", "recognize-emit-planar-k4.cnf"], 0),
    ("recognize-emit-quasi-k5",
     ["recognize", "inputs/k5.txt", "--k", "3", "--variant", "outer-quasi",
      "--emit-cnf", "recognize-emit-quasi-k5.cnf"], 0),
    ("recognize-emit-closed-planar-k4",
     ["recognize", "inputs/k4.txt", "--k", "1", "--variant", "closed-outer-planar",
      "--emit-cnf", "recognize-emit-closed-planar-k4.cnf"], 0),
    ("recognize-emit-closed-quasi-k5",
     ["recognize", "inputs/k5.txt", "--k", "2", "--variant", "closed-outer-quasi",
      "--emit-cnf", "recognize-emit-closed-quasi-k5.cnf"], 2),
    ("recognize-emit-disconnected",
     ["recognize", "inputs/disconnected5.txt", "--k", "1", "--variant", "closed-planar",
      "--emit-cnf", "recognize-emit-disconnected.cnf"], 2),
    # separator: every case tag, flat and recursive
    ("separator-trivial-small", ["separator", "inputs/k4.txt"], 0),
    ("separator-cutting-edge", ["separator", "inputs/sep-cutting-edge.txt"], 0),
    ("separator-mutually-crossing", ["separator", "inputs/sep-mutually-crossing.txt"], 0),
    ("separator-single-crossing-edge", ["separator", "inputs/sep-single-crossing-edge.txt"], 0),
    ("separator-case1", ["separator", "inputs/sep-case1.txt"], 0),
    ("separator-case1-prime", ["separator", "inputs/sep-case1-prime.txt"], 0),
    ("separator-case2-distinct", ["separator", "inputs/sep-case2-distinct.txt"], 0),
    ("separator-case2-shared", ["separator", "inputs/sep-case2-shared.txt"], 0),
    ("separator-okp30", ["separator", "inputs/okp30.txt"], 0),
    ("separator-dense20", ["separator", "inputs/dense20.txt"], 0),
    ("separator-recursive-okp30", ["separator", "inputs/okp30.txt", "--recursive"], 0),
    ("separator-recursive-leaf9-okp30",
     ["separator", "inputs/okp30.txt", "--recursive", "--leaf-size", "9"], 0),
    ("separator-recursive-case2-shared",
     ["separator", "inputs/sep-case2-shared.txt", "--recursive", "--leaf-size", "4"], 0),
    # levels: a long edge with SVG, no long edge, and not in class
    ("levels-saturated12",
     ["levels", "inputs/saturated12.txt", "--k", "3", "--svg", "levels-saturated12.svg"], 0),
    ("levels-okp30", ["levels", "inputs/okp30.txt", "--k", "4"], 0),
    ("levels-k5-no-long-edge", ["levels", "inputs/k5.txt", "--k", "3"], 0),
    ("levels-k4-not-in-class", ["levels", "inputs/k4.txt", "--k", "2"], 2),
    # saturate: seeded, empty, from a file, and not in class
    ("saturate-seeded", ["saturate", "--n", "10", "--k", "3", "--seed", "4",
                         "--write-drawing", "saturate-seeded.txt"], 0),
    ("saturate-empty", ["saturate", "--n", "8", "--k", "2"], 0),
    ("saturate-file", ["saturate", "--order", "inputs/okp30.txt", "--k", "4"], 0),
    ("saturate-k6-not-in-class", ["saturate", "--order", "inputs/k6.txt", "--k", "2"], 2),
    # generate: every family
    ("generate-complete", ["generate", "--kind", "complete", "--n", "5"], 0),
    ("generate-bipartite", ["generate", "--kind", "bipartite", "--p", "3", "--q", "4"], 0),
    ("generate-grid", ["generate", "--kind", "grid", "--rows", "3", "--cols", "4"], 0),
    ("generate-3tree", ["generate", "--kind", "3tree", "--levels", "2"], 0),
    ("generate-frame", ["generate", "--kind", "frame", "--n", "9", "--k", "3"], 0),
    ("generate-random-okp",
     ["generate", "--kind", "random-okp", "--n", "11", "--k", "2", "--seed", "5"], 0),
    # bounds: per k, a corpus in bounds, a corpus that breaks them
    ("bounds-k3", ["bounds", "--k", "3"], 0),
    ("bounds-corpus", ["bounds", "--k", "2", "--corpus", "inputs/corpus"], 0),
    ("bounds-corpus-violation", ["bounds", "--k", "0", "--corpus", "inputs/corpus"], 2),
    # mso2: emission for an open name, evaluation true and false
    ("mso2-quasi", ["mso2", "--k", "2", "--variant", "quasi"], 0),
    ("mso2-closed-planar-c5",
     ["mso2", "--k", "1", "--variant", "closed-planar", "--eval", "inputs/c5-reversed.txt"], 0),
    ("mso2-closed-quasi-k4",
     ["mso2", "--k", "2", "--variant", "closed-outer-quasi-planar", "--eval", "inputs/k4.txt"], 2),
    # repro and solve-cnf
    ("repro-props", ["repro", "props"], 0),
    ("solve-cnf-sat", ["solve-cnf", str(GOLDEN / "recognize-emit-closed-planar-k4.cnf")], 10),
    ("solve-cnf-unsat", ["solve-cnf", str(GOLDEN / "recognize-emit-closed-quasi-k5.cnf")], 20),
]


def side_files(name: str, argv: list[str]) -> list[str]:
    return [a for a in argv if Path(a).stem == name and not a.startswith("inputs/")]


def run_case(name: str, argv: list[str], workdir: Path) -> tuple[int, str, dict[str, str]]:
    """Exit code, stdout and side files of one case run inside workdir."""
    shutil.copytree(GOLDEN / "inputs", workdir / "inputs")
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    sides = {}
    for f in side_files(name, argv):
        path = workdir / f
        sides[f] = path.read_text() if path.exists() else None
    return code, out.getvalue(), sides


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden(name, argv, code, tmp_path):
    got_code, stdout, sides = run_case(name, argv, tmp_path)
    assert got_code == code
    assert stdout == (GOLDEN / f"{name}.out").read_text()
    for f, text in sides.items():
        golden = GOLDEN / f
        assert text == (golden.read_text() if golden.exists() else None), f


# every case that prints a JSON report: its command has a schema, and it
# does not fail with exit 1 (which prints nothing on stdout)
JSON_CASES = [c for c in CASES if schema_path(c[1][0]).exists() and c[2] != 1]


@pytest.mark.parametrize("name,argv,code", JSON_CASES, ids=[c[0] for c in JSON_CASES])
def test_golden_report_matches_its_schema(name, argv, code):
    jsonschema = pytest.importorskip("jsonschema")
    with open(schema_path(argv[0])) as fh:
        schema = json.load(fh)
    jsonschema.validate(json.loads((GOLDEN / f"{name}.out").read_text()), schema)


def regenerate() -> None:
    import tempfile

    for name, argv, code in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            got_code, stdout, sides = run_case(name, argv, Path(tmp))
        if got_code != code:
            print(f"{name}: exit {got_code}, expected {code}", file=sys.stderr)
        (GOLDEN / f"{name}.out").write_text(stdout)
        for f, text in sides.items():
            if text is not None:
                (GOLDEN / f).write_text(text)


if __name__ == "__main__":
    regenerate()
