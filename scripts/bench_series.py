"""Time the SAT setup layers of recognize: encode, solver construction, solve.

Usage, from the root of a checkout:

    python3 scripts/bench_series.py --label change
    python3 scripts/bench_series.py --label parent --src OTHER_CHECKOUT/src

Imports okplanar from --src (default: this checkout's src/), runs each
instance REPEATS times and merges one entry under --label into
BENCH_sat_setup.json at the root of this checkout, keeping the entries of
other labels. Each repeat encodes afresh, because the solver adopts the
encoding's clause lists and its search reorders the literals within them.
Per instance it records
the clause count, the median seconds of encode, of CdclSolver construction
and of solve, the verdict, and the tracemalloc peak of encode plus
construction, taken in one more untimed pass. Stdlib only.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "BENCH_sat_setup.json")
REPEATS = 5

# (name, generator call, k, variant)
INSTANCES = [
    ("3tree-3 quasi k=3", ("planar_3tree_levels", 3), 3, "outer-quasi"),
    ("3tree-4 quasi k=3", ("planar_3tree_levels", 4), 3, "outer-quasi"),
    ("grid 5x7 planar k=2", ("grid", 5, 7), 2, "outer-planar"),
    ("grid 5x7 closed-planar k=2", ("grid", 5, 7), 2, "closed-outer-planar"),
]


def measure(generators, sat, cdcl, spec, k, variant):
    g = getattr(generators, spec[0])(*spec[1:])
    encode_s, init_s, solve_s, verdicts = [], [], [], set()
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        cnf, _ = sat.encode(g, k, variant)
        t1 = time.perf_counter()
        solver = cdcl.CdclSolver(cnf.num_vars, cnf.clauses)
        t2 = time.perf_counter()
        model = solver.solve()
        t3 = time.perf_counter()
        encode_s.append(t1 - t0)
        init_s.append(t2 - t1)
        solve_s.append(t3 - t2)
        verdicts.add("UNSAT" if model is None else "SAT")
        clauses = len(cnf.clauses)
        del cnf, solver, model
    tracemalloc.start()
    cnf, _ = sat.encode(g, k, variant)
    solver = cdcl.CdclSolver(cnf.num_vars, cnf.clauses)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    del cnf, solver
    if len(verdicts) != 1:
        raise SystemExit(f"verdict changed between repeats: {sorted(verdicts)}")
    return {
        "clauses": clauses,
        "verdict": verdicts.pop(),
        "encode_s": round(statistics.median(encode_s), 4),
        "init_s": round(statistics.median(init_s), 4),
        "solve_s": round(statistics.median(solve_s), 4),
        "setup_peak_mib": round(peak / 2**20, 1),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--label", required=True, help="entry name, such as parent or change")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory holding okplanar")
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from okplanar import cdcl, generators, sat

    rows = []
    for name, spec, k, variant in INSTANCES:
        row = {"instance": name, **measure(generators, sat, cdcl, spec, k, variant)}
        print(json.dumps(row), flush=True)
        rows.append(row)
    doc = {}
    if os.path.exists(OUT):
        with open(OUT) as fh:
            doc = json.load(fh)
    doc.setdefault("runs", {})[args.label] = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "repeats": REPEATS,
        "instances": rows,
    }
    with open(OUT, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
