"""Time layers of okplanar on fixed instance series.

Usage, from the root of a checkout:

    python3 scripts/bench_series.py --series sat_setup --label change
    python3 scripts/bench_series.py --series maximal --label parent --src OTHER_CHECKOUT/src
    python3 scripts/bench_series.py --series mso2 --label change
    python3 scripts/bench_series.py --series emit --label parent --src OTHER_CHECKOUT/src
    python3 scripts/bench_series.py --series read --label change
    python3 scripts/bench_series.py --series setup --label parent --src OTHER_CHECKOUT/src
    python3 scripts/bench_series.py --series scale --label change

Imports okplanar from --src (default: this checkout's src/), runs each
instance REPEATS times and merges one entry under --label into the series'
BENCH_<series>.json at the root of this checkout, keeping the entries of
other labels. Stdlib only.

sat_setup: the SAT setup layers of recognize, built as sat.search_order
builds them: the solve-path encoding, without the order-transitivity block
and the legend, and a CdclSolver with OrderAxioms and, where the encoder
hands it the cap block, MutualCrossingCap. A checkout without OrderAxioms
runs its own path: the explicit order block, with MutualCrossingCap where
it has one, else the explicit formula. Each repeat encodes afresh, because
the solver adopts the encoding's clause lists and its search reorders the
literals within them. Per instance it records the clause count of the
DIMACS header, from one more untimed explicit encode (null where that
formula is refused over CLAUSE_CAP), the median seconds of encode, of
construction and of solve, the verdict, the tracemalloc peak of encode
plus construction, and the tracemalloc peak of encode, construction and
solve, each taken in one more untimed pass. Writing the entry fails when
another label's verdicts or clause counts differ.

maximal: saturate and then is_maximal, from an empty start with n doubling
at k = 3 and k = 6, plus one seeded start. Per instance it records the
median seconds of each step, next to the final edge count, and the calls
each step makes to the chord kernel's two mutual-crossing queries,
ChordSet.mutual_through and ChordSet.mutual_size. Those are counted in one
more untimed pass with both methods wrapped; the timed repeats run them
unwrapped.

mso2: evaluate_formula for the mso2 workload's five closed classes, each on
one seeded graph with a planted spanning cycle per m from 4 to 10, on
min(m, 7) vertices. Per instance it records the verdict; compile_s, the
median seconds of lint, normal form and compile, cold, as a one-shot
process pays them; evaluate_s, the median seconds of evaluate_formula after
one untimed call, which the evaluator serves warm from the program it
keeps (lint runs in both); and the entries into compiled element and set quantifiers, counted
in one more untimed pass that compiles afresh with _Compiled's two
quantifier builders wrapped. Writing the entry fails when another label's
verdicts differ.

emit: emit_formula for closed-planar k in {24, 48, 96, 191, 193} and
closed-quasi k in {8, 16, 32}; 193 and 32 are the largest k under
FORMULA_NODE_CAP, and 191 the largest planar k under EVAL_MAX_DEPTH. Per
instance it records the node count, the bytes and SHA-256 of the sexpr
text, the median seconds of emit_formula, the median wall seconds of a
fresh `python3 -m okplanar.cli mso2` process that prints the formula, and
cold_eval_s, the median seconds of a cold evaluate_formula on the 4-cycle
(null where the evaluator refuses the formula). Writing the entry fails
when another label's SHA-256 differs.

read: read_instance on the drawings workload's sparse corpus at seed 1,
random_outer_k_planar(n, k, 1) for n in {60, 120, 240, 480} and k in
{1, 3}, written with format_drawing to a temporary directory. Per file it
records n, m, the file's bytes, the median seconds of reading the file into
a drawing over READ_REPEATS reads, and the SHA-256 of format_drawing
applied to what was read.
Writing the entry fails when another label's SHA-256 differs.

setup: the benchmark's setup probe (PROBE in perfbench/run.py: import
okplanar.cli and build the parser) in SETUP_RUNS fresh
`python3 -X importtime` processes after one warm-up, with PYTHONPATH set to
--src, PYTHONHASHSEED=0 and PYTHONDONTWRITEBYTECODE=1, so a run reads the
__pycache__ the source tree already has and writes none. It records the
median seconds the probe prints and the median self-import microseconds of
each okplanar module. Writing the entry fails when another label's list of
loaded okplanar modules differs.

scale: the three paths whose memory or time follows the chord count, n
doubling:
random_outer_k_planar(n, 1, 1) for n in {480, 960, 1920}, saturate from
the empty drawing at k = 3 for n in {250, 500, 1000}, and
recursive_decompose with leaf size 5 for n in {480, 960, 1920, 3840} on
banded_drawing(n), a seeded outer 1-planar drawing built in this script
from chords of circular length at most 8, so that no label builds all
C(n, 2) chords to get its input. Per instance it records the median seconds
of the call, its tracemalloc peak, taken in one more untimed pass, and the
SHA-256 of its output: format_drawing of the drawing, or the JSON of the
separator tree. Writing the entry fails when another label's SHA-256
differs.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEATS = 5

# (name, generator call, k, variant)
SAT_INSTANCES = [
    ("3tree-3 quasi k=3", ("planar_3tree_levels", 3), 3, "outer-quasi"),
    ("3tree-4 quasi k=3", ("planar_3tree_levels", 4), 3, "outer-quasi"),
    ("3tree-4 quasi k=4", ("planar_3tree_levels", 4), 4, "outer-quasi"),
    ("grid 5x7 planar k=2", ("grid", 5, 7), 2, "outer-planar"),
    ("grid 5x7 closed-planar k=2", ("grid", 5, 7), 2, "closed-outer-planar"),
]

# (n, k, seed of a random_outer_k_planar(n, k - 2) start, None for empty)
MAXIMAL_INSTANCES = [(n, k, None) for k in (3, 6) for n in (40, 80, 160)] + [(160, 4, 1)]

MSO2_CLASSES = (("closed-planar", 1), ("closed-planar", 2), ("closed-planar", 3),
                ("closed-quasi", 2), ("closed-quasi", 3))
MSO2_SIZES = [(min(m, 7), m) for m in range(4, 11)]

READ_INSTANCES = [(n, k) for k in (1, 3) for n in (60, 120, 240, 480)]
READ_REPEATS = 50  # one read takes 0.1-3 ms, where five repeats leave the median to scheduler noise

SETUP_RUNS = 31  # one probe takes a few ms, so one slow process start shifts a short series

EMIT_CLASSES = [("closed-planar", k) for k in (24, 48, 96, 191, 193)] + [("closed-quasi", k) for k in (8, 16, 32)]


def sat_setup_row(spec, k, variant):
    from okplanar import cdcl, generators, sat

    g = getattr(generators, spec[0])(*spec[1:])
    native = hasattr(sat, "MutualCrossingCap")
    native_order = hasattr(sat, "OrderAxioms")
    try:
        clauses = len(sat.encode(g, k, variant)[0].clauses)
    except sat.EncodingTooLarge:
        clauses = None

    def encode():
        if native_order:
            return sat.encode(g, k, variant, explicit=False)
        return sat.encode(g, k, variant, explicit_cap=False) if native else sat.encode(g, k, variant)

    def build(cnf, vm):
        cap = None
        if native and vm.cap_block is not None:
            cap = sat.MutualCrossingCap(g.edges, k, vm.neg_cross)
        if native_order:
            solver = cdcl.CdclSolver(cnf.num_vars, cnf.clauses, sat.OrderAxioms(vm.not_before), cap)
            cnf.clauses = []  # as search_order lets go of them
            return solver
        return cdcl.CdclSolver(cnf.num_vars, cnf.clauses, cap)

    encode_s, init_s, solve_s, verdicts = [], [], [], set()
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        cnf, vm = encode()
        t1 = time.perf_counter()
        solver = build(cnf, vm)
        t2 = time.perf_counter()
        model = solver.solve()
        t3 = time.perf_counter()
        encode_s.append(t1 - t0)
        init_s.append(t2 - t1)
        solve_s.append(t3 - t2)
        verdicts.add("UNSAT" if model is None else "SAT")
        del cnf, vm, solver, model
    tracemalloc.start()
    cnf, vm = encode()
    solver = build(cnf, vm)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    del cnf, vm, solver
    tracemalloc.start()
    cnf, vm = encode()
    build(cnf, vm).solve()
    solve_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    del cnf, vm
    if len(verdicts) != 1:
        raise SystemExit(f"verdict changed between repeats: {sorted(verdicts)}")
    return {
        "clauses": clauses,
        "verdict": verdicts.pop(),
        "encode_s": round(statistics.median(encode_s), 4),
        "init_s": round(statistics.median(init_s), 4),
        "solve_s": round(statistics.median(solve_s), 4),
        "setup_peak_mib": round(peak / 2**20, 1),
        "solve_peak_mib": round(solve_peak / 2**20, 1),
    }


def counted_queries(step, *args) -> dict:
    """Run step(*args) once with the chord kernel's mutual-crossing queries
    wrapped; returns the calls of each query."""
    from okplanar.drawing import ChordSet

    calls = dict.fromkeys(("mutual_through", "mutual_size"), 0)
    plain = {name: getattr(ChordSet, name) for name in calls}

    def wrap(name):
        def counted(self, *a):
            calls[name] += 1
            return plain[name](self, *a)
        return counted

    for name in calls:
        setattr(ChordSet, name, wrap(name))
    try:
        step(*args)
        return calls
    finally:
        for name, method in plain.items():
            setattr(ChordSet, name, method)


def maximal_row(n, k, seed):
    from okplanar.drawing import identity_drawing
    from okplanar.generators import random_outer_k_planar
    from okplanar.graphs import build_graph
    from okplanar.maximal import is_maximal, saturate

    if seed is None:
        start = identity_drawing(build_graph(n, []))
    else:
        start = random_outer_k_planar(n, k - 2, seed)
    saturate_s, is_maximal_s = [], []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        full = saturate(start, k)
        t1 = time.perf_counter()
        maximal = is_maximal(full, k)
        t2 = time.perf_counter()
        if not maximal:
            raise SystemExit(f"saturate(n={n}, k={k}) is not maximal")
        saturate_s.append(t1 - t0)
        is_maximal_s.append(t2 - t1)
    return {
        "start_edges": start.graph.m,
        "final_edges": full.graph.m,
        "saturate_queries": counted_queries(saturate, start, k),
        "is_maximal_queries": counted_queries(is_maximal, full, k),
        "saturate_s": round(statistics.median(saturate_s), 4),
        "is_maximal_s": round(statistics.median(is_maximal_s), 4),
    }


def hamiltonian_graph(n: int, m: int):
    """A graph on n vertices and m edges: a spanning cycle through a seeded
    random order plus m - n seeded chords."""
    from okplanar.graphs import build_graph

    rng = random.Random(m)
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[(i + 1) % n]))) for i in range(n)}
    rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    return build_graph(n, sorted(edges | set(rng.sample(rest, m - n))))


def forget_programs() -> None:
    """Drop the compiled programs the evaluator keeps, so the next call
    compiles afresh."""
    from okplanar import mso2

    mso2._program.cache_clear()


def compile_seconds(formula) -> float:
    """Seconds of lint, normal form and compile of formula, cold."""
    from okplanar import mso2

    forget_programs()
    t0 = time.perf_counter()
    mso2.lint_formula(formula.ast)
    mso2._program(formula.ast)
    return time.perf_counter() - t0


def cold_evaluate_seconds(formula, g) -> float:
    """Seconds of one evaluate_formula of formula on g, compiled afresh."""
    from okplanar.mso2 import evaluate_formula

    forget_programs()
    t0 = time.perf_counter()
    evaluate_formula(formula, g)
    return time.perf_counter() - t0


def counted_entries(formula, g) -> dict:
    """Evaluate formula on g once, compiled afresh with every compiled
    quantifier wrapped; returns the entries of each kind."""
    from okplanar.mso2 import _Compiled, evaluate_formula

    calls = dict.fromkeys(("element", "set"), 0)
    plain = {kind: getattr(_Compiled, f"_{kind}_quantifier") for kind in calls}

    def wrap(kind):
        def build(self, node, scope):
            ev = plain[kind](self, node, scope)

            def counted(env):
                calls[kind] += 1
                return ev(env)
            return counted
        return build

    for kind in calls:
        setattr(_Compiled, f"_{kind}_quantifier", wrap(kind))
    forget_programs()
    try:
        evaluate_formula(formula, g)
        return calls
    finally:
        forget_programs()  # no later call may run the wrapped program
        for kind, method in plain.items():
            setattr(_Compiled, f"_{kind}_quantifier", method)


def mso2_row(variant, k, n, m):
    from okplanar.mso2 import emit_formula, evaluate_formula

    formula, g = emit_formula(k, variant), hamiltonian_graph(n, m)
    compile_s = [compile_seconds(formula) for _ in range(REPEATS)]
    seconds, verdicts = [], {evaluate_formula(formula, g)}
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        verdicts.add(evaluate_formula(formula, g))
        seconds.append(time.perf_counter() - t0)
    if len(verdicts) != 1:
        raise SystemExit(f"verdict changed between repeats: {sorted(verdicts)}")
    return {
        "verdict": verdicts.pop(),
        "compile_s": round(statistics.median(compile_s), 4),
        "evaluate_s": round(statistics.median(seconds), 4),
        "quantifier_entries": counted_entries(formula, g),
    }


def mso2_rows():
    for variant, k in MSO2_CLASSES:
        for n, m in MSO2_SIZES:
            yield {"instance": f"{variant} k={k} n={n} m={m}", **mso2_row(variant, k, n, m)}


def emit_row(variant, k):
    import okplanar
    from okplanar.graphs import build_graph
    from okplanar.mso2 import _formula_nodes, emit_formula

    seconds, cli_seconds = [], []
    argv = [sys.executable, "-m", "okplanar.cli", "mso2", "--k", str(k), "--variant", variant]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(okplanar.__file__))}
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        f = emit_formula(k, variant)
        seconds.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, check=True)
        cli_seconds.append(time.perf_counter() - t0)
    text = f.sexpr.encode()
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    try:
        cold_eval_s = round(statistics.median(cold_evaluate_seconds(f, c4) for _ in range(REPEATS)), 4)
    except ValueError:  # refused, too deep for the evaluator
        cold_eval_s = None
    return {
        "nodes": _formula_nodes(k, f.variant),
        "sexpr_bytes": len(text),
        "sexpr_sha256": hashlib.sha256(text).hexdigest(),
        "emit_s": round(statistics.median(seconds), 4),
        "cli_s": round(statistics.median(cli_seconds), 4),
        "cold_eval_s": cold_eval_s,
    }


def emit_rows():
    for variant, k in EMIT_CLASSES:
        yield {"instance": f"{variant} k={k}", **emit_row(variant, k)}


def read_row(n, k):
    from okplanar import io
    from okplanar.generators import random_outer_k_planar

    text = io.format_drawing(random_outer_k_planar(n, k, 1))
    seconds = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"okp-{n}-{k}.txt")
        with open(path, "w") as fh:
            fh.write(text)
        for _ in range(READ_REPEATS):
            t0 = time.perf_counter()
            d = io.read_instance(path)
            seconds.append(time.perf_counter() - t0)
    return {
        "n": d.n,
        "m": d.graph.m,
        "bytes": len(text.encode()),
        "read_s": round(statistics.median(seconds), 6),
        "drawing_sha256": hashlib.sha256(io.format_drawing(d).encode()).hexdigest(),
    }


def read_rows():
    for n, k in READ_INSTANCES:
        yield {"instance": f"okp-{n}-{k}", **read_row(n, k)}


def setup_rows():
    import okplanar

    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(ROOT, "perfbench", "run.py"))
    bench_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_run)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(okplanar.__file__)),
           "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}
    seconds, self_us = [], {}
    for i in range(SETUP_RUNS + 1):
        out = subprocess.run([sys.executable, "-X", "importtime", "-c", bench_run.PROBE], env=env,
                             capture_output=True, text=True, check=True)
        if not i:
            continue  # warm-up
        seconds.append(float(out.stdout))
        # stderr lines read "import time: <self us> | <cumulative us> | <module>"
        for line in out.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip().startswith("okplanar"):
                us = fields[0].rsplit(":", 1)[1]
                self_us.setdefault(fields[2].strip(), []).append(int(us))
    if any(len(runs) != SETUP_RUNS for runs in self_us.values()):
        raise SystemExit(f"loaded modules changed between runs: {sorted(self_us)}")
    yield {
        "instance": "import okplanar.cli; build_parser()",
        "modules": sorted(self_us),
        "probe_s": round(statistics.median(seconds), 5),
        "self_us": {name: statistics.median(runs) for name, runs in sorted(self_us.items())},
    }


def banded_drawing(n: int, k: int = 1, seed: int = 1):
    """Seeded outer k-planar drawing on n vertices: the greedy pass of
    random_outer_k_planar over the shuffled chords of circular length at
    most 8, in a shuffled circular order."""
    from okplanar.drawing import ChordSet, make_drawing
    from okplanar.graphs import build_graph

    rng = random.Random(seed)
    chords = sorted({tuple(sorted((p, (p + step) % n))) for p in range(n) for step in range(1, 9)})
    rng.shuffle(chords)
    cs, at_cap = ChordSet(n), 0  # mask of chords already crossed k times
    for p, q in chords:
        cm = cs.crossers(p, q)
        if cm.bit_count() > k or cm & at_cap:
            continue
        idx, _ = cs.add(p, q)
        cm |= 1 << idx
        while cm:
            j = cm.bit_length() - 1
            cm ^= 1 << j
            if cs.counts[j] == k:
                at_cap |= 1 << j
    order = list(range(n))
    rng.shuffle(order)
    return make_drawing(build_graph(n, [(order[p], order[q]) for p, q in cs.chords]), order)


def scale_row(name, n):
    from okplanar.drawing import identity_drawing
    from okplanar.generators import random_outer_k_planar
    from okplanar.graphs import build_graph
    from okplanar.io import format_drawing
    from okplanar.maximal import saturate
    from okplanar.separator import recursive_decompose

    if name == "random_outer_k_planar":
        call, text = lambda: random_outer_k_planar(n, 1, 1), format_drawing
    elif name == "saturate":
        empty = identity_drawing(build_graph(n, []))
        call, text = lambda: saturate(empty, 3), format_drawing
    else:
        d = banded_drawing(n)
        call = lambda: recursive_decompose(d, 5)
        text = lambda node: json.dumps(node.to_dict(), sort_keys=True)
    seconds = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = call()
        seconds.append(time.perf_counter() - t0)
    del out
    tracemalloc.start()
    out = call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "seconds": round(statistics.median(seconds), 4),
        "peak_mib": round(peak / 2**20, 2),
        "sha256": hashlib.sha256(text(out).encode()).hexdigest(),
    }


def scale_rows():
    for name, sizes in (("random_outer_k_planar", (480, 960, 1920)), ("saturate", (250, 500, 1000)),
                        ("recursive_decompose", (480, 960, 1920, 3840))):
        for n in sizes:
            yield {"instance": f"{name} n={n}", **scale_row(name, n)}


def sat_setup_rows():
    for name, spec, k, variant in SAT_INSTANCES:
        yield {"instance": name, **sat_setup_row(spec, k, variant)}


def maximal_rows():
    for n, k, seed in MAXIMAL_INSTANCES:
        start = "empty" if seed is None else f"seeded {seed}"
        yield {"instance": f"n={n} k={k} {start}", **maximal_row(n, k, seed)}


SERIES = {"sat_setup": sat_setup_rows, "maximal": maximal_rows, "mso2": mso2_rows, "emit": emit_rows,
          "read": read_rows, "setup": setup_rows, "scale": scale_rows}
# what every label's entry must agree on, per series
ANSWER = {"sat_setup": ("verdict", "clauses"), "emit": ("sexpr_sha256",), "read": ("drawing_sha256",),
          "setup": ("modules",), "scale": ("sha256",)}
REPEATS_OF = {"read": READ_REPEATS, "setup": SETUP_RUNS}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--series", choices=sorted(SERIES), default="sat_setup")
    ap.add_argument("--label", required=True, help="entry name, such as parent or change")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory holding okplanar")
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    out = os.path.join(ROOT, f"BENCH_{args.series}.json")

    rows = []
    for row in SERIES[args.series]():
        print(json.dumps(row), flush=True)
        rows.append(row)
    doc = {}
    if os.path.exists(out):
        with open(out) as fh:
            doc = json.load(fh)
    answer = ANSWER.get(args.series, ("verdict",))
    verdicts = {row["instance"]: [row.get(key) for key in answer] for row in rows}
    for label, run in doc.get("runs", {}).items():
        theirs = {row["instance"]: [row.get(key) for key in answer] for row in run["instances"]}
        if label != args.label and theirs.keys() == verdicts.keys() and theirs != verdicts:
            raise SystemExit(f"{' or '.join(answer)} differs from the {label!r} entry; "
                             f"{out} left unchanged")
    doc.setdefault("runs", {})[args.label] = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "repeats": REPEATS_OF.get(args.series, REPEATS),
        "instances": rows,
    }
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
