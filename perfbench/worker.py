"""One workload in a fresh process: build inputs, time passes, check outputs.

Run by run.py as ``python3 worker.py --workload W --seed S --passes P
--trace 0|1 --work DIR --out FILE [--smoke]`` with okplanar importable. The
working directory becomes DIR, so every path the program sees is relative
and reports are the same from run to run.

Load is a closed loop: one client sends the pass's requests one after
another to ``okplanar.cli.main`` in this process and thread, each after the
previous one returned. Output checks run after the timed passes.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from statistics import median
from time import perf_counter

import checks
from tracer import END, NAME, PARENT, REQUEST, START, Tracer
from workloads import WORKLOADS


def run_pass(cli, reqs, tracer=None, pass_no=0):
    """Send every request once; returns (wall seconds, latencies, outcomes).

    The garbage collector runs between requests, outside the timed region,
    so each request starts from a collected heap as a fresh command would,
    instead of paying for collections the previous requests' garbage set off.
    The pass's wall time is the sum of its request latencies.
    """
    latencies, outcomes = [], []
    for i, req in enumerate(reqs):
        if tracer is not None:
            tracer.request = (pass_no, i)
        out, err = io.StringIO(), io.StringIO()
        exc = None
        gc.collect()
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(req.argv)
        except (Exception, SystemExit) as e:  # a failed request, counted below
            rc, exc = None, repr(e)
        latencies.append(perf_counter() - t0)
        if rc == 1 and exc is None:
            exc = err.getvalue().strip()[:300]
        outcomes.append((rc, out.getvalue(), exc))
    return sum(latencies), latencies, outcomes


def tail(samples: list[float]) -> dict:
    """Highest percentile that still has at least ten samples beyond it."""
    s = sorted(samples)
    rank = max(len(s) - 11, 0)
    return {"value": s[rank], "percentile": round(100.0 * (rank + 1) / len(s), 2),
            "samples": len(s), "beyond": len(s) - rank - 1}


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def manifest(reqs) -> dict:
    """The argv of every request and the SHA-256 of every generated input."""
    inputs = {}
    for root, _, files in os.walk("."):
        for f in files:
            path = os.path.relpath(os.path.join(root, f))
            inputs[path] = sha256(path)
    body = {"requests": [r.argv for r in reqs], "inputs": dict(sorted(inputs.items()))}
    body["digest"] = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
    return body


def cross_checks(workload, reqs, tracer, traced_docs) -> dict:
    """Trace coverage and counters against facts read off the outputs."""
    out = {"uncovered": tracer.uncovered(workload), "missing_functions": tracer.missing}
    for i, req in enumerate(reqs):
        encodes = tracer.encodes_of((0, i))
        if req.info.get("family") == "3tree-4":
            got = [(e["vars"], e["clauses"]) for e in encodes]
            out["3tree-4"] = {"encodes": got, "pass": bool(got) and set(got) == {(8211, 314456)}}
        if "emit" in req.info:
            head = checks.Context().dimacs(req.info["emit"])[0]
            got = [(e["vars"], e["clauses"]) for e in encodes]
            out["emit-cnf"] = {"header": head, "encodes": got, "pass": tuple(head) in got}
    tags = []
    for docs in traced_docs:
        for req, doc in zip(reqs, docs):
            if doc is not None and req.kind == "separator":
                tags.append(doc["case_tag"])
            elif doc is not None and req.kind == "separator-tree":
                tags += checks.tree_case_tags(doc)
    counted = {t: int(c) for t, c in tracer.counts.items() if t.startswith("separator.case.")}
    reported = {f"separator.case.{t}": tags.count(t) for t in sorted(set(tags))}
    out["case_tags"] = {"counted": counted, "reported": reported, "pass": counted == reported}
    out["pass"] = not out["uncovered"] and all(
        v["pass"] for v in out.values() if isinstance(v, dict))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    out_path = os.path.abspath(args.out)
    os.chdir(args.work)
    from okplanar import cli

    reqs = WORKLOADS[args.workload](cli, args.seed, args.smoke)
    man = manifest(reqs)

    walls, latencies, outcomes = [], [], []
    for _ in range(args.passes):
        wall, lat, outs = run_pass(cli, reqs)
        walls.append(wall)
        latencies += lat
        outcomes.append(outs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        traced_walls = []
        try:
            for p in range(args.passes):
                wall, _, outs = run_pass(cli, reqs, tracer, p)
                traced_walls.append(wall)
                outcomes.append(outs)
        finally:
            tracer.uninstall()

    ctx, cache = checks.Context(), {}
    errors, docs = [], []
    for outs in outcomes:
        errs, ds = checks.check_pass(reqs, outs, ctx, cache)
        errors += errs
        docs.append(ds)
    failures = [{"request": i % len(reqs), "argv": reqs[i % len(reqs)].argv, "error": e}
                for i, e in enumerate(errors) if e]

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": args.passes,
        "requests_per_pass": len(reqs),
        "attempted": len(errors),
        "failed": len(failures),
        "failed_ratio": len(failures) / len(errors),
        "failures": failures[:20],
        "manifest": man,
        "wall_s": walls,
        "request_latency_s": [median(latencies[i::len(reqs)]) for i in range(len(reqs))],
        "latency_p50_s": median(latencies),
        "latency_tail": tail(latencies),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        layer = tracer.metrics(args.passes)
        layer["trace.overhead_ratio"] = median(traced_walls) / median(walls) - 1
        result["per_layer"] = layer
        result["traced_wall_s"] = traced_walls
        result["cross_checks"] = cross_checks(args.workload, reqs, tracer, docs[args.passes:])
        result["spans_file"] = out_path + ".spans.jsonl"
        with open(result["spans_file"], "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps([s[NAME], s[START], s[END], s[PARENT], s[REQUEST]]) + "\n")
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
