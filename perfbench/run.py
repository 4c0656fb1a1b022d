"""okplanar benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload recognize --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; okplanar is imported from ``src/``. The
command first times ``import okplanar.cli`` plus ``build_parser()`` in
several fresh interpreters (``setup_s``), then runs the workload in one
fresh child process (worker.py). With ``--trace 0`` the child times
``passes`` untraced passes over the workload's fixed request list; with
``--trace 1`` it times the same passes again with span wrappers installed
and reports per-layer metrics instead. The pass count is
``round(seconds / NOMINAL_PASS_S[workload])``, a function of the arguments
alone, so two commits run exactly the same requests. ``--smoke`` shrinks the
inputs and runs one pass, for the benchmark's own tests.

The full result (manifest, run metadata, failures, latency tail rank,
cross-checks) goes to ``.bench_results/<workload>-seed<S>-trace<T>.json``;
the last line of stdout is the summary the metrics contract asks for.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# seconds one untraced pass takes on a 2-vCPU x86-64 machine at the commit
# that defined this benchmark; only used to turn --seconds into a pass count
NOMINAL_PASS_S = {"recognize": 24.0, "drawings": 5.7, "maximal": 5.0, "mso2": 5.0}
SETUP_SAMPLES = 15
RUN_TIMEOUT_S = 170.0

PROBE = ("import time; t = time.perf_counter(); import okplanar.cli as c; "
         "c.build_parser(); print(time.perf_counter() - t)")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "latency_tail_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.pop("OKP_SAT_SOLVER", None)  # always measure the embedded solver
    return env


def setup_seconds(env: dict, deadline: float) -> list[float]:
    """Import-and-parser time in fresh interpreters; the first run is a warm-up."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT, check=True,
                             capture_output=True, text=True,
                             timeout=max(deadline - time.monotonic(), 1.0))
        if i:
            samples.append(float(out.stdout.strip()))
    return samples


def metadata() -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")),
                       None)
    except OSError:
        pass
    return {"git_revision": rev, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu or platform.processor(),
            "loadavg_start": list(os.getloadavg())}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_PASS_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced inputs, one pass")
    args = ap.parse_args(argv)

    if not (SRC / "okplanar" / "cli.py").is_file():
        print(f"error: {SRC / 'okplanar'} not found; run from an okplanar checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    meta = metadata()
    env = child_env()
    setup = setup_seconds(env, deadline)

    passes = 1 if args.smoke else max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    results = ROOT / ".bench_results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(exist_ok=True)
    out_file = results / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--passes", str(passes), "--trace", str(args.trace),
           "--work", str(work), "--out", str(out_file)] + (["--smoke"] if args.smoke else [])
    try:
        subprocess.run(cmd, env=env, check=True, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} did not finish within {RUN_TIMEOUT_S:.0f} s",
              file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as exc:
        print(f"error: worker exited {exc.returncode}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(out_file) as fh:
        res = json.load(fh)

    res["metadata"] = meta
    res["setup_s"] = setup
    e2e = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(res["wall_s"]),
        "latency_tail_s": res["latency_tail"]["value"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    res["end_to_end"] = e2e
    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in res["per_layer"].items()}
        cc = res["cross_checks"]
        if not cc["pass"]:
            print("TRACE CROSS-CHECK FAILED: "
                  + json.dumps({k: v for k, v in cc.items() if k != "pass"}), file=sys.stderr)
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    with open(out_file, "w") as fh:
        json.dump(res, fh, indent=1)
    for f in res["failures"]:
        print(f"FAILED request {f['request']} {' '.join(f['argv'])}: {f['error']}",
              file=sys.stderr)
    print(f"full result: {out_file.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
