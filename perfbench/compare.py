"""Compare two full results of one workload.

    python3 perfbench/compare.py .bench_results/A.json .bench_results/B.json

Refuses, with exit status 2, when the two runs did not send the same requests
on byte-identical inputs (their manifests differ), so a change to the input
generators cannot pass for a change in speed. Otherwise prints every
end-to-end metric, and every per-layer metric both results have, with B's
change relative to A.
"""
from __future__ import annotations

import json
import sys


def manifest_diff(a: dict, b: dict) -> list[str]:
    ma, mb = a["manifest"], b["manifest"]
    if ma["digest"] == mb["digest"]:
        return []
    out = []
    if ma["requests"] != mb["requests"]:
        out.append("request lists differ")
    for path in sorted(set(ma["inputs"]) | set(mb["inputs"])):
        if ma["inputs"].get(path) != mb["inputs"].get(path):
            out.append(f"input {path} differs")
    return out or ["manifest digests differ"]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    with open(argv[0]) as fa, open(argv[1]) as fb:
        a, b = json.load(fa), json.load(fb)
    diff = manifest_diff(a, b)
    if diff:
        print("refusing to compare: the runs measured different work", file=sys.stderr)
        for line in diff[:20]:
            print(f"  {line}", file=sys.stderr)
        return 2
    rows = [(k, a["end_to_end"][k], b["end_to_end"][k]) for k in a["end_to_end"]]
    if "per_layer" in a and "per_layer" in b:
        rows += [(k, v, b["per_layer"][k]) for k, v in a["per_layer"].items() if k in b["per_layer"]]
    print(f"{'metric':40s} {'A':>14s} {'B':>14s} {'B/A-1':>8s}")
    for name, va, vb in rows:
        change = f"{vb / va - 1:+8.3f}" if va else "       -"
        print(f"{name:40s} {va:14.6g} {vb:14.6g} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
