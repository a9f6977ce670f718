#!/usr/bin/env python3
"""Compares benchmark records of two commits, metric by metric.

    python3 perfbench/compare.py --base .bench_out/a/result_*.json \
                                 --head .bench_out/b/result_*.json

Each record is a result_<workload>_seed<n>_trace<t>.json file the load
generator writes. Records are grouped by workload and trace mode; each side
reports the median of its runs, and the change is checked against the
metric's bound in BENCHMARK.json. Records from hosts with different
fingerprints (CPU model, nproc, kernel backend, compiler, build type) are
refused: their numbers are not comparable.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(paths):
    records = []
    for path in paths:
        with open(path) as f:
            records.append(json.load(f))
    return records


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args()
    base, head = load(args.base), load(args.head)

    fingerprints = {json.dumps(r["fingerprint"], sort_keys=True) for r in base + head}
    if len(fingerprints) != 1:
        sys.stderr.write("compare.py: refused, the records come from different hosts:\n")
        for fp in sorted(fingerprints):
            sys.stderr.write("  %s\n" % fp)
        return 2

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    def grouped(records):
        out = {}
        for r in records:
            key = (r["workload"], r["trace"])
            for name, metric in {**r["metrics"], **r.get("ungated", {})}.items():
                out.setdefault(key, {}).setdefault(name, []).append(metric["value"])
            if not r["correct"]:
                sys.stderr.write("compare.py: warning: incorrect run %s seed %s\n"
                                 % (r["workload"], r["seed"]))
        return out

    b, h = grouped(base), grouped(head)
    worse = 0
    print("%-14s %-28s %14s %14s %9s  %s" % ("workload", "metric", "base", "head", "change", "verdict"))
    for key in sorted(set(b) & set(h)):
        for name in b[key]:
            if name not in h[key]:
                continue
            mb, mh = statistics.median(b[key][name]), statistics.median(h[key][name])
            change = (mh - mb) / mb if mb else float("nan")
            meta = bounds.get(name, {})
            verdict = ""
            if "bound" in meta and mb:
                sign = 1 if meta["better"] == "lower" else -1
                verdict = "WORSE" if sign * change > meta["bound"] else "ok"
                worse += verdict == "WORSE"
            print("%-14s %-28s %14.6g %14.6g %+8.1f%%  %s"
                  % (key[0], name, mb, mh, 100 * change, verdict))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
