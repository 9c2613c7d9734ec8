#!/usr/bin/env python3
"""Compares two sets of benchmark runs, by median, per workload and metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file is a `results.jsonl` the benchmark appends to (one record per
run). Every record carries the host fingerprint it was taken on; the
comparison is refused (exit 2) unless all records share one fingerprint,
since numbers from different machines do not compare.
"""

import json
import statistics
import sys


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def medians(records):
    """{(workload, trace, metric): (median, unit, runs)}"""
    values = {}
    for r in records:
        for name, m in r["metrics"].items():
            key = (r["workload"], r["trace"], name)
            values.setdefault(key, ([], m["unit"]))[0].append(m["value"])
    return {k: (statistics.median(v), unit, len(v)) for k, (v, unit) in values.items()}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    hosts = {r["host"] for r in base + new}
    if len(hosts) != 1:
        print("refused: runs come from different hosts:", file=sys.stderr)
        for h in sorted(hosts):
            print("  " + h, file=sys.stderr)
        sys.exit(2)
    print("host", hosts.pop())
    b, n = medians(base), medians(new)
    print(f"{'workload':8} {'metric':32} {'base':>14} {'new':>14} {'change':>8}  runs")
    for key in sorted(b.keys() & n.keys()):
        (bv, unit, bn), (nv, _, nn) = b[key], n[key]
        change = f"{(nv - bv) / bv * 100:+.1f}%" if bv else "n/a"
        print(f"{key[0]:8} {key[2]:32} {bv:14.6g} {nv:14.6g} {change:>8}  {bn}/{nn} {unit}")


if __name__ == "__main__":
    main()
