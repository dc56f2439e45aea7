#!/usr/bin/env python3
"""Compare two bench JSON dumps for semantic parity.

Two kinds of dumps ride the bitfusion-bench-1 schema:

- bench_perf interp/sweep dumps. The dispatch tiers
  (BITFUSION_DISPATCH=switch|threaded|specialized) may only differ
  in *timing*: every semantic field of the interp section -- mac
  counts, stats/memory parity, memoization and fusion flags -- must
  be identical across runs. CI runs bench_perf once per tier and
  feeds the dumps through this script pairwise.
- bench_serve_scale serve/serve_scale and bench_serve_chaos
  serve_chaos dumps. The serving engine's virtual-clock results
  (served/shed/miss counts, p99 latency, energy, and the fault
  ledger) are deterministic for a fixed seed on any machine, so CI
  regenerates the dump and diffs it against the committed BENCH
  trajectory file.

Wall-clock entries (wall_ms, wall_ns_per_req, throughputs, build
times) are timing and never compared. A semantic mismatch means a
run computed something different, which the perf numbers would
happily hide.

Usage: bench_diff.py A.json B.json
Exits 0 when the semantic entries match, 1 with a report otherwise.
Only stdlib is used.
"""

import json
import sys

# Semantic (must-match) metrics per section. Everything else
# (throughputs, speedups, build/wall times) is timing.
SEMANTIC_METRICS = {
    "interp": {"macs", "stats_parity", "memoized", "fused"},
    "serve": {
        "requests",
        "samples",
        "batches",
        "shed",
        "misses",
        "p99_us",
        "energy_j",
    },
    "serve_scale": {
        "requests",
        "shed",
        "misses",
        "p99_us",
        "energy_j",
    },
    # Fault-tolerant serving (bench_serve_chaos): the virtual-clock
    # ledger of every fault intensity; wall_ms is timing.
    "serve_chaos": {
        "requests",
        "shed",
        "abandoned",
        "loss_events",
        "retries",
        "recovered",
        "hedges_issued",
        "hedges_won",
        "availability",
        "goodput",
        "wasted_us",
        "energy_j",
    },
}


def semantic_entries(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "bitfusion-bench-1":
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    out = {}
    for e in doc.get("entries", []):
        metrics = SEMANTIC_METRICS.get(e.get("section"))
        if metrics is None or e.get("metric") not in metrics:
            continue
        out[(e.get("section"), e["name"], e["metric"])] = e["value"]
    if not out:
        sys.exit(f"{path}: no semantic entries found")
    return out


def main(argv):
    if len(argv) != 3:
        sys.exit("usage: bench_diff.py A.json B.json")
    a_path, b_path = argv[1], argv[2]
    a = semantic_entries(a_path)
    b = semantic_entries(b_path)

    problems = []
    for key in sorted(set(a) | set(b)):
        section, name, metric = key
        label = f"{section}.{name}.{metric}"
        if key not in a:
            problems.append(f"{label}: only in {b_path}")
        elif key not in b:
            problems.append(f"{label}: only in {a_path}")
        elif a[key] != b[key]:
            problems.append(
                f"{label}: {a[key]} ({a_path}) != "
                f"{b[key]} ({b_path})"
            )

    if problems:
        print(f"bench_diff: {a_path} vs {b_path} diverged:")
        for p in problems:
            print(f"  {p}")
        return 1
    print(
        f"bench_diff: {a_path} and {b_path} agree on "
        f"{len(a)} semantic entries"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
