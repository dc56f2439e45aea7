#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S \
        --trace 0|1

Run from the repository root. It builds the harness
(perfbench/CMakeLists.txt, on top of the repository's own build) into
.bench_build/, generates the workload's inputs from the seed, runs
the harness, checks its outputs, and prints as the last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones in BENCHMARK.json; with --trace 1
they are the per-layer ones, and the spans are kept as Chrome Trace
Event JSON under .bench_build/traces/ (open in Perfetto). Exits 1
when a check fails or the run breaks, 2 on bad arguments or a
missing source tree. perfbench/README.md documents the workloads.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import inputs  # noqa: E402
import reduce  # noqa: E402

# The harness gets what remains of the 180 s a run may take after
# the build check and input generation.
HARNESS_TIMEOUT_S = 150


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(root, build_dir):
    """Configure once, then bring the harness up to date."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(cpu_count())])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=root).returncode != 0:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail(f"build failed (log: {log_path})")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("run from the repository root (no BENCHMARK.json here)", 2)
    with open(spec_path) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; "
             f"known: {', '.join(workloads)}", 2)
    if not args.seconds > 0 or args.seed < 0:
        fail("--seconds must be positive and --seed nonnegative", 2)
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"no {needed} in {root}: the benchmark builds the "
                 "program from the repository's sources", 2)

    bench_root = os.path.join(root, ".bench_build")
    binary = build(root, os.path.join(bench_root, "perfbench"))
    work = os.path.join(bench_root, "runs")
    os.makedirs(work, exist_ok=True)
    tag = f"{args.workload}.seed{args.seed}.{os.getpid()}"
    raw_path = os.path.join(work, tag + ".raw.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--out", raw_path]
    trace_path = None
    if args.trace:
        traces = os.path.join(bench_root, "traces")
        os.makedirs(traces, exist_ok=True)
        trace_path = os.path.join(
            traces, f"{args.workload}.seed{args.seed}.trace.json")
        cmd += ["--trace-out", trace_path]
    input_path = None
    if args.workload == "serve_replay_day":
        input_path = os.path.join(work, tag + ".trace")
        inputs.write_replay_day(input_path, args.seed)
        cmd += ["--input", input_path]

    env = dict(os.environ)
    env.pop("BITFUSION_STORE", None)  # no persistent store: cold runs
    try:
        proc = subprocess.run(cmd, env=env, cwd=root,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    finally:
        if input_path:
            os.remove(input_path)
    if proc.returncode != 0:
        fail(f"harness exited with {proc.returncode}")
    with open(raw_path) as f:
        raw = json.load(f)
    os.remove(raw_path)

    if args.trace:
        with open(trace_path) as f:
            spans = reduce.spans_from_chrome(json.load(f))
        computed = reduce.per_layer_metrics(raw, spans)
        declared = spec["per_layer"]
    else:
        computed = reduce.end_to_end_metrics(raw)
        declared = spec["end_to_end"]
    names = {d["name"] for d in declared}
    undeclared = sorted(set(computed) - names)
    if undeclared:
        fail(f"metrics missing from BENCHMARK.json: {undeclared}")

    checks = raw["checks"]
    attempted, failed = checks["attempted"], checks["failed"]
    for failure in checks["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    metrics = {}
    for d in declared:
        # Layers the workload does not exercise read 0.
        value = computed.get(d["name"], 0.0)
        attempted += 1
        if not math.isfinite(value) or (not args.trace and value <= 0):
            failed += 1
            print(f"check failed: {d['name']} = {value}", file=sys.stderr)
        metrics[d["name"]] = {"value": value, "unit": d["unit"]}

    print(f"{args.workload} seed {args.seed}: {len(raw['pass_s'])} passes "
          f"of {raw['items_per_pass']:.0f} {raw['item']}s, "
          f"{raw['threads']} threads")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    if trace_path:
        print(f"  spans: {trace_path}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
