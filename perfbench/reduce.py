"""Reduction of the harness's raw samples and spans to metrics.

The harness (perfbench/perfbench.cc) writes raw per-pass seconds,
set-up seconds, exact counts and, in a traced run, Chrome Trace
Event spans. Everything here is plain arithmetic over those, kept in
one place so perfbench/test_reduce.py can test it.
"""

import statistics

# Library layers, named after the repository modules they cover.
LAYERS = ("serve.trace", "serve.engine", "serve.report", "core.cache",
          "compiler", "isa.plan", "isa.interp", "runner", "sim")
# Spans the benchmark opens around its own phases (set-ups and
# passes); their self time is wall time no layer span covers.
HARNESS = "perfbench"
PLATFORM_KINDS = ("bitfusion", "eyeriss", "stripes", "gpu")


def median(values):
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(Q1, median, Q3), as statistics.quantiles(n=4) gives them."""
    values = list(values)
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def rate(items, seconds):
    """Items per second; the time must be positive."""
    if not seconds > 0:
        raise ValueError(f"rate over a non-positive time {seconds!r}")
    return items / seconds


def layer_of(name):
    return name.split("/", 1)[0]


def self_times(spans):
    """Map span id -> self time: its duration minus the part of its
    interval that child spans cover. Children may overlap each other
    or stick out of the parent; only their union inside the parent
    counts."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start"], s["start"] + s["dur"]
        clipped = sorted(
            (max(c["start"], start), min(c["start"] + c["dur"], end))
            for c in children.get(s["id"], ()))
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in clipped:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = s["dur"] - covered
    return out


def spans_from_chrome(doc):
    """Spans from the harness's Chrome Trace Event JSON (times in us)."""
    spans = []
    for e in doc["traceEvents"]:
        args = dict(e.get("args", {}))
        spans.append({
            "id": args.pop("id"),
            "parent": args.pop("parent"),
            "pass": args.pop("pass"),
            "name": e["name"],
            "start": float(e["ts"]),
            "dur": float(e["dur"]),
            "args": args,
        })
    return spans


def layer_shares(spans):
    """(self-time share of wall per layer, uncovered share). Wall time
    is the summed duration of the top-level harness spans (set-ups and
    traced passes)."""
    wall = sum(s["dur"] for s in spans if s["parent"] == -1)
    if not wall > 0:
        raise ValueError("trace has no top-level spans")
    own = self_times(spans)
    per_layer = {layer: 0.0 for layer in LAYERS}
    uncovered = 0.0
    for s in spans:
        layer = layer_of(s["name"])
        if layer == HARNESS:
            uncovered += own[s["id"]]
        elif layer in per_layer:
            per_layer[layer] += own[s["id"]]
        else:
            raise ValueError(f"span {s['name']!r} names no known layer")
    return ({k: v / wall for k, v in per_layer.items()},
            uncovered / wall)


def _median_or_zero(values):
    values = list(values)
    return median(values) if values else 0.0


def _per_pass_sums(spans, name, arg=None):
    """Per pass id: (summed duration in us, summed argument)."""
    sums = {}
    for s in spans:
        if s["name"] == name:
            dur, items = sums.get(s["pass"], (0.0, 0.0))
            sums[s["pass"]] = (dur + s["dur"],
                               items + (s["args"][arg] if arg else 0.0))
    return sums


def _per_item(spans, name, arg, scale):
    """Median over passes of scale * duration(us) / argument."""
    return _median_or_zero(scale * dur / items
                           for dur, items in
                           _per_pass_sums(spans, name, arg).values()
                           if items > 0)


def _per_pass_ms(spans, name):
    return _median_or_zero(dur / 1e3 for dur, _ in
                           _per_pass_sums(spans, name).values())


def per_layer_metrics(raw, spans):
    """Every per-layer metric of one traced run; 0 where the
    workload does not exercise that layer."""
    m = {}
    shares, uncovered = layer_shares(spans)
    for layer, share in shares.items():
        m[f"{layer}.self_frac"] = share
    m["trace.uncovered_frac"] = uncovered
    # A workload that traces a decomposed pass times it untraced too.
    base = raw.get("traced_base_s") or raw["pass_s"]
    m["trace.overhead_frac"] = (median(raw["traced_pass_s"]) /
                                median(base) - 1.0)

    m["serve.trace.parse_ns_per_req"] = _per_item(
        spans, "serve.trace/parse", "requests", 1e3)
    m["serve.trace.generate_ns_per_req"] = _per_item(
        spans, "serve.trace/generate", "requests", 1e3)
    m["serve.engine.run_ns_per_req"] = _per_item(
        spans, "serve.engine/run", "requests", 1e3)
    m["serve.engine.run_ns_per_batch"] = _per_item(
        spans, "serve.engine/run", "batches", 1e3)
    m["serve.engine.warmup_ms"] = _per_pass_ms(spans, "serve.engine/warmup")
    m["serve.report.json_ms"] = _per_pass_ms(spans, "serve.report/json")

    # Cache hits still fingerprint the network; only the gets that
    # compiled count towards the time per compiled artifact.
    m["runner.compile_us_per_artifact"] = _per_item(
        [s for s in spans if s["args"].get("compiled") == 1],
        "core.cache/get", "compiled", 1.0)
    m["runner.simulate_us_per_cell"] = _per_item(
        spans, "runner/run_warm", "cells", 1.0)
    # Paired untraced passes on one thread and on every CPU.
    serial = raw.get("serial_pass_s") or []
    parallel = raw.get("parallel_pass_s") or []
    m["runner.thread_speedup"] = (median(serial) / median(parallel)
                                  if serial and parallel else 0.0)
    for kind in PLATFORM_KINDS:
        runs = {}
        for s in spans:
            if s["name"] == f"sim/{kind}":
                dur, n = runs.get(s["pass"], (0.0, 0))
                runs[s["pass"]] = (dur + s["dur"], n + 1)
        m[f"sim.{kind}.us_per_run"] = _median_or_zero(
            dur / n for dur, n in runs.values())

    m["compiler.compile_ms"] = _per_pass_ms(spans, "compiler/compile")
    m["isa.plan.build_ms"] = _per_pass_ms(spans, "isa.plan/build")
    interp = {s["name"] for s in spans if layer_of(s["name"]) == "isa.interp"}
    for name in interp:
        net = name.split("/", 1)[1]
        # MACs per microsecond is millions of MACs per second.
        m[f"isa.interp.{net}_mmac_per_s"] = _median_or_zero(
            s["args"]["macs"] / s["dur"] for s in spans
            if s["name"] == name and s["dur"] > 0)

    for name, value in raw["counts"].items():
        m[name] = float(value)
    return m


def end_to_end_metrics(raw):
    """The end-to-end metrics of one untraced run. Throughput is the
    work of every pass over their summed time: the host's speed drifts
    within a run, and the total averages the drift where a median pass
    would pick one side of it."""
    passes = raw["pass_s"]
    return {
        "setup_s": median(raw["setup_s"]),
        "items_per_s": rate(raw["items_per_pass"] * len(passes),
                            sum(passes)),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }
