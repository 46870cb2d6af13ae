"""Closed loop of one workload: one caller, the next operation starts only
after the previous one returned and was checked.

Untraced runs produce the end-to-end metrics over whole cycles of the
workload.  Traced runs replay the first cycle without and then with spans,
over and over, and report per-layer metrics; the deterministic counters come
from that cycle.
"""

from __future__ import annotations

import argparse
import json
import pickle
import resource
import statistics
import sys
import time

import oracle as o
import workloads as wl
from tracer import Tracer

MIN_OPS = 100  # so that at least 10 samples lie beyond the 90th percentile
MAX_REPORTED_FAILURES = 5


class Runner:
    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0

    def run(self, spec):
        """(latency, output) of one timed call; output is None on exception."""
        start = time.perf_counter()
        try:
            result = self.w.call(spec)
        except Exception as exc:  # any library exception is a failed operation
            latency = time.perf_counter() - start
            self.fail(spec, f"raised {exc!r}")
            return latency, None
        return time.perf_counter() - start, self.w.finish(spec, result)

    def check(self, spec, output):
        self.attempted += 1
        if output is None:
            return False
        try:
            self.w.check(spec, output)
        except Exception as exc:  # malformed output fails the check, too
            self.fail(spec, f"check failed: {exc!r}")
            return False
        return True

    def fail(self, spec, message):
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            shown = {k: v for k, v in spec.items() if k in ("op", "cmd", "argv", "t", "exps")}
            print(f"FAILED {shown}: {message}", file=sys.stderr)


def untraced(w, seconds):
    """Metrics pooled over every operation of whole cycles.

    Host speed drifts in phases of seconds; pooling weighs each phase by its
    share of the run, where a median over cycles would jump between phases.
    """
    runner = Runner(w)
    latencies, good, good_time = [], 0, 0.0
    deadline = time.perf_counter() + seconds
    cycles = 0
    while time.perf_counter() < deadline or len(latencies) < MIN_OPS:
        for spec in w.cycle(cycles):
            latency, output = runner.run(spec)
            latencies.append(latency)
            if runner.check(spec, output):
                good += 1
                good_time += latency
        cycles += 1
    return runner, {
        "ops_per_s": good / good_time if good_time else 0.0,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
    }, cycles


def fingerprint(output):
    return pickle.dumps(output, protocol=4)


def traced(w, seconds):
    runner = Runner(w)
    tracer = Tracer()
    window = w.cycle(0)
    input_bits = max((o.bits(m) for spec in window for m in w.inputs(spec)), default=0)
    reps = []
    deadline = time.perf_counter() + seconds
    while not reps or time.perf_counter() < deadline:
        plain, plain_time, out_bytes = [], 0.0, 0
        for spec in window:
            latency, output = runner.run(spec)
            plain_time += latency
            runner.check(spec, output)
            plain.append(fingerprint(output))
            out_bytes += w.out_bytes(spec, output)
        tracer.reset()
        tracer.install()
        traced_time = 0.0
        try:
            for i, spec in enumerate(window):
                tracer.op_id = len(reps) * len(window) + i
                latency, output = runner.run(spec)
                traced_time += latency
                runner.attempted += 1
                if output is not None and fingerprint(output) != plain[i]:
                    runner.fail(spec, "traced output differs from untraced output")
        finally:
            tracer.uninstall()
        counters = tracer.counter_metrics()
        counters["cli.out_bytes"] = out_bytes
        counters["core_algebra.input_bits_max"] = input_bits
        layers = tracer.layer_metrics()
        layers["trace.overhead_ratio"] = traced_time / plain_time
        reps.append((counters, layers))
    return runner, tracer, reps


def summarize_traced(reps):
    """Counts from the first replay, times as medians over all replays."""
    counters, layers = reps[0]
    deterministic = all(
        c == counters and all(l[k] == layers[k] for k in layers if k.endswith(".calls"))
        for c, l in reps[1:]
    )
    metrics = dict(counters)
    for key in layers:
        if key.endswith(".calls"):
            metrics[key] = layers[key]
        else:
            metrics[key] = statistics.median(l[key] for _, l in reps)
    return metrics, deterministic


def main(ready, argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args(argv)
    w = wl.WORKLOADS[args.workload](args.seed, args.scale, args.out_dir)
    result = {"setup_s": ready - args.spawned_at}
    if args.trace:
        runner, tracer, reps = traced(w, args.seconds)
        metrics, deterministic = summarize_traced(reps)
        result.update(metrics=metrics, deterministic=deterministic, replays=len(reps))
        tracer.dump(f"{args.out_dir}/spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        runner, metrics, cycles = untraced(w, args.seconds)
        result.update(metrics=metrics, cycles=cycles)
    result.update(attempted=runner.attempted, failed=runner.failed)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0
