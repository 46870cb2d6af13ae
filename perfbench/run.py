"""solvsplit benchmark: one workload, one closed-loop worker, one result line.

    python3 perfbench/run.py --workload {cli-mix,deep,enumerate} --seed N \\
        --seconds S --trace {0,1} [--size {full,smoke}]

Run from the repository root.  `--trace 0` prints the end-to-end metrics,
`--trace 1` the per-layer metrics of a separate traced run.  Each metric is
printed as a line "name value unit"; the last line of stdout is the JSON
result.  Provenance, the result and the spans of a traced run are written to
.bench_out/.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("cli-mix", "deep", "enumerate")
SCALES = {"full": 1.0, "smoke": 0.3}
SETUP_SPAWNS = 11  # set-up time is the median over these fresh interpreters
IMPORT_SPAWNS = 7
SPAWN_TIMEOUT_S = 60
RUN_GRACE_S = 120  # the last cycle may end past --seconds; the whole run stays under 180 s

IMPORTED = (
    "solvsplit", "errors", "core_algebra", "conjugacy", "centralizer",
    "classification", "commensurability", "modular_geometry", "cli",
)


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, timeout):
    """Run a child interpreter to completion; (spawn time, completed process)."""
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=worker_env(),
        capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        die(f"child {args[:2]} exited with {proc.returncode}")
    return spawned_at, proc


def setup_sample():
    spawned_at, proc = spawn([str(HERE / "worker.py"), "--probe"], SPAWN_TIMEOUT_S)
    ready, location = proc.stdout.split(maxsplit=1)
    if not Path(location.strip()).resolve().is_relative_to(SRC):
        die(f"solvsplit was imported from {location.strip()}, not from {SRC}")
    return float(ready) - spawned_at


def trimmed_mean(values):
    """Mean without the lowest and highest value.

    -X importtime reports whole microseconds; a median would return one of
    those samples, and two runs could then read exactly the same time.
    """
    values = sorted(values)[1:-1]
    return sum(values) / len(values)


def import_times():
    """Trimmed mean self time of each solvsplit module under -X importtime."""
    samples = {name: [] for name in IMPORTED}
    for _ in range(IMPORT_SPAWNS):
        _, proc = spawn(
            ["-X", "importtime", "-c", "import solvsplit, solvsplit.cli"], SPAWN_TIMEOUT_S
        )
        seen = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s+(\S+)$", line)
            if m and (m.group(2) == "solvsplit" or m.group(2).startswith("solvsplit.")):
                seen[m.group(2).split(".")[-1]] = int(m.group(1)) * 1e-6
        for name in IMPORTED:
            samples[name].append(seen.get(name, 0.0))
    return {f"import.{name}.self_s": trimmed_mean(v) for name, v in samples.items()}


def is_json_number(value):
    """A finite float, or an int small enough to survive a double-based parser."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if isinstance(value, int):
        return abs(value) <= 2**53
    return math.isfinite(value)


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def provenance(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "commit": git_commit(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=sorted(SCALES), default="full")
    args = ap.parse_args()
    if not (SRC / "solvsplit" / "__init__.py").is_file():
        die(f"no solvsplit sources under {SRC}")
    OUT.mkdir(exist_ok=True)
    prov = provenance(args)

    setup_sample()  # warm-up: compiles bytecode caches, not counted
    setups = [] if args.trace else [setup_sample() for _ in range(SETUP_SPAWNS - 1)]
    imports = import_times() if args.trace else {}
    spawned_at, proc = spawn(
        [
            str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scale", str(SCALES[args.size]), "--out-dir", str(OUT),
            "--spawned-at", repr(time.monotonic()),
        ],
        args.seconds + RUN_GRACE_S,
    )
    sys.stderr.write(proc.stderr)
    res = json.loads(proc.stdout.splitlines()[-1])
    attempted, failed = res["attempted"], res["failed"]
    correct = failed == 0

    if args.trace:
        values = dict(res["metrics"], **imports)
        correct = correct and res["deterministic"]
        if not res["deterministic"]:
            print("perfbench: counters differ between replays of one cycle", file=sys.stderr)
    else:
        m = res["metrics"]
        setups.append(res["setup_s"])
        values = {
            "ops_per_s": m["ops_per_s"],
            "latency_p50_ms": m["latency_p50_ms"],
            "latency_p90_ms": m["latency_p90_ms"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "success_ratio": (attempted - failed) / attempted,
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(values):
        die(f"measured metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(values))}")
    for name, value in values.items():
        if not is_json_number(value):
            die(f"metric {name} = {value!r} is not a finite number a JSON reader keeps exactly")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in sorted(values)}
    report = {"provenance": prov, "correct": correct, "attempted": attempted,
              "failed": failed, "fail_ratio": failed / attempted, "metrics": metrics,
              "worker": {k: v for k, v in res.items() if k != "metrics"}}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")

    print(f"# {json.dumps(prov)}")
    print(f"fail_ratio {failed / attempted!r} ratio ({failed} of {attempted} failed)")
    for key, metric in metrics.items():
        print(f"{key} {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
