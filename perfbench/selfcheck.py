"""Smoke test of the benchmark itself, at the small `--size smoke`.

    python3 perfbench/selfcheck.py

For every workload, `enumerate` included: an untraced run and two traced
runs with one seed.  It checks that every run is correct, that each run
prints exactly the metrics BENCHMARK.json declares, and that the
deterministic counters (every traced metric that is not a time or a timing
ratio) are identical between the two traced runs.  Takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli-mix", "deep", "enumerate")
SEED = 7
SECONDS = 1


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def is_timing(name):
    return name.endswith("_s") or name == "trace.overhead_ratio"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems = []
    # every workload run.py offers, also the one BENCHMARK.json leaves out
    for w in WORKLOADS:
        plain, first, second = run(w, 0), run(w, 1), run(w, 1)
        for label, res, names in (("untraced", plain, end_to_end),
                                  ("traced", first, per_layer),
                                  ("traced again", second, per_layer)):
            if not res["correct"] or res["failed"]:
                problems.append(f"{w} {label}: incorrect ({res['failed']} failed)")
            if set(res["metrics"]) != names:
                problems.append(f"{w} {label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(res['metrics']) ^ names)}")
        for name, metric in first["metrics"].items():
            if not is_timing(name) and metric != second["metrics"].get(name):
                problems.append(f"{w}: counter {name} differs between runs of seed {SEED}")
        print(f"{w}: {plain['attempted']} untraced and {first['attempted']} traced operations")
    for p in problems:
        print("PROBLEM", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
