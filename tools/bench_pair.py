"""Run perfbench/run.py alternately in two checkouts and write one bench file.

    python3 tools/bench_pair.py --parent DIR --change DIR --out BENCH_<n>.json

Each checkout is a full tree with its own perfbench/ (a `git clone` or
`git archive` of the commit).  The workloads and the run length are the
ones the change's BENCHMARK.json declares.  For every workload, pair i of
PAIRS runs seed FIRST_SEED + i on both sides; the parent goes first in even
pairs and the change in odd ones, so drift in the host's speed falls on
both sides alike.
The bench file records the commits, the interpreter and the machine, the
seeds, and for each end-to-end metric the values, median and interquartile
range on each side, the change's median relative to the parent's, and how
many pairs the change won in the metric's better direction (taken from the
change's BENCHMARK.json).  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10
FIRST_SEED = 101


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One perfbench run: its provenance line and its final JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"bench_pair: {tree} {workload} seed {seed} exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    provenance = json.loads(next(line[2:] for line in lines if line.startswith("# ")))
    return {"provenance": provenance, **json.loads(lines[-1])}


def commit_of(tree: Path, runs: list[dict]) -> str:
    proc = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    if proc.returncode == 0:
        return proc.stdout.strip()
    return runs[0]["provenance"]["commit"]


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": statistics.median(values), "iqr": q3 - q1}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    workloads = [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]
    seeds = [FIRST_SEED + i for i in range(PAIRS)]

    runs = {side: [] for side in SIDES}
    report = {}
    for workload in workloads:
        results = {side: [] for side in SIDES}
        for i, seed in enumerate(seeds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                res = run_once(trees[side], workload, seed, seconds)
                print(f"{workload} seed {seed} {side}: ops_per_s "
                      f"{res['metrics']['ops_per_s']['value']:.1f}", file=sys.stderr)
                results[side].append(res)
                runs[side].append(res)
        metrics = {}
        for name, how in better.items():
            values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
            sign = 1 if how == "higher" else -1
            entry = {"unit": results["change"][0]["metrics"][name]["unit"], "better": how}
            entry.update({side: summary(values[side]) for side in SIDES})
            base = entry["parent"]["median"]
            entry["change_vs_parent"] = entry["change"]["median"] / base - 1 if base else None
            entry["pairs_change_better"] = sum(
                sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            metrics[name] = entry
        report[workload] = {
            "correct": all(r["correct"] for side in SIDES for r in results[side]),
            "metrics": metrics,
        }

    provenance = runs["change"][0]["provenance"]
    document = {
        "tool": "tools/bench_pair.py",
        "commits": {side: commit_of(trees[side], runs[side]) for side in SIDES},
        "python": provenance["python"],
        "implementation": provenance["implementation"],
        "machine": provenance["machine"],
        "platform": provenance["platform"],
        "nproc": provenance["nproc"],
        "seconds": seconds,
        "seeds": seeds,
        "order": ["parent first" if i % 2 == 0 else "change first" for i in range(PAIRS)],
        "workloads": report,
    }
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
