"""Repeat the benchmark and compare each metric's spread with its bound.

    python3 perfbench/steadiness.py --runs 10 [--workload fig3-grid ...] [--first-seed 100]

Runs the command of BENCHMARK.json once per seed (first-seed, first-seed+1,
...) for each workload, one run at a time, untraced.  For every end-to-end
metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)``, the spread (Q3 - Q1) / median, and the
metric's bound.  Exits 1 when a run fails or is incorrect, or when a spread
other than setup_s exceeds its bound; a summary goes to
``perfbench/out/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The set-up time is gated on its median only, not on its spread.
UNGATED_SPREAD = {"setup_s"}


def spread(values):
    """(median, Q1, Q3, (Q3 - Q1) / median) of a list of numbers."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)

    ok = True
    summary = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = []
        for k in range(args.runs):
            result = run_once(spec, workload, args.first_seed + k)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {args.first_seed + k}: incorrect result {result}")
                ok = False
            results.append(result)
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, rel = spread(values)
            gated = name not in UNGATED_SPREAD
            verdict = "ok" if rel <= bound / 3 else ("within bound" if rel <= bound else "WIDE")
            if gated and rel > bound:
                ok = False
            print(f"{workload:12s} {name:12s} median {med:10.5g} {metric['unit']:3s} "
                  f"Q1 {q1:10.5g} Q3 {q3:10.5g} spread {rel:7.2%} bound {bound:.0%} "
                  f"{verdict if gated else '(spread not gated)'}", flush=True)
            summary[workload][name] = {"values": values, "median": med, "q1": q1, "q3": q3,
                                       "spread": rel, "bound": bound}
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steadiness.json").write_text(json.dumps(summary, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
