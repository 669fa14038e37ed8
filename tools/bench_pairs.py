"""Alternate the benchmark between a parent and a change checkout.

    python3 tools/bench_pairs.py --parent ../parent --change . --workload cli-mix \
        --seeds 81 82 83 --topic evolve [--seconds 24] [--out BENCH_evolve.json]

For each seed, runs ``perfbench/run.py --trace 0`` once in each checkout,
the parent first on even pair indices and the change first on odd ones, so
neither side always gets the warmer second turn.  Each run is a fresh
process started in its own checkout, so it imports that checkout's package
and benchmark.  --seconds defaults to the ``run_seconds`` of the change's
BENCHMARK.json, which also gives every end-to-end metric its direction and
bound.

Writes ``BENCH_<topic>.json`` (or --out): the workload, seeds and run
length, the host and each side's benchmark environment, every run with its
metrics and correctness, and per metric each side's median and
quartiles, the change's wins and the verdict of the pair rule: over at
least ten pairs the change wins at least nine tenths (ties count for
neither), and the medians differ by more than the parent's interquartile
range.  Beside it stands the no-regression reading, which needs no bound:
whether every change run is better than every parent run, every one worse,
or neither.  Exits 1 when any run failed or reported an incorrect result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# A gain is claimed from at least this many pairs, of which the change must
# win this share.
CLAIM_MIN_PAIRS = 10
CLAIM_WIN_SHARE = 0.9
# Seconds a run may take beyond --seconds: three set-up processes, the
# warm-up round and the reference checks.
RUN_MARGIN_S = 300


def quartiles(values):
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)``; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def summarize(runs, end_to_end):
    """Per-metric comparison of paired runs.

    runs is a list of ``{"side", "seed", "metrics": {name: value}}``; each
    seed appears once per side.  end_to_end is BENCHMARK.json's list of
    ``{"name", "better", "bound"}``.
    """
    by_side = {"parent": {}, "change": {}}
    for run in runs:
        by_side[run["side"]][run["seed"]] = run["metrics"]
    seeds = [s for s in by_side["parent"] if s in by_side["change"]]
    summary = {}
    for metric in end_to_end:
        name = metric["name"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        pairs = [(by_side["parent"][s].get(name), by_side["change"][s].get(name)) for s in seeds]
        pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
        if not pairs:
            continue
        parent = [p for p, _ in pairs]
        change = [c for _, c in pairs]
        p_q1, p_med, p_q3 = quartiles(parent)
        c_q1, c_med, c_q3 = quartiles(change)
        if max(sign * c for c in change) < min(sign * p for p in parent):
            separation = "better"
        elif min(sign * c for c in change) > max(sign * p for p in parent):
            separation = "worse"
        else:
            separation = "neither"
        wins = sum(sign * (p - c) > 0 for p, c in pairs)
        losses = sum(sign * (p - c) < 0 for p, c in pairs)
        gain = sign * (p_med - c_med)
        summary[name] = {
            "better": metric["better"],
            "bound": metric.get("bound"),
            "pairs": len(pairs),
            "parent": {"values": parent, "median": p_med, "q1": p_q1, "q3": p_q3},
            "change": {"values": change, "median": c_med, "q1": c_q1, "q3": c_q3},
            "wins": wins,
            "losses": losses,
            "median_gain": gain,
            "relative_gain": gain / p_med if p_med else None,
            "parent_iqr": p_q3 - p_q1,
            "every_change_run": separation,
            "gain_claimable": (
                len(pairs) >= CLAIM_MIN_PAIRS
                and wins >= CLAIM_WIN_SHARE * len(pairs)
                and gain > p_q3 - p_q1
            ),
        }
    return summary


def host():
    info = {
        "machine": platform.machine(),
        "system": platform.system(),
        "release": platform.release(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        info["cpu"] = models[0] if models else "unknown"
    except OSError:
        info["cpu"] = "unknown"
    return info


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float):
    """One untraced benchmark run in checkout: its JSON result and its environment line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              timeout=seconds + RUN_MARGIN_S)
    except subprocess.TimeoutExpired:
        return {"correct": False, "error": "timed out"}, None, time.perf_counter() - start
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[len("# env "):]) for line in lines if line.startswith("# env ")),
               None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False}
    if proc.returncode != 0:
        result["correct"] = False
        result["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return result, env, wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--topic", required=True, help="names BENCH_<topic>.json")
    parser.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json)")
    parser.add_argument("--out", type=Path, help="output file (default: BENCH_<topic>.json)")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs, environments = [], {}
    for k, seed in enumerate(args.seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for turn, side in enumerate(order):
            result, env, wall = run_benchmark(checkouts[side], args.workload, seed, seconds)
            if env is not None:
                environments.setdefault(side, env)
            metrics = {name: m["value"] for name, m in result.get("metrics", {}).items()}
            run = {
                "side": side, "seed": seed, "turn": turn, "correct": result.get("correct") is True,
                "attempted": result.get("attempted"), "failed": result.get("failed"),
                "metrics": metrics, "wall_s": wall,
            }
            if "error" in result:
                run["error"] = result["error"]
            runs.append(run)
            shown = " ".join(f"{name}={value:.6g}" for name, value in metrics.items())
            print(f"pair {k} seed {seed} {side:6s} correct={runs[-1]['correct']} {shown}",
                  flush=True)

    summary = summarize(runs, spec["end_to_end"])
    for name, s in summary.items():
        print(f"{args.workload} {name}: parent {s['parent']['median']:.6g} "
              f"[{s['parent']['q1']:.6g}-{s['parent']['q3']:.6g}] -> change "
              f"{s['change']['median']:.6g} [{s['change']['q1']:.6g}-{s['change']['q3']:.6g}], "
              f"change better in {s['wins']} of {s['pairs']} pairs, "
              f"claimable: {s['gain_claimable']}, "
              f"every change run vs every parent run: {s['every_change_run']}")
    out = args.out or Path(f"BENCH_{args.topic}.json")
    out.write_text(json.dumps({
        "topic": args.topic,
        "workload": args.workload,
        "seconds": seconds,
        "seeds": args.seeds,
        "host": host(),
        "environments": environments,
        "claim_rule": f"at least {CLAIM_MIN_PAIRS} pairs, change better in at least "
                      f"{CLAIM_WIN_SHARE:.0%} of them, median gain above the parent's IQR",
        "runs": runs,
        "summary": summary,
    }, indent=1) + "\n")
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
