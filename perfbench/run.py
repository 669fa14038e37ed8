"""zenocav benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload fig3-grid --seed 3 --seconds 24 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it alternates untraced and traced rounds
on the same inputs and reports the per-layer metrics plus the tracing
overhead.  Human-readable lines come first; the last line of standard
output is one JSON object.  Spans and a record of the run, with its
environment, go to ``perfbench/out/``.
"""

import time

_T0 = time.perf_counter()  # start of the set-up a fresh process pays

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# BLAS/OpenMP threads for every run, set before numpy loads.  Two is this
# benchmark's stated value; fewer cores lower it to the core count.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh processes timed for setup_s; the median is reported.
SETUP_RUNS = 3
# A run starts another round while the median round so far still fits in
# --seconds, and always runs at least this many rounds (untraced) or
# untraced/traced pairs (traced).
MIN_ROUNDS = 3
MIN_PAIRS = 2
# Sum of self times in a traced round must equal its wall time this closely.
CLOSURE_TOL_S = 1e-6


def _pin_environment():
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    # grid_sweep must run with its library default for workers.
    os.environ.pop("ZENOCAV_WORKERS", None)


def _import_package():
    """Import zenocav from this checkout's src/, never from elsewhere."""
    init = SRC / "zenocav" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init} not found; run from the root of a zenocav checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import zenocav

    if Path(zenocav.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported zenocav from {zenocav.__file__}, expected {init}")
    return zenocav


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _environment(seed):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "commit": _git_commit(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "zenocav_workers": os.environ.get("ZENOCAV_WORKERS", "unset"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def _setup_seconds(args):
    """Median set-up time over SETUP_RUNS fresh processes."""
    samples = []
    for _ in range(SETUP_RUNS):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=150, check=True,
        )
        samples.append(float(child.stdout.split()[-1]))
    return statistics.median(samples), samples


def _warm_up(workload, rng, workdir, measure_memory):
    """One untimed round; a process's first round runs slower.

    With ``measure_memory`` the round runs under tracemalloc and its peak
    allocation is returned in MiB.  numpy reports its array buffers to
    tracemalloc, so the peak counts the arrays a round holds at once, and
    unlike the RSS high-water mark it does not depend on how the kernel and
    the allocator back those bytes with pages.
    """
    if not measure_memory:
        return workload.run_round(workload.next_input(rng), workdir)[0], None
    tracemalloc.start()
    try:
        ops = workload.run_round(workload.next_input(rng), workdir)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return ops, peak / 2**20


def _run_rounds(workload, rng, workdir, seconds, tracer=None):
    """Closed loop of rounds after an untimed warm-up round.

    With a tracer, each input runs once untraced and once traced, and the two
    alternate which goes first, so neither side gets the warmer second turn.
    """
    from spans import closure_error

    warm_ops, peak_alloc_mb = _warm_up(workload, rng, workdir, measure_memory=tracer is None)
    ops, traced_ops, untraced_s, traced_s, closure = [], [], [], [], []
    peak_rss_mb = None
    start = time.perf_counter()
    minimum = MIN_PAIRS if tracer else MIN_ROUNDS

    def untraced(inp):
        round_ops, secs = workload.run_round(inp, workdir)
        ops.extend(round_ops)
        untraced_s.append(secs)

    def traced(inp):
        tracer.op_id = len(traced_s)
        with tracer.installed(), tracer.span("bench.round") as root:
            round_ops, secs = workload.run_round(inp, workdir)
        traced_ops.extend(round_ops)
        traced_s.append(secs)
        closure.append(closure_error(tracer.spans, root))

    def another_fits():
        per_round = statistics.median(untraced_s) + (statistics.median(traced_s) if tracer else 0)
        return time.perf_counter() - start + per_round <= seconds

    while len(untraced_s) < minimum or another_fits():
        inp = workload.next_input(rng)
        if tracer is None:
            untraced(inp)
        else:
            order = (untraced, traced) if len(traced_s) % 2 == 0 else (traced, untraced)
            for run in order:
                run(inp)
        if len(untraced_s) == MIN_ROUNDS and tracer is None:
            # Read after a fixed amount of work: the allocator's high-water
            # mark keeps creeping with every further round.  Printed only:
            # on a shared host it sometimes jumps by tens of MiB between
            # runs of the same code.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return warm_ops, ops, traced_ops, untraced_s, traced_s, closure, peak_alloc_mb, peak_rss_mb


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and print the seconds")
    args = parser.parse_args(argv)

    _pin_environment()
    _import_package()
    import numpy as np

    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        workload.setup()
        print(time.perf_counter() - _T0)
        return 0

    OUT.mkdir(exist_ok=True)
    setup_s = setup_samples = None
    if not args.trace:
        setup_s, setup_samples = _setup_seconds(args)
    workload.setup()
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        rounds = _run_rounds(
            workload, np.random.default_rng(args.seed), Path(workdir), args.seconds, tracer
        )
    warm_ops, ops, traced_ops, untraced_s, traced_s, closure, peak_alloc_mb, peak_rss_mb = rounds
    named = workload.summary(ops, untraced_s)
    if peak_rss_mb is not None:
        named["peak_rss_mb"] = (peak_rss_mb, "MiB")
    # Reference checks run after the window, so they add to no reading.
    ops = warm_ops + ops + traced_ops
    workload.check(ops, np.random.default_rng([args.seed, 1]))

    failures = [op for op in ops if op.error is not None]
    closure_ok = all(err <= CLOSURE_TOL_S for err in closure)
    if args.trace:
        metrics = layer_metrics(tracer.spans, len(traced_s))
        metrics["trace.overhead_frac"] = (sum(traced_s) / sum(untraced_s) - 1.0, "ratio")
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        metrics = {
            "round_s": (statistics.median(untraced_s), "s"),
            "setup_s": (setup_s, "s"),
            "peak_alloc_mb": (peak_alloc_mb, "MiB"),
        }
    env = _environment(args.seed)
    env["operations"] = {"rounds": len(untraced_s), "attempted": len(ops), "failed": len(failures)}
    env["round_seconds"] = untraced_s

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    shown = {**named, "failed_ops_frac": (len(failures) / len(ops), "ratio"), **metrics}
    for name, (value, unit) in shown.items():
        print(f"{args.workload:12s} {name:28s} {value:14.6g} {unit}")
    print(f"# {len(untraced_s)} rounds; setup samples {setup_samples}")
    if args.trace:
        print(f"# span closure: max |sum of self times - round wall time| = "
              f"{max(closure) * 1e3:.3g} ms over {len(closure)} traced rounds")
    for op in failures[:10]:
        print(f"FAILED {op.label}: {op.error}")

    result = {
        "correct": not failures and closure_ok,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"environment": env, "workload_metrics": shown, **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
