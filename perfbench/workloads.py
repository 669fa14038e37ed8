"""The four benchmark workloads.

Each workload is closed-loop with one caller: a round is a fixed unit of
calls made back to back, and the run repeats rounds.  A workload makes its
inputs from a seeded generator, drives zenocav only through its public
functions and ``zenocav.cli.main``, and records one ``Op`` per operation so
failures count against attempts.  Checks that need the independent
reference run after the timed window.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

import checks
import zenocav
import zenocav.cli

# The CLI's default sweep range, in units of g.
RATE_RANGE = (0.01, 0.3)
GRID_SIDE = 4
# Grid points checked against the SVD reference per run.
REFERENCE_SAMPLES = 2
# Cooperativities drawn log-uniformly from this range on non-default seeds.
C_RANGE = (12.2, 79.0)
DEFAULT_SEED = 0
LADDER = (3, 4, 5)
PRESETS = ("preset1", "preset2", "preset3")
TARGETS = {"bell_full": "S", "klm_full": "t2"}


@dataclass
class Op:
    """One attempted operation and whether it succeeded."""

    label: str
    seconds: float = 0.0
    error: str | None = None
    out: dict = field(default_factory=dict)

    def fail(self, message: str | None) -> None:
        if message is not None and self.error is None:
            self.error = message


def _attempt(op: Op, fn, *args):
    """Run one call for ``op``; a raised exception marks the op failed."""
    start = time.perf_counter()
    try:
        return fn(*args)
    except Exception as exc:  # the benchmark counts failures and carries on
        op.fail(f"{type(exc).__name__}: {exc}")
        return None
    finally:
        op.seconds = time.perf_counter() - start


def _solve(params):
    return zenocav.steady_state(zenocav.build_model(params))


def _median(values):
    return statistics.median(values) if values else math.nan


class Workload:
    """A name, a setup step, seeded round inputs, a round, and its checks."""

    def __init__(self, seed: int):
        self.seed = seed

    def check(self, ops, rng):
        """Checks run after the timed window; mark failing ops."""


class Fig3Grid(Workload):
    """grid_sweep from the fig3 point over seeded 4x4 (gamma, kappa) lattices."""

    name = "fig3-grid"

    def setup(self):
        self.params = zenocav.resolve_config("fig3").params
        zenocav.steady_state(zenocav.build_model(self.params))

    def next_input(self, rng):
        gammas = np.sort(rng.uniform(*RATE_RANGE, GRID_SIDE))
        kappas = np.sort(rng.uniform(*RATE_RANGE, GRID_SIDE))
        return gammas, kappas

    def run_round(self, inp, workdir):
        gammas, kappas = inp
        sweep = Op("grid_sweep")
        grid = _attempt(sweep, zenocav.grid_sweep, self.params, gammas, kappas, "S")
        ops = []
        for i, gamma in enumerate(gammas):
            for j, kappa in enumerate(kappas):
                op = Op(f"gamma={gamma:.6g},kappa={kappa:.6g}")
                op.fail(sweep.error)
                if grid is not None:
                    value = float(grid.values[i, j])
                    op.out.update(gamma=float(gamma), kappa=float(kappa), population=value)
                    if not 0.0 <= value <= 1.0:
                        op.fail(f"population {value!r} outside [0, 1]")
                ops.append(op)
        if grid is not None:
            for i, j, message in grid.failures:
                ops[i * len(kappas) + j].fail(message)
        return ops, sweep.seconds

    def check(self, ops, rng):
        done = [op for op in ops if op.error is None]
        for k in rng.choice(len(done), size=min(REFERENCE_SAMPLES, len(done)), replace=False):
            _check_against_reference(self.params, done[k])

    def summary(self, ops, round_seconds):
        return {"grid_points_per_s": (len(ops) / sum(round_seconds), "1/s")}


def _check_against_reference(base, op: Op):
    """Compare one solved population with the SVD null vector."""
    params = replace(base, gamma=op.out["gamma"], kappa=op.out["kappa"])
    me = zenocav.build_model(params)
    try:
        rho = checks.reference_state(me.hamiltonian, me.collapse_ops)
    except ValueError as exc:
        op.fail(str(exc))
        return
    projector = zenocav.named_state("S", params).projector
    op.fail(checks.check_population(op.label, op.out["population"], rho, projector))


class IsoOptima(Workload):
    """iso_cooperativity_optimum on the fig3 point, one optimum per round."""

    name = "iso-optima"

    def setup(self):
        # The default seed replays the claimed cooperativities, so the
        # optima can be checked against the claimed populations.
        self.claimed = self.seed == DEFAULT_SEED
        self.params = zenocav.resolve_config("fig3").params
        zenocav.steady_state(zenocav.build_model(self.params))
        self._cycle = 0

    def next_input(self, rng):
        if self.claimed:
            values = list(checks.CLAIMED_OPTIMA)
            c = values[self._cycle % len(values)]
            self._cycle += 1
            return c
        return float(math.exp(rng.uniform(*np.log(C_RANGE))))

    def run_round(self, c, workdir):
        op = Op(f"C={c:.6g}")
        opt = _attempt(op, zenocav.iso_cooperativity_optimum, self.params, c)
        if opt is not None:
            op.out.update(c=c, gamma=opt.gamma, kappa=opt.kappa, population=opt.population)
            op.fail(checks.check_optimum_claim(c, opt.population) if self.claimed else None)
        return [op], op.seconds

    def check(self, ops, rng):
        done = [op for op in ops if op.error is None]
        if not self.claimed:
            pairs = [(op.out["c"], op.out["population"]) for op in done]
            for i in checks.check_monotone(pairs):
                done[i].fail(f"optimum population falls as C rises: {pairs}")
        for op in done:
            _check_against_reference(self.params, op)

    def summary(self, ops, round_seconds):
        return {"optimum_s": (_median(round_seconds), "s")}


class CliMix(Workload):
    """In-process zenocav.cli.main runs; the seed sets the command order."""

    name = "cli-mix"
    commands = (
        ("evolve", "fig1c"),
        ("evolve", "fig4c"),
        ("steady", "preset1"),
        ("steady", "preset2"),
        ("steady", "preset3"),
        ("derive", "fig3"),
        ("derive", "fig4c"),
    )

    def setup(self):
        for _, config in self.commands:
            zenocav.resolve_config(config)
        zenocav.build_model(zenocav.resolve_config("fig1c").params)
        with contextlib.redirect_stdout(io.StringIO()):
            zenocav.cli.main(["derive", "fig3"])

    def next_input(self, rng):
        return [self.commands[k] for k in rng.permutation(len(self.commands))]

    def run_round(self, order, workdir):
        ops = []
        for command, config in order:
            path = workdir / f"{command}-{config}.{'csv' if command == 'evolve' else 'json'}"
            op = Op(f"{command} {config}", out={"command": command, "config": config, "path": path})
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = _attempt(op, zenocav.cli.main, [command, config, "-o", str(path)])
            if code != 0:
                op.fail(f"exit code {code}: {stderr.getvalue().strip()}")
            ops.append(op)
        seconds = sum(op.seconds for op in ops)
        # Outputs are overwritten by the next round, so read them now.
        for op in ops:
            self._check_output(op)
        return ops, seconds

    def _check_output(self, op: Op):
        if op.error is not None:
            return
        command, config, path = op.out["command"], op.out["config"], op.out["path"]
        try:
            if command == "evolve":
                with open(path) as fh:
                    rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
                op.fail(checks.check_evolve_row(config, [float(v) for v in rows[-1]]))
            elif command == "steady":
                fidelity = json.loads(path.read_text())["fidelities"]["S"]
                op.fail(checks.check_fidelity(config, "S", fidelity))
            else:
                op.fail(checks.check_derive_report(config, json.loads(path.read_text())))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            op.fail(f"{op.label}: unreadable output: {exc}")

    def summary(self, ops, round_seconds):
        def median_of(command):
            return _median([op.seconds for op in ops if op.out["command"] == command])

        return {
            "evolve_s": (median_of("evolve"), "s"),
            "steady_cmd_s": (median_of("steady"), "s"),
            "cli_mix_s": (_median(round_seconds), "s"),
        }


class FockLadder(Workload):
    """steady_state at a seeded platform preset for n_max = 3, 4, 5."""

    name = "fock-ladder"

    def setup(self):
        self.presets = {name: zenocav.resolve_config(name).params for name in PRESETS}
        zenocav.steady_state(zenocav.build_model(self.presets["preset1"]))

    def _params(self, preset, variant, n_max):
        return replace(self.presets[preset].with_variant(zenocav.Variant.parse(variant)), n_max=n_max)

    def next_input(self, rng):
        return PRESETS[rng.integers(len(PRESETS))], list(TARGETS)[rng.integers(len(TARGETS))]

    def run_round(self, inp, workdir):
        ops = []
        for n_max in LADDER:
            key = (*inp, n_max)
            op = Op("{} {} n_max={}".format(*key), out={"key": key})
            result = _attempt(op, _solve, self._params(*key))
            if result is not None:
                op.out["rho"] = result.rho
            ops.append(op)
        return ops, sum(op.seconds for op in ops)

    def check(self, ops, rng):
        # Sorted by input so each dense reference generator is built once,
        # and only one is held at a time.
        built_for = generator = None
        for op in sorted(ops, key=lambda op: op.out["key"]):
            if op.error is not None:
                continue
            key = op.out["key"]
            params = self._params(*key)
            if key != built_for:
                generator = None
                me = zenocav.build_model(params)
                generator = checks.reference_generator(me.hamiltonian, me.collapse_ops)
                built_for = key
            rho = op.out.pop("rho")
            op.fail(checks.check_stationary(op.label, rho, generator))
            target = TARGETS[key[1]]
            population = zenocav.population(rho, zenocav.named_state(target, params))
            op.fail(checks.check_fidelity(key[0], target, math.sqrt(max(population, 0.0))))

    def summary(self, ops, round_seconds):
        return {"ladder_s": (_median(round_seconds), "s")}


WORKLOADS = {w.name: w for w in (Fig3Grid, IsoOptima, CliMix, FockLadder)}
