"""Tests of the benchmark harness: its checks can fail, its trace adds up."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import steadiness  # noqa: E402
import workloads  # noqa: E402
import zenocav  # noqa: E402
from spans import Tracer, closure_error, layer_metrics  # noqa: E402


@pytest.fixture(scope="module")
def fig3():
    params = zenocav.resolve_config("fig3").params
    return params, zenocav.build_model(params)


def test_claim_checks_fail_on_perturbed_reference_values():
    assert checks.check_optimum_claim(79.0, 0.9815) is None
    assert checks.check_optimum_claim(79.0, 0.9815, {79.0: 0.9915}) is not None
    assert checks.check_optimum_claim(79.0, float("nan")) is not None

    assert checks.check_fidelity("preset1", "S", 0.9966) is None
    perturbed = {**checks.CLAIMED_FIDELITIES, ("preset1", "S"): 0.9866}
    assert checks.check_fidelity("preset1", "S", 0.9966, perturbed) is not None

    row = checks.RECORDED_EVOLVE["fig1c"]
    assert checks.check_evolve_row("fig1c", row) is None
    shifted = {"fig1c": row[:-1] + (row[-1] + 2 * checks.INTEGRATION_TOL,)}
    assert checks.check_evolve_row("fig1c", row, shifted) is not None

    good = {"comparison": {"hamiltonian_deviation": 1e-12, "dissipator_deviation": 1e-12}}
    bad = {"comparison": {"hamiltonian_deviation": 1e-7, "dissipator_deviation": 1e-12}}
    assert checks.check_derive_report("fig3", good) is None
    assert checks.check_derive_report("fig3", bad) is not None
    assert checks.check_derive_report("fig3", {"comparison": None}) is not None


def test_monotone_check_flags_a_falling_optimum():
    assert checks.check_monotone([(12.2, 0.90), (23.0, 0.94), (79.0, 0.98)]) == []
    assert checks.check_monotone([(79.0, 0.98), (12.2, 0.90), (30.0, 0.89)]) == [2]


def test_reference_agrees_with_package_and_catches_perturbations(fig3):
    params, me = fig3
    rho = zenocav.steady_state(me).rho
    ref = checks.reference_state(me.hamiltonian, me.collapse_ops)
    projector = zenocav.named_state("S", params).projector
    population = zenocav.population(rho, zenocav.named_state("S", params))
    assert checks.check_population("fig3", population, ref, projector) is None
    assert checks.check_population("fig3", population + 1e-6, ref, projector) is not None

    generator = checks.reference_generator(me.hamiltonian, me.collapse_ops)
    # Same generator as the package's, with row- instead of column-stacking.
    dim = len(rho)
    to_columns = np.arange(dim * dim).reshape(dim, dim).T.reshape(-1)
    package = zenocav.liouvillian(me.hamiltonian, me.collapse_ops)
    np.testing.assert_allclose(generator, package[np.ix_(to_columns, to_columns)], atol=1e-14)
    assert checks.check_stationary("fig3", rho, generator) is None
    mixed = (1 - 1e-6) * rho + 1e-6 * np.eye(len(rho)) / len(rho)
    assert checks.check_stationary("fig3", mixed, generator) is not None


def test_grid_check_fails_a_wrong_population(fig3):
    workload = workloads.Fig3Grid(0)
    workload.params = fig3[0]
    gamma, kappa = fig3[0].gamma, fig3[0].kappa
    population = zenocav.population(
        zenocav.steady_state(fig3[1]).rho, zenocav.named_state("S", fig3[0])
    )
    good = workloads.Op("good", out={"gamma": gamma, "kappa": kappa, "population": population})
    bad = workloads.Op("bad", out={"gamma": gamma, "kappa": kappa, "population": population + 1e-6})
    workload.check([good, bad], np.random.default_rng(0))
    assert good.error is None
    assert bad.error is not None


def test_cli_output_check_fails_a_perturbed_trajectory(tmp_path):
    workload = workloads.CliMix(0)
    row = list(checks.RECORDED_EVOLVE["fig4c"])
    for final, expect_ok in ((row, True), (row[:-1] + [row[-1] - 1e-5], False)):
        path = tmp_path / "evolve-fig4c.csv"
        path.write_text(
            "# units\ntime,P_00,P_11,P_T,P_t2\n" + ",".join(f"{v:.11e}" for v in final) + "\n"
        )
        op = workloads.Op("evolve fig4c", out={"command": "evolve", "config": "fig4c", "path": path})
        workload._check_output(op)
        assert (op.error is None) == expect_ok


def test_trace_self_times_add_up_and_wrappers_are_removed(fig3):
    params, _ = fig3
    tracer = Tracer()
    originals = (zenocav.steady_state, zenocav.sweeps.steady_state, zenocav.steady.lu_factor)
    with tracer.installed(), tracer.span("bench.round") as root:
        zenocav.grid_sweep(params, [0.1], [0.2, 0.3], "S")
    assert (zenocav.steady_state, zenocav.sweeps.steady_state, zenocav.steady.lu_factor) == originals
    names = [s.name for s in tracer.spans]
    for name in ("sweeps.grid", "models.build", "steady.solve", "operators.liouvillian", "steady.factor"):
        assert name in names
    assert closure_error(tracer.spans, root) < 1e-9
    metrics = layer_metrics(tracer.spans, rounds=1)
    assert metrics["steady.solves"] == (2.0, "count")
    assert metrics["operators.liouvillian_bytes"] == (2 * 27**4 * 16, "bytes")


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    produced = {name: unit for name, (_, unit) in layer_metrics([], rounds=1).items()}
    produced["trace.overhead_frac"] = "ratio"
    assert produced == declared


def test_spread_is_interquartile_range_over_median():
    med, q1, q3, rel = steadiness.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (med, q1, q3) == (3.0, 1.5, 4.5)
    assert rel == pytest.approx(1.0)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig3-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
