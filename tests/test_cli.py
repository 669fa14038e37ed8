import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import zenocav
from zenocav.cli import main
from zenocav.dynamics import MAX_RECORD_BYTES
from zenocav.zeno import DerivationComparison


def write_cfg(tmp_path, name="model.cfg", **overrides):
    base = dict(
        omega=0.1,
        omega_mw=0.05,
        delta=0.02,
        gamma=0.1,
        kappa=0.0,
        variant="bell_effective",
    )
    base.update(overrides)
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    return str(path)


@pytest.fixture(autouse=True)
def run_in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


# -- steady -------------------------------------------------------------------------


def test_steady_on_bundled_platform_preset(tmp_path, capsys):
    code = main(["steady", "preset1", "-o", "report.json"])
    assert code == 0
    out = capsys.readouterr().out
    assert "P_S = " in out
    assert "blocks = 369 + 360" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["degenerate"] is False
    assert report["nullspace_dimension"] == 1
    assert report["blocks"] == [369, 360]
    assert report["residual"] < 1e-9
    assert report["fidelities"]["S"] > 0.99
    assert report["populations"]["S"] == pytest.approx(report["fidelities"]["S"] ** 2)


def test_steady_degenerate_reports_and_fails(tmp_path, capsys):
    cfg = write_cfg(tmp_path, delta=0.0)
    code = main(["steady", cfg, "-o", "report.json"])
    assert code == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["degenerate"] is True
    assert payload["nullspace_dimension"] >= 2
    assert "no unique steady state" in captured.err
    file_payload = json.loads((tmp_path / "report.json").read_text())
    assert file_payload == payload


def test_steady_delta_mult_lifts_degeneracy(tmp_path):
    cfg = write_cfg(tmp_path, delta=0.0)
    assert main(["steady", cfg]) == 1
    assert main(["steady", cfg, "--delta-mult", "1.0"]) == 0


# -- evolve -------------------------------------------------------------------------


def test_evolve_writes_trajectory(tmp_path, capsys):
    cfg = write_cfg(tmp_path, t_end=1.0, dt=0.01, sample_stride=50, initial_state="g00")
    code = main(["evolve", cfg])
    assert code == 0
    out_file = tmp_path / "model_trajectory.csv"
    assert out_file.exists()
    lines = out_file.read_text().splitlines()
    assert lines[0] == "# units: g = 1; time in 1/g"
    assert lines[1] == "time,P_00,P_11,P_T,P_S"
    assert len(lines) == 2 + 3  # t = 0, 0.5, 1.0
    stdout = capsys.readouterr().out
    assert "P_S(1/g) = " in stdout
    assert f"wrote {out_file.name}" in stdout


def test_evolve_zero_duration(tmp_path):
    cfg = write_cfg(tmp_path, t_end=0.0, initial_state="g00:0.5 g11:0.5")
    assert main(["evolve", cfg, "-o", "single.csv"]) == 0
    lines = (tmp_path / "single.csv").read_text().splitlines()
    assert len(lines) == 3
    row = dict(zip(lines[1].split(","), (float(x) for x in lines[2].split(","))))
    assert row["P_00"] == pytest.approx(0.5, abs=1e-12)
    assert row["P_11"] == pytest.approx(0.5, abs=1e-12)


def test_evolve_asymmetric_variant_columns(tmp_path):
    cfg = write_cfg(
        tmp_path, variant="klm_effective", t_end=0.0, initial_state="g00"
    )
    assert main(["evolve", cfg, "-o", "klm.csv"]) == 0
    header = (tmp_path / "klm.csv").read_text().splitlines()[1]
    assert header == "time,P_00,P_11,P_T,P_t2"


def test_evolve_omega_rescales_proportionally(tmp_path):
    # Doubling the drive via the flag must equal a config written at the
    # doubled values, microwave and detuning included.
    half = write_cfg(
        tmp_path, "half.cfg", omega=0.05, omega_mw=0.025, delta=0.01,
        t_end=100, initial_state="g00",
    )
    full = write_cfg(
        tmp_path, "full.cfg", omega=0.1, omega_mw=0.05, delta=0.02,
        t_end=100, initial_state="g00",
    )
    assert main(["evolve", half, "--omega", "0.1", "-o", "a.csv"]) == 0
    assert main(["evolve", full, "-o", "b.csv"]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_evolve_set_overrides(tmp_path):
    cfg = write_cfg(tmp_path, t_end=1.0, initial_state="g00")
    code = main(["evolve", cfg, "--set", "t_end=0", "--set", "initial_state=S", "-o", "s.csv"])
    assert code == 0
    lines = (tmp_path / "s.csv").read_text().splitlines()
    assert len(lines) == 3
    assert float(lines[2].split(",")[4]) == pytest.approx(1.0, abs=1e-12)


def test_evolve_needs_run_section(capsys):
    assert main(["evolve", "fig3"]) == 2
    assert "t_end and initial_state" in capsys.readouterr().err


@pytest.mark.parametrize(
    "assignment, message",
    [
        ("t_end=-1", "t_end must be non-negative"),
        ("dt=0", "dt must be positive"),
        ("sample_stride=0", "sample_stride must be >= 1"),
        ("initial_state=", "initial_state is empty"),
        ("initial_state=g00:0.5 zz:0.5", "unknown state label 'zz'"),
    ],
)
def test_evolve_rejects_bad_run_overrides(tmp_path, capsys, assignment, message):
    # Checked where the value is parsed, as a file's is; no output is written.
    assert main(["evolve", "fig1c", "--set", assignment, "-o", "out.csv"]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# fig1c records four observables, so a run may take MAX_RECORD_BYTES // 40
# samples; t_end of that many units of dt, one sample a unit, asks for one
# more.
RECORD_CAP = MAX_RECORD_BYTES // (8 * (1 + 4))


@pytest.mark.parametrize(
    "t_end, dt, stride, samples",
    [
        ("1", "1e-300", "500", "2e+297"),
        ("1e300", "5e-324", "500", "inf"),
        (str(RECORD_CAP), "1", "1", str(RECORD_CAP + 1)),
    ],
    ids=["tiny-dt", "ratio-overflows", "one-past-the-cap"],
)
def test_evolve_rejects_a_schedule_too_long_to_record(
    tmp_path, capsys, t_end, dt, stride, samples
):
    # Each value alone is valid; the schedule is checked before anything is
    # built, so no run starts and no output is written.
    argv = ["evolve", "fig1c", "-o", "out.csv"]
    for assignment in (f"t_end={t_end}", f"dt={dt}", f"sample_stride={stride}"):
        argv += ["--set", assignment]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert (
        f"t_end={float(t_end)!r}, dt={float(dt)!r} and sample_stride={stride} give "
        f"{samples} samples; evolve records at most {RECORD_CAP} of 4 observables"
    ) in err
    assert list(tmp_path.iterdir()) == []


def test_evolve_omega_needs_nonzero_base(tmp_path, capsys):
    cfg = write_cfg(tmp_path, omega=0.0, t_end=1.0, initial_state="g00")
    assert main(["evolve", cfg, "--omega", "0.1"]) == 2
    assert "nonzero omega" in capsys.readouterr().err


# -- sweep --------------------------------------------------------------------------


def test_sweep_writes_grid(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "scan.cfg", variant="bell_full", kappa=0.3)
    code = main(
        ["sweep", cfg, "--gamma-range", "0.05:0.2:2", "--kappa-range", "0.1:0.3:2"]
    )
    assert code == 0
    lines = (tmp_path / "scan_grid.csv").read_text().splitlines()
    assert lines[1] == "gamma,kappa,P_S"
    assert len(lines) == 2 + 4
    assert "4 points, 0 failed" in capsys.readouterr().out
    assert not (tmp_path / "scan_optima.json").exists()


def test_sweep_reproducible(tmp_path):
    cfg = write_cfg(tmp_path, "scan.cfg", variant="bell_full", kappa=0.3)
    argv = ["sweep", cfg, "--gamma-range", "0.1:0.2:2", "--kappa-range", "0.2:0.2:1"]
    assert main(argv + ["-o", "first"]) == 0
    assert main(argv + ["-o", "second"]) == 0
    first = (tmp_path / "first_grid.csv").read_bytes()
    second = (tmp_path / "second_grid.csv").read_bytes()
    assert first == second


def test_sweep_optima_output(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "scan.cfg", variant="bell_full", kappa=0.3)
    code = main(
        [
            "sweep", cfg,
            "--gamma-range", "0.1:0.1:1",
            "--kappa-range", "0.3:0.3:1",
            "--c-list", "50",
        ]
    )
    assert code == 0
    payload = json.loads((tmp_path / "scan_optima.json").read_text())
    assert payload["state"] == "S"
    (optimum,) = payload["optima"]
    assert optimum["cooperativity"] == 50.0
    assert optimum["kappa"] * optimum["gamma"] * 50.0 == pytest.approx(1.0)
    out = capsys.readouterr().out
    assert "C=50" in out
    # The edge note prints exactly when the optimum is flagged.
    assert ("edge of the search domain" in out) is optimum["at_boundary"]


def test_sweep_rejects_bad_range(tmp_path, capsys):
    cfg = write_cfg(tmp_path, variant="bell_full", kappa=0.3)
    assert main(["sweep", cfg, "--gamma-range", "0.1:0.2"]) == 2
    assert "lo:hi:count" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--gamma-range", "a:b:2"),
        ("--kappa-range", "0.1:0.3:two"),
        ("--c-list", "abc"),
    ],
)
def test_sweep_rejects_malformed_numbers(tmp_path, capsys, flag, value):
    cfg = write_cfg(tmp_path, "scan.cfg", variant="bell_full", kappa=0.3)
    argv = ["sweep", cfg, "--gamma-range", "0.1:0.1:1", "--kappa-range", "0.3:0.3:1"]
    assert main(argv + [flag, value]) == 2
    assert value in capsys.readouterr().err
    # Rejected before any solve: no grid file.
    assert not (tmp_path / "scan_grid.csv").exists()


def test_sweep_rejects_reduced_variant(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["sweep", cfg, "--gamma-range", "0.1:0.1:1", "--kappa-range", "0.1:0.1:1"]) == 2
    assert "full" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--state", "bogus"], "bogus"),
        (["--workers", "0"], "workers"),
        (["--c-list", "-1"], "-1"),
        (["--gamma-range", "0:0.2:2"], "gamma must be positive"),
        (["--gamma-range", "0.3:0.01:3"], "invalid range '0.3:0.01:3'"),
        (["--kappa-range", "0.1:0.3:0"], "invalid range '0.1:0.3:0'"),
        (["--set", "variant=bell_effective"], "full variant"),
    ],
    ids=["state", "workers", "c-list", "gamma-range", "range-descending", "range-count-0",
         "variant"],
)
def test_sweep_config_mistakes_exit_before_solving(tmp_path, capsys, extra, message):
    cfg = write_cfg(tmp_path, "scan.cfg", variant="bell_full", kappa=0.3)
    argv = ["sweep", cfg, "--gamma-range", "0.1:0.1:1", "--kappa-range", "0.3:0.3:1"]
    assert main(argv + extra) == 2
    assert message in capsys.readouterr().err
    # Rejected before any solve: no grid file.
    assert not (tmp_path / "scan_grid.csv").exists()


# -- derive -------------------------------------------------------------------------


def test_derive_matches_analytic_model(tmp_path, capsys):
    code = main(["derive", "fig3", "-o", "derive.json"])
    assert code == 0
    out = capsys.readouterr().out
    assert "projected subspace dimension: 5" in out
    assert "hamiltonian deviation" in out
    report = json.loads((tmp_path / "derive.json").read_text())
    assert report["subspace_dim"] == 5
    assert report["basis_labels"] == ["00", "T", "S", "11", "D"]
    assert report["comparison"]["hamiltonian_deviation"] < 1e-10
    assert report["comparison"]["dissipator_deviation"] < 1e-10
    assert len(report["collapse_ops_canonical"]) == 4
    assert len(report["dropped"]) == 1


def test_derive_without_analytic_counterpart(capsys):
    code = main(["derive", "fig3", "--set", "phi=0"])
    assert code == 0
    assert "comparison skipped" in capsys.readouterr().out


def test_derive_rejects_reduced_variant(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["derive", cfg]) == 2
    assert "already a reduced model" in capsys.readouterr().err


@pytest.mark.parametrize(
    "comparison",
    [DerivationComparison(math.nan, 0.0), DerivationComparison(0.0, math.nan)],
    ids=["hamiltonian", "dissipator"],
)
def test_derive_fails_on_nan_deviation(monkeypatch, capsys, comparison):
    monkeypatch.setattr("zenocav.cli.compare_derivation", lambda *args: comparison)
    assert main(["derive", "fig3"]) == 1
    assert "deviates from the analytic model by nan" in capsys.readouterr().err


# -- dispatch -----------------------------------------------------------------------


def test_unknown_config_name(capsys):
    assert main(["steady", "no_such_preset"]) == 2
    assert "not found" in capsys.readouterr().err


def main_without_warnings(argv):
    """main's exit code; the error message alone explains an overflow."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return code


@pytest.mark.parametrize(
    "argv",
    [
        ["steady", "fig3", "--set", "gamma=nan"],
        ["steady", "fig3", "--set", "kappa=inf"],
        ["steady", "fig2a", "--delta-mult", "inf"],
        ["evolve", "fig1c", "--set", "dt=nan"],
        ["evolve", "fig1c", "--set", "t_end=inf"],
        ["evolve", "fig2b", "--omega", "nan"],
        ["sweep", "fig3", "--gamma-range", "nan:nan:1", "--kappa-range", "0.3:0.3:1"],
        ["sweep", "fig3", "--gamma-range", "0.1:inf:2", "--kappa-range", "0.3:0.3:1"],
        ["sweep", "fig3", "--gamma-range", "0.1:0.1:1", "--kappa-range", "0.3:0.3:1",
         "--c-list", "inf"],
        ["derive", "fig3", "--set", "delta=nan"],
        # Finite rates whose Hamiltonian overflows.
        ["steady", "fig3", "--set", "delta=1e308", "-o", "out.json"],
        ["evolve", "fig1c", "--set", "delta=1e308"],
        ["sweep", "fig3", "--set", "delta=1e308", "--gamma-range", "0.1:0.1:1",
         "--kappa-range", "0.3:0.3:1"],
        ["derive", "fig3", "--set", "delta=1e308", "-o", "out.json"],
    ],
    ids=[
        "gamma-nan", "kappa-inf", "delta-mult-inf", "dt-nan", "t_end-inf", "omega-nan",
        "range-nan", "range-inf", "c-list-inf", "delta-nan",
        "steady-h-overflow", "evolve-h-overflow", "sweep-h-overflow", "derive-h-overflow",
    ],
)
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, argv):
    assert main_without_warnings(argv) == 2
    assert "finite" in capsys.readouterr().err
    # Rejected before any solve: no output file.
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["steady", "fig3", "--set", "delta=5e307", "-o", "out.json"],
        ["evolve", "fig1c", "--set", "delta=5e307", "--set", "t_end=1"],
    ],
    ids=["steady", "evolve"],
)
def test_overflowing_generator_is_a_physics_error(tmp_path, capsys, argv):
    # The operators are finite, but the generator built from them is not.
    assert main_without_warnings(argv) == 1
    assert "overflow double precision" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_config_parse_error_carries_location(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("omega = quick\n")
    assert main(["steady", str(bad)]) == 2
    assert "bad.cfg" in capsys.readouterr().err


def test_unknown_command_exits_via_argparse():
    with pytest.raises(SystemExit) as excinfo:
        main(["transmogrify", "fig3"])
    assert excinfo.value.code == 2


def test_cli_module_runs_as_a_script():
    # python -m zenocav.cli runs the same entry point as the console script.
    env = dict(os.environ, PYTHONPATH=str(Path(zenocav.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "zenocav.cli", "derive", "fig3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "projected subspace dimension: 5" in done.stdout
