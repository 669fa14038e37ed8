import math
from dataclasses import replace

import numpy as np
import pytest

from zenocav import (
    DegenerateSteadyStateError,
    ModelParams,
    SteadyStateNumericsError,
    Variant,
    build_model,
    fidelity,
    grid_sweep,
    iso_cooperativity_optimum,
    named_state,
    population,
    resolve_config,
)
from zenocav.sweeps import (
    GAMMA_SEARCH_TOL,
    SCAN_POINTS,
    SweepGrid,
    _steady_population,
    cooperativity,
)

from conftest import random_density_matrix


def bell_params(**overrides):
    base = dict(omega=0.01, omega_mw=0.005, delta=0.0065, gamma=0.1, kappa=0.3)
    base.update(overrides)
    return ModelParams(variant=Variant.BELL_FULL, **base)


# -- figures of merit ---------------------------------------------------------------


def test_population_of_pure_states():
    p = bell_params().with_variant(Variant.BELL_EFFECTIVE)
    singlet = named_state("S", p)
    triplet = named_state("T", p)
    assert population(singlet.projector, singlet) == pytest.approx(1.0)
    assert population(triplet.projector, singlet) == pytest.approx(0.0, abs=1e-14)


def test_population_of_maximally_mixed_state():
    p = bell_params().with_variant(Variant.BELL_EFFECTIVE)
    mixed = np.eye(5) / 5.0
    assert population(mixed, named_state("S", p)) == pytest.approx(0.2)


def test_fidelity_squares_to_population(rng):
    p = bell_params().with_variant(Variant.BELL_EFFECTIVE)
    rho = random_density_matrix(rng, 5)
    state = named_state("S", p)
    assert fidelity(rho, state) ** 2 == pytest.approx(population(rho, state), abs=1e-12)


def test_fidelity_clamps_numerical_undershoot():
    p = bell_params().with_variant(Variant.BELL_EFFECTIVE)
    rho = np.diag([1.0, 0.0, -1e-18, 0.0, 0.0])
    assert fidelity(rho, named_state("S", p)) == 0.0


def test_cooperativity_formula():
    assert cooperativity(bell_params(gamma=0.1, kappa=0.3)) == pytest.approx(1 / 0.03)
    with pytest.raises(ValueError, match="kappa"):
        cooperativity(bell_params(kappa=0.0))


def test_cooperativity_of_measured_platform():
    # g, kappa, gamma = 770, 21.7, 2.6 in lab units; dimensionless C survives
    # the rescaling to g = 1.
    p = bell_params(gamma=2.6 / 770, kappa=21.7 / 770)
    assert cooperativity(p) == pytest.approx(770.0**2 / (21.7 * 2.6), rel=1e-12)


# -- grid sweeps --------------------------------------------------------------------


def test_single_point_sweep(weak_drive_params):
    grid = grid_sweep(weak_drive_params, [0.1], [0.3], "S")
    assert grid.observable_label == "P_S"
    assert grid.values.shape == (1, 1)
    assert grid.n_failed == 0
    assert grid.values[0, 0] >= 0.90
    direct = _steady_population(build_model(weak_drive_params), "S")
    assert grid.values[0, 0] == direct


def test_cavity_loss_degrades_target(weak_drive_params):
    gammas = [0.05, 0.1, 0.2]
    lossless = grid_sweep(weak_drive_params, gammas, [0.0], "S")
    lossy = grid_sweep(weak_drive_params, gammas, [0.2], "S")
    assert np.all(lossy.values <= lossless.values)


def test_sweep_values_are_populations(weak_drive_params):
    grid = grid_sweep(weak_drive_params, [0.05, 0.2], [0.1, 0.3], "S")
    assert np.all(grid.values >= 0.0)
    assert np.all(grid.values <= 1.0)


def test_sweep_deterministic_and_parallel_identical(weak_drive_params):
    gammas = [0.05, 0.2]
    kappas = [0.1, 0.3]
    first = grid_sweep(weak_drive_params, gammas, kappas, "S")
    second = grid_sweep(weak_drive_params, gammas, kappas, "S")
    assert np.array_equal(first.values, second.values)

    fanned = grid_sweep(weak_drive_params, gammas, kappas, "S", workers=2)
    assert np.array_equal(first.values, fanned.values)


def test_failed_points_are_recorded(monkeypatch, weak_drive_params):
    import zenocav.sweeps as sweeps_mod

    real = sweeps_mod._steady_population

    def flaky(me, label):
        if me.params.gamma == 0.05:
            raise DegenerateSteadyStateError(3)
        return real(me, label)

    monkeypatch.setattr(sweeps_mod, "_steady_population", flaky)
    grid = grid_sweep(weak_drive_params, [0.05, 0.1], [0.3], "S")
    assert grid.n_failed == 1
    i, j, message = grid.failures[0]
    assert (i, j) == (0, 0)
    assert "not unique" in message
    assert math.isnan(grid.values[0, 0])
    assert math.isfinite(grid.values[1, 0])


def counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls; returns the count list."""
    real, calls = getattr(owner, name), []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def assembly_counts(monkeypatch, search, *args):
    import zenocav.models as models_mod
    import zenocav.steady as steady_mod
    import zenocav.sweeps as sweeps_mod

    calls = {
        "build_model": counting(monkeypatch, models_mod, "build_model"),
        "parity_frame": counting(monkeypatch, models_mod, "parity_frame"),
        "liouvillian": counting(monkeypatch, steady_mod, "liouvillian"),
        "steady_state": counting(monkeypatch, sweeps_mod, "steady_state"),
    }
    search(*args)
    return {name: len(seen) for name, seen in calls.items()}


def test_sweep_builds_and_frames_the_model_once(monkeypatch):
    # One RateFamily per sweep: one model and one symmetry check, then one
    # generator per point.
    base = resolve_config("fig3").params
    counts = assembly_counts(monkeypatch, grid_sweep, base, [0.05, 0.2], [0.0, 0.1, 0.3], "S")
    assert counts == {"build_model": 1, "parity_frame": 1, "liouvillian": 6, "steady_state": 6}


def test_optimum_builds_the_model_once_per_curve(monkeypatch):
    base = resolve_config("fig3").params
    counts = assembly_counts(monkeypatch, iso_cooperativity_optimum, base, 79.0)
    assert counts["build_model"] == counts["parity_frame"] == 1
    assert counts["liouvillian"] == counts["steady_state"] > SCAN_POINTS


def test_optimum_fails_when_every_curve_point_fails():
    # Without the optical drive nothing pumps out of the dark states: every
    # point of the curve is degenerate.
    undriven = replace(resolve_config("fig3").params, omega=0.0, n_max=1)
    with pytest.raises(SteadyStateNumericsError, match="every point on the C=50.0 curve failed"):
        iso_cooperativity_optimum(undriven, 50.0)


def test_sweep_input_validation(weak_drive_params):
    effective = weak_drive_params.with_variant(Variant.BELL_EFFECTIVE)
    with pytest.raises(ValueError, match="full"):
        grid_sweep(effective, [0.1], [0.1], "S")
    with pytest.raises(ValueError, match="gamma"):
        grid_sweep(weak_drive_params, [0.0], [0.1], "S")
    with pytest.raises(ValueError, match="gamma"):
        grid_sweep(weak_drive_params, [0.1], [-0.1], "S")
    with pytest.raises(ValueError, match="workers"):
        grid_sweep(weak_drive_params, [0.1], [0.1], "S", workers=0)


def test_grid_container_validation():
    with pytest.raises(ValueError, match="shape"):
        SweepGrid(
            gamma_values=np.array([0.1, 0.2]),
            kappa_values=np.array([0.1]),
            values=np.zeros((1, 1)),
            observable_label="P_S",
        )


def test_grid_csv_and_dict(tmp_path):
    grid = SweepGrid(
        gamma_values=np.array([0.1, 0.2]),
        kappa_values=np.array([0.3]),
        values=np.array([[0.5], [math.nan]]),
        observable_label="P_S",
        failures=((1, 0, "boom"),),
    )
    path = tmp_path / "grid.csv"
    grid.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# units: g = 1"
    assert lines[1] == "gamma,kappa,P_S"
    assert len(lines) == 4
    gamma, kappa, value = (float(x) for x in lines[2].split(","))
    assert (gamma, kappa, value) == (0.1, 0.3, 0.5)
    assert math.isnan(float(lines[3].split(",")[2]))

    payload = grid.to_dict()
    assert payload["values"] == [[0.5], [None]]
    assert payload["failures"] == [{"i": 1, "j": 0, "error": "boom"}]


# -- iso-cooperativity optimum --------------------------------------------------------


def test_optimum_stays_on_curve(weak_drive_params):
    c = 100.0
    optimum = iso_cooperativity_optimum(weak_drive_params, c)
    assert optimum.cooperativity == c
    assert optimum.kappa * optimum.gamma * c == pytest.approx(1.0, rel=1e-12)
    assert 0.005 <= optimum.gamma <= 0.5
    assert 0.0 <= optimum.population <= 1.0


def test_optimum_beats_manual_curve_points(weak_drive_params):
    c = 100.0
    optimum = iso_cooperativity_optimum(weak_drive_params, c)
    for gamma in (0.02, 0.1, 0.4):
        manual = _steady_population(
            build_model(replace(weak_drive_params, gamma=gamma, kappa=1.0 / (c * gamma))), "S"
        )
        assert optimum.population >= manual - 1e-12


def test_optimum_input_validation(weak_drive_params):
    with pytest.raises(ValueError, match="positive"):
        iso_cooperativity_optimum(weak_drive_params, -1.0)
    with pytest.raises(ValueError, match="domain"):
        iso_cooperativity_optimum(weak_drive_params, 10.0, gamma_domain=(0.5, 0.1))
    effective = weak_drive_params.with_variant(Variant.BELL_EFFECTIVE)
    with pytest.raises(ValueError, match="full"):
        iso_cooperativity_optimum(effective, 10.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "name, search",
    [
        ("gamma", lambda p, v: grid_sweep(p, [v], [0.1], "S")),
        ("kappa", lambda p, v: grid_sweep(p, [0.1], [v], "S")),
        ("cooperativity", iso_cooperativity_optimum),
    ],
    ids=["gamma", "kappa", "cooperativity"],
)
def test_non_finite_search_inputs_rejected(weak_drive_params, name, search, value):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        search(weak_drive_params, value)


def test_optimum_serializes(weak_drive_params):
    optimum = iso_cooperativity_optimum(weak_drive_params, 50.0)
    payload = optimum.to_dict()
    assert set(payload) == {"cooperativity", "gamma", "kappa", "population", "at_boundary"}
    assert payload["population"] == optimum.population
    assert payload["at_boundary"] is optimum.at_boundary


def test_optimum_reports_domain_boundary():
    # On the default domain the fig3 optimum sits on the upper edge; a wider
    # domain holds the maximum inside, and it is higher.
    base = resolve_config("fig3").params
    edge = iso_cooperativity_optimum(base, 79.0)
    assert edge.at_boundary is True
    assert edge.gamma >= 0.5 - GAMMA_SEARCH_TOL
    inner = iso_cooperativity_optimum(base, 79.0, gamma_domain=(0.1, 3.0))
    assert inner.at_boundary is False
    assert 0.1 + GAMMA_SEARCH_TOL < inner.gamma < 3.0 - GAMMA_SEARCH_TOL
    assert inner.population > edge.population
