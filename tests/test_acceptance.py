"""End-to-end checks of every headline number and trend the package claims.

Each criterion prints one PASS/FAIL line with the measured values before
asserting, so a full run reads as a checklist.  Expensive integrations are
shared between criteria through module-scoped fixtures.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from zenocav import (
    DegenerateSteadyStateError,
    ModelParams,
    Variant,
    build_model,
    compare_derivation,
    derive_effective_model,
    evolve,
    initial_density_matrix,
    iso_cooperativity_optimum,
    named_state,
    population,
    reference_model,
    resolve_config,
    steady_state,
)
from zenocav.cli import main
from zenocav.steady import nullspace_dimension

from conftest import TRANSFER_MIXTURE, compare_trajectories

# Iso-cooperativity optima the weak-drive model must reproduce: best steady
# singlet population along each curve, to within half a percentage point.
CLAIMED_OPTIMA = (
    (79.0, 0.9815),
    (36.0, 0.9610),
    (23.0, 0.9417),
    (16.0, 0.9201),
    (12.2, 0.9000),
)

# Steady-state fidelities for the three measured cavity platforms, to within
# 0.3 percentage points: (platform name, target label) -> fidelity.
CLAIMED_FIDELITIES = {
    ("fabry_perot", "S"): 0.9966,
    ("fabry_perot", "t2"): 0.9975,
    ("microresonator", "S"): 0.9971,
    ("microresonator", "t2"): 0.9977,
    ("high_finesse", "S"): 0.9918,
    ("high_finesse", "t2"): 0.9919,
}

# Every physics value criteria 2-7 print, as they print it.  The tests above
# assert only the claims' tolerances, so a change that moved a printed digit
# would still pass them.  Rounding-level diagnostics (criterion 3's
# |rho - target|, criterion 7's residual and deviation, criterion 8) keep
# their bounds and are not recorded.
RECORDED_VALUES = {
    "2: P_S full": "0.9925",
    "2: P_S reduced": "0.9980",
    "2: curve deviation": "0.0055",
    "3: nullspace dimension": "4",
    "4: P_S omega=0.05": "0.9642",
    "4: P_S omega=0.1": "0.9123",
    "4: P_S omega=0.2": "0.7703",
    "5: P_S weak point": "0.9563",
    "5: optimum C=79": "0.9815",
    "5: optimum C=36": "0.9612",
    "5: optimum C=23": "0.9418",
    "5: optimum C=16": "0.9203",
    "5: optimum C=12.2": "0.9003",
    "6: fabry_perot/S": "99.66%",
    "6: fabry_perot/t2": "99.77%",
    "6: microresonator/S": "99.71%",
    "6: microresonator/t2": "99.77%",
    "6: high_finesse/S": "99.18%",
    "6: high_finesse/t2": "99.19%",
    "7: overlay deviation": "0.0064",
}

# The physics lines the CLI prints for the bundled presets: steady's
# populations and fidelities, and derive's clusters and subspace.  derive's
# +0.000 is a cluster at 2.6e-18, so a rounding-level change can print it
# as -0.000; no other recorded value lies within 1e-10 of a rounding
# boundary (the nearest, preset2's F_g11, 3.9e-10).
RECORDED_CLI_LINES = {
    "steady preset1": (
        "P_S = 0.993146   F_S = 0.996567",
        "P_T = 0.001797   F_T = 0.042392",
        "P_D = 0.001649   F_D = 0.040604",
        "P_t2 = 0.167081   F_t2 = 0.408755",
        "P_g00 = 0.000664   F_g00 = 0.025768",
        "P_g01 = 0.497472   F_g01 = 0.705317",
        "P_g10 = 0.497472   F_g10 = 0.705317",
        "P_g11 = 0.002694   F_g11 = 0.051905",
    ),
    "steady preset2": (
        "P_S = 0.994260   F_S = 0.997126",
        "P_T = 0.001555   F_T = 0.039436",
        "P_D = 0.000989   F_D = 0.031448",
        "P_t2 = 0.167101   F_t2 = 0.408780",
        "P_g00 = 0.000874   F_g00 = 0.029571",
        "P_g01 = 0.497907   F_g01 = 0.705626",
        "P_g10 = 0.497907   F_g10 = 0.705626",
        "P_g11 = 0.002272   F_g11 = 0.047663",
    ),
    "steady preset3": (
        "P_S = 0.983739   F_S = 0.991836",
        "P_T = 0.004768   F_T = 0.069052",
        "P_D = 0.000304   F_D = 0.017435",
        "P_t2 = 0.168514   F_t2 = 0.410504",
        "P_g00 = 0.004539   F_g00 = 0.067373",
        "P_g01 = 0.494253   F_g01 = 0.703032",
        "P_g10 = 0.494253   F_g10 = 0.703032",
        "P_g11 = 0.006600   F_g11 = 0.081240",
    ),
    "derive fig3": (
        "clusters: 9 (eigenvalues -2.449, -2.000, -1.414, -1.000, +0.000, +1.000, +1.414, +2.000, +2.449)",
        "projected subspace dimension: 5 with basis 00, T, S, 11, D",
    ),
    "derive fig4c": (
        "clusters: 9 (eigenvalues -2.449, -2.000, -1.414, -1.000, +0.000, +1.000, +1.414, +2.000, +2.449)",
        "projected subspace dimension: 5 with basis 00, 01, 10, 11, D",
    ),
}

# Eigenvalues this small are rounding on a density matrix of trace 1;
# criterion 8 prints a smallest eigenvalue below it as this bound.
ROUNDING_EIGENVALUE = 1e-14

# Bundled config holding each platform's rates.
PLATFORM_PRESETS = {
    "fabry_perot": "preset1",
    "microresonator": "preset2",
    "high_finesse": "preset3",
}


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def transfer_point(variant=Variant.BELL_FULL, **overrides):
    base = dict(omega=0.1, omega_mw=0.05, delta=0.02, gamma=0.1, kappa=0.0)
    base.update(overrides)
    return ModelParams(variant=variant, **base)


def weak_drive_point(**overrides):
    base = dict(omega=0.01, omega_mw=0.005, delta=0.0065, gamma=0.1, kappa=0.3)
    base.update(overrides)
    return ModelParams(variant=Variant.BELL_FULL, **base)


def ancilla_point(variant=Variant.KLM_FULL, **overrides):
    base = dict(omega=0.05, omega_mw=0.025, delta=0.025, gamma=0.1, kappa=0.0)
    base.update(overrides)
    return ModelParams(variant=variant, **base)


def run_transfer(p, t_end, dt, stride, label="S", mixture=TRANSFER_MIXTURE):
    me = build_model(p)
    rho0 = initial_density_matrix(mixture, p)
    observable = (f"P_{label}", named_state(label, p).projector)
    return evolve(me, rho0, t_end, dt, [observable], sample_stride=stride)


# -- shared expensive runs ------------------------------------------------------------


@pytest.fixture(scope="module")
def transfer_runs():
    full = run_transfer(transfer_point(), 1500.0, 0.002, 500)
    reduced = run_transfer(
        transfer_point(Variant.BELL_EFFECTIVE), 1500.0, 0.01, 100
    )
    return {"full": full, "reduced": reduced}


@pytest.fixture(scope="module")
def drive_strength_runs():
    runs = {}
    for omega in (0.05, 0.1, 0.2):
        p = transfer_point(
            omega=omega, omega_mw=omega / 2, delta=omega / 2, kappa=0.1
        )
        runs[omega] = run_transfer(p, 3000.0, 0.002, 1500, mixture=(("g00", 1.0),))
    return runs


@pytest.fixture(scope="module")
def ancilla_runs():
    full = run_transfer(ancilla_point(), 1500.0, 0.002, 500, label="t2")
    reduced = run_transfer(
        ancilla_point(Variant.KLM_EFFECTIVE), 1500.0, 0.01, 100, label="t2"
    )
    return {"full": full, "reduced": reduced}


@pytest.fixture(scope="module")
def platform_steadies():
    entries = []
    for name, preset in PLATFORM_PRESETS.items():
        for variant, label in ((Variant.BELL_FULL, "S"), (Variant.KLM_FULL, "t2")):
            p = resolve_config(preset).params.with_variant(variant)
            result = steady_state(build_model(p))
            pop = population(result.rho, named_state(label, p))
            wider = replace(p, n_max=3)
            pop_wider = population(
                steady_state(build_model(wider)).rho, named_state(label, wider)
            )
            entries.append(
                {
                    "name": name,
                    "label": label,
                    "claimed": CLAIMED_FIDELITIES[(name, label)],
                    "fidelity": math.sqrt(max(pop, 0.0)),
                    "residual": result.residual,
                    "truncation_shift": abs(pop - pop_wider),
                }
            )
    return entries


@pytest.fixture(scope="module")
def weak_point_steady():
    p = weak_drive_point()
    result = steady_state(build_model(p))
    pop = population(result.rho, named_state("S", p))
    wider = replace(p, n_max=3)
    pop_wider = population(
        steady_state(build_model(wider)).rho, named_state("S", wider)
    )
    return {
        "population": pop,
        "residual": result.residual,
        "truncation_shift": abs(pop - pop_wider),
    }


@pytest.fixture(scope="module")
def iso_optima():
    base = weak_drive_point()
    return [iso_cooperativity_optimum(base, c) for c, _ in CLAIMED_OPTIMA]


# -- criteria -------------------------------------------------------------------------


def test_criterion_1_mechanical_reduction():
    start = time.perf_counter()
    results = []
    for p in (weak_drive_point(), ancilla_point(kappa=0.2)):
        derivation = derive_effective_model(p)
        comparison = compare_derivation(derivation, reference_model(p))
        ((index, norm),) = derivation.dropped_norms
        results.append((p.variant.value, comparison.max_deviation, index, norm))
    elapsed = time.perf_counter() - start
    ok = all(
        deviation < 1e-10 and index == 4 and norm < 1e-12
        for _, deviation, index, norm in results
    )
    detail = "; ".join(
        f"{variant}: deviation {deviation:.1e}, cavity channel norm {norm:.1e}"
        for variant, deviation, index, norm in results
    )
    report(1, ok, f"{detail} ({elapsed:.2f} s)")


def test_criterion_2_transfer_overlay(transfer_runs):
    full = transfer_runs["full"]
    reduced = transfer_runs["reduced"]
    deviation = compare_trajectories(full, reduced, "P_S")
    p_full = full.value("P_S")
    p_reduced = reduced.value("P_S")
    ok = p_full >= 0.98 and p_reduced >= 0.98 and deviation <= 0.02
    report(
        2,
        ok,
        f"P_S(1500/g) = {p_full:.4f} full, {p_reduced:.4f} reduced; "
        f"curve deviation {deviation:.4f}",
    )


def test_criterion_3_detuning_robustness():
    base = transfer_point(Variant.BELL_EFFECTIVE)
    worst = 0.0
    for mult in (0.5, 1.0, 1.5, 2.0):
        p = replace(base, delta=mult * base.omega_mw)
        result = steady_state(build_model(p))
        target = named_state("S", p).projector
        worst = max(worst, float(np.max(np.abs(result.rho - target))))

    degenerate = build_model(replace(base, delta=0.0))
    dimension = nullspace_dimension(degenerate)
    try:
        steady_state(degenerate)
        raised = False
    except DegenerateSteadyStateError as exc:
        raised = True
        dimension = exc.dimension
    ok = worst < 1e-6 and raised and dimension >= 2
    report(
        3,
        ok,
        f"max |rho - target| = {worst:.1e} over delta = (0.5..2) omega_mw; "
        f"delta=0 nullspace dimension {dimension}",
    )


def test_criterion_4_drive_strength_tradeoff(drive_strength_runs):
    finals = [drive_strength_runs[omega].value("P_S") for omega in (0.05, 0.1, 0.2)]
    ok = finals[0] > finals[1] > finals[2]
    values = ", ".join(f"{v:.4f}" for v in finals)
    report(4, ok, f"P_S(3000/g) = {values} for omega = 0.05, 0.1, 0.2 g")


def test_criterion_5_weak_drive_quantitative(weak_point_steady, iso_optima):
    point = weak_point_steady["population"]
    deviations = [
        abs(optimum.population - claimed)
        for optimum, (_, claimed) in zip(iso_optima, CLAIMED_OPTIMA)
    ]
    ok = point >= 0.90 and all(d <= 0.005 for d in deviations)
    optima_text = ", ".join(
        f"C={c:g}: {optimum.population:.4f} (want {claimed:.4f})"
        for optimum, (c, claimed) in zip(iso_optima, CLAIMED_OPTIMA)
    )
    report(5, ok, f"P_S(gamma=0.1, kappa=0.3) = {point:.4f}; {optima_text}")


def test_criterion_6_platform_fidelities(platform_steadies):
    ok = all(
        abs(entry["fidelity"] - entry["claimed"]) <= 0.003
        for entry in platform_steadies
    )
    detail = "; ".join(
        f"{entry['name']}/{entry['label']}: {100 * entry['fidelity']:.2f}% "
        f"(want {100 * entry['claimed']:.2f}%)"
        for entry in platform_steadies
    )
    report(6, ok, detail)


def test_criterion_7_ancilla_target(ancilla_runs):
    p = ancilla_point(Variant.KLM_EFFECTIVE)
    me = build_model(p)
    t2 = named_state("t2", p)
    eigen_residual = float(
        np.max(np.abs(me.hamiltonian @ t2.vector - p.omega_mw * t2.vector))
    )
    steady_deviation = float(
        np.max(np.abs(steady_state(me).rho - t2.projector))
    )
    overlay = compare_trajectories(ancilla_runs["full"], ancilla_runs["reduced"], "P_t2")
    ok = eigen_residual < 1e-12 and steady_deviation < 1e-6 and overlay <= 0.03
    report(
        7,
        ok,
        f"eigenvector residual {eigen_residual:.1e}, steady deviation "
        f"{steady_deviation:.1e}, overlay deviation {overlay:.4f}",
    )


def test_criterion_8_physical_invariants(
    transfer_runs,
    drive_strength_runs,
    ancilla_runs,
    platform_steadies,
    weak_point_steady,
):
    trajectories = (
        list(transfer_runs.values())
        + list(drive_strength_runs.values())
        + list(ancilla_runs.values())
    )
    trace_drift = max(abs(t.final_report.trace_defect) for t in trajectories)
    hermiticity = max(t.final_report.hermiticity_defect for t in trajectories)
    min_eigenvalue = min(t.final_report.min_eigenvalue for t in trajectories)
    residual = max(
        [entry["residual"] for entry in platform_steadies]
        + [weak_point_steady["residual"]]
    )
    truncation_shift = max(
        [entry["truncation_shift"] for entry in platform_steadies]
        + [weak_point_steady["truncation_shift"]]
    )
    ok = (
        trace_drift < 1e-6
        and hermiticity < 1e-8
        and min_eigenvalue >= -1e-6
        and residual < 1e-9
        and truncation_shift < 1e-4
    )
    # Some evolved states are rank-deficient, so the smallest eigenvalue can
    # be rounding, and is then printed as a bound that rounding cannot move.
    if abs(min_eigenvalue) < ROUNDING_EIGENVALUE:
        eigenvalue = f"below {ROUNDING_EIGENVALUE:.0e} in magnitude"
    else:
        eigenvalue = f"{min_eigenvalue:.1e}"
    report(
        8,
        ok,
        f"trace drift {trace_drift:.1e}, hermiticity defect {hermiticity:.1e}, "
        f"min eigenvalue {eigenvalue}, steady residual {residual:.1e}, "
        f"truncation shift {truncation_shift:.1e}",
    )


# -- recorded values ------------------------------------------------------------------


def test_criteria_print_the_recorded_values(
    transfer_runs,
    drive_strength_runs,
    ancilla_runs,
    platform_steadies,
    weak_point_steady,
    iso_optima,
):
    # Formatted as criteria 2-7 format them, from the runs they share.
    degenerate = build_model(replace(transfer_point(Variant.BELL_EFFECTIVE), delta=0.0))
    printed = {
        "2: P_S full": f"{transfer_runs['full'].value('P_S'):.4f}",
        "2: P_S reduced": f"{transfer_runs['reduced'].value('P_S'):.4f}",
        "2: curve deviation": (
            f"{compare_trajectories(transfer_runs['full'], transfer_runs['reduced'], 'P_S'):.4f}"
        ),
        "3: nullspace dimension": str(nullspace_dimension(degenerate)),
        **{
            f"4: P_S omega={omega:g}": f"{run.value('P_S'):.4f}"
            for omega, run in drive_strength_runs.items()
        },
        "5: P_S weak point": f"{weak_point_steady['population']:.4f}",
        **{
            f"5: optimum C={c:g}": f"{optimum.population:.4f}"
            for optimum, (c, _) in zip(iso_optima, CLAIMED_OPTIMA)
        },
        **{
            f"6: {entry['name']}/{entry['label']}": f"{100 * entry['fidelity']:.2f}%"
            for entry in platform_steadies
        },
        "7: overlay deviation": (
            f"{compare_trajectories(ancilla_runs['full'], ancilla_runs['reduced'], 'P_t2'):.4f}"
        ),
    }
    assert printed == RECORDED_VALUES


@pytest.mark.parametrize("command", list(RECORDED_CLI_LINES))
def test_cli_prints_the_recorded_values(capsys, command):
    assert main(command.split()) == 0
    recorded = RECORDED_CLI_LINES[command]
    heads = tuple({line.split(" ", 1)[0] for line in recorded})
    lines = capsys.readouterr().out.splitlines()
    assert tuple(line for line in lines if line.startswith(heads)) == recorded
