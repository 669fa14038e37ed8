"""Correctness checks for benchmark outputs, and an independent reference.

Each check returns None when the output is right and a message when it is
not.  The reference generator below is built here with ``np.kron`` from a
model's Hamiltonian and collapse operators, in row-stacking convention, so
an optimised ``operators`` or ``steady`` layer is never checked against
itself.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import svd

# Best stationary singlet population along each iso-cooperativity curve
# (C, population), and the tolerance the package claims them to.
CLAIMED_OPTIMA = {79.0: 0.9815, 36.0: 0.9610, 23.0: 0.9417, 16.0: 0.9201, 12.2: 0.9000}
OPTIMUM_TOL = 0.005

# Steady-state fidelities of the three cavity platforms, (config, target).
CLAIMED_FIDELITIES = {
    ("preset1", "S"): 0.9966,
    ("preset1", "t2"): 0.9975,
    ("preset2", "S"): 0.9971,
    ("preset2", "t2"): 0.9977,
    ("preset3", "S"): 0.9918,
    ("preset3", "t2"): 0.9919,
}
FIDELITY_TOL = 0.003

# Final row of ``zenocav evolve <config>`` (time, then the CSV's population
# columns in order), recorded at the commit that introduced this benchmark.
RECORDED_EVOLVE = {
    "fig1c": (1500.0, 5.90219667995e-04, 9.91385727202e-04, 4.58766280618e-04, 9.92544346649e-01),
    "fig4c": (1500.0, 3.22593863951e-01, 3.29057137816e-01, 1.60190789335e-01, 9.37138809559e-01),
}
# The package's integration tolerance at that commit.
INTEGRATION_TOL = 1e-6

# ``derive`` fails the run above this deviation; the report must agree.
DERIVE_TOL = 1e-8
# A solved population must match the reference null vector this closely.
REFERENCE_POP_TOL = 1e-8
# max |L vec(rho)| allowed for a returned stationary state.
RESIDUAL_TOL = 1e-9
# Optimum populations may not fall as C rises by more than this.
MONOTONE_SLACK = 1e-9


def check_optimum_claim(c: float, population: float, claimed=CLAIMED_OPTIMA):
    if c not in claimed:
        return None
    if not abs(population - claimed[c]) <= OPTIMUM_TOL:
        return f"C={c:g}: optimum population {population:.5f}, claimed {claimed[c]:.4f} +- {OPTIMUM_TOL}"
    return None


def check_monotone(pairs):
    """Indices of (C, population) pairs whose population falls below a smaller C's."""
    order = sorted(range(len(pairs)), key=lambda i: pairs[i][0])
    bad = []
    best = -math.inf
    for i in order:
        if pairs[i][1] < best - MONOTONE_SLACK:
            bad.append(i)
        best = max(best, pairs[i][1])
    return bad


def check_fidelity(config: str, target: str, fidelity: float, claimed=CLAIMED_FIDELITIES):
    want = claimed[(config, target)]
    if not abs(fidelity - want) <= FIDELITY_TOL:
        return f"{config}/{target}: fidelity {fidelity:.5f}, claimed {want:.4f} +- {FIDELITY_TOL}"
    return None


def check_evolve_row(config: str, row, recorded=RECORDED_EVOLVE):
    want = recorded[config]
    if len(row) != len(want):
        return f"{config}: final row has {len(row)} columns, expected {len(want)}"
    dev = max(abs(a - b) for a, b in zip(row, want))
    if not dev <= INTEGRATION_TOL:
        return f"{config}: final populations deviate by {dev:.3e} from the recorded run"
    return None


def check_derive_report(config: str, report: dict):
    cmp = report.get("comparison")
    if cmp is None:
        return f"derive {config}: no comparison with the analytic model"
    dev = max(cmp["hamiltonian_deviation"], cmp["dissipator_deviation"])
    if not dev <= DERIVE_TOL:
        return f"derive {config}: deviation {dev:.3e} above {DERIVE_TOL:.0e}"
    return None


# -- independent reference --------------------------------------------------


def reference_generator(h, collapse_ops) -> np.ndarray:
    """Lindblad generator acting on row-stacked density matrices.

    Row stacking: vec(A X B) = kron(A, B.T) vec(X).  With
    K = -iH - sum_k C_k^dag C_k / 2 the generator is
    kron(K, 1) + kron(1, conj(K)) + sum_k kron(C_k, conj(C_k)).
    """
    h = np.asarray(h, dtype=complex)
    eye = np.eye(len(h))
    k_op = -1j * h
    for c in collapse_ops:
        c = np.asarray(c, dtype=complex)
        k_op -= 0.5 * c.conj().T @ c
    gen = np.kron(k_op, eye)
    gen += np.kron(eye, k_op.conj())
    for c in collapse_ops:
        c = np.asarray(c, dtype=complex)
        gen += np.kron(c, c.conj())
    return gen


def reference_state(h, collapse_ops) -> np.ndarray:
    """Stationary state from the SVD null vector of the reference generator."""
    gen = reference_generator(h, collapse_ops)
    _, sing, vh = svd(gen)
    if not sing[-1] <= 1e-10 * sing[0] < sing[-2]:
        raise ValueError(f"reference generator has no unique null vector: {sing[-3:]}")
    dim = len(h)
    rho = vh[-1].conj().reshape(dim, dim)
    rho = rho / np.trace(rho)
    return (rho + rho.conj().T) / 2


def check_population(label: str, population: float, reference_rho, projector):
    want = float(np.real(np.trace(projector @ reference_rho)))
    if not abs(population - want) <= REFERENCE_POP_TOL:
        return f"{label}: population {population!r} vs reference {want!r}"
    return None


def check_stationary(label: str, rho, generator):
    """rho must be a density matrix annihilated by the reference generator."""
    rho = np.asarray(rho, dtype=complex)
    residual = float(np.max(np.abs(generator @ rho.reshape(-1))))
    trace_defect = abs(np.trace(rho) - 1.0)
    min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
    if not (residual <= RESIDUAL_TOL and trace_defect <= RESIDUAL_TOL and min_eig >= -RESIDUAL_TOL):
        return (
            f"{label}: residual {residual:.3e}, trace defect {trace_defect:.3e}, "
            f"min eigenvalue {min_eig:.3e} (limit {RESIDUAL_TOL:.0e})"
        )
    return None
