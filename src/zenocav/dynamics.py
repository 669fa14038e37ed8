"""Fixed-step time evolution of master equations.

The state and the generator M are real, in the Hermitian coordinates of
:mod:`zenocav.operators`, and every observable is Hermitian, so every
reading is a real dot product.  M is time independent, so a classical RK4
step of size h is exactly the degree-4 Taylor polynomial of exp(h M) applied
to the state.  That matrix is built once and raised to the sampling stride,
which turns a million-step integration into a handful of dense matrix
products plus one matrix-vector product per sample.  The polynomial keeps
the trace exactly, so a step size too large for the generator shows as
populations leaving [0, 1], not as trace drift.  Fixed steps keep sample
grids bit-reproducible so overlay comparisons between models are well
defined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import MasterEquationSpec
from .operators import (
    ALGEBRAIC_TOL,
    INTEGRATION_TOL,
    DensityMatrixReport,
    from_hermitian,
    hermitian_generator,
    hermiticity_defect,
    liouvillian,
    to_hermitian,
    validate_density_matrix,
)

# Populations may undershoot/overshoot their exact range by integrator error.
POPULATION_SLACK = 1e-6
# The propagator keeps the trace exactly in exact arithmetic, so drift above
# this means rounding on a state that has grown far out of range.
TRACE_ABORT = 1e-4
# Sample times are compared with this absolute tolerance (floating-point
# accumulation of n*dt differs between runs with different strides).
TIME_ATOL = 1e-9


class IntegrationError(RuntimeError):
    """Integration left the physical regime; carries a diagnostic message."""


@dataclass(frozen=True)
class Trajectory:
    """Sampled observable records of one evolution.

    times are in units of 1/g.  records maps observable label to an array of
    real values, one per time point.
    """

    times: np.ndarray
    records: dict
    final_state: np.ndarray
    final_report: DensityMatrixReport

    @property
    def labels(self) -> tuple:
        return tuple(self.records)

    def value(self, label: str, index: int = -1) -> float:
        return float(self.records[label][index])

    def to_csv(self, path) -> None:
        """Write time plus one column per observable, 12 significant digits."""
        labels = self.labels
        with open(path, "w") as fh:
            fh.write("# units: g = 1; time in 1/g\n")
            fh.write(",".join(["time", *labels]) + "\n")
            for i, t in enumerate(self.times):
                row = [f"{t:.11e}"] + [f"{self.records[lb][i]:.11e}" for lb in labels]
                fh.write(",".join(row) + "\n")


def rk4_propagator(liouv: np.ndarray, dt: float) -> np.ndarray:
    """One Runge-Kutta step as a matrix: the degree-4 Taylor sum of exp(dt L)."""
    a = dt * liouv
    diag = slice(None, None, a.shape[0] + 1)
    # Horner form I + A(I + A/2 (I + A/3 (I + A/4))), built in place: the
    # identity is added on the diagonal, and one product is alive at a time.
    t = a / 4.0
    for k in (3.0, 2.0):
        t.flat[diag] += 1.0
        t = a @ t
        t /= k
    t.flat[diag] += 1.0
    t = a @ t
    t.flat[diag] += 1.0
    return t


def evolve(
    me: MasterEquationSpec,
    rho0: np.ndarray,
    t_end: float,
    dt: float,
    observables,
    sample_stride: int = 1,
) -> Trajectory:
    """Integrate the master equation and record observables.

    Parameters
    ----------
    me : MasterEquationSpec
        Hamiltonian and collapse operators.
    rho0 : ndarray
        Initial density matrix; validated before the run.
    t_end, dt : float
        Total time and step size, in units of 1/g.  A shorter final step
        covers t_end when it is not a multiple of dt.
    observables : sequence of (label, ndarray)
        Hermitian operators to record (ValueError otherwise).
        Projector-valued observables are range-checked as populations.
    sample_stride : int
        Record every this many steps; the initial and final points are
        always recorded.

    The state is integrated in real Hermitian coordinates, so every record
    is real.  Raises IntegrationError, naming the first offending sample
    time, when a population leaves [0, 1] or the trace drifts beyond 1e-4.
    RK4 keeps the trace exactly, so a dt too large for the generator's
    stiffness shows as a population out of range.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != me.hamiltonian.shape:
        raise ValueError(f"initial state shape {rho0.shape} != model {me.hamiltonian.shape}")
    report = validate_density_matrix(rho0)
    if not report.passed:
        raise ValueError(f"initial state is not a density matrix: {report.summary()}")
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive, got {dt}")
    if not 0 <= t_end < np.inf:
        raise ValueError(f"t_end must be non-negative, got {t_end}")
    if sample_stride < 1:
        raise ValueError(f"sample_stride must be >= 1, got {sample_stride}")

    labels = []
    # Row 0 reads the trace; row k reads Tr(op_k rho) = to_hermitian(op_k) . x.
    readout = [to_hermitian(np.eye(rho0.shape[0]))]
    guarded = []
    for k, (label, op) in enumerate(observables):
        op = np.asarray(op, dtype=complex)
        if op.shape != rho0.shape:
            raise ValueError(f"observable {label!r} shape {op.shape} != state {rho0.shape}")
        if hermiticity_defect(op) > ALGEBRAIC_TOL:
            raise ValueError(f"observable {label!r} is not Hermitian")
        if np.max(np.abs(op @ op - op)) <= ALGEBRAIC_TOL:
            guarded.append(k)
        labels.append(label)
        readout.append(to_hermitian(op))
    readout = np.array(readout)

    # The sample schedule: step counts at the samples, the sample times, and
    # the propagator that carries each sample to the next.
    n_steps = int(np.floor(t_end / dt + 1e-12))
    remainder = t_end - n_steps * dt
    marks = [*range(0, n_steps, sample_stride), n_steps]
    times = [m * dt for m in marks]
    generator = hermitian_generator(liouvillian(me.hamiltonian, me.collapse_ops))
    if remainder < 1e-12 * max(1.0, abs(t_end)):
        times[-1] = t_end
        tail = []
    else:
        times.append(t_end)
        tail = [rk4_propagator(generator, remainder)]
    step = rk4_propagator(generator, dt) if n_steps else None
    del generator  # matrix_power's temporaries need the room
    advances = np.diff(marks).tolist()
    powers = {k: np.linalg.matrix_power(step, k) for k in set(advances)}
    propagators = [powers[k] for k in advances] + tail

    x = to_hermitian(rho0)
    readings = [readout @ x]
    for prop in propagators:
        x = prop @ x
        readings.append(readout @ x)
    readings = np.array(readings)

    for t, row in zip(times, readings):
        drift = abs(row[0] - 1.0)
        if drift > TRACE_ABORT:
            raise IntegrationError(
                f"trace drifted by {drift:.3e} at t={t:g} (dt={dt:g}); "
                "the step size is too large for this generator"
            )
        for k in guarded:
            if not -POPULATION_SLACK <= row[k + 1] <= 1.0 + POPULATION_SLACK:
                raise IntegrationError(
                    f"population {labels[k]!r} = {float(row[k + 1])!r} out of range at t={t:g}"
                )

    final_state = from_hermitian(x)
    return Trajectory(
        times=np.array(times),
        records={lb: readings[:, k + 1] for k, lb in enumerate(labels)},
        final_state=final_state,
        final_report=validate_density_matrix(final_state, INTEGRATION_TOL),
    )


def compare_trajectories(a: Trajectory, b: Trajectory, label: str) -> float:
    """Max absolute deviation of one observable between two runs.

    The runs must share the sample grid (same times within 1e-9).
    """
    if len(a.times) != len(b.times):
        raise ValueError(
            f"sample grids differ in length: {len(a.times)} vs {len(b.times)}"
        )
    if np.max(np.abs(a.times - b.times)) > TIME_ATOL:
        raise ValueError("sample grids differ beyond tolerance")
    if label not in a.records or label not in b.records:
        raise KeyError(f"observable {label!r} missing from one trajectory")
    return float(np.max(np.abs(a.records[label] - b.records[label])))
