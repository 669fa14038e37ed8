"""Time evolution of master equations, sampled on a fixed grid.

The state and the generator M are real, in the Hermitian coordinates of
:mod:`zenocav.operators`, and every observable is Hermitian, so every
reading is a real dot product.  M is time independent, so the state at time
t is exp(t M) applied to the initial state, and the propagator of one
sampling stride, P = exp(stride dt M), is built once by a scaled Taylor
exponential (see _exponential), exact up to rounding.  ``dt`` is the unit of
the sample grid, not an integration step: no error depends on it.  M is
about 1% nonzero at the bundled presets and is built sparse, straight from
the operators (see operators.sparse_hermitian_blocks), so no dense complex
generator is formed; the Taylor polynomial costs sparse products, and only
the squarings that undo its scaling are dense.  A model whose operators
respect its symmetry evolves in the symmetry's parity basis, where M splits
into an even and an odd block that never mix; each is propagated on its
own, and the readings of the blocks add.  A block whose initial
coordinates are all zero stays zero and reads zero, so it is not
propagated at all.  The readings ``R P^k x`` at the samples come by baby
steps and giant steps: the rows ``R P^j`` for j below BABY_STEPS and the
states ``P^(BABY_STEPS i) x``, so that one product of the two stacks reads
every sample and only one state product in BABY_STEPS is paid; P is
squared into P^BABY_STEPS by rebinding it, so at most two dense
propagators are alive.  The units of dt after the last whole stride, and a final partial
interval, then act on the final state in time order, as the Taylor action
of their exponentials on one column (see _exponential_action), with no
dense propagator.  The exponential keeps the trace up to rounding, so a
trace that is no longer 1 means a state that overflowed or is not a
number, and a population that leaves [0, 1] a generator that is not
physical.  Every dense product with the propagators or the states is a
BLAS call through scipy (see operators.blas_matmul), as every threaded BLAS
and LAPACK call in the package is: a pip-installed numpy and scipy each
load their own OpenBLAS, whose worker threads spin for a while after each
parallel call, so products on numpy's between two steady-state LUs on
scipy's would leave one runtime's threads on the cores the other needs.
The sparse products run in scipy's own compiled loops, on no BLAS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import MasterEquationSpec
from .operators import (
    ALGEBRAIC_TOL,
    INTEGRATION_TOL,
    DensityMatrixReport,
    blas_matmul,
    from_hermitian,
    hermiticity_defect,
    sparse_hermitian_blocks,
    to_hermitian,
    validate_density_matrix,
)

# Populations may undershoot/overshoot their exact range by rounding.
POPULATION_SLACK = 1e-6
# The propagator keeps the trace exactly in exact arithmetic, so drift above
# this means rounding on a state that has grown far out of range.
TRACE_ABORT = 1e-4
# Degree of the Taylor polynomial in _exponential and _exponential_action,
# and the largest 1-norm of its argument at which the truncation error stays
# below the unit roundoff: theta_18 of Al-Mohy & Higham, SIAM J. Sci. Comput.
# 33, 488 (2011), the value scipy's expm_multiply uses.
TAYLOR_DEGREE = 18
TAYLOR_THETA = 1.09
# Samples per baby-step group of the readout (see _advance); a power of two,
# since P is squared log2(BABY_STEPS) times into the giant step.  A group
# pays one state product (n^2, n the block's coordinate count) where
# stepping pays BABY_STEPS; the one-off cost grows with it: BABY_STEPS - 1
# products of the few readout rows with P (n^2 each) and the squarings (n^3
# each).  At dim 27 on two cores evolve takes the same time from 8 to 32
# and more above, where the squarings dominate.
BABY_STEPS = 16
# evolve refuses a schedule whose times and records, 8 bytes a value, would
# take more than this (1,677,721 samples of the CLI's four observables); its
# giant-step states take n/BABY_STEPS doubles a sample besides, n the
# block's coordinate count: about nine times the records at fig4c.
MAX_RECORD_BYTES = 2**26


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
        t = blas_matmul(a, t)
        t /= k
    t.flat[diag] += 1.0
    t = blas_matmul(a, t)
    t.flat[diag] += 1.0
    return t


def _exponential(generator, tau: float) -> np.ndarray:
    """exp(tau M) for a sparse real generator M, dense and C-ordered.

    tau M is halved s times, until its 1-norm is below TAYLOR_THETA; the
    Taylor polynomial of that matrix A, in Horner form
    I + A(I + A/2 (... (I + A/18))), costs sparse-by-dense products only,
    and s squarings on blas_matmul undo the halving (Moler & Van Loan, SIAM
    Rev. 45, 3 (2003)).  frexp gives s = 0 for a zero generator.
    """
    norm = tau * abs(generator).sum(axis=0).max()
    s = max(0, math.frexp(norm / TAYLOR_THETA)[1])
    a = generator * math.ldexp(tau, -s)
    diag = slice(None, None, a.shape[0] + 1)
    t = a.toarray()
    t /= TAYLOR_DEGREE
    for k in range(TAYLOR_DEGREE - 1, 0, -1):
        t.flat[diag] += 1.0
        t = a @ t
        t /= k
    t.flat[diag] += 1.0
    for _ in range(s):
        t = blas_matmul(t, t)
    return t


def _exponential_action(generator, tau: float, x: np.ndarray) -> np.ndarray:
    """exp(tau M) x for a sparse real generator M and a few dense columns x.

    tau is cut into s equal steps, the fewest whose tau M / s has 1-norm at
    most TAYLOR_THETA, and each step applies the degree-TAYLOR_DEGREE Taylor
    polynomial term by term, so that only sparse products with the columns
    are paid and no n^2 propagator is built (Al-Mohy & Higham, SIAM J. Sci.
    Comput. 33, 488 (2011), with the degree fixed).
    """
    norm = tau * abs(generator).sum(axis=0).max()
    steps = max(1, math.ceil(norm / TAYLOR_THETA))
    a = generator * (tau / steps)
    for _ in range(steps):
        term = x
        for k in range(1, TAYLOR_DEGREE + 1):
            term = a @ term
            term /= k
            x = x + term
    return x


def _advance(generator, idx, readout, x0, dt, stride, count, rest, remainder):
    """One block's readings at every sample, and its final state.

    The first count + 1 samples read ``readout P^k x0``, P = exp(stride dt M)
    the propagator of one stride.  The baby-step rows ``readout P^j``, j
    below BABY_STEPS, are read first; then the lead = count % BABY_STEPS
    strides act on x0, P is squared into P^BABY_STEPS by rebinding it, so
    that at most two dense n^2 arrays are alive, and the giant steps run
    from the lead state.  With k = lead + BABY_STEPS i + j
    one product of the stacked rows with x0 and the giant-step states reads
    every sample: those below lead from x0's column.  The last ``rest``
    units of dt and the ``remainder`` interval then act on the final state
    in time order, as Taylor actions.
    """
    # take keeps C order, where readout[:, idx] comes out Fortran-ordered.
    readout = readout.take(idx, axis=1)
    rows = [readout]
    lead = count % BABY_STEPS
    x = x0
    if count:
        power = _exponential(generator, stride * dt)
        for _ in range(min(BABY_STEPS, count + 1) - 1):
            rows.append(blas_matmul(rows[-1], power))
        for _ in range(lead):
            x = blas_matmul(power, x)
        if count >= BABY_STEPS:
            for _ in range(BABY_STEPS.bit_length() - 1):
                power = blas_matmul(power, power)
    states = [x]
    for _ in range(count // BABY_STEPS):
        states.append(blas_matmul(power, states[-1]))
    n_rows = readout.shape[0]
    grid = blas_matmul(np.concatenate(rows), np.column_stack([x0, *states]))
    grid = grid.reshape(len(rows), n_rows, -1).transpose(2, 0, 1)
    readings = [np.concatenate([grid[0, :lead], grid[1:].reshape(-1, n_rows)])[: count + 1]]
    x = states[-1]
    for tau in (rest * dt, remainder):
        if tau:
            x = _exponential_action(generator, tau, x)
            readings.append(blas_matmul(readout, x))
    return np.vstack(readings), x


def evolve(
    me: MasterEquationSpec,
    rho0: np.ndarray,
    t_end: float,
    dt: float,
    observables,
    sample_stride: int = 1,
) -> Trajectory:
    """Propagate the master equation and record observables.

    Parameters
    ----------
    me : MasterEquationSpec
        Hamiltonian and collapse operators.
    rho0 : ndarray
        Initial density matrix; validated before the run.
    t_end, dt : float
        Total time and the unit of the sample grid, in units of 1/g.  The
        propagators are exact up to rounding, so dt sets only where samples
        fall; a last sample at t_end follows when dt does not divide it.
    observables : sequence of (label, ndarray)
        Hermitian operators to record (ValueError otherwise).
        Projector-valued observables are range-checked as populations.
    sample_stride : int
        Record every this many units of dt; the initial and final points are
        always recorded.

    The state is propagated in real Hermitian coordinates, so every record
    is real, and in the parity basis of the model's symmetry when that holds
    on its operators, one block of coordinates at a time; the final state is
    rotated back.  The frame is the one me carries (see
    MasterEquationSpec.frame); only the collapse operators, the observables
    and the initial state are rotated here.  Each block's generator is
    assembled sparse from the operators, and no complex generator is built
    (see operators.sparse_hermitian_blocks).  Its propagator over one stride
    is a scaled Taylor exponential (see _exponential), and the samples one
    stride apart are read by baby steps and giant steps (see _advance); the
    units after the last whole stride and the final partial interval then
    act on the final state, by the Taylor action of their exponentials (see
    _exponential_action).  A block whose initial coordinates are all zero is
    neither assembled nor propagated.  Raises
    IntegrationError on a generator entry that is not finite, and, naming
    the first offending sample time, when a population leaves [0, 1] or the
    trace drifts beyond 1e-4 or is not a number.  The exponential and the
    baby-step rows keep the trace up to rounding, so the trace guard fires
    on a state that overflowed or is not a number, and the population guard
    on a generator that is not physical.
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

    # The sample schedule, in units of dt: the samples are count strides
    # apart, then rest units when the stride does not divide n_steps, then a
    # remainder interval when dt does not divide t_end.  Its length is
    # counted in integers, and checked before any of it is built.
    ratio = t_end / dt
    samples = math.inf
    if math.isfinite(ratio):
        n_steps = math.floor(ratio + 1e-12)
        remainder = t_end - n_steps * dt
        tail = not remainder < 1e-12 * max(1.0, abs(t_end))
        samples = -(-n_steps // sample_stride) + 1 + tail
    cap = MAX_RECORD_BYTES // (8 * (1 + len(observables)))
    if samples > cap:
        raise ValueError(
            f"t_end={t_end!r}, dt={dt!r} and sample_stride={sample_stride} give "
            f"{samples:.10g} samples; evolve records at most {cap} of {len(observables)} "
            f"observables, whose times and records fit in {MAX_RECORD_BYTES} bytes"
        )
    times = [m * dt for m in (*range(0, n_steps, sample_stride), n_steps)]
    if tail:
        times.append(t_end)
    else:
        times[-1] = t_end
        remainder = 0.0
    stride = min(sample_stride, n_steps)
    count, rest = divmod(n_steps, stride) if n_steps else (0, 0)

    frame = me.frame

    labels = []
    # Row 0 reads the trace; row k reads Tr(op_k rho) = to_hermitian(op_k) . x,
    # with op_k taken into the frame the state evolves in.
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
        readout.append(to_hermitian(frame.rotate(op)))
    readout = np.array(readout)

    # Each block's coordinates advance in place; the blocks never mix, so a
    # block that starts at exactly zero stays there and reads zero, and only
    # the others are assembled, sparse and straight from the operators.
    x = to_hermitian(frame.rotate(rho0))
    live = [idx for idx in frame.blocks if x[idx].any()]
    blocks = sparse_hermitian_blocks(
        frame.hamiltonian, [frame.rotate(c) for c in me.collapse_ops], live
    )
    if not all(np.isfinite(block.data).all() for block in blocks):
        raise IntegrationError(
            "generator entries are not finite: the rates overflow double precision"
        )
    readings = 0.0
    for idx, generator in zip(live, blocks):
        block_readings, x[idx] = _advance(
            generator, idx, readout, x[idx], dt, stride, count, rest, remainder
        )
        readings = readings + block_readings

    for t, row in zip(times, readings):
        drift = abs(row[0] - 1.0)
        # Written so that a NaN drift, from a state that overflowed, fails too.
        if not drift <= TRACE_ABORT:
            raise IntegrationError(
                f"trace drifted by {drift:.3e} at t={t:g}; "
                "the propagated state overflowed or is not a number"
            )
        for k in guarded:
            if not -POPULATION_SLACK <= row[k + 1] <= 1.0 + POPULATION_SLACK:
                raise IntegrationError(
                    f"population {labels[k]!r} = {float(row[k + 1])!r} out of range at t={t:g}"
                )

    final_state = frame.rotate(from_hermitian(x))
    # The rotation leaves a rounding-sized anti-Hermitian part.
    final_state = (final_state + final_state.conj().T) / 2.0
    return Trajectory(
        times=np.array(times),
        records={lb: readings[:, k + 1] for k, lb in enumerate(labels)},
        final_state=final_state,
        final_report=validate_density_matrix(final_state, INTEGRATION_TOL),
    )
