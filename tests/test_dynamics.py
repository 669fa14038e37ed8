import math
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from zenocav import (
    IntegrationError,
    evolve,
    initial_density_matrix,
    liouvillian,
    named_state,
    resolve_config,
)
import zenocav.dynamics as dynamics
import zenocav.operators as operators
from zenocav.dynamics import Trajectory, rk4_propagator
from zenocav.models import ModelParams, Variant, build_model
from zenocav.operators import parity_frame, sparse_hermitian_blocks, vectorize

from conftest import (
    count_blas_calls,
    damping_model,
    random_density_matrix,
    symmetric_open_systems,
    toy_model,
    traced_peak,
)

P0 = np.diag([1.0, 0.0])
P1 = np.diag([0.0, 1.0])
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def naive_rk4(liouv, vec, dt, steps):
    """Textbook RK4 on the vectorized equation, one matrix-vector at a time."""

    def f(v):
        return liouv @ v

    for _ in range(steps):
        k1 = f(vec)
        k2 = f(vec + 0.5 * dt * k1)
        k3 = f(vec + 0.5 * dt * k2)
        k4 = f(vec + dt * k3)
        vec = vec + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return vec


# -- propagator ------------------------------------------------------------------


def test_propagator_matches_naive_stepper(rng):
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = h + h.conj().T
    c = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    liouv = liouvillian(h, [0.3 * c])
    vec = vectorize(random_density_matrix(rng, 3))
    dt = 0.01
    stepped = naive_rk4(liouv, vec.copy(), dt, 10)
    powered = np.linalg.matrix_power(rk4_propagator(liouv, dt), 10) @ vec
    assert np.max(np.abs(stepped - powered)) < 1e-12


def test_propagator_taylor_coefficients():
    # On a nilpotent generator the degree-4 Taylor sum is exact and finite.
    n = np.zeros((5, 5))
    n[np.arange(4), np.arange(4) + 1] = 1.0
    prop = rk4_propagator(n, 1.0)
    expected = np.eye(5) + n + n @ n / 2 + n @ n @ n / 6 + n @ n @ n @ n / 24
    assert np.max(np.abs(prop - expected)) < 1e-15


def test_propagator_holds_one_product():
    # a = dt L, the Horner accumulator and one product: 3 generator sizes.
    me = build_model(resolve_config("fig1c").params)
    liouv = liouvillian(me.hamiltonian, me.collapse_ops)
    _, peak = traced_peak(rk4_propagator, liouv, 0.002)
    assert peak <= 3.25 * liouv.nbytes


@pytest.mark.parametrize(
    "preset, t_end, stride, bound",
    [
        pytest.param("fig1c", None, None, 0.35, id="stride"),
        pytest.param("fig1c", 10.001, None, 0.35, id="remainder"),
        pytest.param("fig4c", None, None, 1.1, id="one-block-stride"),
        pytest.param("fig4c", 10.001, None, 1.1, id="one-block-remainder"),
        pytest.param("fig4c", 12.0, 700, 1.1, id="one-block-rest"),
    ],
)
def test_evolve_memory_peak(preset, t_end, stride, bound):
    # In complex generator sizes, though none is built: the blocks come
    # sparse from the operators.  A dense propagator of one block is half
    # that size, and at most two are alive, the squaring's operand and its
    # product, since the stride propagator is squared into the giant step by
    # rebinding it.  The remainder interval and the units after the last
    # whole stride act on the final state as Taylor actions, with no
    # propagator.  fig4c (klm_full) has no symmetry and evolves as one block
    # (measured 1.08); fig1c evolves in two parity blocks of about a quarter
    # of that each (0.32).
    config = resolve_config(preset)
    run, params = config.run, config.params
    me = build_model(params)
    rho0 = initial_density_matrix(run.initial_state, params)
    target = named_state("S", params).projector
    traj, peak = traced_peak(
        evolve, me, rho0, t_end or run.t_end, run.dt, [("P_S", target)],
        stride or run.sample_stride,
    )
    assert traj.final_report.passed
    assert peak <= bound * params.dim**4 * 16


@pytest.mark.parametrize("preset", ["fig1c", "fig4c"])
def test_evolve_builds_no_complex_generator(monkeypatch, preset):
    # The blocks come sparse from the operators: wherever a zenocav module
    # holds the dense assembly or the block writer, calling it fails.
    dense = (operators.liouvillian, operators.hermitian_blocks)

    def poisoned(*args, **kwargs):
        raise AssertionError("dense generator assembled")

    for name, module in list(sys.modules.items()):
        if name == "zenocav" or name.startswith("zenocav."):
            for attr, value in list(vars(module).items()):
                if any(value is func for func in dense):
                    monkeypatch.setattr(module, attr, poisoned)
    config = resolve_config(preset)
    params = config.params
    me = build_model(params)
    rho0 = initial_density_matrix(config.run.initial_state, params)
    traj = evolve(me, rho0, 1.0, 0.002, [("P_S", named_state("S", params).projector)], 50)
    assert traj.final_report.passed
    with pytest.raises(AssertionError, match="dense generator"):
        operators.liouvillian(me.hamiltonian, me.collapse_ops)


@pytest.mark.parametrize(
    "preset, t_end, stride, calls",
    [
        # Per block: the 3 squarings of the stride propagator exp(M) (its
        # Taylor products are sparse), 15 baby-step rows, 4 squarings for
        # P^16 and the grid (gemm), and one state product (gemv) for each
        # of the 8 lead strides and the 2 giant steps; fig1c has two
        # blocks, and its final state takes two products back out of the
        # parity basis.
        pytest.param("fig1c", 40.0, 500, {"gemm": 48, "gemv": 20}, id="fig1c"),
        # One block: the stride propagator exp(1.4 M) (4 squarings), 15
        # rows, P^16 (4) and the grid; 12 lead strides and 1 giant step;
        # then the rest and the remainder interval act on the final state by
        # sparse products only, and each is read by one gemv.
        pytest.param("fig4c", 40.001, 700, {"gemm": 24, "gemv": 15}, id="fig4c-rest-remainder"),
    ],
)
def test_evolve_products_run_on_scipy_blas(monkeypatch, preset, t_end, stride, calls):
    # Every dense product goes through the BLAS routines scipy's own LAPACK
    # calls use, each operand Fortran-ordered and of the routine's type, so
    # that f2py copies none; numpy's matrix_power is not called.
    config = resolve_config(preset)
    params = config.params
    me = build_model(params)
    rho0 = initial_density_matrix(config.run.initial_state, params)
    seen = {}

    def poisoned(*args, **kwargs):
        raise AssertionError("np.linalg.matrix_power called")

    monkeypatch.setattr(np.linalg, "matrix_power", poisoned)
    count_blas_calls(monkeypatch, seen)
    traj = evolve(
        me, rho0, t_end, config.run.dt, [("P_S", named_state("S", params).projector)], stride
    )
    assert traj.final_report.passed
    assert seen == calls


@pytest.mark.parametrize(
    "preset, phi, sizes",
    [("fig1c", None, [369, 360]), ("fig4c", None, [729]), ("fig1c", 0.5, [729])],
    ids=["fig1c-parity-blocks", "fig4c-klm", "fig1c-phi0.5"],
)
def test_evolve_propagates_each_parity_block(monkeypatch, preset, phi, sizes):
    # bell_full at phi = pi evolves its even and odd blocks on their own;
    # klm_full and a drive phase that breaks the symmetry stay one block.
    config = resolve_config(preset)
    params = config.params if phi is None else replace(config.params, phi=phi)
    me = build_model(params)
    rho0 = initial_density_matrix(config.run.initial_state, params)
    shapes = []

    real = dynamics._exponential

    def recording(generator, tau):
        shapes.append(generator.shape)
        return real(generator, tau)

    monkeypatch.setattr(dynamics, "_exponential", recording)
    evolve(me, rho0, 1.0, 0.002, [("P_S", named_state("S", params).projector)], 50)
    assert shapes == [(n, n) for n in sizes]


def test_block_that_starts_at_zero_is_skipped(monkeypatch):
    # fig2a starts in g00, so its odd block's coordinates are exactly zero:
    # only the 369 even block is propagated, and the result is that of the
    # whole generator.
    config = resolve_config("fig2a")
    run, params = config.run, config.params
    me = build_model(params)
    rho0 = initial_density_matrix(run.initial_state, params)
    observables = [(label, named_state(label, params).projector) for label in ("g00", "T", "S")]
    real = dynamics._exponential
    shapes = []

    def recording(generator, tau):
        shapes.append(generator.shape)
        return real(generator, tau)

    monkeypatch.setattr(dynamics, "_exponential", recording)
    blocks = evolve(me, rho0, run.t_end, run.dt, observables, run.sample_stride)
    assert shapes == [(369, 369)]
    whole = evolve(replace(me, symmetry=None), rho0, run.t_end, run.dt, observables, run.sample_stride)
    for label, _ in observables:
        assert np.max(np.abs(blocks.records[label] - whole.records[label])) <= 1e-10
    assert np.max(np.abs(blocks.final_state - whole.final_state)) <= 1e-10


def test_damping_error_is_at_rounding_level():
    # The propagator is exact up to rounding, so no error depends on dt; it
    # measured 0.0 at both.
    gamma, t_end = 1.0, 2.0
    me = damping_model(gamma)
    rho0 = P1.astype(complex)
    exact = math.exp(-gamma * t_end)
    for dt in (0.2, 0.1):
        traj = evolve(me, rho0, t_end, dt, [("P1", P1)], sample_stride=10 ** 9)
        assert abs(traj.value("P1") - exact) <= 1e-15


def _block_generators(preset):
    me = build_model(resolve_config(preset).params)
    frame = me.frame
    operators = frame.hamiltonian, [frame.rotate(c) for c in me.collapse_ops]
    return [block.toarray() for block in sparse_hermitian_blocks(*operators, frame.blocks)]


@pytest.mark.parametrize("tau", [0.001, 1.0, 16.0])
@pytest.mark.parametrize("preset", ["fig1c", "fig4c", "zero"])
def test_exponential_matches_expm(preset, tau):
    # fig1c's even block (369) and fig4c's one block (729), where the tau
    # take no squaring, 3 and 7; a zero generator takes none at any tau.
    # The Taylor action on two columns and on one, which takes 1, 7 and 128
    # steps at fig4c, is held to the same bound relative to its result.
    block = np.zeros((5, 5)) if preset == "zero" else _block_generators(preset)[0]
    generator = scipy.sparse.csr_array(block)
    exact = scipy.linalg.expm(tau * block)
    result = dynamics._exponential(generator, tau)
    assert result.flags.c_contiguous
    assert np.max(np.abs(result - exact)) <= 1e-12
    rng = np.random.default_rng(7)
    for x in (rng.normal(size=(block.shape[0], 2)), rng.normal(size=block.shape[0])):
        expected = exact @ x
        action = dynamics._exponential_action(generator, tau, x)
        assert np.max(np.abs(action - expected)) <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize(
    "preset, t_end, stride",
    [
        pytest.param("fig1c", 200.0, None, id="fig1c"),
        pytest.param("fig4c", 200.0, None, id="fig4c"),
        # A last sample 0.001 after the last whole stride, and one 400 units
        # of dt after it: the Taylor actions of the remainder and the rest.
        pytest.param("fig4c", 10.001, None, id="fig4c-remainder"),
        pytest.param("fig4c", 12.0, 700, id="fig4c-rest"),
    ],
)
def test_evolve_matches_dense_expm(preset, t_end, stride):
    # The reference raises a dense expm of the whole complex generator over
    # each sample interval on the column-stacked state.
    config = resolve_config(preset)
    run, params = config.run, config.params
    me = build_model(params)
    rho0 = initial_density_matrix(run.initial_state, params)
    observables = [(label, named_state(label, params).projector) for label in ("g00", "g11", "T", "S")]
    traj = evolve(me, rho0, t_end, run.dt, observables, stride or run.sample_stride)
    liouv = liouvillian(me.hamiltonian, me.collapse_ops)
    steps = {}
    rows = np.array([vectorize(op.conj()) for _, op in observables])
    vec = vectorize(rho0)
    expected = [rows @ vec]
    for interval in np.diff(traj.times).round(12):
        if interval not in steps:
            steps[interval] = scipy.linalg.expm(interval * liouv)
        vec = steps[interval] @ vec
        expected.append(rows @ vec)
    records = np.array([traj.records[label] for label, _ in observables]).T
    assert np.max(np.abs(records - np.real(expected))) <= 1e-12


# -- evolve ---------------------------------------------------------------------


def test_zero_generator_keeps_state(rng):
    me = toy_model(np.zeros((2, 2)))
    rho0 = random_density_matrix(rng, 2)
    traj = evolve(me, rho0, 5.0, 0.5, [("P0", P0)])
    assert np.ptp(traj.records["P0"]) == 0.0
    assert np.max(np.abs(traj.final_state - rho0)) < 1e-12


def test_amplitude_damping_analytic_curve():
    gamma = 0.8
    me = damping_model(gamma)
    traj = evolve(me, P1.astype(complex), 2.0, 0.001, [("P1", P1)], sample_stride=100)
    expected = np.exp(-gamma * traj.times)
    assert np.max(np.abs(traj.records["P1"] - expected)) < 1e-9
    assert traj.final_report.passed


def test_coherence_decays_at_half_rate():
    gamma = 0.8
    me = damping_model(gamma)
    plus = np.full((2, 2), 0.5, dtype=complex)
    traj = evolve(me, plus, 2.0, 0.001, [("X", SIGMA_X)], sample_stride=100)
    # <sigma_x> = 2 Re rho_01 decays at gamma / 2.
    expected = np.exp(-0.5 * gamma * traj.times)
    assert np.max(np.abs(traj.records["X"] - expected)) < 1e-9


def test_zero_duration_records_initial_point(rng):
    me = toy_model(np.zeros((2, 2)))
    rho0 = random_density_matrix(rng, 2)
    traj = evolve(me, rho0, 0.0, 0.1, [("P0", P0)])
    assert traj.times.tolist() == [0.0]
    assert traj.value("P0") == pytest.approx(rho0[0, 0].real)
    assert traj.final_report.passed


def test_partial_final_step():
    gamma = 1.0
    traj = evolve(damping_model(gamma), P1.astype(complex), 1.05, 0.1, [("P1", P1)])
    assert traj.times[-1] == pytest.approx(1.05, abs=1e-12)
    assert len(traj.times) == 12  # initial + 10 full steps + remainder
    assert traj.value("P1") == pytest.approx(math.exp(-1.05), abs=1e-6)


def test_sampling_grid_with_stride():
    me = toy_model(np.zeros((2, 2)))
    traj = evolve(me, P0.astype(complex), 1.0, 0.1, [], sample_stride=3)
    assert np.allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0], atol=1e-12)


def test_stride_longer_than_run():
    me = toy_model(np.zeros((2, 2)))
    traj = evolve(me, P0.astype(complex), 1.0, 0.1, [], sample_stride=1000)
    assert np.allclose(traj.times, [0.0, 1.0], atol=1e-12)


def test_records_match_trace_at_ends(rng):
    me = damping_model(0.5)
    rho0 = random_density_matrix(rng, 2)
    ops = [("P1", P1), ("X", SIGMA_X)]
    traj = evolve(me, rho0, 1.0, 0.01, ops, sample_stride=20)
    for label, op in ops:
        assert traj.records[label][0] == pytest.approx(np.trace(op @ rho0).real, abs=1e-14)
        assert traj.value(label) == pytest.approx(
            np.trace(op @ traj.final_state).real, abs=1e-14
        )


def test_large_dt_is_exact():
    # dt only spaces the samples: at dt = 10 the records are exp(-t), where a
    # fixed-step integrator would leave [0, 1].  The population guard is
    # covered by test_population_guard_fires_on_negative_rate_dissipator.
    traj = evolve(damping_model(1.0), P1.astype(complex), 30.0, 10.0, [("P1", P1)])
    assert traj.records["P1"] == pytest.approx(np.exp(-traj.times), rel=1e-13)
    assert traj.final_report.passed


def test_rejects_non_state_input():
    me = toy_model(np.zeros((2, 2)))
    not_normalized = np.diag([1.0, 1.0]).astype(complex)
    with pytest.raises(ValueError, match="density matrix"):
        evolve(me, not_normalized, 1.0, 0.1, [])
    with pytest.raises(ValueError, match="shape"):
        evolve(me, np.eye(3, dtype=complex) / 3.0, 1.0, 0.1, [])


def test_evolve_rejects_non_hermitian_observable():
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="'lower' is not Hermitian"):
        evolve(damping_model(0.5), P1.astype(complex), 1.0, 0.1, [("P1", P1), ("lower", lower)])


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["dt", "t_end"])
def test_rejects_non_finite_run_parameters(rng, name, value):
    run = {"t_end": 1.0, "dt": 0.1, name: value}
    rho0 = random_density_matrix(rng, 2)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        evolve(damping_model(0.5), rho0, run["t_end"], run["dt"], [("P1", P1)])


@st.composite
def small_runs(draw):
    """A random model at dims 2-4 with 0-3 channels, a random state and schedule."""
    dim = draw(st.integers(2, 4))
    entries = st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False)
    square = hnp.arrays(complex, (dim, dim), elements=entries)
    a, w, obs = draw(square), draw(square), draw(square)
    rho0 = w @ w.conj().T + 1e-3 * np.eye(dim)
    me = toy_model(a + a.conj().T, draw(st.lists(square, max_size=3)))
    fraction = draw(st.one_of(st.just(0.0), st.floats(0.05, 0.95)))
    run = draw(st.integers(0, 200)), draw(st.integers(1, 12)), fraction
    return me, rho0 / np.trace(rho0).real, obs + obs.conj().T, run


@given(small_runs())
def test_evolve_matches_naive_stepper(system):
    # fraction is the final partial step, in units of dt.
    me, rho0, obs, (steps, stride, fraction) = system
    dt = 0.005
    t_end = (steps + fraction) * dt
    traj = evolve(me, rho0, t_end, dt, [("I", np.eye(me.dim)), ("O", obs)], stride)
    liouv = liouvillian(me.hamiltonian, me.collapse_ops)
    times = [*(dt * m for m in range(0, steps, stride)), steps * dt]
    if fraction:
        times.append(t_end)
    expected = []
    for t in times:
        vec = scipy.linalg.expm(t * liouv) @ vectorize(rho0)
        expected.append(np.trace(obs @ vec.reshape(rho0.shape, order="F")).real)
    assert len(traj.times) == len(expected)
    assert np.max(np.abs(traj.records["O"] - expected)) <= 1e-10
    assert np.max(np.abs(traj.records["I"] - 1.0)) <= 1e-12
    assert np.max(np.abs(traj.final_state - vec.reshape(rho0.shape, order="F"))) <= 1e-10
    assert abs(np.trace(traj.final_state) - 1.0) <= 1e-12


@given(symmetric_open_systems(), st.integers(0, 200), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_parity_blocks_evolve_like_one_block(me, steps, stride, seed):
    rng = np.random.default_rng(seed)
    rho0 = random_density_matrix(rng, me.dim)
    obs = rng.normal(size=(me.dim, me.dim)) + 1j * rng.normal(size=(me.dim, me.dim))
    observables = [("I", np.eye(me.dim)), ("O", obs + obs.conj().T)]
    dt = 0.001
    assert len(parity_frame(me.hamiltonian, me.collapse_ops, me.symmetry).blocks) == 2
    blocks = evolve(me, rho0, steps * dt, dt, observables, stride)
    whole = evolve(replace(me, symmetry=None), rho0, steps * dt, dt, observables, stride)
    for label, _ in observables:
        assert np.max(np.abs(blocks.records[label] - whole.records[label])) <= 1e-10
    assert np.max(np.abs(blocks.final_state - whole.final_state)) <= 1e-10
    assert np.array_equal(blocks.final_state, blocks.final_state.conj().T)


def test_trace_guard_fires_on_nan():
    # A NaN in the propagator of a finite generator, as from a power that
    # overflowed, gives NaN readings; no projector is recorded, so the trace
    # guard alone must catch them.
    real = dynamics._exponential

    def poisoned(generator, tau):
        prop = real(generator, tau)
        prop[0, 0] = np.nan
        return prop

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_exponential", poisoned)
        with pytest.raises(IntegrationError, match=r"trace drifted by nan at t=\d"):
            evolve(damping_model(0.5), P1.astype(complex), 1.0, 0.01, [("X", SIGMA_X)])


def test_non_finite_generator_is_named():
    # Finite operators whose generator overflows: no choice of dt can mend
    # that, so the error names the generator, before any propagator.
    decay = np.array([[0.0, 1.0], [0.0, 0.0]])
    me = toy_model(np.diag([1e308, -1e308]), [decay])
    # The entries overflow in scipy.sparse's compiled sums, which warn of
    # nothing.
    with pytest.raises(IntegrationError, match="generator entries are not finite"):
        evolve(me, P1.astype(complex), 1.0, 0.01, [("P1", P1)])


@st.composite
def lowering_jumps(draw):
    """sqrt(rate) |lower><upper| between random levels at dims 2-4, rate 0.5-5."""
    dim = draw(st.integers(2, 4))
    upper, lower = draw(st.permutations(range(dim)))[:2]
    rate = draw(st.floats(0.5, 5.0))
    jump = np.zeros((dim, dim))
    jump[lower, upper] = math.sqrt(rate)
    return jump, upper, rate


@given(lowering_jumps())
def test_population_guard_fires_on_negative_rate_dissipator(system):
    # -D[L] keeps the trace, so the trace guard stays quiet, but it pumps
    # the level L lowers from past population 1; +D[L] is a physical decay.
    jump, upper, rate = system
    dim = jump.shape[0]
    projector = np.zeros((dim, dim))
    projector[upper, upper] = 1.0
    label = f"P{upper}"
    me = toy_model(np.zeros((dim, dim)), [jump])

    def run():
        return evolve(me, projector.astype(complex), 1.0, 0.01, [(label, projector)])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            dynamics,
            "sparse_hermitian_blocks",
            lambda *args: [-block for block in sparse_hermitian_blocks(*args)],
        )
        with pytest.raises(IntegrationError, match=rf"population '{label}' = .* at t=\d"):
            run()
    assert run().value(label) == pytest.approx(math.exp(-rate), rel=1e-6)


def test_rejects_bad_run_parameters(rng):
    me = toy_model(np.zeros((2, 2)))
    rho0 = random_density_matrix(rng, 2)
    with pytest.raises(ValueError, match="dt"):
        evolve(me, rho0, 1.0, 0.0, [])
    with pytest.raises(ValueError, match="t_end"):
        evolve(me, rho0, -1.0, 0.1, [])
    with pytest.raises(ValueError, match="sample_stride"):
        evolve(me, rho0, 1.0, 0.1, [], sample_stride=0)
    with pytest.raises(ValueError, match="observable"):
        evolve(me, rho0, 1.0, 0.1, [("bad", np.eye(3))])


def test_singlet_pumping_reaches_target():
    p = ModelParams(
        omega=0.1, omega_mw=0.05, delta=0.02, gamma=0.1, kappa=0.0,
        variant=Variant.BELL_EFFECTIVE,
    )
    me = build_model(p)
    rho0 = named_state("g00", p).projector
    target = named_state("S", p).projector
    traj = evolve(me, rho0, 1500.0, 0.01, [("P_S", target)], sample_stride=10000)
    assert traj.records["P_S"][0] == pytest.approx(0.0, abs=1e-12)
    assert traj.value("P_S") > 0.99
    assert traj.final_report.passed


# -- trajectories ----------------------------------------------------------------


def test_csv_round_trip(tmp_path, rng):
    me = damping_model(0.5)
    rho0 = random_density_matrix(rng, 2)
    traj = evolve(me, rho0, 1.0, 0.01, [("P0", P0), ("P1", P1)], sample_stride=25)
    path = tmp_path / "run.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# units: g = 1; time in 1/g"
    assert lines[1] == "time,P0,P1"
    assert len(lines) == 2 + len(traj.times)
    last = [float(x) for x in lines[-1].split(",")]
    assert last[0] == pytest.approx(traj.times[-1], abs=1e-10)
    assert last[1] == pytest.approx(traj.value("P0"), abs=1e-10)
    assert last[2] == pytest.approx(traj.value("P1"), abs=1e-10)


def test_trajectory_value_indexing():
    times = np.array([0.0, 1.0])
    records = {"P": np.array([0.25, 0.75])}
    traj = Trajectory(
        times=times,
        records=records,
        final_state=np.eye(2) / 2,
        final_report=None,
    )
    assert traj.labels == ("P",)
    assert traj.value("P", 0) == 0.25
    assert traj.value("P") == 0.75
