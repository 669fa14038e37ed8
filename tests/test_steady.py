import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from zenocav import (
    DegenerateSteadyStateError,
    SteadyStateNumericsError,
    ModelParams,
    Variant,
    build_model,
    evolve,
    liouvillian,
    named_state,
    resolve_config,
    steady_state,
)
import zenocav.steady as steady_mod
from zenocav.operators import devectorize, hermiticity_defect, vectorize
from zenocav.steady import NULLSPACE_TOL_SCALE, nullspace_dimension

from conftest import (
    count_blas_calls,
    damping_model,
    random_density_matrix,
    symmetric_open_systems,
    toy_model,
    traced_peak,
)


def bell_effective_params(**overrides):
    base = dict(omega=0.1, omega_mw=0.05, delta=0.02, gamma=0.1, kappa=0.0)
    base.update(overrides)
    return ModelParams(variant=Variant.BELL_EFFECTIVE, **base)


# -- reference solutions ------------------------------------------------------------


def test_amplitude_damping_ground_state():
    result = steady_state(damping_model(0.7))
    assert np.max(np.abs(result.rho - np.diag([1.0, 0.0]))) < 1e-12
    assert result.method == "trace_replacement"
    assert result.residual < 1e-9
    assert result.rcond > 1e-13


def test_singlet_pumping_stationary_state():
    p = bell_effective_params()
    result = steady_state(build_model(p))
    target = named_state("S", p).projector
    assert np.max(np.abs(result.rho - target)) < 1e-6
    assert result.rho[2, 2].real > 1.0 - 1e-6


def test_detuning_insensitivity_of_target():
    # The stationary state stays pinned to the singlet across a detuning range.
    for mult in (0.5, 1.0, 1.5, 2.0):
        p = bell_effective_params(delta=mult * 0.05)
        result = steady_state(build_model(p))
        target = named_state("S", p).projector
        assert np.max(np.abs(result.rho - target)) < 1e-9


def test_full_model_steady_population(weak_drive_params):
    me = build_model(weak_drive_params)
    result = steady_state(me)
    target = named_state("S", weak_drive_params).projector
    population = np.trace(target @ result.rho).real
    assert population >= 0.90
    assert result.residual < 1e-9


def test_asymmetric_target_stationary_state():
    p = ModelParams(
        omega=0.05, omega_mw=0.025, delta=0.025, gamma=0.1, kappa=0.0,
        variant=Variant.KLM_EFFECTIVE,
    )
    result = steady_state(build_model(p))
    target = named_state("t2", p).projector
    assert np.max(np.abs(result.rho - target)) < 1e-9


# -- degeneracy ---------------------------------------------------------------------


def test_zero_detuning_is_degenerate():
    p = bell_effective_params(delta=0.0)
    me = build_model(p)
    # Two independent stationary states by direct substitution: the target
    # projector and the projector of the decoupled ground superposition.
    liouv = liouvillian(me.hamiltonian, me.collapse_ops)
    singlet = named_state("S", p).projector
    dark = (named_state("g00", p).vector - named_state("g11", p).vector) / math.sqrt(2)
    dark_proj = np.outer(dark, dark.conj())
    assert np.max(np.abs(liouv @ vectorize(singlet))) < 1e-14
    assert np.max(np.abs(liouv @ vectorize(dark_proj))) < 1e-14

    assert nullspace_dimension(me) >= 2
    with pytest.raises(DegenerateSteadyStateError) as excinfo:
        steady_state(me)
    assert excinfo.value.dimension >= 2


def test_zero_generator_nullspace():
    me = toy_model(np.zeros((3, 3)))
    assert nullspace_dimension(me) == 9


def test_unitary_generator_is_degenerate():
    # Any state diagonal in the Hamiltonian eigenbasis is stationary.
    me = toy_model(np.diag([0.0, 1.0]))
    assert nullspace_dimension(me) >= 2
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(me)


def test_nullspace_of_unique_case():
    models = [damping_model(0.5)] + [
        build_model(resolve_config(name).params.with_variant(variant))
        for name in ("preset1", "preset2", "preset3")
        for variant in (Variant.BELL_FULL, Variant.KLM_FULL)
    ]
    for me in models:
        # The solve reports the dimension that the eigenvalue count finds.
        assert steady_state(me).nullspace_dimension == nullspace_dimension(me) == 1


def test_nullspace_dimension_decomposes_each_real_block(monkeypatch):
    # One assembly and one real eigenvalue decomposition per parity block, as
    # on the eigenvector fallback; no decomposition of the complex generator.
    me = build_model(resolve_config("fig3").params)
    calls = {"liouvillian": [], "eig": [], "eigvals": []}
    counting(monkeypatch, steady_mod, "liouvillian", calls["liouvillian"])
    counting(monkeypatch, scipy.linalg, "eig", calls["eig"])
    counting(monkeypatch, scipy.linalg, "eigvals", calls["eigvals"])
    assert nullspace_dimension(me) == 1
    assert len(calls["liouvillian"]) == 1 and calls["eig"] == []
    systems = [args[0] for args in calls["eigvals"]]
    assert [system.shape for system in systems] == [(369, 369), (360, 360)]
    assert all(system.dtype == np.float64 for system in systems)


@given(symmetric_open_systems(), st.booleans())
def test_block_nullspace_count_matches_complex_generator(me, unitary):
    # Without dissipation every projector on an eigenvector of h is
    # stationary, so the count is at least dim and spreads over the blocks
    # when h has degenerate levels of opposite parity.
    if unitary:
        me = replace(me, collapse_ops=())
    liouv = liouvillian(me.hamiltonian, me.collapse_ops)
    norm1 = np.abs(liouv).sum(axis=0).max()
    scale = np.linalg.norm(me.hamiltonian) + sum(np.linalg.norm(c) ** 2 for c in me.collapse_ops)
    # The parity rotation is exact only to rounding in the operators, which
    # swamps a generator far smaller than they are (h near a multiple of the
    # identity), and the two counts' cutoffs, relative to different norms,
    # differ by tens of percent: both need the spectrum well clear of them.
    assume(norm1 >= 1e-4 * scale)
    moduli = np.abs(scipy.linalg.eigvals(liouv))
    assume(not np.any((moduli > 1e-12 * norm1) & (moduli < 1e-8 * norm1)))
    expected = moduli.size if norm1 == 0.0 else int(np.sum(moduli < NULLSPACE_TOL_SCALE * norm1))
    assert nullspace_dimension(me) == expected


# -- numerics -----------------------------------------------------------------------


def test_steady_state_is_stationary_under_evolution(weak_drive_params):
    me = build_model(weak_drive_params)
    result = steady_state(me)
    traj = evolve(me, result.rho, 100.0, 0.002, [], sample_stride=10 ** 9)
    assert np.max(np.abs(traj.final_state - result.rho)) < 1e-8


def test_repaired_state_is_positive(weak_drive_params):
    result = steady_state(build_model(weak_drive_params))
    eigvals = np.linalg.eigvalsh(result.rho)
    # Clipping reconstructs the matrix, so re-diagonalizing can leave
    # negatives at machine-epsilon scale but nothing beyond that.
    assert eigvals.min() >= -1e-14
    assert np.trace(result.rho).real == pytest.approx(1.0, abs=1e-12)
    assert result.clip_magnitude < 1e-9


def test_overflowing_generator_raises_numerics_error(monkeypatch):
    # The operators are finite, but the generator overflows: the norm taken
    # before the LU names that, and the LU itself checks nothing.
    decay = np.array([[0.0, 1.0], [0.0, 0.0]])
    calls = []
    counting(monkeypatch, steady_mod, "lu_factor", calls)
    with pytest.raises(SteadyStateNumericsError, match="overflow double precision"):
        with pytest.warns(RuntimeWarning, match="overflow"):
            steady_state(toy_model(np.diag([1e308, -1e308]), [decay]))
    assert calls == []


def test_eigenvector_fallback_on_feeble_generator():
    # Rates this small defeat the conditioning of the direct solve, but the
    # stationary state is still unique and reachable through the spectrum.
    result = steady_state(damping_model(1e-15))
    assert result.method == "eigenvector"
    assert result.nullspace_dimension == 1
    assert np.max(np.abs(result.rho - np.diag([1.0, 0.0]))) < 1e-9


def test_exactly_singular_dense_block_reaches_the_fallback_through_rcond(monkeypatch):
    # lu_factor warns of an exactly zero pivot rather than raising, and gecon
    # then reads the reciprocal condition as 0.0, which sends the solve to
    # the eigenvector fallback.  Without dissipation the zero generator's one
    # block is exactly singular, its trace row aside.
    system_t = np.asfortranarray([[1.0, 2.0], [2.0, 4.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert steady_mod._factor(system_t)[1] == 0.0
    rconds = []
    real = steady_mod._factor

    def recording(system_t):
        solve, rcond = real(system_t)
        rconds.append(rcond)
        return solve, rcond

    monkeypatch.setattr(steady_mod, "_factor", recording)
    with pytest.raises(DegenerateSteadyStateError) as excinfo:
        steady_state(toy_model(np.zeros((2, 2))))
    assert rconds == [0.0]
    assert excinfo.value.dimension == 4


def counting(monkeypatch, owner, name, calls):
    """Replace owner.name by a wrapper that appends its arguments to calls."""
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def test_eigenvector_fallback_decomposes_once(monkeypatch):
    # The fallback counts the nullspace and picks the state from one eig of
    # the generator.  The factors overwrite the blocks and the complex
    # generator is freed before them, so the fallback assembles it again.
    me = damping_model(1e-15)
    expected = steady_state(me)
    calls = {"liouvillian": [], "eig": [], "eigvals": []}
    counting(monkeypatch, steady_mod, "liouvillian", calls["liouvillian"])
    counting(monkeypatch, scipy.linalg, "eig", calls["eig"])
    counting(monkeypatch, scipy.linalg, "eigvals", calls["eigvals"])
    result = steady_state(me)
    assert {k: len(v) for k, v in calls.items()} == {"liouvillian": 2, "eig": 1, "eigvals": 0}
    assert result.method == expected.method == "eigenvector"
    assert result.nullspace_dimension == expected.nullspace_dimension == 1
    assert np.array_equal(result.rho, expected.rho)


def force_solver(monkeypatch, sparse):
    """Send every model to the sparse (SuperLU) or to the dense (LAPACK) solver."""
    monkeypatch.setattr(steady_mod, "SPARSE_ABOVE", 0 if sparse else math.inf)


# The numpy.linalg functions that call LAPACK; norm's 1-norm does not.
NUMPY_LAPACK = (
    "eigh", "eig", "eigvals", "eigvalsh", "svd", "solve",
    "inv", "lstsq", "qr", "cholesky", "det", "slogdet",
)


def solved_blocks(me):
    return steady_state(me).blocks


@pytest.mark.parametrize(
    "me, run, expected",
    [
        (build_model(resolve_config("fig3").params), solved_blocks, (369, 360)),
        (build_model(resolve_config("fig4c").params), solved_blocks, (729,)),
        (damping_model(1e-15), lambda me: steady_state(me).method, "eigenvector"),
        (damping_model(0.5), nullspace_dimension, 1),
        (
            build_model(replace(resolve_config("preset1").params, n_max=4)),
            solved_blocks,
            (1017, 1008),
        ),
    ],
    ids=[
        "fig3-bell-parity-blocks",
        "fig4c-klm",
        "eigenvector-fallback",
        "nullspace-dimension",
        "preset1-n_max4-sparse",
    ],
)
def test_solve_calls_no_numpy_lapack(monkeypatch, me, run, expected):
    # A pip-installed numpy and scipy each load their own OpenBLAS, two
    # runtimes in one process, each with its own worker threads.  The LU
    # runs on scipy's; a numpy LAPACK call between two solves wakes numpy's
    # workers, which busy-wait on the cores the next LU needs.  Every LAPACK
    # call of the solve therefore goes through scipy.linalg.

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"numpy.linalg.{name} called")

        return call

    for name in NUMPY_LAPACK:
        monkeypatch.setattr(np.linalg, name, refuse(name))
    assert run(me) == expected


def test_solve_products_run_on_scipy_blas(monkeypatch):
    # At dim 72 (n_max = 7) numpy threads its complex products and would
    # wake its own OpenBLAS workers between scipy's factorizations.  Every
    # product of the rotation back out of the parity basis, the positivity
    # repair and the residual is a scipy gemm instead: np.matmul is
    # poisoned, and the count shows that no @ is left.
    me = full_model("preset1", "bell_full", 7)

    def poisoned(*args, **kwargs):
        raise AssertionError("np.matmul called")

    monkeypatch.setattr(np, "matmul", poisoned)
    seen = {}
    count_blas_calls(monkeypatch, seen)
    result = steady_state(me)
    assert result.blocks == (2592, 2592)
    # Two products rotate back, one rebuilds the state from its clipped
    # eigenvalues, and the residual takes two for the Hamiltonian and five
    # for each of the five collapse operators.
    assert seen == {"gemm": 2 + int(result.clip_magnitude > 0) + 2 + 5 * 5}


@pytest.mark.parametrize(
    "params, sizes",
    [
        (resolve_config("fig3").params, (369, 360)),
        (resolve_config("fig4c").params, (729,)),
        (replace(resolve_config("fig3").params, phi=0.5), (729,)),
    ],
    ids=["fig3-bell-parity-blocks", "fig4c-klm", "fig3-bell-phi0.5"],
)
def test_solve_assembles_once_and_factors_each_block(monkeypatch, params, sizes):
    # One generator and one real LU per block: the parity-symmetric bell
    # model at phi = pi splits in two, klm_full and a drive phase that breaks
    # the symmetry stay one block.  The traced benchmark reads its assembly
    # and factor spans from these calls.
    calls = {"liouvillian": [], "lu_factor": []}
    for name, seen in calls.items():
        counting(monkeypatch, steady_mod, name, seen)
    result = steady_state(build_model(params))
    assert result.method == "trace_replacement"
    assert len(calls["liouvillian"]) == 1
    systems = [args[0] for args in calls["lu_factor"]]
    assert all(system.dtype == np.float64 for system in systems)
    assert tuple(system.shape for system in systems) == tuple((n, n) for n in sizes)
    assert result.blocks == sizes


def full_model(name, variant, n_max):
    params = resolve_config(name).params.with_variant(Variant.parse(variant))
    return build_model(replace(params, n_max=n_max))


# The calls that assemble a generator and factor its blocks.
ASSEMBLY_AND_FACTOR = ("liouvillian", "sparse_hermitian_blocks", "lu_factor", "splu")


@pytest.mark.parametrize(
    "model, calls",
    [
        pytest.param(("fig3", "bell_full", 2), (1, 0, 2, 0), id="fig3-dense"),
        pytest.param(("fig4c", "klm_full", 2), (1, 0, 1, 0), id="fig4c-dense"),
        pytest.param(("preset1", "bell_full", 4), (0, 1, 0, 2), id="bell-n_max4-sparse"),
        pytest.param(("preset1", "klm_full", 4), (0, 1, 0, 1), id="klm-n_max4-sparse"),
    ],
)
def test_generator_size_selects_the_solver(monkeypatch, model, calls):
    # Up to dim 27 (729 coordinates) the dense complex generator is built
    # and LAPACK factors its blocks; an n_max = 4 model (dim 45) builds its
    # blocks sparse, with no complex generator, and SuperLU factors them.
    me = full_model(*model)
    seen = {name: [] for name in ASSEMBLY_AND_FACTOR}
    for name in ASSEMBLY_AND_FACTOR:
        counting(monkeypatch, steady_mod, name, seen[name])
    result = steady_state(me)
    assert result.method == "trace_replacement"
    assert tuple(len(seen[name]) for name in ASSEMBLY_AND_FACTOR) == calls
    assert sum(result.blocks) == me.dim**2


@pytest.mark.parametrize("variant", ["bell_full", "klm_full"])
@pytest.mark.parametrize("name", ["fig3", "fig2b", "fig4c", "preset1", "preset2", "preset3"])
def test_sparse_path_matches_dense(monkeypatch, name, variant):
    for n_max in (2, 3, 4, 5):
        me = full_model(name, variant, n_max)
        force_solver(monkeypatch, sparse=True)
        sparse = steady_state(me)
        force_solver(monkeypatch, sparse=False)
        dense = steady_state(me)
        assert sparse.method == dense.method == "trace_replacement"
        assert sparse.blocks == dense.blocks
        assert np.max(np.abs(sparse.rho - dense.rho)) <= 1e-12
        assert sparse.rcond == pytest.approx(dense.rcond, rel=1e-3)


@pytest.mark.parametrize("variant", ["bell_full", "klm_full"])
@pytest.mark.parametrize("name", ["fig2b", "preset1"])
def test_sparse_rcond_bounds_the_exact_condition(monkeypatch, name, variant):
    # onenormest's ||E^-1||_1 is a lower bound, so the estimate is at least
    # the exact 1/(||E||_1 ||E^-1||_1) of the worse block; it equals it to
    # rounding at preset1 and is 3e-4 above it for klm_full at fig2b, as
    # LAPACK's gecon is on the dense blocks.
    force_solver(monkeypatch, sparse=True)
    for n_max in (2, 3, 4):
        me = full_model(name, variant, n_max)
        exact = []
        for k, part in enumerate(steady_mod._real_blocks(me)[1]):
            system = (steady_mod._with_trace_row(part, me.dim) if k == 0 else part).toarray()
            norms = [np.abs(a).sum(axis=0).max() for a in (system, np.linalg.inv(system))]
            exact.append(1.0 / (norms[0] * norms[1]))
        rcond = steady_state(me).rcond
        assert min(exact) * (1 - 1e-12) <= rcond <= min(exact) * (1 + 1e-3)


def sparse_systems(me):
    """The blocks as the sparse path factors them: the even one trace-replaced, both CSC."""
    parts = steady_mod._real_blocks(me)[1]
    return [
        (steady_mod._with_trace_row(part, me.dim) if k == 0 else part).tocsc()
        for k, part in enumerate(parts)
    ]


@pytest.mark.parametrize("variant", ["bell_full", "klm_full"])
@pytest.mark.parametrize("name", ["preset1", "preset2", "preset3"])
def test_sparse_solve_is_backward_stable(name, variant):
    # SuperLU's symmetric mode keeps diagonal pivots down to a hundredth of
    # their column, with element growth max|U|/max|E| up to 1e3 on these
    # blocks; its solves alone leave normwise backward errors up to 1.8e-15.
    # The one refinement step of every solve brings them under 1.4e-17,
    # below the 2.1e-17 of partial pivoting without refinement.
    rng = np.random.default_rng(0)
    for n_max in (3, 4, 5):
        for system in sparse_systems(full_model(name, variant, n_max)):
            solve, _ = steady_mod._sparse_factor(system)
            state_rhs = np.zeros(system.shape[0])
            state_rhs[0] = 1.0
            for b in (state_rhs, rng.standard_normal(system.shape[0])):
                x = solve(b)
                scale = abs(system).sum(axis=1).max() * np.abs(x).max()
                assert np.abs(system @ x - b).max() <= 1e-16 * scale


def test_sparse_factor_fill(monkeypatch):
    # Minimum degree on A^T + A with diagonal pivots: 0.98M nonzeros in L + U
    # for preset1 klm_full at n_max = 5 (one block of 2916), where COLAMD
    # with partial pivoting fills 1.56M.
    factors = []
    real = steady_mod.splu

    def recording(*args, **kwargs):
        factors.append(real(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(steady_mod, "splu", recording)
    assert steady_state(full_model("preset1", "klm_full", 5)).blocks == (2916,)
    assert sum(lu.L.nnz + lu.U.nnz for lu in factors) < 1_200_000


def test_model_without_symmetry_is_one_block(weak_drive_params):
    me = replace(build_model(weak_drive_params), symmetry=None)
    assert steady_state(me).blocks == (me.dim**2,)
    assert steady_state(damping_model(0.7)).blocks == (4,)


PARITY_CASES = [
    (name, n_max)
    for name in ("fig3", "fig2b", "preset1", "preset2", "preset3")
    for n_max in (2, 3, 4)
] + [("preset1", 5)]


@pytest.mark.parametrize("name, n_max", PARITY_CASES)
def test_parity_blocks_match_single_block(name, n_max):
    params = replace(resolve_config(name).params.with_variant(Variant.BELL_FULL), n_max=n_max)
    me = build_model(params)
    blocks = steady_state(me)
    whole = steady_state(replace(me, symmetry=None))
    assert len(blocks.blocks) == 2 and sum(blocks.blocks) == me.dim**2
    assert whole.blocks == (me.dim**2,)
    assert np.max(np.abs(blocks.rho - whole.rho)) <= 1e-12


def swap_symmetric_toy(h, collapse_ops):
    """A dim-2 toy model with the exchange symmetry U = swap of |0>, |1>."""
    return replace(toy_model(h, collapse_ops), symmetry=([1, 0], [1, 1]))


def test_rotation_keeps_the_identity_exact():
    # h = I + eps sigma_x with no dissipation: the generator is -i eps
    # [sigma_x, .], two zero and two +-2i eps eigenvalues.  Rotated with two
    # products by 1/sqrt2, I picked up rounding far above eps, and the blocks
    # counted four; the signed half-sums keep I exact.
    eps = 2.35e-38
    h = np.eye(2) + eps * np.array([[0.0, 1.0], [1.0, 0.0]])
    me = swap_symmetric_toy(h, [])
    moduli = np.abs(scipy.linalg.eigvals(liouvillian(h, [])))
    norm1 = np.abs(liouvillian(h, [])).sum(axis=0).max()
    assert int(np.sum(moduli <= NULLSPACE_TOL_SCALE * norm1)) == 2
    assert nullspace_dimension(me) == 2
    frame = me.frame
    assert len(frame.blocks) == 2
    assert np.array_equal(frame.rotate(np.eye(2)), np.eye(2))


def test_odd_block_degeneracy_is_not_missed(monkeypatch):
    # Pure dephasing along sigma_z, which the swap maps to -sigma_z: the even
    # block (populations of |+>, |->) is nonsingular after trace replacement,
    # but the odd block holds the second stationary state |0><0| - |1><1|.
    gamma = 0.3
    sigma_z = np.diag([1.0, -1.0])
    me = swap_symmetric_toy(np.zeros((2, 2)), [math.sqrt(gamma) * sigma_z])
    calls = []
    counting(monkeypatch, steady_mod, "lu_factor", calls)
    with pytest.raises(DegenerateSteadyStateError) as excinfo:
        steady_state(me)
    assert [args[0].shape for args in calls] == [(2, 2), (2, 2)]
    assert excinfo.value.dimension == nullspace_dimension(me) == 2
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(replace(me, symmetry=None))


def test_eigenvector_fallback_on_parity_blocks(monkeypatch):
    # Feeble decay both ways between |0> and |1>, which the swap exchanges:
    # the blocks are too ill-conditioned to solve, and the fallback's state,
    # found in the parity basis with one eig per block, comes back as the
    # unique I/2.
    rate = math.sqrt(1e-15)
    lower = np.array([[0.0, rate], [0.0, 0.0]])
    calls = []
    counting(monkeypatch, scipy.linalg, "eig", calls)
    result = steady_state(swap_symmetric_toy(np.zeros((2, 2)), [lower, lower.T]))
    assert [args[0].shape for args in calls] == [(2, 2), (2, 2)]
    assert result.blocks == (2, 2)
    assert result.method == "eigenvector"
    assert result.nullspace_dimension == 1
    assert np.max(np.abs(result.rho - np.eye(2) / 2)) < 1e-9


def test_sparse_path_finds_odd_block_degeneracy(monkeypatch):
    # test_odd_block_degeneracy_is_not_missed's model on SuperLU: the odd
    # block's second stationary state is found there too, and no complex
    # generator is assembled.
    sigma_z = np.diag([1.0, -1.0])
    me = swap_symmetric_toy(np.zeros((2, 2)), [math.sqrt(0.3) * sigma_z])
    force_solver(monkeypatch, sparse=True)
    calls = {"liouvillian": [], "lu_factor": [], "splu": []}
    for name, seen in calls.items():
        counting(monkeypatch, steady_mod, name, seen)
    with pytest.raises(DegenerateSteadyStateError) as excinfo:
        steady_state(me)
    assert [args[0].shape for args in calls["splu"]] == [(2, 2), (2, 2)]
    assert calls["lu_factor"] == []
    assert excinfo.value.dimension == nullspace_dimension(me) == 2
    # Neither the solve nor the count assembled the complex generator.
    assert calls["liouvillian"] == []


def test_sparse_path_eigenvector_fallback(monkeypatch):
    # Rates of 1e-15 defeat SuperLU's conditioning as they do LAPACK's: the
    # fallback decomposes the blocks, made dense, and finds the ground state.
    force_solver(monkeypatch, sparse=True)
    calls = {"liouvillian": [], "splu": [], "eig": []}
    counting(monkeypatch, steady_mod, "liouvillian", calls["liouvillian"])
    counting(monkeypatch, steady_mod, "splu", calls["splu"])
    counting(monkeypatch, scipy.linalg, "eig", calls["eig"])
    result = steady_state(damping_model(1e-15))
    assert result.method == "eigenvector"
    assert result.nullspace_dimension == 1
    assert np.max(np.abs(result.rho - np.diag([1.0, 0.0]))) < 1e-9
    assert {k: len(v) for k, v in calls.items()} == {"liouvillian": 0, "splu": 1, "eig": 1}


def test_broken_symmetry_falls_back_to_one_block():
    # The swap would exchange the two decay channels, but their rates differ.
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    me = swap_symmetric_toy(np.zeros((2, 2)), [0.5 * lower, 0.7 * lower.T])
    result = steady_state(me)
    assert result.blocks == (4,)
    assert np.array_equal(result.rho, steady_state(replace(me, symmetry=None)).rho)


def assert_residuals_match(h, collapse_ops, rho):
    """The operator-form residual against max |L vec(rho)|, relative to the terms' size."""
    scale = (np.linalg.norm(h) + sum(np.linalg.norm(c) ** 2 for c in collapse_ops)) * np.linalg.norm(rho)
    reference = float(np.max(np.abs(liouvillian(h, collapse_ops) @ vectorize(rho))))
    assert steady_mod._residual(h, collapse_ops, rho) == pytest.approx(
        reference, rel=1e-12, abs=1e-12 * scale
    )


@pytest.mark.parametrize("name", ["fig3", "preset1"])
def test_operator_residual_matches_generator_residual(name, rng):
    me = build_model(resolve_config(name).params)
    result = steady_state(me)
    assert_residuals_match(me.hamiltonian, me.collapse_ops, result.rho)
    perturbed = result.rho + 1e-3 * random_density_matrix(rng, me.dim)
    assert_residuals_match(me.hamiltonian, me.collapse_ops, perturbed)


def test_residual_limit_fires_on_perturbed_state(monkeypatch):
    # A state knocked off stationarity must not be returned.
    me = build_model(resolve_config("fig3").params)
    real_from_hermitian = steady_mod.from_hermitian

    def perturbed(x):
        rho = real_from_hermitian(x)
        rho[0, 0] += 1e-6
        return rho

    monkeypatch.setattr(steady_mod, "from_hermitian", perturbed)
    with pytest.raises(SteadyStateNumericsError, match="residual"):
        steady_state(me)


@st.composite
def open_systems(draw):
    """A random Hermitian h and 1-3 random complex collapse operators."""
    dim = draw(st.integers(2, 5))
    entries = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    square = hnp.arrays(complex, (dim, dim), elements=entries)
    a = draw(square)
    return a + a.conj().T, draw(st.lists(square, min_size=1, max_size=3))


@given(open_systems())
def test_steady_state_is_the_null_vector(system):
    h, collapse_ops = system
    liouv = liouvillian(h, collapse_ops)
    _, sing, vh = np.linalg.svd(liouv)
    # A well-separated one-dimensional nullspace: a unique stationary state
    # that the SVD pins down to rounding.
    assume(sing[-2] > 1e-3 * sing[0] and sing[-1] < 1e-12 * sing[0])
    null = devectorize(vh[-1].conj())
    null /= np.trace(null)
    rho = steady_state(toy_model(h, collapse_ops)).rho
    assert np.max(np.abs(rho - null)) <= 1e-10
    assert hermiticity_defect(rho) <= 1e-14


@given(open_systems())
def test_sparse_path_matches_dense_on_random_systems(system):
    h, collapse_ops = system
    sing = np.linalg.svd(liouvillian(h, collapse_ops), compute_uv=False)
    assume(sing[-2] > 1e-3 * sing[0] and sing[-1] < 1e-12 * sing[0])
    me = toy_model(h, collapse_ops)
    # A function-scoped fixture would be shared by every example.
    with pytest.MonkeyPatch.context() as monkeypatch:
        force_solver(monkeypatch, sparse=True)
        sparse = steady_state(me)
        force_solver(monkeypatch, sparse=False)
        dense = steady_state(me)
    assert np.max(np.abs(sparse.rho - dense.rho)) <= 1e-10


@given(open_systems(), st.integers(0, 2**32 - 1))
def test_operator_residual_matches_on_random_systems(system, seed):
    h, collapse_ops = system
    rho = random_density_matrix(np.random.default_rng(seed), h.shape[0])
    assert_residuals_match(h, collapse_ops, rho)


@given(symmetric_open_systems())
def test_parity_blocks_match_single_block_on_random_systems(me):
    liouv = liouvillian(me.hamiltonian, me.collapse_ops)
    sing = np.linalg.svd(liouv, compute_uv=False)
    assume(sing[-2] > 1e-3 * sing[0] and sing[-1] < 1e-12 * sing[0])
    blocks = steady_state(me)
    whole = steady_state(replace(me, symmetry=None))
    assert len(blocks.blocks) == 2
    assert np.max(np.abs(blocks.rho - whole.rho)) <= 1e-10


def test_truncation_insensitivity(weak_drive_params):
    target = named_state("S", weak_drive_params).projector

    def population(n_max):
        p = replace(weak_drive_params, n_max=n_max)
        rho = steady_state(build_model(p)).rho
        tgt = named_state("S", p).projector
        return np.trace(tgt @ rho).real

    assert abs(population(2) - population(3)) < 1e-6


def test_diagnostics_fields(weak_drive_params):
    result = steady_state(build_model(weak_drive_params))
    assert result.method == "trace_replacement"
    assert 0.0 < result.rcond <= 1.0
    assert result.residual < 1e-9
    assert result.clip_magnitude >= 0.0


@pytest.mark.parametrize(
    "variant, generator_sizes",
    [(Variant.BELL_FULL, 1.05), (Variant.KLM_FULL, 1.05)],
    ids=["bell-parity-blocks", "klm-one-block"],
)
def test_steady_state_memory_peak(monkeypatch, variant, generator_sizes):
    # On the dense path, forced at n_max = 3: the real blocks are written
    # over the complex generator, so the peak is that one generator plus
    # row-block temporaries, whichever variant: 1.04 generator sizes here.
    # The LU's own finiteness check, a bool copy of the block, read 1.06 on
    # klm's one block; blocks built beside the generator read 1.28 (two
    # parity blocks) and 1.54 (one).
    force_solver(monkeypatch, sparse=False)
    params = replace(resolve_config("preset1").params.with_variant(variant), n_max=3)
    me = build_model(params)
    result, peak = traced_peak(steady_state, me)
    assert result.method == "trace_replacement"
    assert peak <= generator_sizes * me.dim**4 * 16


@pytest.mark.parametrize("variant", [Variant.BELL_FULL, Variant.KLM_FULL])
def test_sparse_steady_state_memory_peak(variant):
    # At n_max = 5 the sparse path holds no complex generator: its peak read
    # 0.026 (bell_full) and 0.023 (klm_full) complex generator sizes, where
    # the dense path reads 1.02-1.03.  SuperLU's own factors are allocated
    # outside numpy and tracemalloc does not see them.
    params = replace(resolve_config("preset1").params.with_variant(variant), n_max=5)
    me = build_model(params)
    result, peak = traced_peak(steady_state, me)
    assert result.method == "trace_replacement"
    assert peak <= 0.035 * me.dim**4 * 16
