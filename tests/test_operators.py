from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from zenocav import (
    build_model,
    evolve,
    initial_density_matrix,
    liouvillian,
    named_state,
    resolve_config,
)
from zenocav.models import Variant
from zenocav.operators import (
    Frame,
    devectorize,
    expectation,
    from_hermitian,
    hermitian_blocks,
    hermiticity_defect,
    operator_to_dict,
    parity_blocks,
    parity_frame,
    sparse_hermitian_blocks,
    tensor_product,
    to_hermitian,
    validate_density_matrix,
    vectorize,
)

from conftest import (
    TRANSFER_MIXTURE,
    random_density_matrix,
    signed_permutation,
    symmetric_open_systems,
    traced_peak,
)


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a, dtype=complex).conj().T.copy()


def operator_from_dict(d) -> np.ndarray:
    """Inverse of operator_to_dict, with shape and finiteness checks."""
    dim = int(d["dim"])
    entries = d["entries"]
    if dim <= 0:
        raise ValueError(f"dim must be positive, got {dim}")
    if len(entries) != dim * dim:
        raise ValueError(f"expected {dim * dim} entries for dim {dim}, got {len(entries)}")
    flat = np.array([complex(re, im) for re, im in entries])
    if not np.all(np.isfinite(flat.real)) or not np.all(np.isfinite(flat.imag)):
        raise ValueError("operator entries must be finite")
    return flat.reshape((dim, dim))

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def lindblad_rhs(rho, h, collapse_ops):
    """Direct term-by-term master-equation right-hand side (no vectorization)."""
    out = -1j * (h @ rho - rho @ h)
    for c in collapse_ops:
        cdc = c.conj().T @ c
        out += c @ rho @ c.conj().T - 0.5 * (cdc @ rho + rho @ cdc)
    return out


# -- tensor_product ------------------------------------------------------------


def test_tensor_product_identities():
    assert np.array_equal(tensor_product(np.eye(2), np.eye(3)), np.eye(6))


def test_tensor_product_basis_bookkeeping():
    raise_op = np.array([[0.0, 0.0], [1.0, 0.0]])
    result = tensor_product(raise_op, np.eye(2))
    expected = np.zeros((4, 4))
    expected[2, 0] = 1.0
    expected[3, 1] = 1.0
    assert np.array_equal(result, expected)


def test_tensor_product_squares_to_identity():
    xx = tensor_product(SIGMA_X, SIGMA_X)
    assert np.max(np.abs(xx @ xx - np.eye(4))) == 0.0


def test_tensor_product_associative(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    left = tensor_product(tensor_product(a, b), c)
    right = tensor_product(a, tensor_product(b, c))
    # Equal up to float rounding of the triple products.
    assert np.max(np.abs(left - right)) < 1e-14


def test_tensor_product_dagger_commute(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.array_equal(dagger(tensor_product(a, b)), tensor_product(dagger(a), dagger(b)))


def test_tensor_product_rejects_non_square():
    with pytest.raises(ValueError):
        tensor_product(np.zeros((2, 3)), np.eye(2))


# -- dagger --------------------------------------------------------------------


def test_dagger_identity():
    assert np.array_equal(dagger(np.eye(4)), np.eye(4))


def test_dagger_ladder_operator():
    n_max = 2
    lower = np.diag(np.sqrt(np.arange(1, n_max + 1)), k=1)
    raise_op = dagger(lower)
    for n in range(n_max):
        assert raise_op[n + 1, n] == pytest.approx(np.sqrt(n + 1))


def test_dagger_involution(rng):
    for _ in range(5):
        x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        assert np.array_equal(dagger(dagger(x)), x)


# -- expectation ---------------------------------------------------------------


def test_expectation_trace_normalization(rng):
    rho = random_density_matrix(rng, 5)
    assert expectation(np.eye(5), rho) == pytest.approx(1.0, abs=1e-12)


def test_expectation_projector_on_itself(transfer_params):
    s = named_state("S", transfer_params.with_variant(Variant.BELL_EFFECTIVE)).projector
    assert expectation(s, s) == pytest.approx(1.0, abs=1e-12)


def test_expectation_mixed_ground_sector(transfer_params):
    # Maximally mixed over the four ground states, cavity in vacuum: the
    # singlet carries a quarter of the weight.
    rho = initial_density_matrix(
        (("g00", 0.25), ("g01", 0.25), ("g10", 0.25), ("g11", 0.25)), transfer_params
    )
    s_proj = named_state("S", transfer_params).projector
    assert expectation(s_proj, rho) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("dim", [2, 5, 27, 54])
def test_expectation_matches_trace_of_product(rng, dim):
    # The trace is summed from the elementwise product, without obs @ rho.
    for _ in range(3):
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        obs = x + x.conj().T
        rho = random_density_matrix(rng, dim)
        expected = np.trace(obs @ rho)
        assert expectation(obs, rho) == pytest.approx(expected.real, abs=1e-12 * dim)


def test_expectation_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        expectation(np.eye(2), np.eye(3) / 3)


def test_expectation_rejects_imaginary_residue():
    obs = np.diag([1.0, 0.0]).astype(complex)
    corrupted = np.array([[1j, 0.0], [0.0, 1.0 - 1j]])
    with pytest.raises(ValueError, match="imaginary"):
        expectation(obs, corrupted)


# -- liouvillian ---------------------------------------------------------------


def test_liouvillian_zero_generator():
    sop = liouvillian(np.zeros((3, 3)))
    assert np.array_equal(sop, np.zeros((9, 9)))


def test_liouvillian_amplitude_damping():
    gamma = 0.37
    decay = np.sqrt(gamma) * np.array([[0.0, 1.0], [0.0, 0.0]])
    sop = liouvillian(np.zeros((2, 2)), [decay])
    excited = np.diag([0.0, 1.0]).astype(complex)
    rhs = devectorize(sop @ vectorize(excited))
    expected = gamma * np.diag([1.0, -1.0])
    assert np.max(np.abs(rhs - expected)) < 1e-14


def test_liouvillian_matches_direct_evaluation(rng, transfer_params):
    me = build_model(transfer_params)
    sop = liouvillian(me.hamiltonian, me.collapse_ops)
    rho = random_density_matrix(rng, me.dim)
    via_matrix = devectorize(sop @ vectorize(rho))
    direct = lindblad_rhs(rho, me.hamiltonian, me.collapse_ops)
    assert np.max(np.abs(via_matrix - direct)) < 1e-12


def test_liouvillian_annihilates_trace(transfer_params):
    me = build_model(transfer_params)
    sop = liouvillian(me.hamiltonian, me.collapse_ops)
    trace_row = vectorize(np.eye(me.dim)).conj() @ sop
    assert np.max(np.abs(trace_row)) < 1e-10


def test_liouvillian_preserves_hermiticity(rng, transfer_params):
    me = build_model(transfer_params)
    sop = liouvillian(me.hamiltonian, me.collapse_ops)
    herm = rng.normal(size=(me.dim, me.dim)) + 1j * rng.normal(size=(me.dim, me.dim))
    herm = herm + herm.conj().T
    image = devectorize(sop @ vectorize(herm))
    assert hermiticity_defect(image) < 1e-10


def test_closed_system_spectrum_imaginary(rng):
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = h + h.conj().T
    eigvals = np.linalg.eigvals(liouvillian(h))
    assert np.max(np.abs(eigvals.real)) < 1e-9 * np.linalg.norm(h, 2)


def test_liouvillian_dimension_mismatch():
    with pytest.raises(ValueError, match="dim"):
        liouvillian(np.eye(3), [np.eye(2)])


@st.composite
def open_systems(draw):
    """A Hermitian h, 0-3 complex collapse operators and a test matrix x."""
    dim = draw(st.integers(1, 5))
    entries = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    square = hnp.arrays(complex, (dim, dim), elements=entries)
    a = draw(square)
    return a + a.conj().T, draw(st.lists(square, max_size=3)), draw(square)


@given(open_systems())
def test_liouvillian_properties(system):
    h, collapse_ops, x = system
    sop = liouvillian(h, collapse_ops)
    scale = 1.0 + np.abs(h).sum() + sum(np.abs(c).sum() ** 2 for c in collapse_ops)
    tol = 1e-12 * scale
    image = devectorize(sop @ vectorize(x))
    direct = lindblad_rhs(x, h, collapse_ops)
    assert np.max(np.abs(image - direct)) <= tol * (1.0 + np.abs(x).max())
    trace_row = vectorize(np.eye(h.shape[0])).conj() @ sop
    assert np.max(np.abs(trace_row)) <= tol
    herm = x + x.conj().T
    herm_image = devectorize(sop @ vectorize(herm))
    assert hermiticity_defect(herm_image) <= tol * (1.0 + np.abs(herm).max())


def test_liouvillian_equals_kronecker_sum():
    # The scattered terms are the entries of the dense Kronecker products,
    # summed in the same order, so the result is identical.
    for name in ("fig3", "preset1"):
        base = replace(resolve_config(name).params, n_max=3)
        for variant in (Variant.BELL_FULL, Variant.KLM_FULL):
            me = build_model(base.with_variant(variant))
            h, ops = me.hamiltonian, me.collapse_ops
            h_nh = h - 0.5j * sum(c.conj().T @ c for c in ops)
            eye = np.eye(me.dim)
            reference = np.kron(eye, -1j * h_nh) + np.kron(1j * h_nh.conj(), eye)
            for c in ops:
                reference += np.kron(c.conj(), c)
            assert np.array_equal(liouvillian(h, ops), reference)


def test_liouvillian_holds_one_temporary():
    # Terms are written into the result through its 4-index view: beyond the
    # result, only dim**3-sized slices and per-channel nonzero pairs.
    params = replace(resolve_config("preset1").params, n_max=3)
    me = build_model(params)
    sop, peak = traced_peak(liouvillian, me.hamiltonian, me.collapse_ops)
    assert sop.shape == (me.dim**2, me.dim**2)
    assert peak <= 1.25 * sop.nbytes


# -- vectorize / devectorize ---------------------------------------------------


def test_vectorize_column_stacking():
    assert np.array_equal(vectorize(np.eye(2) / 2), np.array([0.5, 0, 0, 0.5]))


def test_vectorization_round_trip(rng):
    x = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    assert np.array_equal(devectorize(vectorize(x)), x)


def test_trace_as_vector_dot(rng):
    rho = random_density_matrix(rng, 6)
    dot = vectorize(np.eye(6)).conj() @ vectorize(rho)
    assert dot == pytest.approx(np.trace(rho), abs=1e-14)


def test_devectorize_rejects_bad_length():
    with pytest.raises(ValueError, match="square"):
        devectorize(np.zeros(5))


# -- Hermitian coordinates ---------------------------------------------------------


@st.composite
def hermitian_pairs(draw):
    dim = draw(st.integers(1, 5))
    entries = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    a, b = draw(hnp.arrays(complex, (2, dim, dim), elements=entries))
    return a + a.conj().T, b + b.conj().T


@given(hermitian_pairs())
def test_hermitian_coordinates_round_trip_and_trace(pair):
    a, b = pair
    scale = 1.0 + np.abs(a).max()
    assert np.max(np.abs(from_hermitian(to_hermitian(a)) - a)) <= 1e-15 * scale
    assert to_hermitian(a) @ to_hermitian(b) == pytest.approx(
        np.trace(a @ b).real, abs=1e-12 * scale * (1.0 + np.abs(b).sum())
    )


@given(open_systems())
def test_hermitian_generator_acts_as_the_generator(system):
    h, collapse_ops, x = system
    sop = liouvillian(h, collapse_ops)
    herm = x + x.conj().T
    scale = 1.0 + np.abs(h).sum() + sum(np.abs(c).sum() ** 2 for c in collapse_ops)
    direct = to_hermitian(devectorize(sop @ vectorize(herm)))
    (generator,) = hermitian_blocks(sop, [np.arange(sop.shape[0])])
    real = generator @ to_hermitian(herm)
    assert np.max(np.abs(real - direct)) <= 1e-12 * scale * (1.0 + np.abs(herm).max())


@given(symmetric_open_systems())
def test_sparse_blocks_match_hermitian_blocks(me):
    # The sparse assembly writes the same blocks as the dense one, in the
    # parity frame and as one block of every coordinate, up to the rounding
    # of its different summation order, which scales with the operators.
    frame = parity_frame(me.hamiltonian, me.collapse_ops, me.symmetry)
    h = frame.hamiltonian
    collapse_ops = [frame.rotate(c) for c in me.collapse_ops]
    scale = np.abs(h).max() + sum(np.abs(c).max() ** 2 for c in collapse_ops)
    for split in (frame.blocks, (np.arange(me.dim**2),)):
        dense = hermitian_blocks(liouvillian(h, collapse_ops), split)
        sparse = sparse_hermitian_blocks(h, collapse_ops, split)
        assert len(sparse) == len(split)
        for part, block in zip(sparse, dense):
            assert part.format == "csr" and part.dtype == np.float64
            assert np.max(np.abs(part.toarray() - block), initial=0.0) <= 1e-14 * scale


@pytest.mark.parametrize("preset", ["preset1", "preset2", "preset3"])
@pytest.mark.parametrize("variant", [Variant.BELL_FULL, Variant.KLM_FULL])
def test_sparse_assembly_memory_peak(preset, variant):
    # At n_max = 5 the assembly peaks at about 5.1-5.5 times the bytes of
    # the blocks it returns (0.47 MiB at preset2 bell_full): the terms are
    # dropped before the coordinate-map product, and the complex equations
    # before the real parts are stacked.  Holding every intermediate to the
    # end peaks at 9.5-10.2, and summing scipy.sparse Kronecker products of
    # the terms at 6.9-7.4.
    me = build_model(replace(resolve_config(preset).params.with_variant(variant), n_max=5))
    frame = me.frame
    collapse_ops = [frame.rotate(c) for c in me.collapse_ops]
    blocks, peak = traced_peak(
        sparse_hermitian_blocks, frame.hamiltonian, collapse_ops, frame.blocks
    )
    nbytes = sum(b.data.nbytes + b.indices.nbytes + b.indptr.nbytes for b in blocks)
    assert peak <= 6.0 * nbytes


@given(symmetric_open_systems())
def test_hermitian_blocks_match_the_generator_column_by_column(me):
    # Column c of the dense reference M is the generator applied to the
    # Hermitian matrix with coordinates e_c.  Each block, and the one block
    # of every coordinate, is M's own diagonal block; the parity blocks drop
    # only M's cross-block entries, which are rounding-sized.  Rounding
    # scales with the operators, not with M, which can vanish (h = I).
    frame = parity_frame(me.hamiltonian, me.collapse_ops, me.symmetry)
    blocks, h = frame.blocks, frame.hamiltonian
    collapse_ops = [frame.rotate(c) for c in me.collapse_ops]
    assert len(blocks) == 2
    sop = liouvillian(h, collapse_ops)
    n2 = sop.shape[0]
    reference = np.column_stack(
        [to_hermitian(devectorize(sop @ vectorize(from_hermitian(e)))) for e in np.eye(n2)]
    )
    scale = np.abs(h).max() + sum(np.abs(c).max() ** 2 for c in collapse_ops)
    for split in (blocks, (np.arange(n2),)):
        # The blocks are written over the generator they are given.
        generator = sop.copy()
        parts = hermitian_blocks(generator, split)
        assert [part.shape for part in parts] == [(idx.size, idx.size) for idx in split]
        for idx, part in zip(split, parts):
            assert part.flags.c_contiguous
            assert np.shares_memory(part, generator)
            assert np.max(np.abs(part - reference[np.ix_(idx, idx)])) <= 1e-12 * scale
    even, odd = blocks
    cross = np.concatenate([reference[np.ix_(even, odd)].ravel(), reference[np.ix_(odd, even)].ravel()])
    assert np.max(np.abs(cross)) <= 1e-12 * scale


def test_hermitian_blocks_refuses_what_it_cannot_build_in_place(rng):
    # dim 4: 16 coordinates, 6 pairs.  Splitting off one pair (its Re and Im
    # coordinates 4 and 10) leaves blocks of 14 and 2, 200 entries, more than
    # the 192 in front of the equations that are read; a generator that is
    # not one C-ordered complex buffer has no such front, and blocks must
    # cover the generator's coordinates, each once.
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    sop = liouvillian(h + h.conj().T, [rng.normal(size=(4, 4))])
    lone = np.array([4, 10])
    with pytest.raises(ValueError, match="unequal"):
        hermitian_blocks(sop.copy(), (np.setdiff1d(np.arange(16), lone), lone))
    with pytest.raises(ValueError, match="C-ordered complex128"):
        hermitian_blocks(np.asfortranarray(sop), (np.arange(16),))
    for blocks in ((np.arange(9),), (np.arange(16), lone)):
        with pytest.raises(ValueError, match="cover the generator's 16 coordinates once"):
            hermitian_blocks(sop.copy(), blocks)


@pytest.mark.parametrize(
    "perm, sign",
    [
        ([1, 0, 2, 4, 3], [1, 1, -1, -1, -1]),
        ([0, 1, 2], [1, -1, 1]),
        ([2, 3, 0, 1], [-1, 1, -1, 1]),
    ],
)
def test_parity_blocks_diagonalize_the_symmetry(rng, perm, sign):
    # The basis, built here row by row from the rotation, is symmetric and
    # its own inverse, and Frame.rotate applies it; in it U . U^dag keeps
    # every even coordinate and negates every odd one.
    dim = len(perm)
    rotation, even, odd = parity_blocks(perm, sign)
    perm_r, diag, off, weight = rotation
    basis = np.zeros((dim, dim))
    for r in range(dim):
        basis[r, r] += diag[r] / np.sqrt(weight[r])
        basis[r, perm_r[r]] += off[r] / np.sqrt(weight[r])
    u = signed_permutation(perm, sign)
    assert np.array_equal(basis, basis.T)
    assert np.allclose(basis @ basis, np.eye(dim), atol=1e-15)
    assert np.array_equal(np.sort(np.concatenate([even, odd])), np.arange(dim**2))
    assert np.array_equal(even[:dim], np.arange(dim))
    rho = random_density_matrix(rng, dim)
    rotated = Frame(rho, (even, odd), rotation).rotate(rho)
    assert np.max(np.abs(rotated - basis @ rho @ basis)) <= 1e-15
    before = to_hermitian(basis @ rho @ basis)
    after = to_hermitian(basis @ (u @ rho @ u.T) @ basis)
    assert np.max(np.abs(after[even] - before[even])) <= 1e-15
    assert np.max(np.abs(after[odd] + before[odd])) <= 1e-15


def test_parity_blocks_of_the_exchange_symmetry():
    # bell_full at n_max = 2: 15 even and 12 odd states, so 15^2 + 12^2 even
    # and 2 * 15 * 12 odd coordinates.
    me = build_model(resolve_config("fig3").params)
    _, even, odd = parity_blocks(*me.symmetry)
    assert (even.size, odd.size) == (369, 360)


@pytest.mark.parametrize(
    "perm, sign",
    [([1, 2, 0], [1, 1, 1]), ([1, 0], [1, -1]), ([0, 0], [1, 1]), ([1, 0], [1, 1, 1])],
    ids=["three-cycle", "pair-signs-differ", "not-a-permutation", "sign-length"],
)
def test_parity_blocks_reject_non_involutions(perm, sign):
    with pytest.raises(ValueError, match="squares to the identity"):
        parity_blocks(perm, sign)


@given(symmetric_open_systems(), st.integers(0, 2**32 - 1))
def test_frames_rotate_back(me, seed):
    # The one-block frame is the model's own basis: its rotation hands back
    # what it is given.  A parity frame's basis is its own inverse, so
    # rotating twice brings op back.
    op = random_density_matrix(np.random.default_rng(seed), me.dim)
    whole = parity_frame(me.hamiltonian, me.collapse_ops, None)
    assert whole.rotation is None
    assert whole.rotate(op) is op
    frame = parity_frame(me.hamiltonian, me.collapse_ops, me.symmetry)
    assert np.max(np.abs(frame.rotate(frame.rotate(op)) - op)) <= 1e-15


# -- validate_density_matrix -----------------------------------------------------


def test_validate_accepts_mixed_state():
    assert validate_density_matrix(np.eye(4) / 4).passed


def test_validate_rejects_offdiagonal():
    bad = np.zeros((2, 2))
    bad[0, 1] = 1.0
    report = validate_density_matrix(bad)
    assert not report.passed
    assert report.trace_defect == pytest.approx(1.0)
    assert "FAIL" in report.summary()


def test_validate_after_million_steps(transfer_params):
    # One million fixed steps on the reduced model; the state stays physical
    # at the post-integration tolerance.
    p = transfer_params.with_variant(Variant.BELL_EFFECTIVE)
    me = build_model(p)
    rho0 = initial_density_matrix(TRANSFER_MIXTURE, p)
    traj = evolve(me, rho0, 1500.0, 0.0015, [], sample_stride=100000)
    report = validate_density_matrix(traj.final_state, 1e-6)
    assert report.passed


# -- serialization ----------------------------------------------------------------


def test_operator_round_trips_through_dict(rng):
    op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    again = operator_from_dict(operator_to_dict(op))
    assert np.array_equal(op, again)


def test_operator_from_dict_rejects_non_finite():
    payload = operator_to_dict(np.eye(2))
    payload["entries"][1] = [float("nan"), 0.0]
    with pytest.raises(ValueError, match="finite"):
        operator_from_dict(payload)


def test_operator_from_dict_rejects_wrong_length():
    payload = operator_to_dict(np.eye(2))
    payload["entries"] = payload["entries"][:-1]
    with pytest.raises(ValueError, match="entries"):
        operator_from_dict(payload)
