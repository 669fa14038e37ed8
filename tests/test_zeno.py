import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zenocav import (
    ModelParams,
    Variant,
    compare_derivation,
    derive_effective_model,
    liouvillian,
    named_state,
    reference_model,
    resolve_config,
)
from zenocav.cli import DERIVE_REGRESSION_TOL
from zenocav.models import full_hamiltonian_split
from zenocav.zeno import (
    canonical_phase,
    eigenprojections,
    project_dissipators,
    zeno_hamiltonian,
)

SQ2 = math.sqrt(2.0)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def klm_params(**overrides):
    base = dict(omega=0.05, omega_mw=0.025, delta=0.025, gamma=0.1, kappa=0.2)
    base.update(overrides)
    return ModelParams(variant=Variant.KLM_FULL, **base)


# -- eigenprojections ---------------------------------------------------------


def test_eigenprojections_diagonal_matrix():
    projections = eigenprojections(np.diag([0.0, 0.0, 1.0]))
    assert len(projections) == 2
    by_value = {round(proj.eigenvalue): proj for proj in projections}
    assert by_value[0].rank == 2
    assert by_value[1].rank == 1
    assert np.max(np.abs(by_value[0].projector - np.diag([1.0, 1.0, 0.0]))) < 1e-12
    assert np.max(np.abs(by_value[1].projector - np.diag([0.0, 0.0, 1.0]))) < 1e-12


def test_eigenprojections_pauli_x():
    projections = eigenprojections(SIGMA_X)
    assert [round(proj.eigenvalue) for proj in projections] == [-1, 1]
    eye = np.eye(2)
    assert np.max(np.abs(projections[0].projector - (eye - SIGMA_X) / 2)) < 1e-12
    assert np.max(np.abs(projections[1].projector - (eye + SIGMA_X) / 2)) < 1e-12


def test_eigenprojections_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        eigenprojections(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigenprojections_resolve_identity(weak_drive_params):
    h_strong, _ = full_hamiltonian_split(weak_drive_params)
    projections = eigenprojections(h_strong)
    total = sum(proj.projector for proj in projections)
    assert np.max(np.abs(total - np.eye(h_strong.shape[0]))) < 1e-10
    for i, a in enumerate(projections):
        for b in projections[i + 1:]:
            assert np.max(np.abs(a.projector @ b.projector)) < 1e-10
    rebuilt = sum(proj.eigenvalue * proj.projector for proj in projections)
    assert np.max(np.abs(rebuilt - h_strong)) < 1e-10


def test_zero_cluster_membership(weak_drive_params):
    p = weak_drive_params
    h_strong, _ = full_hamiltonian_split(p)
    zero = min(eigenprojections(h_strong), key=lambda proj: abs(proj.eigenvalue))
    assert abs(zero.eigenvalue) < 1e-12
    for label in ("g00", "T", "S", "g11", "D"):
        vec = named_state(label, p).vector
        assert np.linalg.norm(zero.projector @ vec - vec) < 1e-10
    # The symmetric partner of the dark state couples to the cavity and is
    # excluded from the decoupled cluster.
    bright = (named_state("D", p).vector * 0).copy()
    nc = p.n_max + 1
    bright[(2 * 3 + 1) * nc] = 1 / SQ2
    bright[(1 * 3 + 2) * nc] = 1 / SQ2
    assert np.linalg.norm(zero.projector @ bright) < 1e-10


# -- zeno projection of the weak Hamiltonian -----------------------------------


def test_zeno_hamiltonian_trivial_strong_term(rng):
    h_weak = rng.normal(size=(4, 4))
    h_weak = h_weak + h_weak.T
    projected = zeno_hamiltonian(h_weak, eigenprojections(np.zeros((4, 4))))
    assert np.max(np.abs(projected - h_weak)) < 1e-12


def test_zeno_hamiltonian_kills_cross_terms():
    projected = zeno_hamiltonian(SIGMA_X, eigenprojections(np.diag([0.0, 1.0])))
    assert np.max(np.abs(projected)) < 1e-14


def test_zeno_hamiltonian_linear(rng):
    def random_hermitian():
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        return m + m.conj().T

    strong = eigenprojections(np.diag([0.0, 0.0, 1.0, 1.0, 2.0]))
    a, b = random_hermitian(), random_hermitian()
    combined = zeno_hamiltonian(2.0 * a + 3.0 * b, strong)
    separate = 2.0 * zeno_hamiltonian(a, strong) + 3.0 * zeno_hamiltonian(b, strong)
    assert np.max(np.abs(combined - separate)) < 1e-12


def test_zeno_hamiltonian_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        zeno_hamiltonian(np.eye(2), eigenprojections(np.eye(3)))


# -- collapse-operator projection ----------------------------------------------


def expected_projected_ops(p):
    """Hand-worked images of the four emission channels on the reduced basis.

    In the (00, T, S, 11, D) ordering the dark state decays to (T + S)/sqrt(2)
    or (T - S)/sqrt(2) through the drive levels and to 11 through the other
    leg, splitting gamma across the four channels.
    """
    r8 = math.sqrt(p.gamma / 8.0)
    r4 = math.sqrt(p.gamma / 4.0)
    l1 = np.zeros((5, 5), dtype=complex)
    l1[1, 4] = r8
    l1[2, 4] = r8
    l2 = np.zeros((5, 5), dtype=complex)
    l2[3, 4] = r4
    l3 = np.zeros((5, 5), dtype=complex)
    l3[1, 4] = r8
    l3[2, 4] = -r8
    return l1, l2, l3, l2.copy()


def test_projected_emission_channels(weak_drive_params):
    p = weak_drive_params
    derivation = derive_effective_model(p)
    assert len(derivation.collapse_ops) == 4
    for got, want in zip(derivation.collapse_ops, expected_projected_ops(p)):
        assert np.max(np.abs(canonical_phase(got) - want)) < 1e-12


def test_cavity_channel_dropped(weak_drive_params):
    # The norms `derive fig3` and `derive fig4c` report: rounding noise for
    # fig3 and an exact zero for fig4c.
    cases = [
        (weak_drive_params, None),
        (resolve_config("fig3").params, 1.927504119771264e-32),
        (resolve_config("fig4c").params, 0.0),
    ]
    for p, expected_norm in cases:
        derivation = derive_effective_model(p)
        assert len(derivation.dropped_norms) == 1
        index, norm = derivation.dropped_norms[0]
        assert index == 4
        assert norm < 1e-12
        if expected_norm is not None:
            assert norm == pytest.approx(expected_norm, abs=1e-30)


def test_paired_channels_merge_into_one(weak_drive_params):
    p = weak_drive_params
    derivation = derive_effective_model(p)
    pair = [derivation.collapse_ops[1], derivation.collapse_ops[3]]
    merged = np.zeros((5, 5), dtype=complex)
    merged[3, 4] = math.sqrt(p.gamma / 2.0)
    zero = np.zeros((5, 5))
    d_pair = liouvillian(zero, pair)
    d_merged = liouvillian(zero, [merged])
    assert np.max(np.abs(d_pair - d_merged)) < 1e-12


def test_project_dissipators_rejects_bad_basis():
    projector = np.eye(3)
    skewed = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="orthonormal"):
        project_dissipators([np.eye(3)], projector, skewed)
    with pytest.raises(ValueError, match="subspace basis must be a matrix of column vectors"):
        project_dissipators([np.eye(3)], projector, np.array([1.0, 0.0, 0.0]))


def test_project_dissipators_rejects_non_idempotent_projector():
    basis = np.array([[1.0], [0.0], [0.0]])
    with pytest.raises(ValueError, match="zero projector is not idempotent"):
        project_dissipators([np.eye(3)], 2.0 * np.eye(3), basis)


def test_project_dissipators_rejects_outside_basis():
    projector = np.diag([1.0, 1.0, 0.0])
    outside = np.array([[0.0], [0.0], [1.0]])
    with pytest.raises(ValueError, match="range"):
        project_dissipators([np.eye(3)], projector, outside)


def test_project_dissipators_drops_null_operator():
    projector = np.diag([1.0, 1.0, 0.0])
    basis = np.eye(3)[:, :2]
    lowering = np.zeros((3, 3))
    lowering[0, 2] = 1.0  # only touches the excluded level
    kept, dropped = project_dissipators([lowering, np.eye(3)], projector, basis)
    assert len(kept) == 1
    assert np.max(np.abs(kept[0] - np.eye(2))) < 1e-14
    assert dropped == [(0, 0.0)]


def test_canonical_phase_gauge_invariance(rng):
    op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rotated = op * np.exp(1j * 1.234)
    assert np.max(np.abs(canonical_phase(op) - canonical_phase(rotated))) < 1e-12
    fixed = canonical_phase(op)
    peak = fixed.ravel()[np.argmax(np.abs(fixed))]
    assert peak.imag == pytest.approx(0.0, abs=1e-14)
    assert peak.real > 0


def test_canonical_phase_zero_matrix():
    zero = np.zeros((2, 2), dtype=complex)
    assert np.array_equal(canonical_phase(zero), zero)


# -- end-to-end derivation -------------------------------------------------------


def test_symmetric_drive_derivation_matches_reduced_model(weak_drive_params):
    derivation = derive_effective_model(weak_drive_params)
    assert derivation.subspace_dim == 5
    assert derivation.basis_labels == ("00", "T", "S", "11", "D")
    reference = reference_model(weak_drive_params)
    comparison = compare_derivation(derivation, reference)
    assert comparison.max_deviation < 1e-10


def test_asymmetric_drive_derivation_matches_reduced_model():
    p = klm_params()
    derivation = derive_effective_model(p)
    assert derivation.basis_labels == ("00", "01", "10", "11", "D")
    comparison = compare_derivation(derivation, reference_model(p))
    assert comparison.max_deviation < 1e-10


@given(
    st.sampled_from([Variant.BELL_FULL, Variant.KLM_FULL]),
    st.floats(0.0, 2.0),
    st.floats(0.0, 2.0),
    st.floats(-2.0, 2.0),
    st.floats(0.0, 2.0),
    st.floats(0.0, 2.0),
    st.integers(1, 3),
    st.floats(0.5, 2.0),
)
def test_derivation_matches_reference_over_random_params(
    variant, omega, omega_mw, delta, gamma, kappa, n_max, g
):
    # The projection is exact at zeroth order, whatever the rates, the
    # truncation and the coupling unit.
    p = ModelParams(
        omega=omega, omega_mw=omega_mw, delta=delta, gamma=gamma, kappa=kappa,
        variant=variant, n_max=n_max, g=g,
    )
    comparison = compare_derivation(derive_effective_model(p), reference_model(p))
    assert comparison.max_deviation <= DERIVE_REGRESSION_TOL


def test_derivation_insensitive_to_truncation(weak_drive_params):
    import dataclasses

    small = derive_effective_model(weak_drive_params)
    large = derive_effective_model(dataclasses.replace(weak_drive_params, n_max=3))
    assert np.max(np.abs(small.hamiltonian - large.hamiltonian)) < 1e-10


def test_derivation_requires_full_variant(weak_drive_params):
    p = weak_drive_params.with_variant(Variant.BELL_EFFECTIVE)
    with pytest.raises(ValueError, match="full"):
        derive_effective_model(p)
    with pytest.raises(ValueError, match="full"):
        reference_model(p)


def test_reference_model_requires_standard_phase(weak_drive_params):
    import dataclasses

    shifted = dataclasses.replace(weak_drive_params, phi=0.0)
    assert reference_model(shifted) is None
    # The asymmetric layout has no phase knob in its reduced form.
    assert reference_model(klm_params(phi=0.0)) is not None


def test_derivation_cluster_spectrum(weak_drive_params):
    derivation = derive_effective_model(weak_drive_params)
    eigenvalues = np.array(derivation.cluster_eigenvalues)
    assert np.min(np.abs(eigenvalues)) < 1e-12
    # Spectrum is symmetric: the coupling only connects excitation ladders.
    ordered = np.sort(eigenvalues)
    assert np.max(np.abs(ordered + ordered[::-1])) < 1e-10
    assert sum(derivation.cluster_ranks) == 27


def test_derivation_does_not_build_the_full_model(weak_drive_params, monkeypatch):
    # The Hamiltonian split and the collapse operators are all a derivation
    # needs; assembling the whole full model again would be wasted work.
    import zenocav.zeno

    def refuse(p):
        raise AssertionError(f"build_model called for {p.variant.value}")

    expected = derive_effective_model(weak_drive_params)
    monkeypatch.setattr(zenocav.zeno, "build_model", refuse)
    derivation = derive_effective_model(weak_drive_params)
    assert np.array_equal(derivation.hamiltonian, expected.hamiltonian)
    assert derivation.dropped_norms == expected.dropped_norms


def test_derivation_decomposes_the_strong_term_once(monkeypatch):
    # One eigh of the strong term gives the clusters, their tolerance and
    # the projections the Zeno Hamiltonian sums over; the second eigh
    # intersects the zero cluster with the cavity vacuum.  No 2-norm SVD.
    calls = {"eigh": 0, "norm2": 0}
    eigh, norm = np.linalg.eigh, np.linalg.norm

    def counting_eigh(*args, **kwargs):
        calls["eigh"] += 1
        return eigh(*args, **kwargs)

    def counting_norm(x, ord=None, *args, **kwargs):
        calls["norm2"] += ord == 2
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    derive_effective_model(resolve_config("fig3").params)
    assert calls == {"eigh": 2, "norm2": 0}
