import math
from dataclasses import replace

import numpy as np
import pytest

from zenocav import (
    ModelParams,
    Variant,
    build_model,
    named_state,
    resolve_config,
    steady_state,
    target_label,
)
from zenocav.models import (
    BELL_EFFECTIVE_LABELS,
    KLM_EFFECTIVE_LABELS,
    STATE_LABELS,
    NamedState,
    RateFamily,
    atom_transition,
    cavity_mode,
    full_hamiltonian_split,
)
from zenocav.operators import hermiticity_defect

from conftest import random_density_matrix, signed_permutation

SQ2 = math.sqrt(2.0)


def full_index(a: int, b: int, n: int, n_max: int = 2) -> int:
    return (a * 3 + b) * (n_max + 1) + n


def params(variant, **overrides):
    base = dict(omega=0.1, omega_mw=0.05, delta=0.02, gamma=0.1, kappa=0.2)
    base.update(overrides)
    return ModelParams(variant=variant, **base)


# -- parameter validation --------------------------------------------------------


@pytest.mark.parametrize("field", ["omega", "omega_mw", "gamma", "kappa"])
def test_negative_rates_rejected(field):
    with pytest.raises(ValueError, match=field):
        params(Variant.BELL_FULL, **{field: -0.1})


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["omega", "omega_mw", "delta", "gamma", "kappa", "phi", "g"])
def test_non_finite_parameters_rejected(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        params(Variant.BELL_FULL, **{field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("where", ["hamiltonian", "collapse operator 1"])
def test_non_finite_operators_rejected(where, value):
    # A NaN or inf entry makes the hermiticity defect NaN, which compares
    # below any tolerance; the spec must still refuse it.
    me = build_model(params(Variant.BELL_EFFECTIVE))
    if where == "hamiltonian":
        h = me.hamiltonian.copy()
        h[0, 0] = value
        changes = {"hamiltonian": h}
    else:
        c = me.collapse_ops[1].copy()
        c[0, 1] = value
        changes = {"collapse_ops": (me.collapse_ops[0], c, *me.collapse_ops[2:])}
    with pytest.raises(ValueError, match=f"^{where} entries must be finite"):
        replace(me, **changes)


def test_full_variant_needs_cavity_level():
    with pytest.raises(ValueError, match="n_max"):
        params(Variant.BELL_FULL, n_max=0)
    # The reduced models carry no cavity at all.
    params(Variant.BELL_EFFECTIVE, n_max=0)


@pytest.mark.parametrize("g, message", [(0.0, "got 0.0"), (-1.0, "got -1.0")])
def test_non_positive_coupling_rejected(g, message):
    with pytest.raises(ValueError, match=f"^g must be positive, {message}$"):
        params(Variant.BELL_FULL, g=g)


@pytest.mark.parametrize("n_max", [2.5, -1])
def test_n_max_must_be_a_non_negative_integer(n_max):
    # The reduced variant, so that -1 meets this check and not the cavity one.
    with pytest.raises(ValueError, match=f"^n_max must be a non-negative integer, got {n_max}$"):
        params(Variant.BELL_EFFECTIVE, n_max=n_max)


def test_non_hermitian_hamiltonian_rejected():
    me = build_model(params(Variant.BELL_EFFECTIVE))
    h = me.hamiltonian.copy()
    h[0, 1] += 1.0
    with pytest.raises(
        ValueError, match=r"^hamiltonian hermiticity defect 1\.000e\+00 exceeds 1\.0e-12$"
    ):
        replace(me, hamiltonian=h)


def test_collapse_operator_shape_must_match():
    me = build_model(params(Variant.BELL_EFFECTIVE))
    ops = (me.collapse_ops[0], np.zeros((4, 4)), *me.collapse_ops[2:])
    with pytest.raises(ValueError, match=r"^collapse operator 1 shape \(4, 4\) != \(5, 5\)$"):
        replace(me, collapse_ops=ops)


def test_basis_label_count_must_match():
    me = build_model(params(Variant.BELL_EFFECTIVE))
    with pytest.raises(ValueError, match="^4 basis labels for dimension 5$"):
        replace(me, basis_labels=me.basis_labels[:4])


def test_named_state_must_be_normalized():
    with pytest.raises(ValueError, match=r"^state 'S' has norm 1\.4142135623730951, expected 1$"):
        NamedState("S", np.array([1.0, 1.0]))


def test_atom_index_must_be_0_or_1():
    with pytest.raises(ValueError, match="^atom must be 0 or 1, got 2$"):
        atom_transition(0, 1, 2, 2)


def test_reduced_variant_has_no_full_split():
    with pytest.raises(ValueError, match="^variant bell_effective has no full-space split$"):
        full_hamiltonian_split(params(Variant.BELL_EFFECTIVE))


def test_variant_parsing_aliases():
    assert Variant.parse("BellFull") is Variant.BELL_FULL
    assert Variant.parse("klm_effective") is Variant.KLM_EFFECTIVE
    with pytest.raises(ValueError, match="unknown variant"):
        Variant.parse("bogus")


# -- full symmetric-drive model ----------------------------------------------------


def test_full_model_dimensions_and_hermiticity():
    me = build_model(params(Variant.BELL_FULL))
    assert me.dim == 27
    assert len(me.basis_labels) == 27
    assert hermiticity_defect(me.hamiltonian) <= 1e-12


def test_cavity_absorption_matrix_element():
    me = build_model(params(Variant.BELL_FULL))
    # Atom A raises 1 -> 2 while absorbing the photon, at the coupling rate.
    row = full_index(2, 1, 0)
    col = full_index(1, 1, 1)
    assert me.hamiltonian[row, col] == pytest.approx(1.0)


def test_antisymmetric_pumping():
    p = params(Variant.BELL_FULL)
    me = build_model(p)
    dim = me.dim
    plus = np.zeros(dim, dtype=complex)
    plus[full_index(2, 0, 0)] = 1 / SQ2
    plus[full_index(0, 2, 0)] = 1 / SQ2
    minus = np.zeros(dim, dtype=complex)
    minus[full_index(2, 0, 0)] = 1 / SQ2
    minus[full_index(0, 2, 0)] = -1 / SQ2
    ground = np.zeros(dim, dtype=complex)
    ground[full_index(0, 0, 0)] = 1.0
    assert abs(plus.conj() @ me.hamiltonian @ ground) < 1e-14
    assert minus.conj() @ me.hamiltonian @ ground == pytest.approx(SQ2 * p.omega)


def test_full_collapse_operator_order_and_rates():
    p = params(Variant.BELL_FULL)
    me = build_model(p)
    assert len(me.collapse_ops) == 5
    emission = math.sqrt(p.gamma / 2.0)
    expected = [
        emission * atom_transition(0, 2, 0, p.n_max),
        emission * atom_transition(1, 2, 0, p.n_max),
        emission * atom_transition(0, 2, 1, p.n_max),
        emission * atom_transition(1, 2, 1, p.n_max),
        math.sqrt(p.kappa) * cavity_mode(p.n_max),
    ]
    for got, want in zip(me.collapse_ops, expected):
        assert np.array_equal(got, want)


def test_full_dissipator_against_direct_oracle(rng):
    from test_operators import lindblad_rhs

    me = build_model(params(Variant.BELL_FULL))
    rho = random_density_matrix(rng, me.dim)
    no_h = np.zeros_like(me.hamiltonian)
    direct = lindblad_rhs(rho, no_h, me.collapse_ops)
    term_by_term = sum(
        c @ rho @ c.conj().T
        - 0.5 * (c.conj().T @ c @ rho + rho @ c.conj().T @ c)
        for c in me.collapse_ops
    )
    assert np.max(np.abs(direct - term_by_term)) < 1e-14


def test_cavity_coupling_conserves_excitation():
    p = params(Variant.BELL_FULL)
    h_strong, _ = full_hamiltonian_split(p)
    a = cavity_mode(p.n_max)
    n_exc = a.conj().T @ a
    for atom in (0, 1):
        n_exc = n_exc + atom_transition(2, 2, atom, p.n_max)
    comm = h_strong @ n_exc - n_exc @ h_strong
    assert np.max(np.abs(comm)) <= 1e-12


def test_split_pieces_sum_to_hamiltonian():
    p = params(Variant.BELL_FULL)
    h_strong, h_weak = full_hamiltonian_split(p)
    me = build_model(p)
    assert np.array_equal(h_strong + h_weak, me.hamiltonian)


# -- full asymmetric-drive model ---------------------------------------------------


def test_klm_drive_only_on_first_atom():
    p = params(Variant.KLM_FULL)
    me = build_model(p)
    ground = full_index(0, 0, 0)
    assert me.hamiltonian[full_index(2, 0, 0), ground] == pytest.approx(p.omega)
    assert me.hamiltonian[full_index(0, 2, 0), ground] == 0.0


def test_klm_microwave_sign_difference():
    p = params(Variant.KLM_FULL)
    me = build_model(p)
    ground = full_index(0, 0, 0)
    assert me.hamiltonian[full_index(1, 0, 0), ground] == pytest.approx(p.omega_mw)
    assert me.hamiltonian[full_index(0, 1, 0), ground] == pytest.approx(-p.omega_mw)


def test_klm_full_dimensions_and_hermiticity():
    me = build_model(params(Variant.KLM_FULL))
    assert me.dim == 27
    assert hermiticity_defect(me.hamiltonian) <= 1e-12


# -- reduced models -----------------------------------------------------------------


def test_bell_effective_singlet_is_eigenstate():
    p = params(Variant.BELL_EFFECTIVE)
    me = build_model(p)
    s = named_state("S", p).vector
    assert np.max(np.abs(me.hamiltonian @ s - p.delta * s)) < 1e-14


def test_bell_effective_decay_rates_sum_to_gamma():
    p = params(Variant.BELL_EFFECTIVE)
    me = build_model(p)
    total = sum(np.linalg.norm(c) ** 2 for c in me.collapse_ops)
    assert total == pytest.approx(p.gamma, abs=1e-14)


def test_bell_effective_degenerate_dark_state():
    p = params(Variant.BELL_EFFECTIVE, delta=0.0)
    me = build_model(p)
    dark = (named_state("g00", p).vector - named_state("g11", p).vector) / SQ2
    assert np.max(np.abs(me.hamiltonian @ dark)) < 1e-14


def test_klm_effective_dark_state_at_matched_detuning():
    p = params(Variant.KLM_EFFECTIVE, delta=0.05)  # delta = omega_mw
    me = build_model(p)
    t2 = named_state("t2", p).vector
    assert np.max(np.abs(me.hamiltonian @ t2 - p.omega_mw * t2)) < 1e-12
    # No leakage amplitude on |01> or |D>.
    assert t2[1] == 0.0 and t2[4] == 0.0


def test_klm_effective_drive_element():
    p = params(Variant.KLM_EFFECTIVE)
    me = build_model(p)
    assert me.hamiltonian[4, 1] == pytest.approx(p.omega / SQ2)


def test_klm_effective_decay_rates_sum_to_gamma():
    p = params(Variant.KLM_EFFECTIVE)
    me = build_model(p)
    total = sum(np.linalg.norm(c) ** 2 for c in me.collapse_ops)
    assert total == pytest.approx(p.gamma, abs=1e-14)


@pytest.mark.parametrize(
    "variant",
    [Variant.BELL_FULL, Variant.BELL_EFFECTIVE, Variant.KLM_FULL, Variant.KLM_EFFECTIVE],
)
def test_every_hamiltonian_hermitian(variant):
    me = build_model(params(variant))
    assert hermiticity_defect(me.hamiltonian) <= 1e-12


# -- named states ----------------------------------------------------------------


def test_singlet_coordinates_in_reduced_basis():
    p = params(Variant.BELL_EFFECTIVE)
    assert np.array_equal(named_state("S", p).vector, [0, 0, 1, 0, 0])
    assert BELL_EFFECTIVE_LABELS == ("00", "T", "S", "11", "D")


def test_klm_state_coordinates_in_reduced_basis():
    p = params(Variant.KLM_EFFECTIVE)
    t2 = named_state("t2", p).vector
    assert np.max(np.abs(t2 - np.array([1, 0, 1, 1, 0]) / math.sqrt(3))) < 1e-15
    assert KLM_EFFECTIVE_LABELS == ("00", "01", "10", "11", "D")


def test_singlet_embedding_in_full_space():
    p = params(Variant.BELL_FULL)
    s = named_state("S", p).vector
    expected = np.zeros(27, dtype=complex)
    expected[full_index(0, 1, 0)] = 1 / SQ2
    expected[full_index(1, 0, 0)] = -1 / SQ2
    assert np.max(np.abs(s - expected)) < 1e-15


@pytest.mark.parametrize(
    "variant",
    [Variant.BELL_FULL, Variant.BELL_EFFECTIVE, Variant.KLM_FULL, Variant.KLM_EFFECTIVE],
)
def test_named_states_unit_norm(variant):
    p = params(variant)
    for label in STATE_LABELS:
        vec = named_state(label, p).vector
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12


@pytest.mark.parametrize("variant", [Variant.BELL_FULL, Variant.BELL_EFFECTIVE])
def test_state_orthogonality(variant):
    p = params(variant)
    s = named_state("S", p).vector
    for other in ("T", "D"):
        assert abs(s.conj() @ named_state(other, p).vector) <= 1e-12


def test_reduced_basis_states_orthonormal():
    bell = params(Variant.BELL_EFFECTIVE)
    klm = params(Variant.KLM_EFFECTIVE)
    for p, labels in ((bell, ("g00", "T", "S", "g11", "D")),
                      (klm, ("g00", "g01", "g10", "g11", "D"))):
        basis = np.column_stack([named_state(lb, p).vector for lb in labels])
        gram = basis.conj().T @ basis
        assert np.max(np.abs(gram - np.eye(5))) <= 1e-12


def test_unknown_state_label():
    with pytest.raises(ValueError, match="unknown state label"):
        named_state("bogus", params(Variant.BELL_FULL))


def test_target_labels():
    assert target_label(Variant.BELL_FULL) == "S"
    assert target_label(Variant.KLM_EFFECTIVE) == "t2"


# -- experimental presets -----------------------------------------------------------


def test_preset_rate_conversion():
    # The bundled platform configs hold (g, kappa, gamma) in MHz as g units.
    platforms = {
        "preset1": (770.0, 21.7, 2.6),  # Fabry-Perot
        "preset2": (70.0, 5.0, 1.0),  # microresonator
        "preset3": (34.0, 4.1, 2.6),  # high-finesse
    }
    for name, (g_mhz, kappa_mhz, gamma_mhz) in platforms.items():
        p = resolve_config(name).params
        assert p.kappa == pytest.approx(kappa_mhz / g_mhz, rel=1e-12)
        assert p.gamma == pytest.approx(gamma_mhz / g_mhz, rel=1e-12)
        assert p.omega == pytest.approx(0.01)
        assert p.omega_mw == pytest.approx(0.005)
        assert p.delta == pytest.approx(0.005)
        assert p.variant is Variant.BELL_FULL


def test_preset_variant_switch():
    preset = resolve_config("preset1").params
    klm = preset.with_variant(Variant.KLM_FULL)
    assert klm.variant is Variant.KLM_FULL
    assert klm.gamma == preset.gamma


# -- exchange symmetry -----------------------------------------------------------


def transformed(op, symmetry):
    u = signed_permutation(*symmetry)
    return u @ op @ u.T


def test_bell_full_is_exchange_parity_symmetric():
    # Atom swap times (-1)^N at phi = pi: h is invariant and the collapse
    # operators map to minus the other atom's emission and minus the cavity loss.
    me = build_model(params(Variant.BELL_FULL))
    perm, sign = me.symmetry
    assert perm[full_index(1, 2, 0)] == full_index(2, 1, 0)
    assert sign[full_index(1, 2, 0)] == -1.0 and sign[full_index(0, 1, 1)] == -1.0
    assert np.max(np.abs(transformed(me.hamiltonian, me.symmetry) - me.hamiltonian)) < 1e-15
    images = [2, 3, 0, 1, 4]
    for c, j in zip(me.collapse_ops, images):
        assert np.array_equal(transformed(c, me.symmetry), -me.collapse_ops[j])


def test_drive_phase_breaks_exchange_parity():
    me = build_model(params(Variant.BELL_FULL, phi=0.5))
    assert np.max(np.abs(transformed(me.hamiltonian, me.symmetry) - me.hamiltonian)) > 0.1


@pytest.mark.parametrize("variant", [Variant.KLM_FULL, Variant.BELL_EFFECTIVE, Variant.KLM_EFFECTIVE])
def test_other_variants_carry_no_symmetry(variant):
    assert build_model(params(variant)).symmetry is None


def test_symmetry_size_must_match_dimension():
    me = build_model(params(Variant.BELL_EFFECTIVE))
    with pytest.raises(ValueError, match="symmetry"):
        replace(me, symmetry=([1, 0], [1, 1]))


# -- rate families -----------------------------------------------------------------


@pytest.mark.parametrize("variant", [Variant.BELL_FULL, Variant.KLM_FULL], ids=["bell", "klm"])
@pytest.mark.parametrize("name", ["fig3", "fig2b", "preset1", "preset2", "preset3"])
def test_family_points_are_the_built_models(name, variant):
    # A point shares the family's Hamiltonian and frame and scales the unit
    # collapse operators; model and solve match build_model's entry for entry.
    base = resolve_config(name).params.with_variant(variant)
    for n_max in (1, 2, 3):
        family = RateFamily(replace(base, n_max=n_max))
        for gamma, kappa in ((0.1, 0.0), (0.03, 0.2)):
            p = replace(base, n_max=n_max, gamma=gamma, kappa=kappa)
            point, built = family.at(p), build_model(p)
            assert point.params == p
            assert point.frame is family.frame
            assert np.array_equal(point.hamiltonian, built.hamiltonian)
            assert len(point.collapse_ops) == len(built.collapse_ops) == 5
            for c, d in zip(point.collapse_ops, built.collapse_ops):
                assert np.array_equal(c, d)
            ours, theirs = steady_state(point), steady_state(built)
            assert np.array_equal(ours.rho, theirs.rho)
            for field in ("residual", "method", "blocks", "clip_magnitude"):
                assert getattr(ours, field) == getattr(theirs, field)


def test_family_points_change_the_rates_only():
    family = RateFamily(params(Variant.BELL_FULL))
    with pytest.raises(ValueError, match="gamma and kappa only"):
        family.at(params(Variant.BELL_FULL, delta=0.03))
    with pytest.raises(ValueError, match="no rate family"):
        RateFamily(params(Variant.BELL_EFFECTIVE))
    # replace() gives a spec of its own, which finds its frame afresh.
    point = family.at(params(Variant.BELL_FULL, gamma=0.2))
    assert len(replace(point, symmetry=None).frame.blocks) == 1
