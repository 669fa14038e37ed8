"""Mechanical derivation of the reduced models from the full ones.

A strong Hamiltonian term confines weak dynamics to its own eigenspaces: in
the limit of dominant coupling, the generator becomes the weak Hamiltonian
sandwiched by the strong term's eigenprojections, sum_n P_n H P_n.  For the
models here the strong term is the atom-cavity coupling; its zero-eigenvalue
subspace intersected with the zero-photon sector is exactly the five-level
space of the reduced models, so projecting the weak Hamiltonian and the
collapse operators onto that space must reproduce them.  That equivalence is
this module's main correctness check, exposed via :func:`derive_effective_model`
and :func:`compare_derivation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import (
    BELL_EFFECTIVE_LABELS,
    KLM_EFFECTIVE_LABELS,
    MasterEquationSpec,
    ModelParams,
    Variant,
    build_model,
    cavity_vacuum_projector,
    full_collapse_ops,
    full_hamiltonian_split,
    named_state,
)
from .operators import ALGEBRAIC_TOL, hermiticity_defect, liouvillian, operator_to_dict

# Eigenvalues closer than this fraction of the spectral norm belong to one
# degenerate cluster.
CLUSTER_TOL_SCALE = 1e-8
# Projected collapse operators below this Frobenius norm are dropped.
DROP_TOL = 1e-12
# Acceptance threshold for a vector to count as inside a computed subspace.
MEMBERSHIP_TOL = 1e-10
# Eigenvalue cutoff when intersecting two projectors.
INTERSECTION_TOL = 1e-8


class DerivationError(RuntimeError):
    """The projected subspace does not have the expected structure."""


@dataclass(frozen=True)
class Eigenprojection:
    """One degenerate eigenvalue cluster of a Hermitian operator."""

    eigenvalue: float
    projector: np.ndarray

    @property
    def rank(self) -> int:
        return int(round(np.trace(self.projector).real))


def eigenprojections(h_strong):
    """Eigenprojections of a Hermitian operator, degenerate clusters merged.

    Eigenvalues whose gaps are within CLUSTER_TOL_SCALE times the spectral
    norm, the largest eigenvalue magnitude, are treated as one eigenspace.
    The returned projections resolve the identity and are mutually
    orthogonal by construction.
    """
    h_strong = np.asarray(h_strong, dtype=complex)
    if hermiticity_defect(h_strong) > ALGEBRAIC_TOL:
        raise ValueError(
            f"strong term must be Hermitian; defect {hermiticity_defect(h_strong):.3e}"
        )
    eigvals, eigvecs = np.linalg.eigh(h_strong)
    cluster_tol = CLUSTER_TOL_SCALE * float(np.abs(eigvals).max())
    projections = []
    start = 0
    for stop in range(1, len(eigvals) + 1):
        if stop == len(eigvals) or eigvals[stop] - eigvals[stop - 1] > cluster_tol:
            block = eigvecs[:, start:stop]
            projections.append(
                Eigenprojection(
                    eigenvalue=float(np.mean(eigvals[start:stop])),
                    projector=block @ block.conj().T,
                )
            )
            start = stop
    return tuple(projections)


def zeno_hamiltonian(h_weak, projections) -> np.ndarray:
    """sum_n P_n h_weak P_n over the strong term's eigenprojections."""
    h_weak = np.asarray(h_weak, dtype=complex)
    result = np.zeros_like(h_weak)
    for proj in projections:
        if proj.projector.shape != h_weak.shape:
            raise ValueError(
                f"shape mismatch: weak {h_weak.shape}, projector {proj.projector.shape}"
            )
        result += proj.projector @ h_weak @ proj.projector
    return result


def project_dissipators(collapse_ops, zero_projector, subspace_basis):
    """Restrict collapse operators to a subspace of the zero cluster.

    Each operator L maps to B^dag (P L P) B with P the cluster projector and
    B the orthonormal subspace basis (columns).  Returns (kept, dropped):
    the projected operators in input order, and (index, norm) for each
    operator whose projection has Frobenius norm below DROP_TOL.
    """
    p = np.asarray(zero_projector, dtype=complex)
    basis = np.asarray(subspace_basis, dtype=complex)
    if basis.ndim != 2:
        raise ValueError("subspace basis must be a matrix of column vectors")
    gram = basis.conj().T @ basis
    if np.max(np.abs(gram - np.eye(basis.shape[1]))) > ALGEBRAIC_TOL:
        raise ValueError("subspace basis is not orthonormal")
    if np.max(np.abs(p @ p - p)) > ALGEBRAIC_TOL:
        raise ValueError("zero projector is not idempotent")
    if np.max(np.abs(p @ basis - basis)) > MEMBERSHIP_TOL:
        raise ValueError("subspace basis is not inside the projector's range")
    kept = []
    dropped = []
    for idx, op in enumerate(collapse_ops):
        block = basis.conj().T @ (p @ np.asarray(op, dtype=complex) @ p) @ basis
        norm = float(np.linalg.norm(block))
        if norm < DROP_TOL:
            dropped.append((idx, norm))
        else:
            kept.append(block)
    return kept, dropped


def canonical_phase(op) -> np.ndarray:
    """Rotate a matrix's global phase so its largest entry is real positive.

    Ties on magnitude break toward the lowest row-major index.  Collapse
    operators carry an arbitrary global phase (the dissipator is invariant),
    so comparisons use this gauge.
    """
    op = np.asarray(op, dtype=complex)
    flat = np.abs(op).ravel(order="C")
    peak = float(flat.max())
    if peak == 0.0:
        return op.copy()
    idx = int(np.argmax(flat >= peak * (1.0 - 1e-12)))
    pivot = op.ravel(order="C")[idx]
    return op * (abs(pivot) / pivot)


# Embedding of the reduced bases into the full space: named-state labels in
# the exact column order of the reduced models.
_EMBEDDING_LABELS = {
    Variant.BELL_FULL: (("g00", "T", "S", "g11", "D"), BELL_EFFECTIVE_LABELS),
    Variant.KLM_FULL: (("g00", "g01", "g10", "g11", "D"), KLM_EFFECTIVE_LABELS),
}


@dataclass(frozen=True)
class ZenoDerivation:
    """Output of the projection pipeline on one full model."""

    params: ModelParams
    cluster_eigenvalues: tuple
    cluster_ranks: tuple
    subspace_dim: int
    basis_labels: tuple
    basis: np.ndarray
    hamiltonian: np.ndarray
    collapse_ops: tuple
    dropped_norms: tuple  # (original index, norm) of operators projected to zero

    def to_dict(self) -> dict:
        return {
            "variant": self.params.variant.value,
            "cluster_eigenvalues": list(self.cluster_eigenvalues),
            "cluster_ranks": list(self.cluster_ranks),
            "subspace_dim": self.subspace_dim,
            "basis_labels": list(self.basis_labels),
            "hamiltonian": operator_to_dict(self.hamiltonian),
            "collapse_ops": [operator_to_dict(c) for c in self.collapse_ops],
            "dropped": [
                {"index": int(i), "norm": float(n)} for i, n in self.dropped_norms
            ],
        }


def _intersect_with_vacuum(zero_proj: np.ndarray, vac_proj: np.ndarray) -> np.ndarray:
    """Orthonormal basis of range(zero_proj) ∩ range(vac_proj), as columns."""
    # Within the cluster's own coordinates, vectors fixed by the vacuum
    # projector have eigenvalue 1 of the compressed projector.
    eigvals, eigvecs = np.linalg.eigh(zero_proj @ vac_proj @ zero_proj)
    keep = eigvals > 1.0 - INTERSECTION_TOL
    basis = eigvecs[:, keep]
    # eigh may return range vectors with arbitrary phases; orthonormality holds.
    return basis


def derive_effective_model(p: ModelParams) -> ZenoDerivation:
    """Project a full model onto the zero cluster's zero-photon block.

    The resulting five-level Hamiltonian and collapse operators are expressed
    in the same basis ordering as the reduced-model builders, so they can be
    compared entrywise.  Raises DerivationError if the projected subspace is
    not the expected five-level space.
    """
    if not p.variant.is_full:
        raise ValueError(f"variant {p.variant.value} is not a full model")
    h_strong, h_weak = full_hamiltonian_split(p)
    projections = eigenprojections(h_strong)
    zero = min(projections, key=lambda proj: abs(proj.eigenvalue))
    spectral_norm = max(abs(proj.eigenvalue) for proj in projections)
    if abs(zero.eigenvalue) > CLUSTER_TOL_SCALE * spectral_norm:
        raise DerivationError(
            f"no zero eigenvalue cluster; closest is {zero.eigenvalue:.3e}"
        )

    subspace = _intersect_with_vacuum(zero.projector, cavity_vacuum_projector(p.n_max))
    state_labels, basis_labels = _EMBEDDING_LABELS[p.variant]
    if subspace.shape[1] != len(state_labels):
        raise DerivationError(
            f"zero-photon block has dimension {subspace.shape[1]}, "
            f"expected {len(state_labels)}"
        )

    # Fix the basis ordering by matching the computed subspace against the
    # reduced models' states embedded with cavity vacuum.
    columns = []
    for label in state_labels:
        vec = named_state(label, p).vector
        residual = vec - subspace @ (subspace.conj().T @ vec)
        if np.linalg.norm(residual) > MEMBERSHIP_TOL:
            raise DerivationError(
                f"state {label!r} is outside the projected subspace "
                f"(residual {np.linalg.norm(residual):.3e})"
            )
        columns.append(vec)
    basis = np.column_stack(columns)

    h_z = zeno_hamiltonian(h_weak, projections)
    h_block = basis.conj().T @ h_z @ basis

    kept, dropped = project_dissipators(full_collapse_ops(p), zero.projector, basis)

    return ZenoDerivation(
        params=p,
        cluster_eigenvalues=tuple(float(proj.eigenvalue) for proj in projections),
        cluster_ranks=tuple(proj.rank for proj in projections),
        subspace_dim=int(subspace.shape[1]),
        basis_labels=tuple(basis_labels),
        basis=basis,
        hamiltonian=h_block,
        collapse_ops=tuple(kept),
        dropped_norms=tuple(dropped),
    )


def reference_model(p: ModelParams) -> MasterEquationSpec | None:
    """The analytic reduced model a derivation should match, if one exists.

    The symmetric-drive reduction assumes drive phase pi; for any other phase
    there is no closed-form counterpart and None is returned.
    """
    if p.variant is Variant.BELL_FULL:
        if abs(math.remainder(p.phi - math.pi, math.tau)) > 1e-9:
            return None
        return build_model(p.with_variant(Variant.BELL_EFFECTIVE))
    if p.variant is Variant.KLM_FULL:
        return build_model(p.with_variant(Variant.KLM_EFFECTIVE))
    raise ValueError(f"variant {p.variant.value} is not a full model")


@dataclass(frozen=True)
class DerivationComparison:
    """Entrywise distances between a derivation and its analytic reference."""

    hamiltonian_deviation: float
    dissipator_deviation: float

    @property
    def max_deviation(self) -> float:
        """The larger deviation; NaN if either is NaN."""
        return float(np.max([self.hamiltonian_deviation, self.dissipator_deviation]))


def compare_derivation(
    derivation: ZenoDerivation, reference: MasterEquationSpec
) -> DerivationComparison:
    """Compare derived and analytic reduced models.

    The Hamiltonian blocks compare entrywise.  Collapse-operator lists are
    gauge- and grouping-dependent (a global phase per operator, and channels
    with a common target may be split differently), so the dissipative parts
    compare as total superoperators, which is the physically meaningful
    object.
    """
    h_dev = float(np.max(np.abs(derivation.hamiltonian - reference.hamiltonian)))
    zero = np.zeros_like(reference.hamiltonian)
    diss_derived = liouvillian(zero, derivation.collapse_ops)
    diss_reference = liouvillian(zero, reference.collapse_ops)
    d_dev = float(np.max(np.abs(diss_derived - diss_reference)))
    return DerivationComparison(h_dev, d_dev)
