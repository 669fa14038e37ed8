"""Stationary states of master equations and degeneracy diagnostics.

The stationary state solves L vec(rho) = 0 with Tr rho = 1.  The dimensions
here are small (Liouvillians up to about 1300 square), so a direct LU solve
of the trace-replaced system is the workhorse; a reciprocal-condition
estimate on the factorization flags degenerate generators without paying for
an eigendecomposition at every call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning, get_lapack_funcs, lu_factor, lu_solve

from .models import MasterEquationSpec
from .operators import PHYSICAL_TOL, devectorize, liouvillian

# Below this reciprocal condition number the trace-replaced system is treated
# as singular and the generator is checked for a degenerate nullspace.
RCOND_TOL = 1e-13
# Scale factor for the nullspace eigenvalue cutoff, relative to the
# generator's 1-norm.
NULLSPACE_TOL_SCALE = 1e-10
# Negative eigenvalues no worse than this are numerical noise and are
# clipped; anything worse is an error.
CLIP_LIMIT = PHYSICAL_TOL
# Returned states must satisfy the stationarity equation this tightly.
RESIDUAL_LIMIT = 1e-9


class DegenerateSteadyStateError(RuntimeError):
    """The generator has more than one stationary state."""

    def __init__(self, dimension: int):
        self.dimension = dimension
        super().__init__(
            f"nullspace dimension {dimension}: the stationary state is not unique"
        )


class SteadyStateNumericsError(RuntimeError):
    """The solve produced an unphysical or inaccurate state."""


@dataclass(frozen=True)
class SteadyStateResult:
    """A stationary density matrix plus solve diagnostics.

    nullspace_dimension is 1 on the trace-replacement path, where a
    nonsingular trace-replaced system proves the stationary state unique, and
    the counted value on the eigenvector fallback.
    """

    rho: np.ndarray
    residual: float
    method: str  # "trace_replacement" or "eigenvector"
    rcond: float
    clip_magnitude: float
    nullspace_dimension: int


def _reciprocal_condition(lu_pair, norm1: float) -> float:
    lu, _ = lu_pair
    (gecon,) = get_lapack_funcs(("gecon",), (lu,))
    rcond, info = gecon(lu, norm1, norm="1")
    if info != 0:
        raise SteadyStateNumericsError(f"condition estimate failed (info={info})")
    return float(rcond)


def _trace_replaced_system(liouv: np.ndarray):
    n2 = liouv.shape[0]
    dim = int(round(np.sqrt(n2)))
    # Fortran order lets the LU factor this copy in place.
    system = liouv.copy(order="F")
    # Replace the equation for the (0,0) element with the trace constraint;
    # diagonal elements sit at stride dim+1 under column stacking.
    system[0, :] = 0.0
    system[0, np.arange(dim) * (dim + 1)] = 1.0
    rhs = np.zeros(n2, dtype=complex)
    rhs[0] = 1.0
    return system, rhs


def _repair_positivity(rho: np.ndarray):
    rho = (rho + rho.conj().T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(rho)
    min_eig = float(eigvals.min())
    if min_eig >= 0.0:
        return rho, 0.0
    if min_eig < -CLIP_LIMIT:
        raise SteadyStateNumericsError(
            f"stationary state has eigenvalue {min_eig:.3e}, "
            f"below the repairable limit -{CLIP_LIMIT:.1e}"
        )
    clipped = np.clip(eigvals, 0.0, None)
    clip_magnitude = float(np.sum(clipped - eigvals))
    rho = (eigvecs * clipped) @ eigvecs.conj().T
    rho /= np.trace(rho).real
    return rho, clip_magnitude


def _eigenvector_solve(liouv: np.ndarray):
    eigvals, eigvecs = np.linalg.eig(liouv)
    idx = int(np.argmin(np.abs(eigvals)))
    rho = devectorize(eigvecs[:, idx])
    trace = np.trace(rho)
    if abs(trace) < 1e-12:
        raise SteadyStateNumericsError(
            "slowest eigenvector is traceless; cannot normalize to a state"
        )
    return rho / trace


def nullspace_dimension(me: MasterEquationSpec, tol: float | None = None) -> int:
    """Number of generator eigenvalues within tol of zero.

    tol defaults to 1e-10 times the generator's 1-norm.  A zero generator
    (no Hamiltonian, no dissipation) fixes every state: returns dim**2.
    """
    liouv = liouvillian(me.hamiltonian, me.collapse_ops)
    norm1 = float(np.linalg.norm(liouv, 1))
    if norm1 == 0.0:
        return liouv.shape[0]
    if tol is None:
        tol = NULLSPACE_TOL_SCALE * norm1
    eigvals = np.linalg.eigvals(liouv)
    return int(np.sum(np.abs(eigvals) < tol))


def steady_state(me: MasterEquationSpec) -> SteadyStateResult:
    """Solve for the unique stationary density matrix.

    Solves the trace-replaced linear system by LU factorization.  A tiny
    reciprocal condition number triggers a nullspace count: dimension >= 2
    raises DegenerateSteadyStateError; a unique but ill-conditioned case
    falls back to the slowest eigenvector of the generator.  The returned
    residual is the max-norm of L vec(rho) for the state actually returned.
    """
    liouv = liouvillian(me.hamiltonian, me.collapse_ops)
    system, rhs = _trace_replaced_system(liouv)
    method = "trace_replacement"
    dimension = 1
    # The factorization overwrites the system, so take its norm first.
    norm1 = float(np.linalg.norm(system, 1))
    try:
        with warnings.catch_warnings():
            # An exactly singular factorization is an expected outcome here;
            # it routes to the degeneracy check below.
            warnings.simplefilter("ignore", LinAlgWarning)
            lu_pair = lu_factor(system, overwrite_a=True)
        rcond = _reciprocal_condition(lu_pair, norm1)
    except np.linalg.LinAlgError:
        rcond = 0.0
    if rcond < RCOND_TOL:
        dimension = nullspace_dimension(me)
        if dimension >= 2:
            raise DegenerateSteadyStateError(dimension)
        method = "eigenvector"
        rho = _eigenvector_solve(liouv)
    else:
        rho = devectorize(lu_solve(lu_pair, rhs))

    rho, clip_magnitude = _repair_positivity(rho)
    residual = float(np.max(np.abs(liouv @ rho.flatten(order="F"))))
    if residual > RESIDUAL_LIMIT:
        raise SteadyStateNumericsError(
            f"stationary-state residual {residual:.3e} exceeds {RESIDUAL_LIMIT:.1e}; "
            "the generator may be nearly degenerate"
        )
    return SteadyStateResult(
        rho=rho,
        residual=residual,
        method=method,
        rcond=rcond,
        clip_magnitude=clip_magnitude,
        nullspace_dimension=dimension,
    )
