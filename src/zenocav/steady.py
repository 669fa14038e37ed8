"""Stationary states of master equations and degeneracy diagnostics.

The stationary state solves L vec(rho) = 0 with Tr rho = 1.  The generator
is dense (up to 2916 square at n_max = 5), and a direct LU solve is the
workhorse.  It factors the generator in real Hermitian coordinates
(see :mod:`zenocav.operators`), whose LU costs about a quarter of the
complex one, with the equation for rho_00 replaced by the trace constraint.  A reciprocal-condition estimate on the
factorization flags degenerate generators without paying for an
eigendecomposition at every call; the residual is always checked on the
complex generator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning, get_lapack_funcs, lu_factor, lu_solve

from .models import MasterEquationSpec
from .operators import PHYSICAL_TOL, devectorize, from_hermitian, hermitian_generator, liouvillian

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
    the counted value on the eigenvector fallback.  rcond is the 1-norm
    reciprocal condition estimate of the real Hermitian-coordinate system,
    not of the complex generator.
    """

    rho: np.ndarray
    residual: float
    method: str  # "trace_replacement" or "eigenvector"
    rcond: float
    clip_magnitude: float
    nullspace_dimension: int


def _reciprocal_condition(lu_pair, norm1: float) -> float:
    # lu_pair factors M^T, whose infinity norms are the 1-norms of M.
    lu, _ = lu_pair
    (gecon,) = get_lapack_funcs(("gecon",), (lu,))
    rcond, info = gecon(lu, norm1, norm="I")
    if info != 0:
        raise SteadyStateNumericsError(f"condition estimate failed (info={info})")
    return float(rcond)


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


def _nullspace_count(eigvals: np.ndarray, norm1: float, tol: float | None = None) -> int:
    """Eigenvalues within tol of zero; every one of them for a zero generator.

    tol defaults to NULLSPACE_TOL_SCALE times the generator's 1-norm.
    """
    if norm1 == 0.0:
        return eigvals.size
    if tol is None:
        tol = NULLSPACE_TOL_SCALE * norm1
    return int(np.sum(np.abs(eigvals) < tol))


def _eigenvector_solve(liouv: np.ndarray):
    """Nullspace count and slowest-eigenvector state from one eigendecomposition."""
    eigvals, eigvecs = np.linalg.eig(liouv)
    dimension = _nullspace_count(eigvals, float(np.linalg.norm(liouv, 1)))
    if dimension >= 2:
        raise DegenerateSteadyStateError(dimension)
    idx = int(np.argmin(np.abs(eigvals)))
    rho = devectorize(eigvecs[:, idx])
    trace = np.trace(rho)
    if abs(trace) < 1e-12:
        raise SteadyStateNumericsError(
            "slowest eigenvector is traceless; cannot normalize to a state"
        )
    return rho / trace, dimension


def nullspace_dimension(me: MasterEquationSpec, tol: float | None = None) -> int:
    """Number of generator eigenvalues within tol of zero.

    tol defaults to 1e-10 times the generator's 1-norm.  A zero generator
    (no Hamiltonian, no dissipation) fixes every state: returns dim**2.
    """
    liouv = liouvillian(me.hamiltonian, me.collapse_ops)
    return _nullspace_count(np.linalg.eigvals(liouv), float(np.linalg.norm(liouv, 1)), tol)


def steady_state(me: MasterEquationSpec) -> SteadyStateResult:
    """Solve for the unique stationary density matrix.

    Solves the trace-replaced system in real Hermitian coordinates by LU
    factorization.  A tiny reciprocal condition number triggers one
    eigendecomposition of the generator: nullspace dimension >= 2 raises
    DegenerateSteadyStateError; a unique but ill-conditioned case falls back
    to the slowest eigenvector.  The returned residual is the max-norm of
    L vec(rho) on the complex generator, for the state actually returned.
    """
    liouv = liouvillian(me.hamiltonian, me.collapse_ops)
    # M is C-ordered, so its transpose is the Fortran-ordered array LAPACK
    # factors in place; row 0 of M, the rho_00 equation, becomes the trace
    # constraint.  The factorization overwrites M, so take the norm first.
    system_t = hermitian_generator(liouv).T
    system_t[:, 0] = 0.0
    system_t[: me.dim, 0] = 1.0
    method = "trace_replacement"
    dimension = 1
    (lange,) = get_lapack_funcs(("lange",), (system_t,))
    norm1 = float(lange("I", system_t))
    try:
        with warnings.catch_warnings():
            # An exactly singular factorization is an expected outcome here;
            # it routes to the degeneracy check below.
            warnings.simplefilter("ignore", LinAlgWarning)
            lu_pair = lu_factor(system_t, overwrite_a=True)
        rcond = _reciprocal_condition(lu_pair, norm1)
    except np.linalg.LinAlgError:
        rcond = 0.0
    if rcond < RCOND_TOL:
        method = "eigenvector"
        rho, dimension = _eigenvector_solve(liouv)
    else:
        rhs = np.zeros(system_t.shape[0])
        rhs[0] = 1.0
        # trans=1 solves with (M^T)^T = M.
        rho = from_hermitian(lu_solve(lu_pair, rhs, trans=1))

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
