"""Stationary states of master equations and degeneracy diagnostics.

The stationary state solves L vec(rho) = 0 with Tr rho = 1.  The generator
is dense (up to 2916 square at n_max = 5), and a direct LU solve is the
workhorse.  It factors the generator in real Hermitian coordinates
(see :mod:`zenocav.operators`), whose LU costs about a quarter of the
complex one, with the equation for rho_00 replaced by the trace constraint.
A model whose operators respect its symmetry is first rotated into the
symmetry's parity basis, where the generator splits into an even block,
which holds every diagonal entry and so the trace constraint and the state,
and an odd block; each is built and factored on its own, together at about
a quarter of the cost of the whole.  That frame (the symmetry check, the
basis and blocks, the rotated Hamiltonian and the blocks' index plan) is the
one the model carries, MasterEquationSpec.frame: found once for every point
of a RateFamily, and at each solve for any other model; a solve rotates only
its own collapse operators into it.  A reciprocal-condition estimate on the
factorizations flags degenerate generators without paying for an
eigendecomposition at every call; the residual is always checked in
operator form on the model's own Hamiltonian and collapse operators.
Every threaded BLAS or LAPACK call in the package goes through scipy, on
one OpenBLAS runtime: pip-installed numpy and scipy each load their own,
and a threaded numpy call between two solves, or between a solve and an
evolution, would wake numpy's worker threads, which then spin on the cores
the next LU or product needs.  Here that is the LU, its condition estimate
and the eigendecompositions, through scipy.linalg.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import LinAlgWarning, get_lapack_funcs, lu_factor, lu_solve

from .models import MasterEquationSpec
from .operators import PHYSICAL_TOL, from_hermitian, hermitian_blocks, liouvillian

# Below this reciprocal condition number a trace-replaced block is treated
# as singular and the generator is checked for a degenerate nullspace.
RCOND_TOL = 1e-13
# Scale factor for the nullspace eigenvalue cutoff, relative to the largest
# 1-norm of the generator's real Hermitian-coordinate blocks.
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

    nullspace_dimension is 1 on the trace-replacement path, where
    nonsingular blocks (the even one trace-replaced) prove the stationary
    state unique, and the counted value on the eigenvector fallback.  rcond
    is the smallest of the blocks' 1-norm reciprocal condition estimates in
    real Hermitian coordinates, not that of the complex generator; on two
    OpenBLAS threads it can differ in the last bit between processes while
    rho does not.  blocks holds the sizes of the systems built and factored:
    ``(even, odd)`` when the model's symmetry split the generator,
    ``(dim**2,)`` otherwise.
    """

    rho: np.ndarray
    residual: float
    method: str  # "trace_replacement" or "eigenvector"
    rcond: float
    clip_magnitude: float
    nullspace_dimension: int
    blocks: tuple


def _reciprocal_condition(lu_pair, norm1: float) -> float:
    # lu_pair factors M^T, whose infinity norms are the 1-norms of M.
    lu, _ = lu_pair
    (gecon,) = get_lapack_funcs(("gecon",), (lu,))
    rcond, info = gecon(lu, norm1, norm="I")
    if info != 0:
        raise SteadyStateNumericsError(f"condition estimate failed (info={info})")
    return float(rcond)


def _factor(system_t: np.ndarray):
    """LU of a Fortran-ordered M^T in place, and M's reciprocal condition.

    An exactly singular system gives (None, 0.0).
    """
    # The factorization overwrites the system, so take the norm first.  It is
    # not finite when an entry is not, so the LU need not check (a bool copy).
    (lange,) = get_lapack_funcs(("lange",), (system_t,))
    norm1 = float(lange("I", system_t))
    if not np.isfinite(norm1):
        raise SteadyStateNumericsError(
            f"generator block has 1-norm {norm1}: the rates overflow double precision"
        )
    try:
        with warnings.catch_warnings():
            # An exactly singular factorization is an expected outcome here;
            # it routes to the degeneracy check.
            warnings.simplefilter("ignore", LinAlgWarning)
            lu_pair = lu_factor(system_t, overwrite_a=True, check_finite=False)
        return lu_pair, _reciprocal_condition(lu_pair, norm1)
    except np.linalg.LinAlgError:
        return None, 0.0


def _repair_positivity(rho: np.ndarray):
    rho = (rho + rho.conj().T) / 2.0
    # zheevd, the routine numpy's eigh calls, gives the same state bit for
    # bit; scipy's default evr driver moves it by rounding.
    eigvals, eigvecs = scipy.linalg.eigh(rho, driver="evd")
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


def _real_blocks(me: MasterEquationSpec):
    """The frame and the generator's real blocks in it.

    Only the collapse operators are rotated here; the rest of the frame is
    the one me carries (see MasterEquationSpec.frame).
    """
    frame = me.frame
    operators = frame.hamiltonian, [frame.rotate(c) for c in me.collapse_ops]
    return frame, hermitian_blocks(liouvillian(*operators), frame.plan)


def _nullspace_count(spectra, parts) -> int:
    """Eigenvalues of the blocks, whose spectra together are the generator's, near zero.

    The cutoff is NULLSPACE_TOL_SCALE times the largest block 1-norm; a zero
    generator's eigenvalues are all exactly zero and all count.
    """
    norm1 = max(float(np.linalg.norm(part, 1)) for part in parts)
    return int(np.sum(np.abs(np.concatenate(spectra)) <= NULLSPACE_TOL_SCALE * norm1))


def _eigenvector_solve(me: MasterEquationSpec):
    """Nullspace count and slowest even-block eigenvector, one eigendecomposition per block.

    The blocks are built again, since the factors overwrote them.  The count
    is _nullspace_count's, against the largest real block 1-norm; the state's
    trace is the sum of the even block's first dim (diagonal) coordinates.
    """
    _, parts = _real_blocks(me)
    spectra = [scipy.linalg.eig(part) for part in parts]
    dimension = _nullspace_count([w for w, _ in spectra], parts)
    if dimension >= 2:
        raise DegenerateSteadyStateError(dimension)
    eigvals, eigvecs = spectra[0]
    x = eigvecs[:, int(np.argmin(np.abs(eigvals)))]
    trace = x[: me.dim].sum()
    if abs(trace) < 1e-12:
        raise SteadyStateNumericsError(
            "slowest eigenvector is traceless; cannot normalize to a state"
        )
    return (x / trace).real, dimension


def _residual(h: np.ndarray, collapse_ops, rho: np.ndarray) -> float:
    """max |-i[h, rho] + sum_k (L_k rho L_k^dag - {L_k^dag L_k, rho}/2)|."""
    drho = -1j * (h @ rho - rho @ h)
    for c in collapse_ops:
        c_dag = c.conj().T
        decay = c_dag @ c
        drho += c @ rho @ c_dag - 0.5 * (decay @ rho + rho @ decay)
    return float(np.max(np.abs(drho)))


def nullspace_dimension(me: MasterEquationSpec) -> int:
    """Number of generator eigenvalues near zero, counted as on the eigenvector fallback.

    Runs one eigenvalue decomposition per real block steady_state solves.  A
    zero generator (no Hamiltonian, no dissipation) fixes every state:
    returns dim**2.
    """
    _, parts = _real_blocks(me)
    return _nullspace_count([scipy.linalg.eigvals(part) for part in parts], parts)


def steady_state(me: MasterEquationSpec) -> SteadyStateResult:
    """Solve for the unique stationary density matrix.

    Builds the blocks of the generator in real Hermitian coordinates, in the
    parity basis when the model's symmetry holds on its operators (the frame
    me carries, see MasterEquationSpec.frame), straight from the complex
    generator, and LU-factors each: the even one with its
    rho_00 equation replaced by the trace constraint, and the odd one, whose
    nonsingularity rules out a second, odd stationary state.  The state comes
    from the even block.  A tiny reciprocal condition number in either block
    rebuilds the blocks and triggers one eigendecomposition of each: nullspace
    dimension >= 2 raises DegenerateSteadyStateError; a unique but
    ill-conditioned case falls back to the slowest eigenvector of the even
    block.  The returned residual is the max-norm of the master equation's
    right-hand side at the state actually returned, computed from the model's
    own operators.
    """
    # The blocks are written over the complex generator and factored in
    # place; the rare eigenvector fallback assembles the generator again.
    frame, parts = _real_blocks(me)
    blocks = frame.blocks
    factors = []
    for k, system in enumerate(parts):
        # The block is C-ordered, so its transpose is the Fortran-ordered
        # array LAPACK factors in place.
        system_t = system.T
        if k == 0:
            # Row 0 of the even block, the rho_00 equation, becomes the trace
            # constraint over the diagonal coordinates that open the block.
            system_t[:, 0] = 0.0
            system_t[: me.dim, 0] = 1.0
        factors.append(_factor(system_t))
    rcond = min(block_rcond for _, block_rcond in factors)
    if rcond < RCOND_TOL:
        method = "eigenvector"
        even, dimension = _eigenvector_solve(me)
    else:
        method = "trace_replacement"
        dimension = 1
        rhs = np.zeros(blocks[0].size)
        rhs[0] = 1.0
        # trans=1 solves with (M^T)^T = M.
        even = lu_solve(factors[0][0], rhs, trans=1)
    x = np.zeros(me.dim**2)
    x[blocks[0]] = even
    rho = frame.rotate_back(from_hermitian(x))

    rho, clip_magnitude = _repair_positivity(rho)
    residual = _residual(me.hamiltonian, me.collapse_ops, rho)
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
        blocks=tuple(int(idx.size) for idx in blocks),
    )
