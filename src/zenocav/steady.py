"""Stationary states of master equations and degeneracy diagnostics.

The stationary state solves L vec(rho) = 0 with Tr rho = 1, by a direct LU
solve of the generator in real Hermitian coordinates (see
:mod:`zenocav.operators`), whose LU costs about a quarter of the complex
one, with the equation for rho_00 replaced by the trace constraint.  A
model whose operators respect its symmetry is first rotated into the
symmetry's parity basis, where the generator splits into an even block,
which holds every diagonal entry and so the trace constraint and the state,
and an odd block; each is built and factored on its own, together at about
a quarter of the cost of the whole.  The generator's size selects the
solver.  Up to SPARSE_ABOVE coordinates (dim 27, every bundled preset) the
blocks are dense, written over the dense complex generator, and LAPACK
factors them; above it they are under 1% nonzero, so they are assembled
sparse straight from the operators, with no complex generator (at
n_max = 10 it would take 1.5 GB), and SuperLU factors them in its symmetric
mode, their pattern being nearly symmetric, refining every solve once.  That
frame (the symmetry check, the basis and blocks, the rotated
Hamiltonian and the blocks' index plan) is the one the model carries,
MasterEquationSpec.frame: found once for every point of a RateFamily, and
at each solve for any other model; a solve rotates only its own collapse
operators into it.  A reciprocal-condition estimate on the factorizations
flags degenerate generators without paying for an eigendecomposition at
every call; the residual is always checked in operator form on the model's
own Hamiltonian and collapse operators.  Every threaded BLAS or LAPACK call
in the package goes through scipy, on one OpenBLAS runtime: pip-installed
numpy and scipy each load their own, and a threaded numpy call between two
solves, or between a solve and an evolution, would wake numpy's worker
threads, which then spin on the cores the next LU or product needs.  Here
that is the LU, its condition estimate and the eigendecompositions, through
scipy.linalg, and the operator products of the positivity repair and the
residual, through operators.blas_matmul; numpy starts threading complex
products at about dim 45.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import LinAlgWarning, get_lapack_funcs, lu_factor, lu_solve
from scipy.sparse import csc_array, csr_array, issparse
from scipy.sparse.linalg import LinearOperator, onenormest, splu

from .models import MasterEquationSpec
from .operators import (
    PHYSICAL_TOL,
    blas_matmul,
    from_hermitian,
    hermitian_blocks,
    liouvillian,
    sparse_hermitian_blocks,
)

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
# A generator with more Hermitian coordinates than this (dim**2) is assembled
# sparse and factored by SuperLU; up to it (dim 27, every bundled preset at
# its own n_max) the dense assembly and LU are the faster, also against
# SuperLU's symmetric mode.  At preset1 a solve took 8.3 ms dense against
# 14.3 ms sparse (bell_full) and 15.0 against 17.7 ms (klm_full) at
# n_max = 2, and 25.6 against 24.3 ms and 50.8 against 34.0 ms at n_max = 3
# (dim 36), where the real blocks are under 1% nonzero (medians of 8, 2 vCPU).
SPARSE_ABOVE = 27**2
# SuperLU's symmetric mode, which its Users' Guide advises for a matrix
# whose pattern is nearly symmetric, as the blocks' are: columns ordered by
# minimum degree on A^T + A, and the diagonal entry taken as pivot unless it
# is below DIAG_PIVOT_THRESH times its column's largest (Li, ACM TOMS 31,
# 302 (2005)).  One step of iterative refinement on every solve brings the
# backward error back below that of partial pivoting (Skeel, Math. Comp. 35,
# 817 (1980)).
SUPERLU_ORDERING = "MMD_AT_PLUS_A"
DIAG_PIVOT_THRESH = 0.01


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
    real Hermitian coordinates, not that of the complex generator: LAPACK's
    gecon on a dense LU, and 1/(||E||_1 onenormest(E^-1)) on a sparse one,
    E the block; on two OpenBLAS threads it can differ in the last bit
    between processes while rho does not.  blocks holds the sizes of the
    systems built and factored: ``(even, odd)`` when the model's symmetry
    split the generator, ``(dim**2,)`` otherwise.
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


def _finite_norm(norm1: float) -> float:
    # The norm is not finite when an entry is not, so the LU need not check.
    if not np.isfinite(norm1):
        raise SteadyStateNumericsError(
            f"generator block has 1-norm {norm1}: the rates overflow double precision"
        )
    return norm1


def _factor(system_t: np.ndarray):
    """LU of a Fortran-ordered M^T in place: a solve with M, and M's reciprocal condition.

    lu_factor does not raise on an exactly singular system: it warns of the
    zero pivot, and gecon then returns a reciprocal condition of 0.0, which
    routes the solve to the eigenvector fallback.
    """
    # The factorization overwrites the system, so take the norm first.
    (lange,) = get_lapack_funcs(("lange",), (system_t,))
    norm1 = _finite_norm(float(lange("I", system_t)))
    with warnings.catch_warnings():
        # An exactly singular factorization is an expected outcome here;
        # it routes to the degeneracy check.
        warnings.simplefilter("ignore", LinAlgWarning)
        lu_pair = lu_factor(system_t, overwrite_a=True, check_finite=False)
    # trans=1 solves with (M^T)^T = M.
    solve = functools.partial(lu_solve, lu_pair, trans=1)
    return solve, _reciprocal_condition(lu_pair, norm1)


def _refined_solve(lu, system: csc_array, trans: str):
    """A solve with system (trans "N") or its transpose ("T"), refined once against it."""
    matrix = system.T if trans == "T" else system

    def solve(b):
        x = lu.solve(b, trans)
        x += lu.solve(b - matrix @ x, trans)
        return x

    return solve


def _sparse_factor(system: csc_array):
    """SuperLU factors of a sparse M: a solve with M, and M's reciprocal condition estimate.

    SuperLU runs in its symmetric mode (SUPERLU_ORDERING, DIAG_PIVOT_THRESH),
    and every solve with the factors, the state's and the estimate's both
    ways, is refined once against M.  The estimate is 1/(||M||_1 ||M^-1||_1),
    the second norm by Hager and Higham's method (onenormest) on those
    solves; with one column it draws no random vectors, as LAPACK's gecon
    does not.  An exactly singular system gives (None, 0.0).
    """
    norm1 = _finite_norm(float(abs(system).sum(axis=0).max()))
    try:
        lu = splu(
            system,
            permc_spec=SUPERLU_ORDERING,
            diag_pivot_thresh=DIAG_PIVOT_THRESH,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError:  # SuperLU's "Factor is exactly singular"
        return None, 0.0
    solve = _refined_solve(lu, system, "N")
    inverse = LinearOperator(
        system.shape, matvec=solve, rmatvec=_refined_solve(lu, system, "T"), dtype=float
    )
    return solve, 1.0 / (norm1 * onenormest(inverse, t=1))


def _with_trace_row(system: csr_array, dim: int) -> csr_array:
    """system with row 0 replaced by the trace constraint over its first dim coordinates."""
    start = system.indptr[1]
    return csr_array(
        (
            np.concatenate([np.ones(dim), system.data[start:]]),
            np.concatenate([np.arange(dim), system.indices[start:]]),
            np.concatenate([[0], system.indptr[1:] - start + dim]),
        ),
        shape=system.shape,
    )


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
    # eigvecs is Fortran-ordered; blas_matmul takes C-ordered operands.
    rho = blas_matmul(
        np.ascontiguousarray(eigvecs * clipped), np.ascontiguousarray(eigvecs.conj().T)
    )
    rho /= np.trace(rho).real
    return rho, clip_magnitude


def _real_blocks(me: MasterEquationSpec):
    """The frame and the generator's real blocks in it.

    Up to SPARSE_ABOVE coordinates the blocks are dense, written over the
    complex generator (hermitian_blocks); above it they are scipy.sparse CSR
    arrays assembled straight from the operators (sparse_hermitian_blocks),
    and no complex generator is built.  Only the collapse operators are
    rotated here; the rest of the frame is the one me carries (see
    MasterEquationSpec.frame).
    """
    frame = me.frame
    operators = frame.hamiltonian, [frame.rotate(c) for c in me.collapse_ops]
    if me.dim**2 > SPARSE_ABOVE:
        return frame, sparse_hermitian_blocks(*operators, frame.blocks)
    return frame, hermitian_blocks(liouvillian(*operators), frame.plan)


def _dense_blocks(me: MasterEquationSpec) -> list:
    """The real blocks as dense arrays, for the eigendecompositions.

    They are built again, since the factors overwrote the dense ones; the
    sparse ones are made dense.
    """
    _, parts = _real_blocks(me)
    return [part.toarray() if issparse(part) else part for part in parts]


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
    parts = _dense_blocks(me)
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
    """max |-i[h, rho] + sum_k (L_k rho L_k^dag - {L_k^dag L_k, rho}/2)|.

    Every product is a blas_matmul, on C-ordered operands.
    """
    h, rho = np.ascontiguousarray(h), np.ascontiguousarray(rho)
    drho = -1j * (blas_matmul(h, rho) - blas_matmul(rho, h))
    for c in collapse_ops:
        c = np.ascontiguousarray(c)
        c_dag = np.ascontiguousarray(c.conj().T)
        decay = blas_matmul(c_dag, c)
        drho += blas_matmul(blas_matmul(c, rho), c_dag) - 0.5 * (
            blas_matmul(decay, rho) + blas_matmul(rho, decay)
        )
    return float(np.max(np.abs(drho)))


def nullspace_dimension(me: MasterEquationSpec) -> int:
    """Number of generator eigenvalues near zero, counted as on the eigenvector fallback.

    Runs one eigenvalue decomposition per real block steady_state solves.  A
    zero generator (no Hamiltonian, no dissipation) fixes every state:
    returns dim**2.
    """
    parts = _dense_blocks(me)
    return _nullspace_count([scipy.linalg.eigvals(part) for part in parts], parts)


def steady_state(me: MasterEquationSpec) -> SteadyStateResult:
    """Solve for the unique stationary density matrix.

    Builds the blocks of the generator in real Hermitian coordinates, in the
    parity basis when the model's symmetry holds on its operators (the frame
    me carries, see MasterEquationSpec.frame), and factors each: the even
    one with its rho_00 equation replaced by the trace constraint, and the
    odd one, whose nonsingularity rules out a second, odd stationary state.
    Up to SPARSE_ABOVE coordinates the blocks come dense, straight from the
    complex generator, and LAPACK factors them in place; above it they come
    sparse, straight from the operators, and SuperLU factors them in its
    symmetric mode, each solve refined once (_sparse_factor).  The
    state comes from the even block.  A tiny reciprocal condition number in
    either block rebuilds the blocks and triggers one eigendecomposition of
    each, on the blocks made dense: nullspace dimension >= 2 raises
    DegenerateSteadyStateError; a unique but ill-conditioned case falls back
    to the slowest eigenvector of the even block.  The returned residual is
    the max-norm of the master equation's right-hand side at the state
    actually returned, computed from the model's own operators.
    """
    # Dense blocks are written over the complex generator and factored in
    # place; the rare eigenvector fallback assembles the blocks again.
    frame, parts = _real_blocks(me)
    blocks = frame.blocks
    factors = []
    for k, system in enumerate(parts):
        # Row 0 of the even block, the rho_00 equation, becomes the trace
        # constraint over the diagonal coordinates that open the block.
        if issparse(system):
            if k == 0:
                system = _with_trace_row(system, me.dim)
            factors.append(_sparse_factor(system.tocsc()))
            continue
        # The block is C-ordered, so its transpose is the Fortran-ordered
        # array LAPACK factors in place.
        system_t = system.T
        if k == 0:
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
        even = factors[0][0](rhs)
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
