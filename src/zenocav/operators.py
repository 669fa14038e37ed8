"""Dense operator algebra and superoperator construction.

Everything in this package works on plain complex numpy arrays.  A square
array of shape ``(dim, dim)`` is an operator on a ``dim``-dimensional Hilbert
space; a ``(dim**2, dim**2)`` array is a superoperator acting on
column-stacked density matrices.  The one exception is the generator of a
large model, which sparse_hermitian_blocks assembles as scipy.sparse arrays
in real Hermitian coordinates (below) without any dense array of its size.

Vectorization is column stacking throughout::

    vec(rho) = rho.flatten(order="F")
    vec(A @ X @ B) = kron(B.T, A) @ vec(X)

Every superoperator formula in this package follows that one convention.
The Lindblad generator takes the non-Hermitian Hamiltonian form
``h_nh = h - (i/2) sum_k L_k^dag L_k`` (Reiter & Sørensen, PRA 85, 032111).

The generator maps Hermitian matrices to Hermitian ones, so the solvers work
in real Hermitian coordinates: ``[rho_ii | sqrt2 Re rho_ij | sqrt2 Im rho_ij]``
over ``i < j``, an orthonormal real basis in which the generator is a real
matrix of the same size and ``Tr(A B)`` is the dot product of the
coordinates of Hermitian ``A`` and ``B``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_blas_funcs
from scipy.sparse import csr_array, kron, vstack

# Shared tolerances.  Algebraic identities (projector algebra, hermiticity of
# constructed operators) must hold to ALGEBRAIC_TOL; physical state properties
# (trace, positivity) to PHYSICAL_TOL; states coming out of long fixed-step
# integrations to INTEGRATION_TOL.
ALGEBRAIC_TOL = 1e-10
PHYSICAL_TOL = 1e-9
INTEGRATION_TOL = 1e-6
# A symmetry holds when it maps each operator to itself (each collapse
# operator to +- one of the others) within this fraction of the operator's
# largest entry; the cross-block terms a block-wise solve or evolution then
# drops are rounding-sized.
SYMMETRY_TOL = 1e-12

_SQRT2 = math.sqrt(2.0)


def _as_square(a, name: str = "operator") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product of two operators.

    Entry ``((i*q + k), (j*q + l))`` of the result is ``a[i, j] * b[k, l]``
    for ``q = b.shape[0]``, i.e. the first factor indexes the slow (leftmost)
    subsystem.
    """
    return np.kron(_as_square(a, "a"), _as_square(b, "b"))


def hermiticity_defect(a) -> float:
    """Largest entrywise deviation of ``a`` from its conjugate transpose."""
    a = _as_square(a)
    return float(np.max(np.abs(a - a.conj().T)))


def expectation(obs, rho) -> float:
    """Real part of ``Tr(obs @ rho)``.

    For a Hermitian observable the imaginary residue of the trace must stay
    below 1e-8; a larger residue signals a corrupted state and raises.
    """
    obs = _as_square(obs, "observable")
    rho = _as_square(rho, "state")
    if obs.shape != rho.shape:
        raise ValueError(
            f"dimension mismatch: observable {obs.shape[0]}, state {rho.shape[0]}"
        )
    # The trace needs only the product's diagonal: dim^2 multiplications,
    # and no threaded matrix product on numpy's BLAS.
    value = complex(np.sum(obs.T * rho))
    if hermiticity_defect(obs) <= ALGEBRAIC_TOL and abs(value.imag) > 1e-8:
        raise ValueError(
            f"expectation of Hermitian observable has imaginary part {value.imag:.3e}"
        )
    return value.real


def liouvillian(h, collapse_ops=()) -> np.ndarray:
    """Matrix form of the Lindblad generator under column stacking.

    Maps ``rho`` to ``-i h_nh rho + i rho h_nh^dag + sum_k L_k rho L_k^dag``
    with ``h_nh = h - (i/2) sum_k L_k^dag L_k``, i.e. the sum
    ``kron(I, -i h_nh) + kron(i conj(h_nh), I) + sum_k kron(conj(L_k), L_k)``.
    The terms are written straight into one zeroed result through its
    4-index view ``s4[i, k, j, l] = sop[i*n + k, j*n + l]``: the identity
    factors touch only ``n**3`` entries each, and each channel's product only
    the pairs of its nonzeros.
    """
    h = _as_square(h, "hamiltonian")
    n = h.shape[0]
    ops = [_as_square(c, f"collapse operator {k}") for k, c in enumerate(collapse_ops)]
    for k, c in enumerate(ops):
        if c.shape[0] != n:
            raise ValueError(
                f"collapse operator {k} has dim {c.shape[0]}, hamiltonian has {n}"
            )
    h_nh = h - 0.5j * sum(c.conj().T @ c for c in ops)
    sop = np.zeros((n * n, n * n), dtype=complex)
    s4 = sop.reshape(n, n, n, n)
    idx = np.arange(n)
    s4[idx, :, idx, :] = -1j * h_nh
    s4[:, idx, :, idx] += 1j * h_nh.conj()
    flat = sop.reshape(-1)
    for c in ops:
        rows, cols = np.nonzero(c)
        vals = c[rows, cols]
        # Entry (r1*n + r2, s1*n + s2) of the product is conj(c[r1, s1]) c[r2, s2];
        # distinct nonzero pairs land on distinct entries.
        target = ((rows[:, None] * n + rows) * n + cols[:, None]) * n + cols
        flat[target.ravel()] += (vals.conj()[:, None] * vals).ravel()
    return sop


def blas_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b on scipy's BLAS, for a C-ordered matrix a and a C-ordered b.

    The BLAS reads Fortran-ordered matrices, and the transpose of a
    C-ordered array is one, so no operand is copied: a vector b is gemv's
    ``(a^T)^T b``, and a matrix b gives gemm's ``(b^T a^T)^T``, C-ordered.
    Every product that may thread goes through here: a pip-installed numpy
    and scipy each load their own OpenBLAS, whose worker threads spin for a
    while after each parallel call, so a threaded numpy product next to
    scipy's LUs would leave one runtime's threads on the cores the other
    needs.
    """
    if b.ndim == 1:
        return get_blas_funcs("gemv", (a, b))(1.0, a.T, b, trans=1)
    return get_blas_funcs("gemm", (a, b))(1.0, b.T, a.T).T


def vectorize(rho) -> np.ndarray:
    """Column-stack a square matrix into a vector."""
    return _as_square(rho, "matrix").flatten(order="F")


def devectorize(v) -> np.ndarray:
    """Inverse of :func:`vectorize`; the length must be a perfect square."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    n = math.isqrt(v.size)
    if n * n != v.size:
        raise ValueError(f"vector of length {v.size} is not a vectorized square matrix")
    return v.reshape((n, n), order="F")


def _hermitian_coordinates(dim: int):
    """Column-stacked positions of the diagonal and of the pairs i < j.

    Pairs run over j, then i, so the equations for rho_0j .. rho_jj are the
    contiguous generator rows j*dim .. j*dim + j.
    """
    j, i = np.tril_indices(dim, -1)
    return np.arange(dim) * (dim + 1), i + j * dim, j + i * dim


@dataclass(frozen=True)
class BlockPlan:
    """The index arrays hermitian_blocks reads with, for one dim and one set of blocks.

    A block is an ascending coordinate array whose Re and Im parts share
    their pairs (parity_frame's); one of every coordinate is the whole
    generator.  Per block, ``indices`` holds ``(re0, im0, diagonal, upper,
    lower, rows)``: where its Re and Im coordinates start, the generator
    columns of its diagonal coordinates and of its pairs' upper and lower
    entries, and, as one column, the rows its equations hold once
    hermitian_blocks has moved them (the diagonal ones, then the pairs').
    Everything depends on dim and the blocks only, so one plan serves every
    generator of one frame.
    """

    dim: int
    blocks: tuple
    indices: tuple


def block_plan(dim: int, blocks) -> BlockPlan:
    """The BlockPlan of blocks over the Hermitian coordinates of dimension dim."""
    n = dim * dim
    diag, upper, lower = _hermitian_coordinates(dim)
    # The equations hermitian_blocks reads, rows j*dim .. j*dim + j for each
    # j, in order; it moves them to the last rows.
    eqs = np.sort(np.concatenate([diag, upper]))
    first = n - eqs.size
    # Blocks that end short of the first moved equation cannot reach one; the
    # parity blocks always do, and a block of every coordinate needs none.
    if max(idx.size for idx in blocks) < n and sum(idx.size**2 for idx in blocks) > 2 * first * n:
        raise ValueError("blocks this unequal do not fit beside the equations they read")
    row = np.empty(n, dtype=int)
    row[eqs] = np.arange(first, n)
    indices = []
    for idx in blocks:
        re0 = int(np.searchsorted(idx, dim))
        im0 = (re0 + idx.size) // 2
        # The Re coordinates idx[re0:im0] are their pair numbers plus dim.
        pairs = idx[re0:im0] - dim
        columns = diag[idx[:re0]], upper[pairs], lower[pairs]
        # The rows as a column, so that rows[a:b] and a column array index
        # the generator as np.ix_ would.
        indices.append((re0, im0, *columns, row[np.concatenate(columns[:2])][:, None]))
    return BlockPlan(dim, tuple(blocks), tuple(indices))


def hermitian_blocks(liouv: np.ndarray, plan: BlockPlan) -> list:
    """Diagonal blocks of the generator in real Hermitian coordinates, M = U^dag L U.

    The blocks are plan's (see block_plan).  M is real because L maps
    Hermitian matrices to Hermitian ones; the equation for rho_ji is the
    conjugate of the one for rho_ij, so only the rows for i <= j and each
    block's own columns are read; in C order a block is LAPACK's M^T.  The
    blocks are written over liouv, whose buffer they view one after the
    other from its start, so the generator and its blocks never take more
    than the generator's own memory.
    """
    n = liouv.shape[0]
    dim = plan.dim
    if not liouv.flags.c_contiguous or liouv.dtype != complex:
        raise ValueError("the generator must be a C-ordered complex128 array")
    if liouv.shape != (dim * dim, dim * dim):
        raise ValueError(f"generator of shape {liouv.shape} for a plan of dimension {dim}")
    # The equations read, rows j*dim .. j*dim + j for each j, move in order
    # to the last rows, the last run first, so that none lands on a row still
    # to move.  The blocks then fill the buffer from its start, each row
    # block of output no longer than the equations just read, and never reach
    # an equation still to be read.
    first = n - dim * (dim + 1) // 2
    for j in range(dim - 1, -1, -1):
        at = first + j * (j + 1) // 2
        liouv[at : at + j + 1] = liouv[j * dim : j * dim + j + 1]
    buffer = liouv.view(float).reshape(-1)
    parts, start = [], 0
    for idx, (re0, im0, diag, upper, lower, rows) in zip(plan.blocks, plan.indices):
        part = buffer[start : start + idx.size**2].reshape(idx.size, idx.size)
        start += idx.size**2
        # The diagonal equations (k < 0), then the pairs', at most dim at a time.
        for k in range(-dim, im0 - re0, dim):
            eq = slice(k, k + dim)
            eqs = rows[:re0] if k < 0 else rows[re0:][eq]
            # Columns of L U: xd, (xu + xl)/sqrt2 and i (xu - xl)/sqrt2.  xd is
            # gathered once xl is gone, and the blocks go before the next chunk
            # gathers its own, so at most three are alive at once.
            xu = liouv[eqs, upper]
            xl = liouv[eqs, lower]
            xs = xu + xl
            xu -= xl
            del xl
            xd = liouv[eqs, diag]
            if k < 0:
                part[:re0, :re0] = xd.real
                part[:re0, re0:im0] = xs.real / _SQRT2
                part[:re0, im0:] = xu.imag / -_SQRT2
            else:
                # Rows of U^dag: sqrt2 Re and sqrt2 Im of each equation rho_ij, i < j.
                part[re0:im0][eq, :re0] = xd.real * _SQRT2
                part[re0:im0][eq, re0:im0] = xs.real
                part[re0:im0][eq, im0:] = -xu.imag
                part[im0:][eq, :re0] = xd.imag * _SQRT2
                part[im0:][eq, re0:im0] = xs.imag
                part[im0:][eq, im0:] = xu.real
            del xd, xu, xs
        parts.append(part)
    return parts


def sparse_hermitian_blocks(h, collapse_ops, blocks) -> list:
    """hermitian_blocks' blocks of the generator of h and collapse_ops, assembled sparse.

    Each block is a scipy.sparse CSR array of M = U^dag L U over its
    coordinates, blocks being ascending coordinate arrays as in block_plan.
    L is liouvillian's Kronecker sum, built sparse, and only its equations
    for rho_ij, i <= j, are kept; the coordinate map U, at most two nonzeros
    per column, takes them into real Hermitian coordinates, whose rows are
    the diagonal equations' real parts and sqrt2 Re and sqrt2 Im of the
    pairs'.  No dense array of the generator's size is built, and every
    product is sparse.
    """
    dim = h.shape[0]
    ops = [csr_array(c) for c in collapse_ops]
    decay = sum((c.conj().T @ c for c in ops), csr_array((dim, dim), dtype=complex))
    h_nh = csr_array(h) - 0.5j * decay
    eye = csr_array(np.eye(dim))
    liouv = kron(eye, -1j * h_nh, format="csr") + kron(1j * h_nh.conj(), eye, format="csr")
    for c in ops:
        liouv += kron(c.conj(), c, format="csr")
    # Column c of U is the column-stacked Hermitian matrix with coordinates
    # e_c: e_d for a diagonal coordinate, (e_u + e_l)/sqrt2 for a pair's Re
    # coordinate and i (e_u - e_l)/sqrt2 for its Im one.
    diag, upper, lower = _hermitian_coordinates(dim)
    pairs = upper.size
    re = np.arange(dim, dim + pairs)
    im = re + pairs
    half = 1.0 / _SQRT2
    rows = np.concatenate([diag, upper, lower, upper, lower])
    cols = np.concatenate([np.arange(dim), re, re, im, im])
    values = np.concatenate(
        [np.ones(dim), np.full(2 * pairs, half), np.full(pairs, 1j * half),
         np.full(pairs, -1j * half)]
    )
    coordinate_map = csr_array((values, (rows, cols)), shape=(dim * dim, dim * dim))
    eqs = liouv[np.concatenate([diag, upper])] @ coordinate_map
    real = vstack([eqs[:dim].real, _SQRT2 * eqs[dim:].real, _SQRT2 * eqs[dim:].imag], format="csr")
    # Entries whose real or imaginary part alone is nonzero leave explicit zeros.
    real.eliminate_zeros()
    return [real[idx][:, idx] for idx in blocks]


def to_hermitian(op) -> np.ndarray:
    """Hermitian coordinates of op, read from its diagonal and upper triangle."""
    v = vectorize(op)
    diag, upper, _ = _hermitian_coordinates(math.isqrt(v.size))
    return np.concatenate([v[diag].real, _SQRT2 * v[upper].real, _SQRT2 * v[upper].imag])


def from_hermitian(x) -> np.ndarray:
    """The Hermitian matrix with coordinates x."""
    dim = math.isqrt(x.size)
    diag, upper, lower = _hermitian_coordinates(dim)
    rho = np.empty(x.size, dtype=complex)
    rho[diag] = x[:dim]
    pairs = (x[dim : dim + upper.size] + 1j * x[dim + upper.size :]) / _SQRT2
    rho[upper] = pairs
    rho[lower] = pairs.conj()
    return devectorize(rho)


def parity_blocks(perm, sign):
    """Parity basis of a signed basis involution and its two coordinate blocks.

    ``U|k> = sign[k] |perm[k]>`` must square to the identity: perm an
    involution and ``sign[k] sign[perm[k]] = 1``.  Returns ``(basis, even,
    odd)``.  basis is real orthogonal; its rows are ``e_k`` for the states U
    fixes (parity ``sign[k]``) and, for each pair ``k < perm[k]``,
    ``(e_k + sign[k] e_perm[k])/sqrt2`` in row k (parity +1) and
    ``(e_k - sign[k] e_perm[k])/sqrt2`` in row perm[k] (parity -1).  even and
    odd are the ascending Hermitian coordinates of ``basis rho basis^T``
    whose entry ``rho_ij`` has ``p_i p_j = +1`` (every diagonal entry, so
    even starts with them) and ``-1``.  A generator commuting with ``U . U^dag``
    never couples the two sets.
    """
    perm = np.asarray(perm, dtype=int)
    sign = np.asarray(sign, dtype=float)
    dim = perm.size
    k = np.arange(dim)
    if (
        sign.shape != (dim,)
        or not np.array_equal(np.sort(perm), k)
        or not np.array_equal(perm[perm], k)
        or not np.array_equal(sign * sign[perm], np.ones(dim))
    ):
        raise ValueError("symmetry must be a signed basis permutation that squares to the identity")
    basis = np.zeros((dim, dim))
    parity = sign.copy()
    fixed = k[perm == k]
    basis[fixed, fixed] = 1.0
    lo = k[perm > k]
    hi = perm[lo]
    basis[lo, lo] = basis[hi, lo] = 1.0 / _SQRT2
    basis[lo, hi] = sign[lo] / _SQRT2
    basis[hi, hi] = -sign[lo] / _SQRT2
    parity[lo] = 1.0
    parity[hi] = -1.0
    # Pairs in the order of _hermitian_coordinates; Re and Im share a parity.
    j, i = np.tril_indices(dim, -1)
    pair = parity[i] * parity[j]
    coords = np.concatenate([np.ones(dim), pair, pair])
    return basis, np.flatnonzero(coords > 0), np.flatnonzero(coords < 0)


@dataclass(frozen=True)
class Frame:
    """The frame a solver works in, as parity_frame finds it.

    basis is the real orthogonal matrix whose rows span a parity frame, or
    None for the one-block frame, which is the model's own basis;
    hamiltonian the Hamiltonian in it (a parity frame's less its trace
    part, which no generator sees) and blocks its coordinate blocks.
    rotation is the _parity_rotation of the symmetry that held, or None for
    the one-block frame.
    """

    basis: np.ndarray | None
    hamiltonian: np.ndarray
    blocks: tuple
    rotation: tuple | None

    @functools.cached_property
    def plan(self) -> BlockPlan:
        """The blocks' BlockPlan, built at the first read.

        A solve reads it after assembling the generator, so a frame built
        for one solve holds no plan through the assembly.
        """
        return block_plan(self.hamiltonian.shape[0], self.blocks)

    def rotate(self, op) -> np.ndarray:
        """op in the frame's basis, as parity_frame rotates the Hamiltonian."""
        return op if self.rotation is None else _in_parity_basis(op, self.rotation)

    def rotate_back(self, op) -> np.ndarray:
        """op from the frame's basis back into the model's, ``basis^T @ op @ basis``.

        The products are blas_matmul's, on the basis made complex.
        """
        if self.rotation is None:
            return op
        basis = self.basis.astype(complex)
        return blas_matmul(blas_matmul(basis.T.copy(), np.ascontiguousarray(op)), basis)


def _parity_rotation(perm, sign):
    """What _in_parity_basis needs of a signed involution: ``(first, second, c, weight)``.

    Row r of parity_blocks' basis is e_r for a state the involution fixes
    and ``(e_a +- sign[a] e_b)/sqrt2`` for a pair a < b: it combines states
    first[r] and second[r] with the factor c[r] on the second (0 for a fixed
    state), and weight[r] is 2 for a pair's row and 1 for a fixed one.
    """
    k = np.arange(perm.size)
    first, second = np.minimum(k, perm), np.maximum(k, perm)
    c = np.where(perm == k, 0.0, np.where(perm > k, 1.0, -1.0) * sign[first])
    return first, second, c, np.where(perm == k, 1.0, 2.0)


def _in_parity_basis(op, rotation) -> np.ndarray:
    """``basis @ op @ basis.T`` for parity_blocks' basis, as signed half-sums.

    Each entry is an entry of op, ``(op[k, a] +- op[k, b])/sqrt2`` with one
    index fixed, or ``(op[a, c] +- op[a, d] +- op[b, c] +- op[b, d])/2``
    with none.  A multiple of the identity stays exact, and no dim^3
    product is taken.
    """
    first, second, c, weight = rotation
    rows = op[first] + c[:, None] * op[second]
    sums = rows[:, first] + c * rows[:, second]
    # sqrt is correctly rounded: the divisors are exactly 1, sqrt2 and 2.
    return sums / np.sqrt(np.outer(weight, weight))


def parity_frame(h, collapse_ops, symmetry) -> Frame:
    """The frame a solver works in, and the one check of the model's symmetry.

    Where symmetry, a signed basis involution ``(perm, sign)`` as in
    :func:`parity_blocks`, holds on the operators (``U h U^dag = h``, and
    ``U . U^dag`` maps the collapse operators one-to-one onto +-themselves):
    its parity basis, the (even, odd) coordinate blocks and h, less its
    trace part, rotated into that basis.  Otherwise, symmetry None included:
    no basis, one block of every coordinate and h as it is.
    The collapse operators are only checked; ``Frame.rotate`` takes each
    into the frame.  A model runs this at each read of
    MasterEquationSpec.frame, a RateFamily once for all its points: they
    share its Hamiltonian, and each collapse operator and its image under
    the exchange parity share one rate factor, so every point passes or
    fails as the family does.
    """
    dim = h.shape[0]

    def whole():
        return Frame(None, h, (np.arange(dim**2),), None)

    if symmetry is None:
        return whole()
    perm, sign = symmetry
    basis, even, odd = parity_blocks(perm, sign)
    signs = np.outer(sign, sign)

    def image(op):
        # (U op U^dag)[perm[a], perm[b]] = sign[a] sign[b] op[a, b].
        out = np.empty_like(op)
        out[np.ix_(perm, perm)] = signs * op
        return out

    def close(a, b):
        return np.max(np.abs(a - b)) <= SYMMETRY_TOL * np.max(np.abs(b))

    if not close(image(h), h):
        return whole()
    unmatched = list(collapse_ops)
    for c in collapse_ops:
        mapped = image(c)
        match = next(
            (j for j, d in enumerate(unmatched) if close(mapped, d) or close(-mapped, d)), None
        )
        if match is None:
            return whole()
        del unmatched[match]
    # The generator sees only h's traceless part.  Rotated less its trace
    # part, h keeps what a near multiple of the identity holds beside it:
    # diag(1 + eps, 1 - eps) is diag(1, 1) in double precision, but
    # diag(eps, -eps) is exact.
    traceless = h - np.trace(h).real / dim * np.eye(dim)
    rotation = _parity_rotation(perm, sign)
    return Frame(basis, _in_parity_basis(traceless, rotation), (even, odd), rotation)


@dataclass(frozen=True)
class DensityMatrixReport:
    """Diagnostics from :func:`validate_density_matrix`; never raises."""

    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float
    tol: float

    @property
    def passed(self) -> bool:
        return (
            self.hermiticity_defect <= self.tol
            and self.trace_defect <= self.tol
            and self.min_eigenvalue >= -self.tol
        )

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{status} (tol={self.tol:.1e}): hermiticity defect "
            f"{self.hermiticity_defect:.3e}, trace defect {self.trace_defect:.3e}, "
            f"min eigenvalue {self.min_eigenvalue:.3e}"
        )


def validate_density_matrix(op, tol: float = PHYSICAL_TOL) -> DensityMatrixReport:
    """Report hermiticity defect, trace defect, and minimum eigenvalue."""
    op = _as_square(op, "density matrix")
    herm = hermiticity_defect(op)
    trace_defect = float(abs(np.trace(op) - 1.0))
    min_eig = float(np.linalg.eigvalsh((op + op.conj().T) / 2).min())
    return DensityMatrixReport(herm, trace_defect, min_eig, tol)


def operator_to_dict(a) -> dict:
    """Serialize to ``{"dim": n, "entries": [[re, im], ...]}``, row-major."""
    a = _as_square(a)
    return {
        "dim": int(a.shape[0]),
        "entries": [[float(z.real), float(z.imag)] for z in a.ravel(order="C")],
    }

