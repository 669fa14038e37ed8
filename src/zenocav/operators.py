"""Operator algebra and superoperator construction.

Operators are plain complex numpy arrays: a square array of shape
``(dim, dim)`` is an operator on a ``dim``-dimensional Hilbert space; a
``(dim**2, dim**2)`` array is a superoperator acting on column-stacked
density matrices.  The Lindblad generator's entries are written in one
place, _lindblad_terms, and assembled two ways: dense and complex by
liouvillian, and as scipy.sparse blocks in real Hermitian coordinates
(below) by sparse_hermitian_blocks, with no dense array of the generator's
size.  evolve and the eigendecompositions take the sparse blocks at every
size, and the steady-state solve above dim 27.

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

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import get_blas_funcs
from scipy.sparse import csr_array, vstack

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


def _lindblad_terms(h, collapse_ops):
    """Yield ``(rows, cols, values)`` of the nonzeros of each Kronecker term of the generator.

    The terms, in the order both assemblies sum them, are
    ``kron(I, -i h_nh)``, ``kron(i conj(h_nh), I)`` and one
    ``kron(conj(L_k), L_k)`` per channel, with
    ``h_nh = h - (i/2) sum_k L_k^dag L_k``; entry ``(i*n + k, j*n + l)`` of
    ``kron(a, b)`` is ``a[i, j] b[k, l]``, and distinct nonzero pairs of one
    term land on distinct entries.  The products L_k^dag L_k are
    blas_matmul's.
    """
    n = h.shape[0]
    ops = [np.ascontiguousarray(c) for c in collapse_ops]
    h_nh = h - 0.5j * sum(blas_matmul(np.ascontiguousarray(c.conj().T), c) for c in ops)
    idx = np.arange(n)
    rows, cols = np.nonzero(h_nh)
    # kron(I, a): a's nonzeros repeated down the diagonal blocks.
    yield ((idx[:, None] * n + rows).ravel(), (idx[:, None] * n + cols).ravel(),
           np.tile(-1j * h_nh[rows, cols], n))
    # kron(b, I): each nonzero of b as a diagonal of its block.
    yield ((rows[:, None] * n + idx).ravel(), (cols[:, None] * n + idx).ravel(),
           np.repeat(1j * h_nh.conj()[rows, cols], n))
    for c in ops:
        rows, cols = np.nonzero(c)
        vals = c[rows, cols]
        yield ((rows[:, None] * n + rows).ravel(), (cols[:, None] * n + cols).ravel(),
               (vals.conj()[:, None] * vals).ravel())


def liouvillian(h, collapse_ops=()) -> np.ndarray:
    """Matrix form of the Lindblad generator under column stacking.

    Maps ``rho`` to ``-i h_nh rho + i rho h_nh^dag + sum_k L_k rho L_k^dag``
    with ``h_nh = h - (i/2) sum_k L_k^dag L_k``, i.e. the sum
    ``kron(I, -i h_nh) + kron(i conj(h_nh), I) + sum_k kron(conj(L_k), L_k)``.
    Each term's nonzeros (_lindblad_terms) are added into one zeroed result.
    """
    h = _as_square(h, "hamiltonian")
    n = h.shape[0]
    ops = [_as_square(c, f"collapse operator {k}") for k, c in enumerate(collapse_ops)]
    for k, c in enumerate(ops):
        if c.shape[0] != n:
            raise ValueError(
                f"collapse operator {k} has dim {c.shape[0]}, hamiltonian has {n}"
            )
    sop = np.zeros((n * n, n * n), dtype=complex)
    for rows, cols, values in _lindblad_terms(h, ops):
        sop.reshape(-1)[rows * n**2 + cols] += values
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


def hermitian_blocks(liouv: np.ndarray, blocks) -> list:
    """Diagonal blocks of the generator in real Hermitian coordinates, M = U^dag L U.

    A block is an ascending coordinate array whose Re and Im parts share
    their pairs (parity_frame's), and the blocks cover every coordinate
    once; one block of every coordinate is the whole generator.  M is real
    because L maps Hermitian matrices to Hermitian ones; the equation for
    rho_ji is the conjugate of the one for rho_ij, so only the rows for
    i <= j and each block's own columns are read; in C order a block is
    LAPACK's M^T.  The blocks are written over liouv, whose buffer they view
    one after the other from its start, so the generator and its blocks
    never take more than the generator's own memory.
    """
    n = liouv.shape[0]
    dim = math.isqrt(n)
    if not liouv.flags.c_contiguous or liouv.dtype != complex:
        raise ValueError("the generator must be a C-ordered complex128 array")
    if not np.array_equal(np.sort(np.concatenate(blocks)), np.arange(n)):
        raise ValueError(f"the blocks must cover the generator's {n} coordinates once")
    diag, upper, lower = _hermitian_coordinates(dim)
    # The equations read, rows j*dim .. j*dim + j for each j, in order, move
    # to the last rows, the last run first, so that none lands on a row still
    # to move.  The blocks then fill the buffer from its start, each row
    # block of output no longer than the equations just read, and never reach
    # an equation still to be read.
    eqs = np.sort(np.concatenate([diag, upper]))
    first = n - eqs.size
    # Blocks that end short of the first moved equation cannot reach one; the
    # parity blocks always do, and a block of every coordinate needs none.
    if max(idx.size for idx in blocks) < n and sum(idx.size**2 for idx in blocks) > 2 * first * n:
        raise ValueError("blocks this unequal do not fit beside the equations they read")
    row = np.empty(n, dtype=int)
    row[eqs] = np.arange(first, n)
    for j in range(dim - 1, -1, -1):
        at = first + j * (j + 1) // 2
        liouv[at : at + j + 1] = liouv[j * dim : j * dim + j + 1]
    buffer = liouv.view(float).reshape(-1)
    parts, start = [], 0
    for idx in blocks:
        re0 = int(np.searchsorted(idx, dim))
        im0 = (re0 + idx.size) // 2
        # The Re coordinates idx[re0:im0] are their pair numbers plus dim.
        pairs = idx[re0:im0] - dim
        diag_cols, upper_cols, lower_cols = diag[idx[:re0]], upper[pairs], lower[pairs]
        # The rows its equations hold once moved, as a column, so that
        # rows[a:b] and a column array index the generator as np.ix_ would.
        rows = row[np.concatenate([diag_cols, upper_cols])][:, None]
        part = buffer[start : start + idx.size**2].reshape(idx.size, idx.size)
        start += idx.size**2
        # The diagonal equations (k < 0), then the pairs', at most dim at a time.
        for k in range(-dim, im0 - re0, dim):
            eq = slice(k, k + dim)
            eq_rows = rows[:re0] if k < 0 else rows[re0:][eq]
            # Columns of L U: xd, (xu + xl)/sqrt2 and i (xu - xl)/sqrt2.  xd is
            # gathered once xl is gone, and the blocks go before the next chunk
            # gathers its own, so at most three are alive at once.
            xu = liouv[eq_rows, upper_cols]
            xl = liouv[eq_rows, lower_cols]
            xs = xu + xl
            xu -= xl
            del xl
            xd = liouv[eq_rows, diag_cols]
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
    coordinates, blocks being ascending coordinate arrays as in
    hermitian_blocks.  Of each of L's terms (_lindblad_terms) only the
    equations for rho_ij, i <= j, are kept, and summed in the terms' order
    into one CSR array; the coordinate map U, at most two nonzeros per
    column, takes them into real Hermitian coordinates, whose rows are the
    diagonal equations' real parts and sqrt2 Re and sqrt2 Im of the pairs'.
    No dense array of the generator's size is built, and every product with
    the generator is sparse.
    """
    dim = h.shape[0]
    n = dim * dim
    diag, upper, lower = _hermitian_coordinates(dim)
    # The equation each generator row holds: the diagonal ones, then the
    # pairs', as in the Hermitian coordinates; -1 for the rows left out.
    equation = np.full(n, -1)
    equation[np.concatenate([diag, upper])] = np.arange(dim + upper.size)
    keys, values = [], []
    for rows, cols, vals in _lindblad_terms(h, collapse_ops):
        eq = equation[rows]
        kept = eq >= 0
        keys.append(eq[kept] * n + cols[kept])
        values.append(vals[kept])
    # Each entry sums its terms in their order, and entries that sum to an
    # exact zero are left out.
    entries, where = np.unique(np.concatenate(keys), return_inverse=True)
    del keys
    data = np.zeros(entries.size, dtype=complex)
    np.add.at(data, where, np.concatenate(values))
    del values, where
    entries, data = entries[data != 0], data[data != 0]
    liouv = csr_array((data, np.divmod(entries, n)), shape=(dim + upper.size, n))
    del entries, data
    # Column c of U is the column-stacked Hermitian matrix with coordinates
    # e_c: e_d for a diagonal coordinate, (e_u + e_l)/sqrt2 for a pair's Re
    # coordinate and i (e_u - e_l)/sqrt2 for its Im one.
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
    coordinate_map = csr_array((values, (rows, cols)), shape=(n, n))
    eqs = liouv @ coordinate_map
    del liouv, coordinate_map
    parts = [eqs[:dim].real, _SQRT2 * eqs[dim:].real, _SQRT2 * eqs[dim:].imag]
    del eqs
    real = vstack(parts, format="csr")
    del parts
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
    involution and ``sign[k] sign[perm[k]] = 1``.  Returns ``(rotation,
    even, odd)``.  rotation is ``(perm, diag, off, weight)``: row r of the
    parity basis B is ``(diag[r] e_r + off[r] e_perm[r])/sqrt(weight[r])``,
    that is ``e_k`` for a state U fixes (parity ``sign[k]``) and, for each
    pair ``a < b = perm[a]`` with ``s = sign[a]``, ``(e_a + s e_b)/sqrt2``
    in row a (parity +1) and ``(s e_a - e_b)/sqrt2`` in row b (parity -1).
    B is real, orthogonal and symmetric, so it is its own inverse, and
    ``B op B`` (Frame.rotate) takes op into the frame and back out of it.
    even and odd are the ascending Hermitian coordinates of ``B rho B``
    whose entry ``rho_ij`` has ``p_i p_j = +1`` (every diagonal entry, so
    even starts with them) and ``-1``.  A generator commuting with
    ``U . U^dag`` never couples the two sets.
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
    fixed = perm == k
    diag = np.where(perm < k, -1.0, 1.0)
    off = np.where(fixed, 0.0, sign[np.minimum(k, perm)])
    parity = np.where(fixed, sign, diag)
    # Pairs in the order of _hermitian_coordinates; Re and Im share a parity.
    j, i = np.tril_indices(dim, -1)
    pair = parity[i] * parity[j]
    coords = np.concatenate([np.ones(dim), pair, pair])
    rotation = perm, diag, off, np.where(fixed, 1.0, 2.0)
    return rotation, np.flatnonzero(coords > 0), np.flatnonzero(coords < 0)


@dataclass(frozen=True)
class Frame:
    """The frame a solver works in, as parity_frame finds it.

    hamiltonian is the Hamiltonian in the frame (a parity frame's less its
    trace part, which no generator sees) and blocks its coordinate blocks.
    rotation is the parity_blocks rotation of the symmetry that held, or
    None for the one-block frame, which is the model's own basis.
    """

    hamiltonian: np.ndarray
    blocks: tuple
    rotation: tuple | None

    def rotate(self, op) -> np.ndarray:
        """``B op B`` for the frame's parity basis B, by signed half-sums.

        B is its own inverse, so this takes op into the frame, and an
        operator in the frame back out of it; the one-block frame hands op
        back as it is.  Each entry is an entry of op,
        ``(+-op[k, a] +- op[k, b])/sqrt2`` with one index fixed, or
        ``(+-op[a, c] +- op[a, d] +- op[b, c] +- op[b, d])/2`` with none.
        A multiple of the identity stays exact, and no dim^3 product is taken.
        """
        if self.rotation is None:
            return op
        perm, diag, off, weight = self.rotation
        rows = diag[:, None] * op + off[:, None] * op[perm]
        sums = rows * diag + off * rows[:, perm]
        # sqrt is correctly rounded: the divisors are exactly 1, sqrt2 and 2.
        return sums / np.sqrt(np.outer(weight, weight))


def parity_frame(h, collapse_ops, symmetry) -> Frame:
    """The frame a solver works in, and the one check of the model's symmetry.

    Where symmetry, a signed basis involution ``(perm, sign)`` as in
    :func:`parity_blocks`, holds on the operators (``U h U^dag = h``, and
    ``U . U^dag`` maps the collapse operators one-to-one onto +-themselves):
    the rotation of its parity basis, the (even, odd) coordinate blocks and
    h, less its trace part, rotated into that basis.  Otherwise, symmetry
    None included: no rotation, one block of every coordinate and h as it
    is.  The collapse operators are only checked; ``Frame.rotate`` takes
    each into the frame, and a state back out of it.  A model runs this at
    each read of MasterEquationSpec.frame, a RateFamily once for all its
    points: they share its Hamiltonian, and each collapse operator and its
    image under the exchange parity share one rate factor, so every point
    passes or fails as the family does.
    """
    dim = h.shape[0]

    def whole():
        return Frame(h, (np.arange(dim**2),), None)

    if symmetry is None:
        return whole()
    perm, sign = symmetry
    rotation, even, odd = parity_blocks(perm, sign)
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
    frame = Frame(traceless, (even, odd), rotation)
    return replace(frame, hamiltonian=frame.rotate(traceless))


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

