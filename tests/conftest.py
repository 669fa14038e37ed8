import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import zenocav.operators as operators
from zenocav import ModelParams, Variant
from zenocav.models import MasterEquationSpec

# Property tests draw the same examples on every run, with no per-example
# deadline: the suite runs on shared hosts where timing jitter is large.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")

# Mixed initial state used by the population-transfer runs.
TRANSFER_MIXTURE = (("g00", 0.3), ("g11", 0.15), ("g10", 0.45), ("g01", 0.1))
# Sample times are compared with this absolute tolerance (floating-point
# accumulation of n*dt differs between runs with different strides).
TIME_ATOL = 1e-9


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def transfer_params():
    """Strong-drive operating point for the singlet-transfer runs."""
    return ModelParams(
        omega=0.1,
        omega_mw=0.05,
        delta=0.02,
        gamma=0.1,
        kappa=0.0,
        variant=Variant.BELL_FULL,
    )


@pytest.fixture
def weak_drive_params():
    """Weak-drive operating point used for the steady-state sweeps."""
    return ModelParams(
        omega=0.01,
        omega_mw=0.005,
        delta=1.3 * 0.005,
        gamma=0.1,
        kappa=0.3,
        variant=Variant.BELL_FULL,
    )


def random_density_matrix(rng, dim: int) -> np.ndarray:
    """A random full-rank density matrix (Wishart construction)."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def signed_permutation(perm, sign) -> np.ndarray:
    """The unitary U with U|k> = sign[k] |perm[k]>, as a dense matrix."""
    u = np.zeros((len(perm), len(perm)))
    u[perm, np.arange(len(perm))] = sign
    return u


def toy_model(h, collapse_ops=()):
    dim = np.asarray(h).shape[0]
    return MasterEquationSpec(
        hamiltonian=h,
        collapse_ops=tuple(collapse_ops),
        basis_labels=tuple(str(i) for i in range(dim)),
        params=None,
    )


def damping_model(gamma):
    lower = np.zeros((2, 2))
    lower[0, 1] = math.sqrt(gamma)
    return toy_model(np.zeros((2, 2)), [lower])


@st.composite
def symmetric_open_systems(draw):
    """A random model invariant under a random signed basis involution.

    The involution pairs some states and fixes the rest (with random signs,
    equal within a pair); h is symmetrized, and each drawn collapse operator
    comes with its image, so the dissipator is invariant too.
    """
    dim = draw(st.integers(2, 5))
    order = draw(st.permutations(range(dim)))
    n_pairs = draw(st.integers(1, dim // 2))
    perm = np.arange(dim)
    for a, b in zip(order[: 2 * n_pairs : 2], order[1 : 2 * n_pairs : 2]):
        perm[a], perm[b] = b, a
    sign = np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=dim, max_size=dim)))
    sign[perm > np.arange(dim)] = sign[perm[perm > np.arange(dim)]]
    entries = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    square = hnp.arrays(complex, (dim, dim), elements=entries)
    u = signed_permutation(perm, sign)
    a = draw(square)
    h = a + a.conj().T
    ops = []
    for c in draw(st.lists(square, min_size=1, max_size=2)):
        ops += [c, u @ c @ u.T]
    return MasterEquationSpec(
        hamiltonian=(h + u @ h @ u.T) / 2,
        collapse_ops=tuple(ops),
        basis_labels=tuple(str(i) for i in range(dim)),
        params=None,
        symmetry=(perm, sign),
    )


def count_blas_calls(monkeypatch, seen: dict) -> None:
    """Count, in seen, every BLAS routine called through operators.blas_matmul.

    Each call's array operands must be Fortran-ordered and of the routine's
    type, so that f2py copies none.
    """
    real = operators.get_blas_funcs

    def counting(name, arrays):
        routine = real(name, arrays)

        def call(*args, **kwargs):
            for arg in args:
                if isinstance(arg, np.ndarray):
                    assert arg.flags.f_contiguous and arg.dtype == routine.dtype
            seen[name] = seen.get(name, 0) + 1
            return routine(*args, **kwargs)

        return call

    monkeypatch.setattr(operators, "get_blas_funcs", counting)


def traced_peak(func, *args):
    """Call func(*args); return its result and the tracemalloc peak in bytes.

    numpy reports its array buffers to tracemalloc, so the peak counts every
    array alive at once during the call, the result included.
    """
    tracemalloc.start()
    try:
        result = func(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def compare_trajectories(a, b, label: str) -> float:
    """Max absolute deviation of one observable between two trajectories.

    The runs must share the sample grid (same times within TIME_ATOL).
    """
    if len(a.times) != len(b.times):
        raise ValueError(
            f"sample grids differ in length: {len(a.times)} vs {len(b.times)}"
        )
    if np.max(np.abs(a.times - b.times)) > TIME_ATOL:
        raise ValueError("sample grids differ beyond tolerance")
    if label not in a.records or label not in b.records:
        raise KeyError(f"observable {label!r} missing from one trajectory")
    return float(np.max(np.abs(a.records[label] - b.records[label])))
