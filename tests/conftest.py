import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from zenocav import ModelParams, Variant

# Property tests draw the same examples on every run, with no per-example
# deadline: the suite runs on shared hosts where timing jitter is large.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")

# Mixed initial state used by the population-transfer runs.
TRANSFER_MIXTURE = (("g00", 0.3), ("g11", 0.15), ("g10", 0.45), ("g01", 0.1))


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
