"""The tests' own helpers, checked on real evolutions."""

import numpy as np
import pytest

from zenocav import evolve

from conftest import compare_trajectories, damping_model, random_density_matrix

P1 = np.diag([0.0, 1.0])


def test_compare_identical_runs(rng):
    me = damping_model(0.5)
    rho0 = random_density_matrix(rng, 2)
    a = evolve(me, rho0, 1.0, 0.01, [("P1", P1)], sample_stride=10)
    b = evolve(me, rho0, 1.0, 0.01, [("P1", P1)], sample_stride=10)
    assert compare_trajectories(a, b, "P1") == 0.0


def test_compare_matching_grids_from_different_steps():
    me = damping_model(0.5)
    a = evolve(me, P1.astype(complex), 1.0, 0.01, [("P1", P1)], sample_stride=10)
    b = evolve(me, P1.astype(complex), 1.0, 0.005, [("P1", P1)], sample_stride=20)
    dev = compare_trajectories(a, b, "P1")
    assert dev < 1e-9


def test_compare_rejects_mismatched_grids():
    me = damping_model(0.5)
    a = evolve(me, P1.astype(complex), 1.0, 0.01, [("P1", P1)], sample_stride=10)
    b = evolve(me, P1.astype(complex), 1.0, 0.01, [("P1", P1)], sample_stride=5)
    with pytest.raises(ValueError, match="length"):
        compare_trajectories(a, b, "P1")
    with pytest.raises(KeyError, match="P0"):
        compare_trajectories(a, a, "P0")
