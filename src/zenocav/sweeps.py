"""Scalar figures of merit and two-parameter stationary-state sweeps.

Grid sweeps and iso-cooperativity searches solve one stationary state per
(gamma, kappa) point, every point of one model that differs from the next in
the two rates only.  Each sweep and each curve therefore builds one
RateFamily, which builds the model and finds its parity frame once, and
solves each point on it.  Grid points are independent, so the sweep
optionally fans out over processes, each sent the family; results are keyed
by grid index, never by completion order, and a failed point records a
diagnostic instead of aborting the sweep.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .models import MasterEquationSpec, ModelParams, NamedState, RateFamily, named_state
from .operators import expectation
from .steady import DegenerateSteadyStateError, SteadyStateNumericsError, steady_state

# Golden-section search stops when the gamma bracket is this narrow;
# stationary populations plateau, so finer search buys nothing.
GAMMA_SEARCH_TOL = 1e-3
# Stage-one scan density along an iso-cooperativity curve.
SCAN_POINTS = 25

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def population(rho: np.ndarray, state: NamedState) -> float:
    """<psi| rho |psi> for a labeled pure state."""
    return expectation(state.projector, rho)


def fidelity(rho: np.ndarray, state: NamedState) -> float:
    """sqrt of the population; the overlap of rho with a pure target."""
    value = population(rho, state)
    if value < 0.0:
        # Valid states only undershoot zero by numerical noise.
        value = 0.0
    return math.sqrt(value)


def cooperativity(p: ModelParams) -> float:
    """g^2 / (kappa gamma), the coherent-vs-dissipative figure of merit."""
    if p.kappa <= 0.0 or p.gamma <= 0.0:
        raise ValueError("cooperativity needs kappa > 0 and gamma > 0")
    return p.g**2 / (p.kappa * p.gamma)


@dataclass(frozen=True)
class SweepGrid:
    """Stationary-state observable values over a (gamma, kappa) lattice.

    values[i, j] belongs to gamma_values[i], kappa_values[j]; failed points
    hold NaN and appear in failures as (i, j, message).
    """

    gamma_values: np.ndarray
    kappa_values: np.ndarray
    values: np.ndarray
    observable_label: str
    failures: tuple = ()

    def __post_init__(self):
        if self.values.shape != (len(self.gamma_values), len(self.kappa_values)):
            raise ValueError(
                f"values shape {self.values.shape} does not match axes "
                f"({len(self.gamma_values)}, {len(self.kappa_values)})"
            )

    @property
    def n_failed(self) -> int:
        return len(self.failures)

    def to_csv(self, path) -> None:
        """Long format: gamma, kappa, value; NaN for failed points."""
        with open(path, "w") as fh:
            fh.write("# units: g = 1\n")
            fh.write(f"gamma,kappa,{self.observable_label}\n")
            for i, gamma in enumerate(self.gamma_values):
                for j, kappa in enumerate(self.kappa_values):
                    fh.write(f"{gamma:.11e},{kappa:.11e},{self.values[i, j]:.11e}\n")

    def to_dict(self) -> dict:
        return {
            "observable": self.observable_label,
            "gamma_values": [float(v) for v in self.gamma_values],
            "kappa_values": [float(v) for v in self.kappa_values],
            "values": [
                [None if np.isnan(v) else float(v) for v in row] for row in self.values
            ],
            "failures": [
                {"i": int(i), "j": int(j), "error": msg} for i, j, msg in self.failures
            ],
        }


def _steady_population(me: MasterEquationSpec, state_label: str) -> float:
    result = steady_state(me)
    return population(result.rho, named_state(state_label, me.params))


def _solve_grid_point(task):
    index, family, params, state_label = task
    try:
        return index, _steady_population(family.at(params), state_label), None
    except (DegenerateSteadyStateError, SteadyStateNumericsError) as exc:
        return index, math.nan, str(exc)


def grid_sweep(
    base: ModelParams,
    gamma_values,
    kappa_values,
    state_label: str,
    workers: int = 1,
) -> SweepGrid:
    """Stationary population of one state over a (gamma, kappa) lattice.

    Each point replaces gamma and kappa in the base parameters and is
    solved on its own, as a point of one RateFamily: the model is built and
    its parity frame found once per sweep, not once per point.  workers > 1
    fans points out over processes, each task carrying the family; output is
    identical regardless of worker count, and to solving
    build_model(replace(base, gamma=..., kappa=...)) at each point.
    """
    if not base.variant.is_full:
        raise ValueError("grid sweeps are defined for the full models")
    gamma_values = np.asarray(gamma_values, dtype=float)
    kappa_values = np.asarray(kappa_values, dtype=float)
    if np.any(gamma_values <= 0) or np.any(kappa_values < 0):
        raise ValueError("gamma must be positive and kappa non-negative")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    family = RateFamily(base)
    tasks = []
    for i, gamma in enumerate(gamma_values):
        for j, kappa in enumerate(kappa_values):
            params = replace(base, gamma=float(gamma), kappa=float(kappa))
            tasks.append(((i, j), family, params, state_label))

    if workers == 1:
        outcomes = list(map(_solve_grid_point, tasks))
    else:
        # Workers run with the parent's BLAS thread settings.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_solve_grid_point, tasks, chunksize=4))
    values = np.full((len(gamma_values), len(kappa_values)), math.nan)
    for (i, j), value, _ in outcomes:
        values[i, j] = value
    return SweepGrid(
        gamma_values=gamma_values,
        kappa_values=kappa_values,
        values=values,
        observable_label=f"P_{state_label}",
        failures=tuple((i, j, error) for (i, j), _, error in outcomes if error is not None),
    )


@dataclass(frozen=True)
class IsoCooperativityOptimum:
    """Best stationary population along one iso-cooperativity curve.

    at_boundary is true when gamma lies within GAMMA_SEARCH_TOL of either end
    of the searched domain: the maximum may lie outside it.
    """

    cooperativity: float
    gamma: float
    kappa: float
    population: float
    at_boundary: bool

    def to_dict(self) -> dict:
        return {
            "cooperativity": self.cooperativity,
            "gamma": self.gamma,
            "kappa": self.kappa,
            "population": self.population,
            "at_boundary": self.at_boundary,
        }


def iso_cooperativity_optimum(
    base: ModelParams,
    c: float,
    state_label: str = "S",
    gamma_domain=(0.005, 0.5),
) -> IsoCooperativityOptimum:
    """Maximize the stationary population along kappa = g^2/(C gamma).

    A log-spaced scan brackets the maximum, then a golden-section pass
    narrows the bracket to GAMMA_SEARCH_TOL.  Every point is solved on one
    RateFamily of base, so the model is built once per curve.
    """
    if not 0 < c < math.inf:
        raise ValueError(f"cooperativity must be positive and finite, got {c}")
    lo, hi = gamma_domain
    if not (0 < lo < hi):
        raise ValueError(f"invalid gamma domain {gamma_domain!r}")
    if not base.variant.is_full:
        raise ValueError("iso-cooperativity search is defined for the full models")

    family = RateFamily(base)
    cache = {}

    def value_at(gamma: float) -> float:
        if gamma not in cache:
            kappa = base.g**2 / (c * gamma)
            params = replace(base, gamma=gamma, kappa=kappa)
            try:
                cache[gamma] = _steady_population(family.at(params), state_label)
            except (DegenerateSteadyStateError, SteadyStateNumericsError):
                cache[gamma] = -math.inf
        return cache[gamma]

    scan = np.geomspace(lo, hi, SCAN_POINTS)
    best = int(np.argmax([value_at(g) for g in scan]))
    left = scan[max(best - 1, 0)]
    right = scan[min(best + 1, len(scan) - 1)]

    # Golden-section on [left, right]; the scan guarantees a bracket.
    a, b = float(left), float(right)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = value_at(x1), value_at(x2)
    while (b - a) > GAMMA_SEARCH_TOL:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = value_at(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = value_at(x2)

    gamma_best = max(cache, key=cache.get)
    best_value = cache[gamma_best]
    if not math.isfinite(best_value):
        raise SteadyStateNumericsError(
            f"every point on the C={c} curve failed to solve"
        )
    return IsoCooperativityOptimum(
        cooperativity=c,
        gamma=float(gamma_best),
        kappa=float(base.g**2 / (c * gamma_best)),
        population=float(best_value),
        at_boundary=bool(
            gamma_best <= lo + GAMMA_SEARCH_TOL or gamma_best >= hi - GAMMA_SEARCH_TOL
        ),
    )
