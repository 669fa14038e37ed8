"""Dissipative entanglement preparation in cavity QED.

Builds the full two-atom/cavity Lindblad models and their five-level
reductions, derives the reductions mechanically from the strong-coupling
eigenprojections, integrates master equations, solves stationary states, and
sweeps decay rates.  All rates are in units of the atom-cavity coupling g;
times are in 1/g.
"""

from .config import ConfigError, initial_density_matrix, list_presets, resolve_config
from .dynamics import IntegrationError, evolve
from .models import ModelParams, Variant, build_model, named_state, target_label
from .operators import liouvillian
from .steady import DegenerateSteadyStateError, SteadyStateNumericsError, steady_state
from .sweeps import fidelity, grid_sweep, iso_cooperativity_optimum, population
from .zeno import DerivationError, compare_derivation, derive_effective_model, reference_model

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DegenerateSteadyStateError",
    "DerivationError",
    "IntegrationError",
    "ModelParams",
    "SteadyStateNumericsError",
    "Variant",
    "build_model",
    "compare_derivation",
    "derive_effective_model",
    "evolve",
    "fidelity",
    "grid_sweep",
    "initial_density_matrix",
    "iso_cooperativity_optimum",
    "list_presets",
    "liouvillian",
    "named_state",
    "population",
    "reference_model",
    "resolve_config",
    "steady_state",
    "target_label",
]
