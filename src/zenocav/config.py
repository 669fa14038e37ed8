"""Flat key/value configuration files for models and runs.

Format: one ``key = value`` pair per line, ``#`` comments, blank lines
ignored.  Model keys: omega, omega_mw, delta, gamma, kappa, phi, n_max,
variant.  Run keys: t_end, dt, sample_stride, initial_state.

``initial_state`` is either a single state label (pure state) or
whitespace-separated ``label:weight`` pairs (diagonal mixture), e.g.::

    initial_state = g00:0.3 g11:0.15 g10:0.45 g01:0.1

Weights must sum to 1.  Valid labels: S, T, D, t2, g00, g01, g10, g11.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .models import STATE_LABELS, ModelParams, Variant, named_state

MODEL_KEYS = ("omega", "omega_mw", "delta", "gamma", "kappa", "phi", "n_max", "variant")
RUN_KEYS = ("t_end", "dt", "sample_stride", "initial_state")

# Default sample-grid units (evolve's propagators are exact, so these set
# only where samples fall): with the default stride, a full-model sample
# every 0.2/g and a reduced-model one every 1/g.
DEFAULT_DT_FULL = 0.002
DEFAULT_DT_EFFECTIVE = 0.01
DEFAULT_SAMPLE_STRIDE = 100

WEIGHT_SUM_TOL = 1e-6


class ConfigError(ValueError):
    """Malformed configuration; carries file origin and line number."""

    def __init__(self, message, origin="<config>", line=None):
        self.origin = origin
        self.line = line
        where = origin if line is None else f"{origin}:{line}"
        super().__init__(f"{where}: {message}")


@dataclass(frozen=True)
class RunSettings:
    """Time-evolution settings; t_end and initial_state have no defaults.

    The values are checked where they are parsed (see _parse_value).
    """

    t_end: float
    dt: float
    sample_stride: int
    initial_state: tuple  # ((label, weight), ...)


@dataclass(frozen=True)
class Config:
    params: ModelParams
    run: RunSettings | None
    origin: str

    def require_run(self) -> RunSettings:
        if self.run is None:
            raise ConfigError(
                "time evolution needs t_end and initial_state", self.origin
            )
        return self.run


def _parse_float(value, key, origin, line):
    if value.strip().lower() == "pi":
        return math.pi
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}", origin, line) from None
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be a finite number, got {value!r}", origin, line)
    return number


def _parse_int(value, key, origin, line):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}", origin, line) from None


def _parse_initial_state(value, origin, line):
    tokens = value.split()
    if not tokens:
        raise ConfigError("initial_state is empty", origin, line)
    if len(tokens) == 1 and ":" not in tokens[0]:
        label = tokens[0]
        if label not in STATE_LABELS:
            raise ConfigError(f"unknown state label {label!r}", origin, line)
        return ((label, 1.0),)
    pairs = []
    for tok in tokens:
        if ":" not in tok:
            raise ConfigError(
                f"expected label:weight, got {tok!r}", origin, line
            )
        label, _, weight_text = tok.partition(":")
        if label not in STATE_LABELS:
            raise ConfigError(f"unknown state label {label!r}", origin, line)
        weight = _parse_float(weight_text, "weight", origin, line)
        if weight < 0:
            raise ConfigError(f"negative weight for {label!r}", origin, line)
        pairs.append((label, weight))
    total = sum(w for _, w in pairs)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ConfigError(f"mixture weights sum to {total!r}, expected 1", origin, line)
    return tuple(pairs)


def _parse_value(key, value, origin, line):
    """The typed value of one ``key = value`` pair; errors carry origin:line."""
    if key == "variant":
        try:
            return Variant.parse(value)
        except ValueError as exc:
            raise ConfigError(str(exc), origin, line) from None
    if key == "initial_state":
        return _parse_initial_state(value, origin, line)
    if key in ("n_max", "sample_stride"):
        number = _parse_int(value, key, origin, line)
    elif key in MODEL_KEYS or key in RUN_KEYS:
        number = _parse_float(value, key, origin, line)
    else:
        raise ConfigError(f"unknown key {key!r}", origin, line)
    # The run values are checked here, where a file and the overrides both
    # pass, so that a file's error names its line.
    if key == "t_end" and number < 0:
        raise ConfigError(f"t_end must be non-negative, got {number!r}", origin, line)
    if key == "dt" and number <= 0:
        raise ConfigError(f"dt must be positive, got {number!r}", origin, line)
    if key == "sample_stride" and number < 1:
        raise ConfigError(f"sample_stride must be >= 1, got {number}", origin, line)
    return number


def parse_config_text(text: str, origin: str = "<config>") -> Config:
    """Parse configuration text; raises ConfigError with line numbers."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected key = value, got {stripped!r}", origin, lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", origin, lineno)
        if not value:
            raise ConfigError(f"empty value for {key!r}", origin, lineno)
        values[key] = _parse_value(key, value, origin, lineno)

    for key in ("omega", "omega_mw", "delta", "gamma", "kappa", "variant"):
        if key not in values:
            raise ConfigError(f"missing required key {key!r}", origin)
    try:
        params = ModelParams(**{key: values[key] for key in MODEL_KEYS if key in values})
    except ValueError as exc:
        raise ConfigError(str(exc), origin) from None

    run = None
    if "t_end" in values or "initial_state" in values:
        for key in ("t_end", "initial_state"):
            if key not in values:
                raise ConfigError(
                    f"run settings need both t_end and initial_state; missing {key!r}",
                    origin,
                )
        default_dt = DEFAULT_DT_FULL if params.variant.is_full else DEFAULT_DT_EFFECTIVE
        run = RunSettings(
            values["t_end"],
            values.get("dt", default_dt),
            values.get("sample_stride", DEFAULT_SAMPLE_STRIDE),
            values["initial_state"],
        )
    elif "dt" in values or "sample_stride" in values:
        raise ConfigError(
            "dt/sample_stride given without t_end and initial_state", origin
        )

    return Config(params=params, run=run, origin=origin)


def load_config(path) -> Config:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", str(path)) from None
    return parse_config_text(text, origin=str(path))


def initial_density_matrix(pairs, params: ModelParams) -> np.ndarray:
    """Diagonal mixture sum_i w_i |label_i><label_i| in the variant's basis."""
    dim = params.dim
    rho = np.zeros((dim, dim), dtype=complex)
    for label, weight in pairs:
        rho += weight * named_state(label, params).projector
    return rho


def apply_overrides(config: Config, assignments) -> Config:
    """Apply ``key=value`` overrides on top of a parsed config.

    Values are parsed exactly as in the file format.  Overriding a run key
    requires the config to already define a run section.
    """
    params = config.params
    run = config.run
    origin = f"{config.origin} (override)"
    for raw in assignments:
        if "=" not in raw:
            raise ConfigError(f"override must be key=value, got {raw!r}", config.origin)
        key, _, value = raw.partition("=")
        key = key.strip()
        value = _parse_value(key, value.strip(), origin, None)
        if key in RUN_KEYS and run is None:
            raise ConfigError(f"cannot override {key!r}: config has no run settings", origin)
        try:
            if key in MODEL_KEYS:
                params = replace(params, **{key: value})
            else:
                run = replace(run, **{key: value})
        except ValueError as exc:
            raise ConfigError(str(exc), origin) from None
    return Config(params=params, run=run, origin=config.origin)


# -- bundled preset configs ----------------------------------------------------


def list_presets():
    """Names of the configuration files shipped with the package."""
    root = resources.files(__package__) / "presets"
    return tuple(sorted(p.name[: -len(".cfg")] for p in root.iterdir() if p.name.endswith(".cfg")))


def preset_path(name: str) -> Path:
    """Filesystem path of a bundled preset config."""
    root = resources.files(__package__) / "presets"
    candidate = root / f"{name}.cfg"
    if not candidate.is_file():
        raise KeyError(f"no bundled preset {name!r}; available: {', '.join(list_presets())}")
    return Path(str(candidate))


def resolve_config(spec: str) -> Config:
    """Load a config from a path, or from the bundled presets by bare name."""
    path = Path(spec)
    if path.is_file():
        return load_config(path)
    if path.suffix == "" and "/" not in spec:
        try:
            return load_config(preset_path(spec))
        except KeyError:
            pass
    raise ConfigError(f"config file not found: {spec}", str(spec))
