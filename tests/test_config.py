import math

import numpy as np
import pytest

from zenocav import (
    ConfigError,
    Variant,
    initial_density_matrix,
    list_presets,
    named_state,
    resolve_config,
)
from zenocav.config import apply_overrides, load_config, parse_config_text, preset_path

MINIMAL = """
omega = 0.1
omega_mw = 0.05
delta = 0.02
gamma = 0.1
kappa = 0.0
variant = bell_full
"""


def parse(extra=""):
    return parse_config_text(MINIMAL + extra, origin="test.cfg")


# -- parsing ------------------------------------------------------------------------


def test_minimal_config():
    config = parse()
    p = config.params
    assert p.variant is Variant.BELL_FULL
    assert (p.omega, p.omega_mw, p.delta) == (0.1, 0.05, 0.02)
    assert (p.gamma, p.kappa) == (0.1, 0.0)
    assert p.phi == math.pi
    assert p.n_max == 2
    assert config.run is None


def test_comments_and_blank_lines():
    text = MINIMAL.replace("omega = 0.1", "omega = 0.1  # drive") + "\n\n# trailing\n"
    config = parse_config_text(text)
    assert config.params.omega == 0.1


def test_phi_accepts_pi_keyword():
    config = parse("phi = pi\n")
    assert config.params.phi == math.pi
    config = parse("phi = 0.5\n")
    assert config.params.phi == 0.5


def test_run_section_with_defaults():
    config = parse("t_end = 1500\ninitial_state = g00\n")
    run = config.require_run()
    assert run.t_end == 1500.0
    assert run.dt == 0.002  # full-model default
    assert run.sample_stride == 100
    assert run.initial_state == (("g00", 1.0),)


def test_reduced_model_default_step():
    text = MINIMAL.replace("bell_full", "bell_effective")
    config = parse_config_text(text + "t_end = 10\ninitial_state = S\n")
    assert config.require_run().dt == 0.01


def test_explicit_run_settings():
    config = parse("t_end = 0\ndt = 0.5\nsample_stride = 7\ninitial_state = S\n")
    run = config.require_run()
    assert run.t_end == 0.0
    assert run.dt == 0.5
    assert run.sample_stride == 7


def test_mixture_initial_state():
    config = parse("t_end = 1\ninitial_state = g00:0.3 g11:0.15 g10:0.45 g01:0.1\n")
    pairs = dict(config.require_run().initial_state)
    assert pairs == {"g00": 0.3, "g11": 0.15, "g10": 0.45, "g01": 0.1}


def test_require_run_without_run_section():
    with pytest.raises(ConfigError, match="t_end and initial_state"):
        parse().require_run()


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("bogus_key = 1", "unknown key"),
        ("omega = 0.2", "duplicate key"),
        ("phi =", "empty value"),
        ("just some words", "expected key = value"),
        ("n_max = 2.5", "must be an integer"),
        ("phi = fast", "must be a number"),
        ("t_end = 1\ninitial_state = bogus", "unknown state label"),
        ("t_end = 1\ninitial_state = g00:0.5 g11:0.4", "sum to"),
        ("t_end = 1\ninitial_state = g00:-0.5 g11:1.5", "negative weight"),
        ("t_end = 1\ninitial_state = g00 g11", "expected label:weight"),
        ("t_end = 1", "missing 'initial_state'"),
        ("dt = 0.1", "without t_end"),
        ("t_end = -1\ninitial_state = S", "non-negative"),
    ],
)
def test_rejected_configs(line, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse(line + "\n")


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("t_end", "-1", "t_end must be non-negative"),
        ("dt", "0", "dt must be positive"),
        ("sample_stride", "0", "sample_stride must be >= 1"),
    ],
)
def test_run_value_errors_name_their_line(key, value, message):
    run = {"t_end": "1", "dt": "0.1", "sample_stride": "10", "initial_state": "S"}
    run[key] = value
    text = MINIMAL + "".join(f"{k} = {v}\n" for k, v in run.items())
    line = text.splitlines().index(f"{key} = {value}") + 1
    with pytest.raises(ConfigError, match=message) as excinfo:
        parse_config_text(text, origin="run.cfg")
    assert excinfo.value.line == line
    assert str(excinfo.value).startswith(f"run.cfg:{line}: ")


def test_error_carries_origin_and_line():
    text = MINIMAL.replace("omega = 0.1", "omega = fast")
    with pytest.raises(ConfigError) as excinfo:
        parse_config_text(text, origin="broken.cfg")
    assert str(excinfo.value).startswith("broken.cfg:2: ")
    assert excinfo.value.origin == "broken.cfg"
    assert excinfo.value.line == 2


def test_missing_required_key():
    text = MINIMAL.replace("kappa = 0.0\n", "")
    with pytest.raises(ConfigError, match="missing required key 'kappa'"):
        parse_config_text(text)


def test_invalid_variant_value():
    text = MINIMAL.replace("bell_full", "sideways")
    with pytest.raises(ConfigError, match="unknown variant"):
        parse_config_text(text)


def test_unphysical_parameters_rejected():
    text = MINIMAL.replace("gamma = 0.1", "gamma = -0.1")
    with pytest.raises(ConfigError, match="gamma"):
        parse_config_text(text)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nowhere.cfg")


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text(MINIMAL)
    config = load_config(path)
    assert config.origin == str(path)
    assert config.params.variant is Variant.BELL_FULL


# -- initial states ------------------------------------------------------------------


def test_initial_density_matrix_pure():
    config = parse("t_end = 1\ninitial_state = S\n")
    rho = initial_density_matrix(config.require_run().initial_state, config.params)
    target = named_state("S", config.params).projector
    assert np.max(np.abs(rho - target)) < 1e-15


def test_initial_density_matrix_mixture():
    config = parse("t_end = 1\ninitial_state = g00:0.25 g11:0.75\n")
    rho = initial_density_matrix(config.require_run().initial_state, config.params)
    assert np.trace(rho).real == pytest.approx(1.0)
    p00 = named_state("g00", config.params).projector
    p11 = named_state("g11", config.params).projector
    expected = 0.25 * p00 + 0.75 * p11
    assert np.max(np.abs(rho - expected)) < 1e-15


# -- overrides -----------------------------------------------------------------------


def test_override_model_keys():
    config = apply_overrides(parse(), ["gamma=0.25", "variant=bell_effective", "n_max=1"])
    assert config.params.gamma == 0.25
    assert config.params.variant is Variant.BELL_EFFECTIVE
    assert config.params.n_max == 1


def test_override_run_keys():
    base = parse("t_end = 10\ninitial_state = g00\n")
    config = apply_overrides(base, ["t_end=20", "dt=0.004", "initial_state=S"])
    run = config.require_run()
    assert run.t_end == 20.0
    assert run.dt == 0.004
    assert run.initial_state == (("S", 1.0),)


def test_override_validation():
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides(parse(), ["gamma"])
    with pytest.raises(ConfigError, match="unknown key"):
        apply_overrides(parse(), ["spin=up"])
    with pytest.raises(ConfigError, match="gamma"):
        apply_overrides(parse(), ["gamma=-1"])
    with pytest.raises(ConfigError, match="no run settings"):
        apply_overrides(parse(), ["t_end=10"])
    base = parse("t_end = 10\ninitial_state = g00\n")
    with pytest.raises(ConfigError, match="dt"):
        apply_overrides(base, ["dt=0"])


# -- bundled presets -----------------------------------------------------------------


def test_bundled_preset_names():
    names = list_presets()
    assert names == (
        "fig1c",
        "fig2a",
        "fig2b",
        "fig3",
        "fig4c",
        "preset1",
        "preset2",
        "preset3",
    )


def test_all_presets_parse():
    for name in list_presets():
        config = load_config(preset_path(name))
        assert config.params.omega > 0


def test_transfer_preset_run_settings():
    config = load_config(preset_path("fig1c"))
    run = config.require_run()
    assert config.params.variant is Variant.BELL_FULL
    assert run.t_end == 1500.0
    assert run.dt == 0.002
    assert run.sample_stride == 500
    assert sum(w for _, w in run.initial_state) == pytest.approx(1.0)


def test_sweep_preset_has_no_run_section():
    config = load_config(preset_path("fig3"))
    assert config.run is None


def test_preset_path_unknown_name():
    with pytest.raises(KeyError, match="no bundled preset"):
        preset_path("fig99")


def test_resolve_config_by_name_and_path(tmp_path):
    by_name = resolve_config("fig3")
    assert by_name.params.kappa == 0.3
    path = tmp_path / "local.cfg"
    path.write_text(MINIMAL)
    by_path = resolve_config(str(path))
    assert by_path.params.omega == 0.1
    with pytest.raises(ConfigError, match="not found"):
        resolve_config("no_such_config")
