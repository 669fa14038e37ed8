"""Command-line frontend: evolve, steady, sweep, derive.

Each command reads a flat key/value config file (or a bundled preset by bare
name), runs one computation, writes plot-ready data files, and prints a
short summary.  All rates are in units of g and all times in 1/g; emitted
files state that convention in their headers.

Exit codes: 0 success, 1 physics or numerics failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import (
    ConfigError,
    apply_overrides,
    initial_density_matrix,
    list_presets,
    resolve_config,
)
from .dynamics import IntegrationError, evolve
from .models import STATE_LABELS, build_model, named_state, target_label
from .operators import operator_to_dict
from .steady import DegenerateSteadyStateError, SteadyStateNumericsError, steady_state
from .sweeps import fidelity, grid_sweep, iso_cooperativity_optimum, population
from .zeno import DerivationError, canonical_phase, compare_derivation, derive_effective_model, reference_model

EXIT_OK = 0
EXIT_PHYSICS = 1
EXIT_CONFIG = 2

# cmd_derive fails the run when the derived model drifts from the analytic
# one by more than this.
DERIVE_REGRESSION_TOL = 1e-8

# Default sweep lattice (units of g).
SWEEP_GAMMA_RANGE = "0.01:0.3:40"
SWEEP_KAPPA_RANGE = "0.01:0.3:40"


def _json_dump(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load(args):
    config = resolve_config(args.config)
    overrides = list(getattr(args, "set", None) or [])
    if getattr(args, "omega", None) is not None:
        # Rescale the drive keeping the configured omega_mw and delta ratios.
        if config.params.omega == 0:
            raise ConfigError("--omega needs a nonzero omega in the config", config.origin)
        factor = args.omega / config.params.omega
        overrides = [
            f"omega={args.omega!r}",
            f"omega_mw={config.params.omega_mw * factor!r}",
            f"delta={config.params.delta * factor!r}",
        ] + overrides
    if getattr(args, "delta_mult", None) is not None:
        config_after = apply_overrides(config, overrides)
        overrides.append(f"delta={args.delta_mult * config_after.params.omega_mw!r}")
    if overrides:
        config = apply_overrides(config, overrides)
    try:
        # Finite rates can still overflow the operators built from them.
        return config, build_model(config.params)
    except ValueError as exc:
        raise ConfigError(str(exc), config.origin) from None


def _observables(params):
    target = target_label(params.variant)
    labels = ["g00", "g11", "T", target]
    names = {"g00": "P_00", "g11": "P_11", "T": "P_T", "S": "P_S", "t2": "P_t2"}
    return [(names[lb], named_state(lb, params).projector) for lb in labels]


def _default_output(args, suffix: str) -> Path:
    if args.output is not None:
        return Path(args.output)
    return Path(Path(args.config).stem + suffix)


def cmd_evolve(args) -> int:
    config, me = _load(args)
    run = config.require_run()
    params = config.params
    rho0 = initial_density_matrix(run.initial_state, params)
    traj = evolve(
        me,
        rho0,
        run.t_end,
        run.dt,
        _observables(params),
        sample_stride=run.sample_stride,
    )
    out = _default_output(args, "_trajectory.csv")
    traj.to_csv(out)
    for label in traj.labels:
        print(f"{label}({run.t_end:g}/g) = {traj.value(label):.6f}")
    print(f"final state: {traj.final_report.summary()}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_steady(args) -> int:
    config, me = _load(args)
    params = config.params
    try:
        result = steady_state(me)
    except DegenerateSteadyStateError as exc:
        report = {
            "variant": params.variant.value,
            "degenerate": True,
            "nullspace_dimension": exc.dimension,
        }
        print(json.dumps(report, indent=2, sort_keys=True))
        if args.output is not None:
            _json_dump(report, args.output)
        print("no unique steady state", file=sys.stderr)
        return EXIT_PHYSICS

    states = {label: named_state(label, params) for label in STATE_LABELS}
    report = {
        "variant": params.variant.value,
        "degenerate": False,
        "nullspace_dimension": result.nullspace_dimension,
        "method": result.method,
        "blocks": list(result.blocks),
        "residual": result.residual,
        "clip_magnitude": result.clip_magnitude,
        "populations": {lb: population(result.rho, st) for lb, st in states.items()},
        "fidelities": {lb: fidelity(result.rho, st) for lb, st in states.items()},
    }
    for label in STATE_LABELS:
        print(f"P_{label} = {report['populations'][label]:.6f}   "
              f"F_{label} = {report['fidelities'][label]:.6f}")
    print(f"residual = {result.residual:.3e}, method = {result.method}, "
          f"nullspace dimension = {report['nullspace_dimension']}, "
          f"blocks = {' + '.join(map(str, result.blocks))}")
    if args.output is not None:
        _json_dump(report, args.output)
        print(f"wrote {args.output}")
    return EXIT_OK


def _parse_range(text: str):
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise ConfigError(f"range must be lo:hi:count, got {text!r}") from None
    if not np.isfinite([lo, hi]).all():
        raise ConfigError(f"range bounds must be finite, got {text!r}")
    if count < 1 or hi < lo:
        raise ConfigError(f"invalid range {text!r}")
    return np.linspace(lo, hi, count)


def cmd_sweep(args) -> int:
    config, _ = _load(args)
    params = config.params
    # Every input is checked here, before the first solve.
    if not params.variant.is_full:
        raise ConfigError(
            f"sweep needs a full variant, got {params.variant.value}", config.origin
        )
    gamma_values = _parse_range(args.gamma_range)
    kappa_values = _parse_range(args.kappa_range)
    if gamma_values[0] <= 0 or kappa_values[0] < 0:
        raise ConfigError("gamma must be positive and kappa non-negative")
    try:
        c_list = [float(tok) for tok in args.c_list.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(
            f"--c-list must be comma-separated numbers, got {args.c_list!r}"
        ) from None
    if any(not 0 < c < np.inf for c in c_list):
        raise ConfigError(
            f"--c-list cooperativities must be positive and finite, got {args.c_list!r}"
        )
    state = args.state or target_label(params.variant)
    if state not in STATE_LABELS:
        raise ConfigError(f"--state must be one of {', '.join(STATE_LABELS)}, got {state!r}")
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    grid = grid_sweep(params, gamma_values, kappa_values, state, workers=args.workers)
    prefix = args.output or Path(args.config).stem
    grid_path = Path(f"{prefix}_grid.csv")
    grid.to_csv(grid_path)
    total = grid.values.size
    failed = grid.n_failed
    print(f"grid: {total} points, {failed} failed; wrote {grid_path}")

    if c_list:
        optima = []
        for c in c_list:
            opt = iso_cooperativity_optimum(params, c, state_label=state)
            optima.append(opt.to_dict())
            print(
                f"C={c:g}: best P_{state} = {opt.population:.4f} "
                f"at gamma={opt.gamma:.4f}, kappa={opt.kappa:.4f}"
            )
            if opt.at_boundary:
                print(f"C={c:g}: note: gamma is at the edge of the search domain; "
                      "the maximum may lie outside it")
        optima_path = Path(f"{prefix}_optima.json")
        _json_dump({"state": state, "optima": optima}, optima_path)
        print(f"wrote {optima_path}")

    if failed > 0.05 * total:
        print(f"{failed}/{total} grid points failed", file=sys.stderr)
        return EXIT_PHYSICS
    return EXIT_OK


def cmd_derive(args) -> int:
    config, _ = _load(args)
    params = config.params
    if not params.variant.is_full:
        print(
            f"variant {params.variant.value} is already a reduced model; "
            "derive needs a full variant",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    derivation = derive_effective_model(params)
    report = derivation.to_dict()
    report["collapse_ops_canonical"] = [
        operator_to_dict(canonical_phase(c)) for c in derivation.collapse_ops
    ]
    print(f"clusters: {len(derivation.cluster_eigenvalues)} "
          f"(eigenvalues {', '.join(f'{e:+.3f}' for e in sorted(set(round(e, 6) for e in derivation.cluster_eigenvalues)))})")
    print(f"projected subspace dimension: {derivation.subspace_dim} "
          f"with basis {', '.join(derivation.basis_labels)}")
    for idx, norm in derivation.dropped_norms:
        print(f"collapse operator {idx} projected to zero (norm {norm:.2e})")

    reference = reference_model(params)
    code = EXIT_OK
    if reference is None:
        report["comparison"] = None
        print("no analytic counterpart for this drive phase; comparison skipped")
    else:
        cmp = compare_derivation(derivation, reference)
        report["comparison"] = {
            "hamiltonian_deviation": cmp.hamiltonian_deviation,
            "dissipator_deviation": cmp.dissipator_deviation,
        }
        print(f"hamiltonian deviation: {cmp.hamiltonian_deviation:.3e}")
        print(f"dissipator deviation:  {cmp.dissipator_deviation:.3e}")
        if not cmp.max_deviation <= DERIVE_REGRESSION_TOL:
            print(
                f"derivation deviates from the analytic model by "
                f"{cmp.max_deviation:.3e} (limit {DERIVE_REGRESSION_TOL:.1e})",
                file=sys.stderr,
            )
            code = EXIT_PHYSICS
    if args.output is not None:
        _json_dump(report, args.output)
        print(f"wrote {args.output}")
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenocav",
        description=(
            "Dissipative entanglement preparation in cavity QED: integrate "
            "master equations, solve steady states, sweep decay rates, and "
            "derive the reduced models.  CONFIG is a path to a key/value "
            f"config file or one of the bundled presets: {', '.join(list_presets())}."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("config", help="config file path or bundled preset name")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )
        p.add_argument("-o", "--output", help="output file path")

    p_evolve = sub.add_parser("evolve", help="integrate the master equation, write a CSV trajectory")
    add_common(p_evolve)
    p_evolve.add_argument(
        "--omega",
        type=float,
        help="rescale the optical drive; omega_mw and delta scale with it",
    )
    p_evolve.add_argument(
        "--delta-mult",
        type=float,
        help="set delta to this multiple of omega_mw",
    )
    p_evolve.set_defaults(func=cmd_evolve)

    p_steady = sub.add_parser("steady", help="solve the stationary state, report populations and fidelities")
    add_common(p_steady)
    p_steady.add_argument("--delta-mult", type=float, help="set delta to this multiple of omega_mw")
    p_steady.set_defaults(func=cmd_steady)

    p_sweep = sub.add_parser("sweep", help="steady-state population over a (gamma, kappa) grid")
    add_common(p_sweep)
    p_sweep.add_argument("--gamma-range", default=SWEEP_GAMMA_RANGE, metavar="LO:HI:N")
    p_sweep.add_argument("--kappa-range", default=SWEEP_KAPPA_RANGE, metavar="LO:HI:N")
    p_sweep.add_argument(
        "--c-list",
        default="",
        help="comma-separated cooperativities; best population along each curve",
    )
    p_sweep.add_argument("--state", help="state label to record (default: the variant's target)")
    p_sweep.add_argument("--workers", type=int, default=1, help="parallel solver processes")
    p_sweep.set_defaults(func=cmd_sweep)

    p_derive = sub.add_parser("derive", help="project a full model and compare with its reduced form")
    add_common(p_derive)
    p_derive.set_defaults(func=cmd_derive)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # The guards name an overflow in their own message; numpy's warnings
        # would only print internals above it.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except (
        IntegrationError,
        DegenerateSteadyStateError,
        SteadyStateNumericsError,
        DerivationError,
    ) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PHYSICS


def entry() -> None:
    sys.exit(main())
