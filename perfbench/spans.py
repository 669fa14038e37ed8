"""In-memory span tracing around zenocav's public functions.

The tracer replaces a function at every ``zenocav`` module attribute that
holds it, which is where callers look it up at call time (``from .steady
import steady_state`` binds ``zenocav.sweeps.steady_state``, for example).
Each call becomes one span: name, start, end, parent span and the id of the
benchmark operation it belongs to.  Spans stay in memory; the caller writes
them out when the run ends.  Nothing in the package itself is edited.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, attribute, span name).  The attribute's value in that module is
# the function wrapped; every zenocav module holding the same object gets the
# wrapper.  ``lu_factor`` is scipy's, looked up through zenocav.steady.
TRACED = (
    ("zenocav.config", "resolve_config", "config.resolve"),
    ("zenocav.models", "build_model", "models.build"),
    ("zenocav.operators", "liouvillian", "operators.liouvillian"),
    ("zenocav.steady", "steady_state", "steady.solve"),
    ("zenocav.steady", "lu_factor", "steady.factor"),
    ("zenocav.steady", "nullspace_dimension", "steady.nullspace"),
    ("zenocav.dynamics", "evolve", "dynamics.evolve"),
    ("zenocav.dynamics", "rk4_propagator", "dynamics.propagator"),
    ("zenocav.sweeps", "grid_sweep", "sweeps.grid"),
    ("zenocav.sweeps", "iso_cooperativity_optimum", "sweeps.optimum"),
    ("zenocav.zeno", "derive_effective_model", "zeno.derive"),
    ("zenocav.zeno", "compare_derivation", "zeno.compare"),
    ("zenocav.cli", "main", "cli.main"),
    ("zenocav.cli", "cmd_evolve", "cli.evolve"),
    ("zenocav.cli", "cmd_steady", "cli.steady"),
    ("zenocav.cli", "cmd_sweep", "cli.sweep"),
    ("zenocav.cli", "cmd_derive", "cli.derive"),
)

# Absolute gamma distance from a search-domain edge that counts as "on the
# boundary"; the golden-section search stops at this bracket width.
BOUNDARY_TOL = 1e-3


@dataclass
class Span:
    span_id: int
    parent: int | None
    op_id: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        # Calls are synchronous, so children never overlap one another and
        # their summed durations are the time they cover.
        return self.duration - self.child_time


def _record_attrs(name, call, result, span):
    """Work counts computed from a call's bound arguments and its result."""
    args = list(call.arguments.values())
    if name == "operators.liouvillian":
        dim = len(args[0])
        span.attrs["dim"] = dim
        span.attrs["bytes"] = dim**4 * 16  # computed: one dense complex128 generator
    elif name == "steady.factor":
        n = len(args[0])
        span.attrs["flops"] = 8.0 * n**3 / 3.0  # computed: complex LU, 8/3 n^3 real flops
    elif name == "steady.solve":
        span.attrs["eigenvector"] = result.method == "eigenvector"
        span.attrs["clipped"] = result.clip_magnitude > 0.0
    elif name == "dynamics.evolve":
        span.attrs["samples"] = len(result.times)
    elif name == "sweeps.grid":
        span.attrs["failed_points"] = result.n_failed
    elif name == "sweeps.optimum":
        lo, hi = call.arguments["gamma_domain"]
        span.attrs["at_boundary"] = (
            result.gamma >= hi - BOUNDARY_TOL or result.gamma <= lo + BOUNDARY_TOL
        )


class Tracer:
    """Collects spans while installed; see :meth:`installed`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op_id = 0
        self._stack: list[Span] = []

    def _wrap(self, fn, name):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            _record_attrs(name, call, result, span)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Swap wrappers into every zenocav module attribute; restore on exit."""
        owners = {module_name: importlib.import_module(module_name) for module_name, _, _ in TRACED}
        modules = [m for n, m in sys.modules.items() if n == "zenocav" or n.startswith("zenocav.")]
        patched = []
        try:
            for module_name, attr, name in TRACED:
                original = getattr(owners[module_name], attr)
                wrapper = self._wrap(original, name)
                for module in modules:
                    if getattr(module, attr, None) is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    @contextmanager
    def span(self, name: str):
        """Open a span under the current one; also used for a round's root."""
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.span_id if parent else None, self.op_id, name,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_time += span.duration

    def write(self, path) -> None:
        rows = [
            {
                "id": s.span_id,
                "parent": s.parent,
                "op": s.op_id,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "self": s.self_time,
                **s.attrs,
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def closure_error(spans, root: Span) -> float:
    """|sum of self times in root's tree - root wall time|, in seconds."""
    members = {root.span_id}
    total = root.self_time
    for s in spans[root.span_id + 1:]:
        if s.parent in members:
            members.add(s.span_id)
            total += s.self_time
    return abs(total - root.duration)


def _percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_bytes", "bytes"), ("_flops", "flop")):
        if suffix in name:
            return unit
    return "count"


def layer_metrics(spans, rounds: int) -> dict:
    """Per-layer (value, unit) pairs from the spans of ``rounds`` traced rounds.

    Times and counts are per round; solve percentiles are over single solves.
    Layers that did no work report 0.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def per_round_ms(name, self_time=False):
        return 1e3 * sum(s.self_time if self_time else s.duration for s in named(name)) / rounds

    def per_round(value):
        return value / rounds

    solves_ms = [1e3 * s.duration for s in named("steady.solve")]
    optima = named("sweeps.optimum")
    solves_in = {o.span_id: 0 for o in optima}
    owner = {}
    for s in spans:
        if s.parent in solves_in:
            owner[s.span_id] = s.parent
        elif s.parent in owner:
            owner[s.span_id] = owner[s.parent]
        if s.name == "steady.solve" and s.span_id in owner:
            solves_in[owner[s.span_id]] += 1
    cli_self = sum(s.self_time for s in spans if s.name.startswith("cli."))
    values = {
        "operators.liouvillian_ms": per_round_ms("operators.liouvillian"),
        "operators.liouvillian_calls": per_round(len(named("operators.liouvillian"))),
        "operators.liouvillian_bytes": per_round(
            sum(s.attrs["bytes"] for s in named("operators.liouvillian"))
        ),
        "steady.solve_ms_p50": statistics.median(solves_ms) if solves_ms else 0.0,
        "steady.solve_ms_p90": _percentile(solves_ms, 90),
        "steady.solves": per_round(len(solves_ms)),
        "steady.self_ms": per_round_ms("steady.solve", self_time=True),
        "steady.factor_ms": per_round_ms("steady.factor"),
        "steady.factor_flops": per_round(sum(s.attrs.get("flops", 0.0) for s in named("steady.factor"))),
        "steady.nullspace_ms": per_round_ms("steady.nullspace"),
        "steady.nullspace_calls": per_round(len(named("steady.nullspace"))),
        "steady.eigenvector_fallbacks": per_round(
            sum(bool(s.attrs.get("eigenvector")) for s in named("steady.solve"))
        ),
        "steady.clipped_solves": per_round(
            sum(bool(s.attrs.get("clipped")) for s in named("steady.solve"))
        ),
        "dynamics.evolve_ms": per_round_ms("dynamics.evolve"),
        "dynamics.propagator_ms": per_round_ms("dynamics.propagator"),
        "dynamics.self_ms": per_round_ms("dynamics.evolve", self_time=True),
        "dynamics.samples": per_round(sum(s.attrs.get("samples", 0) for s in named("dynamics.evolve"))),
        "sweeps.solves_per_optimum": (
            statistics.fmean(solves_in.values()) if solves_in else 0.0
        ),
        "sweeps.optimum_at_boundary": per_round(
            sum(bool(s.attrs.get("at_boundary")) for s in optima)
        ),
        "sweeps.failed_points": per_round(
            sum(s.attrs.get("failed_points", 0) for s in named("sweeps.grid"))
        ),
        "models.build_ms": per_round_ms("models.build"),
        "config.resolve_ms": per_round_ms("config.resolve"),
        "zeno.derive_ms": per_round_ms("zeno.derive"),
        "zeno.compare_ms": per_round_ms("zeno.compare"),
        "cli.self_ms": 1e3 * cli_self / rounds,
    }
    return {name: (float(value), _unit(name)) for name, value in values.items()}
