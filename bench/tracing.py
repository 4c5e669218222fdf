"""Layer tracing installed from outside the package.

The tracer replaces selected ``hexwalk`` functions with timing wrappers
while a traced round runs, and restores them afterwards, so an untraced
round executes the package unmodified.  A function is replaced wherever
the package looks it up: every module attribute and every module-level
dict entry (such as ``cli._COMMANDS``) that holds the original object.
``evolve`` therefore reaches the wrapped ``evolution.step`` and ``main``
reaches the wrapped ``cmd_*`` functions.

Two kinds of wrapper exist:

* a *span* records name, start, end, parent span and operation id; a
  span's self time is its duration minus the time covered by its children;
* an *aggregate* wrapper, used for calls made thousands of times per
  operation (``to_physical``, ``WaveFunction.amplitude``, ``g_difference``
  and the per-momentum spectral calls), only adds a count and a total to
  its parent span, which keeps the tracing overhead small.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

SPAN = "span"
AGG = "agg"

# (module, attribute path, traced name, kind).  The traced name's first
# component is the layer: the package module the function belongs to.
TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("hexwalk.evolution", "step", "evolution.step", SPAN),
    ("hexwalk.evolution", "evolve", "evolution.evolve", SPAN),
    ("hexwalk.evolution", "distribution", "evolution.distribution", SPAN),
    ("hexwalk.evolution", "WaveFunction.amplitude", "evolution.amplitude", AGG),
    ("hexwalk.lattice", "to_physical", "lattice.to_physical", AGG),
    ("hexwalk.coin", "build_coin", "coin.build_coin", SPAN),
    ("hexwalk.cli", "_resolve_config", "cli.resolve", SPAN),
    ("hexwalk.cli", "cmd_simulate", "cli.cmd.simulate", SPAN),
    ("hexwalk.cli", "cmd_return_series", "cli.cmd.return_series", SPAN),
    ("hexwalk.cli", "cmd_limit", "cli.cmd.limit", SPAN),
    ("hexwalk.cli", "cmd_compare", "cli.cmd.compare", SPAN),
    # cli calls json.dumps through the json module, so that is where the
    # wrapper goes; nothing else in the process calls it during a round.
    ("json", "dumps", "cli.json_dumps", SPAN),
    ("hexwalk.cli", "_emit", "cli.emit", SPAN),
    ("hexwalk.limits", "limit_return_probability", "limits.closed_form.limit", SPAN),
    ("hexwalk.limits", "asymptotic_origin_amplitude", "limits.closed_form.origin", SPAN),
    ("hexwalk.limits", "delta_weight", "limits.closed_form.delta", SPAN),
    ("hexwalk.limits", "delocalization_condition", "limits.closed_form.deloc", SPAN),
    ("hexwalk.limits", "asymptotic_amplitude", "limits.asymptotic_amplitude", SPAN),
    ("hexwalk.limits", "g_difference", "limits.g_difference", AGG),
    ("hexwalk.spectral", "inverse_transform_site", "spectral.inverse_transform_site", SPAN),
    ("hexwalk.spectral", "two_step_operator", "spectral.two_step_operator", AGG),
    ("hexwalk.spectral", "eigenphases_closed_form", "spectral.eigenphases_closed_form", AGG),
    ("hexwalk.spectral", "fourier_evolve", "spectral.fourier_evolve", AGG),
)

# Per-layer metrics reported from a traced round, with their units.
LAYER_METRICS: dict[str, str] = {
    "evolution.step.calls": "count",
    "evolution.step.s": "s",
    "evolution.step.sites": "count",
    "evolution.step.sites_per_s": "1/s",
    "evolution.step.bytes_computed": "B",
    "evolution.distribution.s": "s",
    "evolution.amplitude.calls": "count",
    "evolution.amplitude.s": "s",
    "lattice.to_physical.calls": "count",
    "lattice.to_physical.s": "s",
    "coin.build_coin.calls": "count",
    "cli.resolve.s": "s",
    "cli.format.self_s": "s",
    "cli.json_dumps.s": "s",
    "cli.emit.s": "s",
    "cli.emit.bytes": "B",
    "limits.closed_form.s": "s",
    "limits.asymptotic_amplitude.calls": "count",
    "limits.asymptotic_amplitude.s": "s",
    "limits.g_difference.calls": "count",
    "limits.g_difference.s": "s",
    "limits.g_difference.distinct_frac": "ratio",
    "spectral.inverse_transform_site.s": "s",
    "spectral.inverse_transform_site.point_pairs": "count",
    "spectral.two_step_operator.s": "s",
    "spectral.eigenphases_closed_form.s": "s",
    "spectral.fourier_evolve.s": "s",
    "trace.round_s": "s",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Span:
    id: int
    name: str
    parent: "Span | None"
    op: int
    start: float = 0.0
    end: float = 0.0
    covered: float = 0.0  # time inside direct children and aggregated calls
    agg: dict[str, list] = field(default_factory=dict)  # name -> [calls, total_s]
    attrs: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.covered

    def to_json(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "parent": None if self.parent is None else self.parent.id,
            "op": self.op,
            "start": self.start,
            "end": self.end,
            "self_s": self.self_s,
            "agg": self.agg,
            "attrs": self.attrs,
        }


def _step_attrs(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    wf = args[0] if args else kwargs["wf"]
    span.attrs["sites"] = len(wf)
    span.attrs["bytes"] = (
        wf.xy.nbytes + wf.values.nbytes + result.xy.nbytes + result.values.nbytes
    )


def _emit_attrs(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    text = args[0] if args else kwargs["text"]
    span.attrs["bytes"] = len(text.encode("utf-8"))


def _inverse_attrs(fn: Callable) -> Callable:
    sig = inspect.signature(fn)

    def attrs(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
        bound = sig.bind(*args, **kwargs).arguments
        span.attrs["point_pairs"] = int(bound["grid_n"]) ** 2 * int(bound["t"])

    return attrs


class Tracer:
    """Collects spans for the operations of traced rounds."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.distinct: dict[str, set] = {}
        self._stack: list[Span] = []
        self._next_id = 0
        self._op = -1
        self._agg_depth = 0
        self._patches: list[tuple[Any, Any, Any]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(self._next_id, name, parent, self._op)
        self._next_id += 1
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.covered += span.duration
        self.spans.append(span)

    @contextlib.contextmanager
    def operation(self, op_id: int, kind: str) -> Iterator[Span]:
        """Root span of one benchmark operation."""
        self._op = op_id
        span = self._open(f"op.{kind}")
        try:
            yield span
        finally:
            self._close(span)
            self._op = -1

    def reset(self) -> None:
        self.spans = []
        self.distinct = {}

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name: str, fn: Callable, attrs: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                attrs(span, args, kwargs, result)
            return result

        return wrapper

    def _agg_wrapper(self, name: str, fn: Callable, distinct: bool) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._agg_depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._agg_depth -= 1
                parent = self._stack[-1] if self._stack else None
                if parent is not None:
                    entry = parent.agg.setdefault(name, [0, 0.0])
                    entry[0] += 1
                    # A call nested in another aggregated call is already
                    # covered by the outer one's time.
                    if self._agg_depth == 0:
                        entry[1] += dt
                        parent.covered += dt
                if distinct:
                    self.distinct.setdefault(name, set()).add(
                        (args, tuple(sorted(kwargs.items())))
                    )

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever the package looks it up."""
        packages = [m for n, m in sys.modules.items() if n == "hexwalk" or n.startswith("hexwalk.")]
        for module_name, path, name, kind in TARGETS:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if original is None:
                continue
            if kind == AGG:
                wrapper = self._agg_wrapper(name, original, name == "limits.g_difference")
            else:
                if name == "spectral.inverse_transform_site":
                    attrs = _inverse_attrs(original)
                else:
                    attrs = {"evolution.step": _step_attrs, "cli.emit": _emit_attrs}.get(name)
                wrapper = self._span_wrapper(name, original, attrs)
            self._patch(owner, attr, original, wrapper)
            if not owner_path:
                for module in packages:
                    self._patch_refs(module, original, wrapper)

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _patch_refs(self, module: Any, original: Any, wrapper: Any) -> None:
        for attr, value in list(vars(module).items()):
            if value is original:
                self._patch(module, attr, original, wrapper)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        self._patches.append((value, key, original))
                        value[key] = wrapper

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches = []

    # -- per-layer metrics -------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over the spans recorded since the last reset."""
        spans = self.spans

        def outermost(prefix: str) -> list[Span]:
            # Spans of a group whose ancestors are outside the group, so a
            # group member calling another is not counted twice.
            out = []
            for s in spans:
                if not s.name.startswith(prefix):
                    continue
                p = s.parent
                while p is not None and not p.name.startswith(prefix):
                    p = p.parent
                if p is None:
                    out.append(s)
            return out

        def busy(prefix: str) -> float:
            return sum(s.duration for s in outermost(prefix))

        def calls(name: str) -> int:
            return sum(1 for s in spans if s.name == name)

        def agg(name: str) -> tuple[int, float]:
            n, total = 0, 0.0
            for s in spans:
                if name in s.agg:
                    n += s.agg[name][0]
                    total += s.agg[name][1]
            return n, total

        steps = [s for s in spans if s.name == "evolution.step"]
        step_s = busy("evolution.step")
        step_sites = sum(s.attrs.get("sites", 0) for s in steps)
        amp_n, amp_s = agg("evolution.amplitude")
        phys_n, phys_s = agg("lattice.to_physical")
        g_n, g_s = agg("limits.g_difference")
        g_distinct = len(self.distinct.get("limits.g_difference", ()))
        return {
            "evolution.step.calls": len(steps),
            "evolution.step.s": step_s,
            "evolution.step.sites": step_sites,
            "evolution.step.sites_per_s": step_sites / step_s if step_s > 0 else 0.0,
            "evolution.step.bytes_computed": sum(s.attrs.get("bytes", 0) for s in steps),
            "evolution.distribution.s": busy("evolution.distribution"),
            "evolution.amplitude.calls": amp_n,
            "evolution.amplitude.s": amp_s,
            "lattice.to_physical.calls": phys_n,
            "lattice.to_physical.s": phys_s,
            "coin.build_coin.calls": calls("coin.build_coin"),
            "cli.resolve.s": busy("cli.resolve"),
            "cli.format.self_s": sum(s.self_s for s in spans if s.name.startswith("cli.cmd.")),
            "cli.json_dumps.s": busy("cli.json_dumps"),
            "cli.emit.s": busy("cli.emit"),
            "cli.emit.bytes": sum(s.attrs.get("bytes", 0) for s in spans if s.name == "cli.emit"),
            "limits.closed_form.s": busy("limits.closed_form."),
            "limits.asymptotic_amplitude.calls": calls("limits.asymptotic_amplitude"),
            "limits.asymptotic_amplitude.s": busy("limits.asymptotic_amplitude"),
            "limits.g_difference.calls": g_n,
            "limits.g_difference.s": g_s,
            "limits.g_difference.distinct_frac": g_distinct / g_n if g_n else 0.0,
            "spectral.inverse_transform_site.s": busy("spectral.inverse_transform_site"),
            "spectral.inverse_transform_site.point_pairs": sum(
                s.attrs.get("point_pairs", 0)
                for s in spans
                if s.name == "spectral.inverse_transform_site"
            ),
            "spectral.two_step_operator.s": agg("spectral.two_step_operator")[1],
            "spectral.eigenphases_closed_form.s": agg("spectral.eigenphases_closed_form")[1],
            "spectral.fourier_evolve.s": agg("spectral.fourier_evolve")[1],
        }

