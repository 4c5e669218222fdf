"""Command-line interface: run walks, evaluate limit laws, export plot data.

Four subcommands are provided::

    hexwalk simulate       write the site distribution at a fixed time
    hexwalk return-series  write the origin probability at even times
    hexwalk limit          report the closed-form long-time quantities
    hexwalk compare        check a finite-time run against the limit laws

simulate and return-series write tables as csv (the default) or json;
limit and compare write reports as text (the default) or json.  The model
is deterministic, so identical configurations produce byte-identical
output files.  Exit codes: 0 success, 1 invalid input (one ``error:`` line,
malformed command lines included), 2 computation failure, 3 comparison failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from collections import deque
from dataclasses import dataclass
from typing import Iterable, NoReturn

import numpy as np

from .coin import GROVER_THETA, CoinParams, CoinState, _norm, build_coin
# ``step`` is unused here but kept: bench/tests/test_bench.py checks hexwalk.cli.step.
from .evolution import distribution, evolve, origin_amplitudes, return_series, step  # noqa: F401
from .lattice import physical_coordinates
from .limits import (
    QuadratureError,
    a_theta,
    asymptotic_origin_amplitude,
    delocalization_condition,
    delta_weight,
    limit_return_probability,
)

__all__ = [
    "RunConfig",
    "cmd_simulate",
    "cmd_return_series",
    "cmd_limit",
    "cmd_compare",
    "main",
]

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_COMPUTATION_FAILURE = 2
EXIT_COMPARISON_FAILED = 3


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters shared by all subcommands."""

    params: CoinParams
    state: CoinState
    t_max: int
    output_path: str | None
    fmt: str
    tolerance: float
    window: int
    indices: bool


# Output formats each command accepts; the first is its default.
_FORMATS = {
    "simulate": ("csv", "json"),
    "return-series": ("csv", "json"),
    "limit": ("text", "json"),
    "compare": ("text", "json"),
}


def _number(value: object, name: str) -> int | float:
    """``value`` itself if it is a finite int or float; bools are rejected.

    ``abs`` keeps ints exact and NaN fails every comparison, so the bound
    also rejects NaN, the infinities and ints too large for a float.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not abs(value) <= sys.float_info.max
    ):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


def _parse_complex(value: object, name: str) -> complex:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_number(value[0], name), _number(value[1], name))
    return complex(_number(value, name))


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    raw: dict = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config file must contain a JSON object")

    def setting(name: str, default: object = None, key: str | None = None) -> object:
        """The flag ``name``, else the config key ``key or name``, else ``default``."""
        if name not in vars(args):  # unread by this command, whatever a shared config holds
            return default
        value = getattr(args, name)
        return value if value is not None else raw.get(key or name, default)

    # One angle setting: --theta or --preset on the command line hides both config keys.
    level = vars(args) if args.theta is not None or args.preset is not None else raw
    theta, preset = level.get("theta"), level.get("preset")
    if theta is not None and preset is not None:
        raise ValueError("give the angle as theta or as preset, not both")
    if preset == "grover":
        theta = GROVER_THETA
    elif preset is not None:
        raise ValueError(f"unknown preset {preset!r}")
    elif theta is None:
        raise ValueError("either --theta or --preset (or a config key) is required")
    theta = _number(theta, "theta")

    if args.state is not None:
        parts = args.state.split(",")
        if len(parts) != 3:
            raise ValueError("--state must be three comma-separated reals")
        try:
            reals = [float(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"--state components must be real numbers: {exc}") from exc
        alpha, beta, gamma = (complex(_number(r, "--state component")) for r in reals)
    elif {"alpha", "beta", "gamma"} <= raw.keys():
        alpha = _parse_complex(raw["alpha"], "alpha")
        beta = _parse_complex(raw["beta"], "beta")
        gamma = _parse_complex(raw["gamma"], "gamma")
    else:
        raise ValueError("initial state missing: pass --state a,b,c or a config file")

    t_max = _number(setting("t_max", 100), "t_max")
    if int(t_max) != t_max or int(t_max) < 0:
        raise ValueError(f"t_max must be a non-negative integer, got {t_max!r}")

    formats = _FORMATS[args.command]
    fmt = setting("format", formats[0])
    if fmt not in formats:
        raise ValueError(f"unsupported format {fmt!r} for {args.command}")
    tolerance = setting("tolerance", 0.01)
    if _number(tolerance, "tolerance") <= 0:
        raise ValueError("tolerance must be positive")
    window = _number(setting("window", 10), "window")
    if int(window) != window or int(window) < 1:
        raise ValueError(f"window must be a positive integer, got {window!r}")
    if args.command == "compare" and window > t_max // 2 + 1:
        raise ValueError(f"window must be at most {int(t_max) // 2 + 1}, the number of even "
                         f"times up to t_max = {int(t_max)}, got {window!r}")
    indices = setting("indices", False)
    if not isinstance(indices, bool):
        raise ValueError(f"indices must be true or false, got {indices!r}")
    out = setting("out", key="output_path")
    if out is not None and not isinstance(out, str):
        raise ValueError(f"output_path must be a string, got {out!r}")

    # Built last, so that the checks above report their errors first.
    params = CoinParams(float(theta))
    norm = _norm(alpha, beta, gamma)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"initial state must be normalized within 1e-9, |state| = {norm!r}")

    return RunConfig(
        params=params,
        state=CoinState.normalized(alpha, beta, gamma),
        t_max=int(t_max),
        output_path=out,
        fmt=fmt,
        tolerance=float(tolerance),
        window=int(window),
        indices=indices,
    )


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path!r}: {exc}") from exc


def _complex_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _state_header(command: str, params: CoinParams, state: CoinState) -> dict:
    """Leading keys of a JSON table: the command, the angle and the initial state."""
    return {
        "command": command,
        "theta": params.theta,
        "state": [_complex_pair(z) for z in (state.alpha, state.beta, state.gamma)],
    }


def _write(config: RunConfig, payload: dict, lines: Iterable[str]) -> None:
    """Write ``payload`` as JSON if the format is json, else the text ``lines``."""
    text = json.dumps(payload, indent=2) if config.fmt == "json" else "\n".join(lines)
    _emit(text + "\n", config.output_path)


def _write_table(
    config: RunConfig, header: dict, columns: list[str], row_format: str, rows: list
) -> None:
    """Write ``rows`` as CSV lines in ``row_format``, or as JSON after ``header``."""
    lines = itertools.chain([",".join(columns)], (row_format.format(*r) for r in rows))
    _write(config, {**header, "columns": columns, "rows": rows}, lines)


def cmd_simulate(config: RunConfig) -> int:
    """Write the per-site distribution at t_max, in physical coordinates.

    Rows carry (px, py, prob) sorted by (px, py); with ``indices`` enabled
    the columns are the integer site labels (sub, x, y, prob) instead.
    """
    params, state = config.params, config.state
    dist = distribution(evolve(state, config.t_max, build_coin(params)))

    header = {**_state_header("simulate", params, state), "t": config.t_max}
    # No column list or coordinate array outlives its zip, so the formatting
    # peaks no higher in memory than with rows built one at a time.
    x, y, probs = dist.xy[:, 0], dist.xy[:, 1], dist.values
    if config.indices:
        rows = list(zip([dist.sublattice] * len(dist), x.tolist(), y.tolist(), probs.tolist()))
        _write_table(config, header, ["sub", "x", "y", "prob"], "{},{},{},{:.12e}", rows)
    else:
        points = (c.tolist() for c in physical_coordinates(dist.sublattice, x, y))
        rows = list(zip(*points, probs.tolist()))
        _write_table(config, header, ["px", "py", "prob"], "{:.12e},{:.12e},{:.12e}", rows)
    return EXIT_OK


def cmd_return_series(config: RunConfig) -> int:
    """Write (t, p_origin, limit) for even times up to t_max.

    The limit column is the constant closed-form long-time value, repeated
    on every row so the file plots directly against the series.
    """
    params, state = config.params, config.state
    limit_value = limit_return_probability(params, state)
    series = return_series(state, config.t_max, build_coin(params))
    rows = [(t, p, limit_value) for t, p in series]
    header = {**_state_header("return-series", params, state), "t_max": config.t_max}
    _write_table(config, header, ["t", "p_origin", "limit"], "{},{:.12e},{:.12e}", rows)
    return EXIT_OK


def cmd_limit(config: RunConfig) -> int:
    """Report the closed-form long-time quantities for one configuration."""
    params, state = config.params, config.state
    amp = asymptotic_origin_amplitude(params, state)
    payload = {
        "command": "limit",
        "theta": params.theta,
        "A": a_theta(params),
        "limit": amp.norm_squared(),
        "delta": delta_weight(params, state),
        "delocalized": delocalization_condition(params, state),
        "origin_amplitude": [_complex_pair(z) for z in (amp.psi0, amp.psi1, amp.psi2)],
    }
    lines = [
        f"theta        = {payload['theta']:.12g}",
        f"A(theta)     = {payload['A']:.12g}",
        f"limit        = {payload['limit']:.12g}",
        f"delta        = {payload['delta']:.12g}",
        f"delocalized  = {'yes' if payload['delocalized'] else 'no'}",
        "origin amplitude:",
    ]
    for label, pair in zip(("psi0", "psi1", "psi2"), payload["origin_amplitude"]):
        lines.append(f"  {label} = {pair[0]:+.12g} {pair[1]:+.12g}i")
    _write(config, payload, lines)
    return EXIT_OK


def cmd_compare(config: RunConfig) -> int:
    """Check a finite-time run against the closed-form origin limits.

    Evolves to t_max, averages the origin probability and the complex
    origin amplitude over the last ``window`` even times, and compares
    them with the long-time formulas.  PASS requires every reported
    absolute error to stay within the tolerance; FAIL exits with code 3.
    """
    params, state = config.params, config.state
    recent: deque[np.ndarray] = deque(maxlen=config.window)
    recent.extend(amp for _, amp in origin_amplitudes(state, config.t_max, build_coin(params)))

    sampled = np.array(list(recent), dtype=np.complex128)
    p_mean = float(np.mean(np.sum(np.abs(sampled) ** 2, axis=1)))
    amp_mean = sampled.mean(axis=0)

    amp = asymptotic_origin_amplitude(params, state)
    limit_value = amp.norm_squared()
    predicted = amp.as_array()
    p_error = abs(p_mean - limit_value)
    amp_errors = np.abs(amp_mean - predicted)
    passed = p_error <= config.tolerance and float(amp_errors.max()) <= config.tolerance

    payload = {
        "command": "compare",
        "theta": params.theta,
        "t_max": config.t_max,
        "window": config.window,
        "tolerance": config.tolerance,
        "limit": limit_value,
        "p_origin_mean": p_mean,
        "p_abs_error": p_error,
        "amplitude_abs_error": [float(e) for e in amp_errors],
        "simulated_origin_amplitude": [_complex_pair(z) for z in amp_mean],
        "predicted_origin_amplitude": [_complex_pair(z) for z in predicted],
        "status": "PASS" if passed else "FAIL",
    }
    lines = [
        f"t_max      = {config.t_max}, window = {config.window} even steps",
        f"limit      = {limit_value:.12g}",
        f"p_mean     = {p_mean:.12g}   |error| = {p_error:.3e}",
        "amplitude |error| = "
        + ", ".join(f"{e:.3e}" for e in payload["amplitude_abs_error"]),
        f"status     = {payload['status']} (tolerance {config.tolerance:g})",
    ]
    _write(config, payload, lines)
    return EXIT_OK if passed else EXIT_COMPARISON_FAILED


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as ValueError instead of exiting with 2."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hexwalk",
        description="Three-state quantum walk on the honeycomb lattice",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("simulate", "site distribution at a fixed time"),
        ("return-series", "origin probability at even times"),
        ("limit", "closed-form long-time quantities"),
        ("compare", "finite-time run vs the limit laws"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--theta", type=float, default=None, help="coin angle in radians")
        p.add_argument(
            "--preset", choices=("grover",), default=None,
            help="named coin preset (grover: c = -1/3)",
        )
        p.add_argument(
            "--state", default=None, metavar="A,B,C",
            help="real initial coin amplitudes, comma separated",
        )
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json", "text"), default=None,
                       help="output format: csv or json for tables (default csv), "
                       "text or json for reports (default text)")
        # Only the flags this command reads, so that any other one is an error.
        if name != "limit":
            p.add_argument("--t-max", dest="t_max", type=int, default=None,
                           help="number of walk steps (default 100)")
        if name == "simulate":
            p.add_argument("--indices", action="store_true", default=None,
                           help="export integer site indices instead of coordinates")
        if name == "compare":
            p.add_argument("--tolerance", type=float, default=None,
                           help="comparison tolerance (default 0.01)")
            p.add_argument("--window", type=int, default=None,
                           help="even-step averaging window (default 10)")
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "return-series": cmd_return_series,
    "limit": cmd_limit,
    "compare": cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _resolve_config(args)
        return _COMMANDS[args.command](config)
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except (QuadratureError, FloatingPointError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION_FAILURE


if __name__ == "__main__":
    sys.exit(main())
