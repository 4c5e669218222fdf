"""Command-line interface: run walks, evaluate limit laws, export plot data.

Four subcommands are provided::

    hexwalk simulate       write the site distribution at a fixed time
    hexwalk return-series  write the origin probability at even times
    hexwalk limit          report the closed-form long-time quantities
    hexwalk compare        check a finite-time run against the limit laws

simulate and return-series write tables as csv (the default) or json;
limit and compare write reports as text (the default) or json.  The model
is deterministic, so identical configurations produce byte-identical
output files.  A table is written a block of rows at a time, as it is
formatted, so simulate's peak memory is the walk's.  ``--out`` replaces its
file only once the output is complete, and a reader that closes stdout
early ends the output quietly.  Exit codes: 0 success, 1 invalid input (one
``error:`` line, malformed command lines and runs too large for memory
included), 3 comparison failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import stat
import sys
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, NoReturn, TextIO

import numpy as np

from .coin import GROVER_THETA, CoinParams, CoinState, _norm, build_coin
# ``step`` is unused here but kept: bench/tests/test_bench.py checks hexwalk.cli.step.
from .evolution import distribution, evolve, origin_amplitudes, return_series, step  # noqa: F401
from .lattice import physical_coordinates
from .limits import (
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


_DEFAULTS = {"t_max": 100, "tolerance": 0.01, "window": 10}  # --help quotes these
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
            try:
                raw = json.load(fh)
            except RecursionError:
                raise ValueError("config file is nested too deeply") from None
        if not isinstance(raw, dict):
            raise ValueError("config file must contain a JSON object")

    def setting(name: str, default: object = None) -> object:
        """The flag ``name``, else the config key ``name``, else ``default``."""
        if name not in vars(args):  # unread by this command, whatever a shared config holds
            return default
        value = getattr(args, name)
        return value if value is not None else raw.get(name, default)

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
        alpha, beta, gamma = (_parse_complex(raw[key], key) for key in ("alpha", "beta", "gamma"))
    else:
        raise ValueError("initial state missing: pass --state a,b,c or a config file")

    t_max = _number(setting("t_max", _DEFAULTS["t_max"]), "t_max")
    if int(t_max) != t_max or int(t_max) < 0:
        raise ValueError(f"t_max must be a non-negative integer, got {t_max!r}")

    formats = _FORMATS[args.command]
    fmt = setting("format", formats[0])
    if fmt not in formats:
        raise ValueError(f"unsupported format {fmt!r} for {args.command}")
    tolerance = setting("tolerance", _DEFAULTS["tolerance"])
    if _number(tolerance, "tolerance") <= 0:
        raise ValueError("tolerance must be positive")
    window = _number(setting("window", _DEFAULTS["window"]), "window")
    if int(window) != window or int(window) < 1:
        raise ValueError(f"window must be a positive integer, got {window!r}")
    if args.command == "compare" and window > t_max // 2 + 1:
        raise ValueError(f"window must be at most {int(t_max) // 2 + 1}, the number of even "
                         f"times up to t_max = {int(t_max)}, got {window!r}")
    indices = setting("indices", False)
    if not isinstance(indices, bool):
        raise ValueError(f"indices must be true or false, got {indices!r}")
    out = setting("output_path")
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


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """The stream a command writes to: stdout, or the file at ``path``.

    A regular file, or a path where no file exists yet, is written under a
    temporary name in its directory and replaced only once the output is
    complete, so a run that fails midway leaves the old file, or none.  The
    path is resolved through symlinks first: a link stays a link, and its
    target gets the bytes.  Any other file, such as a FIFO or a device, is
    written in place.  A reader that closes stdout early ends the output
    quietly.
    """
    if path is None:
        try:
            yield sys.stdout
            sys.stdout.flush()
        except BrokenPipeError:
            # What is still buffered, and the interpreter's last flush, go nowhere.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return
    try:
        target = os.path.realpath(path)
        try:
            mode = os.stat(target).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            with open(target, "w", encoding="utf-8", newline="") as fh:
                yield fh
            return
        directory, name = os.path.split(target)
        temp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
        fh = open(temp, "x", encoding="utf-8", newline="")
        try:
            with fh:
                if mode is not None:  # the new file keeps the old one's permissions
                    os.chmod(fh.fileno(), stat.S_IMODE(mode))
                yield fh
            os.replace(temp, target)
        except BaseException:
            os.unlink(temp)
            raise
    except OSError as exc:  # strerror alone: the file named may be the temporary one
        raise ValueError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def _emit(text: str, fh: TextIO) -> None:
    """Write one block of output; the benchmark's tracer times each call and counts its text."""
    fh.write(text)


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
    with _output(config.output_path) as fh:
        _emit(text + "\n", fh)


# Rows per block of ``_write_table``: the cells and text of one block, a few
# hundred kB, are all it holds beside the table's own arrays.
_BLOCK_ROWS = 4096


def _field(is_float: bool, as_json: bool) -> str:
    """The replacement field of one cell: floats as ``json`` writes them, or
    to 13 significant digits in csv; ints as themselves."""
    if is_float:
        return "{!r}" if as_json else "{:.12e}"
    return "{}"


def _write_table(config: RunConfig, header: dict, columns: dict[str, object]) -> None:
    """Write the table ``columns`` as CSV, or as JSON after ``header``, a block of
    rows at a time.

    A column is a constant, written into the row template once; a 1-D array,
    whose cells are formatted a block at a time; or the pair ``(values,
    index)`` that ``np.unique(..., return_inverse=True)`` returns, whose
    distinct values are formatted once and picked per row.  The text equals
    ``json.dumps({**header, "columns": [...], "rows": [...]}, indent=2)`` and a
    newline, or the header line and one ``str.format`` line per row.
    """
    as_json = config.fmt == "json"
    fields, varying = [], []  # varying: (formatted values or None, array) per non-constant column
    for column in columns.values():
        if isinstance(column, tuple):
            values, index = column
            field = _field(values.dtype.kind == "f", as_json)
            cells = np.array([field.format(v) for v in values.tolist()], dtype=object)
            fields.append("{}")
            varying.append((cells, index))
        elif isinstance(column, np.ndarray):
            fields.append(_field(column.dtype.kind == "f", as_json))
            varying.append((None, column))
        else:  # a constant, written into the template as its own text
            field = _field(isinstance(column, float), as_json)
            text = json.dumps(column) if as_json else field.format(column)
            fields.append(text.replace("{", "{{").replace("}", "}}"))
    rows = len(varying[0][1])
    if as_json:
        head = json.dumps({**header, "columns": list(columns), "rows": []}, indent=2)
        head = head[: -len("]\n}")]
        row = ",\n    [\n      " + ",\n      ".join(fields) + "\n    ]"
        tail = "\n  ]\n}\n" if rows else "]\n}\n"
        skip = len(",")  # the first row follows the head with no comma
    else:
        head, row, tail, skip = ",".join(columns), "\n" + ",".join(fields), "\n", 0

    width = len(varying)
    with _output(config.output_path) as fh:
        for start in range(0, rows, _BLOCK_ROWS):
            count = min(_BLOCK_ROWS, rows - start)
            flat = [None] * (width * count)
            for j, (cells, array) in enumerate(varying):
                block = array[start : start + count]
                flat[j::width] = (block if cells is None else np.take(cells, block)).tolist()
            _emit(head + (row * count).format(*flat)[skip:], fh)
            head, skip = "", 0
        _emit(head + tail, fh)


def cmd_simulate(config: RunConfig) -> int:
    """Write the per-site distribution at t_max, in physical coordinates.

    Rows carry (px, py, prob) sorted by (px, py); with ``indices`` enabled
    the columns are the integer site labels (sub, x, y, prob) instead.
    """
    params, state = config.params, config.state
    dist = distribution(evolve(state, config.t_max, build_coin(params)))

    header = {**_state_header("simulate", params, state), "t": config.t_max}
    # A coordinate column takes at most 2 t_max + 1 values: each is formatted once.
    (xs, x_at), (ys, y_at) = (np.unique(c, return_inverse=True) for c in dist.xy.T)
    if config.indices:
        columns = {"sub": dist.sublattice, "x": (xs, x_at), "y": (ys, y_at), "prob": dist.values}
    else:
        px, py = physical_coordinates(dist.sublattice, xs, ys)
        columns = {"px": (px, x_at), "py": (py, y_at), "prob": dist.values}
    _write_table(config, header, columns)
    return EXIT_OK


def cmd_return_series(config: RunConfig) -> int:
    """Write (t, p_origin, limit) for even times up to t_max.

    The limit column is the constant closed-form long-time value, repeated
    on every row so the file plots directly against the series.
    """
    params, state = config.params, config.state
    limit_value = limit_return_probability(params, state)
    times, probs = zip(*return_series(state, config.t_max, build_coin(params)))
    header = {**_state_header("return-series", params, state), "t_max": config.t_max}
    columns = {"t": np.array(times), "p_origin": np.array(probs), "limit": limit_value}
    _write_table(config, header, columns)
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

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Values such as -0.6,0,0.8 and -1e-3, which argparse's own pattern (plain
        # numbers only) reads as options; no option of ours starts with - and a digit.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


# One parser per process: building it costs more than parsing a command line.
@functools.cache
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
        p.add_argument("--theta", type=float, help="coin angle in radians")
        p.add_argument("--preset", help="named coin preset (grover: c = -1/3)")
        p.add_argument("--state", metavar="A,B,C",
                       help="real initial coin amplitudes, comma separated")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", dest="output_path", metavar="OUT",
                       help="output path (default stdout)")
        p.add_argument("--format", help="output format: "
                       f"{' or '.join(_FORMATS[name])} (default {_FORMATS[name][0]})")
        # Only the flags this command reads, so that any other one is an error.
        if name != "limit":
            p.add_argument("--t-max", dest="t_max", type=int,
                           help=f"number of walk steps (default {_DEFAULTS['t_max']})")
        if name == "simulate":
            p.add_argument("--indices", action="store_true", default=None,
                           help="export integer site indices instead of coordinates")
        if name == "compare":
            p.add_argument("--tolerance", type=float,
                           help=f"comparison tolerance (default {_DEFAULTS['tolerance']})")
            p.add_argument("--window", type=int,
                           help=f"even-step averaging window (default {_DEFAULTS['window']})")
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
    except (ValueError, OSError, MemoryError) as exc:  # json.JSONDecodeError is a ValueError
        if isinstance(exc, MemoryError):  # numpy's names the allocation, a bare one nothing
            exc = f"out of memory: {exc}" if str(exc) else "out of memory"
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
