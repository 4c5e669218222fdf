"""What the command-line interface promises, in one table.

A row runs one argv in a working directory that holds ``FILES`` and
expects an exit code and one of two outcomes.  A golden row expects the
stdout in ``tests/golden/<golden>.stdout`` byte for byte and an empty
stderr; rows whose output coincides read one golden file.  A rejected row
expects exit 1, an empty stdout and one stderr line: ``error: <message>``
when the row carries the package's own message, else any line that starts
with ``error: `` (argparse's wording varies between Python versions, and an
OS error's between systems).  A row with ``out`` writes its output with
``--out`` to that file: the file must hold the stdout golden, and stdout
must be empty.  The config files the rows read are ``FILES``, each the base
config with its own overrides.

The rows sit under the promise they pin.  ``tests/test_cli.py`` runs the
rows of each promise in-process, through ``hexwalk.cli.main``, as the test
named after it.  Run as a script, this module runs every row through the
``hexwalk`` console script found on ``PATH``, prints one line per failing
row and exits 1 if a row fails or the console script is missing::

    python tests/cli_cases.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

_BASE = {"theta": 1.0, "alpha": 0.0, "beta": 1.0, "gamma": 0.0, "t_max": 4}


def _config(**override: object) -> str:
    return json.dumps({**_BASE, **override}) + "\n"


# json.load gives up on this nesting with RecursionError, which json.dumps cannot provoke.
_DEEP = "[" * 200000 + "]" * 200000

# Written into the working directory of every row.
FILES = {
    "base.json": _config(),
    "list.json": "[]\n",
    "deep.json": _DEEP + "\n",
    "deep-key.json": '{"theta": 1.0, "alpha": ' + _DEEP + ', "beta": 1, "gamma": 0}\n',
    "theta-and-preset.json": _config(preset="grover"),
    "theta-list.json": _config(theta=[1.0]),
    "t_max-infinity.json": _config(t_max=float("inf")),
    "t_max-bool.json": _config(t_max=True),
    "t_max-fraction.json": _config(t_max=2.5),
    "tolerance-string.json": _config(tolerance="0.1", window=3),
    "window-past-t_max.json": _config(window=4),
    "window-past-odd-t_max.json": _config(t_max=5, window=4),
    "indices-string.json": _config(indices="no"),
    "output_path-int.json": _config(output_path=1),
    "alpha-nan.json": _config(alpha=[float("nan"), 0.0]),
    "alpha-overflow.json": _config(alpha=[1e200, 0.0]),
    "alpha-overflow-complex.json": _config(alpha=[1.5e308, 1.5e308]),
    "alpha-bool.json": _config(alpha=True, beta=0.0),
    # Keys of other commands, with values those commands reject.
    "limit-shared.json": _config(t_max=-1, window=0, tolerance=0, indices="no"),
    "simulate-shared.json": _config(theta=2.2, alpha=[0.6, 0.0], beta=[0.0, 0.48],
                                    gamma=[0.0, -0.64], t_max=7, tolerance=0, window=0),
}


@dataclass(frozen=True)
class Case:
    """One command line, its exit code and its golden stdout, or ``None`` if rejected."""

    name: str
    argv: tuple[str, ...]
    code: int
    golden: str | None
    message: str | None = None  # a rejection's stderr line, after "error: "
    out: str | None = None  # the file, in the working directory, that --out names


def _golden(name: str, *argv: str, code: int = 0, reads: str | None = None) -> Case:
    # a row reads the golden file of its own name, unless it reads another's
    return Case(name, argv, code, reads or name)


def _rejected(name: str, *argv: str, message: str | None = None) -> Case:
    return Case(name, argv, 1, None, message)


def _spaced_and_equals(name: str, *flags: str) -> tuple[Case, Case]:
    # argparse's own pattern takes only plain numbers such as -1 or -0.5 for values
    joined = [f"{flag}={value}" for flag, value in zip(flags[::2], flags[1::2])]
    golden = "limit_" + name.replace("-", "_")
    return (Case(name, ("limit", *flags), 0, golden),
            Case(f"{name}-equals", ("limit", *joined), 0, golden))


def _config_rejected(name: str, command: str, message: str) -> Case:
    # the row reads the config file of its own name
    return _rejected(name, command, "--config", f"{name}.json", message=message)


# Complex [re, im] amplitudes and an odd t_max, so simulate writes B rows.
_COMPLEX = ("--config", str(GOLDEN / "complex_state.json"))
GROVER_BETA = ("--preset", "grover", "--state", "0,1,0")
_COMPARE = ("compare", *GROVER_BETA, "--t-max", "80")
_RETURN_SERIES = ("return-series", "--theta", "1.1", "--state", "0.6,0,0.8")
_DEGENERATE = "is degenerate: angles 0 and pi are not admitted"

_GOLDEN_ROWS = (
    _golden("simulate_csv", "simulate", *_COMPLEX),
    _golden("simulate_csv_indices", "simulate", *_COMPLEX, "--indices"),
    _golden("simulate_json", "simulate", *_COMPLEX, "--format", "json"),
    _golden("simulate_json_indices", "simulate", *_COMPLEX, "--format", "json", "--indices"),
    _golden("return_series_csv", *_RETURN_SERIES, "--t-max", "40"),
    # an odd t_max ends the series at the last even time
    _golden("return_series_csv_t_max_odd", *_RETURN_SERIES, "--t-max", "41",
            reads="return_series_csv"),
    # every flag beats the config key it names
    _golden("return_series_csv_flags_over_config", *_RETURN_SERIES, "--t-max", "40",
            "--config", "base.json", reads="return_series_csv"),
    _golden("return_series_json", *_RETURN_SERIES, "--t-max", "40", "--format", "json"),
    _golden("limit_default", "limit", *GROVER_BETA),
    _golden("limit_text", "limit", *_COMPLEX, "--format", "text"),
    _golden("limit_json", "limit", *_COMPLEX, "--format", "json"),
    _golden("compare_pass_text", *_COMPARE, "--tolerance", "0.05"),
    _golden("compare_fail_text", *_COMPARE, "--tolerance", "1e-4", "--format", "text", code=3),
    # compare's default format is text
    _golden("compare_fail_default_format", *_COMPARE, "--tolerance", "1e-4", code=3,
            reads="compare_fail_text"),
    _golden("compare_pass_json", *_COMPARE, "--tolerance", "0.05", "--format", "json"),
    _golden("compare_fail_json", *_COMPARE, "--tolerance", "1e-4", "--format", "json", code=3),
)
# --out writes to its file the bytes a table sends to stdout without it
_GOLDEN_ROWS += tuple(
    Case(f"{case.name}_out", (*case.argv, "--out", f"{case.name}.out"), case.code, case.golden,
         out=f"{case.name}.out")
    for case in _GOLDEN_ROWS
    if case.name in ("simulate_csv", "simulate_json_indices", "return_series_csv")
)

# Each promise names the test in tests/test_cli.py that runs its rows.
PROMISES = {
    "cli_output_matches_golden": _GOLDEN_ROWS,
    "invalid_command_lines_rejected": (
        _rejected("simulate_text_rejected", "simulate", *_COMPLEX, "--format", "text",
                  message="unsupported format 'text' for simulate"),
        _rejected("compare_csv_rejected", *_COMPARE, "--format", "csv",
                  message="unsupported format 'csv' for compare"),
        _rejected("theta-nan", "limit", "--theta", "nan", "--state", "0,1,0", "--format", "json",
                  message="theta must be a finite number, got nan"),
        _rejected("theta-inf", "limit", "--theta", "inf", "--state", "0,1,0", "--format", "json",
                  message="theta must be a finite number, got inf"),
        _rejected("state-nan", "simulate", "--theta", "1.0", "--state", "nan,0,0", "--t-max", "2",
                  message="--state component must be a finite number, got nan"),
        _rejected("state-overflow", "limit", "--theta", "1", "--state", "1e200,0,0",
                  message="initial state must be normalized within 1e-9, |state| = 1e+200"),
        _rejected("tolerance-nan", "compare", *GROVER_BETA, "--t-max", "4", "--window", "3",
                  "--tolerance", "nan", message="tolerance must be a finite number, got nan"),
        _rejected("t_max-not-an-int", "simulate", *GROVER_BETA, "--t-max", "abc"),
        _rejected("t_max-not-an-int-alone", "simulate", "--t-max", "abc"),
        _rejected("format-unknown", "simulate", *GROVER_BETA, "--format", "xml",
                  message="unsupported format 'xml' for simulate"),
        _rejected("command-unknown", "bogus", *GROVER_BETA),
        _rejected("limit-t_max", "limit", *GROVER_BETA, "--t-max", "5"),
        _rejected("limit-indices", "limit", *GROVER_BETA, "--indices"),
        _rejected("return-series-window", "return-series", *GROVER_BETA, "--window", "3"),
        _rejected("window-past-t_max", "compare", *GROVER_BETA, "--t-max", "4", "--window", "4",
                  message="window must be at most 3, the number of even times up to t_max = 4, "
                          "got 4"),
        _rejected("theta-and-preset", "limit", "--theta", "1", *GROVER_BETA,
                  message="give the angle as theta or as preset, not both"),
        _rejected("preset-unknown", "limit", "--preset", "foo", "--state", "0,1,0",
                  message="unknown preset 'foo'"),
        # cos(theta) rounds to 1 here, where the limit laws divide by 1 - cos(theta)
        _rejected("limit-theta-cosine-one", "limit", "--theta", "1e-9", "--state", "0,1,0",
                  message=f"theta=1e-09 {_DEGENERATE}"),
        _rejected("return-series-theta-cosine-one", "return-series", "--theta", "1e-9",
                  "--state", "0,1,0", "--t-max", "4", message=f"theta=1e-09 {_DEGENERATE}"),
        _rejected("compare-theta-cosine-one", "compare", "--theta", "6.283185307177",
                  "--state", "0,1,0", "--t-max", "4", "--window", "3",
                  message=f"theta=6.283185307177 {_DEGENERATE}"),
        _rejected("option-unknown", "limit", *GROVER_BETA, "-x"),
        _rejected("out-directory-missing", "simulate", *GROVER_BETA, "--t-max", "2",
                  "--out", "missing/table.csv"),
        _rejected("config-nested-too-deeply", "limit", "--theta", "1", "--state", "0,1,0",
                  "--config", "deep.json", message="config file is nested too deeply"),
        _rejected("angle-missing", "limit", "--state", "0,1,0",
                  message="either --theta or --preset (or a config key) is required"),
        _rejected("state-two-components", "limit", "--theta", "1", "--state", "0,1",
                  message="--state must be three comma-separated reals"),
        _rejected("state-not-numbers", "limit", "--theta", "1", "--state", "a,b,c",
                  message="--state components must be real numbers: "
                          "could not convert string to float: 'a'"),
        _rejected("state-missing", "limit", "--theta", "1",
                  message="initial state missing: pass --state a,b,c or a config file"),
        _rejected("t_max-negative", "simulate", *GROVER_BETA, "--t-max", "-1",
                  message="t_max must be a non-negative integer, got -1"),
        _rejected("tolerance-zero", "compare", *GROVER_BETA, "--tolerance", "0",
                  message="tolerance must be positive"),
        _rejected("window-zero", "compare", *GROVER_BETA, "--window", "0",
                  message="window must be a positive integer, got 0"),
    ),
    "badly_typed_config_values_rejected": (
        _config_rejected("tolerance-string", "compare",
                         "tolerance must be a finite number, got '0.1'"),
        _config_rejected("theta-list", "simulate", "theta must be a finite number, got [1.0]"),
        _config_rejected("t_max-infinity", "simulate", "t_max must be a finite number, got inf"),
        _config_rejected("t_max-bool", "simulate", "t_max must be a finite number, got True"),
        _config_rejected("t_max-fraction", "simulate",
                         "t_max must be a non-negative integer, got 2.5"),
        _config_rejected("indices-string", "simulate", "indices must be true or false, got 'no'"),
        _config_rejected("alpha-nan", "simulate", "alpha must be a finite number, got nan"),
        _config_rejected("alpha-overflow", "simulate",
                         "initial state must be normalized within 1e-9, |state| = 1e+200"),
        _config_rejected("alpha-overflow-complex", "simulate",
                         "initial state must be normalized within 1e-9, |state| = inf"),
        _config_rejected("alpha-bool", "simulate", "alpha must be a finite number, got True"),
        _config_rejected("output_path-int", "simulate", "output_path must be a string, got 1"),
        _config_rejected("window-past-t_max", "compare",
                         "window must be at most 3, the number of even times up to t_max = 4, "
                         "got 4"),
        _config_rejected("theta-and-preset", "simulate",
                         "give the angle as theta or as preset, not both"),
        _config_rejected("list", "limit", "config file must contain a JSON object"),
    ),
    "deeply_nested_config_rejected": (
        _rejected("top-level", "limit", "--theta", "1", "--state", "0,1,0",
                  "--config", "deep.json", message="config file is nested too deeply"),
        _rejected("in-a-key", "limit", "--config", "deep-key.json",
                  message="config file is nested too deeply"),
    ),
    "compare_window_error_names_largest_window": (
        # t_max 5 has the three even times 0, 2 and 4
        _rejected("flag", "compare", *GROVER_BETA, "--t-max", "5", "--window", "4",
                  message="window must be at most 3, the number of even times up to t_max = 5, "
                          "got 4"),
        _rejected("config", "compare", "--config", "window-past-odd-t_max.json",
                  message="window must be at most 3, the number of even times up to t_max = 5, "
                          "got 4"),
    ),
    # --theta and --preset are one setting: a flag hides both config keys
    "angle_flag_beats_either_config_key": (
        _golden("theta-flag-over-config-preset", "limit", "--config", "theta-and-preset.json",
                "--theta", "1.0", reads="limit_theta_1"),
        _golden("preset-flag-over-config-theta", "limit", "--config", "base.json",
                "--preset", "grover", reads="limit_default"),
    ),
    # config files are shared between commands: a key a command does not read goes unchecked
    "unread_config_keys_ignored": (
        _golden("limit", "limit", "--config", "limit-shared.json", reads="limit_theta_1"),
        _golden("simulate", "simulate", "--config", "simulate-shared.json", reads="simulate_csv"),
    ),
    "negative_values_parse_as_in_the_equals_form": (
        *_spaced_and_equals("state-negative-first", "--theta", "1", "--state", "-0.6,0,0.8"),
        *_spaced_and_equals("theta-negative-exponent", "--theta", "-1e-3", "--state", "0,1,0"),
        *_spaced_and_equals("theta-negative-leading-dot", "--theta", "-.5", "--state", "0,1,0"),
    ),
}
CASES = tuple(case for rows in PROMISES.values() for case in rows)


def _read(path: Path) -> str:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read()


def check(case: Case, out: str, err: str, code: int, directory: Path) -> list[str]:
    """What ``case`` got wrong, given the stdout, stderr and exit code of its run
    in ``directory``."""
    problems = [] if code == case.code else [f"exit {code}, expected {case.code}"]
    if case.out is not None:
        if out:
            problems.append("stdout is not empty")
        path = directory / case.out
        if not path.is_file():
            return [*problems, f"no file {case.out}"]
        out = _read(path)
    if case.golden is None:
        if out:
            problems.append("stdout is not empty")
        if case.message is not None:
            if err != f"error: {case.message}\n":
                problems.append(f"stderr is not 'error: {case.message}': {err[:200]!r}")
        elif not (err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1):
            problems.append(f"stderr is not one 'error: ' line: {err[:200]!r}")
        return problems
    if out != _read(GOLDEN / f"{case.golden}.stdout"):
        problems.append(f"stdout differs from golden/{case.golden}.stdout")
    if err:
        problems.append(f"stderr is not empty: {err[:200]!r}")
    return problems


def write_files(directory: Path) -> None:
    for name, text in FILES.items():
        with open(directory / name, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def main() -> int:
    hexwalk = shutil.which("hexwalk")
    if hexwalk is None:
        print("error: no 'hexwalk' console script on PATH", file=sys.stderr)
        return 1
    failed = 0
    with tempfile.TemporaryDirectory() as work:
        write_files(Path(work))
        for promise, rows in PROMISES.items():
            for case in rows:
                proc = subprocess.run([hexwalk, *case.argv], cwd=work, capture_output=True)
                out, err = (text.decode("utf-8", "replace")
                            for text in (proc.stdout, proc.stderr))
                problems = check(case, out, err, proc.returncode, Path(work))
                if problems:
                    failed += 1
                    print(f"FAIL {promise}[{case.name}]: {'; '.join(problems)}")
    print(f"{len(CASES) - failed} of {len(CASES)} CLI cases passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
