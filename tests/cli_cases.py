"""Every command line whose output the CLI promises, in one table.

A case runs one argv and expects an exit code and one of two outcomes:
the golden pair ``tests/golden/<golden>.stdout`` and ``.stderr``, byte for
byte, or, with no golden, rejection: exit 1, empty stdout and one stderr
line that starts with ``error: ``.  A case with ``out`` writes its output
with ``--out`` to that file: the file must hold the stdout golden, and
stdout must be empty.  Cases run in a working directory that holds ``FILES``.

``tests/test_cli.py`` runs each case in-process through ``hexwalk.cli.main``.
Run as a script, this module runs each case through the ``hexwalk`` console
script found on ``PATH``, prints one line per failing case and exits 1 if a
case fails or the console script is missing::

    python tests/cli_cases.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

# Written into the working directory of every case.  json.load gives up on
# this nesting with RecursionError, which json.dumps cannot provoke.
FILES = {"deep.json": "[" * 200000 + "]" * 200000 + "\n"}


@dataclass(frozen=True)
class Case:
    """One command line, its exit code and its golden pair, or ``None`` if rejected."""

    name: str
    argv: tuple[str, ...]
    code: int
    golden: str | None
    out: str | None = None  # the file, in the working directory, that --out names


def _golden(name: str, *argv: str, code: int = 0, reads: str | None = None) -> Case:
    # a case owns the golden pair of its own name, unless it reads another's
    return Case(name, argv, code, reads or name)


def _rejected(name: str, *argv: str) -> Case:
    return Case(name, argv, 1, None)


# Complex [re, im] amplitudes and an odd t_max, so simulate writes B rows.
_COMPLEX = ("--config", str(GOLDEN / "complex_state.json"))
GROVER_BETA = ("--preset", "grover", "--state", "0,1,0")
_COMPARE = ("compare", *GROVER_BETA, "--t-max", "80")
_RETURN_SERIES = ("return-series", "--theta", "1.1", "--state", "0.6,0,0.8")

CASES = (
    _golden("simulate_csv", "simulate", *_COMPLEX),
    _golden("simulate_csv_indices", "simulate", *_COMPLEX, "--indices"),
    _golden("simulate_json", "simulate", *_COMPLEX, "--format", "json"),
    _golden("simulate_json_indices", "simulate", *_COMPLEX, "--format", "json", "--indices"),
    _golden("simulate_text_rejected", "simulate", *_COMPLEX, "--format", "text", code=1),
    _golden("return_series_csv", *_RETURN_SERIES, "--t-max", "40"),
    # an odd t_max ends the series at the last even time
    _golden("return_series_csv_t_max_odd", *_RETURN_SERIES, "--t-max", "41",
            reads="return_series_csv"),
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
    _golden("compare_csv_rejected", *_COMPARE, "--format", "csv", code=1),
    _rejected("theta-nan", "limit", "--theta", "nan", "--state", "0,1,0", "--format", "json"),
    _rejected("theta-inf", "limit", "--theta", "inf", "--state", "0,1,0", "--format", "json"),
    _rejected("state-nan", "simulate", "--theta", "1.0", "--state", "nan,0,0", "--t-max", "2"),
    _rejected("state-overflow", "limit", "--theta", "1", "--state", "1e200,0,0"),
    _rejected("tolerance-nan", "compare", *GROVER_BETA, "--t-max", "4", "--window", "3",
              "--tolerance", "nan"),
    _rejected("t_max-not-an-int", "simulate", *GROVER_BETA, "--t-max", "abc"),
    _rejected("t_max-not-an-int-alone", "simulate", "--t-max", "abc"),
    _rejected("format-unknown", "simulate", *GROVER_BETA, "--format", "xml"),
    _rejected("command-unknown", "bogus", *GROVER_BETA),
    _rejected("limit-t_max", "limit", *GROVER_BETA, "--t-max", "5"),
    _rejected("limit-indices", "limit", *GROVER_BETA, "--indices"),
    _rejected("return-series-window", "return-series", *GROVER_BETA, "--window", "3"),
    _rejected("window-past-t_max", "compare", *GROVER_BETA, "--t-max", "4", "--window", "4"),
    _rejected("theta-and-preset", "limit", "--theta", "1", *GROVER_BETA),
    _rejected("preset-unknown", "limit", "--preset", "foo", "--state", "0,1,0"),
    # cos(theta) rounds to 1 here, where the limit laws divide by 1 - cos(theta)
    _rejected("limit-theta-cosine-one", "limit", "--theta", "1e-9", "--state", "0,1,0"),
    _rejected("return-series-theta-cosine-one", "return-series", "--theta", "1e-9",
              "--state", "0,1,0", "--t-max", "4"),
    _rejected("compare-theta-cosine-one", "compare", "--theta", "6.283185307177",
              "--state", "0,1,0", "--t-max", "4", "--window", "3"),
    _rejected("option-unknown", "limit", *GROVER_BETA, "-x"),
    _rejected("out-directory-missing", "simulate", *GROVER_BETA, "--t-max", "2",
              "--out", "missing/table.csv"),
    _rejected("config-nested-too-deeply", "limit", "--theta", "1", "--state", "0,1,0",
              "--config", "deep.json"),
)
# --out writes to its file the bytes a table sends to stdout without it
CASES += tuple(
    Case(f"{case.name}_out", (*case.argv, "--out", f"{case.name}.out"), case.code, case.golden,
         out=f"{case.name}.out")
    for case in CASES
    if case.name in ("simulate_csv", "simulate_json_indices", "return_series_csv")
)


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
        if not (err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1):
            problems.append(f"stderr is not one 'error: ' line: {err[:200]!r}")
        return problems
    for stream, text in (("stdout", out), ("stderr", err)):
        if text != _read(GOLDEN / f"{case.golden}.{stream}"):
            problems.append(f"{stream} differs from golden/{case.golden}.{stream}")
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
        for case in CASES:
            proc = subprocess.run([hexwalk, *case.argv], cwd=work, capture_output=True)
            out, err = (text.decode("utf-8", "replace") for text in (proc.stdout, proc.stderr))
            problems = check(case, out, err, proc.returncode, Path(work))
            if problems:
                failed += 1
                print(f"FAIL {case.name}: {'; '.join(problems)}")
    print(f"{len(CASES) - failed} of {len(CASES)} CLI cases passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
