"""Tests of the command-line interface: golden output and input validation.

Each promise of ``tests/cli_cases.py`` runs in-process, through
``hexwalk.cli.main``, as the test named after it: a golden row must match
its stdout under ``tests/golden/`` byte for byte, since the CLI promises
byte-identical output for identical configurations, with an empty stderr;
a rejected row must exit 1 with its ``error: `` line.  The config files the
rows read are the table's ``FILES``.  After an intended change, regenerate
the golden stdout files with ``PYTHONPATH=src python tests/test_cli.py``
and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import cli_cases
import hexwalk
from cli_cases import CASES, GOLDEN, GROVER_BETA, PROMISES, check, write_files
from conftest import fresh_env, run_fresh
from hexwalk.cli import _BLOCK_ROWS, _write_table, main

_CASE = {case.name: case for case in PROMISES["cli_output_matches_golden"]}


def run_cli(argv: list[str] | tuple[str, ...]) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return out.getvalue(), err.getvalue(), code


@pytest.fixture
def case_directory(tmp_path, monkeypatch):
    # the working directory the console-script runner gives every row
    write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _runs_its_promise(test):
    """Parametrize ``test`` over the rows of the promise it is named after."""
    rows = PROMISES[test.__name__.removeprefix("test_")]
    return pytest.mark.parametrize("case", rows, ids=[case.name for case in rows])(test)


def _run(case, directory):
    assert check(case, *run_cli(case.argv), directory) == []


@_runs_its_promise
def test_cli_output_matches_golden(case_directory, case):
    _run(case, case_directory)


@_runs_its_promise
def test_invalid_command_lines_rejected(case_directory, case):
    _run(case, case_directory)


@_runs_its_promise
def test_badly_typed_config_values_rejected(case_directory, case):
    _run(case, case_directory)


@_runs_its_promise
def test_deeply_nested_config_rejected(case_directory, case):
    _run(case, case_directory)


@_runs_its_promise
def test_compare_window_error_names_largest_window(case_directory, case):
    _run(case, case_directory)


@_runs_its_promise
def test_angle_flag_beats_either_config_key(case_directory, case):
    _run(case, case_directory)


@_runs_its_promise
def test_unread_config_keys_ignored(case_directory, case):
    _run(case, case_directory)


@_runs_its_promise
def test_negative_values_parse_as_in_the_equals_form(case_directory, case):
    _run(case, case_directory)


def test_each_promise_runs_in_tier_1():
    # a promise with no test of its name would run only through the console script
    assert {f"test_{promise}" for promise in PROMISES} <= set(globals())
    for rows in PROMISES.values():
        assert len({case.name for case in rows}) == len(rows)


def test_each_golden_file_belongs_to_one_case():
    # the first row that reads a golden file writes it; complex_state.json is an input
    files = {path.name for path in GOLDEN.iterdir()} - {"complex_state.json"}
    assert files == {f"{case.golden}.stdout" for case in CASES if case.golden is not None}


def test_runner_refuses_to_run_without_the_console_script(tmp_path):
    # an empty PATH directory holds no hexwalk: the runner fails, it never skips
    env = {**os.environ, "PATH": str(tmp_path)}
    proc = subprocess.run([sys.executable, cli_cases.__file__], env=env,
                          capture_output=True, text=True)
    assert proc.returncode != 0
    assert proc.stderr == "error: no 'hexwalk' console script on PATH\n"


def test_each_wave_function_is_checked_once(monkeypatch):
    # t_max = 10: only the initial state is built from rows; the ten steps
    # derive their runs from it, and the distribution checks nothing again
    calls = []
    column_runs = hexwalk.evolution._column_runs

    def counted(xy):
        calls.append(len(xy))
        return column_runs(xy)

    monkeypatch.setattr(hexwalk.evolution, "_column_runs", counted)
    out, err, code = run_cli(["simulate", *GROVER_BETA, "--t-max", "10"])
    assert (err, code) == ("", 0)
    assert len(calls) == 1
    # a table built by hand is checked once too, however it is read or stepped
    calls.clear()
    wf = hexwalk.WaveFunction("A", [[0, 0], [0, 2], [1, 1]], np.eye(3), 0)
    stepped = hexwalk.step(wf, hexwalk.build_coin(hexwalk.CoinParams.grover()))
    assert len(stepped) == len(stepped.xy) == len(stepped.values) == 7
    assert calls == [3]


def test_small_resolved_angle_gives_finite_limit():
    # 2e-8 is past the band where cos(theta) rounds to 1, so it is admitted
    out, err, code = run_cli(["limit", "--theta", "2e-8", "--state", "0,1,0", "--format", "json"])
    assert (err, code) == ("", 0)
    report = json.loads(out)
    amplitude = np.ravel(report["origin_amplitude"])
    assert all(math.isfinite(v) for v in [report["A"], report["limit"], report["delta"], *amplitude])


def _numpy_out_of_memory(*args):
    np.empty(2**58, dtype=np.complex128)  # 4 EiB: numpy's MemoryError, nothing is allocated


def _bare_out_of_memory(*args):
    raise MemoryError


@pytest.mark.parametrize("raiser, detail", [
    (_numpy_out_of_memory, ": Unable to allocate 4.00 EiB"),
    (_bare_out_of_memory, "\n"),
], ids=["numpy", "bare"])
@pytest.mark.parametrize("name, argv", [
    ("evolve", ["simulate", *GROVER_BETA, "--t-max", "4"]),
    ("origin_amplitudes", ["compare", *GROVER_BETA, "--t-max", "4", "--window", "3"]),
], ids=["simulate", "compare"])
def test_out_of_memory_exits_1_with_one_line(monkeypatch, name, argv, raiser, detail):
    # a run too large for memory is bad input, never a traceback or a bare "error: "
    monkeypatch.setattr(hexwalk.cli, name, raiser)
    out, err, code = run_cli(argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: out of memory" + detail) and err.count("\n") == 1


def _golden_stdout(name):
    return (GOLDEN / f"{name}.stdout").read_bytes()


@pytest.mark.parametrize("existing", [True, False], ids=["existing-file", "new-file"])
def test_a_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, existing):
    # the writer fails after its first block: the target keeps its old bytes, or stays absent
    target = tmp_path / "table.csv"
    if existing:
        target.write_bytes(b"old\n")
    emit, calls = hexwalk.cli._emit, []

    def failing(text, fh):
        calls.append(len(text))
        if len(calls) == 2:
            raise MemoryError
        emit(text, fh)

    monkeypatch.setattr(hexwalk.cli, "_emit", failing)
    argv = ["simulate", *GROVER_BETA, "--t-max", "80", "--out", str(target)]  # two blocks of rows
    assert run_cli(argv) == ("", "error: out of memory\n", 1)
    assert len(calls) == 2
    assert [path.name for path in tmp_path.iterdir()] == (["table.csv"] if existing else [])
    if existing:
        assert target.read_bytes() == b"old\n"


def test_out_through_a_symlink_replaces_its_target(tmp_path):
    # the link stays a link, and its target gets the bytes and keeps its permissions
    target, link = tmp_path / "table.csv", tmp_path / "link.csv"
    target.write_bytes(b"old\n")
    target.chmod(0o640)
    link.symlink_to(target)
    assert run_cli([*_CASE["simulate_csv"].argv, "--out", str(link)]) == ("", "", 0)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == _golden_stdout("simulate_csv")
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert sorted(path.name for path in tmp_path.iterdir()) == ["link.csv", "table.csv"]


def test_out_writes_a_fifo_in_place(tmp_path):
    # a path that is no regular file is written as it is, never replaced
    fifo = tmp_path / "table.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    result = run_cli([*_CASE["simulate_csv"].argv, "--out", str(fifo)])
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert result == ("", "", 0)
    assert received == [_golden_stdout("simulate_csv")]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


def test_a_reader_that_closes_stdout_early_ends_the_output_quietly():
    # t_max 120 writes far more than a 64 kB pipe holds, so a write meets the closed pipe
    argv = [sys.executable, "-m", "hexwalk.cli", "simulate", *GROVER_BETA, "--t-max", "120"]
    with subprocess.Popen(argv, env=fresh_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"px,py,prob\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (0, b"")


def test_compare_window_may_span_every_even_time():
    # t_max 4 has the three even times 0, 2 and 4: window 3 averages them all
    out, err, code = run_cli(
        ["compare", *GROVER_BETA, "--t-max", "4", "--window", "3", "--format", "json"]
    )
    assert (err, code) == ("", 3)
    coin = hexwalk.build_coin(hexwalk.CoinParams.grover())
    series = hexwalk.return_series(hexwalk.CoinState(0, 1, 0), 4, coin)
    report = json.loads(out)
    assert report["window"] == 3
    assert report["p_origin_mean"] == pytest.approx(sum(p for _, p in series) / 3, abs=1e-15)


_COORDINATES = st.integers(-(2**59), 2**59)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 1e300])
# The columns the table writer takes: constants, as the sublattice tag and the
# limit are, and per-row cells, as the times, coordinates and probabilities are.
_CONSTANTS = {"tag": st.text(), "limit": _FLOATS}
_CELLS = {"t": _COORDINATES, "x": _COORDINATES, "px": _COORDINATES, "prob": _FLOATS}


def _column(kind, cells):
    """The writer's column of ``kind`` from ``cells``, and its value in each row (``None``
    for a constant)."""
    if kind in _CONSTANTS:
        return cells, None
    array = np.array(cells, dtype=np.float64 if kind == "prob" else np.int64)
    if kind in ("t", "prob"):
        return array, cells
    values, index = np.unique(array, return_inverse=True)  # as simulate builds coordinates
    if kind == "px":
        return (1.5 * values, index), [1.5 * c for c in cells]
    return (values, index), cells


@st.composite
def _tables(draw):
    kinds = [*draw(st.lists(st.sampled_from([*_CONSTANTS, *_CELLS]), max_size=4)), "prob"]
    n = draw(st.integers(0, 12))
    return kinds, [draw(_CONSTANTS[kind]) if kind in _CONSTANTS
                   else draw(st.lists(_CELLS[kind], min_size=n, max_size=n)) for kind in kinds]


_TWO_BLOCKS_AND_ONE = list(range(-_BLOCK_ROWS, _BLOCK_ROWS + 1))


@given(
    header=st.fixed_dictionaries({"command": st.text(), "theta": _FLOATS, "t": _COORDINATES}),
    table=_tables(),
)
@example(header={"command": "simulate", "theta": 1.0, "t": 0},
         table=(["tag", "x", "x", "prob"], ["A", [], [], []]))
@example(header={"command": "simulate", "theta": -0.0, "t": -7},
         table=(["tag", "limit", "t", "x", "px", "prob"],
                ["{B}", 5e-324, [2**59], [-(2**59)], [2**59 - 1], [-0.0]]))
@example(header={"command": "simulate", "theta": 1.0, "t": 1},
         table=(["tag", "x", "px", "prob"],
                ["B", _TWO_BLOCKS_AND_ONE, _TWO_BLOCKS_AND_ONE[::-1],
                 [i / 7 for i in _TWO_BLOCKS_AND_ONE[:-2]] + [1e300, 5e-324]]))
def test_table_writer_matches_the_reference_formats(header, table):
    # JSON as the indenting encoder writes it, CSV as one str.format line per row
    kinds, values = table
    columns, cells = zip(*(_column(kind, v) for kind, v in zip(kinds, values)))
    labels = [f"{kind}{i}" for i, kind in enumerate(kinds)]
    rows = [[v if c is None else c[r] for v, c in zip(values, cells)]
            for r in range(len(values[-1]))]
    expected_json = json.dumps({**header, "columns": labels, "rows": rows}, indent=2) + "\n"
    row_format = ",".join("{:.12e}" if kind in ("limit", "px", "prob") else "{}" for kind in kinds)
    expected_csv = "\n".join([",".join(labels), *(row_format.format(*r) for r in rows)]) + "\n"
    for fmt, expected in (("json", expected_json), ("csv", expected_csv)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            _write_table(SimpleNamespace(fmt=fmt, output_path=None), header,
                         dict(zip(labels, columns)))
        assert out.getvalue() == expected


@pytest.mark.parametrize("argv", [
    ["simulate", *GROVER_BETA, "--t-max", "10"],
    ["return-series", *GROVER_BETA, "--t-max", "10"],
    ["compare", *GROVER_BETA, "--t-max", "40", "--tolerance", "0.05"],
    list(_CASE["limit_default"].argv),
], ids=lambda argv: argv[0])
def test_no_subcommand_imports_scipy(argv):
    # The package never imports scipy (test_spectral pins that for the library
    # entry points); no subcommand may pull it in through an import either.
    code = (
        "import contextlib, io, sys\n"
        "from hexwalk.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr


if __name__ == "__main__":
    written = set()
    with tempfile.TemporaryDirectory() as work:
        write_files(Path(work))
        os.chdir(work)
        for case in CASES:
            if case.golden is None or case.golden in written or case.out is not None:
                continue
            written.add(case.golden)
            out, err, code = run_cli(case.argv)
            with open(GOLDEN / f"{case.golden}.stdout", "w", encoding="utf-8", newline="") as fh:
                fh.write(out)
            print(f"{case.golden}: exit {code}{'' if not err else ', stderr ' + repr(err)}")
