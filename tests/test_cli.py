"""Tests of the command-line interface: golden output and input validation.

Each golden case runs ``hexwalk.cli.main`` in-process and compares its stdout,
stderr and exit code with the files under ``tests/golden/``: the CLI
promises byte-identical output for identical configurations, so any
difference is a behaviour change.  After an intended change, regenerate
the files with ``PYTHONPATH=src python tests/test_cli.py`` and
review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hexwalk
from hexwalk.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# Complex [re, im] amplitudes and an odd t_max, so simulate writes B rows.
_COMPLEX = ["--config", str(GOLDEN / "complex_state.json")]
_GROVER_BETA = ["--preset", "grover", "--state", "0,1,0"]
_COMPARE = ["compare", *_GROVER_BETA, "--t-max", "80"]

# name -> (argv, expected exit code)
CASES: dict[str, tuple[list[str], int]] = {
    "simulate_csv": (["simulate", *_COMPLEX], 0),
    "simulate_csv_indices": (["simulate", *_COMPLEX, "--indices"], 0),
    "simulate_json": (["simulate", *_COMPLEX, "--format", "json"], 0),
    "simulate_json_indices": (["simulate", *_COMPLEX, "--format", "json", "--indices"], 0),
    "simulate_text_rejected": (["simulate", *_COMPLEX, "--format", "text"], 1),
    "return_series_csv": (
        ["return-series", "--theta", "1.1", "--state", "0.6,0,0.8", "--t-max", "40"], 0
    ),
    "return_series_json": (
        ["return-series", "--theta", "1.1", "--state", "0.6,0,0.8", "--t-max", "40",
         "--format", "json"], 0
    ),
    "limit_default": (["limit", *_GROVER_BETA], 0),
    "limit_text": (["limit", *_COMPLEX, "--format", "text"], 0),
    "limit_json": (["limit", *_COMPLEX, "--format", "json"], 0),
    "compare_pass_text": ([*_COMPARE, "--tolerance", "0.05"], 0),
    "compare_fail_text": ([*_COMPARE, "--tolerance", "1e-4", "--format", "text"], 3),
    "compare_pass_json": ([*_COMPARE, "--tolerance", "0.05", "--format", "json"], 0),
    "compare_fail_json": ([*_COMPARE, "--tolerance", "1e-4", "--format", "json"], 3),
    "compare_csv_rejected": ([*_COMPARE, "--format", "csv"], 1),
}


def run_cli(argv: list[str]) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return out.getvalue(), err.getvalue(), code


def _read(path: Path) -> str:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    argv, expected_code = CASES[name]
    out, err, code = run_cli(argv)
    assert code == expected_code
    assert err == _read(GOLDEN / f"{name}.stderr")
    assert out == _read(GOLDEN / f"{name}.stdout")


_BASE_CONFIG = {"theta": 1.0, "alpha": 0.0, "beta": 1.0, "gamma": 0.0, "t_max": 4}


@pytest.mark.parametrize("argv", [
    ["limit", "--theta", "nan", "--state", "0,1,0", "--format", "json"],
    ["limit", "--theta", "inf", "--state", "0,1,0", "--format", "json"],
    ["simulate", "--theta", "1.0", "--state", "nan,0,0", "--t-max", "2"],
    ["limit", "--theta", "1", "--state", "1e200,0,0"],
    ["compare", *_GROVER_BETA, "--t-max", "4", "--window", "3", "--tolerance", "nan"],
    ["simulate", *_GROVER_BETA, "--t-max", "abc"],
    ["simulate", *_GROVER_BETA, "--format", "xml"],
    ["bogus", *_GROVER_BETA],
    ["limit", *_GROVER_BETA, "--t-max", "5"],
    ["limit", *_GROVER_BETA, "--indices"],
    ["return-series", *_GROVER_BETA, "--window", "3"],
    ["compare", *_GROVER_BETA, "--t-max", "4", "--window", "4"],
    ["limit", "--theta", "1", *_GROVER_BETA],
], ids=["theta-nan", "theta-inf", "state-nan", "state-overflow", "tolerance-nan",
        "t_max-not-an-int", "format-unknown", "command-unknown",
        "limit-t_max", "limit-indices", "return-series-window", "window-past-t_max",
        "theta-and-preset"])
def test_invalid_command_lines_rejected(argv):
    out, err, code = run_cli(argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, override", [
    ("compare", {"tolerance": "0.1", "window": 3}),
    ("simulate", {"theta": [1.0]}),
    ("simulate", {"t_max": float("inf")}),
    ("simulate", {"t_max": True}),
    ("simulate", {"indices": "no"}),
    ("simulate", {"alpha": [float("nan"), 0.0]}),
    ("simulate", {"alpha": [1e200, 0.0]}),
    ("simulate", {"alpha": [1.5e308, 1.5e308]}),
    ("simulate", {"alpha": True, "beta": 0.0}),
    ("simulate", {"output_path": 1}),
    ("compare", {"window": 4}),
    ("simulate", {"preset": "grover"}),
], ids=["tolerance-string", "theta-list", "t_max-infinity", "t_max-bool",
        "indices-string", "alpha-nan", "alpha-overflow", "alpha-overflow-complex",
        "alpha-bool", "output_path-int", "window-past-t_max", "theta-and-preset"])
def test_badly_typed_config_values_rejected(tmp_path, command, override):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**_BASE_CONFIG, **override}), encoding="utf-8")
    out, err, code = run_cli([command, "--config", str(config)])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, config", [
    ([*_GROVER_BETA, "--t-max", "4", "--window", "4"], None),
    ([], {**_BASE_CONFIG, "window": 4}),
], ids=["flag", "config"])
def test_compare_window_error_names_largest_window(tmp_path, argv, config):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = ["--config", str(path)]
    out, err, code = run_cli(["compare", *argv])
    assert (code, out) == (1, "")
    assert err.startswith("error: window must be at most 3,") and err.count("\n") == 1


def test_compare_window_may_span_every_even_time():
    # t_max 4 has the three even times 0, 2 and 4: window 3 averages them all
    out, err, code = run_cli(
        ["compare", *_GROVER_BETA, "--t-max", "4", "--window", "3", "--format", "json"]
    )
    assert (err, code) == ("", 3)
    coin = hexwalk.build_coin(hexwalk.CoinParams.grover())
    series = hexwalk.return_series(hexwalk.CoinState(0, 1, 0), 4, coin)
    report = json.loads(out)
    assert report["window"] == 3
    assert report["p_origin_mean"] == pytest.approx(sum(p for _, p in series) / 3, abs=1e-15)


@pytest.mark.parametrize("flags, config_key, theta", [
    (["--theta", "1.0"], {"preset": "grover"}, 1.0),
    (["--preset", "grover"], {"theta": 1.0}, hexwalk.GROVER_THETA),
], ids=["theta-flag-over-config-preset", "preset-flag-over-config-theta"])
def test_angle_flag_beats_either_config_key(tmp_path, flags, config_key, theta):
    # --theta and --preset are one setting: a flag hides both config keys
    config = tmp_path / "config.json"
    state = {"alpha": [0, 0], "beta": [1, 0], "gamma": [0, 0]}
    config.write_text(json.dumps({**config_key, **state}), encoding="utf-8")
    out, err, code = run_cli(["limit", "--config", str(config), *flags, "--format", "json"])
    assert (err, code) == ("", 0)
    assert json.loads(out)["theta"] == theta


def test_unread_config_keys_ignored(tmp_path):
    # config files are shared between commands: limit reads neither key
    plain, shared = tmp_path / "plain.json", tmp_path / "shared.json"
    plain.write_text(json.dumps(_BASE_CONFIG), encoding="utf-8")
    shared.write_text(json.dumps({**_BASE_CONFIG, "t_max": -1, "window": 0}), encoding="utf-8")
    expected = run_cli(["limit", "--config", str(plain)])
    assert expected[2] == 0
    assert run_cli(["limit", "--config", str(shared)]) == expected


def test_runs_without_quadrature_do_not_import_scipy():
    # A fresh interpreter, since this test process may already hold scipy.
    code = (
        "import contextlib, io, sys\n"
        "from hexwalk.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['limit', '--preset', 'grover', '--state', '0,1,0']) == 0\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    src = str(Path(hexwalk.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


if __name__ == "__main__":
    for name, (argv, _) in sorted(CASES.items()):
        out, err, code = run_cli(argv)
        for suffix, text in (("stdout", out), ("stderr", err)):
            with open(GOLDEN / f"{name}.{suffix}", "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        print(f"{name}: exit {code}")
