"""Tests of the benchmark itself, on the seconds-long smoke sizes.

Run with ``python -m pytest bench/tests`` from the root of the tree.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import hexwalk.cli  # noqa: E402
import hexwalk.evolution  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_cli(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run_cli(
        ["--workload", workload, "--seed", "5", "--seconds", "0",
         "--trace", str(trace), "--smoke"],
        ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_corrupted_probability_is_counted_as_failed(monkeypatch, tmp_path):
    ops, _ = workloads.build("snapshot", 1, workloads.SMOKE, tmp_path)
    clean = harness.run_rounds(ops, 0, trace=False)
    assert (clean["attempted"], clean["failed"]) == (4, 0)

    real = hexwalk.cli.distribution
    calls = []

    def corrupt_first(wf):
        dist = real(wf)
        calls.append(1)
        if len(calls) > 1:
            return dist
        values = dist.values.copy()
        values[0] += 1e-6
        return type(dist)(dist.sublattice, dist.xy, values, dist.t)

    monkeypatch.setattr(hexwalk.cli, "distribution", corrupt_first)
    run = harness.run_rounds(ops, 0, trace=False, setup=lambda: 1.0, setup_repeats=1)
    # The corrupted CSV fails its sum check, and the JSON of the same round
    # then disagrees with it; the second round is clean.
    assert (run["attempted"], run["failed"]) == (4, 2)
    assert harness.end_to_end(run)["ok_frac"] == 0.5
    assert any("sum" in note for note in run["failures"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_runs_count_the_same_operations(workload, tmp_path):
    sizes = workloads.SMOKE
    ops, _ = workloads.build(workload, 2, sizes, tmp_path)
    plain = harness.run_rounds(ops, 0, trace=False)
    traced = harness.run_rounds(ops, 0, trace=True)
    assert plain["failed"] == traced["failed"] == 0
    assert plain["attempted"] == traced["attempted"]
    per_kind = [{k: len(v) for k, v in r["ops"].items()} for r in plain["rounds"]]
    assert per_kind == [{k: len(v) for k, v in r["ops"].items()} for r in traced["rounds"]]

    record = traced["rounds"][1]
    assert record["traced"]
    roots = [s for s in record["spans"] if s["name"].startswith("op.")]
    assert len(roots) == len(ops)
    steps = {"snapshot": 2 * sizes.t_walk, "series": 2 * sizes.t_walk,
             "analysis": 2 * sizes.pairs}[workload]
    assert record["layers"]["evolution.step.calls"] == steps


def test_tracer_restores_the_package():
    originals = (hexwalk.evolution.step, hexwalk.cli.cmd_simulate, json.dumps)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert hexwalk.evolution.step is not originals[0]
        assert hexwalk.cli._COMMANDS["simulate"] is not originals[1]
    finally:
        tracer.uninstall()
    assert (hexwalk.evolution.step, hexwalk.cli.cmd_simulate, json.dumps) == originals
    assert hexwalk.cli._COMMANDS["simulate"] is originals[1]
    assert hexwalk.cli.step is originals[0]


def test_exits_without_result_when_the_sources_are_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_cli(["--workload", "snapshot", "--seed", "1", "--seconds", "1"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
