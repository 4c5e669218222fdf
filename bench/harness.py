"""Rounds, metrics and the results file of the benchmark.

A run is a closed loop with one client: it repeats the workload's round,
the same fixed list of operations called one after another, until the
requested seconds are used up (at least two rounds).  Each operation is
timed alone and checked after its timer stops.

End-to-end metrics, from untraced rounds:

* ``wall_s``: summed operation times of the fastest round.  The host's
  speed switches between regimes about 1.6x apart that last seconds; the
  median or mean of a run depends on how long it spent in each, while the
  fastest round measures the program in the fast regime, which most runs
  reach.  On the same ten runs of each workload, the run-to-run spread
  (IQR/median) of the fastest round was 0.05-0.13, against 0.12-0.22 for
  the mean and up to 0.40 for the median.  The results file also keeps
  the mean, the median and the number of rounds;
* ``setup_s``: median wall time of seven fresh interpreters, spread over
  the run, that import ``hexwalk.cli``, resolve the workload's config and
  report its limit, which every CLI user pays on every run;
* ``peak_rss_mb``: peak resident memory of the run;
* ``ok_frac``: share of operations that exited as expected and passed
  their output checks (the complement of the failed share, reported this
  way so that the metric is never zero);
* ``ops_per_s``: passed operations per second in the fastest round.

With tracing on, odd rounds run traced and even rounds untraced, so one
run gives both the per-layer numbers and the tracing overhead.  Per-layer
numbers are those of the fastest traced round, and ``trace.overhead_frac``
compares it with the fastest untraced round.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable

import numpy as np
import scipy

import hexwalk
import tracing
import workloads

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "ops_per_s": "1/s",
}
SETUP_REPEATS = 7
_MAX_FAILURE_NOTES = 20

_SETUP_CODE = (
    "import sys\n"
    "from hexwalk.cli import main\n"
    "sys.exit(main(['limit', '--config', sys.argv[1], '--format', 'json',"
    " '--out', sys.argv[2]]))\n"
)


def setup_probe(config: str, work_dir: Path, src: Path) -> Callable[[], float]:
    """A timer of fresh interpreters running the smallest CLI call.

    The probe is called once here, unmeasured, which compiles the package's
    bytecode: a cost paid once per checkout rather than on every run.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    out = work_dir / "setup.out.json"

    def probe() -> float:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, config, str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up call exited {proc.returncode}: {proc.stderr.strip()}")
        if "limit" not in json.loads(out.read_text(encoding="utf-8")):
            raise RuntimeError("set-up call wrote no limit report")
        return dt

    probe()
    return probe


def run_rounds(
    ops: list[workloads.Op], seconds: float, trace: bool,
    setup: Callable[[], float] | None = None, setup_repeats: int = 0,
) -> dict[str, Any]:
    """Repeat the round ``ops`` for ``seconds``; return per-round records.

    Between rounds, ``setup`` is timed ``setup_repeats`` times, spaced
    evenly over the run: a burst of samples would all fall in one of the
    host's speed regimes.  Set-up time does not count towards ``seconds``.
    """
    tracer = tracing.Tracer() if trace else None
    rounds: list[dict[str, Any]] = []
    durations: list[float] = []
    setup_samples: list[float] = []
    failures: list[str] = []
    attempted = failed = op_id = 0
    busy = 0.0
    while True:
        while (
            setup is not None
            and len(setup_samples) < setup_repeats
            and busy >= len(setup_samples) * seconds / setup_repeats
        ):
            setup_samples.append(setup())
        round_start = time.perf_counter()
        traced = tracer is not None and len(rounds) % 2 == 1
        results = []
        if traced:
            tracer.reset()
            tracer.install()
        try:
            for op in ops:
                error = result = None
                t0 = time.perf_counter()
                try:
                    if traced:
                        with tracer.operation(op_id, op.kind):
                            result = op.run()
                    else:
                        result = op.run()
                except Exception:
                    error = traceback.format_exc(limit=3).strip().splitlines()[-1]
                results.append((op, time.perf_counter() - t0, result, error))
                op_id += 1
        finally:
            if traced:
                tracer.uninstall()
        record: dict[str, Any] = {"traced": traced, "wall_s": 0.0, "ok": 0, "ops": {}}
        for op, dt, result, error in results:
            problems = [error] if error else op.check(result)
            attempted += 1
            record["wall_s"] += dt
            record["ops"].setdefault(op.kind, []).append(dt)
            if not problems:
                record["ok"] += 1
                continue
            failed += 1
            if len(failures) < _MAX_FAILURE_NOTES:
                failures.append(f"round {len(rounds)} {op.kind}: {'; '.join(problems)}")
        if traced:
            record["layers"] = tracer.layer_metrics()
            record["spans"] = [s.to_json() for s in tracer.spans]
        rounds.append(record)
        durations.append(time.perf_counter() - round_start)
        busy += durations[-1]
        # Stop before a round that would overrun; trace runs end on an
        # untraced/traced pair.
        if (
            len(rounds) >= 2
            and (tracer is None or len(rounds) % 2 == 0)
            and busy + statistics.median(durations) > seconds
        ):
            break
    while setup is not None and len(setup_samples) < setup_repeats:
        setup_samples.append(setup())
    return {
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "setup_samples_s": setup_samples,
    }


def _fastest(rounds: list[dict[str, Any]]) -> dict[str, Any]:
    return min(rounds, key=lambda r: r["wall_s"])


def end_to_end(run: dict[str, Any]) -> dict[str, float]:
    best = _fastest([r for r in run["rounds"] if not r["traced"]])
    return {
        "wall_s": best["wall_s"],
        "setup_s": statistics.median(run["setup_samples_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - run["failed"] / run["attempted"],
        "ops_per_s": best["ok"] / best["wall_s"],
    }


def per_layer(run: dict[str, Any]) -> dict[str, float]:
    best = _fastest([r for r in run["rounds"] if r["traced"]])
    untraced = _fastest([r for r in run["rounds"] if not r["traced"]])
    return {
        **best["layers"],
        "trace.round_s": best["wall_s"],
        "trace.overhead_frac": best["wall_s"] / untraced["wall_s"] - 1.0,
    }


def round_stats(run: dict[str, Any]) -> dict[str, float]:
    """Spread of the untraced round times, for the results file."""
    walls = [r["wall_s"] for r in run["rounds"] if not r["traced"]]
    return {
        "rounds": len(walls),
        "min_s": min(walls),
        "median_s": statistics.median(walls),
        "mean_s": statistics.fmean(walls),
        "max_s": max(walls),
    }


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path, seed: int) -> dict[str, Any]:
    """The record of what ran where, stored in every results file."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _git_commit(root),
        "src_sha256": _src_digest(root / "src"),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "hexwalk": hexwalk.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def main(args: Any, root: Path) -> int:
    src = root / "src"
    if not Path(hexwalk.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: hexwalk imported from {hexwalk.__file__}, not {src}", file=sys.stderr)
        return 2
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    out_dir = root / ".bench_out"
    work_dir = out_dir / name
    try:
        ops, config = workloads.build(args.workload, args.seed, sizes, work_dir)
        probe = setup_probe(config, work_dir, src)
        repeats = 1 if args.smoke else SETUP_REPEATS
        run = run_rounds(ops, args.seconds, bool(args.trace), probe, repeats)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    e2e = end_to_end(run)
    if args.trace:
        metrics = per_layer(run)
        units = tracing.LAYER_METRICS
    else:
        metrics, units = e2e, END_TO_END
    results = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "sizes": dataclasses.asdict(sizes),
        "environment": environment(root, args.seed),
        "end_to_end": e2e,
        "round_stats": round_stats(run),
        **run,
    }
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{name}.json").write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    line = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(line))
    return 0
