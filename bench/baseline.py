"""Reproduce the ROADMAP baseline cases and the layer shares of each workload.

Run from the root of the tree::

    python3 bench/baseline.py            # baseline cases, then layer shares
    python3 bench/baseline.py --t1000    # also evolve to T=1000 (minutes)

Prints Markdown tables; ``BASELINE.md`` holds a copy with its machine.
Each case runs once, so the times are single samples, not medians.  The
layer shares come from 40 seconds of alternating untraced and traced
rounds of each workload at seed 1.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import run


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def baseline_cases(work_dir: Path, t1000: bool) -> list[tuple[str, float, str]]:
    import hexwalk
    import hexwalk.cli
    import workloads

    rows = []
    config = str(work_dir / "grover.json")
    Path(config).write_text(
        '{"preset": "grover", "alpha": 0, "beta": 1, "gamma": 0}\n', encoding="utf-8"
    )
    for fmt in ("csv", "json"):
        out = work_dir / f"simulate300.{fmt}"
        argv = ["simulate", "--config", config, "--t-max", "300", "--format", fmt,
                "--out", str(out)]
        dt, rc = _timed(lambda: hexwalk.cli.main(argv))
        size = out.stat().st_size / 1e6
        rows.append((f"CLI `simulate` T=300 {fmt.upper()}", dt, f"exit {rc}, {size:.1f} MB"))

    coin = hexwalk.build_coin(hexwalk.CoinParams.grover())
    state = hexwalk.CoinState(0, 1, 0)
    for t in (250, 500) + ((1000,) if t1000 else ()):
        dt, wf = _timed(lambda: hexwalk.evolve(state, t, coin))
        drift = abs(wf.norm_squared() - 1.0)
        rows.append((f"`evolve` T={t}", dt, f"{len(wf)} sites, norm drift {drift:.1e}"))

    params = hexwalk.CoinParams.grover()
    walk = workloads.Walk(params.theta, (0j, 1 + 0j, 0j))
    dt, (amps, delta, _) = _timed(lambda: workloads.amplitude_map(walk, 7))
    weight = sum(float((abs(a) ** 2).sum()) for a in amps.values())
    rows.append((f"`asymptotic_amplitude` map, {len(amps)} sites, box half-width 7", dt,
                 f"{1e3 * dt / len(amps):.2f} ms/site, weight {weight:.5f} of delta {delta:.5f}"))

    dt, _ = _timed(lambda: hexwalk.inverse_transform_site(state, 200, 0, 0, 512, coin))
    rows.append(("`inverse_transform_site` t=200 pairs, 512^2 grid, one site", dt, ""))
    return rows


def layer_shares(workload: str, seed: int, seconds: float, work_dir: Path) -> dict[str, float]:
    import harness
    import workloads

    ops, _ = workloads.build(workload, seed, workloads.FULL, work_dir / workload)
    return harness.per_layer(harness.run_rounds(ops, seconds, trace=True))


_SHARE_ROWS = (
    ("evolution.step", "evolution.step.s"),
    ("evolution.distribution", "evolution.distribution.s"),
    ("evolution.amplitude", "evolution.amplitude.s"),
    ("lattice.to_physical", "lattice.to_physical.s"),
    ("cli.resolve", "cli.resolve.s"),
    ("cli format (self time of cmd_*)", "cli.format.self_s"),
    ("cli json.dumps", "cli.json_dumps.s"),
    ("cli _emit", "cli.emit.s"),
    ("limits closed forms", "limits.closed_form.s"),
    ("limits.asymptotic_amplitude", "limits.asymptotic_amplitude.s"),
    ("  of which g_difference", "limits.g_difference.s"),
    ("spectral.inverse_transform_site", "spectral.inverse_transform_site.s"),
    ("spectral.two_step_operator", "spectral.two_step_operator.s"),
    ("spectral.eigenphases_closed_form", "spectral.eigenphases_closed_form.s"),
    ("spectral.fourier_evolve", "spectral.fourier_evolve.s"),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--t1000", action="store_true", help="also evolve to T=1000")
    args = parser.parse_args()
    if not run.prepare():
        return 2
    import workloads

    work_dir = run.ROOT / ".bench_out" / "baseline"
    work_dir.mkdir(parents=True, exist_ok=True)
    print("| case | time (s) | note |\n|---|---|---|")
    for name, dt, note in baseline_cases(work_dir, args.t1000):
        print(f"| {name} | {dt:.2f} | {note} |", flush=True)
    for workload in workloads.WORKLOADS:
        m = layer_shares(workload, seed=1, seconds=40.0, work_dir=work_dir)
        wall = m["trace.round_s"]
        print(f"\n`{workload}`: traced round {wall:.3f} s, "
              f"tracing overhead {100 * m['trace.overhead_frac']:+.1f}%\n")
        print("| layer | s per round | share |\n|---|---|---|")
        for label, key in _SHARE_ROWS:
            if m[key] > 0:
                print(f"| {label} | {m[key]:.4f} | {100 * m[key] / wall:.1f}% |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
