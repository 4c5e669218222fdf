"""The benchmark's workloads: seeded inputs, operations and output checks.

Three workloads stress different layers of ``hexwalk``:

* ``snapshot`` steps the whole walk to one time and writes the full site
  distribution, once as CSV in physical coordinates and once as JSON with
  integer indices.  Stepping dominates; formatting and the large write are
  the next largest share, so a stepper, engine or formatting change shows
  here.
* ``series`` runs ``return-series`` and ``compare`` to the same time.  They
  step the same walk but read only the origin at even times and write a
  few kilobytes: a stepper change shows here, a formatting change or a
  snapshot-only engine should not.
* ``analysis`` evaluates the closed-form laws and the momentum-space
  routines, with no stepping beyond one small-time cross-check: a
  quadrature or momentum-power change shows only here.

Every input is drawn from the seed: coin angles at least 0.3 from 0 and
pi, and complex unit initial states.  CLI operations receive them as a JSON
config file (with ``[re, im]`` pairs); library operations as arguments.
Each operation is checked after it ran, outside its timed region, and the
checks never call ``hexwalk`` so a traced round sees only the operations.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import hexwalk.cli
import hexwalk.coin
import hexwalk.evolution
import hexwalk.lattice
import hexwalk.limits
import hexwalk.spectral

WORKLOADS = ("snapshot", "series", "analysis")

_PROB_SUM_TOL = 1e-10
_SERIES_TOL = 1e-12
_SQRT3_HALF = math.sqrt(3.0) / 2.0
_THETA_MARGIN = 0.3  # least distance of a drawn coin angle from 0 and pi


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one round."""

    t_walk: int  # steps of the snapshot and series walks (even)
    window: int  # even-step window of compare
    walks: int  # seeded walks of analysis, each with a limit call and a map
    box: int  # an amplitude map covers the A-sites with |x|, |y| <= box
    pairs: int  # step pairs of the inverse-transform cross-check
    grid_n: int  # its momentum grid side, exact when > 2 * pairs + |x| + |y|
    momenta: int  # side of the momentum grid of the spectral check
    fourier_pairs: int  # step pairs raised by fourier_evolve


FULL = Sizes(t_walk=250, window=10, walks=12, box=4, pairs=30, grid_n=96,
             momenta=24, fourier_pairs=5)
SMOKE = Sizes(t_walk=8, window=3, walks=2, box=2, pairs=3, grid_n=16,
              momenta=4, fourier_pairs=3)

# A-sites (x + y even) probed by the inverse-transform cross-check.
_PROBE_SITES = ((0, 0), (2, 0), (1, 1), (-1, 3), (0, -4), (3, -1))


@dataclass(frozen=True)
class Walk:
    """One seeded coin angle and initial state."""

    theta: float
    state: tuple[complex, complex, complex]

    def params(self) -> hexwalk.coin.CoinParams:
        return hexwalk.coin.CoinParams(self.theta)

    def coin_state(self) -> hexwalk.coin.CoinState:
        return hexwalk.coin.CoinState(*self.state)

    def write_config(self, path: Path, **extra: Any) -> str:
        config = {"theta": self.theta, **extra}
        for name, z in zip(("alpha", "beta", "gamma"), self.state):
            config[name] = [z.real, z.imag]
        path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        return str(path)


def draw_theta(u: float) -> float:
    """Map u in [0, 1) onto the angles at least 0.3 from 0 and pi, in order."""
    half = math.pi - 2.0 * _THETA_MARGIN
    pos = u * 2.0 * half
    return _THETA_MARGIN + pos if pos < half else math.pi + _THETA_MARGIN + pos - half


def draw_walks(rng: random.Random, k: int) -> list[Walk]:
    """``k`` walks, one angle from each of ``k`` equal strata of the range.

    The cost of the Green-integral quadrature grows several-fold towards
    theta = pi, so a round covers the whole range rather than one angle:
    otherwise the seed alone would set the workload's cost.
    """
    walks = []
    for i in range(k):
        theta = draw_theta((i + rng.random()) / k)
        z = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(3)]
        norm = math.sqrt(sum(abs(v) ** 2 for v in z))
        walks.append(Walk(theta, tuple(v / norm for v in z)))
    return walks


@dataclass(frozen=True)
class Op:
    """One operation: ``run`` is timed, ``check`` lists problems in its result."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


def build(workload: str, seed: int, sizes: Sizes, work_dir: Path) -> tuple[list[Op], str]:
    """The operations of one round, and the config file set-up resolves."""
    rng = random.Random(seed)
    work_dir.mkdir(parents=True, exist_ok=True)
    if workload == "snapshot":
        return _snapshot(draw_walks(rng, 1)[0], sizes, work_dir)
    if workload == "series":
        return _series(draw_walks(rng, 1)[0], sizes, work_dir)
    if workload == "analysis":
        return _analysis(draw_walks(rng, sizes.walks), sizes, work_dir)
    raise ValueError(f"unknown workload {workload!r}")


def _cli(argv: list[str]) -> Callable[[], int]:
    return lambda: hexwalk.cli.main(argv)


def _exit_ok(rc: int) -> list[str]:
    return [] if rc == 0 else [f"exit code {rc}"]


def _fmt(v: float) -> str:
    return f"{v:.12e}"


# -- snapshot ----------------------------------------------------------------


def _snapshot(walk: Walk, sizes: Sizes, work_dir: Path) -> tuple[list[Op], str]:
    config = walk.write_config(work_dir / "snapshot.json", t_max=sizes.t_walk)
    csv_path = work_dir / "simulate.csv"
    json_path = work_dir / "simulate.json"
    ops = [
        Op("simulate_csv",
           _cli(["simulate", "--config", config, "--out", str(csv_path)]),
           lambda rc: _exit_ok(rc) or check_simulate_csv(csv_path)),
        Op("simulate_json",
           _cli(["simulate", "--config", config, "--format", "json", "--indices",
                 "--out", str(json_path)]),
           lambda rc: _exit_ok(rc) or check_simulate_json(json_path, csv_path)),
    ]
    return ops, config


def _check_probs(probs: np.ndarray) -> list[str]:
    if not np.all(np.isfinite(probs)):
        return ["non-finite probability"]
    problems = []
    if np.any(probs < 0.0):
        problems.append("negative probability")
    total = float(np.sum(probs))
    if abs(total - 1.0) > _PROB_SUM_TOL:
        problems.append(f"probabilities sum to {total!r}")
    return problems


def _read_csv(path: Path, header: str) -> tuple[list[list[str]], list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        return [], [f"{path.name}: header is not {header!r}"]
    return [line.split(",") for line in lines[1:]], []


def check_simulate_csv(path: Path) -> list[str]:
    rows, problems = _read_csv(path, "px,py,prob")
    if problems:
        return problems
    problems = _check_probs(np.array([float(r[2]) for r in rows]))
    if len({(r[0], r[1]) for r in rows}) != len(rows):
        problems.append("duplicate CSV rows")
    return problems


def check_simulate_json(json_path: Path, csv_path: Path) -> list[str]:
    payload = json.loads(json_path.read_text(encoding="utf-8"))
    if payload.get("columns") != ["sub", "x", "y", "prob"]:
        return [f"JSON columns {payload.get('columns')!r}"]
    rows = payload["rows"]
    problems = _check_probs(np.array([float(r[3]) for r in rows]))
    if len({(r[0], r[1], r[2]) for r in rows}) != len(rows):
        problems.append("duplicate JSON rows")
    csv_rows, csv_problems = _read_csv(csv_path, "px,py,prob")
    if csv_problems or len(csv_rows) != len(rows):
        return problems + ["CSV and JSON row counts differ"]
    for (sub, x, y, p), (px, py, cp) in zip(rows, csv_rows):
        want_px = 1.5 * x + (0.5 if sub == "B" else 0.0)
        if (_fmt(want_px), _fmt(_SQRT3_HALF * y), _fmt(p)) != (px, py, cp):
            problems.append(f"CSV row {px},{py},{cp} differs from JSON row {sub},{x},{y},{p!r}")
            break
    return problems


# -- series ------------------------------------------------------------------


def _series(walk: Walk, sizes: Sizes, work_dir: Path) -> tuple[list[Op], str]:
    config = walk.write_config(work_dir / "series.json", t_max=sizes.t_walk,
                               window=sizes.window)
    series_path = work_dir / "return_series.csv"
    compare_path = work_dir / "compare.json"
    ops = [
        Op("return_series",
           _cli(["return-series", "--config", config, "--out", str(series_path)]),
           lambda rc: _exit_ok(rc) or check_series(series_path, sizes.t_walk)),
        Op("compare",
           _cli(["compare", "--config", config, "--format", "json",
                 "--out", str(compare_path)]),
           lambda rc: check_compare(rc, compare_path, series_path, sizes.window)),
    ]
    return ops, config


def check_series(path: Path, t_max: int) -> list[str]:
    rows, problems = _read_csv(path, "t,p_origin,limit")
    if problems:
        return problems
    if [int(r[0]) for r in rows] != list(range(0, t_max + 1, 2)):
        problems.append("return-series times are not 0, 2, ..., t_max")
    p = np.array([float(r[1]) for r in rows])
    if not np.all(np.isfinite(p)) or np.any(p < 0.0) or np.any(p > 1.0 + _SERIES_TOL):
        problems.append("origin probability outside [0, 1]")
    if len({r[2] for r in rows}) != 1:
        problems.append("limit column is not constant")
    return problems


def check_compare(rc: int, path: Path, series_path: Path, window: int) -> list[str]:
    payload = json.loads(path.read_text(encoding="utf-8"))
    tol = payload["tolerance"]
    passed = payload["p_abs_error"] <= tol and max(payload["amplitude_abs_error"]) <= tol
    status = "PASS" if passed else "FAIL"
    problems = []
    if payload["status"] != status:
        problems.append(f"status {payload['status']} but errors give {status}")
    if rc != (0 if payload["status"] == "PASS" else 3):
        problems.append(f"exit code {rc} with status {payload['status']}")
    rows, csv_problems = _read_csv(series_path, "t,p_origin,limit")
    if csv_problems or len(rows) < window:
        return problems + ["return-series output unusable"]
    tail = rows[-window:]
    p_mean = sum(float(r[1]) for r in tail) / window
    if abs(p_mean - payload["p_origin_mean"]) > _SERIES_TOL:
        problems.append(f"p_origin_mean {payload['p_origin_mean']!r} vs series {p_mean!r}")
    if abs(float(tail[-1][2]) - payload["limit"]) > _SERIES_TOL:
        problems.append(f"limit {payload['limit']!r} vs series {tail[-1][2]}")
    return problems


# -- analysis ----------------------------------------------------------------


def _analysis(walks: list[Walk], sizes: Sizes, work_dir: Path) -> tuple[list[Op], str]:
    ops = []
    configs = []
    for k, walk in enumerate(walks):
        config = walk.write_config(work_dir / f"limit{k}.json")
        out = work_dir / f"limit{k}.out.json"
        configs.append(config)
        ops.append(Op("limit",
                      _cli(["limit", "--config", config, "--format", "json",
                            "--out", str(out)]),
                      lambda rc, out=out: _exit_ok(rc) or check_limit(out)))
        ops.append(Op("amplitude_map", lambda walk=walk: amplitude_map(walk, sizes.box),
                      check_map))
    walk = walks[0]
    ops.append(Op("inverse_transform",
                  lambda: inverse_transform(walk, sizes.pairs, sizes.grid_n),
                  check_inverse))
    ops.append(Op("spectral_grid",
                  lambda: spectral_grid(walk, sizes.momenta, sizes.fourier_pairs),
                  check_spectral))
    return ops, configs[0]


def check_limit(path: Path) -> list[str]:
    payload = json.loads(path.read_text(encoding="utf-8"))
    amp_sq = sum(re * re + im * im for re, im in payload["origin_amplitude"])
    problems = []
    if not all(math.isfinite(payload[k]) for k in ("A", "limit", "delta")):
        problems.append("non-finite limit report")
    if abs(payload["limit"] - amp_sq) > 1e-12:
        problems.append(f"limit {payload['limit']!r} vs |origin amplitude|^2 {amp_sq!r}")
    if payload["delta"] < payload["limit"] - 1e-12:
        problems.append(f"delta {payload['delta']!r} below limit {payload['limit']!r}")
    return problems


def amplitude_map(walk: Walk, box: int) -> tuple[dict, float, np.ndarray]:
    params, state = walk.params(), walk.coin_state()
    amps = {
        (x, y): hexwalk.limits.asymptotic_amplitude(x, y, params, state)
        for x in range(-box, box + 1)
        for y in range(-box, box + 1)
        if (x + y) % 2 == 0
    }
    delta = hexwalk.limits.delta_weight(params, state)
    origin = hexwalk.limits.asymptotic_origin_amplitude(params, state).as_array()
    return amps, delta, origin


def check_map(result: tuple[dict, float, np.ndarray]) -> list[str]:
    amps, delta, origin = result
    values = np.array(list(amps.values()))
    if not np.all(np.isfinite(values)):
        return ["non-finite asymptotic amplitude"]
    problems = []
    total = float(np.sum(np.abs(values) ** 2))
    if total > delta + 1e-6:
        problems.append(f"map weight {total!r} exceeds delta_weight {delta!r}")
    err = float(np.max(np.abs(amps[(0, 0)] - origin)))
    if err > 1e-8:
        problems.append(f"map origin differs from the closed form by {err:.3e}")
    return problems


def inverse_transform(walk: Walk, pairs: int, grid_n: int) -> tuple[np.ndarray, np.ndarray]:
    state = walk.coin_state()
    coin = hexwalk.coin.build_coin(walk.params())
    wf = hexwalk.evolution.evolve(state, 2 * pairs, coin)
    stepped = [wf.amplitude(hexwalk.lattice.Site.a(x, y)) for x, y in _PROBE_SITES]
    spectral = [
        hexwalk.spectral.inverse_transform_site(state, pairs, x, y, grid_n, coin)
        for x, y in _PROBE_SITES
    ]
    return np.array(stepped), np.array(spectral)


def check_inverse(result: tuple[np.ndarray, np.ndarray]) -> list[str]:
    stepped, spectral = result
    err = float(np.max(np.abs(stepped - spectral)))
    return [] if err <= 1e-12 else [f"inverse transform differs from evolve by {err:.3e}"]


def spectral_grid(walk: Walk, n: int, fourier_pairs: int) -> list[tuple]:
    params, state = walk.params(), walk.coin_state()
    coin = hexwalk.coin.build_coin(params)
    grid = [-math.pi + 2.0 * math.pi * i / n for i in range(n)]
    out = []
    for a in grid:
        for b in grid:
            m = hexwalk.spectral.Momentum(a, b)
            out.append((
                hexwalk.spectral.two_step_operator(m, coin),
                hexwalk.spectral.eigenphases_closed_form(m, params),
                hexwalk.spectral.fourier_evolve(state, fourier_pairs, m, coin),
                fourier_pairs,
                state.as_array(),
            ))
    return out


def check_spectral(result: list[tuple]) -> list[str]:
    worst_phase = worst_flat = worst_power = 0.0
    for op, closed, evolved, pairs, v in result:
        # Phases are compared on the unit circle, where 0 and 2*pi agree.
        worst_phase = max(worst_phase, float(np.max(np.abs(
            np.exp(1j * np.array(op.eigenphases)) - np.exp(1j * np.array(closed))))))
        flat = op.eigenvectors[:, 0]
        worst_flat = max(worst_flat, float(np.max(np.abs(op.matrix @ flat - flat))))
        power = np.linalg.matrix_power(op.matrix, pairs) @ v
        worst_power = max(worst_power, float(np.max(np.abs(evolved - power))))
    problems = []
    if worst_phase > 1e-9:
        problems.append(f"closed-form eigenphases differ from Schur by {worst_phase:.3e}")
    if worst_flat > 1e-9:
        problems.append(f"flat-band eigenvector residual {worst_flat:.3e}")
    if worst_power > 1e-10:
        problems.append(f"fourier_evolve differs from the matrix power by {worst_power:.3e}")
    return problems
