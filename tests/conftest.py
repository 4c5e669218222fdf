import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hexwalk
from hexwalk import CoinParams, CoinState, Site, build_coin


def random_theta(rng: np.random.Generator, margin: float = 0.05) -> float:
    """A coin angle sampled uniformly, bounded away from the degenerate angles."""
    while True:
        theta = rng.uniform(0.0, 2.0 * math.pi)
        if min(theta, abs(theta - math.pi), 2.0 * math.pi - theta) > margin:
            return theta


def rows(table) -> dict:
    """``{Site: row}`` for every row of a WaveFunction, or of the Distribution laid on one."""
    return {Site(table.sublattice, x, y): v for (x, y), v in zip(table.xy.tolist(), table.values)}


def random_state(rng: np.random.Generator) -> CoinState:
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    v /= np.linalg.norm(v)
    return CoinState(v[0], v[1], v[2])


def fresh_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports the package under test."""
    src = str(Path(hexwalk.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports the package under test.

    A fresh process, since this one may already hold modules (scipy, say)
    that the code must not import.
    """
    return subprocess.run([sys.executable, "-c", code], env=fresh_env(), capture_output=True,
                          text=True)


@pytest.fixture(scope="session")
def grover_params():
    return CoinParams.grover()


@pytest.fixture(scope="session")
def grover_coin(grover_params):
    return build_coin(grover_params)

