import math

import numpy as np
import pytest

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


@pytest.fixture(scope="session")
def grover_params():
    return CoinParams.grover()


@pytest.fixture(scope="session")
def grover_coin(grover_params):
    return build_coin(grover_params)

