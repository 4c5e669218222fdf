"""Coin degree of freedom: mixing angle, the 3x3 coin matrix, initial states.

The internal state of the walker is a qutrit whose basis directions select
the three lattice moves.  The one-parameter coin family is a real symmetric
orthogonal 3x3 matrix built from ``c = cos(theta)`` and ``s = sin(theta)``,
and the coin is that matrix itself, a read-only float64 array.  At
``c = -1/3`` it reduces to the standard three-dimensional Grover diffusion
matrix.  The angles ``theta = 0`` and ``theta = pi`` are rejected: there
the coin degenerates and the walk is trivial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CoinParams",
    "CoinState",
    "GROVER_THETA",
    "build_coin",
]

_TWO_PI = 2.0 * math.pi
_DEGENERATE_TOL = 1e-12

#: Angle at which the coin family reduces to the Grover diffusion matrix.
GROVER_THETA = math.acos(-1.0 / 3.0)


@dataclass(frozen=True)
class CoinParams:
    """Coin mixing angle with its cosine and sine fixed at construction.

    ``c`` and ``s`` are derived from ``theta`` once and stored (not
    recomputed by consumers) so that every module works from bit-identical
    values.  At ``GROVER_THETA`` they are the exact c = -1/3 and
    s = 2*sqrt(2)/3, not the rounded cosine and sine.  The angle must be
    finite and is reduced into [0, 2*pi); values within 1e-12 of 0 or pi
    are rejected.
    """

    theta: float
    c: float = field(init=False)
    s: float = field(init=False)

    def __post_init__(self) -> None:
        theta = float(self.theta)
        if not math.isfinite(theta):
            raise ValueError(f"theta must be finite, got {self.theta!r}")
        theta %= _TWO_PI
        if min(theta, abs(theta - math.pi), _TWO_PI - theta) < _DEGENERATE_TOL:
            raise ValueError(
                f"theta={self.theta!r} is degenerate: angles 0 and pi are not admitted"
            )
        if theta == GROVER_THETA:
            c, s = -1.0 / 3.0, 2.0 * math.sqrt(2.0) / 3.0
        else:
            c, s = math.cos(theta), math.sin(theta)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "s", s)

    @classmethod
    def grover(cls) -> "CoinParams":
        """Parameters of the Grover coin: c = -1/3, s = 2*sqrt(2)/3."""
        return cls(GROVER_THETA)


@dataclass(frozen=True)
class CoinState:
    """Qutrit amplitude triple (alpha, beta, gamma): finite, unit norm within 1e-12."""

    alpha: complex
    beta: complex
    gamma: complex

    def __post_init__(self) -> None:
        alpha = complex(self.alpha)
        beta = complex(self.beta)
        gamma = complex(self.gamma)
        norm = _norm(alpha, beta, gamma)
        norm_sq = norm * norm  # inf for a huge norm, where ** would raise OverflowError
        if not math.isfinite(norm_sq) or abs(norm_sq - 1.0) > 1e-12:
            raise ValueError(
                f"coin state must be finite and normalized, |state|^2 = {norm_sq!r}"
            )
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)

    @classmethod
    def normalized(cls, alpha: complex, beta: complex, gamma: complex) -> "CoinState":
        """Build a state from an arbitrary non-zero triple, rescaling to unit norm.

        A triple whose largest finite part lies outside [2**-500, 2**500] is first
        scaled by a power of two, which is exact, so that its squares stay finite and
        non-zero.  Other triples keep the plain arithmetic, which sets the printed state.
        """
        parts = [v for z in (alpha, beta, gamma) for v in (z.real, z.imag)]
        big = max((abs(v) for v in parts if math.isfinite(v)), default=0.0)
        if big and not 2.0**-500 <= big <= 2.0**500:
            k = -math.frexp(big)[1]
            alpha, beta, gamma = (complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))
                                  for z in (alpha, beta, gamma))
        norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2 + abs(gamma) ** 2)
        if norm == 0.0:
            raise ValueError("cannot normalize the zero state")
        return cls(alpha / norm, beta / norm, gamma / norm)

    @classmethod
    def uniform(cls) -> "CoinState":
        """The balanced state (1, 1, 1)/sqrt(3)."""
        r = 1.0 / math.sqrt(3.0)
        return cls(r, r, r)

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.gamma], dtype=np.complex128)


def _norm(alpha: complex, beta: complex, gamma: complex) -> float:
    """|(alpha, beta, gamma)| as the hypot of the six real parts: inf, never an OverflowError."""
    return math.hypot(*(v for z in (alpha, beta, gamma) for v in (z.real, z.imag)))


def build_coin(params: CoinParams) -> np.ndarray:
    """The coin matrix for the given mixing angle, a read-only 3x3 float64 array.

    The matrix is

        [[-(1+c)/2,  s/sqrt(2),  (1-c)/2],
         [ s/sqrt(2), c,          s/sqrt(2)],
         [ (1-c)/2,   s/sqrt(2), -(1+c)/2]]

    which is symmetric and orthogonal for every admitted angle, and equals
    the Grover diffusion matrix (all off-diagonal 2/3, diagonal -1/3) at
    c = -1/3.
    """
    c, s = params.c, params.s
    h = s / math.sqrt(2.0)
    coin = np.array(
        [
            [-(1.0 + c) / 2.0, h, (1.0 - c) / 2.0],
            [h, c, h],
            [(1.0 - c) / 2.0, h, -(1.0 + c) / 2.0],
        ]
    )
    coin.setflags(write=False)
    return coin
