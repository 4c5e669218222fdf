"""Momentum-space analysis of the walk.

A walk started at the origin is diagonal in quasi-momentum: writing the
A-sublattice amplitudes as a Fourier series over (a, b) in [-pi, pi)^2,
one pair of steps multiplies the momentum amplitude by the 3x3 unitary

    U2(a, b) = R(-a, -b) @ C @ R(a, b) @ C,

where R is the diagonal phase matrix ``diag(e^{-ib}, e^{ia}, e^{ib})`` and
C the coin.  U2 has a flat band: one eigenvalue equals 1 for every
momentum, and the other two are the conjugate pair ``exp(+-i nu2)`` with

    cos(nu2) = c^2 - (1-c)^2 sin(b)^2 / 2 + s^2 cos(a) cos(b).

The flat band is what produces localization at the origin; the dispersive
pair carries the spreading part of the walk.

Inverting the Fourier series on a uniform grid is exact once the grid
resolves the walk's bandwidth (the amplitude support is finite), which
makes :func:`inverse_transform_site` an independent oracle for the
real-space evolution.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .coin import CoinParams, CoinState

__all__ = [
    "Momentum",
    "TwoStepOperator",
    "two_step_operator",
    "eigenphases_closed_form",
    "fourier_evolve",
    "inverse_transform_site",
]


@dataclass(frozen=True)
class Momentum:
    """Quasi-momentum pair, wrapped into the fundamental domain [-pi, pi)^2."""

    a: float
    b: float

    def __post_init__(self) -> None:
        for name in ("a", "b"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, (v + math.pi) % math.tau - math.pi)


@dataclass(frozen=True)
class TwoStepOperator:
    """The two-step momentum operator with its spectral decomposition.

    ``eigenphases`` is ordered (nu1, nu2, nu3) with nu1 = 0 (the flat
    band, stored exactly; the matching eigenvector residual is the honest
    check), nu2 in (0, pi] and nu3 = 2*pi - nu2 away from degeneracies.
    ``eigenvectors`` holds one orthonormal column per phase; at band-edge
    degeneracies the columns still form an orthonormal basis of the
    degenerate subspace, but individual vectors are not unique there.
    """

    matrix: np.ndarray
    eigenphases: tuple[float, float, float]
    eigenvectors: np.ndarray


def _power(
    psi: np.ndarray, t: int, a: float | np.ndarray, b: float | np.ndarray, coin: np.ndarray
) -> np.ndarray:
    """Multiply the complex (3, n) columns ``psi`` by U2(a, b) ``t`` times.

    R(a, b) is built once, as (3, 1) planes for one momentum or (3, n) planes
    for one momentum per column, and R(-a, -b) is their conjugate.  The real
    coin mixes the (3, 2n) float64 view of the columns.  ``psi`` is
    overwritten and returned, so the loop keeps one scratch array beside it.
    """
    r = np.exp(1j * np.reshape([-b, a, b], (3, -1)))
    r_back = r.conj()
    out = psi.view(np.float64)
    for _ in range(t):
        mid = (coin @ out).view(np.complex128)
        mid *= r
        np.matmul(coin, mid.view(np.float64), out=out)
        psi *= r_back
    return psi


def two_step_operator(m: Momentum, coin: np.ndarray) -> TwoStepOperator:
    """Build U2(a, b) and its eigen-decomposition at one momentum point.

    The decomposition uses a complex Schur factorization: for a unitary
    (hence normal) matrix the Schur form is diagonal to machine precision
    and the Schur vectors are an exactly orthonormal eigenbasis, including
    at degenerate momenta.  The flat-band column is identified as the
    eigenvalue closest to 1 and its phase is reported as exactly 0; the
    other two follow in one stable sort on phase, which realizes the
    (nu2, 2*pi - nu2) labeling away from degeneracies.
    """
    import scipy.linalg  # imported on first use: most CLI runs never need scipy

    matrix = _power(np.eye(3, dtype=complex), 1, m.a, m.b, coin)
    tri, vecs = scipy.linalg.schur(matrix, output="complex")
    lam = np.diag(tri)
    phases = np.mod(np.angle(lam), math.tau)
    flat = int(np.argmin(np.abs(lam - 1.0)))
    order = [flat, *sorted((i for i in range(3) if i != flat), key=lambda i: phases[i])]
    return TwoStepOperator(
        matrix=matrix,
        eigenphases=(0.0, float(phases[order[1]]), float(phases[order[2]])),
        eigenvectors=np.ascontiguousarray(vecs[:, order]),
    )


def eigenphases_closed_form(
    m: Momentum, params: CoinParams
) -> tuple[float, float, float]:
    """Eigenphases of U2(a, b) from the dispersion relation.

    Returns (0, nu2, 2*pi - nu2) where nu2 = arccos(X) and

        X = c^2 - (1-c)^2 sin(b)^2 / 2 + s^2 cos(a) cos(b).

    Evaluated as nu2 = 2 atan2(sqrt(1 - X), sqrt(1 + X)) from the sums

        1 - X = s^2 (1 - cos a cos b) + (1-c)^2 sin(b)^2 / 2,
        1 + X = ((1-c) cos b - (1+c))^2 / 2 + 2 s^2 cos b cos(a/2)^2,

    the versine 1 - cos a cos b expanded in half-angle sines.  Neither
    cancels where it vanishes, so nu2 stays accurate at the band edge X -> 1
    and at the band bottom X -> -1 (for c <= 0 on a = pi, cos b =
    (1+c)/(1-c)), where an arccos of the rounded X would lose half the
    digits.  Both roots are clamped at 0, so rounding never gives a NaN.
    """
    c, s = params.c, params.s
    sa2 = math.sin(m.a / 2.0) ** 2
    ca2 = math.cos(m.a / 2.0) ** 2
    sb2 = math.sin(m.b / 2.0) ** 2
    cb = math.cos(m.b)
    versine = 2.0 * sa2 + 2.0 * sb2 - 4.0 * sa2 * sb2  # = 1 - cos(a) cos(b)
    one_minus_x = s * s * versine + 0.5 * (1.0 - c) ** 2 * math.sin(m.b) ** 2
    one_plus_x = 0.5 * ((1.0 - c) * cb - (1.0 + c)) ** 2 + 2.0 * s * s * cb * ca2
    nu2 = 2.0 * math.atan2(
        math.sqrt(max(one_minus_x, 0.0)), math.sqrt(max(one_plus_x, 0.0))
    )
    return (0.0, nu2, math.tau - nu2)


def fourier_evolve(
    state: CoinState, t: int, m: Momentum, coin: np.ndarray
) -> np.ndarray:
    """Momentum amplitude after ``t`` step pairs: U2(a, b)^t applied to the state.

    The power is taken through the eigenpairs of :func:`two_step_operator`
    with pure phase exponentiation, so the norm is preserved to machine
    precision for any ``t`` (including e.g. 10**6 pairs).
    """
    t = operator.index(t)
    if t < 0:
        raise ValueError("step-pair count must be non-negative")
    v = state.as_array()
    if t == 0:
        return v
    op = two_step_operator(m, coin)
    vecs = op.eigenvectors
    coeff = vecs.conj().T @ v
    return vecs @ (np.exp(1j * np.array(op.eigenphases) * t) * coeff)


def inverse_transform_site(
    state: CoinState, t: int, x: int, y: int, grid_n: int, coin: np.ndarray
) -> np.ndarray:
    """Real-space amplitude at A(x, y) after ``t`` step pairs, via momentum.

    Approximates the inverse Fourier integral

        psi_{2t}(x, y) = (2*pi)^{-2} Int da db  e^{i(ax+by)} psi_hat_{2t}(a, b)

    by the plain average over a uniform grid_n x grid_n grid on
    [-pi, pi)^2.  The momentum amplitude is a trigonometric polynomial with
    |x|-bandwidth t and |y|-bandwidth 2t, so the grid sum is exact (up to
    round-off) whenever ``grid_n > 2t + |x| + |y|``; coarser grids alias.

    :func:`_power` raises U2 on the (3, grid_n^2) momentum planes; at t = 30
    on a 96 x 96 grid one call takes 5-9 ms on one core.  The grid sum runs
    in a fixed order, so repeated calls are bit-identical.
    """
    grid_n = operator.index(grid_n)
    if grid_n < 1:
        raise ValueError("grid_n must be at least 1")
    if t < 0:
        raise ValueError("step-pair count must be non-negative")
    grid = (np.arange(grid_n) - grid_n // 2) * (math.tau / grid_n)
    a, b = (g.ravel() for g in np.meshgrid(grid, grid, indexing="ij"))
    psi = _power(np.repeat(state.as_array()[:, None], a.size, axis=1), t, a, b, coin)
    phase = np.exp(1j * (a * x + b * y))
    return (psi * phase).sum(axis=1) / a.size
