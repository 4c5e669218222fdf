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
from dataclasses import dataclass

import numpy as np

from .coin import CoinMatrix, CoinParams, CoinState

__all__ = [
    "Momentum",
    "TwoStepOperator",
    "two_step_operator",
    "eigenphases_closed_form",
    "fourier_evolve",
    "inverse_transform_site",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Momentum:
    """Quasi-momentum pair, wrapped into the fundamental domain [-pi, pi)^2."""

    a: float
    b: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _wrap(float(self.a)))
        object.__setattr__(self, "b", _wrap(float(self.b)))


def _wrap(v: float) -> float:
    w = (v + math.pi) % _TWO_PI - math.pi
    return w


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


def _r_diag(a: float | np.ndarray, b: float | np.ndarray) -> np.ndarray:
    return np.stack([np.exp(-1j * b), np.exp(1j * a), np.exp(1j * b)], axis=-1)


def _apply_u2(
    psi: np.ndarray, r: np.ndarray, r_back: np.ndarray, coin: CoinMatrix
) -> np.ndarray:
    """Multiply the complex (3, n) columns ``psi`` by U2 = R(-a, -b) C R(a, b) C.

    ``r`` holds the phases of R(a, b) with one column per momentum (or one
    column shared by all), and ``r_back`` those of R(-a, -b).  The coin is
    real, so it mixes the (3, 2n) float64 view of the columns with one real
    matmul.  ``psi`` is overwritten and returned, so a loop of applications
    keeps only one scratch array alive beside it.
    """
    c = coin.entries
    mid = (c @ psi.view(np.float64)).view(np.complex128)
    mid *= r
    np.matmul(c, mid.view(np.float64), out=psi.view(np.float64))
    psi *= r_back
    return psi


def two_step_operator(m: Momentum, coin: CoinMatrix) -> TwoStepOperator:
    """Build U2(a, b) and its eigen-decomposition at one momentum point.

    The decomposition uses a complex Schur factorization: for a unitary
    (hence normal) matrix the Schur form is diagonal to machine precision
    and the Schur vectors are an exactly orthonormal eigenbasis, including
    at degenerate momenta.  The flat-band column is identified as the
    eigenvalue closest to 1 and its phase is reported as exactly 0; the
    remaining two phases are sorted ascending, which realizes the
    (nu2, 2*pi - nu2) labeling away from degeneracies.
    """
    import scipy.linalg  # imported on first use: most CLI runs never need scipy

    r = _r_diag(m.a, m.b)[:, None]
    matrix = _apply_u2(np.eye(3, dtype=complex), r, r.conj(), coin)
    tri, vecs = scipy.linalg.schur(matrix, output="complex")
    lam = np.diag(tri)
    flat = int(np.argmin(np.abs(lam - 1.0)))
    rest = [i for i in range(3) if i != flat]
    phases = np.mod(np.angle(lam[rest]), _TWO_PI)
    lo, hi = (0, 1) if phases[0] <= phases[1] else (1, 0)
    order = [flat, rest[lo], rest[hi]]
    eigenvectors = np.ascontiguousarray(vecs[:, order])
    return TwoStepOperator(
        matrix=matrix,
        eigenphases=(0.0, float(phases[lo]), float(phases[hi])),
        eigenvectors=eigenvectors,
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
    return (0.0, nu2, _TWO_PI - nu2)


def fourier_evolve(
    state: CoinState, t: int, m: Momentum, coin: CoinMatrix
) -> np.ndarray:
    """Momentum amplitude after ``t`` step pairs: U2(a, b)^t applied to the state.

    The power is taken through the eigenpairs of :func:`two_step_operator`
    with pure phase exponentiation, so the norm is preserved to machine
    precision for any ``t`` (including e.g. 10**6 pairs).
    """
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
    state: CoinState,
    t: int,
    x: int,
    y: int,
    grid_n: int,
    coin: CoinMatrix,
) -> np.ndarray:
    """Real-space amplitude at A(x, y) after ``t`` step pairs, via momentum.

    Approximates the inverse Fourier integral

        psi_{2t}(x, y) = (2*pi)^{-2} Int da db  e^{i(ax+by)} psi_hat_{2t}(a, b)

    by the plain average over a uniform grid_n x grid_n grid on
    [-pi, pi)^2.  The momentum amplitude is a trigonometric polynomial with
    |x|-bandwidth t and |y|-bandwidth 2t, so the grid sum is exact (up to
    round-off) whenever ``grid_n > 2t + |x| + |y|``; coarser grids alias.

    U2 is applied factor by factor to the (3, n) planes of the
    n = grid_n^2 momentum amplitudes, and no (n, 3, 3) stack is built.  At
    t = 30 on a 96 x 96 grid one call takes 5-9 ms on one core.  The grid
    sum is evaluated in a fixed order, so repeated calls are bit-identical.
    """
    if grid_n < 1:
        raise ValueError("grid_n must be at least 1")
    if t < 0:
        raise ValueError("step-pair count must be non-negative")
    grid = (np.arange(grid_n) - grid_n // 2) * (_TWO_PI / grid_n)
    aa, bb = np.meshgrid(grid, grid, indexing="ij")
    a = aa.ravel()
    b = bb.ravel()
    r = _r_diag(a, b).T
    r_back = r.conj()
    psi = np.repeat(state.as_array()[:, None], a.size, axis=1)
    for _ in range(t):
        _apply_u2(psi, r, r_back, coin)

    phase = np.exp(1j * (a * x + b * y))
    return (psi * phase).sum(axis=1) / a.size
