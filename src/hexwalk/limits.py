"""Closed-form long-time laws of the walk and the lattice integrals behind them.

Everything here is governed by the constant

    A(theta) = arcsin((1 - c) / (3 + c)),    c = cos(theta),

which lies in (0, pi/2) for every admitted angle.  The long-time amplitude
at the origin approaches a fixed linear image of the initial coin state
(:func:`asymptotic_origin_amplitude`); its squared norm is the long-time
limit of the return probability (:func:`limit_return_probability`).  The
limit vanishes exactly for the one-parameter family of initial states
recognized by :func:`delocalization_condition`.  On the time-rescaled
lattice the walk keeps a point mass at the origin whose weight
:func:`delta_weight` is the total localized probability.

Away from the origin the long-time amplitude is a combination of
differences of a lattice Green-function-like integral g(x, y).  Each g
alone diverges logarithmically (its reduced one-dimensional integrand
blows up like 1/b at the endpoints), but only differences

    G(x, y, x1, y1) = g(x, y) - g(x - x1, y - y1)

ever appear, and for shifts with x1 + y1 even the difference integrand
extends continuously to the closed interval.  :func:`g_difference`
therefore integrates the pointwise difference and never forms the two
divergent halves separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coin import CoinParams, CoinState

__all__ = [
    "QuadratureError",
    "AsymptoticOriginAmplitude",
    "a_theta",
    "limit_return_probability",
    "asymptotic_origin_amplitude",
    "g_difference",
    "asymptotic_amplitude",
    "delocalization_condition",
    "delta_weight",
]

_SQRT2 = math.sqrt(2.0)

# Tolerances and subdivision budget of the g-difference quadrature.  The
# smooth difference integrands need far fewer than 200 subdivisions; any
# budget from the hundreds up to 2**15 gives the same values.
_REL_TOL = 1e-10
_ABS_TOL = 1e-12
_MAX_SUBDIVISIONS = 200


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature cannot reach the requested tolerance."""


@dataclass(frozen=True)
class AsymptoticOriginAmplitude:
    """Long-time limit of the amplitude triple at the origin."""

    psi0: complex
    psi1: complex
    psi2: complex

    def as_array(self) -> np.ndarray:
        return np.array([self.psi0, self.psi1, self.psi2], dtype=np.complex128)

    def norm_squared(self) -> float:
        return float(abs(self.psi0) ** 2 + abs(self.psi1) ** 2 + abs(self.psi2) ** 2)


def a_theta(params: CoinParams) -> float:
    """The localization angle A(theta) = arcsin((1 - c) / (3 + c)).

    The argument (1 - c) / (3 + c) lies strictly between 0 and 1 for all
    admitted angles, so the result lies in (0, pi/2).
    """
    return math.asin((1.0 - params.c) / (3.0 + params.c))


def _origin_coefficients(params: CoinParams) -> tuple[float, float, float, float]:
    """The four reusable coefficients of the origin limit formulas."""
    c, s = params.c, params.s
    big_a = a_theta(params)
    k_diag = 0.5 - big_a / math.pi
    k_beta = _SQRT2 * s * big_a / (math.pi * (1.0 - c))
    k_cross = (3.0 + c) * big_a / (math.pi * (1.0 - c)) - 0.5
    k_mid = _SQRT2 * big_a / (math.pi * (1.0 - c))
    return k_diag, k_beta, k_cross, k_mid


def limit_return_probability(params: CoinParams, state: CoinState) -> float:
    """Long-time limit of the probability of observing the walker at the origin.

    The squared norm of :func:`asymptotic_origin_amplitude`; it lies in
    [0, 1].  It is zero exactly for the delocalizing initial states (see
    :func:`delocalization_condition`) and equals 1/6 for the Grover coin
    started in the pure middle coin state.
    """
    return asymptotic_origin_amplitude(params, state).norm_squared()


def asymptotic_origin_amplitude(
    params: CoinParams, state: CoinState
) -> AsymptoticOriginAmplitude:
    """Long-time limit of the amplitude triple at the origin.

    A fixed real 3x3 matrix (symmetric under exchanging the outer coin
    components) applied to the initial state: the flat-band projection of
    the initial condition, which the dispersive bands never carry away.
    """
    al, be, ga = state.alpha, state.beta, state.gamma
    c, s = params.c, params.s
    k_diag, k_beta, k_cross, k_mid = _origin_coefficients(params)
    return AsymptoticOriginAmplitude(
        psi0=k_diag * al - k_beta * be + k_cross * ga,
        psi1=k_mid * (_SQRT2 * (1.0 - c) * be - s * al - s * ga),
        psi2=k_cross * al - k_beta * be + k_diag * ga,
    )


def _difference_integrand(
    b: float, x: int, y: int, xs: int, ys: int, c: float, s: float
) -> float:
    """Integrand of g(x, y) - g(xs, ys) on (0, pi), extended to the endpoints.

    For one site the reduced integrand is

        cos(b |y|) z(b)^{|x|} / (pi (1-c) sin(b) sqrt((3+c)^2 - (1-c)^2 cos(b)^2))

    where z(b) is the interior root of the angular integral,

        z = 2 s^2 cos(b) / (A0 + root),   A0 = 2 s^2 + (1-c)^2 sin(b)^2,

    written in the rationalized form that stays stable where cos(b)
    vanishes.  Each site's integrand alone has 1/b endpoint poles; in the
    difference the poles cancel whenever |x| + |y| and |xs| + |ys| have
    equal parity, and the finite endpoint limits are
    +-(|xs| - |x|) / (2 pi s^2).
    """
    sb = math.sin(b)
    if sb < 1e-14:
        sign = 1.0 if b < 1.0 else (-1.0) ** (abs(x) + abs(y))
        return sign * (abs(xs) - abs(x)) / (2.0 * math.pi * s * s)
    cb = math.cos(b)
    a0 = 2.0 * s * s + (1.0 - c) ** 2 * sb * sb
    root = (1.0 - c) * sb * math.sqrt((3.0 + c) ** 2 - (1.0 - c) ** 2 * cb * cb)
    z = 2.0 * s * s * cb / (a0 + root)
    num = math.cos(b * abs(y)) * z ** abs(x) - math.cos(b * abs(ys)) * z ** abs(xs)
    return num / (math.pi * root)


def g_difference(x: int, y: int, x1: int, y1: int, params: CoinParams) -> float:
    """The convergent Green-integral difference G(x, y, x1, y1).

    Adaptive quadrature of the pointwise difference of the two reduced
    integrands over b in (0, pi), converged to a relative tolerance of
    1e-10 and an absolute tolerance of 1e-12.
    The shift must satisfy ``(x1 + y1) % 2 == 0``: for odd shifts the two
    endpoint poles have unequal residues and the difference integral
    itself diverges (no such shift ever arises in the amplitude formulas).

    Raises
    ------
    QuadratureError
        If the adaptive scheme cannot certify the requested tolerance
        within the subdivision budget.  Failure is always explicit; no
        silently inaccurate value is returned.
    """
    x, y, x1, y1 = int(x), int(y), int(x1), int(y1)
    if (x1 + y1) % 2 != 0:
        raise ValueError(
            "g_difference requires an even shift (x1 + y1 even); "
            "odd shifts make the difference integral divergent"
        )
    if x1 == 0 and y1 == 0:
        return 0.0
    from scipy import integrate  # imported on first use: most CLI runs never need scipy

    out = integrate.quad(
        _difference_integrand,
        0.0,
        math.pi,
        args=(x, y, x - x1, y - y1, params.c, params.s),
        epsabs=_ABS_TOL,
        epsrel=_REL_TOL,
        limit=_MAX_SUBDIVISIONS,
        full_output=1,
    )
    if len(out) > 3:
        raise QuadratureError(
            f"g_difference({x}, {y}, {x1}, {y1}) did not converge: {out[3].strip()}"
        )
    return float(out[0])


def _w_antisym(z1: complex, z2: complex, s: float) -> complex:
    return -s * z1 + s * z2


def _w_mixed(z1: complex, z2: complex, c: float, s: float) -> complex:
    return s * z1 - (_SQRT2 / 2.0) * (1.0 - c) * z2


def asymptotic_amplitude(
    x: int, y: int, params: CoinParams, state: CoinState
) -> np.ndarray:
    """Long-time amplitude triple at the A-site (x, y).

    Combines nine Green-integral differences with two linear forms of the
    initial state (an antisymmetric combination of the outer components
    and a mixed outer/middle combination).  At the origin this reproduces
    :func:`asymptotic_origin_amplitude` exactly; at other sites it is the
    flat-band projection that the walk settles onto, which simulations
    approach with a decaying oscillation.

    Quadrature failures propagate as :class:`QuadratureError`.
    """
    c, s = params.c, params.s
    al, be, ga = state.alpha, state.beta, state.gamma
    w_ag = _w_antisym(al, ga, s)
    w_ab = _w_mixed(al, be, c, s)
    w_gb = _w_mixed(ga, be, c, s)

    def g_diff(gx: int, gy: int, sx: int, sy: int) -> float:
        return g_difference(gx, gy, sx, sy, params)

    comp0 = -(s / 2.0) * (
        w_ag * g_diff(x, y, 1, -1)
        + w_ab * g_diff(x + 1, y - 1, 1, -1)
        + w_gb * g_diff(x, y + 2, -1, 1)
    )
    comp1 = -(_SQRT2 / 4.0) * (1.0 - c) * (
        w_ag * g_diff(x - 1, y + 1, 0, 2)
        + w_ab * g_diff(x, y, 0, 2)
        + w_gb * g_diff(x, y, 0, -2)
    )
    comp2 = (s / 2.0) * (
        w_ag * g_diff(x, y, 1, 1)
        + w_ab * g_diff(x + 1, y - 1, 1, 1)
        + w_gb * g_diff(x, y, -1, -1)
    )
    return np.array([comp0, comp1, comp2], dtype=np.complex128)


def delocalization_condition(params: CoinParams, state: CoinState) -> bool:
    """Whether the initial state kills the point mass at the origin.

    True exactly when |alpha| = sqrt(1 - c)/2, beta = sqrt(2)(1 + c)/s * alpha
    and gamma = alpha, all within 1e-10.  The beta relation is the signed
    complex identity (for angles with s < 0 the formula applies as
    written).  For the Grover coin this family contains the balanced state
    (1, 1, 1)/sqrt(3).
    """
    c, s = params.c, params.s
    al, be, ga = state.alpha, state.beta, state.gamma
    tol = 1e-10
    return (
        abs(abs(al) - math.sqrt(1.0 - c) / 2.0) <= tol
        and abs(be - (_SQRT2 * (1.0 + c) / s) * al) <= tol
        and abs(ga - al) <= tol
    )


def delta_weight(params: CoinParams, state: CoinState) -> float:
    """Weight of the point mass at the origin of the time-rescaled walk.

    The walk's position divided by time converges in distribution to a
    mixture of a Dirac mass at the origin and an absolutely continuous
    part; this returns the Dirac weight

        (1/2 - A/pi)(|alpha|^2 + |gamma|^2) + (2A/pi)|beta|^2
        - (2 sqrt(2) s A / (pi (1-c))) Re{(alpha + gamma) conj(beta)}
        + (2 (3+c) A / (pi (1-c)) - 1) Re{alpha conj(gamma)},

    the total localized probability.  It vanishes exactly on the
    delocalizing family and dominates the origin-site limit for every
    state.
    """
    al, be, ga = state.alpha, state.beta, state.gamma
    k_diag, k_beta, k_cross, _ = _origin_coefficients(params)
    # 2*A/pi stays as written: 1 - 2*k_diag rounds differently.
    value = (
        k_diag * (abs(al) ** 2 + abs(ga) ** 2)
        + (2.0 * a_theta(params) / math.pi) * abs(be) ** 2
        - (2.0 * k_beta) * ((al + ga) * be.conjugate()).real
        + (2.0 * k_cross) * (al * ga.conjugate()).real
    )
    return float(value)
