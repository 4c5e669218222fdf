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

Away from the origin the long-time amplitude combines differences

    G(x, y, x1, y1) = g(x, y) - g(x - x1, y - y1)

of a lattice Green-function-like integral g, which alone diverges
logarithmically.  For the even shifts that occur both sites share the
parity of |x| + |y|, so each is integrated against the anchor (0, 0) or
(1, 0) of that parity: the anchored integral h has an analytic integrand
on [0, pi], and G is a difference of two entries of a table of h.  The
table is evaluated on n and 2n Gauss-Legendre nodes, and G is returned only
when the two rules agree to 1e-10 relative or 1e-12 absolute.
"""

from __future__ import annotations

import functools
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

# Tolerances and node budget of the G-difference quadrature.  numpy builds a
# rule from a dense eigenproblem (0.75 s at 2048 nodes); the budget admits
# the starting rule, and its certificate, for sites up to |y| = 124.
_REL_TOL = 1e-10
_ABS_TOL = 1e-12
_MAX_NODES = 2048


class QuadratureError(RuntimeError):
    """Raised when the quadrature cannot certify the requested tolerance."""


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


@functools.lru_cache(maxsize=None)
def _rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on (0, pi), read-only as it is shared.

    It is carried over from u in (0, 1) by b = pi u - sin(2 pi u) / 2, which
    crowds the nodes towards the endpoints, where the integrand varies on a
    scale of |s| as theta nears pi.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    u = (x + 1.0) / 2.0
    nodes = math.pi * u - 0.5 * np.sin(2.0 * math.pi * u)
    weights = (math.pi / 2.0) * w * (1.0 - np.cos(2.0 * math.pi * u))
    for a in (nodes, weights):
        a.setflags(write=False)
    return nodes, weights


@functools.lru_cache(maxsize=16)
def _kernel(params: CoinParams, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes b, z(b) and weights w / (pi root(b)) of the n-point rule at one coin.

    Cached, so that the calls of one amplitude map share them.
    """
    c, s = params.c, params.s
    b, w = _rule(n)
    cb, sb = np.cos(b), np.sin(b)
    root = (1.0 - c) * sb * np.sqrt((3.0 + c) ** 2 - (1.0 - c) ** 2 * cb * cb)
    z = 2.0 * s * s * cb / (2.0 * s * s + (1.0 - c) ** 2 * sb * sb + root)
    out = (b, z, w / (math.pi * root))
    for a in out[1:]:
        a.setflags(write=False)
    return out


def _differences(terms: np.ndarray, params: CoinParams) -> np.ndarray:
    """G(x, y, x1, y1) for each row of the (m, 4) int array ``terms``; shifts even.

    A site's reduced integrand is cos(b |y|) z^{|x|} / (pi root), where

        root = (1-c) sin(b) sqrt((3+c)^2 - (1-c)^2 cos(b)^2),
        z = 2 s^2 cos(b) / (2 s^2 + (1-c)^2 sin(b)^2 + root)

    (z in the rationalized form that stays stable where cos(b) vanishes).
    Its 1/b endpoint poles cancel once the anchor's numerator, 1 for even
    |x| + |y| and z for odd, is subtracted before the division by pi root.
    One table of the distinct sites (|x|, |y|), found through one integer
    key |x| span + |y| per site, is evaluated on n and 2n nodes, n doubling
    from a start that grows with the largest |y| (as cos(b |y|) oscillates),
    until every difference agrees between the two rules; the finer values
    are returned.  z^{|x|} is formed by binary powering over the distinct
    sites, in O(sites x nodes) memory.  A certificate that needs a rule
    larger than ``_MAX_NODES`` raises :class:`QuadratureError`.
    """
    ends = np.abs(np.concatenate([terms[:, :2], terms[:, :2] - terms[:, 2:]]))
    span = int(ends[:, 1].max()) + 1
    keys, where = np.unique(ends[:, 0] * span + ends[:, 1], return_inverse=True)
    where = where.reshape(2, -1)
    ax, ay = np.divmod(keys, span)
    odd = ((ax + ay) % 2 == 1)[:, None]
    bits = (ax[:, None] >> np.arange(int(ax.max()).bit_length())) & 1 == 1
    n = 8 * (span - 1) + 32
    coarse = None
    while n <= _MAX_NODES:
        b, z, w = _kernel(params, n)
        zx, base = np.ones((keys.size, n)), z
        for j in range(bits.shape[1]):
            np.multiply(zx, base, out=zx, where=bits[:, j:j + 1])
            base = base * base
        num = np.cos(ay[:, None] * b) * zx - np.where(odd, z, 1.0)
        h = num @ w
        fine = h[where[0]] - h[where[1]]
        if coarse is not None and np.all(
            np.abs(fine - coarse) <= np.maximum(_ABS_TOL, _REL_TOL * np.abs(fine))
        ):
            return fine
        coarse, n = fine, 2 * n
    raise QuadratureError(f"G differences did not converge within {_MAX_NODES} nodes")


def g_difference(x: int, y: int, x1: int, y1: int, params: CoinParams) -> float:
    """The convergent Green-integral difference G(x, y, x1, y1).

    The anchored-table difference h(x, y) - h(x - x1, y - y1) (see the
    module docstring), certified by n against 2n Gauss-Legendre nodes to a
    relative tolerance of 1e-10 or an absolute tolerance of 1e-12.  The
    shift must satisfy ``(x1 + y1) % 2 == 0``: for odd shifts the endpoint
    poles have unequal residues and the integral itself diverges (no such
    shift arises in the amplitude formulas).  A zero shift gives exactly 0.0.
    Raises :class:`QuadratureError` if the two rules do not agree within the
    node budget.
    """
    x, y, x1, y1 = int(x), int(y), int(x1), int(y1)
    if (x1 + y1) % 2 != 0:
        raise ValueError(
            "g_difference requires an even shift (x1 + y1 even); "
            "odd shifts make the difference integral divergent"
        )
    if x1 == 0 and y1 == 0:
        return 0.0
    return float(_differences(np.array([[x, y, x1, y1]]), params)[0])


def asymptotic_amplitude(
    x: int, y: int, params: CoinParams, state: CoinState
) -> np.ndarray:
    """Long-time amplitude triple at the A-site (x, y).

    Combines nine Green-integral differences, certified as one table, with
    two linear forms of the initial state (an antisymmetric combination of the outer components
    and a mixed outer/middle combination).  At the origin this reproduces
    :func:`asymptotic_origin_amplitude` exactly; at other sites it is the
    flat-band projection that the walk settles onto, which simulations
    approach with a decaying oscillation.

    Quadrature failures propagate as :class:`QuadratureError`.
    """
    c, s = params.c, params.s
    al, be, ga = state.alpha, state.beta, state.gamma
    w_ag = -s * al + s * ga
    w_ab = s * al - (_SQRT2 / 2.0) * (1.0 - c) * be
    w_gb = s * ga - (_SQRT2 / 2.0) * (1.0 - c) * be
    g = _differences(np.array([
        (x, y, 1, -1), (x + 1, y - 1, 1, -1), (x, y + 2, -1, 1),
        (x - 1, y + 1, 0, 2), (x, y, 0, 2), (x, y, 0, -2),
        (x, y, 1, 1), (x + 1, y - 1, 1, 1), (x, y, -1, -1),
    ]), params).tolist()
    comp0 = -(s / 2.0) * (w_ag * g[0] + w_ab * g[1] + w_gb * g[2])
    comp1 = -(_SQRT2 / 4.0) * (1.0 - c) * (w_ag * g[3] + w_ab * g[4] + w_gb * g[5])
    comp2 = (s / 2.0) * (w_ag * g[6] + w_ab * g[7] + w_gb * g[8])
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
