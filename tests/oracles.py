"""Independent reference implementations used to cross-check the package.

Nothing here shares code with the library's computational paths.  The
stepper is a plain dict scatter through :func:`shift_target`, which reads
only the library's hop table ``hexwalk.lattice.HOPS``; graph distances come
from BFS; the Green-integral oracles are a regularized two-dimensional
Riemann sum and adaptive quadrature (scipy's ``quad`` and mpmath's
tanh-sinh) of the pointwise difference of two reduced integrands (the
library integrates each site against an anchor on Gauss-Legendre nodes
instead); and the two-step momentum operator is one einsum of its
definition, whose flat band is a null vector found by cross products, with
no eigensolver.
"""

from __future__ import annotations

import math
from collections import deque

import mpmath
import numpy as np
from scipy import integrate

from hexwalk import Site
from hexwalk.lattice import HOPS


def shift_target(site: Site, coin_index: int) -> Site:
    """The neighbour reached from ``site`` along coin direction 0, 1 or 2.

    From A(x, y): coin 0 -> B(x, y+1), coin 1 -> B(x-1, y), coin 2 -> B(x, y-1).
    From B(x, y): coin 0 -> A(x, y-1), coin 1 -> A(x+1, y), coin 2 -> A(x, y+1).
    """
    if coin_index not in (0, 1, 2):
        raise ValueError(f"coin_index must be 0, 1 or 2, got {coin_index!r}")
    dx, dy = HOPS[site.sub][coin_index]
    return Site("B" if site.sub == "A" else "A", site.x + dx, site.y + dy)


def support_parity_ok(site: Site, t: int) -> bool:
    """Whether ``site`` can carry amplitude at step ``t`` of a walk from A(0, 0).

    Each step swaps the sublattice and flips the parity of x + y, so the walk
    lives on A-sites with x + y even at even t and on B-sites with x + y odd
    at odd t.
    """
    even_site = (site.x + site.y) % 2 == 0
    if t % 2 == 0:
        return site.sub == "A" and even_site
    return site.sub == "B" and not even_site


def reference_step(amps: dict, coin: np.ndarray) -> dict:
    """One walk step as a literal per-site scatter into a fresh dict."""
    out: dict = {}
    for site, v in amps.items():
        mixed = coin @ v
        for j in range(3):
            target = shift_target(site, j)
            acc = out.setdefault(target, np.zeros(3, dtype=complex))
            acc[j] += mixed[j]
    return out


def reference_evolve(state_triple, t: int, coin: np.ndarray) -> dict:
    """Evolve a walk from the origin with the dict stepper."""
    amps = {Site.a(0, 0): np.asarray(state_triple, dtype=complex)}
    for _ in range(t):
        amps = reference_step(amps, coin)
    return amps


def graph_distances(max_dist: int) -> dict:
    """BFS graph distances from A(0, 0) out to ``max_dist`` hops."""
    origin = Site.a(0, 0)
    dist = {origin: 0}
    queue = deque([origin])
    while queue:
        site = queue.popleft()
        d = dist[site]
        if d == max_dist:
            continue
        for j in range(3):
            nbr = shift_target(site, j)
            if nbr not in dist:
                dist[nbr] = d + 1
                queue.append(nbr)
    return dist


def g_difference_oracle_table(cases, c: float, s: float, n: int, block: int = 512):
    """Regularized 2D momentum-grid sums for a batch of G(x, y, x1, y1).

    Sums [cos(a x + b y) - cos(a x' + b y')] / D(a, b) over a uniform
    n-by-n grid on [-pi, pi)^2 with D the shared walk denominator
    2 s^2 (1 - cos a cos b) + (1 - c)^2 sin^2 b.  Grid points where D
    vanishes analytically (the zone center and corner) are excluded; the
    even-shift difference numerators vanish there as well, so the excluded
    cells contribute nothing in the limit.  Processed in row blocks of the
    b axis to bound memory at large n.
    """
    cases = [tuple(int(v) for v in case) for case in cases]
    xs = sorted({v for (x, _, x1, _) in cases for v in (x, x - x1)})
    ys = sorted({v for (_, y, _, y1) in cases for v in (y, y - y1)})
    xcol = {v: i for i, v in enumerate(xs)}
    yrow = {v: i for i, v in enumerate(ys)}
    grid = (np.arange(n) - n // 2) * (2.0 * np.pi / n)
    ea = np.exp(1j * np.outer(grid, xs))
    cos_a = np.cos(grid)
    table = np.zeros((len(ys), len(xs)), dtype=complex)
    for start in range(0, n, block):
        gb = grid[start : start + block]
        denom = (
            2.0 * s * s * (1.0 - np.outer(np.cos(gb), cos_a))
            + ((1.0 - c) ** 2) * (np.sin(gb) ** 2)[:, None]
        )
        weight = np.where(denom < 1e-12, 0.0, 1.0 / np.where(denom < 1e-12, 1.0, denom))
        eb = np.exp(1j * np.outer(ys, gb))
        table += eb @ (weight @ ea)
    values = {}
    for (x, y, x1, y1) in cases:
        v = table[yrow[y], xcol[x]] - table[yrow[y - y1], xcol[x - x1]]
        values[(x, y, x1, y1)] = float(np.real(v)) / n**2
    return values


def _difference_integrand(b, x, y, xs, ys, c, s, lib=math):
    """Integrand of g(x, y) - g(xs, ys) at b in (0, pi), in the module ``lib``.

    Each site's reduced integrand is

        cos(b |y|) z^{|x|} / (pi root),  root = (1-c) sin(b) sqrt((3+c)^2 - (1-c)^2 cos(b)^2),
        z = 2 s^2 cos(b) / (2 s^2 + (1-c)^2 sin(b)^2 + root),

    and its 1/b endpoint poles cancel in the difference of two sites whose
    |x| + |y| have equal parity; the finite endpoint limits are
    +-(|xs| - |x|) / (2 pi s^2).
    """
    sb = lib.sin(b)
    if sb < 1e-14:
        sign = 1.0 if b < 1.0 else (-1.0) ** (abs(x) + abs(y))
        return sign * (abs(xs) - abs(x)) / (2.0 * lib.pi * s * s)
    cb = lib.cos(b)
    a0 = 2.0 * s * s + (1.0 - c) ** 2 * sb * sb
    root = (1.0 - c) * sb * lib.sqrt((3.0 + c) ** 2 - (1.0 - c) ** 2 * cb * cb)
    z = 2.0 * s * s * cb / (a0 + root)
    num = lib.cos(b * abs(y)) * z ** abs(x) - lib.cos(b * abs(ys)) * z ** abs(xs)
    return num / (lib.pi * root)


def g_difference_quad(x: int, y: int, x1: int, y1: int, c: float, s: float) -> float:
    """G(x, y, x1, y1) by ``scipy.integrate.quad`` of the difference integrand."""
    value, _ = integrate.quad(
        _difference_integrand, 0.0, math.pi, args=(x, y, x - x1, y - y1, c, s),
        epsabs=1e-13, epsrel=1e-12, limit=500,
    )
    return value


def g_difference_mp(x: int, y: int, x1: int, y1: int, c: float, s: float) -> float:
    """G(x, y, x1, y1) by mpmath's tanh-sinh quadrature at 30 digits.

    ``c`` and ``s`` are taken as exact binary values, as the library sees them.
    """
    with mpmath.workdps(30):
        c, s = mpmath.mpf(c), mpmath.mpf(s)
        value = mpmath.quad(
            lambda b: _difference_integrand(b, x, y, x - x1, y - y1, c, s, lib=mpmath),
            [0, mpmath.pi / 2, mpmath.pi],
        )
        return float(value)


def two_step_matrices(coin: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (n, 3, 3) stack of U2(a, b) = R(-a, -b) C R(a, b) C, one einsum.

    R(a, b) = diag(e^{-ib}, e^{ia}, e^{ib}) and R(-a, -b) is its conjugate.
    """
    r = np.stack([np.exp(-1j * b), np.exp(1j * a), np.exp(1j * b)], axis=1)
    return np.einsum("ni,ij,nj,jk->nik", r.conj(), coin, r, coin)


def flat_band_vectors(coin: np.ndarray, n: int) -> np.ndarray:
    """Unit flat-band vectors of U2 on the n x n midpoint grid of [-pi, pi)^2.

    U2 comes from :func:`two_step_matrices`, and the eigenvalue-1 vector is
    the null vector of U2 - I: the cross product of two of its rows, taking
    the pair with the largest product so that nearly parallel rows near the
    zone centre are avoided.
    """
    k = (np.arange(n) + 0.5) * (2.0 * np.pi / n) - np.pi
    a, b = (g.ravel() for g in np.meshgrid(k, k, indexing="ij"))
    m = two_step_matrices(coin, a, b) - np.eye(3)
    crosses = np.stack(
        [np.cross(m[:, 0], m[:, 1]), np.cross(m[:, 1], m[:, 2]), np.cross(m[:, 0], m[:, 2])],
        axis=1,
    )
    best = crosses[np.arange(a.size), np.linalg.norm(crosses, axis=2).argmax(axis=1)]
    return best / np.linalg.norm(best, axis=1, keepdims=True)
