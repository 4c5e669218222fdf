"""Independent reference implementations used to cross-check the package.

Nothing here shares code with the library's computational paths.  The
steppers are plain dict scatters along the library's hop table
``hexwalk.lattice.HOPS``, one in floating point through :func:`shift_target`
and one, for the rational coins, in exact integers, and the row stepper the
library's block stepper replaced, which places each output row from the
column ends of its input rows; graph distances come from BFS and from the
closed-form hop distance of an A-site; the Green-integral oracles are a
regularized two-dimensional Riemann sum and adaptive quadrature (scipy's
``quad`` and mpmath's tanh-sinh) of the pointwise difference of two reduced
integrands (the library integrates each site against an anchor on
Gauss-Legendre nodes instead); the two-step momentum operator is one
einsum of its definition, whose flat band is a null vector found by cross
products, with no eigensolver; and its eigenpairs come from scipy's complex Schur
factorization (the library takes them from ``np.linalg.eig`` and one QR).
Only these oracles import scipy: the package itself runs on numpy alone.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator
from fractions import Fraction

import mpmath
import numpy as np
import scipy.linalg
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


# The row stepper pads the column ends with _PAD and -_PAD.  Tables admit
# sizes up to 2**59, so a pad lies beyond every hop target (2**59 + 1 at
# most), and no difference of ends and pads overflows int64.
_PAD = 2**60


def row_step(wf, coin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(xy, values)`` one step after the wave function ``wf``, by the row stepper.

    The coin mixes the (3, n) component planes of ``wf.values`` in one real
    product, as the block stepper does: on the (3, n, 2) float64 planes of
    the real and imaginary parts, or on the real parts alone if every
    imaginary part is 0.  A product of one column (one real row) goes
    through BLAS's gemv, which rounds differently from the gemm of wider
    ones, and so does the block stepper's step from one real site.  Hop
    ``j`` carries input column c to output column c + ``shift[j]`` (0 or 1)
    and moves its y range by ``dy[j]``.  An output column spans the union
    of the ranges that land on it, and each hop fills one run of its rows.
    A (3, m) mask marks those runs, so one masked copy puts every mixed
    plane in place: the rows of a hop keep their order.  ``values`` is the
    transpose of the (3, m) output planes.
    """
    xy = wf.xy
    starts = np.flatnonzero(np.diff(xy[:, 0])) + 1
    lo = xy[np.concatenate(([0], starts)), 1]
    hi = xy[np.concatenate((starts - 1, [len(xy) - 1])), 1]
    values = wf.values.T
    parts = np.stack((values.real, values.imag), axis=-1)[..., :2 if values.imag.any() else 1]
    pairs = np.zeros(values.shape + (2,))
    pairs[..., :parts.shape[2]] = (coin @ parts.reshape(3, -1)).reshape(parts.shape)
    mixed = pairs.view(np.complex128)
    dx, dy = np.array(HOPS[wf.sublattice]).T[:, :, None]
    shift = dx - dx.min()
    # Column k + 1 of the padded ends is input column k; the pads, ends beyond
    # any site, feed no rows.
    src = np.arange(1, len(lo) + 2) - shift
    lo_hops = np.concatenate([[_PAD], lo, [_PAD]])[src] + dy
    hi_hops = np.concatenate([[-_PAD], hi, [-_PAD]])[src] + dy
    lo_out = lo_hops.min(axis=0)
    counts = (hi_hops.max(axis=0) - lo_out) // 2 + 1
    # Per hop and output column: the rows before the hop's run, in it and after it.
    runs = np.empty((3, len(counts), 3), dtype=np.int64)
    runs[..., 0] = np.minimum((lo_hops - lo_out) // 2, counts)
    runs[..., 1] = np.maximum((hi_hops - lo_hops) // 2 + 1, 0)
    runs[..., 2] = counts - runs[..., 0] - runs[..., 1]
    in_run = np.zeros(runs.shape, dtype=bool)
    in_run[..., 1] = True
    mask = np.repeat(in_run.reshape(-1), runs.reshape(-1))
    out = np.zeros(mask.size, dtype=np.complex128)
    out[mask] = mixed.reshape(-1)
    m = mask.size // 3
    first = np.cumsum(counts) - counts
    columns = np.array([xy[0, 0] + dx.min() + np.arange(len(counts)), lo_out - 2 * first]).T
    xy_out = np.repeat(columns, counts, axis=0)
    xy_out[:, 1] += np.arange(0, 2 * m, 2)
    return xy_out, out.reshape(3, m).T


def hop_distance(xy: np.ndarray) -> np.ndarray:
    """Graph distance from A(0, 0) to the A-site at each row of ``xy``.

    Two hops move an A-site by (0, +-2) or (+-1, +-1), so A(x, y) is
    max(2|x|, |x| + |y|) hops away.  Exact on the A-sites a walk from the
    origin can occupy, those with x + y even.
    """
    x, y = np.abs(xy[:, 0]), np.abs(xy[:, 1])
    return np.maximum(2 * x, x + y)


def rational_cosine(m) -> Fraction:
    """The exact c = (1 - 2 m^2) / (1 + 2 m^2) of the rational coin of slope ``m``."""
    m = Fraction(m)
    return (1 - 2 * m * m) / (1 + 2 * m * m)


def exact_walk(m, state, t_max: int) -> Iterator[tuple[int, dict]]:
    """Yield ``(scale, amps)`` for t = 0 .. ``t_max``: the walk in exact integers.

    For a rational slope m = p/q the coin with c = (q^2 - 2p^2)/D and
    s/sqrt(2) = 2pq/D, D = q^2 + 2p^2, is the integer matrix

        D C = [[-q^2, 2pq, 2p^2], [2pq, q^2 - 2p^2, 2pq], [2p^2, 2pq, -q^2]]

    over D (m = 1 is the Grover coin).  ``state`` is a triple of rationals;
    with L the common denominator of its entries, psi_t = amps / (L D^t),
    where ``amps`` maps each (x, y) of the t-step walk, on sublattice A at
    even t and B at odd t, to three Python ints.  A per-site dict scatter
    along ``HOPS``, with no rounding.
    """
    m = Fraction(m)
    p, q = m.numerator, m.denominator
    d = q * q + 2 * p * p
    coin = ((-q * q, 2 * p * q, 2 * p * p),
            (2 * p * q, q * q - 2 * p * p, 2 * p * q),
            (2 * p * p, 2 * p * q, -q * q))
    state = [Fraction(v) for v in state]
    scale = math.lcm(*(v.denominator for v in state))
    amps = {(0, 0): [int(v * scale) for v in state]}
    yield scale, amps
    for t in range(t_max):
        out: dict = {}
        for (x, y), v in amps.items():
            for j, (row, (dx, dy)) in enumerate(zip(coin, HOPS["AB"[t % 2]])):
                acc = out.setdefault((x + dx, y + dy), [0, 0, 0])
                acc[j] += row[0] * v[0] + row[1] * v[1] + row[2] * v[2]
        amps, scale = out, scale * d
        yield scale, amps


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


def schur_eigenpairs(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of a normal matrix, by complex Schur.

    For a normal matrix the triangular factor of ``scipy.linalg.schur`` is
    diagonal to round-off, so its diagonal holds the eigenvalues and the
    unitary factor's columns an eigenbasis, in the same order.
    """
    tri, vecs = scipy.linalg.schur(matrix, output="complex")
    return np.diag(tri), vecs
