"""Exact real-space time evolution of the walk.

One step applies the coin matrix at every occupied site and then scatters
coin component ``j`` of each site to its neighbour along direction ``j``.
Because a walk started at the origin always occupies a single sublattice,
the step alternates between the two rows of ``HOPS``: A-sites feed B-sites
at even times and vice versa.

A wave function, the one checked site table, holds a state a walk from one
site reaches, cropped or not.  These are the states in column-run form: x
columns consecutive, each column one progression y, y + 2, ..., one parity
of x + y in every row, and the y ranges of neighbouring columns overlapping
to within 3.  One site is in the form, and each hop moves a column as a
whole, so the parity and overlap rules make each output column one
progression again.  The form, with coordinates of size at most 2**59, is
checked once, when a wave function is built from rows.

The state is one block of (3, columns, u) planes in sheared coordinates:
cell (i, k) holds the site x = x0 + i, y = x + 2k + c, so a walk from
A(0, 0) puts A(x, y) at u = (y - x)/2 and B(x, y) at u = (y - x - 1)/2,
less the box's least u.  The planes are complex128 for a complex state, 48
bytes per cell, and float64 for a real one, 24 bytes per cell.  The coin is
real and the scatter only copies, so a complex walk is two real walks and a
real state stays real: a table picks the dtype once, when it is built from
rows, and every step keeps it.  Each column keeps the ends of its run of k,
and every cell outside the runs is exactly 0.  The block is the table's
(x, u) bounding box: a walk's holds (t + 1)**2 cells, about 4/3 of its
rows, and a table built by hand is held in its box too, so a staircase of
one row per column, each one lower, is held in a square.  Every hop moves
the whole block by one shift: from A, coins 0, 1 and 2 move it by (0, 0),
(-1, 0) and (0, -1); from B by (0, 0), (+1, 0) and (0, +1).  So a step
mixes the block in one real product on its float64 view, copies each mixed
plane into a block one column and one u wider, and derives the output runs
from the input's in O(columns); it refuses nothing but an output past
2**59.  Each (site, component) pair receives exactly one contribution, so
values are copied, never summed.

The block is a table's only state: a table built from rows copies them into
it and keeps no reference to them.  ``xy`` (16 bytes per row) and ``values``
(48 bytes per row, complex128 whatever the block's dtype) are each read from
the block through one mask of the runs on first use, and then cached.
``len``, ``amplitude``, ``norm_squared`` and ``step`` need neither.  A
distribution reads its probabilities from the block through the same mask,
so it builds ``xy`` but no ``values``, and checks nothing again.

The origin stream takes two steps per even time t up to the last one,
``last``, and then crops the block to the A-sites at most ``last - t`` hops
out: it slices the block to their box, clips the runs and zeroes the cells
outside them.  The coin mixes each site alone and the scatter only copies,
so the stream is the same bit for bit as that of a full evolution.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coin import CoinState
from .lattice import HOPS, Site, Sublattice

__all__ = [
    "WaveFunction",
    "Distribution",
    "step",
    "evolve",
    "distribution",
    "origin_amplitudes",
    "return_series",
]

# The largest site coordinate a table admits: every coordinate, shear offset
# and run end of a table then fits in int64.
_LIMIT = 2**59
_PAST_LIMIT = "no walk from one site reaches these rows, or one is past 2**59"
# A step mixes the block in chunks of whole columns of about this many cells
# (the last chunk up to twice as many), 96 KB of mixed amplitudes for a real
# block and 192 KB for a complex one: each chunk is copied into place while it
# is still in cache, and no mixed copy of the whole block is held.
_CHUNK_CELLS = 2**12


class WaveFunction:
    """Walker state at step ``t``: complex amplitude triples per site.

    Built from ``xy``, the (n, 2) integer sites of a state a walk from one
    site reaches (see the module docstring), and ``values``, the matching
    (n, 3) finite amplitudes.  The form is checked once, here, and the rows
    are copied into the block :func:`step` advances, so :func:`step` takes
    any wave function; the block is float64 if every imaginary part is 0 and
    complex128 otherwise, and no reference to the given arrays is kept.
    ``xy`` and ``values`` read the rows back from the block, each on first
    use: both are read-only and C-contiguous, ``values`` complex128.
    """

    def __init__(self, sublattice: Sublattice, xy, values, t: int) -> None:
        if sublattice not in HOPS:
            raise ValueError(f"sublattice tag must be 'A' or 'B', got {sublattice!r}")
        t = operator.index(t)
        if t < 0:
            raise ValueError("t must be non-negative")
        sites = np.asarray(xy)
        if sites.size and sites.dtype.kind not in "iu":
            raise TypeError(f"xy must be of an integer dtype, got {sites.dtype}")
        xy = np.ascontiguousarray(xy, dtype=np.int64)
        values = np.asarray(values, dtype=np.complex128)
        if xy.ndim != 2 or xy.shape[1] != 2 or values.shape != (xy.shape[0], 3):
            raise ValueError("xy must be (n, 2) and values (n, 3)")
        if not np.isfinite(values).all():
            raise ValueError("amplitudes must be finite")
        runs = _column_runs(xy)
        if runs is None:
            raise ValueError(_PAST_LIMIT)
        x0, lo, hi = runs
        ys = int(lo.min()), int(hi.max())
        x = np.arange(x0, x0 + len(lo))
        c = int((lo - x).min())
        lo, hi = (lo - x - c) // 2, (hi - x - c) // 2
        cells = values if values.imag.any() else values.real
        planes = np.zeros((3, len(lo), int(hi.max()) + 1), dtype=cells.dtype)
        planes[:, xy[:, 0] - x0, (xy[:, 1] - xy[:, 0] - c) // 2] = cells.T
        self._hold(sublattice, t, x0, c, lo, hi, planes, ys)

    @classmethod
    def _block(cls, *block) -> WaveFunction:
        wf = cls.__new__(cls)
        wf._hold(*block)
        return wf

    def _hold(self, sublattice, t, x0, c, lo, hi, planes, ys) -> None:
        self.sublattice, self.t = sublattice, t
        self._x0, self._c, self._lo, self._hi, self._planes = x0, c, lo, hi, planes
        # The least and largest y of the rows: a step moves each by exactly one.
        self._ys = ys

    @cached_property
    def xy(self) -> np.ndarray:
        i, k = np.nonzero(_inside(self._lo, self._hi, self._planes.shape[2]))
        x = i + self._x0
        xy = np.stack([x, x + 2 * k + self._c], axis=1)
        xy.setflags(write=False)
        return xy

    @cached_property
    def values(self) -> np.ndarray:
        cells = self._planes[:, _inside(self._lo, self._hi, self._planes.shape[2])]
        values = np.ascontiguousarray(cells.T, dtype=np.complex128)
        values.setflags(write=False)
        return values

    def __len__(self) -> int:
        return int((self._hi - self._lo).sum()) + len(self._lo)

    def amplitude(self, site: Site) -> np.ndarray:
        """Amplitude triple at ``site`` (one index into the block; zeros if unoccupied)."""
        i, v = site.x - self._x0, site.y - site.x - self._c
        if site.sub == self.sublattice and 0 <= i < len(self._lo) and v % 2 == 0 \
                and int(self._lo[i]) <= v // 2 <= int(self._hi[i]):
            return self._planes[:, i, v // 2].astype(np.complex128)
        return np.zeros(3, dtype=np.complex128)

    def norm_squared(self) -> float:
        """Sum of |amplitude|**2 over the block: cells outside the runs are +0."""
        return float(np.vdot(self._planes, self._planes).real)


@dataclass(frozen=True)
class Distribution:
    """Per-site probabilities ``values`` on the rows ``xy`` of a wave function, unchecked."""

    sublattice: Sublattice
    xy: np.ndarray
    values: np.ndarray
    t: int


def step(wf: WaveFunction, coin: np.ndarray) -> WaveFunction:
    """Advance the walk by one step: coin at every site, then scatter.

    Component ``j`` of the mixed amplitude at each site moves to the
    neighbour along coin direction ``j``.  The real coin mixes the block's
    three component planes in one product per chunk of columns on their
    float64 view, so a complex block's two parts mix at once, and each
    mixed plane is copied, shifted by its hop, into a block one column and
    one u wider; a column's output run is the union of the runs its hops
    carry there.  Every table is a state a walk reaches, so ``step`` cannot
    refuse ``wf``; only an output past 2**59 in size raises ValueError.  The
    total norm is kept up to the rounding of the coin multiply (well below
    1e-12 per step).
    """
    _, n, nu = wf._planes.shape
    # Float64 items per cell: 1 for a real block, 2 for a complex one.
    p = wf._planes.itemsize // 8
    hops = HOPS[wf.sublattice]
    shift = min(dx for dx, _ in hops)
    # Where hop j puts input cell (0, 0) in the output block.
    offsets = [(dx - shift, (dy - dx + 1) // 2) for dx, dy in hops]
    planes = np.zeros((3, n + 1, nu + 1), dtype=wf._planes.dtype)
    # A product of one column goes through BLAS's gemv, which rounds otherwise
    # than the gemm of wider ones.  So a chunk holds at least two values per
    # component, two columns of a real block of one u, and the last chunk takes
    # any columns left over: only a one-cell real block has a one-column product.
    width = max(_CHUNK_CELLS // nu, 2 if nu * p == 1 else 1)
    starts = range(0, max(n - width, 0) + 1, width)
    mixed_rows = _aligned_rows(3, min(2 * width - 1, n) * nu * p)
    for a, b in zip(starts, [*starts[1:], n]):
        chunk = wf._planes[:, a:b]
        reals = chunk.view(np.float64).reshape(3, -1)
        mixed = np.matmul(coin, reals, out=mixed_rows[:, :reals.shape[1]])
        mixed = mixed.view(planes.dtype).reshape(chunk.shape)
        for j, (i, k) in enumerate(offsets):
            # Adding +0 copies each amplitude and turns the -0 that some coins
            # mix from the zero cells outside the runs into +0.
            np.add(mixed[j], 0.0, out=planes[j, a + i:b + i, k:k + nu])
    # Per hop and output column, the run it carries there: empty (nu + 1 to -1)
    # where the hop brings none, but every output column gets one.
    lo, hi = np.full((3, n + 1), nu + 1), np.full((3, n + 1), -1)
    for j, (i, k) in enumerate(offsets):
        lo[j, i:i + n], hi[j, i:i + n] = wf._lo + k, wf._hi + k
    lo, hi = lo.min(axis=0), hi.max(axis=0)
    x0, ys = wf._x0 + shift, (wf._ys[0] - 1, wf._ys[1] + 1)
    if not (-_LIMIT <= min(x0, ys[0]) and max(x0 + n, ys[1]) <= _LIMIT):
        raise ValueError(_PAST_LIMIT)
    out_sub: Sublattice = "B" if wf.sublattice == "A" else "A"
    return WaveFunction._block(out_sub, wf.t + 1, x0, wf._c - 1, lo, hi, planes, ys)


def _column_runs(xy: np.ndarray) -> tuple[int, np.ndarray, np.ndarray] | None:
    """``(first x, column lows, column highs)`` if ``xy`` is in column-run form, else None."""
    n = len(xy)
    if not n:
        return None
    # Each row continues its column 2 higher or opens the next one.
    dx, dy = np.diff(xy[:, 0]), np.diff(xy[:, 1])
    opens = dx == 1
    if not (opens | (dx == 0) & (dy == 2)).all():
        return None
    starts = np.flatnonzero(opens) + 1
    lo = xy[np.concatenate(([0], starts)), 1]
    hi = xy[np.concatenate((starts - 1, [n - 1])), 1]
    x0 = int(xy[0, 0])
    # int64 differences wrap, but int64 values are distinct mod 2**64: from a
    # first row in bounds, each row is exactly one such move, so the last x and
    # the column ends bound every row.  Columns share the parity of x + y when
    # their lows differ by an odd step.
    if not (-_LIMIT <= x0 and x0 + len(lo) - 1 <= _LIMIT
            and lo.min() >= -_LIMIT and hi.max() <= _LIMIT
            and ((lo[1:] - lo[:-1]) & 1).all()
            and (np.maximum(lo[1:] - hi[:-1], lo[:-1] - hi[1:]) <= 3).all()):
        return None
    return x0, lo, hi


def _inside(lo: np.ndarray, hi: np.ndarray, width: int) -> np.ndarray:
    """The (columns, width) mask of the cells whose k lies in their column's run."""
    k = np.arange(width)
    return (lo[:, None] <= k) & (k <= hi[:, None])


def _aligned_rows(rows: int, columns: int) -> np.ndarray:
    """An uninitialized (rows, columns) float64 array whose rows start on 64-byte lines.

    numpy aligns a new array to 16 bytes only, and BLAS writes the coin
    product in about two thirds of the time into rows that start on a cache
    line.
    """
    stride = -(-columns // 8) * 8
    raw = np.empty(rows * stride + 7)
    start = -raw.ctypes.data % 64 // 8
    return raw[start:start + rows * stride].reshape(rows, stride)[:, :columns]


def _crop(wf: WaveFunction, r: int) -> WaveFunction:
    """The A-sites of ``wf`` at most ``r`` hops from A(0, 0), for even ``r``.

    ``wf`` is the A-state of a walk from A(0, 0) at an even time past ``r``,
    so its block covers them all.  A(x, y) is max(2|x|, |x| + |y|) hops out:
    the kept columns are |x| <= r/2, each with |y| <= r - |x|, so y spans
    -r to r.  The block is sliced to their box and copied, so the larger
    parent is not kept alive.
    """
    h = r // 2
    x = np.arange(-h, h + 1)
    cols = slice(-h - wf._x0, h + 1 - wf._x0)
    reach = r - np.abs(x)
    lo = np.maximum(wf._lo[cols], (-reach - x - wf._c) // 2)
    hi = np.minimum(wf._hi[cols], (reach - x - wf._c) // 2)
    k0, k1 = int(lo.min()), int(hi.max()) + 1
    planes = np.where(_inside(lo - k0, hi - k0, k1 - k0), wf._planes[:, cols, k0:k1], 0)
    return WaveFunction._block("A", wf.t, -h, wf._c + 2 * k0, lo - k0, hi - k0, planes, (-r, r))


def evolve(state: CoinState, t: int, coin: np.ndarray) -> WaveFunction:
    """Run ``t`` steps from A(0, 0) with coin state ``state``; ``t = 0`` is the walk's start."""
    if t < 0:
        raise ValueError("step count must be non-negative")
    wf = WaveFunction("A", np.zeros((1, 2), dtype=np.int64), state.as_array().reshape(1, 3), 0)
    for _ in range(t):
        wf = step(wf, coin)
    return wf


def distribution(wf: WaveFunction) -> Distribution:
    """Per-site probabilities, read from the block: ``wf.xy`` is built, ``wf.values`` is not."""
    cells = wf._planes[:, _inside(wf._lo, wf._hi, wf._planes.shape[2])]
    re, im = cells.real, cells.imag
    # Summed in this order on every layout; einsum's order depends on the strides.
    probs = (re[0] * re[0] + re[1] * re[1] + re[2] * re[2]) \
        + (im[0] * im[0] + im[1] * im[1] + im[2] * im[2])
    return Distribution(wf.sublattice, wf.xy, probs, wf.t)


def origin_amplitudes(
    state: CoinState, t_max: int, coin: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(t, amplitude triple at the origin)`` for t = 0, 2, ... up to ``t_max``.

    One evolution pass, two steps per yielded time, produces the whole
    stream.  Odd times are skipped: the origin sits on the A-sublattice,
    which carries no amplitude there, so the pass ends at
    ``last = t_max - t_max % 2``.  ``t_max`` is checked on the first request.

    Only the backward light cone of the last read is stepped: a hop moves
    the walker one graph edge, so after each even step ``t`` the rows more
    than ``last - t`` hops out are dropped (B-states are not cropped).  They
    can never reach the origin again, and every kept amplitude is computed
    exactly as in :func:`evolve`, so the stream is bit for bit the same.
    """
    t_max = operator.index(t_max)
    if t_max < 0:
        raise ValueError("t_max must be non-negative")
    last = t_max - t_max % 2
    origin = Site.a(0, 0)
    wf = evolve(state, 0, coin)
    yield 0, wf.amplitude(origin)
    for t in range(2, last + 1, 2):
        # Two statements, not step(step(...)), so at most two states are alive.
        wf = step(wf, coin)
        wf = step(wf, coin)
        # Rows lie at most t hops out, so only the second half crops.
        if last - t < t:
            wf = _crop(wf, last - t)
        yield t, wf.amplitude(origin)


def return_series(
    state: CoinState, t_max: int, coin: np.ndarray
) -> list[tuple[int, float]]:
    """Probability of observing the walker back at the origin at even times.

    Returns ``(2t, probability)`` pairs for 2t = 0, 2, ... up to ``t_max``,
    computed in a single evolution pass.
    """
    return [
        (t, float(np.sum(np.abs(amp) ** 2)))
        for t, amp in origin_amplitudes(state, t_max, coin)
    ]
