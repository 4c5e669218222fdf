"""Exact real-space time evolution of the walk.

One step applies the coin matrix at every occupied site and then scatters
coin component ``j`` of each site to its neighbour along direction ``j``.
Because a walk started at the origin always occupies a single sublattice,
the step alternates between the two rows of ``HOPS``: A-sites feed B-sites
at even times and vice versa.

Wave functions are sparse: parallel arrays of integer site indices, rows
sorted by (x, y), and complex amplitude triples.  A step merges the three
scattered clouds in an integer window one site wider than the support, so
its rows come out sorted.  The scatter is collision-free -- each (site,
component) pair receives exactly one contribution -- so values are copied,
never summed, and are reproducible bit for bit.

The origin stream steps only the backward light cone of its last read:
after step t it drops the rows more than ``t_max - t`` hops out.  The coin
mixes each row alone and the scatter only copies, so the stream is the same
bit for bit as that of a full evolution.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .coin import CoinState
from .lattice import HOPS, Site, Sublattice, _hop_distance

__all__ = [
    "WaveFunction",
    "Distribution",
    "initial_wavefunction",
    "step",
    "evolve",
    "distribution",
    "origin_amplitudes",
    "return_series",
]


@dataclass(frozen=True)
class _SiteTable:
    """Rows of one sublattice at step ``t``, the body of both site tables.

    ``xy`` holds the integer indices, rows strictly increasing in (x, y),
    and ``values`` the matching rows of ``_row_shape``; both arrays are
    read-only.  The construction check is one O(n) ``np.diff``.
    """

    sublattice: Sublattice
    xy: np.ndarray
    values: np.ndarray
    t: int

    _dtype: ClassVar[type]
    _row_shape: ClassVar[tuple[int, ...]]

    def __post_init__(self) -> None:
        xy = np.ascontiguousarray(self.xy, dtype=np.int64)
        values = np.ascontiguousarray(self.values, dtype=self._dtype)
        if xy.ndim != 2 or xy.shape[1] != 2 or values.shape != (xy.shape[0], *self._row_shape):
            raise ValueError(f"xy must be (n, 2) and values (n,) + {self._row_shape}")
        d = np.diff(xy, axis=0)
        if not np.all((d[:, 0] > 0) | ((d[:, 0] == 0) & (d[:, 1] > 0))):
            raise ValueError("xy rows must be strictly increasing in (x, y)")
        xy.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.xy.shape[0]

    def _lookup(self, site: Site) -> np.ndarray:
        """The row at ``site`` (a binary search in ``xy``), or zeros if unoccupied."""
        if site.sub == self.sublattice:
            xs = self.xy[:, 0]
            lo = int(np.searchsorted(xs, site.x, side="left"))
            hi = int(np.searchsorted(xs, site.x, side="right"))
            i = lo + int(np.searchsorted(self.xy[lo:hi, 1], site.y))
            if i < hi and self.xy[i, 1] == site.y:
                return self.values[i]
        return np.zeros(self._row_shape, dtype=self._dtype)


@dataclass(frozen=True)
class WaveFunction(_SiteTable):
    """Sparse walker state at step ``t``: complex amplitude triples per site."""

    _dtype = np.complex128
    _row_shape = (3,)

    def amplitude(self, site: Site) -> np.ndarray:
        """Amplitude triple at ``site`` (zeros if unoccupied)."""
        return self._lookup(site).copy()

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2))


@dataclass(frozen=True)
class Distribution(_SiteTable):
    """Per-site observation probabilities at step ``t``, rows as in :class:`WaveFunction`."""

    _dtype = np.float64
    _row_shape = ()

    def probability(self, site: Site) -> float:
        return float(self._lookup(site))

    def total(self) -> float:
        return float(np.sum(self.values))


def initial_wavefunction(state: CoinState) -> WaveFunction:
    """Place the walker at A(0, 0) with the given coin amplitudes."""
    xy = np.zeros((1, 2), dtype=np.int64)
    values = state.as_array().reshape(1, 3)
    return WaveFunction("A", xy, values, 0)


def step(wf: WaveFunction, coin: np.ndarray) -> WaveFunction:
    """Advance the walk by one step: coin at every site, then scatter.

    Component ``j`` of the mixed amplitude at each site moves to the
    neighbour along coin direction ``j``.  The targets are marked in a flat
    integer window one site wider than the support; ``np.flatnonzero``
    reads the marked cells back in canonical order, and numbering them in
    place makes the window the row lookup for the copy.  The total norm is
    kept up to the rounding of the coin multiply (well below 1e-12 per step).
    """
    mixed = wf.values @ coin.T
    xs, ys = wf.xy[:, 0], wf.xy[:, 1]
    # Rows are sorted by (x, y) (the constructor checks it): x's bounds are the end rows.
    lo = np.array([xs[0], ys.min()]) - 1
    nx, ny = int(xs[-1] - lo[0]) + 2, int(ys.max() - lo[1]) + 2
    base = (xs - lo[0]) * ny + (ys - lo[1])
    targets = [base + (dx * ny + dy) for dx, dy in HOPS[wf.sublattice]]
    window = np.zeros(nx * ny, dtype=np.int64)
    for target in targets:
        window[target] = 1
    cells = np.flatnonzero(window)
    window[cells] = np.arange(len(cells))
    values = np.zeros((len(cells), 3), dtype=np.complex128)
    for j, target in enumerate(targets):
        values[window[target], j] = mixed[:, j]
    xy = np.stack(np.divmod(cells, ny), axis=1) + lo
    out_sub: Sublattice = "B" if wf.sublattice == "A" else "A"
    return WaveFunction(out_sub, xy, values, wf.t + 1)


def evolve(state: CoinState, t: int, coin: np.ndarray) -> WaveFunction:
    """Run ``t`` steps from the origin with the given initial coin state."""
    if t < 0:
        raise ValueError("step count must be non-negative")
    wf = initial_wavefunction(state)
    for _ in range(t):
        wf = step(wf, coin)
    return wf


def distribution(wf: WaveFunction) -> Distribution:
    """Per-site probabilities: the squared amplitude norm at each site."""
    probs = np.einsum("ij,ij->i", wf.values.real, wf.values.real) \
        + np.einsum("ij,ij->i", wf.values.imag, wf.values.imag)
    return Distribution(wf.sublattice, wf.xy, probs, wf.t)


def origin_amplitudes(
    state: CoinState, t_max: int, coin: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(t, amplitude triple at the origin)`` for t = 0, 2, ... up to ``t_max``.

    One evolution pass produces the whole stream.  Odd times are skipped:
    the origin sits on the A-sublattice, which carries no amplitude there.
    ``t_max`` is checked when the first item is requested.

    Only the backward light cone of the last origin read is stepped: a hop
    moves the walker one graph edge, so after step ``t`` the rows more than
    ``t_max - t`` hops from the origin are dropped.  Their amplitudes can
    never reach the origin again, and every kept amplitude is computed
    exactly as in :func:`evolve` (the coin mixes each row alone and the
    scatter only copies), so the stream is bit for bit the same.
    """
    if t_max < 0:
        raise ValueError("t_max must be non-negative")
    origin = Site.a(0, 0)
    wf = initial_wavefunction(state)
    yield 0, wf.amplitude(origin)
    for t in range(1, t_max + 1):
        wf = step(wf, coin)
        # Rows lie at most t hops out, so only the second half crops; never
        # after the last step, where a radius-0 crop of a B-state is empty.
        if t_max - t < t < t_max:
            keep = np.flatnonzero(_hop_distance(wf.sublattice, wf.xy) <= t_max - t)
            wf = WaveFunction(wf.sublattice, wf.xy[keep], wf.values[keep], t)
        if t % 2 == 0:
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
