"""Exact real-space time evolution of the walk.

One step applies the coin matrix at every occupied site and then scatters
coin component ``j`` of each site to its neighbour along direction ``j``.
Because a walk started at the origin always occupies a single sublattice,
the step alternates between the two rows of ``HOPS``: A-sites feed B-sites
at even times and vice versa.

Wave functions are sparse: an (n, 2) array of integer site indices, rows
sorted by (x, y), and an (n, 3) complex array of amplitudes stored
component-major, as the transpose of three contiguous (3, n) planes.  A step
mixes the planes with one product and copies each mixed plane into place.
The scatter is collision-free -- each (site, component) pair receives
exactly one contribution -- so values are copied, never summed.

A wave function, the one checked site table, holds a state a walk from one
site reaches, cropped or not.  These are the states in column-run form: x
columns consecutive, each column one progression y, y + 2, ..., one parity
of x + y in every row, and the y ranges of neighbouring columns overlapping
to within 3.  One site is in the form, and each hop moves a column as a
whole, so the parity and overlap rules make each output column one
progression again.  The form, with coordinates of size at most 2**59, is
checked once, when a wave function is built, and it keeps the column ends
it found.  A step places every row from those ends alone and refuses
nothing; an output past 2**59 fails when it is built.  A distribution lays
probabilities on the rows of a wave function and checks nothing again.

The origin stream takes two steps per even time t up to the last one,
``last``, and then drops the A-rows more than ``last - t`` hops out.  The
coin mixes each row alone and the scatter only copies, so the stream is the
same bit for bit as that of a full evolution.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .coin import CoinState
from .lattice import HOPS, Site, Sublattice, _hop_distance

__all__ = [
    "WaveFunction",
    "Distribution",
    "step",
    "evolve",
    "distribution",
    "origin_amplitudes",
    "return_series",
]

# The run merge pads the column ends with _PAD and -_PAD.  Tables admit sizes
# up to _PAD // 2 = 2**59, so a pad lies beyond every hop target (2**59 + 1 at
# most), and no difference of ends and pads overflows int64.
_PAD = 2**60


@dataclass(frozen=True)
class WaveFunction:
    """Sparse walker state at step ``t``: complex amplitude triples per site.

    ``xy`` holds a state a walk from one site reaches (see the module
    docstring), checked once when the table is built, so :func:`step` takes
    any wave function; ``values`` holds the matching (n, 3) amplitudes.  Both
    arrays are read-only.  ``xy`` is C-contiguous; ``values`` is kept in the
    layout it is given, so the column-major amplitudes that :func:`step`
    returns are not copied.
    """

    sublattice: Sublattice
    xy: np.ndarray
    values: np.ndarray
    t: int
    _runs: tuple[int, np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.sublattice not in HOPS:
            raise ValueError(f"sublattice tag must be 'A' or 'B', got {self.sublattice!r}")
        xy = np.ascontiguousarray(self.xy, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.complex128)
        if xy.ndim != 2 or xy.shape[1] != 2 or values.shape != (xy.shape[0], 3):
            raise ValueError("xy must be (n, 2) and values (n, 3)")
        runs = _column_runs(xy)
        if runs is None:
            raise ValueError("no walk from one site reaches these rows, or one is past 2**59")
        xy.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_runs", runs)

    def __len__(self) -> int:
        return self.xy.shape[0]

    def amplitude(self, site: Site) -> np.ndarray:
        """Amplitude triple at ``site`` (a binary search in ``xy``; zeros if unoccupied)."""
        if site.sub == self.sublattice:
            xs = self.xy[:, 0]
            lo = int(np.searchsorted(xs, site.x, side="left"))
            hi = int(np.searchsorted(xs, site.x, side="right"))
            i = lo + int(np.searchsorted(self.xy[lo:hi, 1], site.y))
            if i < hi and self.xy[i, 1] == site.y:
                return self.values[i].copy()
        return np.zeros(3, dtype=np.complex128)

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2))


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
    neighbour along coin direction ``j``.  The coin mixes the (3, n)
    component planes, ``wf.values.T``, in one product, and the output rows
    are placed from the column ends ``wf`` keeps, one run per hop and output
    column; the result holds the output planes, transposed.  Every table is
    a state a walk reaches, so ``step`` cannot refuse ``wf``; only an output
    past 2**59 in size raises ValueError, when it is built.  The total norm
    is kept up to the rounding of the coin multiply (well below 1e-12 per step).
    """
    mixed = coin @ np.ascontiguousarray(wf.values.T)
    xy, out = _run_merge(*wf._runs, HOPS[wf.sublattice], mixed)
    out_sub: Sublattice = "B" if wf.sublattice == "A" else "A"
    return WaveFunction(out_sub, xy, out.T, wf.t + 1)


def _column_runs(xy: np.ndarray) -> tuple[int, np.ndarray, np.ndarray] | None:
    """``(first x, column lows, column highs)`` if ``xy`` is in column-run form, else None."""
    n, half = len(xy), _PAD // 2
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
    if not (-half <= x0 and x0 + len(lo) - 1 <= half
            and lo.min() >= -half and hi.max() <= half
            and ((lo[1:] - lo[:-1]) & 1).all()
            and (np.maximum(lo[1:] - hi[:-1], lo[:-1] - hi[1:]) <= 3).all()):
        return None
    return x0, lo, hi


def _run_merge(x0, lo, hi, hops, mixed):
    """Output ``xy`` and (3, m) planes of a column-run state, see :func:`_column_runs`.

    Hop ``j`` carries input column c to output column c + ``shift[j]`` (0 or
    1) and moves its y range by ``dy[j]``.  An output column spans the union
    of the ranges that land on it, one progression by the overlap rule, and
    each hop fills one run of its rows.  A (3, m) mask marks those runs, so
    one masked copy puts every mixed plane in place: the rows of a hop keep
    their order.
    """
    dx, dy = np.array(hops).T[:, :, None]
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
    columns = np.array([x0 + dx.min() + np.arange(len(counts)), lo_out - 2 * first]).T
    xy = np.repeat(columns, counts, axis=0)
    xy[:, 1] += np.arange(0, 2 * m, 2)
    return xy, out.reshape(3, m)


def evolve(state: CoinState, t: int, coin: np.ndarray) -> WaveFunction:
    """Run ``t`` steps from A(0, 0) with coin state ``state``; ``t = 0`` is the walk's start."""
    if t < 0:
        raise ValueError("step count must be non-negative")
    wf = WaveFunction("A", np.zeros((1, 2), dtype=np.int64), state.as_array().reshape(1, 3), 0)
    for _ in range(t):
        wf = step(wf, coin)
    return wf


def distribution(wf: WaveFunction) -> Distribution:
    """Per-site probabilities: the squared amplitude norm on each row ``wf`` holds."""
    probs = np.einsum("ij,ij->i", wf.values.real, wf.values.real) \
        + np.einsum("ij,ij->i", wf.values.imag, wf.values.imag)
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
            keep = np.flatnonzero(_hop_distance(wf.xy) <= last - t)
            # Columns of the (3, n) planes, the layout step reads without a copy;
            # no local name, which would keep them alive through the next two steps.
            wf = WaveFunction(
                wf.sublattice, wf.xy[keep], np.take(wf.values.T, keep, axis=1).T, t
            )
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
