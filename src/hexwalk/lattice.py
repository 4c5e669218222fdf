"""Integer-indexed honeycomb lattice: sites, embedding, and neighbour maps.

The walk graph is the union of two triangular sublattices, tagged ``"A"``
and ``"B"``.  A site is addressed by its tag and an integer pair ``(x, y)``;
the physical embedding places A(x, y) at ``(3x/2, sqrt(3)*y/2)`` and
B(x, y) at ``((3x+1)/2, sqrt(3)*y/2)``, which interleave into a honeycomb.
Every site has exactly three neighbours, one per coin direction, and every
hop swaps the sublattice tag, so the graph is 3-regular and bipartite.

Integer indices are the working representation throughout the package:
they are exact, hashable, and free of floating-point identity issues.  The
half-integer physical coordinates are derived output only.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import sqrt
from typing import Literal

import numpy as np

__all__ = ["Site", "physical_coordinates"]

Sublattice = Literal["A", "B"]

SQRT3_HALF = sqrt(3.0) / 2.0

# Neighbour displacements (dx, dy) per starting sublattice and coin index
# 0, 1, 2.  The x-step direction depends on the sublattice; applying the
# same coin index twice returns to the starting site.
HOPS = {"A": ((0, 1), (-1, 0), (0, -1)), "B": ((0, -1), (1, 0), (0, 1))}


@dataclass(frozen=True, order=True)
class Site:
    """A lattice vertex: sublattice tag plus integer indices.

    ``x`` and ``y`` go through ``operator.index``, so a float raises
    TypeError.  Ordering is lexicographic in (sub, x, y).
    """

    sub: Sublattice
    x: int
    y: int

    def __post_init__(self) -> None:
        if self.sub not in HOPS:
            raise ValueError(f"sublattice tag must be 'A' or 'B', got {self.sub!r}")
        object.__setattr__(self, "x", operator.index(self.x))
        object.__setattr__(self, "y", operator.index(self.y))

    @classmethod
    def a(cls, x: int, y: int) -> "Site":
        return cls("A", x, y)

    @classmethod
    def b(cls, x: int, y: int) -> "Site":
        return cls("B", x, y)


def physical_coordinates(
    sublattice: Sublattice, x: int | np.ndarray, y: int | np.ndarray
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Embedded coordinates ``(px, py)`` of sites on one sublattice.

    A(x, y) lands on (3x/2, sqrt(3)*y/2); B(x, y) on ((3x+1)/2, sqrt(3)*y/2).
    The map is injective: the two sublattices occupy disjoint columns.
    ``x`` and ``y`` are ints, or integer arrays for many sites at once.
    """
    px = 1.5 * x
    if sublattice == "B":
        px = px + 0.5
    return px, SQRT3_HALF * y
