"""Discrete-time three-state quantum walk on the honeycomb lattice.

The package provides exact sparse real-space evolution of the walk, its
momentum-space spectral analysis, and the closed-form long-time laws: the
limit of the return probability, the delocalization condition on the
initial coin state, and the weight of the point mass that survives time
rescaling.
"""

from . import coin, evolution, lattice, limits, spectral
from .coin import *  # noqa: F401,F403
from .evolution import *  # noqa: F401,F403
from .lattice import *  # noqa: F401,F403
from .limits import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *coin.__all__, *evolution.__all__, *lattice.__all__, *limits.__all__, *spectral.__all__
]
