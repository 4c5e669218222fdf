"""Discrete-time three-state quantum walk on the honeycomb lattice.

The package provides exact sparse real-space evolution of the walk, its
momentum-space spectral analysis, and the closed-form long-time laws: the
limit of the return probability, the delocalization condition on the
initial coin state, and the weight of the point mass that survives time
rescaling.
"""

from .coin import (
    GROVER_THETA,
    CoinMatrix,
    CoinParams,
    CoinState,
    apply_coin,
    build_coin,
)
from .evolution import (
    Distribution,
    WaveFunction,
    distribution,
    evolve,
    initial_wavefunction,
    origin_amplitudes,
    return_series,
    step,
)
from .lattice import (
    PhysicalPoint,
    Site,
    shift_target,
    support_parity_ok,
    to_physical,
)
from .limits import (
    AsymptoticOriginAmplitude,
    QuadratureError,
    a_theta,
    asymptotic_amplitude,
    asymptotic_origin_amplitude,
    delocalization_condition,
    delta_weight,
    g_difference,
    limit_return_probability,
)
from .spectral import (
    Momentum,
    TwoStepOperator,
    eigenphases_closed_form,
    fourier_evolve,
    inverse_transform_site,
    r_matrix,
    two_step_operator,
)

__version__ = "0.1.0"

__all__ = [
    "GROVER_THETA",
    "CoinMatrix",
    "CoinParams",
    "CoinState",
    "apply_coin",
    "build_coin",
    "Distribution",
    "WaveFunction",
    "distribution",
    "evolve",
    "initial_wavefunction",
    "origin_amplitudes",
    "return_series",
    "step",
    "PhysicalPoint",
    "Site",
    "shift_target",
    "support_parity_ok",
    "to_physical",
    "AsymptoticOriginAmplitude",
    "QuadratureError",
    "a_theta",
    "asymptotic_amplitude",
    "asymptotic_origin_amplitude",
    "delocalization_condition",
    "delta_weight",
    "g_difference",
    "limit_return_probability",
    "Momentum",
    "TwoStepOperator",
    "eigenphases_closed_form",
    "fourier_evolve",
    "inverse_transform_site",
    "r_matrix",
    "two_step_operator",
]
