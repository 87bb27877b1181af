"""Pulsed twin-beam squeezer simulation and mode decomposition.

Builds frequency-bin propagators for a parametric waveguide pumped by a
broadband pulse, factorizes them into independent two-mode squeezers
(input and output mode functions plus squeezing parameters), and checks
the structural consequences of matched signal/idler group-velocity
walk-off, in particular that a double pass with swapped velocities
squeezes and unsqueezes the same modes.
"""

from .analysis import (
    JsaOracle, SweepPoint, SweepResult, flip_overlap, gain_variation_sweep,
    lowgain_jsa_oracle, mode_fidelity, subspace_overlaps,
)
from .analytic import (
    block_reduce, canonical_factors, general_block_route, structure_checks,
    svd_route, symmetrized_eig_route,
)
from .blochmessiah import (
    BlochMessiahResult, Decomposition, SchmidtMode, bloch_messiah, decompose,
    pair_mixer, tune_gain, two_mode_rearrange,
)
from .errors import (
    ConfigError, ContractError, DecompositionError, RegimeError, TwinbeamError,
)
from .model import (
    CoupledMatrices, FrequencyGrid, MediumSpec, Poling, PumpSpec,
    TabulatedEnvelope, apodized_poling, build_coupled_matrices, build_generator,
    build_grid, default_half_width, demodulate_poling, flip_matrix, load_poling,
    pmf, pump_amplitude, qpm_poling, save_poling,
)
from .propagator import (
    Propagator, compose, double_pass, free_propagator, load_matrix,
    mean_photons, segment_propagator, symplectic_residual,
)

__version__ = "0.1.0"

__all__ = [
    "JsaOracle", "SweepPoint", "SweepResult", "flip_overlap",
    "gain_variation_sweep", "lowgain_jsa_oracle", "mode_fidelity",
    "subspace_overlaps",
    "block_reduce", "canonical_factors", "general_block_route",
    "structure_checks", "svd_route", "symmetrized_eig_route",
    "BlochMessiahResult", "Decomposition", "SchmidtMode", "bloch_messiah",
    "decompose", "pair_mixer", "tune_gain", "two_mode_rearrange",
    "ConfigError", "ContractError", "DecompositionError", "RegimeError",
    "TwinbeamError",
    "CoupledMatrices", "FrequencyGrid", "MediumSpec", "Poling", "PumpSpec",
    "TabulatedEnvelope", "apodized_poling", "build_coupled_matrices",
    "build_generator", "build_grid", "default_half_width", "demodulate_poling",
    "flip_matrix", "load_poling", "pmf", "pump_amplitude", "qpm_poling",
    "save_poling",
    "Propagator", "compose", "double_pass", "free_propagator",
    "load_matrix", "mean_photons", "segment_propagator", "symplectic_residual",
    "__version__",
]
