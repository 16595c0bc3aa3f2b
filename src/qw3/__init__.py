"""Spectral analysis and simulation of three-state quantum walks on the integer lattice.

The walk acts on square-summable three-component wavefunctions over the
integers: a site-dependent 3x3 unitary coin is applied at every site, then the
first component shifts left, the third shifts right and the second stays put.
The package locates the point spectrum of the resulting evolution operator
through a 2x2 transfer-matrix reduction, reconstructs the localized
eigenvectors, and cross-validates them with a direct time-evolution simulator.
"""

__version__ = "0.1.0"

from .coin import (
    CoinField,
    CoinMatrix,
    ConfigError,
    field_homogeneous,
    field_one_defect,
    field_two_phase,
    make_fourier,
    make_grover,
    parse_field_config,
    phase_scale,
    serialize_field,
)
from .evolution import (
    Distribution,
    SimulationError,
    StateVector,
    apply_u,
    default_initial_state,
    evolve,
    time_averaged_origin,
)
from .spectral import (
    EigenvalueRecord,
    RootScan,
    build_eigenvector,
    find_roots,
    lambda0_adjudicate,
    lambda0_set,
)

__all__ = [
    "CoinField",
    "CoinMatrix",
    "ConfigError",
    "Distribution",
    "EigenvalueRecord",
    "RootScan",
    "SimulationError",
    "StateVector",
    "apply_u",
    "build_eigenvector",
    "default_initial_state",
    "evolve",
    "field_homogeneous",
    "field_one_defect",
    "field_two_phase",
    "find_roots",
    "lambda0_adjudicate",
    "lambda0_set",
    "make_fourier",
    "make_grover",
    "parse_field_config",
    "phase_scale",
    "serialize_field",
    "time_averaged_origin",
]
