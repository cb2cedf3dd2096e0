"""Simulation and capacity analysis of hyperentanglement-assisted
superdense coding.

Photon pairs entangled simultaneously in spin and orbital angular
momentum carry one of four messages, encoded by a Pauli operation on
one photon's spin and read out by a spin-orbit Bell-state analyzer.
The package models the source and analyzer with their characterized
imperfections, aggregates detections into conditional-probability
transfer matrices, computes channel capacity, and propagates parameter
uncertainties by Monte Carlo.

Modules:

* states     - source construction, message encoding, Bell decomposition
* optics     - analyzer model, transfer matrices, accidentals
* capacity   - mutual information, Blahut-Arimoto capacity, bound curves
* montecarlo - uncertainty propagation over imperfection scenarios
* cli        - command-line interface (``hyperdense``)
"""

from __future__ import annotations

from .capacity import (
    CapacityResult,
    average_success,
    bound_channel,
    bound_curve,
    channel_capacity,
    mutual_information,
    snr_per_message,
)
from .montecarlo import (
    BudgetReport,
    McResult,
    McScenario,
    ParamDistribution,
    builtin_scenario,
    default_scenarios,
    load_scenario,
    naive_budget_check,
    run,
    sample_params,
)
from .optics import (
    AccidentalModel,
    GateParams,
    TransferMatrix,
    analyzer_unitary,
    apply_accidentals,
    hologram_map,
    transfer_matrix,
    two_photon_gate,
)
from .states import (
    Message,
    SourceParams,
    SpinOrbitBellLabel,
    build_source,
    encode,
    encoded_ket,
    ideal_source,
    model_orbit_state,
    model_spin_state,
    spin_orbit_decompose,
)

__version__ = "0.1.0"

__all__ = [
    "AccidentalModel",
    "BudgetReport",
    "CapacityResult",
    "GateParams",
    "McResult",
    "McScenario",
    "Message",
    "ParamDistribution",
    "SourceParams",
    "SpinOrbitBellLabel",
    "TransferMatrix",
    "analyzer_unitary",
    "apply_accidentals",
    "average_success",
    "bound_channel",
    "bound_curve",
    "build_source",
    "builtin_scenario",
    "channel_capacity",
    "default_scenarios",
    "encode",
    "encoded_ket",
    "hologram_map",
    "ideal_source",
    "load_scenario",
    "model_orbit_state",
    "model_spin_state",
    "mutual_information",
    "naive_budget_check",
    "run",
    "sample_params",
    "snr_per_message",
    "spin_orbit_decompose",
    "transfer_matrix",
    "two_photon_gate",
    "__version__",
]
