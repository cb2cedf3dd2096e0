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
* cli        - text layer: every file reader and renderer, ``hyperdense``

Public names live in their modules (``from hyperdense.optics import
transfer_matrix``); the package itself defines only ``__version__``.
"""

__version__ = "0.1.0"
