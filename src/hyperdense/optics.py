"""Receiver optics: spin-orbit Bell-state analyzer and conditional detection.

Per photon the analyzer is a hologram followed by a polarizing beam
splitter (PBS).  The hologram converts the orbital mode into a path
(output port) while flipping a sign on the r mode:

    |H l> -> |H a>,   |H r> -> -|H b>,   |V l> -> |V a>,   |V r> -> -|V b>

The single-photon matrices are written in the (H a, H b, V a, V b)
basis, index = polarization*2 + port, with ports (a, b) identified
index-wise with the orbital modes (l, r).  A perfect PBS transmits H
and reflects V; crosstalk eps_H (eps_V) is the probability that the
wrong port is taken, and phi1/phi2 are reflection phases.  With ideal
parameters each spin-orbit Bell state exits in a definite port with a
definite diagonal polarization, so coincidence patterns between the two
photons' detectors identify the encoded message.

Detection reads the analyzed state in the ideal analyzer's pair basis,
the images of the 16 spin-orbit Bell pairs.  Each pair signals one
message and the basis is complete, so every event is assigned to exactly
one message and transfer-matrix columns sum to one.  The analyzer sums
pairs into messages with the one table states.PAIR_SIGNATURES, and
matrices are labelled by states.MESSAGE_LABELS.

The analyzer is written once, for stacks of settings: the PBS in
analyzer_unitary_stack and the detection in transfer_matrix_stack.
analyzer_unitary and transfer_matrix are their one-setting calls.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .states import (
    _BELL_KETS,
    _ENCODINGS,
    MESSAGE_LABELS,
    PAIR_SIGNATURES,
    SourceParams,
    _check_fields,
    _number,
    build_source,
)

DEFAULT_ACCIDENTAL_FRACTION = 0.00267


@dataclass(frozen=True)
class GateParams:
    """PBS crosstalk probabilities and reflection phases (radians)."""

    eps_H: float = 0.0
    eps_V: float = 0.0
    phi1: float = 0.0
    phi2: float = 0.0

    def __post_init__(self):
        _check_fields(self, "eps")


@dataclass(frozen=True)
class AccidentalModel:
    """Uniform accidental-coincidence admixture.

    A fraction of recorded coincidences is noise spread evenly over the
    four outcomes: p'(y|x) = (1-fraction)*p(y|x) + fraction/4.
    """

    fraction: float = DEFAULT_ACCIDENTAL_FRACTION

    def __post_init__(self):
        object.__setattr__(self, "fraction", _number("accidental fraction", self.fraction))
        if not 0.0 <= self.fraction < 1.0:
            raise ValueError(f"accidental fraction must lie in [0, 1), got {self.fraction}")


def check_channel(p) -> np.ndarray:
    """p[..., y, x], one channel or a stack, as a float array; ValueError unless
    it is non-empty, every entry is finite and in [0, 1] (to 1e-12) and every
    column sums to 1 within 1e-9."""
    p = np.asarray(p, dtype=float)
    if not p.size:
        raise ValueError("channel is empty")
    if not np.isfinite(p).all():
        raise ValueError("entries must be finite")
    if p.min() < -1e-12 or p.max() > 1.0 + 1e-12:
        raise ValueError("entries must be probabilities in [0, 1]")
    deviation = np.max(np.abs(p.sum(axis=-2) - 1.0))
    if deviation > 1e-9:
        raise ValueError(f"columns must sum to 1 within 1e-9, largest "
                         f"deviation {deviation:.3g}")
    return p


@dataclass(frozen=True)
class TransferMatrix:
    """The four-message channel p(detected | sent), a checked 4x4 array.

    probabilities[y, x] is the probability of assigning message y when
    message x was sent, both indexed Phi+, Phi-, Psi+, Psi- (the order of
    states.MESSAGE_LABELS); columns sum to one.  The record holds its own
    read-only copy, so the checked values cannot change afterwards.
    """

    probabilities: np.ndarray

    def __post_init__(self):
        p = np.array(self.probabilities, dtype=float)
        if p.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got {p.shape}")
        check_channel(p)
        p.flags.writeable = False
        object.__setattr__(self, "probabilities", p)


def analyzer_unitary(gate: GateParams) -> np.ndarray:
    """Hologram followed by the PBS for one photon (4x4 unitary)."""
    return analyzer_unitary_stack(
        *([getattr(gate, f.name)] for f in fields(GateParams)))[0]


def two_photon_gate(gate: GateParams) -> np.ndarray:
    """Both photons analyzed independently: U x U on the 16-dim space."""
    u = analyzer_unitary(gate)
    return np.kron(u, u)


def transfer_matrix(source: SourceParams = SourceParams(),
                    gate: GateParams = GateParams()) -> TransferMatrix:
    """Conditional-detection probabilities for all sent messages.

    p(y|x) is the probability that message x, sent through the source and
    read by the analyzer, lands on one of message y's four pairs: the
    one-setting call of transfer_matrix_stack.
    """
    return TransferMatrix(transfer_matrix_stack(build_source(source)[None],
                                                analyzer_unitary(gate)[None])[0])


def apply_accidentals(t: TransferMatrix,
                      accidentals: AccidentalModel) -> TransferMatrix:
    """Mix a uniform accidental-coincidence floor into the matrix."""
    return TransferMatrix(_mix_accidentals(t.probabilities, accidentals.fraction))


def _mix_accidentals(p, fraction) -> np.ndarray:
    """(1 - f) p + f/4 for channels p[..., y, x], one fraction f per channel."""
    f = np.asarray(fraction, dtype=float)[..., None, None]
    return (1.0 - f) * p + f / 4


# --- stacks of settings ------------------------------------------------------

# Single-photon hologram: (Hl, Hr, Vl, Vr) -> (Ha, Hb, Va, Vb)
_HOLOGRAM = np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)


def analyzer_unitary_stack(eps_H, eps_V, phi1, phi2) -> np.ndarray:
    """analyzer_unitary for a stack of gate settings given as equal-length
    arrays, shape (n, 4, 4): the hologram, then the PBS, block diagonal over
    polarization.  The settings are not range-checked here."""
    eps_H, eps_V, phi1, phi2 = (np.asarray(v, dtype=float)
                                for v in (eps_H, eps_V, phi1, phi2))
    tH, rH = np.sqrt(1.0 - eps_H), np.sqrt(eps_H)
    tV, rV = np.sqrt(1.0 - eps_V), np.sqrt(eps_V)
    e12 = np.exp(0.5j * (phi1 + phi2))
    pbs = np.zeros((len(eps_H), 4, 4), dtype=complex)
    pbs[:, 0, 0] = pbs[:, 1, 1] = tH
    pbs[:, 0, 1] = -rH
    pbs[:, 1, 0] = rH
    pbs[:, 2, 2] = pbs[:, 3, 3] = e12 * rV
    pbs[:, 2, 3] = -np.exp(1j * phi2) * tV
    pbs[:, 3, 2] = np.exp(1j * phi1) * tV
    return pbs @ _HOLOGRAM


# Built once: one photon's Bell bras after the ideal analyzer.
_READOUT = _BELL_KETS.conj() @ analyzer_unitary(GateParams()).conj().T


def _outer_rows(a: np.ndarray) -> np.ndarray:
    # [..., i, (j, k)] = a[..., i, j] * conj(a[..., i, k])
    outer = a[..., :, None] * a[..., None, :].conj()
    return outer.reshape(*a.shape[:-1], -1)


def transfer_matrix_stack(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Transfer-matrix probabilities for a stack of settings, shape (n, 4, 4).

    ``rho`` is a source stack from states.build_source_stack and ``u`` an
    analyzer stack from analyzer_unitary_stack; entry [k, y, x] is
    p(y|x) for setting k.  Worked in the Heisenberg picture: A = B+ u0+ U
    maps one photon's modes onto the outcomes of the ideal analyzer u0,
    whose Bell kets are the columns of B.  Message x sees W_x = A (x) A
    k_x, with k_x = states._ENCODINGS[x] the Pauli on photon 2, so its 16
    pair probabilities are diag(W_x rho W_x+).  Photon 1 is contracted
    once, photon 2 once per message, each as a product with the outer
    products of 4-entry rows; pairs are then summed by
    states.PAIR_SIGNATURES.  The raw matrices must pass check_channel, so
    an incomplete readout fails here.  Column sums are left as computed,
    within about 1e-15 of 1, but entries are clipped at 0: rounding leaves
    some just below it (-1.2e-32 in the ideal channel), a negative
    probability in print and in the solver.
    """
    n = len(u)
    a = _READOUT @ u
    # rho[(a1, b1), (a2, b2)]: photon-1 indices first
    rho = rho.reshape(n, 4, 4, 4, 4).transpose(0, 1, 3, 2, 4).reshape(n, 16, 16)
    # photon 1: t[l1, (a2, b2)] = sum A[l1, a1] A*[l1, b1] rho[(a1, b1), (a2, b2)]
    t = _outer_rows(a) @ rho
    # photon 2, C_x = A k_x: pairs[(x, l2), l1] = sum C_x[l2, a2] C_x*[l2, b2] t[l1, (a2, b2)]
    c = (a[:, None] @ _ENCODINGS).reshape(n, 16, 4)
    pairs = (_outer_rows(c) @ t.transpose(0, 2, 1)).real
    # pairs are (l2, l1)-major; the table still fits, as message_of_pair is symmetric
    p = (pairs.reshape(n, 4, 16) @ PAIR_SIGNATURES).transpose(0, 2, 1)
    return np.clip(check_channel(p), 0.0, None)


# --- serialization ---------------------------------------------------------

def to_json_dict(t: TransferMatrix) -> dict:
    """JSON-ready dict; float values survive a round trip bit-exactly."""
    return {
        "n": len(MESSAGE_LABELS),
        "labels": list(MESSAGE_LABELS),
        "p": [[float(v) for v in row] for row in t.probabilities],
    }
