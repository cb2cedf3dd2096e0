"""Two-photon states hyperentangled in polarization and orbital angular momentum.

Basis conventions, fixed across the whole package:

* Polarization (spin) basis per photon: (H, V) -> indices (0, 1).
* Orbital (OAM) basis per photon: (l, r) -> indices (0, 1), where l and
  r are the left/right-handed orbital modes.
* A full two-photon state lives in a 16-dim space with subsystem order
  (photon1 spin, photon1 orbit, photon2 spin, photon2 orbit); the basis
  index is s1*8 + o1*4 + s2*2 + o2.
* Pair bases for the separate degrees of freedom: spin pairs are
  (HH, HV, VH, VV), orbit pairs are (ll, lr, rl, rr), index = first*2 + second.

The ideal source emits (|HH> - |VV>)/sqrt(2) in spin together with
(|lr> + |rl>)/sqrt(2) in orbit.  Messages are encoded by the sender as
Pauli operations on the spin of photon 2 only; the orbital state is
never touched and serves as the ancilla that makes the four spin Bell
states distinguishable at the receiver.

Single-photon spin-orbit Bell states, used as the analysis basis:

    phi+- = (|H l> +- |V r>)/sqrt(2)
    psi+- = (|H r> +- |V l>)/sqrt(2)

Each encoded two-photon state is supported on exactly four of the 16
spin-orbit pair products, with amplitudes of magnitude 1/2; the pair
sets partition the 16 products into the four messages (message_of_pair,
tabulated one-hot over BELL_PAIRS as PAIR_SIGNATURES, the one
pair-to-message table that the analyzer, the counts aggregation and the
SNR read).  MESSAGE_LABELS is the one tuple of message labels.

The source model is written once, for stacks of settings: build_source
is a one-setting call of build_source_stack, and encoded_ket reads the
ideal pair kets as rows of the same model.  The encoding is written once
too, as _ENCODINGS, one 4x4 block per message on photon 2's modes, which
encode, encoded_ket and the analyzer read.

_number is the one check of a scalar knob, shared by every record, file
line and solver argument of the package, through _check_fields for a record.
"""

from __future__ import annotations

import enum
import itertools
import math
import numbers
import operator
from dataclasses import dataclass, fields

import numpy as np

MESSAGE_LABELS = ("Phi+", "Phi-", "Psi+", "Psi-")


def _number(name: str, value, lo=-math.inf, hi=math.inf, kind=float):
    """value as a float, or as an int with kind=int, checked to lie in [lo, hi].

    ValueError, naming ``name``, for a bool, a value that is not a real
    number (not an integer, with kind=int), a NaN or infinite float and a
    value out of range.
    """
    if kind is int:
        ok, wanted = hasattr(value, "__index__"), "an integer"
    else:
        ok, wanted = isinstance(value, numbers.Real), "a real number"
    if isinstance(value, bool) or not ok:
        raise ValueError(f"{name} must be {wanted}, got {value!r}")
    v = operator.index(value) if kind is int else float(value)
    if kind is float and not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {v}")
    if not lo <= v <= hi:
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {v}")
    return v


def _check_fields(record, unit_prefix: str) -> None:
    """_number on every field of a frozen record; unit_prefix* fields lie in [0, 1]."""
    for f in fields(record):
        bounds = (0, 1) if f.name.startswith(unit_prefix) else ()
        object.__setattr__(record, f.name, _number(f.name, getattr(record, f.name), *bounds))


class Message(enum.IntEnum):
    """The four superdense-coding messages, in canonical order."""

    PHI_PLUS = 0
    PHI_MINUS = 1
    PSI_PLUS = 2
    PSI_MINUS = 3

    @property
    def label(self) -> str:
        return MESSAGE_LABELS[self]

    @classmethod
    def from_label(cls, label: str) -> "Message":
        if label not in MESSAGE_LABELS:
            raise ValueError(f"unknown message label {label!r}, expected one "
                             f"of {list(MESSAGE_LABELS)}")
        return cls(MESSAGE_LABELS.index(label))


_BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")
# f/y stand in for phi/psi in CSV headers
_BELL_ASCII = ("f+", "f-", "y+", "y-")


class SpinOrbitBellLabel(enum.IntEnum):
    """Single-photon spin-orbit Bell states, in canonical order."""

    PHI_PLUS = 0
    PHI_MINUS = 1
    PSI_PLUS = 2
    PSI_MINUS = 3

    @property
    def label(self) -> str:
        return _BELL_LABELS[self]

    @property
    def ascii(self) -> str:
        return _BELL_ASCII[self]


# All 16 (photon1, photon2) spin-orbit Bell pairs in canonical order:
# photon-1 label major, photon-2 label minor.
BELL_PAIRS = tuple(itertools.product(SpinOrbitBellLabel, repeat=2))

# Row l is the ket of label l in the (Hl, Hr, Vl, Vr) basis.
_BELL_KETS = np.array([[1, 0, 0, 1], [1, 0, 0, -1],
                       [0, 1, 1, 0], [0, 1, -1, 0]], dtype=complex) / math.sqrt(2.0)
# Row l1*4 + l2 is the product ket of the pair (l1, l2), photon-1 major.
_PAIR_KETS = np.kron(_BELL_KETS, _BELL_KETS)


@dataclass(frozen=True)
class SourceParams:
    """Source imperfection knobs.  Angles in radians, lambdas in [0, 1].

    eps_theta tilts the amplitude balance away from 1/sqrt(2), eps_phi
    adds a relative phase between the two terms, lambda mixes in white
    noise on the corresponding photon-pair degree of freedom.
    """

    eps_theta_spin: float = 0.0
    eps_phi_spin: float = 0.0
    lambda_spin: float = 0.0
    eps_theta_orbit: float = 0.0
    eps_phi_orbit: float = 0.0
    lambda_orbit: float = 0.0

    def __post_init__(self):
        _check_fields(self, "lambda")


# (first, last, sign): the ket cos(pi/4+t)|first> + sign e^(i p) sin(pi/4+t)|last>
_PAIR_MODELS = {"spin": (0, 3, -1.0), "orbit": (1, 2, 1.0)}


def _model_kets(which: str, eps_theta, eps_phi) -> np.ndarray:
    first, last, sign = _PAIR_MODELS[which]
    t = np.asarray(eps_theta, dtype=float)
    cos_t, sin_t = np.cos(t), np.sin(t)
    psi = np.zeros((len(t), 4), dtype=complex)
    # cos(pi/4 + t) and sin(pi/4 + t), both exactly sqrt(1/2) at t = 0, so
    # the ideal source carries no rounding residue
    psi[:, first] = (cos_t - sin_t) * math.sqrt(0.5)
    psi[:, last] = (cos_t + sin_t) * math.sqrt(0.5)
    psi[:, last] *= sign * np.exp(1j * np.asarray(eps_phi))
    return psi


def _interleave_ket(psi: np.ndarray) -> np.ndarray:
    # (s1, s2, o1, o2) -> (s1, o1, s2, o2)
    return psi.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(16)


def build_source(params: SourceParams) -> np.ndarray:
    """Source state with tilt, phase and white-noise imperfections applied.

    The spin and orbit pair states are prepared independently and
    depolarized with their own weights, then combined into the common
    16-dim ordering.
    """
    return build_source_stack(
        *([getattr(params, f.name)] for f in fields(SourceParams)))[0]


def _pair_density_stack(which: str, eps_theta, eps_phi, lam) -> np.ndarray:
    # white noise (1 - lam)|psi><psi| + lam I/4 for each row of _model_kets
    psi = _model_kets(which, eps_theta, eps_phi)
    lam = np.asarray(lam, dtype=float)[:, None, None]
    rho = (1.0 - lam) * (psi[:, :, None] * psi[:, None, :].conj())
    return rho + lam * np.eye(4) / 4.0


def build_source_stack(eps_theta_spin, eps_phi_spin, lambda_spin,
                       eps_theta_orbit, eps_phi_orbit, lambda_orbit) -> np.ndarray:
    """build_source for a stack of settings given as equal-length arrays.

    Returns shape (n, 16, 16), one source per setting.  The parameters
    are not range-checked here.
    """
    spin = _pair_density_stack("spin", eps_theta_spin, eps_phi_spin,
                               lambda_spin).reshape(-1, 2, 2, 2, 2)
    orbit = _pair_density_stack("orbit", eps_theta_orbit, eps_phi_orbit,
                                lambda_orbit).reshape(-1, 2, 2, 2, 2)
    # [s1 s2 s1' s2'] x [o1 o2 o1' o2'] -> [s1 o1 s2 o2 s1' o1' s2' o2']
    rho = np.einsum("nabcd,nefgh->naebfcgdh", spin, orbit)
    return rho.reshape(-1, 16, 16)


# Row m is the sender's Pauli for message m on photon 2's spin, with the
# identity on its orbit, in the (Hl, Hr, Vl, Vr) basis: Z, I, XZ and X
# for (Phi+, Phi-, Psi+, Psi-), the order of Message.
_ENCODINGS = np.array([np.kron(pauli, np.eye(2)) for pauli in
                       ([[1, 0], [0, -1]], np.eye(2), [[0, -1], [1, 0]], [[0, 1], [1, 0]])],
                      dtype=complex)


def encode(rho: np.ndarray, message: Message) -> np.ndarray:
    """Apply the sender's Pauli operation for `message` to the source state."""
    k = np.kron(np.eye(4), _ENCODINGS[Message(message)])
    return k @ np.asarray(rho, dtype=complex) @ k.conj().T


def encoded_ket(message: Message) -> np.ndarray:
    """Pure state the receiver sees when `message` rides the ideal source."""
    ideal = _interleave_ket(np.kron(_model_kets("spin", [0.0], [0.0])[0],
                                    _model_kets("orbit", [0.0], [0.0])[0]))
    return np.kron(np.eye(4), _ENCODINGS[Message(message)]) @ ideal


def spin_orbit_decompose(psi: np.ndarray) -> np.ndarray:
    """Amplitudes of a 16-dim ket in the spin-orbit Bell pair basis.

    Returns a (4, 4) complex array indexed [photon1 label, photon2 label]
    with SpinOrbitBellLabel values as indices.
    """
    psi = np.asarray(psi, dtype=complex).ravel()
    if psi.shape != (16,):
        raise ValueError(f"expected a 16-dim ket, got shape {psi.shape}")
    # one dot per row: _PAIR_KETS.conj() @ psi differs in the last ulp
    return np.array([k.conj() @ psi for k in _PAIR_KETS]).reshape(4, 4)


def message_of_pair(label1: SpinOrbitBellLabel,
                    label2: SpinOrbitBellLabel) -> Message:
    """The message whose signature set contains the given detected pair.

    With labels indexed (phi+, phi-, psi+, psi-) and messages (Phi+, Phi-,
    Psi+, Psi-), the rule is Message(label1 ^ label2 ^ 2): Phi messages
    pair a phi with a psi, Psi messages pair equal letters, and the +
    messages pair equal signs.
    """
    return Message(label1 ^ label2 ^ 2)


# PAIR_SIGNATURES[k, m] = 1 when pair column k, BELL_PAIRS[k], signals
# message m, so counts @ PAIR_SIGNATURES sums each message's four pairs.
PAIR_SIGNATURES = np.eye(4)[[message_of_pair(l1, l2) for l1, l2 in BELL_PAIRS]]

