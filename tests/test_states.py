from __future__ import annotations

import math

import numpy as np
import pytest

from hyperdense import states
from hyperdense.states import Message, SpinOrbitBellLabel

from _oracles import (
    check_density,
    linear_entropy,
    orbit_marginal,
    pair_model_density,
    purity,
    random_ket,
    spin_marginal,
    tangle,
)

_DEG = math.pi / 180.0
_SQRT2 = math.sqrt(2.0)


def _model_ket(which: str, eps_theta: float, eps_phi: float) -> np.ndarray:
    # one row of the source model's pair kets
    return states._model_kets(which, [eps_theta], [eps_phi])[0]


def test_message_enum():
    assert [m.label for m in states.MESSAGES] == ["Phi+", "Phi-", "Psi+", "Psi-"]
    assert [int(m) for m in states.MESSAGES] == [0, 1, 2, 3]
    assert Message.from_label("Psi-") is Message.PSI_MINUS
    with pytest.raises(ValueError):
        Message.from_label("Chi+")


def test_spin_orbit_bell_kets():
    # single-photon basis order (Hl, Hr, Vl, Vr)
    want = {
        SpinOrbitBellLabel.PHI_PLUS: [1, 0, 0, 1],
        SpinOrbitBellLabel.PHI_MINUS: [1, 0, 0, -1],
        SpinOrbitBellLabel.PSI_PLUS: [0, 1, 1, 0],
        SpinOrbitBellLabel.PSI_MINUS: [0, 1, -1, 0],
    }
    for label, amps in want.items():
        ket = states._BELL_KETS[label]
        assert np.allclose(ket, np.array(amps) / _SQRT2, atol=1e-15)
    for a in states.BELL_LABELS:
        for b in states.BELL_LABELS:
            overlap = np.vdot(states._BELL_KETS[a], states._BELL_KETS[b])
            assert abs(overlap - (1.0 if a == b else 0.0)) < 1e-15


def test_model_spin_state():
    assert np.allclose(_model_ket("spin", 0.0, 0.0),
                       [1 / _SQRT2, 0, 0, -1 / _SQRT2], atol=1e-15)
    boundary = _model_ket("spin", math.pi / 4.0, 0.0)
    assert abs(abs(boundary[3]) - 1.0) < 1e-12
    assert np.linalg.norm(boundary[:3]) < 1e-12
    tilted = _model_ket("spin", 1.0 * _DEG, 0.0)
    assert np.allclose(
        tilted,
        [0.6946583704589973, 0.0, 0.0, -0.7193398003386511],
        atol=1e-15,
    )
    phased = _model_ket("spin", 0.0, 0.3)
    assert abs(phased[3] - (-np.exp(0.3j) / _SQRT2)) < 1e-15


def test_model_orbit_state():
    assert np.allclose(_model_ket("orbit", 0.0, 0.0),
                       [0, 1 / _SQRT2, 1 / _SQRT2, 0], atol=1e-15)
    flipped = _model_ket("orbit", 0.0, math.pi)
    assert np.allclose(flipped, [0, 1 / _SQRT2, -1 / _SQRT2, 0], atol=1e-12)
    tilted = _model_ket("orbit", 1.7 * _DEG, 0.0)
    assert np.allclose(
        tilted,
        [0.0, 0.6858183529273763, 0.7277727576572105, 0.0],
        atol=1e-15,
    )


def test_source_params_validation():
    with pytest.raises(ValueError):
        states.SourceParams(lambda_spin=-0.2)
    with pytest.raises(ValueError):
        states.SourceParams(lambda_orbit=1.2)
    with pytest.raises(ValueError):
        states.SourceParams(eps_theta_spin=math.inf)
    with pytest.raises(ValueError, match="lambda_spin must be a real number, got True"):
        states.SourceParams(lambda_spin=True)
    with pytest.raises(ValueError, match="eps_theta_spin must be a real number, got 'x'"):
        states.SourceParams(eps_theta_spin="x")
    stored = states.SourceParams(eps_phi_orbit=np.float32(0.5)).eps_phi_orbit
    assert type(stored) is float and stored == 0.5


def test_ideal_source():
    rho = states.build_source(states.SourceParams())
    check_density(rho)
    assert abs(purity(rho) - 1.0) < 1e-12
    # (|HH> - |VV>)/sqrt2 x (|lr> + |rl>)/sqrt2 in subsystem order
    # (spin1, orbit1, spin2, orbit2); |H l H r> sits at index 1
    want = np.zeros(16, dtype=complex)
    want[0b0001] = 0.5   # H l H r
    want[0b0100] = 0.5   # H r H l
    want[0b1011] = -0.5  # V l V r
    want[0b1110] = -0.5  # V r V l
    assert abs(np.vdot(want, rho @ want).real - 1.0) < 1e-12
    ket = states.encoded_ket(Message.PHI_MINUS)
    assert abs(ket[1] - 0.5) < 1e-15


def test_build_source_marginals():
    spin_only = states.build_source(states.SourceParams(
        eps_theta_spin=1.0 * _DEG, lambda_spin=0.010))
    spin = spin_marginal(spin_only)
    assert abs(tangle(spin) - 0.9690372936423481) < 1e-9
    assert np.allclose(orbit_marginal(spin_only),
                       pair_model_density("orbit", 0.0, 0.0, 0.0), atol=1e-12)

    orbit_only = states.build_source(states.SourceParams(
        eps_theta_orbit=1.7 * _DEG, lambda_orbit=0.03))
    orbit = orbit_marginal(orbit_only)
    assert abs(linear_entropy(orbit) - 0.0591) < 1e-12

    # marginals reproduce the depolarized pair models directly
    both = states.build_source(states.SourceParams(
        eps_theta_spin=1.0 * _DEG, eps_phi_spin=0.2, lambda_spin=0.010,
        eps_theta_orbit=1.7 * _DEG, eps_phi_orbit=-0.4, lambda_orbit=0.03))
    want_spin = pair_model_density("spin", 1.0 * _DEG, 0.2, 0.010)
    want_orbit = pair_model_density("orbit", 1.7 * _DEG, -0.4, 0.03)
    assert np.allclose(spin_marginal(both), want_spin, atol=1e-12)
    assert np.allclose(orbit_marginal(both), want_orbit, atol=1e-12)


def test_build_source_always_valid_density():
    rng = np.random.default_rng(31)
    for _ in range(50):
        params = states.SourceParams(
            eps_theta_spin=rng.uniform(-0.5, 0.5),
            eps_phi_spin=rng.uniform(-math.pi, math.pi),
            lambda_spin=rng.uniform(0.0, 1.0),
            eps_theta_orbit=rng.uniform(-0.5, 0.5),
            eps_phi_orbit=rng.uniform(-math.pi, math.pi),
            lambda_orbit=rng.uniform(0.0, 1.0),
        )
        check_density(states.build_source(params))


def test_encode():
    ideal = states.build_source(states.SourceParams())
    assert np.allclose(states.encode(ideal, Message.PHI_MINUS), ideal, atol=1e-15)

    # Psi+ encoding lands on the spin triplet state
    psi_plus_spin = np.zeros(4, dtype=complex)
    psi_plus_spin[1] = psi_plus_spin[2] = 1 / _SQRT2
    want = states._interleave_ket(np.kron(
        psi_plus_spin, _model_ket("orbit", 0.0, 0.0)))
    got = states.encode(ideal, Message.PSI_PLUS)
    assert abs(np.vdot(want, got @ want).real - 1.0) < 1e-12

    twice = states.encode(states.encode(ideal, Message.PHI_PLUS), Message.PHI_PLUS)
    assert np.allclose(twice, ideal, atol=1e-12)

    mixed = states.build_source(states.SourceParams(lambda_spin=0.4, lambda_orbit=0.1))
    for m in states.MESSAGES:
        out = states.encode(mixed, m)
        assert abs(purity(out) - purity(mixed)) < 1e-12
        assert np.allclose(np.linalg.eigvalsh(out), np.linalg.eigvalsh(mixed),
                           atol=1e-10)


def test_encoded_ket_matches_encode():
    ideal = states.build_source(states.SourceParams())
    for m in states.MESSAGES:
        ket = states.encoded_ket(m)
        assert np.allclose(np.outer(ket, ket.conj()),
                           states.encode(ideal, m), atol=1e-12)


def test_encoded_states_mutually_orthogonal():
    kets = [states.encoded_ket(m) for m in states.MESSAGES]
    for i in range(4):
        for j in range(4):
            want = 1.0 if i == j else 0.0
            assert abs(np.vdot(kets[i], kets[j]) - want) < 1e-12


def test_decompose_is_isometry():
    rng = np.random.default_rng(41)
    for _ in range(100):
        psi = random_ket(rng, 16)
        amps = states.spin_orbit_decompose(psi)
        assert amps.shape == (4, 4)
        assert abs(np.sum(np.abs(amps) ** 2) - 1.0) < 1e-12
    with pytest.raises(ValueError, match=r"expected a 16-dim ket, got shape \(8,\)"):
        states.spin_orbit_decompose(np.ones(8) / math.sqrt(8.0))


def test_decompose_product_basis_ket():
    psi = states._PAIR_KETS[SpinOrbitBellLabel.PHI_PLUS * 4
                            + SpinOrbitBellLabel.PHI_PLUS]
    amps = states.spin_orbit_decompose(psi)
    assert abs(amps[0, 0] - 1.0) < 1e-12
    assert np.sum(np.abs(amps)) - abs(amps[0, 0]) < 1e-12


def test_decompose_signatures_and_signs():
    # fixed sign conventions for the four encoded states, photon-1 major:
    # rows phi+, phi-, psi+, psi- by label index
    want = {
        Message.PHI_PLUS: {(0, 2): 0.5, (1, 3): 0.5, (2, 0): 0.5, (3, 1): 0.5},
        Message.PHI_MINUS: {(0, 3): 0.5, (1, 2): 0.5, (2, 1): 0.5, (3, 0): 0.5},
        Message.PSI_PLUS: {(0, 0): 0.5, (1, 1): -0.5, (2, 2): 0.5, (3, 3): -0.5},
        Message.PSI_MINUS: {(0, 1): -0.5, (1, 0): 0.5, (2, 3): -0.5, (3, 2): 0.5},
    }
    for m, entries in want.items():
        amps = states.spin_orbit_decompose(states.encoded_ket(m))
        for (i, j), value in entries.items():
            assert abs(amps[i, j] - value) < 1e-12
        mask = np.ones((4, 4), dtype=bool)
        for idx in entries:
            mask[idx] = False
        assert np.max(np.abs(amps[mask])) < 1e-12


def test_pair_messages_partition_and_match_decomposition():
    seen = set()
    for m in states.MESSAGES:
        pairs = {pair for pair, pm in zip(states.BELL_PAIRS, states.PAIR_MESSAGES)
                 if pm == m}
        assert len(pairs) == 4
        assert not (pairs & seen)
        seen |= pairs
        amps = states.spin_orbit_decompose(states.encoded_ket(m))
        support = {(SpinOrbitBellLabel(i), SpinOrbitBellLabel(j))
                   for i in range(4) for j in range(4)
                   if abs(amps[i, j]) > 1e-12}
        assert support == pairs
    assert len(seen) == 16
    for l1, l2 in seen:
        m = states.message_of_pair(l1, l2)
        assert states.PAIR_MESSAGES[l1 * 4 + l2] == m
    # the engine reads its (l2, l1)-major pairs with the same table
    table = states.PAIR_MESSAGES.reshape(4, 4)
    assert np.array_equal(table, table.T)

