from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdense import cli, optics, states
from hyperdense.optics import AccidentalModel, GateParams, TransferMatrix
from hyperdense.states import Message, SourceParams, SpinOrbitBellLabel

from _oracles import pair_flip_probability, pbs_phase_channel, source_channel

_DEG = math.pi / 180.0
_SQRT2 = math.sqrt(2.0)


def _random_gate(rng) -> GateParams:
    return GateParams(
        eps_H=rng.uniform(0.0, 1.0),
        eps_V=rng.uniform(0.0, 1.0),
        phi1=rng.uniform(-math.pi, math.pi),
        phi2=rng.uniform(-math.pi, math.pi),
    )


def test_gate_params_validation():
    with pytest.raises(ValueError):
        GateParams(eps_H=-0.1)
    with pytest.raises(ValueError):
        GateParams(eps_V=1.1)
    with pytest.raises(ValueError):
        GateParams(phi1=math.nan)
    with pytest.raises(ValueError):
        AccidentalModel(fraction=1.0)
    with pytest.raises(ValueError, match=r"accidental fraction must lie in \[0, 1\), got -0.1"):
        AccidentalModel(fraction=-0.1)
    with pytest.raises(ValueError, match="eps_H must be a real number, got True"):
        GateParams(eps_H=True)
    with pytest.raises(ValueError, match="accidental fraction must be a real number, got '0.1'"):
        AccidentalModel(fraction="0.1")


def test_hologram_map():
    h = optics._HOLOGRAM
    assert np.allclose(h.conj().T @ h, np.eye(4), atol=1e-12)
    # columns (Hl, Hr, Vl, Vr) -> outputs (Ha, Hb, Va, Vb)
    assert np.array_equal(h[:, 0], [1, 0, 0, 0])
    assert np.array_equal(h[:, 1], [0, -1, 0, 0])
    assert np.array_equal(h[:, 2], [0, 0, 1, 0])
    assert np.array_equal(h[:, 3], [0, 0, 0, -1])


def test_pbs_matrix_ideal_and_boundary():
    # the PBS alone: the hologram is diagonal with entries +-1, its own inverse
    h = optics._HOLOGRAM
    ideal = optics.analyzer_unitary(GateParams()) @ h
    assert np.allclose(ideal[0:2, 0:2], np.eye(2), atol=1e-15)
    assert np.allclose(ideal[2:4, 2:4], [[0, -1], [1, 0]], atol=1e-15)
    assert np.max(np.abs(ideal[0:2, 2:4])) == 0.0

    flipped = optics.analyzer_unitary(GateParams(eps_H=1.0)) @ h
    assert np.allclose(flipped[0:2, 0:2], [[0, -1], [1, 0]], atol=1e-15)


def test_pbs_matrix_unitary_for_random_params():
    rng = np.random.default_rng(19)
    for _ in range(50):
        u = optics.analyzer_unitary(_random_gate(rng)) @ optics._HOLOGRAM
        assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)


def test_analyzer_routes_bell_states_to_modes():
    u = optics.analyzer_unitary(GateParams())
    assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)
    # phi+ exits in mode a with diagonal polarization
    out = u @ states._BELL_KETS[SpinOrbitBellLabel.PHI_PLUS]
    assert np.allclose(out, [1 / _SQRT2, 0, 1 / _SQRT2, 0], atol=1e-12)
    # phi- exits in mode a, psi+- exit in mode b (indices 1 and 3)
    out = u @ states._BELL_KETS[SpinOrbitBellLabel.PHI_MINUS]
    assert abs(out[1]) < 1e-12 and abs(out[3]) < 1e-12
    for label in (SpinOrbitBellLabel.PSI_PLUS, SpinOrbitBellLabel.PSI_MINUS):
        out = u @ states._BELL_KETS[label]
        assert abs(out[0]) < 1e-12 and abs(out[2]) < 1e-12


def test_two_photon_gate():
    rng = np.random.default_rng(29)
    g = _random_gate(rng)
    u2 = optics.two_photon_gate(g)
    assert u2.shape == (16, 16)
    assert np.allclose(u2.conj().T @ u2, np.eye(16), atol=1e-12)
    assert np.allclose(u2, np.kron(optics.analyzer_unitary(g),
                                   optics.analyzer_unitary(g)), atol=1e-15)


def test_pair_readout_is_complete():
    readout = np.kron(optics._READOUT, optics._READOUT)
    signatures = states.PAIR_SIGNATURES
    assert np.allclose(readout @ readout.conj().T, np.eye(16), atol=1e-12)
    assert signatures.shape == (16, 4)
    assert np.array_equal(signatures.sum(axis=0), [4, 4, 4, 4])
    assert np.array_equal(signatures.sum(axis=1), np.ones(16))
    # each message's detection projector: the sum over its pairs' images
    projectors = [readout[own].conj().T @ readout[own]
                  for own in signatures.T.astype(bool)]
    assert len(projectors) == 4
    total = np.zeros((16, 16), dtype=complex)
    for p in projectors:
        assert np.allclose(p, p.conj().T, atol=1e-12)
        assert np.allclose(p @ p, p, atol=1e-12)
        assert abs(np.trace(p).real - 4.0) < 1e-12
        total += p
    assert np.allclose(total, np.eye(16), atol=1e-12)

    u = optics.two_photon_gate(GateParams())
    for m in states.Message:
        rho = states.encode(states.build_source(states.SourceParams()), m)
        analyzed = u @ rho @ u.conj().T
        pairs = np.einsum("ki,ij,kj->k", readout, analyzed, readout.conj()).real
        assert abs(pairs @ signatures[:, m] - 1.0) < 1e-12
        assert abs(np.trace(projectors[m] @ analyzed).real - 1.0) < 1e-12


def test_transfer_matrix_ideal_is_identity():
    # exactly: the ideal source and analyzer leave no rounding residue
    t = optics.transfer_matrix(SourceParams(), GateParams())
    assert np.array_equal(t.probabilities, np.eye(4))


def test_transfer_matrix_reference_points():
    xtalk = optics.transfer_matrix(SourceParams(),
                                   GateParams(eps_H=0.005, eps_V=0.010))
    assert abs(np.mean(np.diag(xtalk.probabilities)) - 0.985) < 0.001

    spin = optics.transfer_matrix(
        SourceParams(eps_theta_spin=1.0 * _DEG, lambda_spin=0.010), GateParams())
    assert abs(np.mean(np.diag(spin.probabilities)) - 0.991) < 0.002


def test_transfer_matrix_columns_stochastic_random_draws():
    rng = np.random.default_rng(37)
    for _ in range(200):
        source = SourceParams(
            eps_theta_spin=rng.uniform(-0.3, 0.3),
            eps_phi_spin=rng.uniform(-math.pi, math.pi),
            lambda_spin=rng.uniform(0.0, 1.0),
            eps_theta_orbit=rng.uniform(-0.3, 0.3),
            eps_phi_orbit=rng.uniform(-math.pi, math.pi),
            lambda_orbit=rng.uniform(0.0, 1.0),
        )
        t = optics.transfer_matrix(source, _random_gate(rng))
        cols = t.probabilities.sum(axis=0)
        assert np.max(np.abs(cols - 1.0)) < 1e-9
        assert t.probabilities.min() >= 0.0


def test_transfer_matrix_global_phase_invariance():
    # a global phase on the source ket leaves the density matrix alone
    psi = states.encoded_ket(Message.PHI_MINUS)
    phased = np.exp(0.7j) * psi
    rho_phased = np.outer(phased, phased.conj())
    assert np.allclose(rho_phased, states.build_source(states.SourceParams()), atol=1e-12)


def test_single_group_composability():
    # explicitly zeroing the other group reproduces the single-group matrix
    orbit = SourceParams(eps_theta_orbit=1.7 * _DEG, lambda_orbit=0.03)
    joint = SourceParams(eps_theta_spin=0.0, eps_phi_spin=0.0, lambda_spin=0.0,
                         eps_theta_orbit=1.7 * _DEG, lambda_orbit=0.03)
    a = optics.transfer_matrix(orbit, GateParams())
    b = optics.transfer_matrix(joint, GateParams())
    assert np.array_equal(a.probabilities, b.probabilities)

    gate = GateParams(eps_H=0.005, eps_V=0.010, phi1=0.0, phi2=0.0)
    c = optics.transfer_matrix(SourceParams(), gate)
    d = optics.transfer_matrix(SourceParams(0.0, 0.0, 0.0, 0.0, 0.0, 0.0), gate)
    assert np.array_equal(c.probabilities, d.probabilities)


def test_crosstalk_diagonal_structure():
    # Phi diagonals decay monotonically with either crosstalk.  Psi
    # diagonals do not: the two coincidence paths interfere and
    # recombine perfectly at eps_H = eps_V, following
    # (sqrt((1-eH)(1-eV)) + sqrt(eH eV))^2.
    grid = np.linspace(0.0, 0.05, 6)
    for eps_v in grid:
        phi_diags = []
        for eps_h in grid:
            t = optics.transfer_matrix(SourceParams(),
                                       GateParams(eps_H=eps_h, eps_V=eps_v))
            d = np.diag(t.probabilities)
            phi_diags.append(d[:2])
            psi_want = (math.sqrt((1 - eps_h) * (1 - eps_v))
                        + math.sqrt(eps_h * eps_v)) ** 2
            assert np.allclose(d[2:], psi_want, atol=1e-12)
        assert np.all(np.diff(np.array(phi_diags), axis=0) <= 1e-12)
    for eps_h in grid:
        phi_diags = []
        for eps_v in grid:
            t = optics.transfer_matrix(SourceParams(),
                                       GateParams(eps_H=eps_h, eps_V=eps_v))
            phi_diags.append(np.diag(t.probabilities)[:2])
        assert np.all(np.diff(np.array(phi_diags), axis=0) <= 1e-12)
    balanced = optics.transfer_matrix(SourceParams(),
                                      GateParams(eps_H=0.04, eps_V=0.04))
    assert abs(balanced.probabilities[2, 2] - 1.0) < 1e-12
    assert abs(balanced.probabilities[3, 3] - 1.0) < 1e-12


def test_apply_accidentals():
    ident = TransferMatrix(np.eye(4))
    assert np.array_equal(
        optics.apply_accidentals(ident, AccidentalModel(0.0)).probabilities,
        np.eye(4))
    quarter = optics.apply_accidentals(ident, AccidentalModel(0.999999))
    assert np.max(np.abs(quarter.probabilities - 0.25)) < 1e-6

    t = optics.apply_accidentals(ident, AccidentalModel(0.00267))
    assert np.allclose(np.diag(t.probabilities), 0.9979975, atol=1e-12)
    assert abs(np.mean(np.diag(t.probabilities)) - 0.998) < 1e-4

    # simulate and montecarlo mix even at fraction 0, so it must be the
    # identity, also on the exact zeros of the ideal channel
    rng = np.random.default_rng(31)
    sources = [SourceParams()] + [SourceParams(*rng.uniform(0.0, 0.3, 6))
                                  for _ in range(20)]
    for source in sources:
        t = optics.transfer_matrix(source, _random_gate(rng))
        assert np.array_equal(
            optics.apply_accidentals(t, AccidentalModel(0.0)).probabilities,
            t.probabilities)


def test_transfer_matrix_validation():
    with pytest.raises(ValueError, match="4x4"):
        TransferMatrix(np.eye(3))
    with pytest.raises(ValueError, match="sum to 1"):
        TransferMatrix(np.eye(4) * 0.5)
    bad = np.eye(4).copy()
    bad[0, 0] = 1.5
    bad[1, 0] = -0.5
    with pytest.raises(ValueError, match="probabilities"):
        TransferMatrix(bad)
    with pytest.raises(ValueError, match="finite"):
        TransferMatrix(np.full((4, 4), np.nan))
    with pytest.raises(ValueError, match="empty"):
        optics.check_channel(np.zeros((0, 0)))
    # a checked matrix stays checked: the record holds a read-only copy
    caller = np.eye(4)
    t = TransferMatrix(caller)
    caller[:, 0] = [0.5, 0.9, 0.0, 0.0]
    assert np.array_equal(t.probabilities, np.eye(4))
    with pytest.raises(ValueError, match="read-only"):
        t.probabilities[0, 0] = math.nan


def test_check_channel_takes_stacks_and_reports_the_largest_deviation():
    good = np.stack([np.eye(4), np.full((4, 4), 0.25)])
    assert optics.check_channel(good) is good
    with pytest.raises(ValueError, match="columns must sum to 1 within 1e-9, "
                                         "largest deviation 0.5$"):
        optics.check_channel(np.stack([np.eye(4), 0.5 * np.eye(4)]))


def test_incomplete_detection_fails_in_the_analyzer(monkeypatch):
    # one message's column of the one signature table, which the analyzer
    # reads, scaled by 1.1: its row no longer completes the columns, and
    # the analyzer may not renormalize that away, called for one setting
    # or for a stack
    signatures = states.PAIR_SIGNATURES.copy()
    signatures[:, 1] *= 1.1
    monkeypatch.setattr(optics, "PAIR_SIGNATURES", signatures)
    match = "columns must sum to 1 within 1e-9, largest deviation"
    with pytest.raises(ValueError, match=match):
        optics.transfer_matrix(SourceParams(lambda_spin=0.5, lambda_orbit=0.5))
    rho = states.build_source_stack([0.0], [0.0], [0.5], [0.0], [0.0], [0.5])
    u = optics.analyzer_unitary_stack([0.0], [0.0], [0.0], [0.0])
    with pytest.raises(ValueError, match=match):
        optics.transfer_matrix_stack(rho, u)


def test_serialization_round_trips_bit_exact():
    t = optics.transfer_matrix(
        SourceParams(eps_theta_spin=1.0 * _DEG, eps_phi_spin=0.1,
                     lambda_spin=0.010, eps_theta_orbit=1.7 * _DEG,
                     eps_phi_orbit=-0.2, lambda_orbit=0.03),
        GateParams(eps_H=0.005, eps_V=0.010))
    t = optics.apply_accidentals(t, AccidentalModel(0.00267))

    back = json.loads(json.dumps(optics.to_json_dict(t)))
    assert back["labels"] == list(states.MESSAGE_LABELS)
    assert np.array_equal(back["p"], t.probabilities)

    rows = cli._matrix_csv(t, {}).splitlines()
    assert rows[0].split(",")[1:] == [f"sent_{lab}" for lab in states.MESSAGE_LABELS]
    assert [r.split(",")[0] for r in rows[1:]] == list(states.MESSAGE_LABELS)
    back = np.array([[float(c) for c in r.split(",")[1:]] for r in rows[1:]])
    assert np.array_equal(back, t.probabilities)


# --- closed-form channels ----------------------------------------------------

_SOURCE_SETTING = st.tuples(
    st.floats(-math.pi / 2, math.pi / 2), st.floats(-math.pi, math.pi), st.floats(0.0, 1.0),
    st.floats(-math.pi / 2, math.pi / 2), st.floats(-math.pi, math.pi), st.floats(0.0, 1.0))
_PHASES = st.tuples(st.floats(-2 * math.pi, 2 * math.pi),
                    st.floats(-2 * math.pi, 2 * math.pi))


def test_closed_forms_at_hand_worked_points():
    assert abs(pair_flip_probability(0.3, 0.7) - 0.184374) < 1e-6
    noisy = source_channel(0.0, 0.0, 0.2, 0.0, 0.0, 0.0)
    assert np.allclose(np.diag(noisy), 0.85, rtol=0, atol=1e-15)
    assert abs(pbs_phase_channel(0.4, 0.5)[1, 0] - 0.189195) < 1e-6
    assert np.array_equal(pbs_phase_channel(0.4, 0.5)[2:, 2:], np.eye(2))


@settings(max_examples=100, deadline=None)
@given(st.lists(_SOURCE_SETTING, min_size=1, max_size=8),
       st.floats(0.0, 0.99))
def test_source_channels_match_the_closed_form(settings_list, fraction):
    # an ideal gate: every flip and noise floor comes from the source
    n = len(settings_list)
    p = optics.transfer_matrix_stack(
        states.build_source_stack(*np.array(settings_list).T),
        optics.analyzer_unitary_stack(*np.zeros((4, n))))
    for k, setting in enumerate(settings_list):
        want = source_channel(*setting)
        assert np.max(np.abs(p[k] - want)) < 1e-14
        t = optics.transfer_matrix(SourceParams(*setting))
        assert np.max(np.abs(t.probabilities - want)) < 1e-14
        mixed = optics.apply_accidentals(t, AccidentalModel(fraction))
        assert np.max(np.abs(mixed.probabilities
                             - source_channel(*setting, fraction))) < 1e-14


@settings(max_examples=100, deadline=None)
@given(st.lists(_PHASES, min_size=1, max_size=8))
def test_pbs_phase_channels_match_the_closed_form(phases):
    n = len(phases)
    phi1, phi2 = np.array(phases).T
    p = optics.transfer_matrix_stack(
        states.build_source_stack(*np.zeros((6, n))),
        optics.analyzer_unitary_stack(np.zeros(n), np.zeros(n), phi1, phi2))
    for k, (a, b) in enumerate(phases):
        want = pbs_phase_channel(a, b)
        assert np.max(np.abs(p[k] - want)) < 1e-14
        t = optics.transfer_matrix(gate=GateParams(phi1=a, phi2=b))
        assert np.max(np.abs(t.probabilities - want)) < 1e-14
