"""The batched Monte Carlo engine against the single-point path.

montecarlo.run samples draws as columns, builds their transfer matrices
in one stacked Heisenberg-picture pass and solves their capacities in
one stacked Blahut-Arimoto run.  Each piece is compared here with a
single-point route: sample_params, the Schroedinger-picture analyzer and
the plain Blahut-Arimoto loop in _oracles.  The stacked solver is that
loop bit for bit on every solve the loop finishes within WARM_UP
iterations; beyond them it over-relaxes, and must converge wherever the
loop does, in no more iterations, to a capacity the test certifies
itself.  build_source, analyzer_unitary and transfer_matrix are
one-setting calls of the stacked builders, so the stacked source,
analyzer unitary and matrix are compared with the formulas in _oracles
instead, and each stacked row with its one-setting call bit for bit.
The sampler's stream layout is pinned too: a knob draws the same values
in every scenario that samples it alike.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdense import montecarlo as mc
from hyperdense.capacity import (
    WARM_UP,
    average_success,
    bound_curve,
    channel_capacity,
    channel_capacity_stack,
    mutual_information,
)
from hyperdense.optics import (
    DEFAULT_ACCIDENTAL_FRACTION,
    AccidentalModel,
    GateParams,
    analyzer_unitary_stack,
    apply_accidentals,
    transfer_matrix,
    transfer_matrix_stack,
)
from hyperdense.states import SourceParams, build_source_stack

from _oracles import (
    analyzer_unitary,
    blahut_arimoto,
    bound_channel,
    divergences,
    schroedinger_transfer_matrix,
    source_density,
)

_ANGLE = st.floats(-math.pi, math.pi)
_WEIGHT = st.floats(0.0, 1.0)

_SETTING = st.fixed_dictionaries({
    "eps_theta_spin": st.floats(-math.pi / 2, math.pi / 2),
    "eps_phi_spin": _ANGLE,
    "lambda_spin": _WEIGHT,
    "eps_theta_orbit": st.floats(-math.pi / 2, math.pi / 2),
    "eps_phi_orbit": _ANGLE,
    "lambda_orbit": _WEIGHT,
    "eps_H": _WEIGHT,
    "eps_V": _WEIGHT,
    "phi1": st.floats(-2 * math.pi, 2 * math.pi),
    "phi2": st.floats(-2 * math.pi, 2 * math.pi),
    "accidental_fraction": st.floats(0.0, 0.99),
})

_SOURCE_FIELDS = ("eps_theta_spin", "eps_phi_spin", "lambda_spin",
                  "eps_theta_orbit", "eps_phi_orbit", "lambda_orbit")
_GATE_FIELDS = ("eps_H", "eps_V", "phi1", "phi2")


def _columns(settings_list, fields):
    return [np.array([s[f] for s in settings_list]) for f in fields]


def _scalar_matrix(setting) -> np.ndarray:
    source = SourceParams(**{f: setting[f] for f in _SOURCE_FIELDS})
    gate = GateParams(**{f: setting[f] for f in _GATE_FIELDS})
    t = transfer_matrix(source, gate)
    t = apply_accidentals(t, AccidentalModel(setting["accidental_fraction"]))
    return t.probabilities


@settings(max_examples=60, deadline=None)
@given(st.lists(_SETTING, min_size=1, max_size=6))
def test_stacked_matrices_match_transfer_matrix(settings_list):
    rho = build_source_stack(*_columns(settings_list, _SOURCE_FIELDS))
    u = analyzer_unitary_stack(*_columns(settings_list, _GATE_FIELDS))
    p = transfer_matrix_stack(rho, u)
    assert p.shape == (len(settings_list), 4, 4)
    for k, s in enumerate(settings_list):
        source = SourceParams(**{f: s[f] for f in _SOURCE_FIELDS})
        gate = GateParams(**{f: s[f] for f in _GATE_FIELDS})
        want_rho = source_density(*(s[f] for f in _SOURCE_FIELDS))
        assert np.max(np.abs(rho[k] - want_rho)) < 1e-15
        assert np.array_equal(u[k], analyzer_unitary(*(s[f] for f in _GATE_FIELDS)))
        want = schroedinger_transfer_matrix(*(s[f] for f in _SOURCE_FIELDS + _GATE_FIELDS))
        assert np.max(np.abs(p[k] - want)) < 1e-12
        assert np.array_equal(transfer_matrix(source, gate).probabilities, p[k])


def _assert_matches_oracle(p, max_iterations=100_000):
    tol_bits = 1e-10
    caps, dists, iterations, converged, gaps = channel_capacity_stack(
        p, tol_bits, max_iterations)
    for k in range(len(p)):
        want = blahut_arimoto(p[k], tol_bits, max_iterations)
        if want[2] <= WARM_UP:
            # the warm-up is the plain loop, converged or capped
            assert (caps[k], iterations[k], converged[k]) == (want[0], *want[2:])
            assert np.array_equal(dists[k], want[1])
        elif want[3]:
            assert converged[k] and iterations[k] <= want[2]
            assert abs(caps[k] - want[0]) < tol_bits
        # the reported capacity is I at the returned distribution, and the
        # reported gap is its bracket, recomputed here
        assert abs(mutual_information(dists[k], p[k]) - caps[k]) < 1e-12
        upper = divergences(dists[k], p[k]).max()
        assert abs(upper - caps[k] - gaps[k]) < 1e-12
        if converged[k]:
            assert upper - caps[k] < tol_bits
    return caps, dists, iterations, converged, gaps


@settings(max_examples=60, deadline=None)
@given(st.lists(_SETTING, min_size=1, max_size=6),
       st.sampled_from([3, 40, 400]))
def test_stacked_capacities_match_channel_capacity(settings_list, max_iterations):
    # channels from the physical model, with accidentals; a low iteration
    # cap exercises the unconverged branch
    p = np.array([_scalar_matrix(s) for s in settings_list])
    caps, dists, iterations, converged, gaps = _assert_matches_oracle(p, max_iterations)
    one = channel_capacity(p[0], max_iterations=max_iterations)
    assert (one.capacity_bits, one.iterations, one.converged, one.gap_bits) == (
        caps[0], iterations[0], converged[0], gaps[0])
    assert np.array_equal(one.input_distribution, dists[0])


def test_stacked_capacities_of_random_channels():
    rng = np.random.default_rng(5)
    for m in (2, 3, 4):
        p = rng.random((40, m, m)) ** 3
        p /= p.sum(axis=1, keepdims=True)
        for max_iterations in (3, 40, 400):
            _assert_matches_oracle(p, max_iterations)
        # one iteration past the warm-up: open channels return their best point
        converged = _assert_matches_oracle(p, WARM_UP + 1)[3]
        assert converged.any() and not converged.all()
    # sparse channels: exact zeros, and in half of them an output that no
    # input reaches, where the solver takes log q(y) as 0
    rng = np.random.default_rng(11)
    for m in (2, 3, 4):
        p = rng.random((60, m, m))
        p[rng.random((60, m, m)) < 0.5] = 0.0
        p[:30, m - 1] = 0.0
        p[:, 0] += p.sum(axis=1) == 0.0  # an input left with no output takes output 0
        p /= p.sum(axis=1, keepdims=True)
        for max_iterations in (3, 40, 400, 100_000):
            _assert_matches_oracle(p, max_iterations)


def test_bound_curves_match_oracle():
    # bound_curve evaluates closed forms; the solvers, stacked and plain,
    # solve the bound channels themselves and must agree with them
    for encoding in (4, 3):
        for which in ("lower", "upper"):
            curve = bound_curve(encoding, which, resolution=50)
            channels = np.stack([bound_channel(encoding, which, p_s)
                                 for p_s in curve[:, 0]])
            solved = channel_capacity_stack(channels)[0]
            for channel, c, formula in zip(channels, solved, curve[:, 1]):
                assert c == blahut_arimoto(channel)[0]
                assert abs(formula - c) < 1e-12


def _reference_draw(scenario: mc.McScenario, i: int) -> dict:
    """One draw by the per-knob scalar rule: clamp, accidental default, radians."""
    z = mc._standard_normals(scenario.seed, i, len(mc.PARAMS))
    out = {}
    for j, p in enumerate(mc.PARAMS):
        v = 0.0
        if p.group in scenario.active:
            d = scenario.distributions.get(p.key)
            if d is not None:
                lo, hi = p.clamp
                v = min(max(d.mean + d.sigma * float(z[j]), lo), hi)
            elif p.group == "accidentals":
                v = DEFAULT_ACCIDENTAL_FRACTION
        out[p.field] = math.radians(v) if p.key.endswith("_deg") else v
    return out


_SAMPLED_KEYS = [p.key for p in mc.PARAMS]


@st.composite
def _scenarios(draw):
    keys = draw(st.lists(st.sampled_from(_SAMPLED_KEYS), unique=True))
    dists = {k: mc.ParamDistribution(draw(st.floats(-200.0, 200.0)),
                                     draw(st.floats(0.0, 100.0)))
             for k in keys}
    active = draw(st.frozensets(st.sampled_from(mc.IMPERFECTION_GROUPS)))
    seed = draw(st.integers(-2**63, 2**64 - 1))
    return mc.McScenario("random", active, dists, 1, seed)


@settings(max_examples=80, deadline=None)
@given(_scenarios(), st.integers(0, 2**40), st.integers(1, 5))
def test_columnar_sampler_matches_per_draw_rule(scenario, start, count):
    columns = mc._sample_columns(scenario, start, start + count)
    for k in range(count):
        want = _reference_draw(scenario, start + k)
        record = mc.sample_params(scenario, start + k)
        for field, value in want.items():
            assert columns[field][k] == value, field
            assert getattr(record, field) == value, field
            assert type(getattr(record, field)) is float


def _group_fields(group: str) -> list:
    return [p.field for p in mc.PARAMS if p.group == group]


@pytest.mark.parametrize("name", ["spin", "orbit", "crosstalk", "accidentals"])
def test_single_group_draws_equal_the_joint_scenario(monkeypatch, name):
    # the PARAMS stream layout: a knob's value in draw i does not depend
    # on which other groups are active
    single, joint = mc.builtin_scenario(name), mc.builtin_scenario("all")
    (group,) = single.active
    want = mc._sample_columns(joint, 0, 300)
    got = mc._sample_columns(single, 0, 300)
    for field in _group_fields(group):
        assert np.array_equal(got[field], want[field]), field
    # run's blocks, here 7 draws each, draw the same values across block edges
    blocks = []
    sample = mc._sample_columns
    monkeypatch.setattr(mc, "_sample_columns",
                        lambda *args: blocks.append(sample(*args)) or blocks[-1])
    monkeypatch.setattr(mc, "_BLOCK", 7)
    mc.run(dataclasses.replace(single, iterations=20))
    assert len(blocks) == 3
    for field in _group_fields(group):
        got = np.concatenate([c[field] for c in blocks])
        assert np.array_equal(got, want[field][:20]), field


@settings(max_examples=60, deadline=None)
@given(_scenarios(), _scenarios(), st.sampled_from(_SAMPLED_KEYS),
       st.floats(-200.0, 200.0), st.floats(0.0, 100.0), st.integers(0, 2**40))
def test_scenarios_sharing_a_knob_draw_equal_values(a, b, key, mean, sigma, start):
    (param,) = [p for p in mc.PARAMS if p.key == key]
    shared = mc.ParamDistribution(mean, sigma)
    seed = a.seed
    a, b = [dataclasses.replace(s, active=s.active | {param.group}, seed=seed,
                                distributions={**s.distributions, key: shared})
            for s in (a, b)]
    got = mc._sample_columns(a, start, start + 3)[param.field]
    assert np.array_equal(got, mc._sample_columns(b, start, start + 3)[param.field])


def _phase_scenario() -> mc.McScenario:
    # PBS reflection phases a few degrees off, on top of the crosstalk budget
    return mc.McScenario("phases", {"pbs-crosstalk", "accidentals"}, {
        **mc.builtin_scenario("crosstalk").distributions,
        "gate.phi1_deg": mc.ParamDistribution(3.0, 2.0),
        "gate.phi2_deg": mc.ParamDistribution(-1.0, 4.0)})


@pytest.mark.parametrize("name", [s.name for s in mc.default_scenarios()] + ["phases"])
def test_run_over_several_blocks_matches_per_draw_path(monkeypatch, name):
    base = _phase_scenario() if name == "phases" else mc.builtin_scenario(name)
    scenario = mc.McScenario(name, base.active, base.distributions, 11, seed=31)
    whole = mc.run(scenario)
    monkeypatch.setattr(mc, "_BLOCK", 4)
    blocks = mc.run(scenario)
    assert np.array_equal(blocks.capacity_bits, whole.capacity_bits)
    assert np.array_equal(blocks.success_probability, whole.success_probability)
    draws = [mc.sample_params(scenario, i) for i in range(scenario.iterations)]
    for i, params in enumerate(draws):
        t = transfer_matrix(params.source_params(), params.gate_params())
        if "accidentals" in scenario.active:
            t = apply_accidentals(t, params.accidental_model())
        assert abs(blocks.capacity_bits[i] - channel_capacity(t).capacity_bits) < 1e-12
        assert abs(blocks.success_probability[i] - average_success(t)) < 1e-12
    # the phases move exactly when a distribution is given for them
    assert any(d.phi1 or d.phi2 for d in draws) == (name == "phases")
