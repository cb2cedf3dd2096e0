from __future__ import annotations

import json
import pickle
import re

import numpy as np
import pytest

from hyperdense import montecarlo as mc
from hyperdense.capacity import channel_capacity
from hyperdense.cli import load_scenario, parse_scenario_text, render_table
from hyperdense.optics import GateParams, transfer_matrix
from hyperdense.states import SourceParams

from _oracles import blahut_arimoto, crosstalk_channel, source_channel, symmetric_capacity


def test_standard_normals_are_deterministic():
    a = mc._standard_normals(7, 3, 9)
    b = mc._standard_normals(7, 3, 9)
    assert a.shape == (9,)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, mc._standard_normals(7, 4, 9))
    assert not np.array_equal(a, mc._standard_normals(8, 3, 9))


def test_standard_normals_moments():
    z = np.concatenate([mc._standard_normals(3, i, 9) for i in range(2000)])
    assert abs(z.mean()) < 0.03
    assert abs(z.std() - 1.0) < 0.02


def test_sample_params_deterministic():
    s = mc.builtin_scenario("all")
    p1 = mc.sample_params(s, 17)
    p2 = mc.sample_params(s, 17)
    assert p1 == p2
    assert p1 != mc.sample_params(s, 18)


def test_sample_params_respects_clamps():
    dists = {
        "gate.eps_H": mc.ParamDistribution(0.5, 50.0),
        "source.lambda_spin": mc.ParamDistribution(0.5, 50.0),
        "accidentals.fraction": mc.ParamDistribution(0.5, 50.0),
    }
    s = mc.McScenario("wild", frozenset(mc.IMPERFECTION_GROUPS), dists)
    for i in range(200):
        p = mc.sample_params(s, i)
        assert 0.0 <= p.eps_H <= 1.0
        assert 0.0 <= p.lambda_spin <= 1.0
        assert 0.0 <= p.accidental_fraction <= 0.99


def test_inactive_groups_sample_ideal():
    # the spin distribution must be ignored because its group is inactive
    dists = {"source.eps_theta_spin_deg": mc.ParamDistribution(30.0, 5.0)}
    s = mc.McScenario("orbit-only", frozenset({"source-orbit"}), dists)
    p = mc.sample_params(s, 0)
    assert p.eps_theta_spin == 0.0
    assert p.lambda_spin == 0.0
    assert p.eps_H == 0.0
    assert p.accidental_fraction == 0.0


def test_accidental_fraction_defaults_when_active():
    s = mc.McScenario("acc", frozenset({"accidentals"}))
    p = mc.sample_params(s, 0)
    assert p.accidental_fraction == mc.DEFAULT_ACCIDENTAL_FRACTION
    assert p.eps_theta_spin == 0.0


def test_scenario_validation_errors():
    with pytest.raises(ValueError, match="unknown imperfection groups"):
        mc.McScenario("bad", frozenset({"detector-jitter"}))
    with pytest.raises(ValueError, match="valid parameters"):
        mc.McScenario("bad", frozenset({"source-spin"}),
                      {"source.eps_theta_spin": mc.ParamDistribution(1.0)})
    with pytest.raises(ValueError, match="iterations"):
        mc.McScenario("bad", iterations=0)
    # a mean past the knob's clamp would put every draw on the clamp's edge
    for key, mean, clamp in [("source.lambda_spin", 5.0, "[0.0, 1.0]"),
                             ("gate.eps_H", -3.0, "[0.0, 1.0]"),
                             ("accidentals.fraction", 0.995, "[0.0, 0.99]"),
                             ("gate.phi1_deg", 180.5, "[-180.0, 180.0]")]:
        with pytest.raises(ValueError, match=re.escape(
                f"{key} mean must lie in {clamp}, got {mean}")):
            mc.McScenario("bad", distributions={key: mc.ParamDistribution(mean, 0.1)})
    # the clamp's edges are valid means
    mc.McScenario("ok", distributions={"source.eps_theta_spin_deg": mc.ParamDistribution(-90),
                                       "accidentals.fraction": mc.ParamDistribution(0.99)})
    with pytest.raises(ValueError, match="sigma"):
        mc.ParamDistribution(0.0, -1.0)
    for args, name in [(("0.1",), "mean"), ((True,), "mean"), ((None,), "mean"),
                       ((0.1, True), "sigma"), ((0.1, "0"), "sigma")]:
        with pytest.raises(ValueError, match=f"{name} must be a real number"):
            mc.ParamDistribution(*args)
    d = mc.ParamDistribution(np.float32(0.5), 1)
    assert (d, type(d.mean), type(d.sigma)) == (mc.ParamDistribution(0.5, 1.0), float, float)
    # a name that is not a string would print as a number, or not at all
    for name in (None, 123):
        with pytest.raises(ValueError, match=f"name must be a string, got {name}"):
            mc.McScenario(name, {"accidentals"}, {}, 3, 1)
    # a string is one group name, not a collection of them
    with pytest.raises(ValueError, match="active must be a collection of group names"):
        mc.McScenario("bad", "accidentals")
    # caught when the scenario is built, naming the field, not inside run
    with pytest.raises(ValueError, match="source.lambda_spin must be a ParamDistribution"):
        mc.McScenario("bad", {"source-spin"}, {"source.lambda_spin": (0.1, 0.01)})
    for name, value in [("iterations", 2.5), ("iterations", True),
                        ("iterations", "3"), ("seed", 1.5), ("seed", False),
                        ("seed", np.float64(2.0)), ("iterations", np.array([5])),
                        ("iterations", np.array(5))]:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            mc.McScenario("bad", **{name: value})
    numpy_ints = mc.McScenario("ok", iterations=np.int32(3), seed=np.uint64(2**64 - 1))
    assert (numpy_ints.iterations, numpy_ints.seed) == (3, 2**64 - 1)
    assert type(numpy_ints.seed) is int
    assert mc.McScenario("ok", seed=-2**63).seed == -2**63
    # a checked scenario is read-only, apart from the caller's dict, and pickles
    given = {"gate.eps_H": mc.ParamDistribution(0.1)}
    s = mc.McScenario("ok", {"pbs-crosstalk"}, given)
    with pytest.raises(TypeError):
        s.distributions["gate.eps_H"] = "junk"
    given["gate.eps_V"] = mc.ParamDistribution(0.2)
    assert dict(s.distributions) == {"gate.eps_H": mc.ParamDistribution(0.1)}
    assert pickle.loads(pickle.dumps(s)) == s
    # each field of a setting goes through its record's rule
    with pytest.raises(ValueError, match="lambda_spin must be finite, got nan"):
        mc.ImperfectionParams.from_values({"source.lambda_spin": float("nan")})
    with pytest.raises(ValueError, match="eps_H must be a real number, got True"):
        mc.ImperfectionParams.from_values({"gate.eps_H": True})


@pytest.mark.parametrize("mean, sigma", [(float("inf"), 0.0), (float("-inf"), 1.0),
                                         (float("nan"), 0.0), (0.0, float("nan")),
                                         (0.0, float("inf"))])
def test_distributions_must_be_finite(mean, sigma):
    # a non-finite mean used to pin every draw to a clamp edge, and a NaN
    # sigma to fail mid-run
    with pytest.raises(ValueError, match="must be finite"):
        mc.ParamDistribution(mean, sigma)


def test_iterations_have_an_upper_limit():
    # construction and parsing only: a scenario this size is never run
    mc.McScenario("largest", iterations=mc.MAX_ITERATIONS)
    with pytest.raises(ValueError, match="iterations must lie in"):
        mc.McScenario("huge", iterations=mc.MAX_ITERATIONS + 1)
    assert parse_scenario_text(
        f"iterations = {mc.MAX_ITERATIONS}\n").iterations == mc.MAX_ITERATIONS
    with pytest.raises(ValueError, match="line 2: iterations: iterations must lie in"):
        parse_scenario_text("name = huge\niterations = 100000000000\n")


def test_seed_must_lie_in_the_philox_key_range():
    # Philox is keyed by the seed mod 2**64, so a wider seed would alias
    # another seed's stream
    for seed in (-2**63, -1, 0, 2**64 - 1):
        assert mc.McScenario("ok", seed=seed).seed == seed
    for seed in (-2**63 - 1, 2**64, 2**70):
        with pytest.raises(ValueError, match=r"seed must lie in \[-9223372036854775808, "
                                             r"18446744073709551615\], got"):
            mc.McScenario("bad", seed=seed)
    with pytest.raises(ValueError, match="line 2: seed: seed must lie in"):
        parse_scenario_text("name = wide\nseed = 18446744073709551616\n")


def test_zero_sigma_run_matches_deterministic_point():
    dists = {
        "source.eps_theta_spin_deg": mc.ParamDistribution(1.0),
        "source.lambda_spin": mc.ParamDistribution(0.010),
    }
    s = mc.McScenario("spin-fixed", frozenset({"source-spin"}), dists,
                      iterations=5)
    r = mc.run(s)
    assert np.allclose(r.capacity_bits, 1.9218136511494999, atol=1e-12)
    assert np.allclose(r.success_probability, 0.9921984593744525, atol=1e-12)
    assert r.capacity_std < 1e-12
    assert r.success_std < 1e-12
    assert abs(r.capacity_reduction - (2.0 - 1.9218136511494999)) < 1e-12
    # one draw has no sample spread: ddof=1 would divide by zero
    one = mc.McResult(s, r.capacity_bits[:1], r.success_probability[:1], 0)
    assert (one.capacity_std, one.success_std) == (0.0, 0.0)


def test_builtin_scenario_lookup():
    names = [s.name for s in mc.default_scenarios()]
    assert names == ["spin", "orbit", "crosstalk", "accidentals", "all"]
    mc.default_scenarios().pop()
    assert [s.name for s in mc.default_scenarios()] == names
    assert mc.builtin_scenario("orbit").active == frozenset({"source-orbit"})
    assert mc.builtin_scenario("all").active == frozenset(mc.IMPERFECTION_GROUPS)
    with pytest.raises(ValueError, match="valid names"):
        mc.builtin_scenario("everything")


def test_default_scenarios_are_the_characterized_budget():
    # the five builtin scenarios, written out as they were before PARAMS
    # carried the budgets
    D = mc.ParamDistribution
    spin = {"source.eps_theta_spin_deg": D(1.0, 0.7),
            "source.eps_phi_spin_deg": D(0.0, 4.0),
            "source.lambda_spin": D(0.010, 0.002)}
    orbit = {"source.eps_theta_orbit_deg": D(1.7, 0.6),
             "source.eps_phi_orbit_deg": D(0.0, 5.0),
             "source.lambda_orbit": D(0.03, 0.01)}
    crosstalk = {"gate.eps_H": D(0.005, 0.001), "gate.eps_V": D(0.010, 0.002)}
    accidentals = {"accidentals.fraction": D(mc.DEFAULT_ACCIDENTAL_FRACTION, 0.0)}
    want = [
        mc.McScenario("spin", frozenset({"source-spin"}), spin),
        mc.McScenario("orbit", frozenset({"source-orbit"}), orbit),
        mc.McScenario("crosstalk", frozenset({"pbs-crosstalk"}), crosstalk),
        mc.McScenario("accidentals", frozenset({"accidentals"}), accidentals),
        mc.McScenario("all", frozenset({"source-spin", "source-orbit", "pbs-crosstalk",
                                        "accidentals"}),
                      {**spin, **orbit, **crosstalk, **accidentals}),
    ]
    assert mc.default_scenarios() == want


def test_builtin_reference_results():
    expected = {
        "spin": (1.9138445924975938, 0.9911393586824978),
        "orbit": (1.793930147916264, 0.9749847203415082),
        "crosstalk": (1.8959415089615166, 0.9846984063295469),
        "accidentals": (1.9759896362745815, 0.9979975),
        "all": (1.644999250827791, 0.9498415802468747),
    }
    for s in mc.default_scenarios():
        r = mc.run(s)
        cap, succ = expected[s.name]
        assert abs(r.capacity_mean - cap) < 1e-12
        assert abs(r.success_mean - succ) < 1e-12


def test_jobs_do_not_change_results():
    s = mc.builtin_scenario("all")
    serial = mc.run(s, jobs=1)
    threaded = mc.run(s, jobs=4)
    assert np.array_equal(serial.capacity_bits, threaded.capacity_bits)
    assert np.array_equal(serial.success_probability,
                          threaded.success_probability)
    with pytest.raises(ValueError, match="jobs"):
        mc.run(s, jobs=0)
    with pytest.raises(ValueError, match="jobs must be an integer, got 1.5"):
        mc.run(s, jobs=1.5)


def test_seed_moves_the_stream():
    base = mc.builtin_scenario("spin")
    moved = mc.McScenario(base.name, base.active, base.distributions,
                          base.iterations, seed=123)
    assert not np.array_equal(mc.run(base).capacity_bits,
                              mc.run(moved).capacity_bits)


def test_single_imperfections_dominate_joint():
    results = {s.name: mc.run(s) for s in mc.default_scenarios()}
    for name in ("spin", "orbit", "crosstalk", "accidentals"):
        assert results[name].capacity_mean > results["all"].capacity_mean

    singles = [results[n] for n in ("spin", "orbit", "crosstalk", "accidentals")]
    budget = mc.naive_budget_check(singles, results["all"])
    assert abs(budget.naive_capacity_bits - 1.5797058856499557) < 1e-12
    assert abs(budget.joint_capacity_bits - 1.644999250827791) < 1e-12
    assert abs(budget.discrepancy_bits - 0.06529336517783535) < 1e-12
    assert set(budget.individual_reductions) == {"spin", "orbit", "crosstalk",
                                                 "accidentals"}


def test_naive_budget_with_no_imperfections():
    s = mc.McScenario("ideal", frozenset(), iterations=3)
    r = mc.run(s)
    assert np.allclose(r.capacity_bits, 2.0, atol=1e-12)
    assert np.allclose(r.success_probability, 1.0, atol=1e-12)
    b = mc.naive_budget_check([r], r)
    assert abs(b.naive_capacity_bits - 2.0) < 1e-12
    assert abs(b.discrepancy_bits) < 1e-12


def test_std_is_a_population_property():
    # sample std estimates the spread of the capacity distribution, so
    # growing the iteration count must not shrink it the way it would a
    # standard error
    base = mc.builtin_scenario("orbit")
    small = mc.McScenario(base.name, base.active, base.distributions,
                          100, base.seed)
    large = mc.McScenario(base.name, base.active, base.distributions,
                          900, base.seed)
    ratio = mc.run(small).capacity_std / mc.run(large).capacity_std
    assert 0.5 < ratio < 2.0


def test_parse_scenario_text():
    text = """
# full scenario example
name = tilted source
active = source-spin, source-orbit
iterations = 7
seed = 99
source.eps_theta_spin_deg.mean = 1.5    # degrees
source.eps_theta_spin_deg.sigma = 0.25
source.lambda_orbit.mean = 0.02
"""
    s = parse_scenario_text(text)
    assert s.name == "tilted source"
    assert s.active == frozenset({"source-spin", "source-orbit"})
    assert s.iterations == 7
    assert s.seed == 99
    d = s.distributions["source.eps_theta_spin_deg"]
    assert (d.mean, d.sigma) == (1.5, 0.25)
    assert s.distributions["source.lambda_orbit"].sigma == 0.0

    # a sigma without a mean is centred on the knob's default, not on 0
    s = parse_scenario_text("active = accidentals\n"
                            "accidentals.fraction.sigma = 0.001\n")
    d = s.distributions["accidentals.fraction"]
    assert (d.mean, d.sigma) == (mc.DEFAULT_ACCIDENTAL_FRACTION, 0.001)

    # iterations and seed that the file leaves out are McScenario's own
    s = parse_scenario_text("active = accidentals\n")
    assert s == mc.McScenario("custom", {"accidentals"})
    assert (s.iterations, s.seed) == (mc.DEFAULT_ITERATIONS, mc.DEFAULT_SEED)


def test_parse_scenario_text_errors():
    with pytest.raises(ValueError, match="line 2"):
        parse_scenario_text("name = x\nnot a pair\n")
    with pytest.raises(ValueError, match="valid keys"):
        parse_scenario_text("gate.eps_h.mean = 0.1\n")
    # the PBS phases are sampled knobs like any other
    s = parse_scenario_text("gate.phi1_deg.mean = 0.1\n")
    assert s.distributions == {"gate.phi1_deg": mc.ParamDistribution(0.1)}
    with pytest.raises(ValueError, match="unknown imperfection groups"):
        parse_scenario_text("active = gremlins\n")


def test_load_scenario_runs_deterministic_point(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text("name = filecheck\nactive = pbs-crosstalk\n"
                    "gate.eps_H.mean = 0.004\ngate.eps_V.mean = 0.012\n"
                    "iterations = 3\nseed = 5\n")
    s = load_scenario(path)
    assert s.name == "filecheck"
    r = mc.run(s)
    t = transfer_matrix(SourceParams(), GateParams(eps_H=0.004, eps_V=0.012))
    want = channel_capacity(t).capacity_bits
    assert np.allclose(r.capacity_bits, want, atol=1e-12)


def test_result_json_dict_and_table():
    s = mc.builtin_scenario("crosstalk")
    r = mc.run(s)
    d = mc.result_to_json_dict(r)
    json.dumps(d)
    assert d["scenario"]["name"] == "crosstalk"
    assert d["scenario"]["seed"] == mc.DEFAULT_SEED
    assert len(d["iterations_detail"]["capacity_bits"]) == s.iterations
    assert abs(d["capacity_mean_bits"] - r.capacity_mean) < 1e-15
    assert abs(d["capacity_reduction_bits"] - r.capacity_reduction) < 1e-15

    table = render_table([r])
    assert "crosstalk" in table
    assert "capacity_bits" in table
    assert "naive budget" not in table

    budget = mc.naive_budget_check([r], r)
    table = render_table([r], budget)
    assert "naive budget" in table
    assert "joint simulation" in table


def test_symmetric_builtins_match_the_closed_form_capacity():
    # run mixes accidentals into its stacked matrices itself: this checks
    # that mix, and the whole stacked path, against the closed form
    for name in ("spin", "orbit", "accidentals"):
        scenario = mc.builtin_scenario(name)
        result = mc.run(scenario)
        for i in range(scenario.iterations):
            d = mc.sample_params(scenario, i)
            p = source_channel(d.eps_theta_spin, d.eps_phi_spin, d.lambda_spin,
                               d.eps_theta_orbit, d.eps_phi_orbit, d.lambda_orbit,
                               d.accidental_fraction)
            assert abs(result.capacity_bits[i] - symmetric_capacity(p)) <= 1e-10, (name, i)
            assert abs(result.success_probability[i] - np.trace(p) / 4.0) < 1e-14


def test_crosstalk_builtin_matches_the_closed_form_channel():
    # the builtin draws no phases and leaves the source ideal, so each draw
    # is crosstalk_channel at zero phases; both capacity solves stop within
    # capacity.TOL_BITS = 1e-10 below its capacity
    scenario = mc.builtin_scenario("crosstalk")
    result = mc.run(scenario)
    for i in range(scenario.iterations):
        d = mc.sample_params(scenario, i)
        assert d.source_params() == SourceParams()
        assert (d.phi1, d.phi2, d.accidental_fraction) == (0.0, 0.0, 0.0)
        p = crosstalk_channel(d.eps_H, d.eps_V)
        assert abs(result.capacity_bits[i] - blahut_arimoto(p)[0]) <= 1e-10, i
        assert abs(result.success_probability[i] - np.trace(p) / 4.0) < 1e-14
