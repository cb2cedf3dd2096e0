"""End-to-end acceptance checks, one test per criterion, in order.

Run with -v to get one pass/fail line per criterion.  Reference bands
come from the characterized apparatus; closed forms are derived
independently in _oracles.py.
"""
from __future__ import annotations

import json
import math
import time

import numpy as np

from hyperdense import capacity as cap
from hyperdense import cli, optics, states
from hyperdense import montecarlo as mc

from _oracles import (
    bound_channel,
    grid_capacity,
    linear_entropy,
    orbit_marginal,
    random_channel,
    spin_marginal,
    split_channel_capacity_4,
    tangle,
    uniform_noise_capacity,
)


def test_ideal_apparatus_gives_identity_channel_at_two_bits():
    start = time.perf_counter()
    t = optics.transfer_matrix(states.SourceParams(), optics.GateParams())
    result = cap.channel_capacity(t)
    elapsed = time.perf_counter() - start
    assert np.max(np.abs(t.probabilities - np.eye(4))) < 1e-9
    assert abs(result.capacity_bits - 2.0) < 1e-9
    assert elapsed < 1.0


def test_characterized_imperfections_reproduce_budget_table():
    capacity_bands = {
        "spin": (1.91, 0.04),
        "orbit": (1.80, 0.06),
        "crosstalk": (1.90, 0.03),
        "accidentals": (1.98, 0.02),
        "all": (1.64, 0.04),
    }
    success_bands = {
        "spin": (0.991, 0.004),
        "orbit": (0.971, 0.008),
        "crosstalk": (0.985, 0.004),
        "accidentals": (0.998, 0.002),
        "all": (0.953, 0.006),
    }
    start = time.perf_counter()
    results = {s.name: mc.run(s) for s in mc.default_scenarios()}
    elapsed = time.perf_counter() - start
    for name, (center, width) in capacity_bands.items():
        got = results[name].capacity_mean
        assert abs(got - center) <= width, (name, got)
    for name, (center, width) in success_bands.items():
        got = results[name].success_mean
        assert abs(got - center) <= width, (name, got)
    assert elapsed < 30.0


def test_naive_reduction_sum_underestimates_joint_capacity():
    results = {s.name: mc.run(s) for s in mc.default_scenarios()}
    singles = [results[n] for n in ("spin", "orbit", "crosstalk",
                                    "accidentals")]
    budget = mc.naive_budget_check(singles, results["all"])
    assert abs(budget.naive_capacity_bits - 1.59) <= 0.02
    assert abs(budget.joint_capacity_bits - 1.64) <= 0.04
    assert budget.discrepancy_bits > 0.0


def test_capacity_of_uniform_noise_matches_closed_form():
    for p_s in np.linspace(0.3, 1.0, 20):
        got = cap.channel_capacity(bound_channel(4, "lower", p_s)).capacity_bits
        assert abs(got - uniform_noise_capacity(p_s)) < 1e-6, p_s
        assert abs(cap.bound_capacity(4, "lower", p_s) - uniform_noise_capacity(p_s)) < 1e-12


def test_capacity_of_split_channel_matches_closed_form():
    for p_s in np.linspace(0.5, 1.0, 20):
        got = cap.channel_capacity(bound_channel(4, "upper", p_s)).capacity_bits
        assert abs(got - split_channel_capacity_4(p_s)) < 1e-6, p_s
        assert abs(cap.bound_capacity(4, "upper", p_s) - split_channel_capacity_4(p_s)) < 1e-12
    # The linear-optics limit log2(3) is the minimum of the closed form, at
    # p_s = 0.75 (diagonal 2p_s-1 = 1/2), where the upper curve starts.  At
    # p_s = 0.5 the noisy pair is a noiseless swap, so C = log2(2 + 2^1) = 2.
    at_threshold = cap.channel_capacity(
        bound_channel(4, "upper", 0.75)).capacity_bits
    assert abs(at_threshold - math.log2(3.0)) < 1e-9, at_threshold
    at_half = cap.channel_capacity(bound_channel(4, "upper", 0.5)).capacity_bits
    assert abs(at_half - 2.0) < 1e-9, at_half
    first_p_s, first_bits = cap.bound_curve(4, "upper")[0]
    assert first_p_s == 0.75
    assert abs(first_bits - math.log2(3.0)) < 1e-9, first_bits


def test_reported_operating_point_lies_between_bounds():
    lower = cap.bound_capacity(4, "lower", 0.948)
    upper = cap.bound_capacity(4, "upper", 0.948)
    assert lower <= 1.630 <= upper
    assert abs(lower - 1.6227) < 1e-3


def test_montecarlo_headline_lies_between_bounds():
    # The `all` builtin at seed 6 gives C = 1.64500 bits at mean
    # p_s = 0.94984, between the bounds there (1.63343 and 1.78406 bits).
    # The paper reports 1.630 bits; this run sits +0.0150 bits above it.
    result = mc.run(mc.builtin_scenario("all"))
    assert result.scenario.seed == 6 and result.uncertified == 0
    p_s = result.success_mean
    lower, upper = (cap.bound_capacity(4, which, p_s) for which in ("lower", "upper"))
    assert lower <= result.capacity_mean <= upper


def test_mixedness_and_tangle_closed_forms():
    # the pair states of the source, read off build_source as marginals
    spin = spin_marginal(states.build_source(states.SourceParams(lambda_spin=0.010)))
    assert abs(linear_entropy(spin) - 0.0199) < 1e-4
    orbit = orbit_marginal(states.build_source(states.SourceParams(lambda_orbit=0.03)))
    assert abs(linear_entropy(orbit) - 0.0591) < 1e-4
    deg = math.pi / 180.0
    tilted = spin_marginal(states.build_source(
        states.SourceParams(eps_theta_spin=1.0 * deg, lambda_spin=0.010)))
    assert abs(tangle(tilted) - 0.967) < 0.005


def test_encoded_states_have_four_half_amplitude_signatures():
    signs = {
        states.Message.PHI_PLUS: {(0, 2): 1, (1, 3): 1, (2, 0): 1, (3, 1): 1},
        states.Message.PHI_MINUS: {(0, 3): 1, (1, 2): 1, (2, 1): 1, (3, 0): 1},
        states.Message.PSI_PLUS: {(0, 0): 1, (1, 1): -1, (2, 2): 1, (3, 3): -1},
        states.Message.PSI_MINUS: {(0, 1): -1, (1, 0): 1, (2, 3): -1, (3, 2): 1},
    }
    for message in states.Message:
        amps = states.spin_orbit_decompose(states.encoded_ket(message))
        live = {(i, j) for i in range(4) for j in range(4)
                if abs(amps[i, j]) > 1e-12}
        assert len(live) == 4
        assert live == set(signs[message])
        assert live == {divmod(int(j), 4)
                        for j in np.flatnonzero(states.PAIR_SIGNATURES[:, message])}
        want = np.zeros((4, 4))
        for (i, j), sign in signs[message].items():
            assert abs(amps[i, j] - sign * 0.5) < 1e-12
            want[i, j] = sign * 0.5
        # exactly: the ideal source carries no rounding residue
        assert np.array_equal(amps, want)


def test_grid_search_agrees_with_iterative_capacity():
    rng = np.random.default_rng(2026)
    start = time.perf_counter()
    for _ in range(20):
        t = random_channel(rng, 4)
        ba = cap.channel_capacity(t).capacity_bits
        grid = grid_capacity(t, steps=100)
        assert abs(ba - grid) < 1e-3
    assert time.perf_counter() - start < 60.0


def test_montecarlo_json_is_byte_identical_across_runs_and_jobs(tmp_path):
    paths = [tmp_path / f"run{i}.json" for i in range(3)]
    jobs = ("1", "1", "4")
    for path, j in zip(paths, jobs):
        rc = cli.main(["montecarlo", "--builtin", "all", "--seed", "42",
                       "--jobs", j, "--format", "json", "--out", str(path)])
        assert rc == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1]
    assert blobs[0] == blobs[2]
    json.loads(blobs[0])
