from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperdense import capacity as cap
from hyperdense import optics, states
from hyperdense.optics import AccidentalModel, GateParams
from hyperdense.states import SourceParams, build_source_stack

from _oracles import (
    binary_channel_capacity,
    binary_entropy,
    blahut_arimoto,
    divergences,
    grid_capacity,
    mutual_information_rows,
    random_channel,
    split_channel_capacity_3,
    split_channel_capacity_4,
    uniform_noise_capacity,
)

_DEG = math.pi / 180.0


def test_validate_input_distribution():
    with pytest.raises(ValueError, match="entries"):
        cap.validate_input_distribution([0.5, 0.5], 4)
    with pytest.raises(ValueError, match="negative"):
        cap.validate_input_distribution([0.6, 0.6, -0.2, 0.0], 4)
    with pytest.raises(ValueError, match="sums"):
        cap.validate_input_distribution([0.3, 0.3, 0.3, 0.3], 4)
    with pytest.raises(ValueError, match="finite"):
        cap.validate_input_distribution([math.nan, 0.5, 0.5, 0.0], 4)


def test_raw_channels_are_checked():
    uniform = np.full(4, 0.25)
    with pytest.raises(ValueError, match="finite"):
        cap.channel_capacity(np.full((4, 4), np.nan))
    with pytest.raises(ValueError, match="finite"):
        cap.average_success(np.diag([1.0, 1.0, 1.0, np.inf]))
    with pytest.raises(ValueError, match="sum to 1"):
        cap.mutual_information(uniform, np.full((4, 4), 0.5))
    with pytest.raises(ValueError, match="probabilities"):
        cap.channel_capacity(np.array([[1.5, 0.0], [-0.5, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        cap.average_success(np.full((2, 4), 0.5))
    with pytest.raises(ValueError, match="empty"):
        cap.channel_capacity(np.zeros((0, 0)))


@pytest.mark.parametrize("knobs, message", [
    ({"max_iterations": 0}, r"max_iterations must lie in \[1, inf\], got 0"),
    ({"max_iterations": -1}, r"max_iterations must lie in \[1, inf\], got -1"),
    ({"tol_bits": math.nan}, "tol_bits must be finite, got nan"),
    ({"tol_bits": math.inf}, "tol_bits must be finite, got inf"),
    ({"tol_bits": 0.0}, "tol_bits must be positive, got 0.0"),
    ({"tol_bits": -1.0}, "tol_bits must be positive, got -1.0"),
    ({"max_iterations": 2.5}, "max_iterations must be an integer, got 2.5"),
    ({"max_iterations": 3.0}, "max_iterations must be an integer, got 3.0"),
    ({"max_iterations": True}, "max_iterations must be an integer, got True"),
    ({"tol_bits": True}, "tol_bits must be a real number, got True"),
], ids=["zero-iterations", "negative-iterations", "nan-tol", "inf-tol", "zero-tol",
        "negative-tol", "fractional-iterations", "float-iterations",
        "bool-iterations", "bool-tol"])
def test_solver_knobs_are_checked(knobs, message):
    with pytest.raises(ValueError, match=message):
        cap.channel_capacity(np.eye(4), **knobs)
    with pytest.raises(ValueError, match=message):
        cap.channel_capacity_stack(np.eye(4)[None], **knobs)


def test_mutual_information_reference_channels():
    uniform = np.full(4, 0.25)
    assert abs(cap.mutual_information(uniform, np.eye(4)) - 2.0) < 1e-12
    flat = np.full((4, 4), 0.25)
    assert abs(cap.mutual_information(uniform, flat)) < 1e-12
    t = cap.bound_channel(4, "lower", 0.948)
    want = uniform_noise_capacity(0.948)
    assert abs(cap.mutual_information(uniform, t) - want) < 1e-12
    with pytest.raises(ValueError):
        cap.mutual_information([0.5, 0.5], np.eye(4))


def test_mutual_information_nonnegative_random():
    rng = np.random.default_rng(43)
    for _ in range(50):
        t = random_channel(rng, 4)
        px = rng.random(4)
        px /= px.sum()
        assert cap.mutual_information(px, t) >= 0.0


def test_mutual_information_where_zeros_occur():
    # sparse channels, half of them with an output no input reaches, and
    # inputs with exact zero weights: every 0 * log 0 term must drop out
    rng = np.random.default_rng(11)
    for m in (2, 3, 4):
        p = rng.random((200, m, m)) ** 3
        p[rng.random((200, m, m)) < 0.5] = 0.0
        p[:100, m - 1] = 0.0
        p[:, 0] += p.sum(axis=1) == 0.0  # an input left with no output takes output 0
        p /= p.sum(axis=1, keepdims=True)
        px = rng.random((200, m))
        px[rng.random((200, m)) < 0.3] = 0.0
        px[:, 0] += px.sum(axis=1) == 0.0
        px /= px.sum(axis=1, keepdims=True)
        for t, x in zip(p, px):
            want = mutual_information_rows(x[None], t)[0]
            assert abs(cap.mutual_information(x, t) - want) < 1e-12


def test_capacity_identity_channel():
    result = cap.channel_capacity(np.eye(4))
    assert abs(result.capacity_bits - 2.0) < 1e-9
    assert result.converged
    assert np.allclose(result.input_distribution, 0.25, atol=1e-9)


def test_capacity_uniform_noise_closed_form():
    result = cap.channel_capacity(cap.bound_channel(4, "lower", 0.948))
    assert abs(result.capacity_bits - uniform_noise_capacity(0.948)) < 1e-9
    assert abs(result.capacity_bits - 1.6227) < 1e-4
    assert np.allclose(result.input_distribution, 0.25, atol=1e-6)


def test_capacity_split_channel_closed_form():
    result = cap.channel_capacity(cap.bound_channel(4, "upper", 0.948))
    assert abs(result.capacity_bits - split_channel_capacity_4(0.948)) < 1e-9
    assert abs(result.capacity_bits - 1.779) < 1e-3


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2**32 - 1))
def test_capacity_permutation_invariance(n, seed):
    rng = np.random.default_rng(seed)
    t = random_channel(rng, n)
    shuffled = t[rng.permutation(n)][:, rng.permutation(n)]
    stacked = cap.channel_capacity_stack(np.stack([t, shuffled]))[0]
    for channel, from_stack in zip((t, shuffled), stacked):
        c = cap.channel_capacity(channel).capacity_bits
        assert abs(c - from_stack) < 1e-12
        assert 0.0 <= c <= math.log2(n)
    assert abs(stacked[0] - stacked[1]) < 1e-9


def test_mutual_information_below_capacity():
    rng = np.random.default_rng(53)
    channels, inputs = [], []
    for _ in range(100):
        channels.append(random_channel(rng, 4))
        px = rng.random(4)
        inputs.append(px / px.sum())
    # one stacked solve: each channel's capacity is what channel_capacity gives
    caps = cap.channel_capacity_stack(np.array(channels))[0]
    for t, px, c in zip(channels, inputs, caps):
        mi = cap.mutual_information(px, t)
        assert mi <= c + 1e-9


def test_symmetric_channel_optimal_distribution_uniform():
    rng = np.random.default_rng(59)
    for _ in range(10):
        row = rng.random(4)
        row /= row.sum()
        # circulant channel: every row a cyclic shift of the first
        t = np.array([np.roll(row, k) for k in range(4)])
        result = cap.channel_capacity(t)
        assert np.max(np.abs(result.input_distribution - 0.25)) < 1e-6


def test_capacity_vs_grid_search_small_channels():
    rng = np.random.default_rng(61)
    for _ in range(10):
        t = random_channel(rng, 3)
        ba = cap.channel_capacity(t).capacity_bits
        grid = grid_capacity(t, steps=100)
        assert abs(ba - grid) < 1e-3


def test_capacity_iteration_cap_flags_nonconvergence():
    # symmetric channels close the duality gap on the very first pass, so a
    # skewed channel is needed to observe the iteration cap taking effect
    t = np.array([[0.90, 0.30], [0.10, 0.70]])
    result = cap.channel_capacity(t, tol_bits=1e-14, max_iterations=1)
    assert not result.converged
    assert result.iterations == 1
    uncapped = cap.channel_capacity(t)
    assert result.capacity_bits <= uncapped.capacity_bits + 1e-12
    # at the default tol_bits its gap closes at iteration 42: a solve capped
    # there closes on its last iteration, one capped at 41 does not
    assert uncapped.iterations == 42
    at_cap = cap.channel_capacity(t, max_iterations=42)
    assert at_cap.converged and at_cap.iterations == 42
    assert at_cap.capacity_bits == uncapped.capacity_bits
    assert not cap.channel_capacity(t, max_iterations=41).converged


def test_empty_stack_returns_at_once(monkeypatch):
    # no channel is open, so no step may run, let alone max_iterations of them
    def no_step(*args):
        raise AssertionError("an empty stack took a step")

    monkeypatch.setattr(cap, "_step", no_step)
    out = cap.channel_capacity_stack(np.zeros((0, 4, 4)))
    assert [v.shape for v in out] == [(0,), (0, 4), (0,), (0,), (0,)]


def test_capped_solve_returns_the_point_it_reports():
    # at the cap, capacity_bits is I at input_distribution and gap_bits its
    # bracket, within the warm-up and after relaxed steps began
    rng = np.random.default_rng(5)
    p = rng.random((4, 4)) ** 3
    p /= p.sum(axis=0, keepdims=True)
    for max_iterations in (3, cap.WARM_UP + 1, cap.WARM_UP + 2):
        result = cap.channel_capacity(p, tol_bits=1e-14, max_iterations=max_iterations)
        assert not result.converged
        got = cap.mutual_information(result.input_distribution, p)
        assert abs(got - result.capacity_bits) < 1e-12
        upper = divergences(result.input_distribution, p).max()
        assert abs(upper - result.capacity_bits - result.gap_bits) < 1e-12


def test_nearly_useless_binary_channels_converge():
    # C = 2.4e-5 and 4.7e-5 bits; the plain loop stops unconverged at the
    # default 100,000-iteration cap on both
    for seed in (0, 23):
        p = random_channel(np.random.default_rng(seed), 2)
        result = cap.channel_capacity(p)
        assert result.converged
        assert abs(result.capacity_bits - binary_channel_capacity(p)) < 1e-10


def test_relaxation_closes_a_badly_aligned_analyzer_channel():
    # the benchmark's misalignment-0.95 flip model, aggregated by
    # PAIR_SIGNATURES (C = 0.0075698 bits): the plain loop needs thousands of
    # iterations, the over-relaxed steps a few hundred
    p = np.array([
        [0.28692848296875, 0.243024076328125, 0.25638959070312506, 0.21459171187499998],
        [0.24579026703125, 0.272772798671875, 0.224429159296875, 0.249305163125],
        [0.25321214203125, 0.228116548671875, 0.276982284296875, 0.249780163125],
        [0.21406910796875, 0.256086576328125, 0.24219896570312502, 0.286322961875],
    ])
    tol_bits = 1e-10
    result = cap.channel_capacity(p, tol_bits)
    plain = blahut_arimoto(p, tol_bits)
    assert result.converged and plain[3]
    assert result.iterations <= 400
    assert plain[2] >= 6_000
    assert abs(result.capacity_bits - plain[0]) < tol_bits


# tests/test_engine.py's _SETTING ranges, in its order: the source's six knobs,
# the gate's four, then the accidental fraction
_SETTING_RANGES = ((-math.pi / 2, math.pi / 2), (-math.pi, math.pi), (0.0, 1.0),
                   (-math.pi / 2, math.pi / 2), (-math.pi, math.pi), (0.0, 1.0),
                   (0.0, 1.0), (0.0, 1.0), (-2 * math.pi, 2 * math.pi),
                   (-2 * math.pi, 2 * math.pi), (0.0, 0.99))


def test_relaxed_solves_are_never_slower_than_the_plain_loop():
    # channels on which a relaxed step can shrink the gap less than the plain
    # step from the same point would: seven from 6,000 physical settings, each
    # knob uniform over its range and exactly 0 with probability 1/2, and one
    # that hypothesis found
    rng = np.random.default_rng(7)
    columns = []
    for lo, hi in _SETTING_RANGES:
        v = rng.uniform(lo, hi, 6_000)
        v[rng.random(6_000) < 0.5] = 0.0
        columns.append(v)
    rows = [545, 2155, 2457, 3333, 4613, 5538, 5905]
    *knobs, f = (v[rows] for v in columns)
    p = optics.transfer_matrix_stack(build_source_stack(*knobs[:6]),
                                     optics.analyzer_unitary_stack(*knobs[6:]))
    p = (1.0 - f[:, None, None]) * p + f[:, None, None] / 4.0
    found = optics.transfer_matrix(SourceParams(0.59375, 0.625, 0.33203125, 0.0, 0.0, 0.3046875),
                                   GateParams(0.59375, 0.21484375, 0.0, 4.78125))
    p = np.concatenate([p, found.probabilities[None]])
    _, _, iterations, converged, _ = cap.channel_capacity_stack(p)
    for k in range(len(p)):
        plain = blahut_arimoto(p[k])
        assert plain[3] and plain[2] > cap.WARM_UP
        assert converged[k] and iterations[k] <= plain[2], (k, iterations[k], plain[2])


def test_average_success():
    assert cap.average_success(np.eye(4)) == 1.0
    assert cap.average_success(np.full((4, 4), 0.25)) == 0.25
    t = optics.transfer_matrix(
        SourceParams(eps_theta_spin=1.0 * _DEG, lambda_spin=0.010,
                     eps_theta_orbit=1.7 * _DEG, lambda_orbit=0.03),
        GateParams(eps_H=0.005, eps_V=0.010))
    t = optics.apply_accidentals(t, AccidentalModel(0.00267))
    assert abs(cap.average_success(t) - 0.953) < 0.003


def test_snr_per_message():
    pair_messages = states.PAIR_SIGNATURES.argmax(axis=1)
    counts = np.zeros((4, 16))
    for m in states.Message:
        counts[m, pair_messages == m] = 200.0
    assert cap.snr_per_message(counts) == [None, None, None, None]

    noisy = counts.copy()
    noisy[0, :] += 10.0 / 12.0
    noisy[0, pair_messages == states.Message.PHI_PLUS] = 190.0 / 4.0
    snrs = cap.snr_per_message(noisy)
    assert abs(snrs[0] - 19.0) < 1e-12
    assert snrs[1:] == [None, None, None]

    expect = np.zeros((4, 16))
    for m in states.Message:
        expect[m] = np.where(pair_messages == m, 711.0, 13.0)
    for snr in cap.snr_per_message(expect):
        assert abs(snr - 2844.0 / 156.0) < 1e-12
        assert abs(snr - 18.2) < 0.04

    zero_row = expect.copy()
    zero_row[2, :] = 0.0
    with pytest.raises(ValueError, match="Psi\\+"):
        cap.snr_per_message(zero_row)
    with pytest.raises(ValueError, match="4x16"):
        cap.snr_per_message(np.zeros((4, 4)))
    bad = expect.copy()
    bad[0, 0] = -1.0
    with pytest.raises(ValueError, match="non-negative"):
        cap.snr_per_message(bad)


def test_bound_lower_4_structure():
    assert np.allclose(cap.bound_channel(4, "lower", 1.0), np.eye(4),
                       atol=1e-15)
    quarter = cap.bound_channel(4, "lower", 0.25)
    assert np.allclose(quarter, 0.25, atol=1e-15)
    assert abs(cap.channel_capacity(quarter).capacity_bits) < 1e-9
    t = cap.bound_channel(4, "lower", 0.948)
    assert np.allclose(np.diag(t), 0.948, atol=1e-15)
    off = t[~np.eye(4, dtype=bool)]
    assert np.allclose(off, 0.052 / 3.0, atol=1e-15)
    with pytest.raises(ValueError):
        cap.bound_channel(4, "lower", 0.2)
    with pytest.raises(ValueError):
        cap.bound_channel(4, "lower", 1.1)
    with pytest.raises(ValueError, match="encoding must be an integer, got 4.0"):
        cap.bound_channel(4.0, "lower", 0.5)
    with pytest.raises(ValueError, match="p_s must be a real number, got '0.5'"):
        cap.bound_channel(4, "lower", "0.5")


def test_bound_upper_4_structure():
    assert np.allclose(cap.bound_channel(4, "upper", 1.0), np.eye(4),
                       atol=1e-15)
    t = cap.bound_channel(4, "upper", 0.948)
    assert np.allclose(np.diag(t), [0.896, 0.896, 1.0, 1.0], atol=1e-12)
    assert abs(t[0, 1] - 0.104) < 1e-12 and abs(t[1, 0] - 0.104) < 1e-12
    assert np.max(np.abs(t[2:, :2])) == 0.0 and np.max(np.abs(t[:2, 2:])) == 0.0
    with pytest.raises(ValueError):
        cap.bound_channel(4, "upper", 0.49)


def test_bound_3_structure():
    t = cap.bound_channel(3, "lower", 1.0)
    assert np.allclose(t, np.eye(3), atol=1e-15)
    assert abs(cap.channel_capacity(t).capacity_bits - math.log2(3.0)) < 1e-9
    third = cap.bound_channel(3, "lower", 1.0 / 3.0)
    assert abs(cap.channel_capacity(third).capacity_bits) < 1e-9

    upper = cap.bound_channel(3, "upper", 0.9)
    got = cap.channel_capacity(upper).capacity_bits
    assert abs(got - split_channel_capacity_3(0.9)) < 1e-9
    with pytest.raises(ValueError):
        cap.bound_channel(3, "lower", 0.2)
    with pytest.raises(ValueError):
        cap.bound_channel(3, "upper", 0.2)


def test_bound_upper_3_matches_closed_form_along_the_curve():
    for p_s in np.linspace(1.0 / 3.0, 1.0, 41):
        got = cap.channel_capacity(cap.bound_channel(3, "upper", p_s)).capacity_bits
        assert abs(got - split_channel_capacity_3(p_s)) < 1e-9, p_s


def test_upper_bound_dominates_lower():
    for p_s in np.linspace(0.75, 1.0, 11):
        lo = cap.channel_capacity(cap.bound_channel(4, "lower", p_s)).capacity_bits
        hi = cap.channel_capacity(cap.bound_channel(4, "upper", p_s)).capacity_bits
        assert hi >= lo - 1e-9


def _fano_bound(p_s: float, n: int = 4) -> float:
    # Fano with uniform inputs: H(X|Y) <= h(1 - p_s) + (1 - p_s) log2(n - 1)
    return math.log2(n) - binary_entropy(1.0 - p_s) - (1.0 - p_s) * math.log2(n - 1)


def _assert_above_fano(t) -> None:
    p_s = cap.average_success(t)
    mi = cap.mutual_information(np.full(4, 0.25), t)
    assert mi >= _fano_bound(p_s) - 1e-12, (p_s, mi)


def test_fano_bound_is_the_lower_curve():
    points = {4: [0.25, 0.3, 0.5, 0.75, 0.948, 0.9492, 0.999, 1.0,
                  *np.linspace(0.25, 1.0, 41)],
              3: np.linspace(1.0 / 3.0, 1.0, 41)}
    for n, ps in points.items():
        for p_s in ps:
            lower = cap.bound_channel(n, "lower", p_s)
            assert abs(cap.channel_capacity(lower).capacity_bits
                       - _fano_bound(p_s, n)) < 1e-9, (n, p_s)
            # uniform noise meets Fano's inequality with equality
            uniform_mi = cap.mutual_information(np.full(n, 1.0 / n), lower)
            assert abs(uniform_mi - _fano_bound(p_s, n)) < 1e-12, (n, p_s)
    assert _fano_bound(0.25) == 0.0


@settings(max_examples=200, deadline=None)
@given(weight=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_fano_lower_bound_on_random_channels(weight, seed):
    t = (1.0 - weight) * np.eye(4) + weight * random_channel(np.random.default_rng(seed), 4)
    assume(cap.average_success(t) >= 0.25)
    _assert_above_fano(t)


_ANGLE = st.floats(-math.pi, math.pi)
_MODEL_SETTING = st.tuples(
    st.floats(-math.pi / 4, math.pi / 4), _ANGLE, st.floats(0.0, 1.0),
    st.floats(-math.pi / 4, math.pi / 4), _ANGLE, st.floats(0.0, 1.0),
    st.floats(0.0, 1.0), st.floats(0.0, 1.0), _ANGLE, _ANGLE)


@settings(max_examples=60, deadline=None)
@given(st.lists(_MODEL_SETTING, min_size=1, max_size=6))
def test_fano_lower_bound_on_model_channels(settings_list):
    columns = np.array(settings_list).T
    stacked = optics.transfer_matrix_stack(build_source_stack(*columns[:6]),
                                           optics.analyzer_unitary_stack(*columns[6:]))
    for s, p in zip(settings_list, stacked):
        single = optics.transfer_matrix(SourceParams(*s[:6]), GateParams(*s[6:]))
        for t in (single.probabilities, p):
            if cap.average_success(t) >= 0.25:
                _assert_above_fano(t)


def test_reported_point_containment():
    lo = cap.channel_capacity(cap.bound_channel(4, "lower", 0.948)).capacity_bits
    hi = cap.channel_capacity(cap.bound_channel(4, "upper", 0.948)).capacity_bits
    assert lo <= 1.630 <= hi
    assert abs(lo - 1.6227) < 1e-4


def test_bound_curve():
    curve = cap.bound_curve(4, "lower", resolution=11)
    assert curve.shape == (11, 2)
    assert abs(curve[0, 0] - 0.25) < 1e-15
    assert abs(curve[-1, 0] - 1.0) < 1e-15
    assert abs(curve[-1, 1] - 2.0) < 1e-9
    assert np.all(np.diff(curve[:, 1]) >= -1e-9)

    upper = cap.bound_curve(4, "upper", resolution=11)
    assert abs(upper[0, 0] - 0.75) < 1e-15
    assert abs(upper[0, 1] - math.log2(3.0)) < 1e-9
    assert np.all(np.diff(upper[:, 1]) >= -1e-9)

    three = cap.bound_curve(3, "lower", resolution=5)
    assert abs(three[-1, 1] - math.log2(3.0)) < 1e-9

    with pytest.raises(ValueError):
        cap.bound_curve(5, "lower")
    with pytest.raises(ValueError):
        cap.bound_curve(4, "middle")
    with pytest.raises(ValueError):
        cap.bound_curve(4, "lower", resolution=1)
    with pytest.raises(ValueError, match="resolution must be an integer, got 2.5"):
        cap.bound_curve(4, "lower", 2.5)


def test_bound_curve_resolution_has_an_upper_limit(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the resolution check must come first")

    monkeypatch.setattr(np, "linspace", never)
    monkeypatch.setattr(cap, "channel_capacity", never)
    monkeypatch.setattr(cap, "channel_capacity_stack", never)
    for resolution in (cap.MAX_RESOLUTION + 1, 10**9):
        with pytest.raises(ValueError, match=r"resolution must lie in "
                                             r"\[2, 10000\], got"):
            cap.bound_curve(4, "lower", resolution=resolution)
