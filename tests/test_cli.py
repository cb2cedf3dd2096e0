from __future__ import annotations

import csv
import importlib
import io
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hyperdense
from hyperdense import capacity, cli, optics, states
from hyperdense import montecarlo as mc

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
GOLDEN = Path(__file__).resolve().parent / "cli_golden.txt"


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def make_counts_csv(signal: int, noise: int) -> str:
    """Counts table with `signal` in every signature column, `noise` elsewhere."""
    lines = [",".join(cli._COUNTS_HEADER)]
    for m in states.Message:
        row = [signal if pm == m else noise
               for pm in states.PAIR_SIGNATURES.argmax(axis=1)]
        lines.append(",".join([m.label] + [str(v) for v in row]))
    return "\n".join(lines) + "\n"


def uneven_counts_csv() -> str:
    """Counts table with 500 in every signature column and 5 k^2 elsewhere in
    row k = 1..4: unequal noise per row, so its capacity solve does not close
    on its first pass."""
    header, *rows = make_counts_csv(signal=500, noise=0).splitlines()
    return "\n".join([header] + [row.replace(",0", f",{5 * k * k}")
                                 for k, row in enumerate(rows, 1)]) + "\n"


def test_simulate_ideal_json(capsys):
    rc, out, err = run_cli(capsys, "simulate")
    assert rc == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["capacity_bits"] == 2.0
    assert doc["success_probability"] == 1.0
    assert doc["input_distribution"] == [0.25, 0.25, 0.25, 0.25]
    assert np.allclose(doc["transfer_matrix"]["p"], np.eye(4), atol=1e-15)
    assert doc["transfer_matrix"]["labels"] == ["Phi+", "Phi-", "Psi+", "Psi-"]


def test_simulate_params_file(capsys, tmp_path):
    params = tmp_path / "params.txt"
    params.write_text(
        "# characterized apparatus\n"
        "source.eps_theta_spin_deg = 1.0\n"
        "source.lambda_spin = 0.010\n"
        "source.eps_theta_orbit_deg = 1.7\n"
        "source.lambda_orbit = 0.03\n"
        "gate.eps_H = 0.005\n"
        "gate.eps_V = 0.010\n"
        "accidentals.fraction = 0.00267\n")
    rc, out, _ = run_cli(capsys, "simulate", "--params", str(params))
    assert rc == 0
    doc = json.loads(out)
    assert abs(doc["capacity_bits"] - 1.6598879280085324) < 1e-12
    assert abs(doc["success_probability"] - 0.9524310266971028) < 1e-12


def test_simulate_gate_only_params(capsys, tmp_path):
    params = tmp_path / "params.txt"
    params.write_text("gate.eps_H = 0.005\ngate.eps_V = 0.010\n")
    rc, out, _ = run_cli(capsys, "simulate", "--params", str(params))
    assert rc == 0
    doc = json.loads(out)
    assert abs(doc["success_probability"] - 0.9846805125391737) < 1e-12
    assert abs(doc["capacity_bits"] - 1.8959234805382867) < 1e-12


def test_simulate_csv_and_table(capsys):
    rc, out, _ = run_cli(capsys, "simulate", "--format", "csv")
    assert rc == 0
    assert "# capacity_bits=2" in out
    assert "# success_probability=1" in out

    rc, out, _ = run_cli(capsys, "simulate", "--format", "table")
    assert rc == 0
    assert "capacity: 2 bits" in out
    assert "average success probability: 1" in out


def test_simulate_bad_params_file(capsys, tmp_path):
    params = tmp_path / "params.txt"
    params.write_text("gate.eps_h = 0.005\n")
    rc, out, err = run_cli(capsys, "simulate", "--params", str(params))
    assert rc == 2
    assert out == ""
    assert "unknown key" in err
    assert "valid keys" in err

    rc, _, err = run_cli(capsys, "simulate", "--params",
                         str(tmp_path / "missing.txt"))
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize("out", [".", "missing/out.json"])
def test_unwritable_out_path_is_an_error(capsys, tmp_path, out):
    # a directory, and a file in a directory that does not exist
    rc, stdout, err = run_cli(capsys, "simulate", "--out", str(tmp_path / out))
    assert rc == 2
    assert stdout == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("option, text, message", [
    ("--params", "gate.eps_H = 0.005\nsource.lambda_spin = nan\n",
     "line 2: source.lambda_spin: lambda_spin must be finite, got nan"),
    ("--params", "gate.phi1_deg = -inf\n",
     "line 1: gate.phi1_deg: phi1 must be finite, got -inf"),
    ("--params", "gate.eps_H = 0.005\ngate.eps_H = 0.006\n",
     "line 2: key 'gate.eps_H' is given twice"),
    ("--scenario", "active = source-spin\nsource.lambda_spin.sigma = inf\n",
     "line 2: source.lambda_spin.sigma: sigma must be finite, got inf"),
    ("--scenario", "active = source-spin\nsource.lambda_spin.mean = inf\n",
     "line 2: source.lambda_spin.mean: mean must be finite, got inf"),
    ("--scenario", "source.eps_theta_spin_deg.mean = nan\n",
     "line 1: source.eps_theta_spin_deg.mean: mean must be finite, got nan"),
    ("--scenario", "seed = 1\n\nseed = 2\n", "line 3: key 'seed' is given twice"),
    ("--scenario", "iterations = many\n",
     "line 1: iterations: cannot read 'many' as int"),
    ("--params", "source.lambda_orbit = 0.1\nsource.lambda_spin = 2\n",
     "line 2: source.lambda_spin: lambda_spin must lie in [0, 1], got 2.0"),
    ("--params", "accidentals.fraction = 1\n",
     "line 1: accidentals.fraction: accidental fraction must lie in [0, 1), "
     "got 1.0"),
    ("--scenario", "active = source-spin\nsource.lambda_spin.sigma = -1\n",
     "line 2: source.lambda_spin.sigma: sigma must be non-negative, got -1.0"),
    ("--scenario", "iterations = 0\n",
     "line 1: iterations: iterations must lie in [1, 10000000], got 0"),
    ("--scenario", "name = huge\niterations = 100000000000\n",
     "line 2: iterations: iterations must lie in [1, 10000000], "
     "got 100000000000"),
    ("--scenario", "active = source-spin, gremlins\n",
     "line 1: active: unknown imperfection groups ['gremlins']; valid groups: "
     "['source-spin', 'source-orbit', 'pbs-crosstalk', 'accidentals']"),
    ("--scenario", "iterations = 3\nseed = 18446744073709551616\n",
     "line 2: seed: seed must lie in [-9223372036854775808, 18446744073709551615], "
     "got 18446744073709551616"),
], ids=["params-nan", "params-inf-phase", "params-repeat", "scenario-inf-sigma",
        "scenario-inf-mean", "scenario-nan-mean", "scenario-repeat",
        "scenario-bad-int", "params-range", "params-accidentals-range",
        "scenario-negative-sigma", "scenario-zero-iterations",
        "scenario-huge-iterations", "scenario-unknown-group",
        "scenario-huge-seed"])
def test_bad_numbers_and_repeated_keys_name_file_and_line(capsys, tmp_path,
                                                          option, text, message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    command = "simulate" if option == "--params" else "montecarlo"
    rc, out, err = run_cli(capsys, command, option, str(path))
    assert (rc, out) == (2, "")
    assert err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("param", [p for p in mc.PARAMS if p.group],
                         ids=lambda p: p.key)
def test_params_file_and_zero_sigma_scenario_agree(capsys, tmp_path, param):
    value = 2.0 if param.key.endswith("_deg") else 0.02
    params = tmp_path / "params.txt"
    params.write_text(f"{param.key} = {value}\n")
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(f"active = {param.group}\niterations = 2\n"
                        f"{param.key}.mean = {value}\n{param.key}.sigma = 0\n")
    rc, out, _ = run_cli(capsys, "simulate", "--params", str(params))
    assert rc == 0
    simulated = json.loads(out)
    assert simulated["capacity_bits"] < 2.0 - 1e-6
    rc, out, _ = run_cli(capsys, "montecarlo", "--scenario", str(scenario),
                         "--format", "json")
    assert rc == 0
    sampled = json.loads(out)["results"][0]
    assert abs(sampled["capacity_mean_bits"] - simulated["capacity_bits"]) < 1e-12
    assert abs(sampled["success_mean"] - simulated["success_probability"]) < 1e-12


def test_params_file_phases_are_degrees(capsys, tmp_path):
    params = tmp_path / "params.txt"
    params.write_text("gate.phi1_deg = 30\ngate.phi2_deg = -45\n")
    _, gate, _ = cli.load_params(params)
    assert abs(gate.phi1 - math.pi / 6) < 1e-15
    assert abs(gate.phi2 + math.pi / 4) < 1e-15

    params.write_text("gate.phi1_deg = 30\n")
    rc, out, _ = run_cli(capsys, "simulate", "--params", str(params))
    assert rc == 0
    want = optics.transfer_matrix(states.SourceParams(),
                                  optics.GateParams(phi1=math.pi / 6))
    got = np.array(json.loads(out)["transfer_matrix"]["p"])
    assert np.allclose(got, want.probabilities, rtol=0, atol=1e-12)
    assert not np.allclose(got, np.eye(4), atol=1e-3)


def test_analyze_exact_recovery(capsys, tmp_path):
    counts = tmp_path / "counts.csv"
    counts.write_text(make_counts_csv(signal=711, noise=13))
    rc, out, _ = run_cli(capsys, "analyze", str(counts))
    assert rc == 0
    doc = json.loads(out)
    p = np.array(doc["probabilities"]["p"])
    want = np.full((4, 4), 0.052 / 3)
    np.fill_diagonal(want, 0.948)
    assert np.allclose(p, want, atol=1e-12)
    for label in ("Phi+", "Phi-", "Psi+", "Psi-"):
        assert abs(doc["snr"][label] - 18.23076923076923) < 1e-12
    assert abs(doc["capacity_bits"] - 1.6227491305992996) < 1e-9
    assert abs(doc["mutual_information_uniform_bits"]
               - doc["capacity_bits"]) < 1e-9


def test_analyze_noise_free_counts(capsys, tmp_path):
    counts = tmp_path / "counts.csv"
    counts.write_text(make_counts_csv(signal=500, noise=0))
    rc, out, _ = run_cli(capsys, "analyze", str(counts))
    assert rc == 0
    doc = json.loads(out)
    assert doc["capacity_bits"] == 2.0
    assert all(doc["snr"][label] is None for label in doc["snr"])

    rc, out, _ = run_cli(capsys, "analyze", str(counts), "--format", "table")
    assert rc == 0
    assert "no noise counts" in out


def test_analyze_rejects_malformed_tables(capsys, tmp_path):
    good = make_counts_csv(signal=711, noise=13)

    bad = tmp_path / "bad_header.csv"
    bad.write_text(good.replace("f+f+", "pp"))
    rc, _, err = run_cli(capsys, "analyze", str(bad))
    assert rc == 2 and "header must be" in err

    bad = tmp_path / "bad_cell.csv"
    bad.write_text(good.replace("711", "711.5", 1))
    rc, _, err = run_cli(capsys, "analyze", str(bad))
    assert rc == 2 and "non-negative integers" in err

    bad = tmp_path / "bad_negative.csv"
    bad.write_text(good.replace(",13", ",-13", 1))
    rc, _, err = run_cli(capsys, "analyze", str(bad))
    assert rc == 2 and "non-negative integers" in err

    lines = good.splitlines()
    lines[4] = "Psi-" + ",0" * 16
    bad = tmp_path / "bad_zero_row.csv"
    bad.write_text("\n".join(lines) + "\n")
    rc, _, err = run_cli(capsys, "analyze", str(bad))
    assert rc == 2 and "no counts recorded for message Psi-" in err

    lines = good.splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    bad = tmp_path / "bad_order.csv"
    bad.write_text("\n".join(lines) + "\n")
    rc, _, err = run_cli(capsys, "analyze", str(bad))
    assert rc == 2 and "canonical order" in err

    with pytest.raises(ValueError, match="counts CSV is empty"):
        cli.parse_counts_csv(" \n\n")
    with pytest.raises(ValueError, match="counts CSV must have 4 data rows, got 3"):
        cli.parse_counts_csv("\n".join(good.splitlines()[:4]))
    lines = good.splitlines()
    lines[3] += ",13"
    with pytest.raises(ValueError, match="row 4: expected 17 cells, got 18"):
        cli.parse_counts_csv("\n".join(lines))


@pytest.mark.parametrize("cell", ["abc", "", "711.5", "-13"])
def test_analyze_errors_name_file_row_and_column(capsys, tmp_path, cell):
    lines = make_counts_csv(signal=711, noise=13).splitlines()
    cells = lines[2].split(",")
    cells[3] = cell
    lines[2] = ",".join(cells)
    path = tmp_path / "counts.csv"
    path.write_text("\n".join(lines) + "\n")
    rc, out, err = run_cli(capsys, "analyze", str(path))
    assert (rc, out) == (2, "")
    assert err == (f"error: {path}: row 3, column 'f+y+': counts must be "
                   f"non-negative integers, got {cell!r}\n")


# {argv: stdout}; each section of cli_golden.txt opens with a `### argv` line
GOLDEN_OUTPUTS = dict(
    section.partition("\n")[::2]
    for section in GOLDEN.read_text(encoding="utf-8").split("### ")[1:])


@pytest.mark.parametrize("argv", list(GOLDEN_OUTPUTS))
def test_output_is_byte_pinned(capsys, tmp_path, argv):
    """Every command in every format, on inputs whose printed numbers are
    exact; a layout change shows here as a diff against cli_golden.txt."""
    counts = tmp_path / "counts.csv"
    counts.write_text(make_counts_csv(signal=500, noise=0))
    scenario = tmp_path / "scenario.txt"
    scenario.write_text("name = ideal\niterations = 2\n")
    rc, out, err = run_cli(capsys, *(a.format(counts=counts, scenario=scenario)
                                     for a in argv.split()))
    assert (rc, err) == (0, "")
    assert out == GOLDEN_OUTPUTS[argv]


@pytest.mark.parametrize("command", ["simulate", "analyze"])
def test_uncertified_capacity_is_reported_on_stderr(capsys, monkeypatch, tmp_path,
                                                    command):
    params = tmp_path / "params.txt"
    params.write_text("gate.eps_H = 0.05\ngate.phi1_deg = 20\n")
    counts = tmp_path / "counts.csv"
    counts.write_text(uneven_counts_csv())
    argv = ([command, "--params", str(params)] if command == "simulate"
            else [command, str(counts)]) + ["--format", "json"]
    rc, certified, err = run_cli(capsys, *argv)
    assert (rc, err) == (0, "")

    solve, results = capacity.channel_capacity, []

    def capped(t):
        results.append(solve(t, tol_bits=1e-14, max_iterations=2))
        return results[-1]

    monkeypatch.setattr(capacity, "channel_capacity", capped)
    rc, out, err = run_cli(capsys, *argv)
    [result] = results
    assert (rc, result.converged) == (0, False)
    assert err == (f"warning: capacity not certified: Blahut-Arimoto stopped at 2 "
                   f"iterations with the bracket still {result.gap_bits:.3g} bits wide\n")
    assert json.loads(out)["capacity_bits"] == result.capacity_bits
    assert json.loads(out).keys() == json.loads(certified).keys()


def test_bounds_resolution_has_an_upper_limit(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the resolution check must come first")

    monkeypatch.setattr(np, "linspace", never)
    rc, out, err = run_cli(capsys, "bounds", "--resolution", str(10**9))
    assert (rc, out) == (2, "")
    assert err == "error: resolution must lie in [2, 10000], got 1000000000\n"


def test_bounds_csv(capsys):
    rc, out, _ = run_cli(capsys, "bounds", "--encoding", "4",
                         "--resolution", "5")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "curve,p_s,capacity_bits"
    rows = [ln.split(",") for ln in lines[1:]]
    lower = [(float(p), float(c)) for which, p, c in rows if which == "lower"]
    upper = [(float(p), float(c)) for which, p, c in rows if which == "upper"]
    assert len(lower) == 5 and len(upper) == 5
    assert lower[0][0] == 0.25 and abs(lower[0][1]) < 1e-9
    assert lower[-1] == (1.0, 2.0)
    assert upper[0][0] == 0.75
    assert abs(upper[0][1] - np.log2(3.0)) < 1e-9
    assert upper[-1] == (1.0, 2.0)


def test_bounds_three_message_json(capsys):
    rc, out, _ = run_cli(capsys, "bounds", "--encoding", "3",
                         "--resolution", "4", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["encoding"] == 3
    lower = doc["curves"]["lower"]
    upper = doc["curves"]["upper"]
    assert len(lower) == 4 and len(upper) == 4
    assert abs(lower[0][0] - 1.0 / 3.0) < 1e-12 and abs(lower[0][1]) < 1e-9
    assert abs(lower[-1][1] - np.log2(3.0)) < 1e-9
    assert abs(upper[0][0] - 2.0 / 3.0) < 1e-12
    assert abs(upper[0][1] - 1.0) < 1e-9


def test_montecarlo_builtin_deterministic(capsys):
    args = ("montecarlo", "--builtin", "all", "--seed", "42", "--format",
            "json")
    rc, first, _ = run_cli(capsys, *args)
    assert rc == 0
    rc, second, _ = run_cli(capsys, *args)
    assert rc == 0
    assert first == second
    rc, threaded, _ = run_cli(capsys, *args, "--jobs", "4")
    assert rc == 0
    assert first == threaded
    doc = json.loads(first)
    assert doc["results"][0]["scenario"]["seed"] == 42
    assert doc["results"][0]["scenario"]["name"] == "all"
    assert "budget" not in doc


def test_montecarlo_seed_outside_the_key_range_is_rejected(capsys):
    # 2**64 keys Philox like seed 0; it used to print seed 0's rows silently
    for seed in ("18446744073709551616", str(2**70), str(-2**63 - 1)):
        rc, out, err = run_cli(capsys, "montecarlo", "--builtin", "all",
                               "--seed", seed, "--format", "csv")
        assert (rc, out) == (2, "")
        assert err == ("error: seed must lie in [-9223372036854775808, "
                       f"18446744073709551615], got {seed}\n")


def test_montecarlo_csv_quotes_a_name_with_commas(capsys, tmp_path):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text('name = spin, then "orbit"\nactive = source-spin\n'
                        "iterations = 3\n")
    rc, out, _ = run_cli(capsys, "montecarlo", "--scenario", str(scenario),
                         "--format", "csv")
    assert rc == 0
    header, row = csv.reader(io.StringIO(out))
    assert len(header) == len(row) == 6
    assert row[0] == 'spin, then "orbit"'
    assert float(row[3]) == mc.run(cli.load_scenario(scenario)).capacity_mean


def test_montecarlo_full_budget(capsys):
    rc, out, err = run_cli(capsys, "montecarlo", "--builtin", "full")
    assert (rc, err) == (0, "")
    for name in ("spin", "orbit", "crosstalk", "accidentals", "all"):
        assert name in out
    assert "naive budget" in out
    assert "joint simulation" in out

    rc, out, err = run_cli(capsys, "montecarlo", "--builtin", "full",
                           "--format", "json")
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert len(doc["results"]) == 5
    budget = doc["budget"]
    assert abs(budget["naive_capacity_bits"] - 1.5797058856499557) < 1e-12
    assert abs(budget["joint_capacity_bits"] - 1.644999250827791) < 1e-12
    assert abs(budget["discrepancy_bits"] - 0.06529336517783535) < 1e-12

    rc, out, err = run_cli(capsys, "montecarlo", "--builtin", "full",
                           "--format", "csv")
    assert (rc, err) == (0, "")
    lines = out.strip().splitlines()
    assert lines[0].startswith("scenario,success_mean")
    assert len(lines) == 6


def test_uncertified_montecarlo_draws_are_reported_on_stderr(capsys, tmp_path):
    # Every knob active with wide sigmas.  Draw 8 of seed 1 is a channel of
    # about 2e-6 bits, whose solve stops at the 100,000-iteration cap.
    lines = ["name = wide", "iterations = 9", "seed = 1",
             "active = " + ", ".join(mc.IMPERFECTION_GROUPS)]
    for p in mc.PARAMS:
        if p.key.endswith("_deg"):
            lines.append(f"{p.key}.sigma = {40 if 'theta' in p.key else 120}")
        else:
            lines += [f"{p.key}.mean = 0.5", f"{p.key}.sigma = 0.4"]
    scenario = tmp_path / "wide.txt"
    scenario.write_text("\n".join(lines) + "\n")
    rc, out, err = run_cli(capsys, "montecarlo", "--scenario", str(scenario),
                           "--format", "json")
    assert rc == 0
    assert err == ("warning: capacity not certified for 1 of 9 draws of "
                   "scenario 'wide': Blahut-Arimoto stopped at its iteration cap\n")
    bits = json.loads(out)["results"][0]["iterations_detail"]["capacity_bits"]
    assert 0.0 < bits[8] < 1e-5


def test_montecarlo_scenario_file(capsys, tmp_path):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text("name = spin-wide\nactive = source-spin\n"
                        "source.eps_theta_spin_deg.mean = 1.0\n"
                        "source.eps_theta_spin_deg.sigma = 0.7\n"
                        "iterations = 20\nseed = 11\n")
    rc, out, _ = run_cli(capsys, "montecarlo", "--scenario", str(scenario),
                         "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    got = doc["results"][0]
    assert got["scenario"]["name"] == "spin-wide"
    want = mc.run(cli.load_scenario(scenario))
    assert got["capacity_mean_bits"] == want.capacity_mean
    assert got["success_mean"] == want.success_mean


def test_decompose_message_labels(capsys):
    for label in ("Phi+", "Phi-", "Psi+", "Psi-"):
        rc, out, _ = run_cli(capsys, "decompose", label, "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["state"] == label
        rows = doc["amplitudes"]
        assert len(rows) == 16
        live = [r for r in rows if r["probability"] > 1e-12]
        assert len(live) == 4
        for r in live:
            assert abs(r["probability"] - 0.25) < 1e-12
            assert r["message"] == label
            assert abs(abs(r["re"]) - 0.5) < 1e-12
            assert abs(r["im"]) < 1e-12


def test_decompose_table_marks_signature(capsys):
    rc, out, _ = run_cli(capsys, "decompose", "Psi-")
    assert rc == 0
    assert "* signature pairs of Psi-" in out
    marked = [ln for ln in out.splitlines() if ln.endswith("*")]
    assert len(marked) == 4
    for ln in marked:
        assert ln.startswith(("f+f-", "f-f+", "y+y-", "y-y+"))


def test_decompose_inline_amplitudes(capsys, tmp_path):
    psi = states.encoded_ket(states.Message.PHI_MINUS)
    inline = ",".join(f"{a.real:+.12g}{a.imag:+.12g}j" for a in psi)
    rc, out, _ = run_cli(capsys, "decompose", inline, "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["state"] == "custom"
    live = [r for r in doc["amplitudes"] if r["probability"] > 1e-12]
    assert {r["message"] for r in live} == {"Phi-"}
    # the same amplitudes from a file, one per line
    path = tmp_path / "state.txt"
    path.write_text(inline.replace(",", "\n") + "\n")
    assert run_cli(capsys, "decompose", str(path), "--format", "json") == (0, out, "")


def test_decompose_rejects_bad_input(capsys):
    rc, _, err = run_cli(capsys, "decompose", ",".join(["1"] + ["0"] * 14))
    assert rc == 2 and "expected 16" in err

    rc, _, err = run_cli(capsys, "decompose", ",".join(["1"] + ["0.5"] + ["0"] * 14))
    assert rc == 2 and "normalized" in err

    rc, _, err = run_cli(capsys, "decompose", ",".join(["lemon"] + ["0"] * 15))
    assert rc == 2 and "could not parse amplitude" in err

    rc, out, err = run_cli(capsys, "decompose", ",".join(["nan"] + ["0"] * 15),
                           "--format", "json")
    assert rc == 2 and "finite" in err and out == ""


def test_out_writes_file(capsys, tmp_path):
    out_path = tmp_path / "result.json"
    rc, out, _ = run_cli(capsys, "simulate", "--out", str(out_path))
    assert rc == 0
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert doc["capacity_bits"] == 2.0


def _console_script_target(name: str) -> str:
    """The `module:function` that pyproject.toml declares for script `name`."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as f:
        return tomllib.load(f)["project"]["scripts"][name]


def _package_env() -> dict:
    """Environment in which a subprocess imports the package this test
    imported, wherever pytest found it (an install, PYTHONPATH or
    pyproject's pythonpath)."""
    package_root = str(Path(hyperdense.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
def test_printed_capacities_do_not_depend_on_the_blas_kernel(tmp_path):
    # OpenBLAS picks a kernel for the CPU it runs on, and each kernel rounds a
    # matmul's sums in its own order; Prescott (SSE3) is the oldest x86-64 one
    # and Haswell (AVX2) the one a CPU without AVX-512 picks.  The ideal
    # simulate runs through the analyzer's matmuls.
    counts = tmp_path / "counts.csv"
    counts.write_text(uneven_counts_csv())
    script = (
        "from hyperdense import cli\n"
        "for argv in [['bounds', '--encoding', '3', '--format', 'csv'],\n"
        "             ['bounds', '--encoding', '4', '--format', 'json'],\n"
        f"             ['analyze', {str(counts)!r}, '--format', 'json'],\n"
        "             ['simulate', '--format', 'json'],\n"
        "             ['decompose', 'Phi+', '--format', 'json']]:\n"
        "    assert cli.main(argv) == 0, argv\n")
    outputs = []
    for kernel in (None, "Prescott", "Haswell"):
        env = _package_env()
        env.pop("OPENBLAS_CORETYPE", None)
        if kernel is not None:
            env["OPENBLAS_CORETYPE"] = kernel
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, ""), kernel
        outputs.append(proc.stdout)
    assert outputs[1:] == [outputs[0]] * 2


def test_import_and_every_subcommand_leave_scipy_unloaded(tmp_path):
    counts = tmp_path / "counts.csv"
    counts.write_text(make_counts_csv(signal=500, noise=3))
    scenario = tmp_path / "scenario.txt"
    scenario.write_text("name = ideal\niterations = 2\n")
    script = (
        "import contextlib, io, sys\n"
        "import hyperdense\n"
        "assert 'scipy' not in sys.modules, 'import hyperdense loads scipy'\n"
        "from hyperdense import cli\n"
        f"for argv in [['simulate'], ['analyze', {str(counts)!r}],\n"
        "             ['bounds', '--resolution', '2'], ['decompose', 'Psi-'],\n"
        f"             ['montecarlo', '--scenario', {str(scenario)!r}]]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_package_env())
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\n"


def test_console_entry_point():
    target = _console_script_target("hyperdense")
    module_name, _, attr = target.partition(":")
    func = getattr(importlib.import_module(module_name), attr, None)
    assert callable(func), (
        f"[project.scripts] hyperdense = {target!r} does not resolve to a "
        f"callable")

    # What an installed console script runs: import the target, name the
    # program after the script, exit with the target's return value.
    launcher = (f"import sys\n"
                f"from {module_name} import {attr}\n"
                f"sys.argv[0] = 'hyperdense'\n"
                f"sys.exit({attr}())\n")
    env = _package_env()

    def run_script(*argv):
        return subprocess.run([sys.executable, "-c", launcher, *argv],
                              capture_output=True, text=True, env=env)

    proc = run_script("simulate")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["capacity_bits"] == 2.0

    proc = run_script()
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: hyperdense"), proc.stderr

    proc = subprocess.run([sys.executable, "-m", "hyperdense.cli"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2


@pytest.mark.skipif(shutil.which("hyperdense") is None,
                    reason="the hyperdense console script is not installed")
def test_installed_console_script():
    proc = subprocess.run(["hyperdense", "simulate"], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["capacity_bits"] == 2.0

    proc = subprocess.run(["hyperdense"], capture_output=True, text=True)
    assert proc.returncode == 2
