"""Output checks.  Each returns a list of problems; an empty list passes."""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from inputs import BELL_ASCII, MESSAGE_LABELS, message_of_pair

EXACT_TOL = 1e-12
# Table output rounds to 6 significant digits.
TABLE_REL_TOL = 5e-6

# Builtin Monte Carlo budget at seed 6, 100 draws (tests/test_montecarlo.py).
PINNED_MEANS = {
    "spin": (1.9138445924975938, 0.9911393586824978),
    "orbit": (1.793930147916264, 0.9749847203415082),
    "crosstalk": (1.8959415089615166, 0.9846984063295469),
    "accidentals": (1.9759896362745815, 0.9979975),
    "all": (1.644999250827791, 0.9498415802468747),
}
PINNED_BUDGET = {"naive": 1.5797058856499557, "joint": 1.644999250827791,
                 "discrepancy": 0.06529336517783535}


def close(what: str, got, want, tol: float = EXACT_TOL, rel: float = 0.0) -> list:
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape} != {want.shape}"]
    err = np.abs(got - want) - (tol + rel * np.abs(want))
    if not np.all(np.isfinite(got)) or np.max(err, initial=-1.0) > 0.0:
        worst = float(np.max(np.abs(got - want), initial=0.0))
        return [f"{what}: differs by {worst:.3g}"]
    return []


# --- mc-budget -------------------------------------------------------------

def mc_ranges(name: str, capacities, successes) -> list:
    c = np.asarray(capacities)
    s = np.asarray(successes)
    problems = []
    if not (np.all(np.isfinite(c)) and c.min() >= 0.0 and c.max() <= 2.0):
        problems.append(f"{name}: capacity outside [0, 2]")
    if not (np.all(np.isfinite(s)) and s.min() >= 0.0 and s.max() <= 1.0):
        problems.append(f"{name}: success probability outside [0, 1]")
    return problems


def mc_pinned(means: dict, budget: dict) -> list:
    """means: name -> (capacity mean, success mean); budget: naive/joint/discrepancy."""
    problems = []
    for name, want in PINNED_MEANS.items():
        problems += close(f"pinned {name} means", means.get(name, (math.nan,) * 2), want)
    for key, want in PINNED_BUDGET.items():
        problems += close(f"pinned budget {key}", budget.get(key, math.nan), want)
    return problems


# --- cli-mix: stdout parsers and comparisons --------------------------------

def simulate_json(stdout: str, want: dict) -> list:
    got = json.loads(stdout)
    return (close("simulate p", got["transfer_matrix"]["p"], want["p"])
            + close("simulate capacity", got["capacity_bits"], want["capacity_bits"])
            + close("simulate input distribution", got["input_distribution"],
                    want["input_distribution"])
            + close("simulate success", got["success_probability"],
                    want["success_probability"]))


def analyze_table(stdout: str, want: dict) -> list:
    rows, snr, values = {}, {}, {}
    for line in stdout.splitlines():
        parts = line.split()
        if parts and parts[0] in MESSAGE_LABELS and len(parts) == 5:
            rows[parts[0]] = [float(t) for t in parts[1:]]
        elif line.startswith("SNR "):
            label, value = line[4:].split(": ", 1)
            snr[label] = None if value == "no noise counts" else float(value)
        elif ": " in line and line.endswith(" bits"):
            key, value = line[:-5].rsplit(": ", 1)
            values[key] = float(value)
    p = [rows.get(label, [math.nan] * 4) for label in MESSAGE_LABELS]
    problems = close("analyze p", p, want["p"], rel=TABLE_REL_TOL)
    for label, s in zip(MESSAGE_LABELS, want["snr"]):
        if (snr.get(label, math.nan) is None) != (s is None):
            problems.append(f"analyze SNR {label} presence differs")
        elif s is not None:
            problems += close(f"analyze SNR {label}", snr[label], s, rel=TABLE_REL_TOL)
    problems += close("analyze mutual information",
                      values.get("mutual information (uniform inputs)", math.nan),
                      want["mutual_information"], rel=TABLE_REL_TOL)
    problems += close("analyze capacity", values.get("capacity", math.nan),
                      want["capacity_bits"], rel=TABLE_REL_TOL)
    return problems


def bounds_csv(stdout: str, want: dict) -> list:
    got = {}
    for row in csv.DictReader(io.StringIO(stdout)):
        got.setdefault(row["curve"], []).append(
            [float(row["p_s"]), float(row["capacity_bits"])])
    problems = []
    for which, rows in want.items():
        problems += close(f"bounds {which}", got.get(which, []), rows)
    if set(got) != set(want):
        problems.append(f"bounds curves {sorted(got)} != {sorted(want)}")
    return problems


def decompose_table(stdout: str, want_amplitudes) -> list:
    """want_amplitudes[l1][l2]: complex amplitude of the Bell pair (l1, l2)."""
    want = np.asarray(want_amplitudes, dtype=complex)
    got = np.full((4, 4), np.nan, dtype=complex)
    problems = []
    labels = [a + b for a in BELL_ASCII for b in BELL_ASCII]
    for line in stdout.splitlines():
        parts = line.split()
        if not parts or parts[0] not in labels:
            continue
        l1, l2 = divmod(labels.index(parts[0]), 4)
        got[l1, l2] = complex(parts[1])
        problems += close(f"decompose {parts[0]} probability", float(parts[2]),
                          abs(want[l1, l2]) ** 2, rel=TABLE_REL_TOL)
        if parts[3] != MESSAGE_LABELS[message_of_pair(l1, l2)]:
            problems.append(f"decompose {parts[0]} assigned to {parts[3]}")
    return problems + close("decompose amplitudes", got, want, rel=TABLE_REL_TOL)


def montecarlo_json(stdout: str, want: dict) -> list:
    """want: scenario name -> dict of result fields, plus 'budget'."""
    got = json.loads(stdout)
    problems = []
    names = [r["scenario"]["name"] for r in got["results"]]
    if names != [n for n in want if n != "budget"]:
        problems.append(f"montecarlo scenarios {names}")
    for r in got["results"]:
        ref = want.get(r["scenario"]["name"], {})
        for key, value in ref.items():
            got_value = r["iterations_detail"][key] if key in (
                "capacity_bits", "success_probability") else r[key]
            problems += close(f"montecarlo {r['scenario']['name']} {key}", got_value, value)
    for key, value in want["budget"].items():
        got_value = got["budget"][key]
        if isinstance(value, dict):
            got_value = [got_value[k] for k in value]
            value = list(value.values())
        problems += close(f"montecarlo budget {key}", got_value, value)
    return problems
