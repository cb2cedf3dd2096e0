"""Command-line interface: the package's text layer.

Five subcommands cover the simulation workflow:

* simulate   - conditional-detection matrix and capacity for one setting
* analyze    - aggregate a measured 4x16 counts table
* bounds     - capacity bound curves for 3- and 4-message encodings
* montecarlo - imperfection budgets, builtin or from a scenario file
* decompose  - spin-orbit Bell amplitudes of an encoded state

It reads every input file (flat text, angles in degrees) and renders
every table, CSV and JSON output; the other modules take and return
numbers and records.  JSON output preserves floats at full precision,
tables round to 6 significant digits.  Every command is deterministic
given its inputs and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import capacity as cap
from . import montecarlo as mc
from . import optics, states

_COUNTS_HEADER = ["sent"] + [l1.ascii + l2.ascii for l1, l2 in states.BELL_PAIRS]

_PARAMS_FILE_KEYS = dict.fromkeys((p.key for p in mc.PARAMS), float)

_SCENARIO_KEYS = {"name": str, "active": str, "iterations": int, "seed": int,
                  **{f"{p.key}.{kind}": float for p in mc.PARAMS
                     for kind in ("mean", "sigma")}}

_FORMATS = ("json", "csv", "table")


def parse_key_values(text: str, keys: dict, build):
    """The record ``build(values)`` of flat ``key = value`` lines.

    ``keys`` maps every valid key to its converter (str, int or float),
    and ``build`` makes a record from {key: converted value}, missing keys
    at their defaults.  A line is valid when the record built from that
    line alone is: each line is checked by ``build({key: value})``, whose
    records reject a NaN or infinite number.  Blank lines and #-comments are
    ignored.  An unknown or repeated key, a value the converter rejects and
    a value that ``build`` rejects with ValueError are errors that name the
    line.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in keys:
            raise ValueError(f"line {lineno}: unknown key {key!r}; "
                             f"valid keys: {list(keys)}")
        if key in values:
            raise ValueError(f"line {lineno}: key {key!r} is given twice")
        try:
            v = keys[key](value)
        except ValueError:
            raise ValueError(f"line {lineno}: {key}: cannot read {value!r} "
                             f"as {keys[key].__name__}") from None
        try:
            build({key: v})
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key}: {exc}") from None
        values[key] = v
    return build(values)


def parse_file(path, parse):
    """parse(text of the file at path); a ValueError from parse names the path."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _records(values: dict) -> tuple:
    params = mc.ImperfectionParams.from_values(values)
    return (params.source_params(), params.gate_params(),
            params.accidental_model())


def _parse_params(text: str) -> tuple:
    return parse_key_values(text, _PARAMS_FILE_KEYS, _records)


def load_params(path) -> tuple:
    """Read a flat key=value parameter file with the keys of mc.PARAMS.

    Returns (SourceParams, GateParams, AccidentalModel); missing keys
    default to the ideal apparatus with no accidentals.  A value that the
    record built from its line alone rejects fails with that line.
    """
    return parse_file(path, _parse_params)


def _groups(text: str) -> frozenset:
    return frozenset(g.strip() for g in text.split(",") if g.strip())


def _scenario(values: dict) -> mc.McScenario:
    dists = {}
    for p in mc.PARAMS:
        mean, sigma = f"{p.key}.mean", f"{p.key}.sigma"
        if mean in values or sigma in values:
            dists[p.key] = mc.ParamDistribution(values.get(mean, p.default),
                                                values.get(sigma, 0.0))
    return mc.McScenario(name=values.get("name", "custom"),
                         active=_groups(values.get("active", "")),
                         distributions=dists,
                         iterations=values.get("iterations", mc.DEFAULT_ITERATIONS),
                         seed=values.get("seed", mc.DEFAULT_SEED))


def parse_scenario_text(text: str) -> mc.McScenario:
    """Parse the flat key=value scenario format.

    Recognized keys: name=, active= (comma-separated groups),
    iterations=, seed=, and per-parameter <param>.mean= / <param>.sigma=
    with <param> a key of mc.PARAMS (a missing mean is the knob's default).
    Blank lines and #-comments are ignored; a value that McScenario or
    ParamDistribution rejects fails with its line.
    """
    return parse_key_values(text, _SCENARIO_KEYS, _scenario)


def load_scenario(path) -> mc.McScenario:
    """Parse the scenario file at ``path``; errors name the path and line."""
    return parse_file(path, parse_scenario_text)


def parse_counts_csv(text: str) -> np.ndarray:
    """Parse the 4x16 counts table (sent rows, Bell-pair columns)."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("counts CSV is empty")
    header = [c.strip() for c in lines[0].split(",")]
    if header != _COUNTS_HEADER:
        raise ValueError(
            f"counts CSV header must be {','.join(_COUNTS_HEADER)!r}")
    if len(lines) != 5:
        raise ValueError(f"counts CSV must have 4 data rows, got {len(lines) - 1}")
    counts = np.zeros((4, 16))
    for i, m in enumerate(states.Message):
        cells = [c.strip() for c in lines[1 + i].split(",")]
        if len(cells) != 17:
            raise ValueError(f"row {i + 2}: expected 17 cells, got {len(cells)}")
        if cells[0] != m.label:
            raise ValueError(f"row {i + 2}: expected sent message {m.label!r} "
                             f"in canonical order, got {cells[0]!r}")
        for j, cell in enumerate(cells[1:]):
            try:
                v = float(cell)
            except ValueError:
                v = math.nan  # not a number: fails the check below
            if not v.is_integer() or v < 0:
                raise ValueError(
                    f"row {i + 2}, column {_COUNTS_HEADER[j + 1]!r}: counts "
                    f"must be non-negative integers, got {cell!r}")
            counts[i, j] = v
        if counts[i].sum() == 0:
            raise ValueError(f"row {i + 2}: no counts recorded for message "
                             f"{m.label}")
    return counts


def aggregate_counts(counts: np.ndarray) -> optics.TransferMatrix:
    """Collapse signature columns into a 4x4 conditional-probability matrix."""
    p = (counts @ states.PAIR_SIGNATURES) / counts.sum(axis=1, keepdims=True)
    return optics.TransferMatrix(p.T)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    v = str(v)  # RFC 4180: quote a cell with a separator, quote or line break
    return '"' + v.replace('"', '""') + '"' if any(c in v for c in ',"\r\n') else v


def _csv_text(header, rows, notes=None) -> str:
    """CSV with floats at 17 significant digits, then `# key=value` notes."""
    lines = [",".join(header)]
    lines += [",".join(_csv_cell(v) for v in row) for row in rows]
    lines += [f"# {key}={_csv_cell(v)}" for key, v in (notes or {}).items()]
    return "\n".join(lines) + "\n"


def _matrix_csv(t: optics.TransferMatrix, notes) -> str:
    labels = states.MESSAGE_LABELS
    return _csv_text(["detected"] + [f"sent_{lab}" for lab in labels],
                     [[lab, *t.probabilities[y]] for y, lab in enumerate(labels)],
                     notes)


def _matrix_table(title: str, t: optics.TransferMatrix) -> list:
    labels = states.MESSAGE_LABELS
    lines = [title, "", "detected " + "".join(f"{lab:>12}" for lab in labels)]
    for y, lab in enumerate(labels):
        lines.append(f"{lab:<8} " +
                     "".join(f"{v:>12.6g}" for v in t.probabilities[y]))
    return lines + [""]


def _write_output(text: str, out) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _capacity(t) -> cap.CapacityResult:
    """channel_capacity of t; an uncertified result is reported on stderr."""
    result = cap.channel_capacity(t)
    if not result.converged:
        print(f"warning: capacity not certified: Blahut-Arimoto stopped at "
              f"{result.iterations} iterations with the bracket still "
              f"{result.gap_bits:.3g} bits wide", file=sys.stderr)
    return result


# --- simulate ----------------------------------------------------------------

def _cmd_simulate(args) -> str:
    source, gate, accidentals = (
        load_params(args.params) if args.params else _parse_params(""))
    t = optics.apply_accidentals(optics.transfer_matrix(source, gate),
                                 accidentals)
    result = _capacity(t)
    success = cap.average_success(t)
    if args.format == "json":
        return _json_text({
            "transfer_matrix": optics.to_json_dict(t),
            "capacity_bits": result.capacity_bits,
            "input_distribution": [float(v) for v in result.input_distribution],
            "success_probability": success,
        })
    if args.format == "csv":
        return _matrix_csv(t, {"capacity_bits": result.capacity_bits,
                               "success_probability": success})
    lines = _matrix_table(
        "conditional detection probabilities p(detected | sent)", t)
    lines.append(f"capacity: {result.capacity_bits:.6g} bits")
    lines.append(f"average success probability: {success:.6g}")
    return "\n".join(lines) + "\n"


# --- analyze -----------------------------------------------------------------

def _cmd_analyze(args) -> str:
    counts = parse_file(args.counts, parse_counts_csv)
    t = aggregate_counts(counts)
    snrs = cap.snr_per_message(counts)
    uniform = np.full(4, 0.25)
    mi_uniform = cap.mutual_information(uniform, t)
    result = _capacity(t)
    if args.format == "json":
        return _json_text({
            "probabilities": optics.to_json_dict(t),
            "snr": {m.label: snrs[m] for m in states.Message},
            "mutual_information_uniform_bits": mi_uniform,
            "capacity_bits": result.capacity_bits,
            "input_distribution": [float(v) for v in result.input_distribution],
        })
    if args.format == "csv":
        return _matrix_csv(t, {
            **{f"snr_{m.label}": "inf" if snrs[m] is None else snrs[m]
               for m in states.Message},
            "mutual_information_uniform_bits": mi_uniform,
            "capacity_bits": result.capacity_bits,
        })
    lines = _matrix_table("aggregated probabilities p(detected | sent)", t)
    for m in states.Message:
        s = "no noise counts" if snrs[m] is None else f"{snrs[m]:.6g}"
        lines.append(f"SNR {m.label}: {s}")
    lines.append(f"mutual information (uniform inputs): {mi_uniform:.6g} bits")
    lines.append(f"capacity: {result.capacity_bits:.6g} bits")
    return "\n".join(lines) + "\n"


# --- bounds ------------------------------------------------------------------

def _cmd_bounds(args) -> str:
    curves = {
        which: cap.bound_curve(args.encoding, which, args.resolution)
        for which in ("lower", "upper")
    }
    if args.format == "json":
        return _json_text({
            "encoding": args.encoding,
            "curves": {
                which: [[float(p), float(c)] for p, c in rows]
                for which, rows in curves.items()
            },
        })
    if args.format == "csv":
        return _csv_text(["curve", "p_s", "capacity_bits"],
                         [[which, p, c] for which, rows in curves.items()
                          for p, c in rows])
    lines = [f"capacity bounds, {args.encoding}-message encoding",
             "",
             f"{'curve':<8} {'p_s':>10} {'capacity_bits':>15}"]
    for which, rows in curves.items():
        for p, c in rows:
            lines.append(f"{which:<8} {p:>10.6g} {c:>15.6g}")
    return "\n".join(lines) + "\n"


# --- montecarlo --------------------------------------------------------------

def render_table(results, budget: mc.BudgetReport | None = None) -> str:
    """Text table with one row per scenario."""
    header = (f"{'imperfection':<14} {'success_probability':>24} "
              f"{'capacity_bits':>24} {'reduction_bits':>15}")
    lines = [header, "-" * len(header)]
    for r in results:
        succ = f"{r.success_mean:.6g} +/- {r.success_std:.2g}"
        bits = f"{r.capacity_mean:.6g} +/- {r.capacity_std:.2g}"
        lines.append(f"{r.scenario.name:<14} {succ:>24} {bits:>24} "
                     f"{r.capacity_reduction:>15.6g}")
    if budget is not None:
        lines.append("")
        lines.append(f"naive budget: 2 - sum(reductions) = "
                     f"{budget.naive_capacity_bits:.6g} bits")
        lines.append(f"joint simulation: {budget.joint_capacity_bits:.6g} bits "
                     f"(difference {budget.discrepancy_bits:+.6g})")
    return "\n".join(lines) + "\n"


def _cmd_montecarlo(args) -> str:
    if args.scenario:
        scenarios = [load_scenario(args.scenario)]
    elif args.builtin == "full":
        scenarios = mc.default_scenarios()
    else:
        scenarios = [mc.builtin_scenario(args.builtin)]
    if args.seed is not None:
        scenarios = [dataclasses.replace(s, seed=args.seed) for s in scenarios]
    results = [mc.run(s, jobs=args.jobs) for s in scenarios]
    for r in results:
        if r.uncertified:
            print(f"warning: capacity not certified for {r.uncertified} of "
                  f"{r.iterations} draws of scenario {r.scenario.name!r}: "
                  f"Blahut-Arimoto stopped at its iteration cap", file=sys.stderr)
    budget = None
    if args.builtin == "full":
        budget = mc.naive_budget_check(results[:-1], results[-1])
    if args.format == "json":
        payload = {"results": [mc.result_to_json_dict(r) for r in results]}
        if budget is not None:
            payload["budget"] = {
                "individual_reductions_bits": budget.individual_reductions,
                "naive_capacity_bits": budget.naive_capacity_bits,
                "joint_capacity_bits": budget.joint_capacity_bits,
                "discrepancy_bits": budget.discrepancy_bits,
            }
        return _json_text(payload)
    if args.format == "csv":
        return _csv_text(
            ["scenario", "success_mean", "success_std", "capacity_mean_bits",
             "capacity_std_bits", "capacity_reduction_bits"],
            [[r.scenario.name, r.success_mean, r.success_std, r.capacity_mean,
              r.capacity_std, r.capacity_reduction] for r in results])
    return render_table(results, budget)


# --- decompose ---------------------------------------------------------------

def _parse_amplitudes(text: str) -> np.ndarray:
    cells = [c for c in text.replace(",", " ").split() if c]
    if len(cells) != 16:
        raise ValueError(f"expected 16 complex amplitudes, got {len(cells)}")
    try:
        values = [complex(c) for c in cells]
    except ValueError as exc:
        raise ValueError(f"could not parse amplitude: {exc}") from None
    psi = np.array(values, dtype=complex)
    if not np.isfinite(psi).all():
        raise ValueError("amplitudes must be finite")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"amplitudes must be normalized, got norm {norm:.8g}")
    return psi / norm


def _cmd_decompose(args) -> str:
    state_arg = args.state
    sent = None
    try:
        sent = states.Message.from_label(state_arg)
        psi = states.encoded_ket(sent)
    except ValueError:
        if os.path.exists(state_arg):
            psi = parse_file(state_arg, _parse_amplitudes)
        else:
            psi = _parse_amplitudes(state_arg)
    amps = states.spin_orbit_decompose(psi)
    rows = []
    for l1, l2 in states.BELL_PAIRS:
        a = amps[l1, l2]
        rows.append({
            "pair": l1.ascii + l2.ascii,
            "photon1": l1.label,
            "photon2": l2.label,
            "re": float(a.real),
            "im": float(a.imag),
            "probability": float(abs(a) ** 2),
            "message": states.message_of_pair(l1, l2).label,
        })
    if args.format == "json":
        return _json_text({
            "state": sent.label if sent is not None else "custom",
            "amplitudes": rows,
        })
    if args.format == "csv":
        columns = ["pair", "re", "im", "probability", "message"]
        return _csv_text(columns, [[r[c] for c in columns] for r in rows])
    lines = [f"{'pair':<6} {'amplitude':>24} {'probability':>12} "
             f"{'message':>8}"]
    for r in rows:
        mark = " "
        if sent is not None and r["message"] == sent.label and r["probability"] > 1e-12:
            mark = "*"
        amp = f"{r['re']:+.6g}{r['im']:+.6g}j"
        lines.append(f"{r['pair']:<6} {amp:>24} {r['probability']:>12.6g} "
                     f"{r['message']:>8} {mark}")
    if sent is not None:
        lines.append("")
        lines.append(f"* signature pairs of {sent.label}")
    return "\n".join(lines) + "\n"


# --- parser ------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperdense",
        description="Hyperentanglement-assisted superdense coding: simulation "
                    "and capacity analysis.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH",
                        help="write output to PATH instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common],
                       help="transfer matrix and capacity for one setting")
    p.add_argument("--params", metavar="FILE",
                   help="key=value imperfection parameters (default: ideal)")
    p.add_argument("--format", choices=_FORMATS, default="json")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("analyze", parents=[common],
                       help="aggregate a 4x16 counts table")
    p.add_argument("counts", metavar="COUNTS_CSV")
    p.add_argument("--format", choices=_FORMATS, default="json")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("bounds", parents=[common],
                       help="capacity bound curves")
    p.add_argument("--encoding", type=int, choices=(3, 4), default=4)
    p.add_argument("--resolution", type=int, default=50)
    p.add_argument("--format", choices=_FORMATS, default="csv")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("montecarlo", parents=[common],
                       help="imperfection budget Monte Carlo")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", choices=(*mc.BUILTIN_NAMES, "full"),
                       help="builtin scenario; 'full' runs all five plus "
                            "the naive-budget comparison")
    group.add_argument("--scenario", metavar="FILE",
                       help="scenario description file")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario seed")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; iterations always run "
                        "serially and any value gives identical results")
    p.add_argument("--format", choices=_FORMATS, default="table")
    p.set_defaults(handler=_cmd_montecarlo)

    p = sub.add_parser("decompose", parents=[common],
                       help="spin-orbit Bell amplitudes of a state")
    p.add_argument("state", metavar="STATE",
                   help="message label (Phi+, Phi-, Psi+, Psi-), a file of 16 "
                        "complex amplitudes, or an inline comma-separated list")
    p.add_argument("--format", choices=_FORMATS, default="table")
    p.set_defaults(handler=_cmd_decompose)
    return parser


def main(argv=None) -> int:
    """Run the ``hyperdense`` command line; returns the exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _write_output(args.handler(args), args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
