"""Run one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
                                [--setup-only] [--out-dir DIR]

Imports the package and warms up, prints ``READY``, then (unless
``--setup-only``) generates the inputs, runs the ops closed-loop from a
single client and checks every output.  The last stdout line is a JSON
summary that ``run.py`` turns into metrics.

The timed phase ends at the first pass boundary after the deadline, so
every run covers whole passes of the input ladder.  With ``--trace 1``
the ops run untraced for half the time, then the same passes run again
traced; the ratio of the two gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
import tracer as tracer_mod

ROOT = Path(__file__).resolve().parent.parent
OP_TIMEOUT_S = 120


class Workload:
    """An op list split into passes; subclasses supply setup, ops and checks."""

    def setup(self) -> None:
        pass

    def passes(self, seed: int):
        """Yield lists of op inputs, forever."""
        raise NotImplementedError

    def run_op(self, op, tracer=None):
        """Returns (work units, output)."""
        raise NotImplementedError

    def check(self, op, output) -> list:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class McBudget(Workload):
    """Five builtin scenarios re-seeded per op, then the naive budget check."""

    SUBSAMPLE = (0, 37, 99)

    def setup(self):
        from hyperdense import montecarlo
        self.mc = montecarlo
        for s in montecarlo.default_scenarios():
            montecarlo.run(montecarlo.McScenario(s.name, s.active, s.distributions,
                                                 2, s.seed))

    def passes(self, seed):
        return ([s] for s in inputs.mc_seeds(seed))

    def run_op(self, op, tracer=None):
        mc = self.mc
        results = [mc.run(mc.McScenario(s.name, s.active, s.distributions,
                                        s.iterations, op), jobs=1)
                   for s in mc.default_scenarios()]
        budget = mc.naive_budget_check(results[:4], results[4])
        return sum(r.iterations for r in results), (results, budget)

    def check(self, op, output):
        from hyperdense import capacity, optics
        mc = self.mc
        results, budget = output
        problems = []
        for r in results:
            problems += checks.mc_ranges(r.scenario.name, r.capacity_bits,
                                         r.success_probability)
            for i in self.SUBSAMPLE:
                if i >= r.iterations:
                    continue
                params = mc.sample_params(r.scenario, i)
                t = optics.transfer_matrix(params.source_params(), params.gate_params())
                if "accidentals" in r.scenario.active:
                    t = optics.apply_accidentals(t, params.accidental_model())
                problems += checks.close(
                    f"{r.scenario.name} draw {i} capacity", r.capacity_bits[i],
                    capacity.channel_capacity(t).capacity_bits)
                problems += checks.close(
                    f"{r.scenario.name} draw {i} success", r.success_probability[i],
                    sum(t.probabilities[k, k] for k in range(4)) / 4.0)
        if op == inputs.PINNED_SEED:
            problems += checks.mc_pinned(
                {r.scenario.name: (r.capacity_mean, r.success_mean) for r in results},
                {"naive": budget.naive_capacity_bits, "joint": budget.joint_capacity_bits,
                 "discrepancy": budget.discrepancy_bits})
        return problems


class CliMix(Workload):
    """The real entry point, one subprocess per invocation."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.env = dict(os.environ)

    def passes(self, seed):
        params = self.out_dir / "apparatus.txt"
        counts = self.out_dir / "counts.csv"
        params.write_text(inputs.apparatus_text(seed), encoding="utf-8")
        counts.write_text(inputs.cli_counts_text(seed), encoding="utf-8")
        ops = [
            ("simulate", ["simulate", "--params", str(params)]),
            ("analyze", ["analyze", str(counts), "--format", "table"]),
            ("bounds", ["bounds", "--encoding", "4", "--resolution", "50"]),
            ("decompose", ["decompose", "Psi-"]),
            ("montecarlo", ["montecarlo", "--builtin", "full", "--jobs", "2",
                            "--format", "json"]),
        ]
        self.files = {"params": params, "counts": counts}
        while True:
            yield ops

    def run_op(self, op, tracer=None):
        name, argv = op
        if tracer is None:
            cmd = [sys.executable, "-m", "hyperdense.cli", *argv]
        else:
            spans = self.out_dir / f"spans-{len(tracer.child_dumps)}.json"
            tracer.child_dumps.append(spans)
            cmd = [sys.executable, str(Path(__file__).parent / "launch_cli.py"),
                   str(spans), "--", *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                              timeout=OP_TIMEOUT_S, check=False)
        return 1, (proc.returncode, proc.stdout, proc.stderr)

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def expected(self) -> dict:
        """The same numbers through the in-process route."""
        from hyperdense import capacity, cli, montecarlo, optics, states
        source, gate, accidentals = cli.load_params(self.files["params"])
        t = optics.transfer_matrix(source, gate)
        if accidentals.fraction > 0.0:
            t = optics.apply_accidentals(t, accidentals)
        res = capacity.channel_capacity(t)
        simulate = {"p": t.probabilities, "capacity_bits": res.capacity_bits,
                    "input_distribution": res.input_distribution,
                    "success_probability": capacity.average_success(t)}
        counts = cli.parse_counts_csv(self.files["counts"].read_text(encoding="utf-8"))
        t = cli.aggregate_counts(counts)
        analyze = {"p": t.probabilities, "snr": capacity.snr_per_message(counts),
                   "mutual_information": capacity.mutual_information([0.25] * 4, t),
                   "capacity_bits": capacity.channel_capacity(t).capacity_bits}
        bounds = {w: capacity.bound_curve(4, w, 50).tolist() for w in ("lower", "upper")}
        decompose = states.spin_orbit_decompose(
            states.encoded_ket(states.Message.from_label("Psi-")))
        results = [montecarlo.run(s) for s in montecarlo.default_scenarios()]
        budget = montecarlo.naive_budget_check(results[:4], results[4])
        mc = {r.scenario.name: {
            "capacity_mean_bits": r.capacity_mean, "capacity_std_bits": r.capacity_std,
            "success_mean": r.success_mean, "success_std": r.success_std,
            "capacity_reduction_bits": r.capacity_reduction,
            "capacity_bits": r.capacity_bits, "success_probability": r.success_probability,
        } for r in results}
        mc["budget"] = {
            "individual_reductions_bits": budget.individual_reductions,
            "naive_capacity_bits": budget.naive_capacity_bits,
            "joint_capacity_bits": budget.joint_capacity_bits,
            "discrepancy_bits": budget.discrepancy_bits,
        }
        return {"simulate": (checks.simulate_json, simulate),
                "analyze": (checks.analyze_table, analyze),
                "bounds": (checks.bounds_csv, bounds),
                "decompose": (checks.decompose_table, decompose),
                "montecarlo": (checks.montecarlo_json, mc)}

    def check(self, op, output):
        name, _argv = op
        code, stdout, stderr = output
        if code != 0:
            return [f"{name} exited {code}: {stderr.strip()[-200:]}"]
        if not hasattr(self, "_expected"):
            self._expected = self.expected()
        checker, want = self._expected[name]
        try:
            return checker(stdout, want)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"{name} output does not parse: {exc!r}"]


def make_workload(name: str, out_dir: Path) -> Workload:
    return CliMix(out_dir) if name == "cli-mix" else McBudget()


def timed(workload: Workload, pass_iter, seconds: float = None, n_passes: int = None,
          tracer=None) -> dict:
    """Closed loop over whole passes until `seconds` elapse or `n_passes` are done."""
    ops, outputs, latencies = [], [], []
    units, passes = 0, 0
    start = time.perf_counter()
    for batch in pass_iter:
        for op in batch:
            op_start = time.perf_counter()
            try:
                if tracer is None:
                    n, out = workload.run_op(op)
                else:
                    with tracer.op(len(ops)):
                        n, out = workload.run_op(op, tracer)
            except Exception as exc:  # a raising op is a failed op, not a crash
                n, out = 0, exc
            latencies.append(time.perf_counter() - op_start)
            units += n
            ops.append(op)
            outputs.append(out)
        passes += 1
        if n_passes is not None:
            if passes >= n_passes:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return {"elapsed": time.perf_counter() - start, "latencies": latencies,
            "units": units, "passes": passes, "ops": ops, "outputs": outputs}


def check_all(workload: Workload, phase: dict) -> list:
    failures = []
    for op, out in zip(phase["ops"], phase["outputs"]):
        if isinstance(out, Exception):
            problems = [f"raised {out!r}"]
        else:
            problems = workload.check(op, out)
        if problems:
            failures.append(problems[0])
    return failures


def replay(pass_iter_factory, n_passes: int):
    """The first n_passes of a fresh pass iterator, materialized."""
    it = pass_iter_factory()
    return [next(it) for _ in range(n_passes)]


def trace_summary(workload: Workload, tracer, phase: dict) -> dict:
    """Per-layer calls and self time, summed over this process and the
    span files of traced subprocesses (span ids are per process)."""
    span_sets = [tracer.spans]
    stats = tracer.stats.as_dict()
    for path in tracer.child_dumps:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        span_sets.append([tuple(s) for s in data["spans"]])
        for key, value in data["stats"].items():
            stats[key] += value
    layers = {name: {"calls": 0, "self_ms": 0.0} for name in tracer_mod.SPAN_NAMES}
    for spans in span_sets:
        for name, (calls, self_s) in tracer_mod.summarize(spans).items():
            if name in layers:
                layers[name]["calls"] += calls
                layers[name]["self_ms"] += self_s * 1e3
    wall = {}
    if isinstance(workload, CliMix):
        for (name, _argv), lat in zip(phase["ops"], phase["latencies"]):
            wall.setdefault(name, []).append(lat * 1e3)
    return {"layers": layers, "stats": stats,
            "cli_wall_ms": {k: statistics.median(v) for k, v in wall.items()},
            "work_ms": sum(phase["latencies"]) * 1e3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("mc-budget", "cli-mix"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", type=Path, default=ROOT / ".perfbench")
    args = ap.parse_args(argv)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    workload = make_workload(args.workload, args.out_dir)
    workload.setup()
    import hyperdense
    if ROOT / "src" not in Path(hyperdense.__file__).resolve().parents:
        raise SystemExit(f"hyperdense imported from {hyperdense.__file__}, "
                         f"not from {ROOT / 'src'}")
    print("READY", flush=True)
    if args.setup_only:
        return 0

    def fresh_passes():
        return workload.passes(args.seed)

    summary = {}
    if args.trace:
        plain = timed(workload, fresh_passes(), seconds=args.seconds / 2.0)
        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            traced = timed(workload, iter(replay(fresh_passes, plain["passes"])),
                           n_passes=plain["passes"], tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.dump(args.out_dir / f"trace-{args.workload}-seed{args.seed}.json")
        summary["trace"] = trace_summary(workload, tracer, traced)
        summary["trace"]["overhead_frac"] = traced["elapsed"] / plain["elapsed"] - 1.0
        phase = plain
        checked = [plain, traced]
    else:
        phase = timed(workload, fresh_passes(), seconds=args.seconds)
        checked = [phase]
    summary["peak_rss_mb"] = workload.peak_rss_mb()

    failures = []
    for ph in checked:
        failures += check_all(workload, ph)
    summary.update(
        attempted=sum(len(ph["ops"]) for ph in checked),
        failed=len(failures),
        problems=failures[:5],
        latencies_ms=[t * 1e3 for t in phase["latencies"]],
        units=phase["units"],
        elapsed_s=phase["elapsed"],
        passes=phase["passes"],
        meta=machine_meta(),
    )
    print(json.dumps(summary), flush=True)
    return 0


def machine_meta() -> dict:
    import numpy as np
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas}


if __name__ == "__main__":
    sys.exit(main())
