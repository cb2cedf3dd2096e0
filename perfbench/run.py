"""hyperdense benchmark: one workload, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from the
checkout's ``src/``.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones; the last stdout line is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it are a readable report, and the full record goes to
``.perfbench/result-<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import SPAN_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc-budget", "cli-mix")
CLI_SUBCOMMANDS = ("simulate", "analyze", "bounds", "decompose", "montecarlo")
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
RUN_TIMEOUT_S = 170  # the whole run must end within 180 s
TAIL_BEYOND = 10  # samples the tail percentile leaves above it

class BenchError(Exception):
    pass


def bench_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def check_checkout() -> None:
    if not (ROOT / "src" / "hyperdense" / "__init__.py").is_file():
        raise BenchError(f"no hyperdense package under {ROOT / 'src'}")


def timed_until_ready(cmd, env) -> tuple:
    """Start cmd; return (seconds until it prints READY, the process)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not get ready: {line!r}")
    return elapsed, proc


def setup_samples(workload: str, worker_cmd: list, env: dict) -> list:
    samples = []
    for _ in range(SETUP_SAMPLES - (workload != "cli-mix")):
        if workload == "cli-mix":
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import hyperdense.cli"],
                           env=env, cwd=ROOT, check=True, timeout=60)
            samples.append(time.perf_counter() - start)
        else:
            elapsed, proc = timed_until_ready(worker_cmd + ["--setup-only"], env)
            proc.communicate(timeout=60)
            samples.append(elapsed)
    return samples


def run_worker(worker_cmd: list, env: dict, deadline: float) -> tuple:
    """(setup seconds, worker summary)."""
    elapsed, proc = timed_until_ready(worker_cmd, env)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return elapsed, json.loads(out.strip().splitlines()[-1])


def parse_importtime(stderr: str) -> dict:
    """numpy and scipy cumulative ms (outermost entries) and hyperdense self ms."""
    pending = []  # (level, name, self_us, cumulative_us, children)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cum_us, field = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # header line
        level = (len(field) - len(field.lstrip()) - 1) // 2
        children = []
        while pending and pending[-1][0] > level:
            children.append(pending.pop())
        pending.append((level, field.strip(), int(self_us), int(cum_us), children))

    totals = {"numpy": 0, "scipy": 0, "hyperdense_self": 0}

    def walk(node, inside):
        _level, name, self_us, cum_us, children = node
        top = name.split(".")[0]
        if top == "hyperdense":
            totals["hyperdense_self"] += self_us
        if top in ("numpy", "scipy") and top not in inside:
            totals[top] += cum_us
            inside = inside | {top}
        for child in children:
            walk(child, inside)

    for node in pending:
        walk(node, frozenset())
    return {f"import.{k}_ms": v / 1e3 for k, v in totals.items()}


def import_probe(env: dict) -> dict:
    runs = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-X", "importtime", "-c",
                              "import hyperdense.cli"],
                             capture_output=True, text=True, env=env, cwd=ROOT,
                             timeout=60, check=True)
        runs.append(parse_importtime(out.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def tail(values: list) -> tuple:
    """(value, percentile, n): the highest percentile with TAIL_BEYOND samples
    above it, or the maximum when there are too few samples for one."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return ordered[k - 1], 100.0 * k / n, n


def end_to_end(summary: dict, setup: list) -> tuple:
    lat = summary["latencies_ms"]
    tail_ms, pct, n = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "work_per_s": (summary["units"] / summary["elapsed_s"], "1/s"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
    }
    notes = {"op_tail_ms": f"p{pct:.1f} of n={n} ops",
             "setup_s": f"median of {len(setup)}",
             "work_per_s": f"{summary['units']} units in {summary['passes']} passes, "
                           f"{summary['elapsed_s']:.2f} s"}
    return metrics, notes


def per_layer(summary: dict, imports: dict) -> tuple:
    trace = summary["trace"]
    metrics = {}
    for name in SPAN_NAMES:
        layer = trace["layers"][name]
        metrics[f"{name}.calls"] = (layer["calls"], "count")
        metrics[f"{name}.self_ms"] = (layer["self_ms"], "ms")
    stats = trace["stats"]
    draws = stats["draws"]
    metrics["capacity.channel_capacity.iterations"] = (stats["iterations"], "count")
    metrics["capacity.channel_capacity.unconverged"] = (stats["unconverged"], "count")
    metrics["montecarlo.draws.repeat_source_frac"] = (
        stats["repeat_source"] / draws if draws else 0.0, "frac")
    metrics["montecarlo.draws.repeat_gate_frac"] = (
        stats["repeat_gate"] / draws if draws else 0.0, "frac")
    for key, value in imports.items():
        metrics[key] = (value, "ms")
    for sub in CLI_SUBCOMMANDS:
        metrics[f"cli.{sub}.wall_ms"] = (trace["cli_wall_ms"].get(sub, 0.0), "ms")
    metrics["trace.overhead_frac"] = (trace["overhead_frac"], "frac")
    layer_sum = sum(layer["self_ms"] for layer in trace["layers"].values())
    notes = {"layers' self_ms / traced work": layer_sum / trace["work_ms"]}
    return metrics, notes


def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        sha = out.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hyperdense benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_TIMEOUT_S

    env = bench_env()
    out_dir = ROOT / ".perfbench"
    work_dir = out_dir / f"work-{args.workload}-seed{args.seed}-{os.getpid()}"
    worker_cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace), "--out-dir", str(work_dir)]
    try:
        check_checkout()
        work_dir.mkdir(parents=True, exist_ok=True)
        setup = setup_samples(args.workload, worker_cmd, env)
        worker_setup, summary = run_worker(worker_cmd, env, deadline)
        if args.workload != "cli-mix":
            setup.append(worker_setup)
        if args.trace:
            trace_file = work_dir / f"trace-{args.workload}-seed{args.seed}.json"
            if trace_file.exists():
                trace_file.replace(out_dir / trace_file.name)
            metrics, notes = per_layer(summary, import_probe(env))
        else:
            metrics, notes = end_to_end(summary, setup)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted, failed = summary["attempted"], summary["failed"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "problems": summary["problems"],
        "passes": summary["passes"], "setup_samples_s": setup,
        "op_p50_ms": statistics.median(summary["latencies_ms"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes, "machine": {**summary["meta"], **provenance()},
    }
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"# hyperdense benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# machine: " + ", ".join(f"{k}={v}" for k, v in record["machine"].items()))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<44} {value:>16.6g} {unit}{note}")
    # Printed, not gated: on a shared VM the CPU's speed swings between
    # stretches about 1.6 times apart, so a run's median jumps with the
    # share of the run spent slow.  work_per_s gates the same latencies
    # through their mean.
    print(f"{'op_p50_ms':<44} {record['op_p50_ms']:>16.6g} ms  (not gated)")
    print(f"{'failed_frac':<44} {record['failed_frac']:>16.6g} 1  "
          f"({failed} of {attempted} ops)")
    for key, value in notes.items():
        if key not in metrics:
            print(f"# {key}: {value:.4f}")
    for problem in summary["problems"]:
        print(f"# failed op: {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
