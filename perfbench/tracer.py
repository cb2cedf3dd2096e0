"""Span tracer installed from outside the package.

Wraps the public functions of the traced layers and rebinds every
attribute of every loaded ``hyperdense`` module that is the same
function object, so calls made through ``from .optics import
transfer_matrix`` style names are seen too.  Spans (name, start, end,
parent span, op id) stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

TRACED = {
    "montecarlo": ("run", "sample_params", "naive_budget_check",
                   "result_to_json_dict"),
    "states": ("build_source", "encode"),
    "optics": ("two_photon_gate", "transfer_matrix", "apply_accidentals",
               "to_json_dict"),
    "capacity": ("channel_capacity", "mutual_information", "snr_per_message",
                 "bound_curve"),
    "cli": ("parse_counts_csv", "aggregate_counts", "load_params"),
}
SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs)

OP = "op"  # root span of one benchmark op


class InputStats:
    """Counts taken from traced return values: solver effort and draw reuse."""

    def __init__(self):
        self._lock = threading.Lock()
        self.iterations = 0
        self.unconverged = 0
        self.draws = 0
        self.repeat_source = 0
        self.repeat_gate = 0
        self._sources = set()
        self._gates = set()

    def capacity(self, result) -> None:
        with self._lock:
            self.iterations += int(result.iterations)
            self.unconverged += not result.converged

    def draw(self, params) -> None:
        source = (params.eps_theta_spin, params.eps_phi_spin, params.lambda_spin,
                  params.eps_theta_orbit, params.eps_phi_orbit, params.lambda_orbit)
        gate = (params.eps_H, params.eps_V)
        with self._lock:
            self.draws += 1
            self.repeat_source += source in self._sources
            self.repeat_gate += gate in self._gates
            self._sources.add(source)
            self._gates.add(gate)

    def as_dict(self) -> dict:
        return {"iterations": self.iterations, "unconverged": self.unconverged,
                "draws": self.draws, "repeat_source": self.repeat_source,
                "repeat_gate": self.repeat_gate}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, op id)
        self.stats = InputStats()
        self.op_id = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._rebound = []  # (module, attribute, original)
        self.child_dumps = []  # span files written by traced subprocesses

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, observe):
        spans, ids, main_stack = self.spans, self._ids, self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a pool thread's first span hangs under the caller's open span
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else -1)
            span_id = next(ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, name, start, end, parent, self.op_id))
            if observe is not None:
                observe(result)
            return result

        return traced

    def install(self) -> None:
        observers = {"capacity.channel_capacity": self.stats.capacity,
                     "montecarlo.sample_params": self.stats.draw}
        wrappers = {}
        for module, functions in TRACED.items():
            mod = sys.modules.get(f"hyperdense.{module}") or __import__(
                f"hyperdense.{module}", fromlist=["_"])
            for fn_name in functions:
                original = getattr(mod, fn_name)
                name = f"{module}.{fn_name}"
                wrappers[id(original)] = (original, self._wrap(name, original,
                                                               observers.get(name)))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hyperdense"
                                   or mod_name.startswith("hyperdense.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._rebound.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def op(self, op_id: int):
        """Context manager: one benchmark op, recorded as a root span."""
        return _OpSpan(self, op_id)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "stats": self.stats.as_dict()}, fh)


class _OpSpan:
    def __init__(self, tracer: Tracer, op_id: int):
        self.tracer, self.op_id = tracer, op_id

    def __enter__(self):
        t = self.tracer
        t.op_id = self.op_id
        self.span_id = next(t._ids)
        t._main_stack.append(self.span_id)
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        t = self.tracer
        end = time.perf_counter()
        t._main_stack.pop()
        t.spans.append((self.span_id, OP, self.start, end, -1, self.op_id))
        return False


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans) -> dict:
    """name -> [calls, self seconds]; self time excludes time covered by children."""
    children = {}
    for span_id, _name, start, end, parent, _op in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for span_id, name, start, end, _parent, _op in spans:
        self_s = (end - start) - _covered(children.get(span_id, ()), start, end)
        entry = out.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += self_s
    return out
