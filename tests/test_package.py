"""Checks on the package as a whole: docstrings, the README's knob table and
the benchmark's traced names."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

from hyperdense import montecarlo as mc

MODULES = ("states", "optics", "capacity", "montecarlo", "cli")
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_functions_and_classes_have_docstrings():
    missing = []
    for module_name in MODULES:
        module = importlib.import_module(f"hyperdense.{module_name}")
        for name, obj in vars(module).items():
            if (name.startswith("_")
                    or not (inspect.isfunction(obj) or inspect.isclass(obj))
                    or obj.__module__ != module.__name__):
                continue
            doc = (obj.__doc__ or "").strip()
            # a dataclass without a docstring gets its signature as __doc__
            if not doc or doc.startswith(f"{name}("):
                missing.append(f"{module_name}.{name}")
    assert missing == []


def test_readme_knob_table_is_params():
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| key | unit | group | clamp | budget | default |")
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([c.strip().strip("`") for c in line.strip("|").split("|")])
    assert [r[0] for r in rows] == [p.key for p in mc.PARAMS]
    for (key, unit, group, clamp, budget, default), p in zip(rows, mc.PARAMS):
        assert unit == ("degrees" if key.endswith("_deg") else "1"), key
        assert group == p.group, key
        assert tuple(float(v) for v in clamp.strip("[]").split(",")) == p.clamp, key
        assert (None if budget == "none" else mc.ParamDistribution(
            *(float(v) for v in budget.split("±")))) == p.budget, key
        assert float(default) == p.default, key


def test_traced_benchmark_names_resolve_to_callables():
    # The benchmark's tracer wraps these names and cannot install without
    # every one of them; the file is loaded as it is, never edited.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    unresolved = [f"{module_name}.{name}"
                  for module_name, names in tracer.TRACED.items()
                  for name in names
                  if not callable(getattr(importlib.import_module(
                      f"hyperdense.{module_name}"), name, None))]
    assert tracer.TRACED and unresolved == []
