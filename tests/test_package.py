"""Checks on the package as a whole: docstrings, the README's knob table and
API sketch, the benchmark's traced names and one benchmark op, the oracles'
independence and the one text layer."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from hyperdense import montecarlo as mc

MODULES = ("states", "optics", "capacity", "montecarlo", "cli")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
README = Path(__file__).resolve().parents[1] / "README.md"
ORACLES = Path(__file__).resolve().parent / "_oracles.py"


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


def test_readme_api_sketch_runs(capsys):
    # the sketch teaches where public names live: in their modules
    text = README.read_text(encoding="utf-8")
    sketch = text.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(sketch, str(README), "exec"), {})
    assert 1.5 < float(capsys.readouterr().out) < 2.0


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


def test_benchmark_mc_budget_op_runs_and_passes_its_checks(monkeypatch):
    # One traced mc-budget op as the benchmark runs it: run(jobs=1) on the
    # five builtins, then its own output checks, which rebuild draws through
    # sample_params and the records.  The perfbench files are loaded as they
    # are, never edited.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    inputs = importlib.import_module("inputs")
    tracer = importlib.import_module("tracer")
    worker = importlib.import_module("worker")
    t = tracer.Tracer()
    t.install()
    try:
        workload = worker.McBudget()
        workload.setup()
        units, output = workload.run_op(inputs.PINNED_SEED, t)
        problems = workload.check(inputs.PINNED_SEED, output)
    finally:
        t.uninstall()
    assert units == 500 and problems == []
    # five scenarios, three subsampled draws each, all seen by the tracer
    assert t.stats.as_dict()["draws"] == 15


def test_oracles_import_nothing_from_the_package():
    # the references, the analyzer's among them, are a second route to each
    # number only while they share no code or table with hyperdense
    imported = []
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported and not [name for name in imported
                             if name.split(".")[0] in ("hyperdense", "")]


def test_only_cli_opens_files_or_writes_text():
    # cli is the text layer: the other modules take and return numbers and
    # records, so a file format or an output stream has one home
    found = []
    for module_name in [m for m in MODULES if m != "cli"]:
        path = Path(importlib.import_module(f"hyperdense.{module_name}").__file__)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("open", "print"):
                    found.append(f"{module_name}:{node.lineno} {name}()")
            elif (isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
                  and isinstance(node.value, ast.Name) and node.value.id == "sys"):
                found.append(f"{module_name}:{node.lineno} sys.{node.attr}")
    assert found == []
