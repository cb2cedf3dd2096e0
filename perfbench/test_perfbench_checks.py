"""Each benchmark output check accepts a correct output and rejects a perturbed one."""

from __future__ import annotations

import json
import re

import numpy as np

import checks
import worker
from hyperdense import cli


def test_mc_ranges():
    assert checks.mc_ranges("all", [1.6, 1.7], [0.94, 0.95]) == []
    assert checks.mc_ranges("all", [1.6, 2.1], [0.94, 0.95])
    assert checks.mc_ranges("all", [1.6, 1.7], [0.94, -0.01])
    assert checks.mc_ranges("all", [1.6, np.nan], [0.94, 0.95])


def test_mc_pinned():
    means = dict(checks.PINNED_MEANS)
    budget = dict(checks.PINNED_BUDGET)
    assert checks.mc_pinned(means, budget) == []
    assert checks.mc_pinned({**means, "orbit": (means["orbit"][0] + 1e-11,
                                                means["orbit"][1])}, budget)
    assert checks.mc_pinned(means, {**budget, "discrepancy": 0.0653})
    assert checks.mc_pinned({k: v for k, v in means.items() if k != "spin"}, budget)


def _perturb_json(path):
    def perturb(stdout):
        data = json.loads(stdout)
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] += 1e-9
        return json.dumps(data)
    return perturb


def _bump_last_csv_value(stdout):
    lines = stdout.splitlines()
    head, value = lines[-1].rsplit(",", 1)
    lines[-1] = f"{head},{float(value) - 1e-9!r}"
    return "\n".join(lines) + "\n"


PERTURB = {
    "simulate": _perturb_json(["capacity_bits"]),
    "analyze": lambda s: re.sub(r"capacity: (\S+) bits",
                                lambda m: f"capacity: {float(m[1]) * 1.001:.6g} bits", s),
    "bounds": _bump_last_csv_value,
    "decompose": lambda s: s.replace(" 0.25 ", " 0.26 ", 1),
    "montecarlo": _perturb_json(["budget", "naive_capacity_bits"]),
}


def test_cli_outputs(tmp_path, capsys):
    mix = worker.CliMix(tmp_path)
    ops = next(mix.passes(3))
    assert [name for name, _argv in ops] == list(PERTURB)
    for op in ops:
        name, argv = op
        assert cli.main(argv) == 0
        stdout = capsys.readouterr().out
        assert mix.check(op, (0, stdout, "")) == [], name
        perturbed = PERTURB[name](stdout)
        assert perturbed != stdout, name
        assert mix.check(op, (0, perturbed, "")), name
        assert mix.check(op, (0, stdout[: len(stdout) // 2], ""))
        assert mix.check(op, (2, stdout, "error"))
