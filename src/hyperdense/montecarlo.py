"""Monte Carlo propagation of apparatus imperfections to channel capacity.

Each iteration draws every knob of PARAMS from an independent normal
distribution, builds the conditional-detection matrix and
records its capacity and average success probability.  Draws come from
a counter-based generator (Philox) keyed by (seed, iteration index), so
iteration i produces the same values whatever other iterations run.

run evaluates draws in blocks and only orchestrates: each block is
sampled as one column per knob, fed to the source and analyzer stacks in
the order of the SourceParams and GateParams fields, mixed with
accidentals by optics and solved by capacity.channel_capacity_stack, the
one Blahut-Arimoto loop.  sample_params gives one draw as a record for
the single-point API (transfer_matrix, apply_accidentals,
channel_capacity, average_success), which runs the same formulas at n = 1.

PARAMS is the one table of knobs: file keys, record fields, groups,
sampling clamps, characterized budgets and active defaults.  The group
list and the builtin scenarios derive from it.  The builtins are built
once, at import, and shared: a checked McScenario is read-only, and
dataclasses.replace makes a variant.  Angle parameters are specified in
degrees (their customary lab unit) and converted to radians in _to_fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from types import MappingProxyType

import numpy as np

from .capacity import _mean_diagonal, channel_capacity_stack
from .optics import (
    DEFAULT_ACCIDENTAL_FRACTION,
    AccidentalModel,
    GateParams,
    _mix_accidentals,
    analyzer_unitary_stack,
    transfer_matrix_stack,
)
from .states import SourceParams, _number, build_source_stack

IDEAL_CAPACITY_BITS = 2.0

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class ParamDistribution:
    """Normal distribution for one imperfection knob, in file units.

    Draws are clamped to the knob's range in PARAMS.
    """

    mean: float
    sigma: float = 0.0

    def __post_init__(self):
        for name in ("mean", "sigma"):
            object.__setattr__(self, name, _number(name, getattr(self, name)))
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")


@dataclass(frozen=True)
class Param:
    """One apparatus knob as it appears in parameter and scenario files.

    A ``_deg`` suffix on the key means the file gives degrees; the record
    field holds radians.  Scenarios that activate the knob's group sample
    it, clamped to its physical range: unitless weights stay in [0, 1],
    angles finite and well inside a single branch of the model.  Without
    a distribution it sits at ``default``.  ``budget`` is its
    characterized distribution, used by the builtin scenarios (None:
    ideal there).
    """

    key: str
    field: str
    group: str
    clamp: tuple
    budget: ParamDistribution | None = None
    default: float = 0.0


# Row order fixes the random-stream layout: a new knob must only ever be
# appended, so every existing draw keeps its values.
PARAMS = (
    Param("source.eps_theta_spin_deg", "eps_theta_spin", "source-spin", (-90.0, 90.0), ParamDistribution(1.0, 0.7)),
    Param("source.eps_phi_spin_deg", "eps_phi_spin", "source-spin", (-180.0, 180.0), ParamDistribution(0.0, 4.0)),
    Param("source.lambda_spin", "lambda_spin", "source-spin", (0.0, 1.0), ParamDistribution(0.010, 0.002)),
    Param("source.eps_theta_orbit_deg", "eps_theta_orbit", "source-orbit", (-90.0, 90.0), ParamDistribution(1.7, 0.6)),
    Param("source.eps_phi_orbit_deg", "eps_phi_orbit", "source-orbit", (-180.0, 180.0), ParamDistribution(0.0, 5.0)),
    Param("source.lambda_orbit", "lambda_orbit", "source-orbit", (0.0, 1.0), ParamDistribution(0.03, 0.01)),
    Param("gate.eps_H", "eps_H", "pbs-crosstalk", (0.0, 1.0), ParamDistribution(0.005, 0.001)),
    Param("gate.eps_V", "eps_V", "pbs-crosstalk", (0.0, 1.0), ParamDistribution(0.010, 0.002)),
    Param("accidentals.fraction", "accidental_fraction", "accidentals", (0.0, 0.99),
          ParamDistribution(DEFAULT_ACCIDENTAL_FRACTION), DEFAULT_ACCIDENTAL_FRACTION),
    Param("gate.phi1_deg", "phi1", "pbs-crosstalk", (-180.0, 180.0)),
    Param("gate.phi2_deg", "phi2", "pbs-crosstalk", (-180.0, 180.0)),
)

IMPERFECTION_GROUPS = tuple(dict.fromkeys(p.group for p in PARAMS))

DEFAULT_ITERATIONS = 100
DEFAULT_SEED = 6
MAX_ITERATIONS = 10**7
# Philox is keyed by the seed mod 2**64; the range takes signed and unsigned
# 64-bit seeds, so a negative seed s shares its stream with s + 2**64.
_INT_RANGES = {"iterations": (1, MAX_ITERATIONS), "seed": (-(1 << 63), _MASK64)}

# Draws per block in run: bounds run's working memory whatever the
# iteration count.
_BLOCK = 1024

_RADIANS_PER_DEGREE = math.pi / 180.0


def _to_fields(values: dict, ideal) -> dict:
    """{record field: value} from {file key: value}, missing keys at ``ideal``.

    Values are floats or equal-length arrays.  Values of ``_deg`` keys
    are converted to radians here, and only here.
    """
    fields = {}
    for p in PARAMS:
        v = values.get(p.key, ideal)
        fields[p.field] = v * _RADIANS_PER_DEGREE if p.key.endswith("_deg") else v
    return fields


@dataclass(frozen=True)
class ImperfectionParams:
    """One setting of every knob in PARAMS.  Angles in radians."""

    eps_theta_spin: float
    eps_phi_spin: float
    lambda_spin: float
    eps_theta_orbit: float
    eps_phi_orbit: float
    lambda_orbit: float
    eps_H: float
    eps_V: float
    accidental_fraction: float
    phi1: float = 0.0
    phi2: float = 0.0

    def __post_init__(self):
        # each field is checked by the record it belongs to, built once here
        records = [cls(**{f.name: getattr(self, f.name) for f in fields(cls)})
                   for cls in (SourceParams, GateParams)]
        object.__setattr__(self, "_records",
                           (*records, AccidentalModel(self.accidental_fraction)))

    @classmethod
    def from_values(cls, values: dict) -> ImperfectionParams:
        """Record from {file key: value}; missing keys are 0 (ideal)."""
        return cls(**_to_fields(values, 0.0))

    def source_params(self) -> SourceParams:
        return self._records[0]

    def gate_params(self) -> GateParams:
        return self._records[1]

    def accidental_model(self) -> AccidentalModel:
        return self._records[2]


@dataclass(frozen=True)
class McScenario:
    """A named set of active imperfection groups and their distributions.

    A knob of an active group without an explicit distribution sits at
    its default in PARAMS (zero, except the accidental fraction, which
    sits at its characterized value).  Inactive groups are forced to
    ideal regardless of the provided distributions.  Once checked,
    ``distributions`` is a read-only copy of the mapping given.
    """

    name: str
    active: frozenset = frozenset()
    distributions: dict = field(default_factory=dict)
    iterations: int = DEFAULT_ITERATIONS
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if isinstance(self.active, str):
            raise ValueError("active must be a collection of group names, "
                             f"got the string {self.active!r}")
        object.__setattr__(self, "active", frozenset(self.active))
        unknown_groups = self.active - set(IMPERFECTION_GROUPS)
        if unknown_groups:
            raise ValueError(
                f"unknown imperfection groups {sorted(unknown_groups)}; "
                f"valid groups: {list(IMPERFECTION_GROUPS)}")
        valid_params = [p.key for p in PARAMS]
        unknown_params = set(self.distributions) - set(valid_params)
        if unknown_params:
            raise ValueError(
                f"unknown parameters {sorted(unknown_params)}; "
                f"valid parameters: {valid_params}")
        for key, d in self.distributions.items():
            if not isinstance(d, ParamDistribution):
                raise ValueError(f"{key} must be a ParamDistribution, got {d!r}")
        for name in ("iterations", "seed"):
            object.__setattr__(self, name, _number(name, getattr(self, name), *_INT_RANGES[name], kind=int))
        object.__setattr__(self, "distributions", MappingProxyType(dict(self.distributions)))

    def __reduce__(self):
        # a mappingproxy does not pickle: rebuild from a plain dict
        return McScenario, (self.name, self.active, dict(self.distributions),
                            self.iterations, self.seed)


# The builtin scenarios, one per group of IMPERFECTION_GROUPS, then all
# groups; each knob of an active group draws from its budget in PARAMS.
_BUILTINS = {name: McScenario(name, active, {p.key: p.budget for p in PARAMS
                                             if p.group in active and p.budget is not None})
             for name, active in zip(("spin", "orbit", "crosstalk", "accidentals", "all"),
                                     [{g} for g in IMPERFECTION_GROUPS] + [set(IMPERFECTION_GROUPS)])}
BUILTIN_NAMES = tuple(_BUILTINS)


def default_scenarios() -> list:
    """The builtin scenarios of the characterized imperfection budget, in
    BUILTIN_NAMES order: a new list of the same shared, read-only values."""
    return list(_BUILTINS.values())


def builtin_scenario(name: str) -> McScenario:
    """The builtin scenario called ``name`` (see default_scenarios)."""
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin scenario {name!r}; valid names: "
                         f"{list(BUILTIN_NAMES)}")
    return _BUILTINS[name]


def _standard_normals(seed: int, iteration_index: int, count: int) -> np.ndarray:
    """Deterministic normals via Box-Muller on a per-iteration Philox stream."""
    key = np.array([seed & _MASK64, iteration_index & _MASK64],
                   dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    u = gen.random(2 * count)
    u1 = 1.0 - u[0::2]  # in (0, 1], keeps the log finite
    u2 = u[1::2]
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)


def _sample_columns(scenario: McScenario, start: int, stop: int) -> dict:
    """Draws start..stop-1 as {record field: array}, clamped, in radians.

    The stream position of draw i depends only on (scenario.seed, i) and
    every knob consumes a fixed slot, whether or not its group is active.
    """
    z = np.array([_standard_normals(scenario.seed, i, len(PARAMS))
                  for i in range(start, stop)])
    values = {}
    for p, zp in zip(PARAMS, z.T):
        if p.group in scenario.active:
            d = scenario.distributions.get(p.key, ParamDistribution(p.default))
            values[p.key] = np.clip(d.mean + d.sigma * zp, *p.clamp)
    return _to_fields(values, np.zeros(stop - start))


def sample_params(scenario: McScenario, iteration_index: int) -> ImperfectionParams:
    """Draw one iteration as a record, with the values run uses for it."""
    columns = _sample_columns(scenario, iteration_index, iteration_index + 1)
    return ImperfectionParams(**{f: float(v[0]) for f, v in columns.items()})


def _spread(values) -> float:
    """Sample standard deviation (ddof = 1); 0.0 for fewer than two values."""
    return float(np.std(values, ddof=1)) if len(values) > 1 else 0.0


@dataclass(frozen=True)
class McResult:
    """Capacity and success probability of every draw of one scenario.

    ``uncertified`` counts the draws whose capacity solve stopped at the
    iteration cap before its bracket closed.
    """

    scenario: McScenario
    capacity_bits: np.ndarray
    success_probability: np.ndarray
    uncertified: int

    @property
    def iterations(self) -> int:
        return len(self.capacity_bits)

    @property
    def capacity_mean(self) -> float:
        return float(np.mean(self.capacity_bits))

    @property
    def capacity_std(self) -> float:
        return _spread(self.capacity_bits)

    @property
    def success_mean(self) -> float:
        return float(np.mean(self.success_probability))

    @property
    def success_std(self) -> float:
        return _spread(self.success_probability)

    @property
    def capacity_reduction(self) -> float:
        return IDEAL_CAPACITY_BITS - self.capacity_mean


def run(scenario: McScenario, jobs: int = 1) -> McResult:
    """Evaluate all iterations of a scenario, a block of draws at a time.

    Each block is sampled as columns and goes through one stacked analyzer
    (the single-point matrices up to rounding) and one stacked capacity
    solve (channel_capacity's bits exactly).  ``jobs`` is accepted and
    must be a positive integer (ValueError otherwise), but does not change
    how iterations run.
    """
    _number("jobs", jobs, 1, kind=int)
    n = scenario.iterations
    caps = np.empty(n)
    succ = np.empty(n)
    uncertified = 0
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        c = _sample_columns(scenario, start, stop)
        rho = build_source_stack(*(c[f.name] for f in fields(SourceParams)))
        u = analyzer_unitary_stack(*(c[f.name] for f in fields(GateParams)))
        # an inactive group's fraction is 0, so every draw goes through the mix
        p = _mix_accidentals(transfer_matrix_stack(rho, u), c["accidental_fraction"])
        bits, _, _, converged, _ = channel_capacity_stack(p)
        caps[start:stop] = bits
        uncertified += int(np.count_nonzero(~converged))
        succ[start:stop] = _mean_diagonal(p)
    return McResult(scenario=scenario, capacity_bits=caps,
                    success_probability=succ, uncertified=uncertified)


@dataclass(frozen=True)
class BudgetReport:
    """Naive additivity check of the individual capacity reductions."""

    individual_reductions: dict
    naive_capacity_bits: float
    joint_capacity_bits: float

    @property
    def discrepancy_bits(self) -> float:
        return self.joint_capacity_bits - self.naive_capacity_bits


def naive_budget_check(singles, combined: McResult) -> BudgetReport:
    """Compare 2 - sum(individual reductions) against the joint capacity.

    The naive budget subtracts each single-imperfection reduction from
    the ideal 2 bits; interplay between imperfections makes the joint
    simulation land elsewhere, and the report carries the gap.
    """
    reductions = {}
    for r in singles:
        reductions[r.scenario.name] = r.capacity_reduction
    naive = IDEAL_CAPACITY_BITS - sum(reductions.values())
    return BudgetReport(individual_reductions=reductions,
                        naive_capacity_bits=naive,
                        joint_capacity_bits=combined.capacity_mean)


# --- reporting --------------------------------------------------------------

def result_to_json_dict(result: McResult) -> dict:
    """JSON-ready dict of a result: its scenario, summary and every draw."""
    s = result.scenario
    return {
        "scenario": {
            "name": s.name,
            "active": sorted(s.active),
            "iterations": s.iterations,
            "seed": s.seed,
            "distributions": {
                p: {"mean": d.mean, "sigma": d.sigma}
                for p, d in sorted(s.distributions.items())
            },
        },
        "capacity_mean_bits": result.capacity_mean,
        "capacity_std_bits": result.capacity_std,
        "capacity_reduction_bits": result.capacity_reduction,
        "success_mean": result.success_mean,
        "success_std": result.success_std,
        "iterations_detail": {
            "capacity_bits": [float(c) for c in result.capacity_bits],
            "success_probability": [float(v) for v in result.success_probability],
        },
    }
