"""Scenario configuration: one JSON document drives every study.

A scenario pins the supply distribution, the architecture roster, the
plaza environment (grid profile, charger, arrival and demand menus), the
sweep grids, the sample counts, and the master seed.  The schema is closed:
every key is required except the few named in :func:`load_scenario`, and an
unknown key is refused, so a misspelled key never falls back to a default.
Loading never falls back to wall-clock seeding either; every run is
reproducible by construction.  The default scenario is the shipped document
``default_scenario.json``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from besspp.architectures import ArchitectureKind
from besspp.designer import check_placement_limit
from besspp.flows import MAX_CUT_MODULES
from besspp.plaza import DemandModel, GridProfile
from besspp.supply import SupplyDistribution

__all__ = [
    "ArchitectureConfig",
    "PlazaSettings",
    "Scenario",
    "ScenarioError",
    "load_scenario",
    "default_scenario",
    "scenario_to_dict",
]

# Hours of one plaza day: the horizon of every arrival stream.
DAY_HORIZON_H = 24.0

# Largest pack sample.  On a 2-core host, tradeoff on the default 9 modules
# traced 98 MB of peak and ran 5 s at 50,000 packs: about 200 MB and 10 s at
# this limit.  At 16 modules its sweep took 15.6 s per 1,000 packs, so about
# 26 minutes at this limit.  The default draws 100.
MAX_PACKS = 10**5

# Largest expected arrival count of one demand cell: its top arrival rate x
# one day x the trajectories per cell.  A cell is never split across replay
# batches, and ensemble traced about 136 B of peak per arrival of its
# largest cell (6.55 MB at 48,000, i.e. 30,000 trajectories on the default
# grid), so this limit stands for about 140 MB.  The default scenario's
# cells expect 1,584.
MAX_CELL_ARRIVALS = 10**6

# The scenario's number lists, each nonempty and finite, with positive
# values in the first two and nonnegative ones in the rest.
_POSITIVE_LISTS = ("arrival_rates_per_h", "demand_means_kwh")
_NUMBER_LISTS = (*_POSITIVE_LISTS, "demand_stds_kwh", "r_grid", "lambda_grid")


class ScenarioError(ValueError):
    """Scenario document is malformed; the message lists every problem.

    A missing, unknown or wrongly typed key stops the load at once instead,
    named by its key path.
    """


@dataclass(frozen=True)
class ArchitectureConfig:
    """One ``architectures`` entry: the studies read ``kind`` and ``eta_c``.

    ``rating_r`` is echoed into the manifest and read by no study.
    """

    kind: ArchitectureKind
    rating_r: float
    eta_c: float


@dataclass(frozen=True)
class PlazaSettings:
    """Plaza-side environment shared by the day and ensemble studies.

    The plaza carries its own (typically smaller) module supply: service
    dynamics only become interesting when per-cycle drawdowns are on the
    same scale as the unit's deliverable energy, and every reported service
    metric is either normalized per pack or measured in time units.
    """

    charger_max_kw: float
    bess_power_kw: float
    supply: SupplyDistribution
    rating_r: float
    kinds: tuple[ArchitectureKind, ...]
    exemplar_demand: DemandModel
    exemplar_rate_per_h: float


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    supply: SupplyDistribution
    n_modules: int
    n_layer1: int
    rated_power_kw: float
    architectures: tuple[ArchitectureConfig, ...]
    grid_profile: GridProfile
    arrival_rates_per_h: tuple[float, ...]
    demand_means_kwh: tuple[float, ...]
    demand_stds_kwh: tuple[float, ...]
    r_grid: tuple[float, ...]
    lambda_grid: tuple[float, ...]
    n_packs: int
    n_trajectories: int
    plaza: PlazaSettings

    def __post_init__(self) -> None:
        problems = []
        if self.seed < 0:
            problems.append("seed must be a nonnegative integer")
        if self.n_modules < 2:
            problems.append("n_modules must be >= 2")
        if self.n_modules > MAX_CUT_MODULES:
            problems.append(
                f"n_modules must be <= {MAX_CUT_MODULES}: deliverable energy "
                f"enumerates all 2**n_modules - 1 module subsets"
            )
        if not 1 <= self.n_layer1 < self.n_modules:
            problems.append("n_layer1 must satisfy 1 <= n_layer1 < n_modules")
        elif 2 <= self.n_modules <= MAX_CUT_MODULES:
            try:
                check_placement_limit(self.n_modules, self.n_layer1)
            except ValueError as exc:
                problems.append(f"n_layer1: {exc}")
        plaza = self.plaza
        for label, value in [
            ("rated_power_kw", self.rated_power_kw),
            ("plaza.charger_max_kw", plaza.charger_max_kw),
            ("plaza.bess_power_kw", plaza.bess_power_kw),
            ("plaza.exemplar.arrival_rate_per_h", plaza.exemplar_rate_per_h),
        ]:
            if not 0 < value < math.inf:
                problems.append(f"{label} must be positive and finite")
        if not 0 <= plaza.rating_r < math.inf:
            problems.append("plaza.rating_r must be nonnegative and finite")
        for i, config in enumerate(self.architectures):
            entry = f"architectures[{i}] ({config.kind.value})"
            if not 0 <= config.rating_r < math.inf:
                problems.append(f"{entry}: rating_r must be nonnegative and finite")
            if not 0 < config.eta_c <= 1:
                problems.append(f"{entry}: eta_c must be in (0, 1]")
        # A repeated kind would run, and write its rows, twice.
        for label, kinds in [
            ("architectures", [config.kind for config in self.architectures]),
            ("plaza.kinds", plaza.kinds),
        ]:
            if not kinds:
                problems.append(f"{label} must be nonempty")
            for kind in dict.fromkeys(k for k in kinds if kinds.count(k) > 1):
                problems.append(f"{label}: kind {kind.value} is repeated")
        # The plaza reads each kind's converter efficiency from its entry.
        listed = {config.kind for config in self.architectures}
        for kind in dict.fromkeys(plaza.kinds):
            if kind not in listed:
                problems.append(
                    f"plaza.kinds: kind {kind.value} has no architectures entry"
                )
        for label in _NUMBER_LISTS:
            seq, positive = getattr(self, label), label in _POSITIVE_LISTS
            if not seq:
                problems.append(f"{label} must be nonempty")
            elif not all(map(math.isfinite, seq)):
                problems.append(f"{label} must be finite")
            if any(v <= 0 if positive else v < 0 for v in seq):
                sign = "positive" if positive else "nonnegative"
                problems.append(f"{label} values must be {sign}")
        if self.n_packs < 2:
            problems.append(
                "n_packs must be >= 2: derating is a three-sigma statistic "
                "over the packs, and one pack has no spread"
            )
        if self.n_packs > MAX_PACKS:
            problems.append(
                f"n_packs must be <= {MAX_PACKS:,}, got {self.n_packs:,}"
            )
        if self.n_trajectories < 1:
            problems.append("n_trajectories must be >= 1")
        rates = self.arrival_rates_per_h
        if self.demand_cells and all(0 < r < math.inf for r in rates):
            per_cell = self.trajectories_per_cell
            arrivals = max(rates) * DAY_HORIZON_H * per_cell
            if arrivals > MAX_CELL_ARRIVALS:
                problems.append(
                    f"n_trajectories: {per_cell:,} trajectories per demand cell "
                    f"expect {arrivals:,.0f} arrivals in one cell; at most "
                    f"{MAX_CELL_ARRIVALS:,} are supported"
                )
        if problems:
            raise ScenarioError("; ".join(problems))

    @property
    def demand_cells(self) -> list[tuple[float, float, float]]:
        """``(mean_kwh, std_kwh, rate_per_h)`` per ensemble cell, rates fastest."""
        return [
            (mean, std, rate)
            for mean in self.demand_means_kwh
            for std in self.demand_stds_kwh
            for rate in self.arrival_rates_per_h
        ]

    @property
    def trajectories_per_cell(self) -> int:
        """``n_trajectories`` per demand cell, rounded down, at least 1."""
        return max(1, self.n_trajectories // len(self.demand_cells))


def default_scenario() -> Scenario:
    """The shipped default scenario, used when the CLI is given no --scenario.

    It is package data, ``default_scenario.json`` beside this module.
    """
    return load_scenario(Path(__file__).with_name("default_scenario.json"))


def _integer(value, field: str) -> int:
    """A count or seed: an int or an integral float, never truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ScenarioError(f"{field} must be an integer, got {value!r}")


def _number(value, field: str) -> float:
    """A JSON number as a float, never text or a boolean."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ScenarioError(f"{field} must be a number, got {value!r}")


def _list(value, field: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(f"{field} must be a JSON list")
    return value


def _numbers(value, field: str) -> tuple[float, ...]:
    return tuple(_number(v, f"{field}[{i}]") for i, v in enumerate(_list(value, field)))


def _kind(value, field: str) -> ArchitectureKind:
    try:
        return ArchitectureKind(value)
    except ValueError as exc:
        raise ScenarioError(f"{field}: unknown kind {value!r}") from exc


def _build(cls, label: str, **fields):
    """``cls(**fields)``, a value it refuses reported under ``label``."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ScenarioError(f"bad {label} block: {exc}") from exc


def _block(value, label: str, required, optional=()) -> dict:
    """A JSON object holding every ``required`` key and no key unknown.

    ``label`` is the block's key path (empty for the document itself), so
    each missing or unknown key is named by its full path.
    """
    if not isinstance(value, dict):
        raise ScenarioError(f"{label or 'scenario document'} must be a JSON object")
    prefix = f"{label}." if label else ""
    problems = [f"missing key {prefix}{key}" for key in required if key not in value]
    problems += [
        f"unknown key {prefix}{key}"
        for key in value
        if key not in required and key not in optional
    ]
    if problems:
        raise ScenarioError("; ".join(problems))
    return value


def _supply(value, label: str, *extra: str) -> SupplyDistribution:
    """A supply block; ``dod`` and ``voltage_v`` take the class defaults."""
    data = _block(value, label, ("mean_kwh", "std_kwh", *extra), ("dod", "voltage_v"))
    fields = {k: _number(v, f"{label}.{k}") for k, v in data.items() if k not in extra}
    return _build(SupplyDistribution, label, **fields)


def _grid_from_value(value, base_dir: Path) -> GridProfile:
    if isinstance(value, str):
        path = Path(value)
        if not path.is_absolute():
            path = base_dir / path
        if not path.exists():
            raise ScenarioError(f"grid profile file not found: {path}")
        try:
            return GridProfile.from_csv(path)
        except (OSError, ValueError) as exc:
            raise ScenarioError(f"cannot read grid profile {path}: {exc}") from exc
    if not isinstance(value, list):
        raise ScenarioError("grid_profile must be a CSV path or a segment list")
    segments = [_numbers(seg, f"grid_profile[{i}]") for i, seg in enumerate(value)]
    return _build(GridProfile, "grid_profile", segments=tuple(segments))


def _entry_dict(config: ArchitectureConfig, n_modules: int, n_layer1: int) -> dict:
    """An entry's canonical form: its derived keys hold what the studies use."""
    return {
        "kind": config.kind.value,
        "n_modules": n_modules,
        "n_layer1": n_layer1 if config.kind is ArchitectureKind.LSHIPPP else None,
        "lambda_h": None,
        "rating_r": config.rating_r,
        "eta_c": config.eta_c,
        "horizon_h": None,
    }


def _architecture(value, label: str, n_modules: int, n_layer1: int, problems: list):
    """One ``architectures`` entry; a derived key that disagrees is a problem."""
    derived = ("n_modules", "n_layer1", "lambda_h", "horizon_h")
    entry = _block(value, label, ("kind", "rating_r"), ("eta_c", *derived))
    config = ArchitectureConfig(
        _kind(entry["kind"], f"{label}.kind"),
        _number(entry["rating_r"], f"{label}.rating_r"),
        _number(entry.get("eta_c", 1.0), f"{label}.eta_c"),
    )
    if config.kind is ArchitectureKind.LSHIPPP and "n_layer1" not in entry:
        raise ScenarioError(f"missing key {label}.n_layer1")
    canonical = _entry_dict(config, n_modules, n_layer1)
    for key in derived:
        want = canonical[key]
        got = entry.get(key, want)
        if want is not None:
            got = _integer(got, f"{label}.{key}")
        if got != want:
            problems.append(
                f"{label} ({config.kind.value}): {key} must be {json.dumps(want)}, "
                f"got {json.dumps(got)}"
            )
    return config


def _unique_keys(pairs: list[tuple]) -> dict:
    """A JSON object as a dict, refusing a repeated key (json keeps the last)."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ScenarioError(f"scenario key {json.dumps(key)} is repeated")
        data[key] = value
    return data


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario JSON file.

    Every key is required except ``name`` (default: the file stem),
    ``supply.dod`` and ``supply.voltage_v`` (in either supply block),
    ``plaza.supply`` (default: the pack supply), and an ``architectures``
    entry's ``eta_c`` (default: 1.0) and its derived keys, which may only
    restate what the studies use (see :func:`_entry_dict`); lshippp's
    ``n_layer1`` is required all the same.
    """
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:  # a directory, not UTF-8
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    data = _block(
        data,
        "",
        (
            "seed",
            "supply",
            "n_layer1",
            "rated_power_kw",
            "architectures",
            "grid_profile",
            *_NUMBER_LISTS,
            "n_packs",
            "n_trajectories",
            "plaza",
        ),
        ("name",),
    )
    name = data.get("name", path.stem)
    if not isinstance(name, str):
        raise ScenarioError(f"name must be a string, got {name!r}")
    supply = _supply(data["supply"], "supply", "n_modules")
    n_modules = _integer(data["supply"]["n_modules"], "supply.n_modules")
    n_layer1 = _integer(data["n_layer1"], "n_layer1")
    problems: list[str] = []
    architectures = tuple(
        _architecture(entry, f"architectures[{i}]", n_modules, n_layer1, problems)
        for i, entry in enumerate(_list(data["architectures"], "architectures"))
    )

    plaza = _block(
        data["plaza"],
        "plaza",
        ("charger_max_kw", "bess_power_kw", "rating_r", "kinds", "exemplar"),
        ("supply",),
    )
    exemplar = _block(
        plaza["exemplar"],
        "plaza.exemplar",
        ("demand_mean_kwh", "demand_std_kwh", "arrival_rate_per_h"),
    )
    demand = {
        key: _number(exemplar[f"demand_{key}"], f"plaza.exemplar.demand_{key}")
        for key in ("mean_kwh", "std_kwh")
    }
    kinds = enumerate(_list(plaza["kinds"], "plaza.kinds"))
    try:
        scenario = Scenario(
            name=name,
            seed=_integer(data["seed"], "seed"),
            supply=supply,
            n_modules=n_modules,
            n_layer1=n_layer1,
            rated_power_kw=_number(data["rated_power_kw"], "rated_power_kw"),
            architectures=architectures,
            grid_profile=_grid_from_value(data["grid_profile"], path.parent),
            **{key: _numbers(data[key], key) for key in _NUMBER_LISTS},
            n_packs=_integer(data["n_packs"], "n_packs"),
            n_trajectories=_integer(data["n_trajectories"], "n_trajectories"),
            plaza=PlazaSettings(
                charger_max_kw=_number(plaza["charger_max_kw"], "plaza.charger_max_kw"),
                bess_power_kw=_number(plaza["bess_power_kw"], "plaza.bess_power_kw"),
                supply=(
                    _supply(plaza["supply"], "plaza.supply")
                    if "supply" in plaza
                    else supply
                ),
                rating_r=_number(plaza["rating_r"], "plaza.rating_r"),
                kinds=tuple(_kind(k, f"plaza.kinds[{i}]") for i, k in kinds),
                exemplar_demand=_build(DemandModel, "plaza.exemplar", **demand),
                exemplar_rate_per_h=_number(
                    exemplar["arrival_rate_per_h"], "plaza.exemplar.arrival_rate_per_h"
                ),
            ),
        )
    except ScenarioError as exc:  # the entries' derived keys join its problems
        problems.insert(0, str(exc))
    if problems:
        raise ScenarioError("; ".join(problems))
    return scenario


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical JSON form; hashing this defines the scenario fingerprint."""
    def _supply(s: SupplyDistribution) -> dict:
        return {
            "mean_kwh": s.mean_kwh,
            "std_kwh": s.std_kwh,
            "dod": s.dod,
            "voltage_v": s.voltage_v,
        }

    return {
        "name": scenario.name,
        "seed": scenario.seed,
        "supply": {**_supply(scenario.supply), "n_modules": scenario.n_modules},
        "n_layer1": scenario.n_layer1,
        "rated_power_kw": scenario.rated_power_kw,
        "architectures": [
            _entry_dict(a, scenario.n_modules, scenario.n_layer1)
            for a in scenario.architectures
        ],
        "grid_profile": [list(seg) for seg in scenario.grid_profile.segments],
        "arrival_rates_per_h": list(scenario.arrival_rates_per_h),
        "demand_means_kwh": list(scenario.demand_means_kwh),
        "demand_stds_kwh": list(scenario.demand_stds_kwh),
        "r_grid": list(scenario.r_grid),
        "lambda_grid": list(scenario.lambda_grid),
        "n_packs": scenario.n_packs,
        "n_trajectories": scenario.n_trajectories,
        "plaza": {
            "charger_max_kw": scenario.plaza.charger_max_kw,
            "bess_power_kw": scenario.plaza.bess_power_kw,
            "rating_r": scenario.plaza.rating_r,
            "kinds": [k.value for k in scenario.plaza.kinds],
            "supply": _supply(scenario.plaza.supply),
            "exemplar": {
                "demand_mean_kwh": scenario.plaza.exemplar_demand.mean_kwh,
                "demand_std_kwh": scenario.plaza.exemplar_demand.std_kwh,
                "arrival_rate_per_h": scenario.plaza.exemplar_rate_per_h,
            },
        },
    }
