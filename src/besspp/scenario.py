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

from besspp.architectures import ArchitectureConfig, ArchitectureKind
from besspp.designer import check_placement_limit
from besspp.flows import MAX_CUT_MODULES
from besspp.plaza import DemandModel, GridProfile
from besspp.supply import SupplyDistribution

__all__ = [
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


class ScenarioError(ValueError):
    """Scenario document is malformed; the message lists every problem."""


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

    def __post_init__(self) -> None:
        non_finite = [
            name
            for name in (
                "charger_max_kw",
                "bess_power_kw",
                "rating_r",
                "exemplar_rate_per_h",
            )
            if not math.isfinite(getattr(self, name))
        ]
        if non_finite:
            raise ScenarioError(f"plaza {', '.join(non_finite)} must be finite")
        if self.charger_max_kw <= 0:
            raise ScenarioError("plaza charger_max_kw must be positive")
        if self.bess_power_kw <= 0:
            raise ScenarioError("plaza bess_power_kw must be positive")
        if self.rating_r < 0:
            raise ScenarioError("plaza rating_r must be nonnegative")
        if not self.kinds:
            raise ScenarioError("plaza needs at least one architecture kind")
        if self.exemplar_rate_per_h <= 0:
            raise ScenarioError("plaza exemplar arrival rate must be positive")


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
        if not 0 < self.rated_power_kw < math.inf:
            problems.append("rated_power_kw must be positive and finite")
        if not self.architectures:
            problems.append("architectures must be nonempty")
        for i, config in enumerate(self.architectures):
            entry = f"architectures[{i}] ({config.kind.value})"
            if config.n_modules != self.n_modules:
                problems.append(
                    f"{entry}: n_modules {config.n_modules} does not match "
                    f"the supply ({self.n_modules})"
                )
            if (
                config.kind is ArchitectureKind.LSHIPPP
                and config.n_layer1 != self.n_layer1
            ):
                problems.append(
                    f"{entry}: n_layer1 {config.n_layer1} does not match "
                    f"the scenario's n_layer1 ({self.n_layer1})"
                )
            for name in ("lambda_h", "horizon_h"):
                if getattr(config, name) is not None:
                    problems.append(
                        f"{entry}: {name} must be null; the studies derive it"
                    )
        # A repeated kind would run, and write its rows, twice.
        for label, kinds in [
            ("architectures", [config.kind for config in self.architectures]),
            ("plaza.kinds", self.plaza.kinds),
        ]:
            for kind in dict.fromkeys(k for k in kinds if kinds.count(k) > 1):
                problems.append(f"{label}: kind {kind.value} is repeated")
        # The plaza reads each kind's converter efficiency from its entry.
        listed = {config.kind for config in self.architectures}
        for kind in dict.fromkeys(self.plaza.kinds):
            if kind not in listed:
                problems.append(
                    f"plaza.kinds: kind {kind.value} has no architectures entry"
                )
        for seq, label in [
            (self.arrival_rates_per_h, "arrival_rates_per_h"),
            (self.demand_means_kwh, "demand_means_kwh"),
            (self.demand_stds_kwh, "demand_stds_kwh"),
            (self.r_grid, "r_grid"),
            (self.lambda_grid, "lambda_grid"),
        ]:
            if not seq:
                problems.append(f"{label} must be nonempty")
            elif not all(map(math.isfinite, seq)):
                problems.append(f"{label} must be finite")
        if any(r <= 0 for r in self.arrival_rates_per_h):
            problems.append("arrival rates must be positive")
        if any(m <= 0 for m in self.demand_means_kwh):
            problems.append("demand means must be positive")
        if any(s < 0 for s in self.demand_stds_kwh):
            problems.append("demand stds must be nonnegative")
        if any(r < 0 for r in self.r_grid):
            problems.append("r_grid values must be nonnegative")
        if any(v < 0 for v in self.lambda_grid):
            problems.append("lambda_grid values must be nonnegative")
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
    try:
        return SupplyDistribution(
            **{key: float(v) for key, v in data.items() if key not in extra}
        )
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad {label} block: {exc}") from exc


def _grid_from_value(value, base_dir: Path) -> GridProfile:
    if isinstance(value, str):
        path = Path(value)
        if not path.is_absolute():
            path = base_dir / path
        if not path.exists():
            raise ScenarioError(f"grid profile file not found: {path}")
        try:
            return GridProfile.from_csv(path)
        except OSError as exc:
            raise ScenarioError(f"cannot read grid profile {path}: {exc}") from exc
    if isinstance(value, (list, tuple)):
        return GridProfile(tuple((float(t), float(kw)) for t, kw in value))
    raise ScenarioError("grid_profile must be a CSV path or a segment list")


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario JSON file.

    Every key is required except ``name`` (default: the file stem),
    ``supply.dod`` and ``supply.voltage_v`` (in either supply block),
    ``plaza.supply`` (default: the pack supply) and the fields an
    :class:`ArchitectureConfig` entry may leave out.
    """
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
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
            "arrival_rates_per_h",
            "demand_means_kwh",
            "demand_stds_kwh",
            "r_grid",
            "lambda_grid",
            "n_packs",
            "n_trajectories",
            "plaza",
        ),
        ("name",),
    )
    supply = _supply(data["supply"], "supply", "n_modules")
    n_modules = _integer(data["supply"]["n_modules"], "supply.n_modules")

    arch_entries = data["architectures"]
    if not isinstance(arch_entries, list):
        raise ScenarioError("architectures must be a JSON list")
    architectures = []
    for i, entry in enumerate(arch_entries):
        field = f"architectures[{i}]"
        if not isinstance(entry, dict):
            raise ScenarioError(f"{field} must be a JSON object")
        entry = {"n_modules": n_modules, **entry}
        for key in ("n_modules", "n_layer1"):
            if entry.get(key) is not None:
                entry[key] = _integer(entry[key], f"{field}.{key}")
        try:
            architectures.append(ArchitectureConfig.from_dict(entry))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ScenarioError(f"bad architecture entry {entry}: {exc}") from exc

    plaza_data = _block(
        data["plaza"],
        "plaza",
        ("charger_max_kw", "bess_power_kw", "rating_r", "kinds", "exemplar"),
        ("supply",),
    )
    plaza_supply = (
        _supply(plaza_data["supply"], "plaza.supply")
        if "supply" in plaza_data
        else supply
    )
    exemplar = _block(
        plaza_data["exemplar"],
        "plaza.exemplar",
        ("demand_mean_kwh", "demand_std_kwh", "arrival_rate_per_h"),
    )
    try:
        plaza = PlazaSettings(
            charger_max_kw=float(plaza_data["charger_max_kw"]),
            bess_power_kw=float(plaza_data["bess_power_kw"]),
            supply=plaza_supply,
            rating_r=float(plaza_data["rating_r"]),
            kinds=tuple(ArchitectureKind(k) for k in plaza_data["kinds"]),
            exemplar_demand=DemandModel(
                mean_kwh=float(exemplar["demand_mean_kwh"]),
                std_kwh=float(exemplar["demand_std_kwh"]),
            ),
            exemplar_rate_per_h=float(exemplar["arrival_rate_per_h"]),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"bad plaza block: {exc}") from exc

    try:
        return Scenario(
            name=str(data.get("name", path.stem)),
            seed=_integer(data["seed"], "seed"),
            supply=supply,
            n_modules=n_modules,
            n_layer1=_integer(data["n_layer1"], "n_layer1"),
            rated_power_kw=float(data["rated_power_kw"]),
            architectures=tuple(architectures),
            grid_profile=_grid_from_value(data["grid_profile"], path.parent),
            arrival_rates_per_h=tuple(float(v) for v in data["arrival_rates_per_h"]),
            demand_means_kwh=tuple(float(v) for v in data["demand_means_kwh"]),
            demand_stds_kwh=tuple(float(v) for v in data["demand_stds_kwh"]),
            r_grid=tuple(float(v) for v in data["r_grid"]),
            lambda_grid=tuple(float(v) for v in data["lambda_grid"]),
            n_packs=_integer(data["n_packs"], "n_packs"),
            n_trajectories=_integer(data["n_trajectories"], "n_trajectories"),
            plaza=plaza,
        )
    except ScenarioError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"bad scenario field: {exc}") from exc


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
        "architectures": [a.to_dict() for a in scenario.architectures],
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
