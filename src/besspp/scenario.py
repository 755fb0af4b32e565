"""Scenario configuration: one JSON document drives every study.

A scenario pins the supply distribution, the architecture roster, the
plaza environment (grid profile, charger, arrival and demand menus), the
sweep grids, the sample counts, and the master seed.  The schema is closed:
every key is required except the few named in :func:`load_scenario`, and an
unknown key is refused, so a misspelled key never falls back to a default.
Loading never falls back to wall-clock seeding either; every run is
reproducible by construction.  The default scenario is the shipped document
``default_scenario.json``.

The module also holds the input records a scenario is built from
(:class:`SupplyDistribution`, :class:`DemandModel`, :class:`GridProfile`)
and the limits it checks (:data:`MAX_CUT_MODULES`,
:func:`check_placement_limit`).  The records are plain values: one rule
list, :meth:`Scenario.__post_init__`, checks every value on every
construction and names each problem by its path (``plaza.supply.dod``).
It imports the standard library and :mod:`besspp.architectures` only:
loading and checking a scenario never loads numpy.  Constructing a
:class:`Scenario` stays numpy-free; a check that needs the numeric modules
belongs to the study that runs them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from besspp.architectures import ArchitectureKind

__all__ = [
    "ArchitectureConfig",
    "DemandModel",
    "GridProfile",
    "MAX_CUT_MODULES",
    "MAX_HETEROGENEITY",
    "MAX_PLACEMENTS",
    "PlazaSettings",
    "Scenario",
    "ScenarioError",
    "SupplyDistribution",
    "check_placement_limit",
    "load_scenario",
    "default_scenario",
    "scenario_to_dict",
]

# Hours of one plaza day: the horizon of every arrival stream and the period
# of the grid profile.
DAY_HORIZON_H = 24.0

# Beyond 50% relative spread the curated-supply Gaussian model is no longer
# a sensible description (negative-capacity mass stops being negligible).
MAX_HETEROGENEITY = 0.5

# The cut form of besspp.flows enumerates every nonempty module subset:
# 2**16 - 1 = 65,535 subsets at this limit.  Larger series strings are
# rejected, not attempted.
MAX_CUT_MODULES = 16

# Largest layer-1 search, in placements: C(C(n, 2), m) for m converters on
# n modules.  The default 9 modules with 3 converters search 7,140; 16
# modules with 3 search 280,840, and with 4 already 8.2 million, so larger
# searches are refused rather than left to run for hours.
MAX_PLACEMENTS = 10**6

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

# Every number, listed or not, must be finite and positive, or nonnegative
# where its key path ends in one of _NONNEGATIVE.
_NONNEGATIVE_LISTS = ("demand_stds_kwh", "r_grid", "lambda_grid")
_NUMBER_LISTS = ("arrival_rates_per_h", "demand_means_kwh", *_NONNEGATIVE_LISTS)
_NONNEGATIVE = ("rating_r", "std_kwh", *_NONNEGATIVE_LISTS)


class ScenarioError(ValueError):
    """Scenario document is malformed; each problem is named by its key path.

    A missing, unknown or wrongly typed key stops the load at once; every
    value problem, in any block, is collected into one message.
    """


@dataclass(frozen=True)
class SupplyDistribution:
    """Gaussian population of second-use module energies.

    ``mean_kwh`` and ``std_kwh`` describe intrinsic module energy before the
    depth-of-discharge derate.  A scenario holds their relative spread
    ``std/mean`` to at most :data:`MAX_HETEROGENEITY`.
    """

    mean_kwh: float
    std_kwh: float
    dod: float = 1.0
    voltage_v: float = 50.0


@dataclass(frozen=True)
class DemandModel:
    """Gaussian per-EV energy demand, clamped to [0, 2 * mean_kwh]."""

    mean_kwh: float
    std_kwh: float


@dataclass(frozen=True)
class GridProfile:
    """Piecewise-constant available grid power over a day.

    ``segments`` are ``(start_hour, available_kw)`` with the first start at
    0 and strictly increasing starts below 24; each level holds until the
    next start.  Lookups (:func:`besspp.plaza.powers_at`) wrap modulo 24 h.
    """

    segments: tuple[tuple[float, float], ...]

    @classmethod
    def from_csv(cls, path) -> "GridProfile":
        """The profile of a ``time_h,power_kw`` CSV, one segment per data row.

        Every data row must hold exactly two values; blank lines are skipped.
        """
        import csv

        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header != ["time_h", "power_kw"]:
                raise ValueError(
                    f"grid profile CSV must have columns time_h,power_kw, got {header}"
                )
            segments = []
            for row in filter(None, reader):
                if len(row) != 2:
                    raise ValueError(
                        f"line {reader.line_num} holds {len(row)} values, not 2"
                    )
                segments.append((float(row[0]), float(row[1])))
        return cls(tuple(segments))


def check_placement_limit(n_batteries: int, n_edges: int) -> None:
    """Refuse a layer-1 search of more than :data:`MAX_PLACEMENTS` placements.

    The search space is ``C(P, n_edges)`` with ``P = C(n_batteries, 2)``
    module pairs; a larger one raises ``ValueError``.
    """
    count = math.comb(math.comb(n_batteries, 2), n_edges)
    if count > MAX_PLACEMENTS:
        raise ValueError(
            f"{n_edges} converters on {n_batteries} modules give {count:,} "
            f"layer-1 placements; the exhaustive search supports at most "
            f"{MAX_PLACEMENTS:,}"
        )


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
        """Check every value, each problem named by its document path."""
        problems = []
        if self.seed < 0:
            problems.append("seed must be a nonnegative integer")
        n = self.n_modules
        if n < 2:
            problems.append("supply.n_modules must be >= 2")
        if n > MAX_CUT_MODULES:
            problems.append(
                f"supply.n_modules must be <= {MAX_CUT_MODULES}: deliverable "
                f"energy enumerates all 2**n_modules - 1 module subsets"
            )
        if not 1 <= self.n_layer1 < n:
            problems.append("n_layer1 must satisfy 1 <= n_layer1 < n_modules")
        elif 2 <= n <= MAX_CUT_MODULES:
            try:
                check_placement_limit(n, self.n_layer1)
            except ValueError as exc:
                problems.append(f"n_layer1: {exc}")
        plaza = self.plaza
        # The plaza supply is its own block only when the document gives it.
        supplies = {"supply": self.supply}
        if plaza.supply is not self.supply:
            supplies["plaza.supply"] = plaza.supply
        numbers = {
            "rated_power_kw": self.rated_power_kw,
            "plaza.charger_max_kw": plaza.charger_max_kw,
            "plaza.bess_power_kw": plaza.bess_power_kw,
            "plaza.rating_r": plaza.rating_r,
            "plaza.exemplar.demand_mean_kwh": plaza.exemplar_demand.mean_kwh,
            "plaza.exemplar.demand_std_kwh": plaza.exemplar_demand.std_kwh,
            "plaza.exemplar.arrival_rate_per_h": plaza.exemplar_rate_per_h,
            **{
                f"{label}.{key}": getattr(supply, key)
                for label, supply in supplies.items()
                for key in ("mean_kwh", "std_kwh", "voltage_v")
            },
            **{label: getattr(self, label) for label in _NUMBER_LISTS},
        }
        numbers = {k: v if isinstance(v, tuple) else (v,) for k, v in numbers.items()}
        for label, values in numbers.items():
            nonnegative = label.endswith(_NONNEGATIVE)
            if not values:
                problems.append(f"{label} must be nonempty")
            elif not all(0 < v < math.inf or nonnegative and v == 0 for v in values):
                sign = "nonnegative" if nonnegative else "positive"
                problems.append(f"{label} must be {sign} and finite")
        # A demand is clamped to [0, 2 x mean], the exemplar's and each cell's.
        for label in ("plaza.exemplar.demand_mean_kwh", "demand_means_kwh"):
            if any(mean < math.inf <= 2.0 * mean for mean in numbers[label]):
                problems.append(f"{label}: 2 x mean, the demand clamp, must be finite")
        # The studies sum over the n modules: their voltages in series, and
        # their expected energies over a power for the layer-1 design horizon.
        # No expected module clamps at zero, so each sum is n times one
        # module's value up to rounding, which a 1e-12 margin covers.
        sums = []
        for label, supply in supplies.items():
            if supply.std_kwh > MAX_HETEROGENEITY * supply.mean_kwh:
                problems.append(f"{label}.std_kwh is over {MAX_HETEROGENEITY} x mean")
            if not 0 < supply.dod <= 1:
                problems.append(f"{label}.dod must be in (0, 1]")
            sums.append((supply.voltage_v, f"{label}.voltage_v: the series voltage"))
        for label, power, supply in [
            ("rated_power_kw", self.rated_power_kw, self.supply),
            ("plaza.bess_power_kw", plaza.bess_power_kw, plaza.supply),
        ]:
            module_h = supply.mean_kwh * supply.dod / power if power > 0 else 0.0
            sums.append((module_h, f"{label}: the layer-1 design horizon"))
        for value, what in sums:
            if 2 <= n <= MAX_CUT_MODULES and n * value * (1 + 1e-12) >= math.inf:
                problems.append(f"{what} must be finite")
        segments = self.grid_profile.segments
        starts = [start for start, _ in segments]
        if not all(math.isfinite(v) for segment in segments for v in segment):
            problems.append("grid_profile starts and powers must be finite")
        if starts[:1] != [0]:
            problems.append("grid_profile must have a first segment, at hour 0")
        if any(a >= b for a, b in zip(starts, starts[1:])):
            problems.append("grid_profile starts must strictly increase")
        if any(start >= DAY_HORIZON_H for start in starts):
            problems.append("grid_profile starts must lie below 24 h")
        if any(kw < 0 for _, kw in segments):
            problems.append("grid_profile powers must be nonnegative")
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
        if self.n_packs < 2:
            problems.append(
                "n_packs must be >= 2: derating is a three-sigma statistic "
                "over the packs, and one pack has no spread"
            )
        if self.n_packs > MAX_PACKS:
            problems.append(f"n_packs must be <= {MAX_PACKS:,}, got {self.n_packs:,}")
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
    return SupplyDistribution(**fields)


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
    for i, segment in enumerate(segments):
        if len(segment) != 2:
            raise ScenarioError(f"grid_profile[{i}] must be a [time_h, power_kw] pair")
    return GridProfile(tuple(segments))


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
                exemplar_demand=DemandModel(**demand),
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
