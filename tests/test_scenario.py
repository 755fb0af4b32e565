import dataclasses
import json
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest

import besspp.scenario
from besspp.architectures import ArchitectureKind
from besspp.scenario import (
    MAX_CELL_ARRIVALS,
    MAX_CUT_MODULES,
    MAX_PACKS,
    MAX_PLACEMENTS,
    Scenario,
    ScenarioError,
    default_scenario,
    load_scenario,
    scenario_to_dict,
)
from besspp.flows import _module_totals, _subset_sums
from besspp.studies import _layer1, scenario_fingerprint
from besspp.supply import flatten_distribution

from plaza_oracle import power_at


def minimal_doc() -> dict:
    return {
        "name": "mini",
        "seed": 7,
        "supply": {"mean_kwh": 37.5, "std_kwh": 9.375, "n_modules": 9},
        "n_layer1": 3,
        "rated_power_kw": 150.0,
        "architectures": [
            {"kind": "lshippp", "rating_r": 0.2, "n_layer1": 3},
            {"kind": "cppp", "rating_r": 0.2},
        ],
        "grid_profile": [[0.0, 50.0], [12.0, 30.0]],
        "arrival_rates_per_h": [2.0],
        "demand_means_kwh": [50.0],
        "demand_stds_kwh": [10.0],
        "r_grid": [0.2],
        "lambda_grid": [0.0, 1.0],
        "n_packs": 5,
        "n_trajectories": 4,
        "plaza": {
            "charger_max_kw": 150.0,
            "bess_power_kw": 150.0,
            "rating_r": 0.2,
            "kinds": ["lshippp", "cppp"],
            "supply": {"mean_kwh": 4.0, "std_kwh": 1.0},
            "exemplar": {
                "demand_mean_kwh": 50.0,
                "demand_std_kwh": 25.0,
                "arrival_rate_per_h": 2.0,
            },
        },
    }


def write_doc(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


class TestDefaultScenario:
    def test_constructs_and_is_stable(self):
        a = default_scenario()
        b = default_scenario()
        assert scenario_fingerprint(a) == scenario_fingerprint(b)

    def test_headline_settings(self):
        scenario = default_scenario()
        assert scenario.n_modules == 9
        assert scenario.n_layer1 == 3
        assert scenario.supply.std_kwh / scenario.supply.mean_kwh == 0.25
        _, _, layer1 = _layer1(scenario, scenario.supply, scenario.rated_power_kw)
        assert layer1.horizon_h == pytest.approx(2.25)
        plaza = scenario.plaza
        _, _, layer1 = _layer1(scenario, plaza.supply, plaza.bess_power_kw)
        assert layer1.horizon_h == pytest.approx(0.25)
        assert len(scenario.r_grid) == 20
        kinds = [c.kind for c in scenario.architectures]
        assert kinds == [
            ArchitectureKind.LSHIPPP,
            ArchitectureKind.CPPP,
            ArchitectureKind.FPP,
        ]

    def test_demand_cells_and_trajectories_per_cell(self):
        # 2 means x 5 spreads x 3 rates, rates fastest; 1,000 trajectories
        # over 30 cells run 33 each.
        scenario = default_scenario()
        cells = scenario.demand_cells
        assert len(cells) == 30
        assert cells[:3] == [
            (scenario.demand_means_kwh[0], scenario.demand_stds_kwh[0], rate)
            for rate in scenario.arrival_rates_per_h
        ]
        assert scenario.trajectories_per_cell == 33
        single = dataclasses.replace(scenario, n_trajectories=1)
        assert single.trajectories_per_cell == 1

    def test_fingerprint_is_pinned(self):
        # Every manifest of a default-scenario study hashes this fingerprint.
        assert scenario_fingerprint(default_scenario()) == (
            "3482e08f7a48ec0c8634798c858e28837e0df6ce3575a2f1ead049b9efbb0a23"
        )

    def test_document_ships_as_package_data(self):
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        config = tomllib.loads((root / "pyproject.toml").read_text())
        shipped = config["tool"]["setuptools"]["package-data"]["besspp"]
        assert "default_scenario.json" in shipped
        for name in shipped:
            assert (root / "src" / "besspp" / name).is_file(), name

    def test_shipped_file_matches_builtin(self):
        from pathlib import Path

        shipped = Path(__file__).resolve().parent.parent / "scenarios/default.json"
        loaded = load_scenario(shipped)
        assert scenario_fingerprint(loaded) == scenario_fingerprint(
            default_scenario()
        )


class TestLoadScenario:
    def test_roundtrip_minimal(self, tmp_path):
        scenario = load_scenario(write_doc(tmp_path, minimal_doc()))
        assert scenario.name == "mini"
        assert scenario.seed == 7
        assert scenario.n_modules == 9
        assert len(scenario.architectures) == 2
        assert power_at(scenario.grid_profile, 13.0) == 30.0
        assert scenario.plaza.supply.mean_kwh == 4.0

    def test_integral_float_counts_load_as_ints(self, tmp_path):
        # Counts and seeds written as integral floats load as the same ints.
        doc = minimal_doc()
        doc.update(seed=7.0, n_layer1=3.0, n_packs=5.0, n_trajectories=4.0)
        doc["supply"]["n_modules"] = 9.0
        doc["architectures"][0].update(n_modules=9.0, n_layer1=3.0)
        scenario = load_scenario(write_doc(tmp_path, doc))
        base = load_scenario(write_doc(tmp_path, minimal_doc()))
        assert scenario == base
        assert type(scenario.n_packs) is int and type(scenario.seed) is int

    def test_seed_required(self, tmp_path):
        doc = minimal_doc()
        del doc["seed"]
        with pytest.raises(ScenarioError, match="seed"):
            load_scenario(write_doc(tmp_path, doc))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="JSON"):
            load_scenario(path)

    def test_bad_architecture_kind(self, tmp_path):
        doc = minimal_doc()
        doc["architectures"][0]["kind"] = "mystery"
        with pytest.raises(ScenarioError, match=r"^architectures\[0\]\.kind: unkn"):
            load_scenario(write_doc(tmp_path, doc))

    def test_entry_kinds_load_as_members(self, tmp_path):
        scenario = load_scenario(write_doc(tmp_path, minimal_doc()))
        kinds = [config.kind for config in scenario.architectures]
        assert kinds == [ArchitectureKind.LSHIPPP, ArchitectureKind.CPPP]
        assert scenario.architectures[1].eta_c == 1.0  # the default

    @pytest.mark.parametrize("entry, value", [(0, None), (0, 2), (1, 3), (1, 3.0)])
    def test_layer1_count_only_on_lshippp(self, entry, value, tmp_path):
        # lshippp's entry must restate the scenario's n_layer1; cppp's and
        # fpp's must leave it null.
        doc = minimal_doc()
        doc["architectures"][entry]["n_layer1"] = value
        kind = doc["architectures"][entry]["kind"]
        if value is None:
            problem = r"architectures\[0\]\.n_layer1 must be an integer"
        else:
            want = 3 if kind == "lshippp" else "null"
            problem = rf"architectures\[{entry}\] \({kind}\): n_layer1 must be {want}"
        with pytest.raises(ScenarioError, match=problem):
            load_scenario(write_doc(tmp_path, doc))

    def test_entries_keep_their_canonical_keys(self, tmp_path):
        # Every entry is written with all seven keys, the derived ones at the
        # values the studies use, as the shipped document holds them; and
        # the written form loads back to the same scenario.
        entries = scenario_to_dict(default_scenario())["architectures"]
        assert entries == shipped_doc()["architectures"]
        scenario = load_scenario(write_doc(tmp_path, minimal_doc()))
        written = scenario_to_dict(scenario)
        assert all(len(entry) == 7 for entry in written["architectures"])
        assert load_scenario(write_doc(tmp_path, written)) == scenario

    def test_every_value_problem_in_one_message(self, tmp_path):
        doc = minimal_doc()
        doc["plaza"]["charger_max_kw"] = 0
        doc["n_packs"] = 1
        doc["architectures"][1]["eta_c"] = 0
        # One bad value in each block, the input records' included.
        doc["supply"]["std_kwh"] = -1.0
        doc["plaza"]["supply"]["dod"] = 0.0
        doc["plaza"]["exemplar"]["demand_std_kwh"] = -1.0
        doc["grid_profile"][1][1] = -5.0
        with pytest.raises(ScenarioError) as exc:
            load_scenario(write_doc(tmp_path, doc))
        message = str(exc.value)
        assert "plaza.charger_max_kw must be positive" in message
        assert "n_packs must be >= 2" in message
        assert "architectures[1] (cppp): eta_c must be in (0, 1]" in message
        assert "supply.std_kwh must be nonnegative and finite" in message
        assert "plaza.supply.dod must be in (0, 1]" in message
        assert "plaza.exemplar.demand_std_kwh must be nonnegative" in message
        assert "grid_profile powers must be nonnegative" in message
        assert len(message.split("; ")) == 7

    def test_grid_profile_from_csv_path(self, tmp_path):
        doc = minimal_doc()
        (tmp_path / "grid.csv").write_text(
            "time_h,power_kw\r\n0.0,44.0\r\n8.0,22.0\r\n"
        )
        doc["grid_profile"] = "grid.csv"
        scenario = load_scenario(write_doc(tmp_path, doc))
        assert power_at(scenario.grid_profile, 9.0) == 22.0

    def test_grid_profile_missing_csv(self, tmp_path):
        doc = minimal_doc()
        doc["grid_profile"] = "missing.csv"
        with pytest.raises(ScenarioError, match="grid profile"):
            load_scenario(write_doc(tmp_path, doc))

    def test_empty_sweeps_rejected(self, tmp_path):
        doc = minimal_doc()
        doc["r_grid"] = []
        with pytest.raises(ScenarioError):
            load_scenario(write_doc(tmp_path, doc))

    def test_fingerprint_tracks_content(self, tmp_path):
        base = load_scenario(write_doc(tmp_path, minimal_doc()))
        doc = minimal_doc()
        doc["seed"] = 8
        changed = load_scenario(write_doc(tmp_path, doc))
        assert scenario_fingerprint(base) != scenario_fingerprint(changed)

    def test_to_dict_roundtrips_through_json(self, tmp_path):
        scenario = default_scenario()
        path = tmp_path / "dumped.json"
        path.write_text(json.dumps(scenario_to_dict(scenario)))
        again = load_scenario(path)
        assert scenario_fingerprint(again) == scenario_fingerprint(scenario)
        assert again.name == scenario.name


# Every key path of a scenario document but the optional ones; the plaza
# supply's keys are required whenever that block is given, and lshippp's
# n_layer1 (the shipped document's first entry) is required.
REQUIRED_KEYS = [
    "seed",
    "supply",
    "supply.mean_kwh",
    "supply.std_kwh",
    "supply.n_modules",
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
    "plaza.charger_max_kw",
    "plaza.bess_power_kw",
    "plaza.rating_r",
    "plaza.kinds",
    "plaza.exemplar",
    "plaza.exemplar.demand_mean_kwh",
    "plaza.exemplar.demand_std_kwh",
    "plaza.exemplar.arrival_rate_per_h",
    "plaza.supply.mean_kwh",
    "plaza.supply.std_kwh",
    *(f"architectures[{i}].{key}" for i in range(3) for key in ("kind", "rating_r")),
    "architectures[0].n_layer1",
]
OPTIONAL_KEYS = [
    "name",
    "supply.dod",
    "supply.voltage_v",
    "plaza.supply",
    "plaza.supply.dod",
    "plaza.supply.voltage_v",
    *(
        f"architectures[{i}].{key}"
        for i in range(3)
        for key in ("eta_c", "n_modules", "lambda_h", "horizon_h")
    ),
    "architectures[1].n_layer1",
    "architectures[2].n_layer1",
]


def shipped_doc() -> dict:
    path = Path(besspp.scenario.__file__).with_name("default_scenario.json")
    return json.loads(path.read_text())


def key_paths(doc: dict, prefix: str = "") -> list[str]:
    """Paths of every object key, ``architectures[1].eta_c`` into lists."""
    paths = []
    for key, value in doc.items():
        paths.append(prefix + key)
        if isinstance(value, dict):
            paths += key_paths(value, f"{prefix}{key}.")
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, dict):
                    paths += key_paths(item, f"{prefix}{key}[{i}].")
    return paths


def steps(key_path: str) -> list:
    """``"architectures[1].eta_c"`` as ``["architectures", 1, "eta_c"]``."""
    parts = filter(None, re.split(r"[.\[\]]+", key_path))
    return [int(part) if part.isdigit() else part for part in parts]


def without(doc: dict, key_path: str) -> dict:
    *parents, key = steps(key_path)
    block = doc
    for step in parents:
        block = block[step]
    del block[key]
    return doc


class TestClosedSchema:
    def test_key_lists_cover_the_shipped_document(self):
        assert sorted(key_paths(shipped_doc())) == sorted(
            REQUIRED_KEYS + OPTIONAL_KEYS
        )

    @pytest.mark.parametrize("key_path", REQUIRED_KEYS)
    def test_missing_required_key_is_named(self, key_path, tmp_path):
        path = write_doc(tmp_path, without(shipped_doc(), key_path))
        problem = rf"^missing key {re.escape(key_path)}$"
        with pytest.raises(ScenarioError, match=problem):
            load_scenario(path)

    @pytest.mark.parametrize("key_path", OPTIONAL_KEYS)
    def test_optional_key_may_be_left_out(self, key_path, tmp_path):
        scenario = load_scenario(write_doc(tmp_path, without(shipped_doc(), key_path)))
        default = default_scenario()
        if key_path == "name":
            assert scenario.name == "scenario"  # the file's stem
        elif key_path == "plaza.supply":
            assert scenario.plaza.supply == default.supply
        elif key_path.endswith(".eta_c"):
            entry = scenario.architectures[steps(key_path)[1]]
            assert entry.eta_c == 1.0  # the default
            assert scenario_fingerprint(scenario) != scenario_fingerprint(default)
        else:
            assert scenario_fingerprint(scenario) == scenario_fingerprint(default)

    @pytest.mark.parametrize(
        "block, key",
        [
            ("", "n_trajectory"),
            ("supply", "voltage"),
            ("plaza", "kind"),
            ("plaza.supply", "mean"),
            ("plaza.exemplar", "arrival_rate"),
            *((f"architectures[{i}]", "eta") for i in range(3)),
        ],
    )
    def test_unknown_key_is_named(self, block, key, tmp_path):
        # A misspelled key must fail by name, not be ignored.
        doc = shipped_doc()
        target = doc
        for step in steps(block):
            target = target[step]
        target[key] = 9
        key_path = f"{block}.{key}" if block else key
        problem = rf"^unknown key {re.escape(key_path)}$"
        with pytest.raises(ScenarioError, match=problem):
            load_scenario(write_doc(tmp_path, doc))


class TestScenarioValidation:
    def test_negative_seed(self):
        with pytest.raises(ScenarioError):
            Scenario(
                **{
                    **{
                        f: getattr(default_scenario(), f)
                        for f in Scenario.__dataclass_fields__
                    },
                    "seed": -1,
                }
            )

    def test_layer1_count_must_fit(self):
        with pytest.raises(ScenarioError):
            Scenario(
                **{
                    **{
                        f: getattr(default_scenario(), f)
                        for f in Scenario.__dataclass_fields__
                    },
                    "n_layer1": 9,
                }
            )

    def test_module_count_above_subset_limit(self, tmp_path):
        doc = minimal_doc()
        doc["supply"]["n_modules"] = MAX_CUT_MODULES + 1
        with pytest.raises(ScenarioError, match="n_modules must be <= 16"):
            load_scenario(write_doc(tmp_path, doc))

    def test_module_count_at_subset_limit(self, tmp_path):
        doc = minimal_doc()
        doc["supply"]["n_modules"] = MAX_CUT_MODULES
        assert load_scenario(write_doc(tmp_path, doc)).n_modules == 16

    @pytest.mark.parametrize("n_layer1", [4, 5])
    def test_layer1_search_above_the_placement_limit(self, tmp_path, n_layer1):
        # 16 modules have 120 pairs: C(120, 4) is 8.2 million placements.
        doc = minimal_doc()
        doc["supply"]["n_modules"] = 16
        doc["n_layer1"] = n_layer1
        with pytest.raises(ScenarioError, match="layer-1 placements") as exc:
            load_scenario(write_doc(tmp_path, doc))
        # The entry's n_layer1, still 3, is named in the same message.
        assert f"(lshippp): n_layer1 must be {n_layer1}, got 3" in str(exc.value)

    def test_shipped_scenario_search_fits(self):
        path = Path(__file__).resolve().parents[1] / "scenarios" / "default.json"
        scenario = load_scenario(path)
        placements = math.comb(math.comb(scenario.n_modules, 2), scenario.n_layer1)
        assert placements == 7140 <= MAX_PLACEMENTS

    def test_sample_counts_above_their_limits(self):
        # Each limit names its field and admits 100x the default's counts,
        # the 4,500-trajectory benchmark and a 30,000-trajectory ensemble.
        base = default_scenario()
        for n_trajectories in (100 * base.n_trajectories, 4_500, 30_000):
            dataclasses.replace(base, n_trajectories=n_trajectories)
        dataclasses.replace(base, n_packs=100 * base.n_packs)
        dataclasses.replace(base, n_packs=MAX_PACKS)
        with pytest.raises(ScenarioError, match=r"^n_packs must be <= 100,000"):
            dataclasses.replace(base, n_packs=MAX_PACKS + 1)
        # 30 demand cells at up to 2 arrivals an hour: 20,833 trajectories a
        # cell expect 999,984 arrivals, 20,834 expect 1,000,032.
        dataclasses.replace(base, n_trajectories=30 * 20_833)
        with pytest.raises(ScenarioError, match=r"^n_trajectories: 20,834 traj"):
            dataclasses.replace(base, n_trajectories=30 * 20_834)
        assert 2.0 * 24 * 20_834 > MAX_CELL_ARRIVALS >= 2.0 * 24 * 20_833



# One bad value for each rule on a value of a supply block, the exemplar
# demand, the demand cells and the grid profile: the key path it is set at,
# its JSON value, and the start of the problem that names it.
SUPPLY_RULES = [
    ("mean_kwh", 0.0, "{}.mean_kwh must be positive and finite"),
    ("std_kwh", -1.0, "{}.std_kwh must be nonnegative and finite"),
    ("std_kwh", "heterogeneity", "{}.std_kwh is over 0.5 x mean"),
    ("dod", 1.2, "{}.dod must be in (0, 1]"),
    ("voltage_v", 0.0, "{}.voltage_v must be positive and finite"),
    # 9 modules of 2e307 V sum beyond the float range: the studies would
    # divide by an infinite subset voltage and report nothing delivered.
    ("voltage_v", 2e307, "{}.voltage_v: the series voltage must be finite"),
]
EXEMPLAR = "plaza.exemplar.demand"
VALUE_RULES = [
    *(
        (f"{block}.{key}", value, problem.format(block))
        for block in ("supply", "plaza.supply")
        for key, value, problem in SUPPLY_RULES
    ),
    (f"{EXEMPLAR}_mean_kwh", 0.0, f"{EXEMPLAR}_mean_kwh must be positive and finite"),
    (f"{EXEMPLAR}_std_kwh", -1.0, f"{EXEMPLAR}_std_kwh must be nonnegative and finite"),
    # A demand is clamped to [0, 2 x mean]: 2e308 is beyond the float range.
    (f"{EXEMPLAR}_mean_kwh", 1e308, f"{EXEMPLAR}_mean_kwh: 2 x mean, the demand clamp"),
    ("demand_means_kwh", [50.0, 1e308], "demand_means_kwh: 2 x mean, the demand clamp"),
    # The expected module total over the power overflows.
    ("rated_power_kw", 1e-308, "rated_power_kw: the layer-1 design horizon must be"),
    ("plaza.bess_power_kw", 1e-308, "plaza.bess_power_kw: the layer-1 design horizon"),
    ("grid_profile", [[1.0, 50.0]], "grid_profile must have a first segment, at hour"),
    ("grid_profile", [], "grid_profile must have a first segment, at hour 0"),
    ("grid_profile", [[0.0, 50.0], [0.0, 40.0]], "grid_profile starts must strictly"),
    ("grid_profile", [[0.0, 50.0], [24.0, 40.0]], "grid_profile starts must lie below"),
    ("grid_profile", [[0.0, 50.0], [math.nan, 40.0]], "grid_profile starts and powers"),
    ("grid_profile", [[0.0, math.inf]], "grid_profile starts and powers must be fini"),
    ("grid_profile", [[0.0, 50.0], [12.0, -1.0]], "grid_profile powers must be nonneg"),
]


def edge_of(admits, lo: float, hi: float) -> tuple[float, float]:
    """The adjacent floats ``(a, b)`` in ``[lo, hi]`` where ``admits`` flips.

    ``admits`` is monotone on positive floats and differs at ``lo`` and
    ``hi``; a positive float's bits order it, so this bisects the bits.
    """
    bits = [struct.unpack("<q", struct.pack("<d", x))[0] for x in (lo, hi)]
    flips = admits(lo)
    while bits[1] - bits[0] > 1:
        mid = sum(bits) // 2
        value = struct.unpack("<d", struct.pack("<q", mid))[0]
        bits[admits(value) != flips] = mid
    return tuple(struct.unpack("<d", struct.pack("<q", b))[0] for b in bits)


def with_value(doc: dict, key_path: str, value) -> dict:
    *parents, key = steps(key_path)
    block = doc
    for step in parents:
        block = block[step]
    if value == "heterogeneity":  # just above the supported maximum, 0.5
        value = 0.51 * block["mean_kwh"]
    block[key] = value
    return doc


class TestValueRules:
    @pytest.mark.parametrize(
        "key_path, value, problem",
        VALUE_RULES,
        ids=[f"{path}={value}".replace(" ", "") for path, value, _ in VALUE_RULES],
    )
    def test_bad_value_is_named_by_its_path(self, key_path, value, problem, tmp_path):
        path = write_doc(tmp_path, with_value(minimal_doc(), key_path, value))
        with pytest.raises(ScenarioError) as exc:
            load_scenario(path)
        assert any(p.startswith(problem) for p in str(exc.value).split("; "))

    def test_values_at_the_overflow_rules_edge_load(self, tmp_path):
        # 9 modules of 1e307 V, and a horizon near 1e306 h, stay finite.
        doc = minimal_doc()
        doc["supply"]["voltage_v"] = 1e307
        doc["rated_power_kw"] = 337.5 / 1e306
        doc["demand_means_kwh"] = [8e307]
        assert load_scenario(write_doc(tmp_path, doc)).supply.voltage_v == 1e307

    @pytest.mark.parametrize("n", range(2, MAX_CUT_MODULES + 1))
    def test_overflow_rules_admit_only_finite_sums(self, n):
        # The voltage and horizon rules bound a sum over the n modules by n
        # times one module's value.  At the edge of what each admits, the
        # studies' own sums stay finite: the subset voltages, and the
        # expected module total over the power.  The widest supported
        # spread, and a derate, exercise the flattened set.
        base = default_scenario()
        supply = dataclasses.replace(base.supply, std_kwh=18.75, dod=0.8)
        base = dataclasses.replace(base, supply=supply, n_modules=n, n_layer1=1)

        def admits(**changes):
            try:
                dataclasses.replace(base, **changes)
            except ScenarioError:
                return False
            return True

        volts, over = edge_of(
            lambda v: admits(supply=dataclasses.replace(supply, voltage_v=v)),
            1.0,
            math.inf,
        )
        assert np.isfinite(_subset_sums(np.full((1, n), volts))).all()
        with np.errstate(over="ignore"):
            assert not np.isfinite(_subset_sums(np.full((1, n), over * 1.01))).all()
        _, power = edge_of(
            lambda kw: admits(rated_power_kw=kw), 5e-324, base.rated_power_kw
        )
        total = _module_totals(flatten_distribution(supply, n)).item()
        assert math.isfinite(total / power)
        assert not math.isfinite(total / (power / 1.01))

    def test_shared_supply_is_named_once(self, tmp_path):
        # Without a plaza.supply block the plaza designs on the pack supply,
        # whose problems are named by its own path only.
        doc = minimal_doc()
        del doc["plaza"]["supply"]
        doc["supply"]["dod"] = 0.0
        with pytest.raises(ScenarioError, match=r"^supply\.dod must be in \(0, 1\]$"):
            load_scenario(write_doc(tmp_path, doc))

    def test_grid_segment_must_be_a_pair(self, tmp_path):
        doc = minimal_doc()
        doc["grid_profile"][1].append(3.0)
        with pytest.raises(ScenarioError, match=r"^grid_profile\[1\] must be a \[time"):
            load_scenario(write_doc(tmp_path, doc))
