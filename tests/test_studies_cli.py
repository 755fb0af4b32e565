import concurrent.futures
import csv
import dataclasses
import gc
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import besspp.studies
from besspp.cli import main
from besspp.designer import TRADEOFF_HEADER, derive_seed
from besspp.plaza import DemandModel, cycle_phases, draw_arrivals
from besspp.scenario import ScenarioError, load_scenario
from besspp.studies import (
    CELLS_HEADER,
    DAY_HORIZON_H,
    TRAJECTORY_HEADER,
    _cell_batches,
    _parallel_map,
    _plaza_setup,
    run_day,
    run_design,
    run_ensemble,
    run_tradeoff,
    scenario_fingerprint,
)

from plaza_oracle import reference_replay
from test_flows import left_fold


def small_doc() -> dict:
    return {
        "name": "small",
        "seed": 99,
        "supply": {"mean_kwh": 37.5, "std_kwh": 9.375, "n_modules": 9},
        "n_layer1": 3,
        "rated_power_kw": 150.0,
        "architectures": [
            {"kind": "lshippp", "rating_r": 0.2, "n_layer1": 3},
            {"kind": "cppp", "rating_r": 0.2},
            {"kind": "fpp", "rating_r": 0.2},
        ],
        "grid_profile": [[0.0, 55.0], [6.0, 35.0], [12.0, 45.0]],
        "arrival_rates_per_h": [2.0],
        "demand_means_kwh": [50.0],
        "demand_stds_kwh": [25.0],
        "r_grid": [0.15, 0.3],
        "lambda_grid": [0.0, 0.5, 1.0, 2.0],
        "n_packs": 6,
        "n_trajectories": 8,
        "plaza": {
            "charger_max_kw": 150.0,
            "bess_power_kw": 150.0,
            "rating_r": 0.2,
            "kinds": ["lshippp", "cppp"],
            "supply": {"mean_kwh": 4.1666666666666667, "std_kwh": 1.0416666666666667},
            "exemplar": {
                "demand_mean_kwh": 50.0,
                "demand_std_kwh": 25.0,
                "arrival_rate_per_h": 2.0,
            },
        },
    }


def write_doc_with(path: Path, field: str, literal: str) -> Path:
    """Write ``small_doc()`` to ``path`` with one field set to raw JSON.

    ``field`` is a dotted path (``"supply.n_modules"``, ``"architectures.1.rating_r"``)
    and ``literal`` the JSON text of its value, so literals such as ``NaN``
    that ``json.dumps`` would not write can be set.
    """
    doc = small_doc()
    *path_to, key = [int(k) if k.isdigit() else k for k in field.split(".")]
    parent = doc
    for step in path_to:
        parent = parent[step]
    parent[key] = "VALUE"
    path.write_text(json.dumps(doc).replace('"VALUE"', literal))
    return path


@pytest.fixture(scope="module")
def small_scenario(tmp_path_factory):
    root = tmp_path_factory.mktemp("scenario")
    path = root / "small.json"
    path.write_text(json.dumps(small_doc()))
    return path, load_scenario(path)


def read_bytes(path: Path) -> bytes:
    return path.read_bytes()


def tree_digest(out_dir: Path) -> dict:
    digests = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            digests[str(path.relative_to(out_dir))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return digests


# Every study's output digests on small_doc() and on the shipped default
# scenario, as its manifest lists them.  A change that must leave the
# artifacts alone keeps these; one that moves them on purpose says why and
# re-pins them.
PINNED_OUTPUTS = {
    "design": {
        "small": {
            "design.json": "abb189450653eb53c0de6b86a2fb8fd621330eb3c2ce8352bbf15789ebb96d9a",
            "lambda_sweep.csv": "fb0e24e2beb6d0b84891e5eb3fbb7a92b65dedc770410c673ab67166613cd426",
        },
        "default": {
            "design.json": "abb189450653eb53c0de6b86a2fb8fd621330eb3c2ce8352bbf15789ebb96d9a",
            "lambda_sweep.csv": "0d829048823466190fbc9efc016ac2693f7e0ffd9138373fb9aebad204661492",
        },
    },
    "tradeoff": {
        "small": {
            "tradeoff.csv": "baebc6ebd4dc18f20d3fc3f46620129bd4bd3be7ccc4d886fd7fe001df17b40f",
        },
        "default": {
            "tradeoff.csv": "747fa82e8aab012c1806ee3768904b0cd642a6df81f308f7b493cbf528429c61",
        },
    },
    "day": {
        "small": {
            "day_cppp.csv": "ceaaee8f0f071499e9e86749e96afbb9deef6d5b904a2cc4fb82efd6daa65c9d",
            "day_cppp.json": "53e79c1a67280f0d719e23b98e22e8209375c1d9b0f176a43e8529a4a05e1afc",
            "day_lshippp.csv": "003b3fc815942216df913070b9e7510ee5f61ecfd3716dafb74d35e7edc7e31e",
            "day_lshippp.json": "d1d351dc1c645c8e8150921ff141040f3e5fbde19a1187eb8f0dafa775e88f7c",
        },
        "default": {
            "day_cppp.csv": "c43cb411bdf9d765894cd2efcf7c0a9e1db401720ddee26fcc8c3c4317172319",
            "day_cppp.json": "59f8c937e5eb48013756418e0aa68fd276607decd953d4281c1956fd84a4a6e1",
            "day_lshippp.csv": "bfb1045ad4e5dcd3e0f40127ccbe12456d7511a0c85d2131fcfc1b9c54fc21ac",
            "day_lshippp.json": "664cccce0459047cf255bc9a4b7b5bb700bf241b2ec931fb7957c1223c327bff",
        },
    },
    "ensemble": {
        "small": {
            "cells.csv": "43513c3ee22dad181c41e5d01e1c4e1b2d6c2b97f9688dcc6635e4bdaa8873f8",
            "dispersion.csv": "dd1c2e98c9544ccfecdbe41a15e0e12ff09135701f71b28433e0db2c01dc216d",
            "metrics_cppp.json": "7b18332befa8efbe0fab8cf95fd754796263a4241ae8dec070af6b84339cb00d",
            "metrics_lshippp.json": "9f8fd153121751fd2ab7710088ac3342ca8f7e78523c8364857dcd3c1dd3791f",
        },
        "default": {
            "cells.csv": "9deb9b96c169da48fcf45781a8597f5b0b8cfe1ef110f7f50c8cede67c7089c3",
            "dispersion.csv": "d1a44b5ca41ddddbaedb32884f11c7d3c8709a20929f8cbe3d3a8c0f443989f1",
            "metrics_cppp.json": "6ec12a41653f286938984d5272f0a695d0f4fce32e06c15c914f0dfec039eaf0",
            "metrics_lshippp.json": "4030a56b833232c2437ae6fe66ef7c35cbb4bcb6eaf8070c6e8589eb3bee6245",
        },
    },
}

DEFAULT_SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "default.json"


@pytest.mark.parametrize("study", list(PINNED_OUTPUTS))
def test_study_outputs_keep_their_pinned_bytes(small_scenario, tmp_path, study):
    small, _ = small_scenario
    for name, path in [("small", small), ("default", DEFAULT_SCENARIO)]:
        out = tmp_path / name
        assert main([study, "--scenario", str(path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == PINNED_OUTPUTS[study][name], name


@pytest.mark.parametrize(
    "run", [run_design, run_tradeoff, run_day, run_ensemble], ids=lambda f: f.__name__
)
def test_study_returns_the_files_it_wrote(small_scenario, tmp_path, run):
    # The artifacts sorted by name, then the manifest: every file in the
    # directory, and nothing else.
    _, scenario = small_scenario
    out = tmp_path / "out"
    written = run(scenario, out)
    assert written[-1] == out / "manifest.json"
    assert written[:-1] == sorted(written[:-1])
    assert sorted(written) == sorted(out.iterdir())


def _strict_json(path: Path):
    """``path``'s JSON, refusing the NaN and Infinity tokens strict parsers reject."""

    def refuse(token):
        raise ValueError(f"{path.name} holds {token}")

    return json.loads(path.read_text(), parse_constant=refuse)


class TestRunDesign:
    def test_artifacts_and_manifest(self, small_scenario, tmp_path):
        _, scenario = small_scenario
        out = tmp_path / "design"
        run_design(scenario, out)
        design = json.loads((out / "design.json").read_text())
        assert design["n_layer1"] == 3
        assert len(design["edges"]) == 3
        assert design["expected_utilization"] > 0.9
        with (out / "lambda_sweep.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["lambda_h"]) for r in rows[:2]] == [0.0, 0.5]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["study"] == "design"
        assert manifest["scenario_sha256"] == scenario_fingerprint(scenario)
        for name, digest in manifest["outputs"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


class TestRunTradeoff:
    def test_columns_and_rows(self, small_scenario, tmp_path):
        _, scenario = small_scenario
        run_tradeoff(scenario, tmp_path / "t")
        path = tmp_path / "t" / "tradeoff.csv"
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = tuple(next(reader))
            rows = list(reader)
        assert header == TRADEOFF_HEADER
        assert len(rows) == 3 * len(scenario.r_grid)
        kinds = {row[0] for row in rows}
        assert kinds == {"lshippp", "cppp", "fpp"}
        for row in rows:
            util = float(row[3])
            assert 0.0 <= util <= 1.0 + 1e-12
            assert float(row[7]) >= float(row[6])

    def test_worker_count_invariance(self, small_scenario, tmp_path):
        path, _ = small_scenario
        for workers in ("1", "3"):
            out = str(tmp_path / f"w{workers}")
            args = ["tradeoff", "--scenario", str(path), "--workers", workers]
            assert main([*args, "--out", out]) == 0
        assert tree_digest(tmp_path / "w1") == tree_digest(tmp_path / "w3")


def _day_stream(scenario):
    """The day study's one stream, drawn on its own."""
    plaza = scenario.plaza
    key = derive_seed(scenario.seed, "day")
    return draw_arrivals(
        [(plaza.exemplar_rate_per_h, plaza.exemplar_demand, [key])],
        DAY_HORIZON_H,
    )


class TestRunDay:
    def test_minute_series_shape(self, small_scenario, tmp_path):
        _, scenario = small_scenario
        out = tmp_path / "day"
        run_day(scenario, out)
        for kind in ("lshippp", "cppp"):
            with (out / f"day_{kind}.csv").open(newline="") as fh:
                reader = csv.reader(fh)
                header = tuple(next(reader))
                rows = list(reader)
            assert header == TRAJECTORY_HEADER
            assert len(rows) == 24 * 60 + 1
            assert float(rows[0][0]) == 0.0
            assert float(rows[-1][0]) == pytest.approx(24.0)
            stats = json.loads((out / f"day_{kind}.json").read_text())
            assert stats["kind"] == kind
            assert stats["n_cycles"] >= 1

    def test_pack_prefix_keeps_every_capacity(self, small_scenario):
        # run_day samples only pack 0; packs are seeded by index and each
        # kind's packs are evaluated in one batch, so a shorter prefix must
        # give the same leading capacities bit for bit.
        _, scenario = small_scenario
        total, pack_totals, capacities = _plaza_setup(scenario)
        for n_packs in (1, 2):
            short_total, short_totals, short_caps = _plaza_setup(
                scenario, n_packs=n_packs
            )
            assert short_totals.tolist() == pack_totals[:n_packs].tolist()
            assert short_total == total
            assert short_caps.keys() == capacities.keys()
            for kind, caps in capacities.items():
                assert short_caps[kind].tolist() == caps[:n_packs].tolist()

    def test_unknown_kind_rejected(self, small_scenario, tmp_path):
        _, scenario = small_scenario
        with pytest.raises(ScenarioError, match="not part"):
            run_day(scenario, tmp_path / "day", kinds=("fpp",))
        assert not (tmp_path / "day").exists()

    def test_same_demand_stream_across_kinds(self, small_scenario, tmp_path):
        # Every kind serves a subsequence of one arrival stream and drops
        # the rest of it.
        _, scenario = small_scenario
        stream = _day_stream(scenario)
        arrivals = list(zip(stream.times_h, stream.demands_kwh))
        out = tmp_path / "day"
        run_day(scenario, out)
        for kind in ("lshippp", "cppp"):
            day = json.loads((out / f"day_{kind}.json").read_text())
            served = [(c["start_h"], c["demand_kwh"]) for c in day["cycles"]]
            assert served[0] == arrivals[0]
            remaining = iter(arrivals)
            assert all(arrival in remaining for arrival in served)
            assert len(served) + day["dropped_arrivals"] == len(arrivals)

    def test_cycles_equal_reference_replay(self, small_scenario, tmp_path):
        # Each kind's cycle records are the scalar oracle's replay of the
        # day stream at that kind's pack-0 capacity, field by field.
        _, scenario = small_scenario
        plaza = scenario.plaza
        stream = _day_stream(scenario)
        _, _, capacities = _plaza_setup(scenario, n_packs=1)
        run_day(scenario, tmp_path / "day")
        for kind in ("lshippp", "cppp"):
            day = json.loads((tmp_path / "day" / f"day_{kind}.json").read_text())
            capacity = capacities[kind][0]
            cycles, dropped = reference_replay(
                capacity, plaza.bess_power_kw, scenario.grid_profile, stream, 0,
                plaza.charger_max_kw,
            )
            assert day["effective_capacity_kwh"] == capacity
            assert day["cycles"] == [dataclasses.asdict(c) for c in cycles]
            assert day["n_cycles"] == len(cycles)
            assert day["dropped_arrivals"] == dropped

    def test_draws_the_day_stream_once(self, small_scenario, tmp_path, monkeypatch):
        _, scenario = small_scenario
        calls = []

        def counting(groups, horizon_h):
            calls.append([key for _, _, keys in groups for key in keys])
            return draw_arrivals(groups, horizon_h)

        monkeypatch.setattr(besspp.studies, "draw_arrivals", counting)
        run_day(scenario, tmp_path / "day", kinds=("lshippp", "cppp"))
        assert calls == [[derive_seed(scenario.seed, "day")]]


class TestRunEnsemble:
    def test_artifacts(self, small_scenario, tmp_path):
        _, scenario = small_scenario
        out = tmp_path / "e"
        run_ensemble(scenario, out, workers=2)
        with (out / "dispersion.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        kinds = {r["kind"] for r in rows}
        assert kinds == {"lshippp", "cppp"}
        for kind in kinds:
            report = json.loads((out / f"metrics_{kind}.json").read_text())
            assert report["study"].endswith(kind)
            metrics = report["metrics"]
            assert 0.0 <= metrics["derating_factor"]["value"] <= 1.0
            assert 0.0 < metrics["utilization_at_worst_gap"]["value"] <= 1.0
        with (out / "cells.csv").open(newline="") as fh:
            cells = list(csv.DictReader(fh))
        assert len(cells) == 2
        for cell in cells:
            assert int(cell["n_trajectories"]) == 8
            assert float(cell["curtailed_mean_min"]) >= 0.0
            assert float(cell["curtailed_max_min"]) >= float(
                cell["curtailed_mean_min"]
            )

    def test_dispersion_is_one_phase_call_per_kind(
        self, small_scenario, tmp_path, monkeypatch
    ):
        # Every reference interval on every pack is one broadcast call.
        _, scenario = small_scenario
        shapes = []

        def counting(capacity, grid_kw, demand_kwh, charger_max_kw, bess_power_kw):
            phases = cycle_phases(
                capacity, grid_kw, demand_kwh, charger_max_kw, bess_power_kw
            )
            shapes.append(phases[4].shape)
            return phases

        monkeypatch.setattr(besspp.studies, "cycle_phases", counting)
        out = tmp_path / "e"
        run_ensemble(scenario, out)
        with (out / "dispersion.csv").open(newline="") as fh:
            n_intervals = len(list(csv.DictReader(fh))) // 2
        assert shapes == [(n_intervals, scenario.n_packs)] * 2

    def test_system_efficiency_at_the_plaza_rating(self, tmp_path):
        # Derating and captured value are read at the plaza's rating, and so
        # is the efficiency beside them, whatever the tradeoff entries say.
        doc = small_doc()
        doc["plaza"]["rating_r"] = 0.5
        for entry in doc["architectures"]:
            entry["eta_c"] = 0.85
        path = tmp_path / "rated.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "e"
        run_ensemble(load_scenario(path), out)
        for kind in ("lshippp", "cppp"):
            report = json.loads((out / f"metrics_{kind}.json").read_text())
            efficiency = report["metrics"]["system_efficiency"]["value"]
            assert efficiency == pytest.approx(1 - 0.15 * 0.5)

    def test_no_numpy_warnings(self, small_scenario, tmp_path):
        # The lane core computes only on active lanes; a finished lane is
        # busy until inf, and inf % 24 or 0/0 would warn.
        _, scenario = small_scenario
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_ensemble(scenario, tmp_path / "e", workers=1)

    def test_cells_are_kind_major_per_kind_days(self, tmp_path):
        # Four cells, two trajectories each; every row must equal the
        # aggregate of the scalar oracle's per-trajectory days for its kind.
        doc = small_doc()
        doc["arrival_rates_per_h"] = [2.0, 0.667]
        doc["demand_stds_kwh"] = [10.0, 25.0]
        path = tmp_path / "cells.json"
        path.write_text(json.dumps(doc))
        scenario = load_scenario(path)
        plaza = scenario.plaza
        _, pack_totals, capacities = _plaza_setup(scenario)
        seed = derive_seed(scenario.seed, "ensemble")
        n_traj = 2

        def fmt(value):
            if isinstance(value, float):
                return "" if math.isnan(value) else repr(value)
            return str(value)

        expected = []
        for kind, mean, std, rate in itertools.product(
            [k.value for k in plaza.kinds],
            scenario.demand_means_kwh,
            scenario.demand_stds_kwh,
            scenario.arrival_rates_per_h,
        ):
            completed, unmet, dropped, served = [], [], [], []
            for t in range(n_traj):
                pack = t % scenario.n_packs
                key = derive_seed(seed, "traj", mean, std, rate, t)
                stream = draw_arrivals(
                    [(rate, DemandModel(mean, std), [key])],
                    DAY_HORIZON_H,
                )
                cycles, day_dropped = reference_replay(
                    capacities[kind][pack],
                    plaza.bess_power_kw,
                    scenario.grid_profile,
                    stream,
                    0,
                    plaza.charger_max_kw,
                )
                completed += [
                    (c, pack_totals[pack]) for c in cycles if not c.truncated
                ]
                unmet.append(left_fold(c.unmet_kwh for c in cycles))
                dropped.append(day_dropped)
                served.append(len(cycles))
            curtailed = [c.curtailed_h * 60.0 for c, _ in completed]
            utils = [c.bess_delivered_kwh / total for c, total in completed]
            row = (
                kind, mean, std, rate, n_traj, len(completed),
                float(np.mean(utils)) if utils else math.nan,
                float(np.mean(curtailed)) if curtailed else math.nan,
                float(np.max(curtailed)) if curtailed else math.nan,
                float(np.mean(unmet)),
                float(np.mean(dropped)),
                float(np.mean(served)),
            )
            expected.append([fmt(v) for v in row])

        run_ensemble(scenario, tmp_path / "e", workers=1)
        with (tmp_path / "e" / "cells.csv").open(newline="") as fh:
            reader = csv.reader(fh)
            assert tuple(next(reader)) == CELLS_HEADER
            rows = list(reader)
        assert [r[0] for r in rows] == ["lshippp"] * 4 + ["cppp"] * 4
        assert rows == expected

    def test_one_cell_batches_leave_every_byte(self, tmp_path, monkeypatch):
        # Four cells of two trajectories fit one batch at the default bound;
        # a bound of one expected arrival makes every cell its own batch.
        # The bytes stay those of the one-batch run at every worker count.
        doc = small_doc()
        doc["arrival_rates_per_h"] = [2.0, 0.667]
        doc["demand_stds_kwh"] = [10.0, 25.0]
        path = tmp_path / "cells.json"
        path.write_text(json.dumps(doc))
        scenario = load_scenario(path)
        run_ensemble(scenario, tmp_path / "whole")
        whole = tree_digest(tmp_path / "whole")
        assert _cell_batches([2.0, 0.667] * 2, 2) == [[0, 1, 2, 3]]
        monkeypatch.setattr(besspp.studies, "_BATCH_ARRIVALS", 1)
        assert _cell_batches([2.0, 0.667] * 2, 2) == [[0], [1], [2], [3]]
        for workers in (1, 2, 3):
            run_ensemble(scenario, tmp_path / f"w{workers}", workers=workers)
            assert tree_digest(tmp_path / f"w{workers}") == whole

    @given(
        rates=st.lists(
            st.sampled_from([0.05, 0.4, 2.0, 40.0, 5000.0]), min_size=1, max_size=12
        ),
        per_cell=st.integers(1, 400),
    )
    @settings(max_examples=100, deadline=None)
    def test_batches_hold_whole_cells_in_order(self, rates, per_cell):
        batches = _cell_batches(rates, per_cell)
        assert all(batches)
        assert [cell for batch in batches for cell in batch] == list(range(len(rates)))
        bound = besspp.studies._BATCH_ARRIVALS
        for i, batch in enumerate(batches):
            loads = list(
                itertools.accumulate(rates[c] * 24.0 * per_cell for c in batch)
            )
            # Only a batch's last cell takes it to the bound, and every batch
            # but the last reaches it.
            assert all(load < bound for load in loads[:-1])
            assert loads[-1] >= bound or i == len(batches) - 1

    def test_rerun_and_workers_byte_identical(self, small_scenario, tmp_path):
        _, scenario = small_scenario
        for name, workers in (("a", 1), ("b", 1), ("c", 3)):
            run_ensemble(scenario, tmp_path / name, workers=workers)
        da, db, dc = (tree_digest(tmp_path / name) for name in "abc")
        assert da == db
        assert da == dc


class TestCli:
    def test_validate_ok(self, small_scenario, capsys):
        path, _ = small_scenario
        assert main(["validate", "--scenario", str(path)]) == 0
        assert "valid" in capsys.readouterr().out.lower()

    def test_validate_without_scenario_runs_the_shipped_default(self, capsys):
        assert main(["validate"]) == 0
        assert capsys.readouterr().out == "scenario 'default' is valid\n"

    @pytest.mark.parametrize(
        "field, literal, problem",
        [
            ("plaza.kinds", '["lshippp", "lshippp"]', "plaza.kinds: kind lshippp"),
            ("architectures.2.kind", '"cppp"', "architectures: kind cppp"),
        ],
    )
    def test_repeated_kind_exits_1_and_writes_nothing(
        self, field, literal, problem, tmp_path, capsys
    ):
        # A repeated kind would write its rows twice; the scenario is
        # refused at load, before --out exists.
        path = write_doc_with(tmp_path / "twice.json", field, literal)
        assert main(["validate", "--scenario", str(path)]) == 1
        assert f"{problem} is repeated" in capsys.readouterr().err
        out = tmp_path / "o"
        assert main(["ensemble", "--scenario", str(path), "--out", str(out)]) == 1
        assert f"{problem} is repeated" in capsys.readouterr().err
        assert not out.exists()

    def test_plaza_kind_without_an_entry_exits_1_and_writes_nothing(
        self, tmp_path, capsys
    ):
        # The plaza reads each kind's converter efficiency from its
        # architectures entry; without one, metrics_cppp.json held a NaN.
        doc = small_doc()
        del doc["architectures"][1]
        path = tmp_path / "no-cppp.json"
        path.write_text(json.dumps(doc))
        problem = "plaza.kinds: kind cppp has no architectures entry"
        assert main(["validate", "--scenario", str(path)]) == 1
        assert problem in capsys.readouterr().err
        out = tmp_path / "o"
        assert main(["ensemble", "--scenario", str(path), "--out", str(out)]) == 1
        assert problem in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["no-cycles", "zero-rating"])
    def test_statistics_with_no_sample_are_null(self, case, tmp_path):
        # A day with no cycle has no curtailed minutes, and a zero rating
        # leaves fpp with no output to derate; each is null, never a NaN.
        # (The ensemble needs an exemplar day with cycles.)
        doc = small_doc()
        if case == "no-cycles":
            doc["plaza"]["exemplar"]["arrival_rate_per_h"] = 0.01
            studies = ["day"]
        else:
            doc["plaza"]["kinds"] = ["lshippp", "fpp"]
            doc["plaza"]["rating_r"] = 0.0
            studies = ["day", "ensemble"]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        docs = {}
        for study in studies:
            out = tmp_path / study
            assert main([study, "--scenario", str(path), "--out", str(out)]) == 0
            docs.update({p.name: _strict_json(p) for p in out.glob("*.json")})
        if case == "no-cycles":
            for kind in ("lshippp", "cppp"):
                day = docs[f"day_{kind}.json"]
                assert day["n_cycles"] == 0
                assert day["curtailed_mean_min"] is None
                assert day["curtailed_max_min"] is None
        else:
            metrics = docs["metrics_fpp.json"]["metrics"]
            for name in ("derating_factor", "captured_value_kwh", "captured_fraction"):
                assert metrics[name]["value"] is None
            assert metrics["utilization_at_worst_gap"]["value"] == 0.0

    def test_validate_bad_scenario_exits_1(self, tmp_path, capsys):
        doc = small_doc()
        del doc["seed"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--scenario", str(path)]) == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "ensemble"])
    def test_one_pack_exits_1_and_writes_nothing(self, command, tmp_path, capsys):
        # Derating is a three-sigma statistic over the packs: one pack has
        # no spread, so the scenario is refused at load, before --out exists.
        path = write_doc_with(tmp_path / "one.json", "n_packs", "1")
        args = [command, "--scenario", str(path)]
        if command == "ensemble":
            args += ["--out", str(tmp_path / "o")]
        assert main(args) == 1
        assert "n_packs must be >= 2: derating" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["one.json"]

    def test_module_count_above_subset_limit_exits_1(self, tmp_path, capsys):
        doc = small_doc()
        doc["supply"]["n_modules"] = 17
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code = main(["design", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "n_modules must be <= 16" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_placement_search_above_the_limit_exits_1(self, tmp_path, capsys):
        doc = small_doc()
        doc["supply"]["n_modules"] = 16
        doc["n_layer1"] = 5
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        code = main(["design", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "190,578,024 layer-1 placements" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("demand_stds_kwh", "[NaN]"),
            ("arrival_rates_per_h", "[NaN]"),
            ("arrival_rates_per_h", "[Infinity]"),
            ("arrival_rates_per_h", "[1e999]"),
            ("grid_profile", "[[0.0, 55.0], [NaN, 35.0]]"),
            ("grid_profile", "[[0.0, NaN], [6.0, 35.0]]"),
            ("r_grid", "[NaN]"),
            ("lambda_grid", "[Infinity]"),
            ("rated_power_kw", "NaN"),
            ("seed", "Infinity"),
            ("n_packs", "1e999"),
            ("n_layer1", "NaN"),
            ("supply.voltage_v", "Infinity"),
            ("architectures.1.rating_r", "NaN"),
            ("plaza.charger_max_kw", "NaN"),
            ("plaza.exemplar.arrival_rate_per_h", "Infinity"),
            ("plaza.exemplar.demand_std_kwh", "NaN"),
            # Finite, but far beyond any run that could finish.
            ("n_trajectories", "1e12"),
            ("n_packs", "1000000000000"),
        ],
    )
    def test_non_finite_numbers_exit_1(self, field, value, tmp_path, monkeypatch):
        path = write_doc_with(tmp_path / "nonfinite.json", field, value)

        # The check must stop the run before any study starts: an infinite
        # arrival rate would never finish drawing its stream, nor would 1e12
        # trajectories.
        def no_study(*args, **kwargs):
            raise AssertionError("a study ran on a non-finite scenario")

        monkeypatch.setattr(besspp.cli, "run_ensemble", no_study)
        assert main(["validate", "--scenario", str(path)]) == 1
        out = tmp_path / "o"
        assert main(["ensemble", "--scenario", str(path), "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_packs", "100.7"),
            ("seed", "20240915.9"),
            ("n_trajectories", "true"),
            ("n_packs", '"100"'),
            ("n_layer1", "3.5"),
            ("supply.n_modules", "false"),
            ("architectures.0.n_layer1", '"3"'),
            ("architectures.1.n_modules", "9.25"),
        ],
    )
    def test_non_integral_counts_exit_1(self, field, value, tmp_path, capsys):
        # A count or seed is never truncated: 100.7 packs would run 100.
        path = write_doc_with(tmp_path / "counts.json", field, value)
        assert main(["validate", "--scenario", str(path)]) == 1
        name = field.replace(".0.", "[0].").replace(".1.", "[1].")
        assert f"{name} must be an integer" in capsys.readouterr().err
        out = tmp_path / "o"
        assert main(["tradeoff", "--scenario", str(path), "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value, key_path",
        [
            ("r_grid", '[1, "a"]', "r_grid[1]"),
            ("lambda_grid", '[0.0, null]', "lambda_grid[1]"),
            ("arrival_rates_per_h", '[[2.0]]', "arrival_rates_per_h[0]"),
            ("rated_power_kw", '"fast"', "rated_power_kw"),
            ("plaza.charger_max_kw", "null", "plaza.charger_max_kw"),
            ("plaza.exemplar.demand_mean_kwh", "{}", "plaza.exemplar.demand_mean_kwh"),
            ("supply.dod", '"x"', "supply.dod"),
            ("architectures.0.eta_c", "[0.85]", "architectures[0].eta_c"),
            # A number is a JSON number: numeric text and booleans are refused.
            ("rated_power_kw", '"150"', "rated_power_kw"),
            ("r_grid", "[true]", "r_grid[0]"),
            ("plaza.rating_r", "true", "plaza.rating_r"),
            ("architectures.0.rating_r", '"0.2"', "architectures[0].rating_r"),
            ("grid_profile", '[["0", "1e3"]]', "grid_profile[0][0]"),
        ],
    )
    def test_wrongly_typed_value_exits_1_by_its_path(
        self, field, value, key_path, tmp_path, capsys
    ):
        path = write_doc_with(tmp_path / "typed.json", field, value)
        assert main(["validate", "--scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key_path} must be a number, got ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "field, literal, key",
        [
            ("seed", '20240915, "seed": 7', "seed"),
            ("plaza.rating_r", '0.2, "rating_r": 0.3', "rating_r"),
        ],
        ids=["top-level", "nested"],
    )
    def test_repeated_json_key_exits_1(self, field, literal, key, tmp_path, capsys):
        # json.loads keeps the last of a repeated key, so the closed schema
        # would never see the first: the run would silently use seed 7.
        path = write_doc_with(tmp_path / "twice.json", field, literal)
        assert main(["validate", "--scenario", str(path)]) == 1
        assert capsys.readouterr().err == f'error: scenario key "{key}" is repeated\n'

    @pytest.mark.parametrize(
        "row, count", [("6.0", 1), ("0.0,55.0,7", 3)], ids=["missing", "extra"]
    )
    def test_grid_csv_row_without_two_values_exits_1(
        self, row, count, tmp_path, capsys
    ):
        # A missing value must not crash the load, nor an extra one be dropped.
        grid = tmp_path / "grid.csv"
        grid.write_text(f"time_h,power_kw\n0.0,40.0\n\n{row}\n")
        path = write_doc_with(tmp_path / "grid.json", "grid_profile", '"grid.csv"')
        assert main(["validate", "--scenario", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot read grid profile {grid}: "
            f"line 4 holds {count} values, not 2\n"
        )

    @pytest.mark.parametrize("value", ["null", "5", '["small"]'])
    def test_name_that_is_not_a_string_exits_1(self, value, tmp_path, capsys):
        # A null name must not load, nor be recorded, as the label "None".
        path = write_doc_with(tmp_path / "named.json", "name", value)
        assert main(["validate", "--scenario", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: name must be a string")

    @pytest.mark.parametrize(
        "case",
        ["directory", "not utf-8", "architecture entry", "plaza block", "grid directory"],
    )
    def test_malformed_document_exits_1(self, case, tmp_path, capsys):
        # Each of these ended in a Python traceback, not a one-line error.
        path = tmp_path / "doc.json"
        if case == "directory":
            path.mkdir()
        elif case == "not utf-8":
            path.write_bytes(json.dumps(small_doc()).encode("utf-16"))
        elif case == "architecture entry":
            write_doc_with(path, "architectures", "[1, 2]")
        elif case == "plaza block":
            write_doc_with(path, "plaza", "[1, 2]")
        else:
            (tmp_path / "grid").mkdir()
            write_doc_with(path, "grid_profile", '"grid"')
        assert main(["validate", "--scenario", str(path)]) == 1
        out = tmp_path / "o"
        assert main(["design", "--scenario", str(path), "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("error: ") for line in err)

    @pytest.mark.parametrize(
        "args",
        [
            ["design", "--seed", "abc"],
            ["design", "--no-such-flag"],
            ["frobnicate"],
            [],
            ["ensemble", "--workers", "0"],
            ["ensemble", "--workers", "-2"],
        ],
        ids=["seed", "flag", "subcommand", "none", "workers-0", "workers-neg"],
    )
    def test_usage_errors_exit_1(self, args, small_scenario, tmp_path, capsys):
        path, _ = small_scenario
        out = tmp_path / "o"
        extra = ["--scenario", str(path), "--out", str(out)] if args else []
        assert main([*args, *extra]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
        assert "besspp" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "entry, field, value",
        [
            (1, "n_modules", 7),
            (0, "n_layer1", 2),
            (1, "lambda_h", 0.7),
            (2, "horizon_h", 2.0),
        ],
        ids=["n_modules", "n_layer1", "lambda_h", "horizon_h"],
    )
    def test_unread_or_mismatched_architecture_field_exits_1(
        self, entry, field, value, tmp_path, monkeypatch, capsys
    ):
        doc = small_doc()
        doc["architectures"][entry][field] = value
        path = tmp_path / "arch.json"
        path.write_text(json.dumps(doc))

        def no_study(*args, **kwargs):
            raise AssertionError("a study ran on a rejected scenario")

        for study in ("run_design", "run_tradeoff", "run_day", "run_ensemble"):
            monkeypatch.setattr(besspp.cli, study, no_study)
        kind = doc["architectures"][entry]["kind"]
        assert main(["validate", "--scenario", str(path)]) == 1
        problem = f"architectures[{entry}] ({kind}): {field}"
        assert problem in capsys.readouterr().err
        for study in ("design", "tradeoff", "day", "ensemble"):
            out = tmp_path / study
            assert main([study, "--scenario", str(path), "--out", str(out)]) == 1
            assert not out.exists()

    def test_missing_scenario_exits_1(self, tmp_path):
        assert main(["validate", "--scenario", str(tmp_path / "nope.json")]) == 1

    def test_negative_seed_override_exits_1(self, small_scenario, tmp_path, capsys):
        path, _ = small_scenario
        code = main(
            [
                "design",
                "--scenario",
                str(path),
                "--seed",
                "-3",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 1
        assert "seed must be a nonnegative integer" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_day_repeated_kind_listed_once(self, small_scenario, tmp_path, capsys):
        path, _ = small_scenario
        out = tmp_path / "d"
        args = ["day", "--scenario", str(path), "--kind", "cppp", "--kind", "cppp"]
        assert main([*args, "--out", str(out)]) == 0
        names = ("day_cppp.csv", "day_cppp.json", "manifest.json")
        assert capsys.readouterr().out.splitlines() == [str(out / n) for n in names]
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["outputs"]) == ["day_cppp.csv", "day_cppp.json"]

    def test_day_unknown_kind_exits_1(self, small_scenario, tmp_path):
        path, _ = small_scenario
        code = main(
            [
                "day",
                "--scenario",
                str(path),
                "--kind",
                "fpp",
                "--out",
                str(tmp_path / "d"),
            ]
        )
        assert code == 1
        assert not (tmp_path / "d").exists()

    def test_day_runtime_value_error_exits_2(
        self, small_scenario, tmp_path, monkeypatch
    ):
        def failing_day(*args, **kwargs):
            raise ValueError("replay failed")

        monkeypatch.setattr(besspp.cli, "run_day", failing_day)
        path, _ = small_scenario
        args = ["day", "--scenario", str(path), "--out", str(tmp_path / "d")]
        assert main(args) == 2

    def test_design_success_prints_paths(self, small_scenario, tmp_path, capsys):
        path, _ = small_scenario
        out = tmp_path / "design"
        assert main(["design", "--scenario", str(path), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "design.json" in printed
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_reproduce_equals_the_single_studies(
        self, small_scenario, tmp_path, capsys, workers
    ):
        path, _ = small_scenario
        flags = ["--scenario", str(path), "--workers", workers]
        out = tmp_path / "all"
        assert main(["reproduce", *flags, "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert sorted(printed) == sorted(
            str(p) for p in out.rglob("*") if p.is_file()
        )
        assert sorted(p.name for p in out.iterdir()) == sorted(besspp.cli.STUDIES)
        for study in besspp.cli.STUDIES:
            single = tmp_path / study
            assert main([study, *flags, "--out", str(single)]) == 0
            assert tree_digest(out / study) == tree_digest(single), study

    def test_exemplar_day_without_an_interval_exits_1_and_writes_nothing(
        self, tmp_path, capsys
    ):
        # The dispersion is read at the exemplar day's worst interval; a day
        # with none stops the ensemble before its directory exists.  (The
        # day study runs on this scenario: see the no-cycles case of
        # test_statistics_with_no_sample_are_null.)
        path = write_doc_with(
            tmp_path / "quiet.json", "plaza.exemplar.arrival_rate_per_h", "0.01"
        )
        out = tmp_path / "ensemble"
        assert main(["ensemble", "--scenario", str(path), "--out", str(out)]) == 1
        assert "plaza.exemplar" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_reproduce_prints_the_studies_it_finished(self, tmp_path, capsys):
        # The exemplar day with no interval stops the ensemble after the
        # other three studies have written their subtrees; each was printed
        # as it finished.
        path = write_doc_with(
            tmp_path / "quiet.json", "plaza.exemplar.arrival_rate_per_h", "0.01"
        )
        out = tmp_path / "all"
        assert main(["reproduce", "--scenario", str(path), "--out", str(out)]) == 1
        printed = capsys.readouterr().out.splitlines()
        assert sorted(p.name for p in out.iterdir()) == ["day", "design", "tradeoff"]
        assert sorted(printed) == sorted(
            str(p) for p in out.rglob("*") if p.is_file()
        )

    @pytest.mark.parametrize("study", ["design", "tradeoff", "day", "ensemble"])
    def test_failed_study_leaves_no_out(
        self, small_scenario, tmp_path, monkeypatch, study
    ):
        # Every study draws its packs before it writes; a failure there
        # leaves --out uncreated.
        def failing(*args, **kwargs):
            raise RuntimeError("draw failed")

        monkeypatch.setattr(besspp.studies, "derive_seeds", failing)
        path, _ = small_scenario
        out = tmp_path / "nested" / "out"
        assert main([study, "--scenario", str(path), "--out", str(out)]) == 2
        assert not (tmp_path / "nested").exists()

    def test_seed_override_changes_outputs(self, small_scenario, tmp_path):
        path, _ = small_scenario
        base = tmp_path / "s0"
        alt = tmp_path / "s1"
        assert main(["tradeoff", "--scenario", str(path), "--out", str(base)]) == 0
        assert (
            main(
                [
                    "tradeoff",
                    "--scenario",
                    str(path),
                    "--seed",
                    "1234",
                    "--out",
                    str(alt),
                ]
            )
            == 0
        )
        a = read_bytes(base / "tradeoff.csv")
        b = read_bytes(alt / "tradeoff.csv")
        assert a != b

    @pytest.mark.parametrize(
        "study, stages",
        [
            ("design", ("search", "sweep", "writes")),
            ("tradeoff", ("search", "sweep", "writes")),
            ("day", ("plaza setup", "days", "writes")),
            ("ensemble", ("plaza setup", "dispersion", "cells", "writes")),
            ("reproduce", ("design", "tradeoff", "day", "ensemble")),
        ],
    )
    def test_timings_reach_stderr_not_out(
        self, small_scenario, tmp_path, capsys, study, stages
    ):
        path, _ = small_scenario
        plain, timed = tmp_path / "plain", tmp_path / "timed"
        assert main([study, "--scenario", str(path), "--out", str(plain)]) == 0
        assert "timing" not in capsys.readouterr().err
        args = [study, "--scenario", str(path), "--out", str(timed), "--timings"]
        hooks = list(gc.callbacks)
        assert main(args) == 0
        assert gc.callbacks == hooks
        err = capsys.readouterr().err
        assert tree_digest(timed) == tree_digest(plain)
        for stage in ("startup", *stages):
            assert f"timing {study} {stage}: wall " in err
        line = (
            rf"^timing {study} gc: collections \d+/\d+/\d+, "
            r"wall \d+\.\d{3} s, frozen [1-9]\d* objects$"
        )
        assert re.search(line, err, re.MULTILINE)

    def test_plain_run_installs_no_collector_hook(
        self, small_scenario, tmp_path, monkeypatch
    ):
        path, _ = small_scenario
        hooks, seen = list(gc.callbacks), []

        def record_hooks(*args, **kwargs):
            seen.append(list(gc.callbacks))
            return []

        monkeypatch.setattr(besspp.cli, "run_design", record_hooks)
        assert main(["design", "--scenario", str(path), "--out", str(tmp_path)]) == 0
        assert seen == [hooks]

    def test_unreadable_output_dir_exits_2(self, small_scenario, tmp_path):
        path, _ = small_scenario
        blocker = tmp_path / "file"
        blocker.write_text("occupied")
        code = main(
            [
                "design",
                "--scenario",
                str(path),
                "--out",
                str(blocker / "nested"),
            ]
        )
        assert code == 2


class TestParallelMap:
    @pytest.mark.parametrize("workers, expected", [(2, 2), (3, 3), (8, 3)])
    def test_pool_is_no_larger_than_its_tasks(self, monkeypatch, workers, expected):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        assert list(_parallel_map(abs, [-1, 2, -3], workers)) == [1, 2, 3]
        assert sizes == [expected]


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str, *args: str, env: dict | None = None) -> str:
    """Run ``code`` in a fresh interpreter with this checkout's ``src``.

    ``env`` overrides the inherited environment; a ``None`` value unsets.
    """
    env = {**os.environ, **(env or {}), "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={k: v for k, v in env.items() if v is not None},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return done.stdout.strip()


class TestStartup:
    def test_package_import_loads_no_numpy(self):
        code = "import besspp, sys; print('numpy' in sys.modules)"
        assert run_python(code) == "False"

    # The CLI freezes what is alive once its imports finish; the library
    # modules leave the collector alone.  Criterion 9 runs ``tradeoff`` and
    # ``reproduce`` (so ``ensemble``) at --workers 1 and 2 from a test
    # process that imported besspp.cli, so it checks the bytes that pool
    # workers forked from a frozen heap write.
    def test_cli_import_freezes_and_reenables_the_collector(self):
        code = "import gc, besspp.cli; print(gc.isenabled(), gc.get_freeze_count() > 0)"
        assert run_python(code) == "True True"

    def test_cli_import_leaves_a_disabled_collector_off(self):
        code = (
            "import gc; gc.disable()\n"
            "import besspp.cli\n"
            "print(gc.isenabled(), gc.get_freeze_count() > 0)"
        )
        assert run_python(code) == "False True"

    def test_library_import_freezes_nothing(self):
        code = (
            "import gc, sys, besspp.studies\n"
            "print(gc.isenabled(), gc.get_freeze_count(), 'besspp.cli' in sys.modules)"
        )
        assert run_python(code) == "True 0 False"

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
    def test_cli_sets_single_blas_thread_unless_preset(self, preset, expected):
        code = "import os, besspp.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert run_python(code, env={"OPENBLAS_NUM_THREADS": preset}) == expected

    def test_start_up_loads_no_numpy_random(self):
        # The Philox generators are made on first draw: numpy.random costs
        # about 15-25 ms and 6 MB that start-up should not pay.
        code = (
            "import sys, besspp.cli\n"
            "from besspp.scenario import load_scenario\n"
            "load_scenario(sys.argv[1])\n"
            "print('numpy.random' in sys.modules)"
        )
        assert run_python(code, str(DEFAULT_SCENARIO)) == "False"

    def test_one_worker_study_never_imports_the_pool(self, small_scenario, tmp_path):
        path, _ = small_scenario
        code = (
            "import sys\n"
            "from besspp.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print('concurrent.futures.process' in sys.modules)"
        )
        args = ["design", "--scenario", str(path), "--out", str(tmp_path / "d")]
        assert run_python(code, *args).splitlines()[-1] == "False"

    def test_design_never_imports_numpy_ma(self, small_scenario, tmp_path):
        # np.quantile would import numpy.ma (about 17 ms and 1.2 MB) through
        # np.unique; the deciles of every sweep point avoid it.  Nor does the
        # design study, which draws no arrivals, load the array extension
        # that the arrival draw writes into, or the besspp.simplex placeholder,
        # which only perfbench's trace imports.
        path, _ = small_scenario
        code = (
            "import sys\n"
            "from besspp.scenario import load_scenario\n"
            "from besspp.studies import run_design\n"
            "run_design(load_scenario(sys.argv[1]), sys.argv[2])\n"
            "print('numpy.ma' in sys.modules, 'array' in sys.modules,"
            " 'besspp.simplex' in sys.modules)"
        )
        assert run_python(code, str(path), str(tmp_path / "d")) == "False False False"

    def test_tradeoff_runs_in_one_process(self, small_scenario, tmp_path):
        # Every kind sweeps the common packs in the study process, so
        # --workers starts no pool for tradeoff.
        path, _ = small_scenario
        code = (
            "import sys\n"
            "from besspp.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print('concurrent.futures.process' in sys.modules)"
        )
        args = [
            "tradeoff", "--scenario", str(path), "--workers", "2",
            "--out", str(tmp_path / "t"),
        ]
        assert run_python(code, *args).splitlines()[-1] == "False"

    def test_blas_thread_count_leaves_bytes_alone(self, small_scenario, tmp_path):
        path, _ = small_scenario
        code = "import sys; from besspp.cli import main; sys.exit(main(sys.argv[1:]))"
        manifests = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}"
            args = ["design", "--scenario", str(path), "--out", str(out)]
            run_python(code, *args, env={"OPENBLAS_NUM_THREADS": threads})
            manifests.append((out / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]


@pytest.mark.parametrize("study", ["design", "tradeoff", "ensemble"])
def test_traced_study_searches_layer1_once(small_scenario, tmp_path, study):
    # The benchmark's traced run wraps functions at their import sites and
    # refuses a run whose study did not run its own layer-1 search.
    path, _ = small_scenario
    report = tmp_path / "report.json"
    done = subprocess.run(
        [
            sys.executable, "perfbench/child.py", str(report), "--trace", "--",
            study, "--scenario", str(path), "--seed", "7",
            "--out", str(tmp_path / "out"),
        ],
        cwd=SRC.parent,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    trace = json.loads(report.read_text())["trace"]
    assert trace["designer.layer1.searches"] == 1
