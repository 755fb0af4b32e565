"""Tests of the benchmark itself, on a scenario small enough to run in seconds.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import run  # noqa: E402
from layertrace import LAYER_METRICS  # noqa: E402

STUDIES = ("design", "tradeoff", "ensemble")
# Work counts, which must repeat exactly for a given scenario and seed.
COUNT_METRICS = [name for name, unit in LAYER_METRICS.items() if unit == "count"]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


@pytest.fixture(scope="module")
def tiny_scenario(tmp_path_factory) -> Path:
    data = json.loads(run.DEFAULT_SCENARIO.read_text())
    data["supply"]["n_modules"] = 5
    data["n_layer1"] = 2
    for arch in data["architectures"]:
        arch["n_modules"] = 5
        if arch["kind"] == "lshippp":
            arch["n_layer1"] = 2
    data.update(
        grid_profile=[[0.0, 55.0], [12.0, 40.0]],
        r_grid=[0.1, 0.5],
        lambda_grid=[0.0, 1.0],
        n_packs=3,
        n_trajectories=30,
    )
    path = tmp_path_factory.mktemp("scenario") / "tiny.json"
    path.write_text(json.dumps(data))
    return path


def _study(study: str, scenario: Path, out: Path, traced: bool) -> dict | None:
    args = [study, "--scenario", str(scenario), "--seed", "7", "--out", str(out)]
    if traced:
        report = out.with_suffix(".report.json")
        cmd = [sys.executable, str(run.CHILD), str(report), "--trace", "--", *args]
    else:
        cmd = [sys.executable, "-m", "besspp.cli", *args]
    subprocess.run(cmd, cwd=ROOT, env=ENV, check=True, timeout=120,
                   stdout=subprocess.DEVNULL)
    return json.loads(report.read_text())["trace"] if traced else None


@pytest.mark.parametrize("study", STUDIES)
def test_traced_counts_repeat_and_bytes_match_unwrapped(study, tiny_scenario, tmp_path):
    first = _study(study, tiny_scenario, tmp_path / "a", traced=True)
    second = _study(study, tiny_scenario, tmp_path / "b", traced=True)
    _study(study, tiny_scenario, tmp_path / "plain", traced=False)

    assert {k: first[k] for k in COUNT_METRICS} == {k: second[k] for k in COUNT_METRICS}
    assert first["designer.layer1.searches"] == 1
    assert first["designer.layer1.placements"] == 45  # C(10, 2) pairs of 5
    assert first["simplex.solves"] > 0
    # Every metric but those the parent fills in comes from the trace.
    parent_filled = {
        "plaza.series_use_ratio", "studies.artifact_bytes",
        "studies.digest_identical", "trace.overhead_s",
    }
    assert set(first) == set(LAYER_METRICS) - parent_filled

    plain = tmp_path / "plain"
    names = sorted(p.name for p in plain.iterdir())
    assert names == sorted(p.name for p in (tmp_path / "a").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (plain / name).read_bytes()


def test_ensemble_trace_sees_the_plaza(tiny_scenario, tmp_path):
    layers = _study("ensemble", tiny_scenario, tmp_path / "e", traced=True)
    # 30 cells x 1 trajectory x 2 kinds, plus the exemplar reference day.
    assert layers["plaza.simulate_day.calls"] == 61
    assert layers["plaza.series_points_built"] == 61 * 1441
    assert layers["plaza.effective_capacity.calls"] == 2 * 3


def _copy_study(tmp_path: Path) -> Path:
    out = tmp_path / "out"
    out.mkdir()
    (out / "t.csv").write_text("kind,x\nfpp,0.1\nfpp,0.2\n")
    (out / "r.json").write_text(json.dumps({"name": "a", "v": [1.5, 2]}))
    manifest = {
        "study": "t",
        "outputs": {n: check.sha256(out / n) for n in ("r.json", "t.csv")},
    }
    (out / "manifest.json").write_text(json.dumps(manifest))
    return out


def test_check_accepts_identical_and_tiny_float_drift(tmp_path):
    ref = _copy_study(tmp_path)
    assert check.check_outputs(ref, ref).digest_identical

    drift = tmp_path / "drift"
    drift.mkdir()
    (drift / "t.csv").write_text(f"kind,x\nfpp,{0.1 * (1 + 1e-13)!r}\nfpp,0.2\n")
    (drift / "r.json").write_text((ref / "r.json").read_text())
    manifest = json.loads((ref / "manifest.json").read_text())
    manifest["outputs"]["t.csv"] = check.sha256(drift / "t.csv")
    (drift / "manifest.json").write_text(json.dumps(manifest))

    result = check.check_outputs(drift, ref)
    assert result.ok, result.problems
    assert not result.digest_identical


@pytest.mark.parametrize(
    "name, text",
    [
        ("t.csv", "kind,x\nfpp,0.1000001\nfpp,0.2\n"),  # numeric drift 1e-6
        ("t.csv", "kind,x\ncppp,0.1\nfpp,0.2\n"),  # text field
        ("t.csv", "kind,x\nfpp,0.1\n"),  # missing row
        ("r.json", json.dumps({"name": "a", "v": [1.5, 2, 3]})),
    ],
)
def test_check_rejects_changed_outputs(tmp_path, name, text):
    ref = _copy_study(tmp_path)
    bad = tmp_path / "bad"
    bad.mkdir()
    for f in ("t.csv", "r.json"):
        (bad / f).write_text((ref / f).read_text())
    (bad / name).write_text(text)
    manifest = json.loads((ref / "manifest.json").read_text())
    manifest["outputs"][name] = check.sha256(bad / name)
    (bad / "manifest.json").write_text(json.dumps(manifest))
    assert not check.check_outputs(bad, ref).ok


def test_check_rejects_stale_manifest_digest(tmp_path):
    ref = _copy_study(tmp_path)
    out = tmp_path / "copy"
    out.mkdir()
    for f in ("manifest.json", "r.json"):
        (out / f).write_text((ref / f).read_text())
    (out / "t.csv").write_text("kind,x\nfpp,0.1\nfpp,0.2\n\n")
    assert not check.check_outputs(out, ref).ok


def test_ensemble_scenario_loads_with_whole_cells():
    from besspp.scenario import load_scenario

    path = run.ensemble_scenario()
    generated = load_scenario(path)
    default = load_scenario(run.DEFAULT_SCENARIO)
    n_cells = (
        len(generated.demand_means_kwh)
        * len(generated.demand_stds_kwh)
        * len(generated.arrival_rates_per_h)
    )
    assert generated.n_trajectories == run.ENSEMBLE_TRAJECTORIES
    assert generated.n_trajectories % n_cells == 0
    assert generated.grid_profile == default.grid_profile
    assert generated.n_packs == default.n_packs


def test_run_study_fails_on_changed_reference(tiny_scenario, tmp_path, monkeypatch):
    runner = run.Runner(time.monotonic() + 300, tmp_path / "work")
    refs = tmp_path / "refs"
    monkeypatch.setattr(run, "REFS", refs)

    missing = run.run_study(runner, "design", tiny_scenario, 7, 1)
    assert missing.exit_code == 0 and not missing.ok

    ref = refs / "design" / "7"
    shutil.copytree(runner.work / "out" / "design", ref)
    sample = run.run_study(runner, "design", tiny_scenario, 7, 1)
    assert sample.ok and sample.check.digest_identical
    assert sample.wall_s > 0 and sample.cpu_s > 0 and sample.max_rss_mb > 0
    assert 0 < sample.setup_s < sample.wall_s

    design = json.loads((ref / "design.json").read_text())
    design["rating_kw"] *= 1 + 1e-6
    (ref / "design.json").write_text(json.dumps(design))
    assert not run.run_study(runner, "design", tiny_scenario, 7, 1).ok
