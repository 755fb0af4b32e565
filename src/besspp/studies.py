"""Study drivers behind the CLI: design, tradeoff, day, ensemble.

Every study takes a :class:`~besspp.scenario.Scenario` and an output
directory, writes its artifacts (CSV tables, JSON reports) plus a
``manifest.json`` that fingerprints the scenario and hashes the outputs,
and returns the paths of the files it wrote: the artifacts sorted by name,
then the manifest.  A study creates its output directory only as its
writes begin, so one that fails before then leaves no directory behind.
A statistic with no sample (a mean over no completed cycle, a derating of
a zero output) is ``null`` in JSON and an empty CSV field; no artifact
holds a NaN.

Determinism contract: all randomness flows from the scenario seed through
``derive_seed`` labels, work is split into tasks whose results do not
depend on scheduling, and floats are serialized with ``repr``.  Running a
study twice with the same scenario, or with different worker counts,
produces byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import besspp
from besspp.architectures import split_budget, split_lambda
from besspp.designer import (
    TRADEOFF_HEADER,
    derive_seed,
    derive_seeds,
    design_layer1,
    sweep_energy,
    sweep_rows,
)
from besspp.flows import _module_totals
from besspp.metrics import (
    captured_value,
    derating_factor,
    grid_ev_energy_gap,
    system_efficiency,
    utilization_stats,
)
from besspp.plaza import (
    Arrivals,
    DemandModel,
    GridProfile,
    _CYCLE_FIELDS,
    cycle_phases,
    draw_arrivals,
    replay_lanes,
)
from besspp.scenario import (
    DAY_HORIZON_H,
    Scenario,
    ScenarioError,
    scenario_to_dict,
)
from besspp.supply import flatten_distribution, sample_packs

__all__ = [
    "StageTimer",
    "scenario_fingerprint",
    "run_design",
    "run_tradeoff",
    "run_day",
    "run_ensemble",
]

TRAJECTORY_HEADER = ("t", "p_grid", "p_bess", "e_bess", "p_ev")
MINUTES_PER_HOUR = 60


class StageTimer:
    """Wall and CPU seconds per named stage of one study run.

    CPU time covers this process and the pool workers it has reaped.  The
    timings never reach the artifacts, which must stay byte-deterministic.
    """

    def __init__(self) -> None:
        self.stages: list[tuple[str, float, float]] = []

    @contextmanager
    def stage(self, name: str):
        wall0, cpu0 = time.perf_counter(), _cpu_s()
        try:
            yield
        finally:
            self.stages.append(
                (name, time.perf_counter() - wall0, _cpu_s() - cpu0)
            )


def _cpu_s() -> float:
    children = os.times()
    return time.process_time() + children.children_user + children.children_system


# ---------------------------------------------------------------------------
# serialization helpers


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return repr(value)
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    import csv

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


def _write_json(path: Path, payload) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    )


def scenario_fingerprint(scenario: Scenario) -> str:
    canonical = json.dumps(
        scenario_to_dict(scenario), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _write_study(
    study: str, scenario: Scenario, out_dir, artifacts: dict, timer: StageTimer
) -> list[Path]:
    """Write ``artifacts`` and their manifest into ``out_dir``, as stage ``writes``.

    ``artifacts`` maps each file name to its content: ``(header, rows)`` for
    a ``.csv`` name, a JSON document for any other.  ``out_dir`` is made only
    here, as the writes begin.  Returns the artifact paths in name order,
    then the manifest's.
    """
    with timer.stage("writes"):
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, content in artifacts.items():
            if name.endswith(".csv"):
                _write_csv(out_dir / name, *content)
            else:
                _write_json(out_dir / name, content)
        names = sorted(artifacts)
        manifest = {
            "study": study,
            "tool_version": besspp.__version__,
            "seed": scenario.seed,
            "scenario_sha256": scenario_fingerprint(scenario),
            "scenario": scenario_to_dict(scenario),
            "outputs": {
                name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                for name in names
            },
        }
        _write_json(out_dir / "manifest.json", manifest)
        return [out_dir / name for name in [*names, "manifest.json"]]


def _parallel_map(fn, items, workers: int) -> list:
    """``fn`` of every item, in order."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # Imported here because it loads multiprocessing, which one worker never
    # uses.  Under fork the executor starts all max_workers processes at once,
    # so it gets no more than there are items.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# design study


def _layer1(scenario: Scenario, supply, power_kw: float):
    """``supply``'s expected set, its total, and its layer-1 design.

    The design's horizon is the expected total over ``power_kw``.
    """
    expected = flatten_distribution(supply, scenario.n_modules)
    total = _module_totals(expected).item()
    layer1 = design_layer1(
        expected, supply.voltage_v, scenario.n_layer1, total / power_kw
    )
    return expected, total, layer1


def run_design(
    scenario: Scenario, out_dir, timer: StageTimer | None = None
) -> list[Path]:
    """Design the sparse layer, then sweep the adjacent-ladder ratio."""
    timer = timer or StageTimer()
    supply = scenario.supply
    with timer.stage("search"):
        expected, expected_total, layer1 = _layer1(
            scenario, supply, scenario.rated_power_kw
        )

    design_doc = {
        "n_modules": layer1.n_batteries,
        "n_layer1": len(layer1.edges),
        "edges": [list(e) for e in layer1.edges],
        "optimal_flows_kwh": list(layer1.optimal_flows_kwh),
        "rating_kw": layer1.rating_kw,
        "horizon_h": layer1.horizon_h,
        "expected_output_kwh": layer1.expected_output_kwh,
        "expected_utilization": layer1.expected_output_kwh / expected_total,
        "expected_module_kwh": expected.tolist(),
    }

    with timer.stage("sweep"):
        packs = _sweep_packs(scenario, "design-packs")
        splits = [
            split_lambda(layer1, lam, expected_total) for lam in scenario.lambda_grid
        ]
        rows = sweep_rows(packs, supply.voltage_v, splits)

    artifacts = {
        "design.json": design_doc,
        "lambda_sweep.csv": (TRADEOFF_HEADER, rows),
    }
    return _write_study("design", scenario, out_dir, artifacts, timer)


def _sweep_packs(scenario: Scenario, label: str) -> np.ndarray:
    """The ``n_packs`` packs of one sweep, as a (packs x modules) matrix.

    Pack ``i`` is keyed by ``derive_seed(derive_seed(seed, label), "pack", i)``.
    """
    seed = derive_seed(scenario.seed, label)
    keys = derive_seeds(seed, "pack", indices=range(scenario.n_packs))
    return sample_packs(scenario.supply, scenario.n_modules, keys)


# ---------------------------------------------------------------------------
# tradeoff study


def run_tradeoff(
    scenario: Scenario, out_dir, timer: StageTimer | None = None
) -> list[Path]:
    """Utilization-versus-rating curves for every architecture family.

    The packs are sampled once and every kind's R grid is one sweep over
    them, in this process: the whole study is a few array passes.
    """
    timer = timer or StageTimer()
    supply = scenario.supply
    with timer.stage("search"):
        _, expected_total, layer1 = _layer1(scenario, supply, scenario.rated_power_kw)

    n = scenario.n_modules
    rows: list[tuple] = []
    with timer.stage("sweep"):
        packs = _sweep_packs(scenario, "tradeoff-packs")
        for config in scenario.architectures:
            splits = [
                split_budget(config.kind, n, r, expected_total, layer1)
                for r in scenario.r_grid
            ]
            rows.extend(sweep_rows(packs, supply.voltage_v, splits))
    artifacts = {"tradeoff.csv": (TRADEOFF_HEADER, rows)}
    return _write_study("tradeoff", scenario, out_dir, artifacts, timer)


# ---------------------------------------------------------------------------
# plaza studies (day, ensemble)


def _plaza_setup(scenario: Scenario, n_packs: int | None = None) -> tuple:
    """``(expected_total_kwh, pack_totals, capacities)`` of the plaza packs.

    ``pack_totals`` and each kind's entry of ``capacities`` are arrays over
    the first ``n_packs`` packs (all by default).  Pack ``i`` is seeded by
    its index alone, so a shorter prefix leaves every pack and capacity it
    keeps unchanged.
    """
    plaza = scenario.plaza
    supply, n = plaza.supply, scenario.n_modules
    _, expected_total, layer1 = _layer1(scenario, supply, plaza.bess_power_kw)
    count = scenario.n_packs if n_packs is None else n_packs
    keys = derive_seeds(scenario.seed, "plaza-pack", indices=range(count))
    packs = sample_packs(supply, n, keys)
    capacities: dict[str, np.ndarray] = {}
    for kind in plaza.kinds:
        split = split_budget(kind, n, plaza.rating_r, expected_total, layer1)
        (capacities[kind.value],) = sweep_energy(packs, supply.voltage_v, [split])
    return expected_total, _module_totals(packs), capacities


def _exemplar_day(scenario: Scenario, label: str) -> Arrivals:
    """One day of the exemplar cell's arrivals, keyed ``(seed, label)``."""
    plaza = scenario.plaza
    key = derive_seed(scenario.seed, label)
    groups = [(plaza.exemplar_rate_per_h, plaza.exemplar_demand, [key])]
    return draw_arrivals(groups, DAY_HORIZON_H)


def run_day(
    scenario: Scenario,
    out_dir,
    kinds=None,
    timer: StageTimer | None = None,
) -> list[Path]:
    """One exemplar day per architecture kind, on a common sampled pack.

    The day's arrival and demand stream is drawn once and every kind
    replays it as one lane of a single :func:`replay_lanes` call, against
    pack 0, the only one sampled; only the effective monolith capacity
    differs.  A kind named twice is simulated once; a kind outside the
    plaza roster raises :class:`ScenarioError` before anything is written.
    """
    plaza = scenario.plaza
    if kinds is None:
        kinds = [k.value for k in plaza.kinds]
    else:
        kinds = list(dict.fromkeys(kinds))
        known = {k.value for k in plaza.kinds}
        unknown = [k for k in kinds if k not in known]
        if unknown:
            raise ScenarioError(
                f"kinds {unknown} are not part of the scenario plaza roster"
            )
    timer = timer or StageTimer()
    with timer.stage("plaza setup"):
        _, pack_totals, kind_caps = _plaza_setup(scenario, n_packs=1)

    with timer.stage("days"):
        arrivals = _exemplar_day(scenario, "day")
        capacities = [float(kind_caps[kind][0]) for kind in kinds]
        replay = replay_lanes(
            arrivals,
            [0] * len(kinds),
            capacities,
            plaza.bess_power_kw,
            scenario.grid_profile,
            plaza.charger_max_kw,
        )
        artifacts = {}
        for i, kind in enumerate(kinds):
            lane = replay.cycles(i, i + 1)
            columns = [getattr(lane, name).tolist() for name in _CYCLE_FIELDS]
            cycles = [
                {"index": index, **dict(zip(_CYCLE_FIELDS, values))}
                for index, values in enumerate(zip(*columns))
            ]
            mean_min, max_min, _ = _curtailed_minutes(
                lane.curtailed_h, lane.truncated
            )
            report = {
                "kind": kind,
                "effective_capacity_kwh": capacities[i],
                "pack_total_kwh": float(pack_totals[0]),
                "horizon_h": DAY_HORIZON_H,
                "dropped_arrivals": int(lane.dropped[0]),
                "n_cycles": len(cycles),
                "curtailed_mean_min": mean_min,
                "curtailed_max_min": max_min,
                "cycles": cycles,
            }
            series = _minute_series(cycles, capacities[i], scenario.grid_profile)
            rows = zip(*(column.tolist() for column in series))
            artifacts[f"day_{kind}.csv"] = (TRAJECTORY_HEADER, rows)
            artifacts[f"day_{kind}.json"] = report
    return _write_study("day", scenario, out_dir, artifacts, timer)


def _minute_series(
    cycles: list[dict], capacity_kwh: float, grid: GridProfile
) -> tuple[np.ndarray, ...]:
    """Time, grid power, storage power, stored energy and EV power per minute.

    Over the exemplar day, for ``cycles`` served from a unit of
    ``capacity_kwh`` that starts the day full.
    """
    n = int(round(DAY_HORIZON_H * MINUTES_PER_HOUR)) + 1
    time_h = np.arange(n) / MINUTES_PER_HOUR
    grid_kw = grid.powers_at(time_h)
    bess_kw = np.zeros(n)
    ev_kw = np.zeros(n)
    bess_kwh = np.full(n, capacity_kwh)

    for cycle in cycles:
        t0 = cycle["start_h"]
        t1 = t0 + cycle["full_h"]
        t2 = t1 + cycle["curtailed_h"]
        t3 = t2 + cycle["recharge_h"]
        delivered = cycle["bess_delivered_kwh"]
        p_bess = delivered / cycle["full_h"] if cycle["full_h"] > 0 else 0.0
        recharge_kw = cycle["grid_kw"] if delivered > 0 else 0.0
        in_full = (time_h >= t0) & (time_h < t1)
        in_curt = (time_h >= t1) & (time_h < t2)
        in_rech = (time_h >= t2) & (time_h < t3)
        after = time_h >= t3
        ev_kw[in_full] = cycle["full_power_kw"]
        ev_kw[in_curt] = cycle["grid_kw"]
        bess_kw[in_full] = p_bess
        bess_kw[in_rech] = -recharge_kw
        bess_kwh[in_full] = capacity_kwh - p_bess * (time_h[in_full] - t0)
        bess_kwh[in_curt] = capacity_kwh - delivered
        bess_kwh[in_rech] = (
            capacity_kwh - delivered + recharge_kw * (time_h[in_rech] - t2)
        )
        end_kwh = capacity_kwh - delivered + recharge_kw * cycle["recharge_h"]
        bess_kwh[after] = min(capacity_kwh, end_kwh)
    np.clip(bess_kwh, 0.0, capacity_kwh, out=bess_kwh)
    return time_h, grid_kw, bess_kw, bess_kwh, ev_kw


def _curtailed_minutes(
    curtailed_h: np.ndarray, truncated: np.ndarray
) -> tuple[float | None, float | None, int]:
    """Mean and worst pedestal minutes over the cycles the horizon left whole.

    Also returns the number of those cycles; with none, both statistics
    are None.
    """
    minutes = curtailed_h[~truncated] * MINUTES_PER_HOUR
    if not minutes.size:
        return None, None, 0
    return float(np.mean(minutes)), float(np.max(minutes)), int(minutes.size)


DISPERSION_HEADER = (
    "kind",
    "interval",
    "start_h",
    "demand_kwh",
    "grid_kw",
    "gap_kwh",
    "util_mean",
    "util_std",
    "util_idr",
    "util_p10",
    "util_p90",
    "derating",
)

CELLS_HEADER = (
    "kind",
    "demand_mean_kwh",
    "demand_std_kwh",
    "arrival_rate_per_h",
    "n_trajectories",
    "n_cycles",
    "util_mean",
    "curtailed_mean_min",
    "curtailed_max_min",
    "unmet_mean_kwh",
    "dropped_mean",
    "served_mean",
)


def _reference_schedule(scenario: Scenario) -> tuple[np.ndarray, ...]:
    """Exemplar charging intervals from an unconstrained reference day.

    Simulated with an effectively unlimited storage unit so the schedule
    depends only on the scenario (grid, arrivals, demands), never on the
    architecture under test.  Returns the ``start_h``, ``grid_kw`` and
    ``demand_kwh`` arrays of the completed cycles that demand energy.
    """
    plaza = scenario.plaza
    lanes = replay_lanes(
        _exemplar_day(scenario, "exemplar-day"),
        [0],
        [math.inf],
        plaza.bess_power_kw,
        scenario.grid_profile,
        plaza.charger_max_kw,
    ).cycles()
    kept = ~lanes.truncated & (lanes.demand_kwh > 0)
    return lanes.start_h[kept], lanes.grid_kw[kept], lanes.demand_kwh[kept]


def _dispersion_rows(
    scenario: Scenario, expected_total_kwh: float, pack_totals, capacities
) -> tuple[list[tuple], dict[str, dict]]:
    """``dispersion.csv`` rows and each kind's ``metrics_<kind>.json`` document.

    Each kind's cycles, every reference interval on every pack, are one
    broadcast :func:`cycle_phases` call; its ``metrics_<kind>.json`` reads
    the row of the interval with the worst grid-EV energy gap.
    """
    plaza = scenario.plaza
    eta_c = {config.kind.value: config.eta_c for config in scenario.architectures}
    start_h, grid_kw, demand = _reference_schedule(scenario)
    if not start_h.size:
        raise ScenarioError(
            "plaza.exemplar: the exemplar day completes no charging interval "
            "to read the dispersion at"
        )
    gaps = grid_ev_energy_gap(demand, grid_kw, demand / plaza.charger_max_kw)
    worst = int(np.argmax(gaps))
    # The leading columns of each kind's rows, interval by interval.
    intervals = list(
        zip(range(gaps.size), *(a.tolist() for a in (start_h, demand, grid_kw, gaps)))
    )

    units = {
        "derating_factor": "fraction",
        "utilization_at_worst_gap": "fraction",
        "utilization_idr_at_worst_gap": "fraction",
        "worst_gap_kwh": "kWh",
        "worst_interval_start_h": "h",
        "captured_value_kwh": "kWh",
        "captured_fraction": "fraction",
        "system_efficiency": "fraction",
    }
    rows: list[tuple] = []
    reports: dict[str, dict] = {}
    for kind in (k.value for k in plaza.kinds):
        caps = capacities[kind]
        _, _, _, _, delivered, _, _ = cycle_phases(
            caps, grid_kw[:, None], demand[:, None], plaza.charger_max_kw,
            plaza.bess_power_kw,
        )
        utils = delivered / pack_totals
        stats = [utilization_stats(u) for u in utils]
        ratings = [
            derating_factor(u) if s[0] > 0 else None for u, s in zip(utils, stats)
        ]
        rows += [(kind, *i, *s, r) for i, s, r in zip(intervals, stats, ratings)]
        mean, _, idr, _, _ = stats[worst]
        d_f = ratings[worst]
        if d_f is None:
            captured = fraction = None
        else:
            captured = captured_value(d_f, min(mean, 1.0), expected_total_kwh)
            fraction = d_f * mean
        values = {
            "derating_factor": d_f,
            "utilization_at_worst_gap": mean,
            "utilization_idr_at_worst_gap": idr,
            "worst_gap_kwh": gaps[worst],
            "worst_interval_start_h": start_h[worst],
            "captured_value_kwh": captured,
            "captured_fraction": fraction,
            "system_efficiency": system_efficiency(eta_c[kind], plaza.rating_r),
            "n_intervals": gaps.size,
            "n_packs": len(caps),
        }
        reports[kind] = {
            "study": f"ensemble-dispersion-{kind}",
            "metrics": {
                name: {
                    "value": None if value is None else float(value),
                    "unit": units.get(name, ""),
                }
                for name, value in values.items()
            },
        }
    return rows, reports


# Expected arrivals (rate x day x trajectories) per ensemble replay batch.
# A batch closes once it reaches this, and a cell is never split, so the
# working set follows a batch's largest cell.
_BATCH_ARRIVALS = 1 << 14


def _cell_batches(rates: list[float], per_cell: int) -> list[list[int]]:
    """Consecutive cell indices, cut into batches of whole cells.

    A batch closes once the expected arrivals of its cells (rate x day x
    ``per_cell`` each) reach :data:`_BATCH_ARRIVALS`.
    """
    batches: list[list[int]] = []
    batch: list[int] = []
    load = 0.0
    for cell, rate in enumerate(rates):
        batch.append(cell)
        load += rate * DAY_HORIZON_H * per_cell
        if load >= _BATCH_ARRIVALS:
            batches.append(batch)
            batch, load = [], 0.0
    if batch:
        batches.append(batch)
    return batches


def _batch_task(args) -> list[tuple]:
    """The ``cells.csv`` rows of a batch of demand cells, cell by cell.

    Trajectory ``t`` of the cell with demand mean ``mean``, spread ``std``
    and arrival rate ``rate`` is keyed ``(seed, "traj", mean, std, rate, t)``
    and runs on pack ``t % n_packs``.  One :func:`draw_arrivals` call draws
    every trajectory of the batch, cell by cell, into one arrivals table,
    and every trajectory x kind of the batch is one lane of a single
    :func:`replay_lanes` call over that table.  A cell's statistics
    are taken over all of its cycles at once; its rows follow the kinds.
    """
    cells, per_cell, seed, kind_caps, pack_totals, grid, charger_kw, bess_kw = args
    pack = np.arange(per_cell) % len(pack_totals)
    totals = pack_totals[pack]
    arrivals = draw_arrivals(
        [
            (
                rate,
                DemandModel(mean_kwh=mean, std_kwh=std),
                derive_seeds(seed, "traj", mean, std, rate, indices=range(per_cell)),
            )
            for mean, std, rate in cells
        ],
        DAY_HORIZON_H,
    )
    # Lanes run cell by cell, kind by kind, trajectory by trajectory.
    trajectories = np.arange(len(cells) * per_cell).reshape(len(cells), 1, per_cell)
    replay = replay_lanes(
        arrivals,
        np.repeat(trajectories, len(kind_caps), axis=1).ravel(),
        np.tile(
            np.concatenate([caps[pack] for _, caps in kind_caps]),
            len(cells),
        ),
        bess_kw,
        grid,
        charger_kw,
    )
    rows = []
    lane = 0
    for cell in cells:
        for kind, _ in kind_caps:
            cycles = replay.cycles(lane, lane + per_cell)
            lane += per_cell
            utils = cycles.bess_delivered_kwh / np.repeat(totals, cycles.counts)
            utils = utils[~cycles.truncated]
            mean_min, max_min, n_done = _curtailed_minutes(
                cycles.curtailed_h, cycles.truncated
            )
            rows.append(
                (
                    kind,
                    *cell,
                    per_cell,
                    n_done,
                    float(np.mean(utils)) if utils.size else None,
                    mean_min,
                    max_min,
                    float(cycles.unmet_total_kwh.mean()),
                    float(cycles.dropped.mean()),
                    float(cycles.counts.mean()),
                )
            )
    return rows


def run_ensemble(
    scenario: Scenario, out_dir, workers: int = 1, timer: StageTimer | None = None
) -> list[Path]:
    """Dispersion statistics plus the stochastic service-cell sweep.

    The demand cells are replayed in batches of whole cells
    (:func:`_cell_batches`), one task each, and every task returns its
    cells' finished rows.
    """
    timer = timer or StageTimer()
    plaza = scenario.plaza
    with timer.stage("plaza setup"):
        expected_total, pack_totals, capacities = _plaza_setup(scenario)

    with timer.stage("dispersion"):
        rows, reports = _dispersion_rows(
            scenario, expected_total, pack_totals, capacities
        )

    cells = scenario.demand_cells
    per_cell = scenario.trajectories_per_cell
    traj_seed = derive_seed(scenario.seed, "ensemble")
    capacities_by_kind = tuple(capacities.items())
    batches = _cell_batches([rate for _, _, rate in cells], per_cell)
    tasks = [
        (
            [cells[cell] for cell in batch],
            per_cell,
            traj_seed,
            capacities_by_kind,
            pack_totals,
            scenario.grid_profile,
            plaza.charger_max_kw,
            plaza.bess_power_kw,
        )
        for batch in batches
    ]
    with timer.stage("cells"):
        lane_rows = [
            row
            for rows_of_batch in _parallel_map(_batch_task, tasks, workers)
            for row in rows_of_batch
        ]
    # Kind-major: every cell of the first kind, then of the next.
    n_kinds = len(plaza.kinds)
    cell_rows = [row for k in range(n_kinds) for row in lane_rows[k::n_kinds]]

    artifacts = {
        "dispersion.csv": (DISPERSION_HEADER, rows),
        **{f"metrics_{kind}.json": report for kind, report in reports.items()},
        "cells.csv": (CELLS_HEADER, cell_rows),
    }
    return _write_study("ensemble", scenario, out_dir, artifacts, timer)
