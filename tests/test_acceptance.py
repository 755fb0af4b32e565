"""End-to-end acceptance gates.

One test per criterion; each prints a single greppable verdict line.  The
ensemble criteria run on a reduced slice of the default scenario: trajectory
seeds depend only on the cell parameters and the trajectory index, never on
the cell roster, so the sliced runs reproduce the full study's numbers
exactly while staying fast.
"""

import collections
import csv
import dataclasses
import functools
import hashlib
import itertools
import json
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besspp.architectures import (
    ArchitectureKind,
    BudgetSplit,
    layer1_aggregate_kwh,
    split_budget,
)
from besspp.cli import main
from besspp.designer import (
    TRADEOFF_HEADER,
    derive_seed,
    design_layer1,
    enumerate_placements,
    sweep_rows,
)
from besspp.flows import (
    cut_form_energy,
    fpp_deliverable,
    uncapped_min_peak,
    uncapped_placement_energy,
)
from besspp.metrics import system_efficiency
from besspp.plaza import (
    DemandModel,
    GridProfile,
    cycle_phases,
    draw_arrivals,
    replay_lanes,
)
from besspp.scenario import default_scenario, scenario_to_dict
from besspp.studies import _minute_series, run_ensemble
from besspp.supply import flatten_distribution, sample_packs

from lp_reference import max_deliverable_energy, min_peak_flow
from plaza_oracle import lane_cycles
from test_flows import (
    extraction,
    left_fold,
    pack,
    random_string,
    vertex_oracle,
    wiring,
)

TOL = 1e-8


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} [{label}]: FAIL")
        raise
    print(f"criterion {number} [{label}]: PASS")


# ---------------------------------------------------------------------------
# Shared heavyweight computations


R_GRID = (0.1, 0.2, 0.3, 0.4, 0.5)


@pytest.fixture(scope="module")
def tradeoff_points():
    scenario = default_scenario()
    supply = scenario.supply
    keys = [derive_seed(scenario.seed, "tradeoff-packs", i) for i in range(100)]
    packs = sample_packs(supply, scenario.n_modules, keys)
    expected = flatten_distribution(supply, scenario.n_modules)
    basis = left_fold(expected.tolist())
    layer1 = design_layer1(
        expected, supply.voltage_v, scenario.n_layer1, basis / scenario.rated_power_kw
    )
    curves = {}
    for kind in ("lshippp", "cppp", "fpp"):
        splits = [
            split_budget(kind, scenario.n_modules, r, basis, layer1)
            for r in R_GRID
        ]
        rows = [
            dict(zip(TRADEOFF_HEADER, row))
            for row in sweep_rows(packs, supply.voltage_v, splits)
        ]
        curves[kind] = {round(row["R"], 6): row for row in rows}
    return curves


@pytest.fixture(scope="module")
def exemplar_ensemble(tmp_path_factory):
    # Slice the default scenario down to its exemplar demand cell.  The
    # per-trajectory seeds are derived from (mean, std, rate, index), so the
    # numbers below are identical to the same cell inside the full study.
    scenario = dataclasses.replace(
        default_scenario(),
        demand_means_kwh=(50.0,),
        demand_stds_kwh=(25.0,),
        arrival_rates_per_h=(2.0,),
        n_trajectories=33,
    )
    out = tmp_path_factory.mktemp("acceptance-ensemble")
    run_ensemble(scenario, out, workers=2)
    reports = {
        kind: json.loads((out / f"metrics_{kind}.json").read_text())["metrics"]
        for kind in ("lshippp", "cppp")
    }
    with (out / "cells.csv").open(newline="") as fh:
        cells = {row["kind"]: row for row in csv.DictReader(fh)}
    return reports, cells


# ---------------------------------------------------------------------------
# 1. Headline utilization at R = 0.2


def test_criterion_1_headline_utilization(tradeoff_points):
    with criterion(1, "headline utilization at R=0.2"):
        ls = tradeoff_points["lshippp"][0.2]["util_mean"]
        c = tradeoff_points["cppp"][0.2]["util_mean"]
        f = tradeoff_points["fpp"][0.2]["util_mean"]
        assert ls >= 0.90, f"sparse-hierarchical mean {ls:.4f} < 0.90"
        assert 0.70 <= c <= 0.85, f"adjacent-ladder mean {c:.4f} outside band"
        assert 0.18 <= f <= 0.28, f"dedicated mean {f:.4f} outside band"


# ---------------------------------------------------------------------------
# 2. Dominance ordering across the rating sweep


def test_criterion_2_dominance_ordering(tradeoff_points):
    with criterion(2, "utilization dominance over R sweep"):
        for r in R_GRID:
            ls = tradeoff_points["lshippp"][r]["util_mean"]
            c = tradeoff_points["cppp"][r]["util_mean"]
            f = tradeoff_points["fpp"][r]["util_mean"]
            assert ls >= c - 1e-12, f"R={r}: {ls:.4f} < {c:.4f}"
            assert c >= f - 1e-12, f"R={r}: {c:.4f} < {f:.4f}"
            if r <= 0.3:
                assert ls > c, f"R={r}: ordering not strict ({ls} vs {c})"
                assert c > f, f"R={r}: ordering not strict ({c} vs {f})"


# ---------------------------------------------------------------------------
# 3. System efficiency closed form


def test_criterion_3_system_efficiency():
    with criterion(3, "system efficiency closed form"):
        assert system_efficiency(0.85, 0.15) == 0.9775
        assert system_efficiency(0.85, 1.0) == 0.85


# ---------------------------------------------------------------------------
# 4. LP versus vertex-enumeration oracle


def test_criterion_4_lp_oracle_equivalence():
    def chain(cap: float) -> float:
        total, _ = max_deliverable_energy(
            [3.0, 4.0, 5.0], [1.0] * 3, [(0, 1), (1, 2)], [cap, cap]
        )
        return total

    with criterion(4, "flow LP matches vertex enumeration"):
        assert chain(1.0) == pytest.approx(12.0, abs=TOL)
        assert chain(0.5) == pytest.approx(10.5, abs=TOL)
        rng = np.random.Generator(
            np.random.Philox(key=derive_seed(20240915, "acceptance-oracle"))
        )
        for _ in range(200):
            string = random_string(rng)
            got, _ = max_deliverable_energy(*string)
            want = vertex_oracle(*string)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-8)


# ---------------------------------------------------------------------------
# 5. Invariant property suite (>= 1000 randomized cases each)


def _module_strategy(min_n=2, max_n=4):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.floats(0.0, 10.0, allow_nan=False), min_size=n, max_size=n
            ),
            st.lists(
                st.sampled_from([0.5, 1.0, 2.0]), min_size=n, max_size=n
            ),
        )
    )


def _edges_for(n, caps_range=(0.0, 5.0)):
    pairs = list(itertools.combinations(range(n), 2))
    return st.lists(st.sampled_from(pairs), max_size=3, unique=True).flatmap(
        lambda chosen: st.tuples(
            st.just(chosen),
            st.lists(
                st.floats(*caps_range, allow_nan=False),
                min_size=len(chosen),
                max_size=len(chosen),
            ),
        )
    )


def _network_with_edges():
    """A wired string, ``(energy, volts, pairs, caps)``."""
    return _module_strategy().flatmap(
        lambda mv: _edges_for(len(mv[0])).map(
            lambda ec: (mv[0], mv[1], tuple(ec[0]), tuple(ec[1]))
        )
    )


@settings(max_examples=1000)
@given(string=_network_with_edges())
def prop_flow_conservation(string):
    energy, _, _, caps = string
    total, flows = max_deliverable_energy(*string)
    taken = extraction(*string, total, flows)
    assert sum(taken) == pytest.approx(total, abs=1e-6)
    for flow, cap in zip(flows, caps):
        assert abs(flow) <= cap + TOL
    for taken_j, energy_j in zip(taken, energy):
        assert taken_j <= energy_j + TOL


@settings(max_examples=1000)
@given(data=_module_strategy(), n_zero_edges=st.integers(0, 3))
def prop_zero_cap_matches_series_string(data, n_zero_edges):
    caps, volts = data
    pairs = list(itertools.combinations(range(len(caps)), 2))[:n_zero_edges]
    got, _ = max_deliverable_energy(caps, volts, pairs, [0.0] * len(pairs))
    charge = min(c / v for c, v in zip(caps, volts))
    want = charge * sum(volts)
    assert got == pytest.approx(want, abs=1e-7)


@settings(max_examples=1000)
@given(data=_module_strategy())
def prop_saturated_caps_reach_full_energy(data):
    caps, volts = data
    big = sum(caps) + 1.0
    ladder = [(j, j + 1) for j in range(len(caps) - 1)]
    got, _ = max_deliverable_energy(caps, volts, ladder, [big] * len(ladder))
    assert got == pytest.approx(sum(caps), abs=1e-6)


@settings(max_examples=1000)
@given(string=_network_with_edges(), scale=st.floats(0.0, 1.0, allow_nan=False))
def prop_cap_monotonicity(string, scale):
    energy, volts, pairs, caps = string
    full, _ = max_deliverable_energy(*string)
    small, _ = max_deliverable_energy(
        energy, volts, pairs, [cap * scale for cap in caps]
    )
    assert small <= full + 1e-7


@functools.cache
def _default_layer1():
    """The default scenario's layer-1 design, searched once for the suite."""
    scenario = default_scenario()
    supply = scenario.supply
    expected = flatten_distribution(supply, scenario.n_modules)
    return design_layer1(expected, supply.voltage_v, scenario.n_layer1, 2.25)


@settings(max_examples=1000)
@given(
    pack_seed=st.integers(0, 2**32 - 1),
    lambda_h=st.floats(0.0, 3.0, allow_nan=False),
)
def prop_sparse_layer_flows_within_ratings(pack_seed, lambda_h):
    scenario = default_scenario()
    layer1 = _default_layer1()
    supply = scenario.supply
    (energy,) = sample_packs(supply, scenario.n_modules, [pack_seed])
    modules = pack(*energy, voltage=supply.voltage_v)
    n = len(energy)
    # Layer 1 at its procured rating, a lambda_h ladder on top.
    aggregate = layer1_aggregate_kwh(layer1)
    rung = lambda_h * aggregate / (n - 1)
    split = BudgetSplit(
        ArchitectureKind.LSHIPPP,
        layer1.edges + tuple((j, j + 1) for j in range(n - 1)),
        (layer1.rating_kw * 2.25,) * len(layer1.edges) + (rung,) * (n - 1),
        rung,
        (1 + lambda_h) * aggregate / left_fold(energy.tolist()),
        lambda_h,
    )
    _, flows = max_deliverable_energy(*wiring(modules, split.pairs, split.caps_kwh))
    cap1 = layer1.rating_kw * 2.25
    cap2 = lambda_h * len(layer1.edges) * cap1 / (n - 1)
    for k, flow in enumerate(flows):
        limit = cap1 if k < len(layer1.edges) else cap2
        assert abs(flow) <= limit + 1e-7


# The kernels the studies run, in array form: each example draws one Philox
# key from hypothesis and checks a batch of numpy-drawn cases under it.
# ``_CASES`` counts the cases each property has checked, so criterion 5 can
# hold each of them to its 1,000.

_CASES: collections.Counter = collections.Counter()

# Wirings per example of a kernel property, and packs sharing each wiring.
_WIRINGS, _PACKS = 64, 16


def _kernel_strings(seed: int, connected: bool = False):
    """``_WIRINGS`` groups of ``_PACKS`` random packs that share one wiring.

    Yields ``(energy, volts, pairs, caps)``: (packs x n) module energies and
    voltages of 1-6 modules (a tenth of the energies 0), the edge pairs and
    one random cap per edge (a fifth of them 0).  Each module after the
    first joins an earlier one always when ``connected``, else on a coin
    toss; up to two more edges join random pairs, so a pair may repeat.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    for _ in range(_WIRINGS):
        n = int(rng.integers(1, 7))
        shape = (_PACKS, n)
        energy = np.where(
            rng.random(shape) < 0.1, 0.0, rng.uniform(0.0, 10.0, shape)
        )
        volts = rng.choice([0.5, 1.0, 2.0], size=shape)
        pairs = [
            (int(rng.integers(j)), j)
            for j in range(1, n)
            if connected or rng.random() < 0.5
        ]
        if n >= 2:
            for _ in range(int(rng.integers(3))):
                i, j = rng.choice(n, size=2, replace=False).tolist()
                pairs.append((i, j))
        caps = np.where(
            rng.random(len(pairs)) < 0.2, 0.0, rng.uniform(0.0, 5.0, len(pairs))
        )
        yield energy, volts, pairs, caps


def _pack_energy(energy: np.ndarray) -> np.ndarray:
    """Each pack's energy, its modules added left to right from 0.0."""
    total = np.zeros(len(energy))
    for j in range(energy.shape[1]):
        total += energy[:, j]
    return total


_KERNEL_SEED = st.integers(0, 2**32 - 1)


@settings(max_examples=3)
@given(seed=_KERNEL_SEED)
def prop_kernels_zero_caps(seed):
    # Zero caps leave the bare series string: the weakest E_j / V_j sets
    # the string charge.  Dedicated converters have no string, so fpp
    # delivers nothing.
    for energy, volts, pairs, _ in _kernel_strings(seed):
        (got,) = cut_form_energy(energy, volts, pairs, [np.zeros(len(pairs))])
        bare = (energy / volts).min(axis=1) * volts.sum(axis=1)
        np.testing.assert_allclose(got, bare, rtol=1e-12, atol=0)
        assert np.all(fpp_deliverable(energy, [0.0]) == 0.0)
        _CASES["prop_kernels_zero_caps"] += len(energy)


@settings(max_examples=3)
@given(seed=_KERNEL_SEED)
def prop_kernels_saturated_caps(seed):
    # On a connected wiring, caps above the pack energy let every module
    # give up all of its energy; so does an fpp converter cap above the
    # largest module.
    for energy, volts, pairs, _ in _kernel_strings(seed, connected=True):
        full = _pack_energy(energy)
        big = full.max() + 1.0
        rows = [np.full(len(pairs), big), np.full(len(pairs), math.inf)]
        got = cut_form_energy(energy, volts, pairs, rows)
        np.testing.assert_allclose(got, [full, full], rtol=1e-12, atol=0)
        dedicated = fpp_deliverable(energy, [energy.max(initial=0.0), big, math.inf])
        assert np.all(dedicated == full)
        _CASES["prop_kernels_saturated_caps"] += len(energy)


@settings(max_examples=3)
@given(seed=_KERNEL_SEED)
def prop_kernels_monotone_in_caps(seed):
    # Caps raised edge by edge never lower the output.  Every step of both
    # kernels is monotone in floating point, so the check is exact.
    scales = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)
    for energy, volts, pairs, caps in _kernel_strings(seed):
        rows = [*(s * caps for s in scales), np.full(len(pairs), math.inf)]
        got = cut_form_energy(energy, volts, pairs, rows)
        assert np.all(np.diff(got, axis=0) >= 0.0)
        dedicated = fpp_deliverable(energy, [*(s * 5.0 for s in scales), math.inf])
        assert np.all(np.diff(dedicated, axis=0) >= 0.0)
        _CASES["prop_kernels_monotone_in_caps"] += len(energy)


@settings(max_examples=3)
@given(seed=_KERNEL_SEED)
def prop_kernels_within_pack_energy(seed):
    # No wiring or cap delivers more than the pack holds.
    for energy, volts, pairs, caps in _kernel_strings(seed):
        full = _pack_energy(energy)
        rows = [caps, 10.0 * caps, np.where(caps > 0, math.inf, 0.0)]
        got = cut_form_energy(energy, volts, pairs, rows)
        assert np.all(got >= 0.0)
        assert np.all(got <= full * (1 + 1e-12))
        dedicated = fpp_deliverable(energy, [1.0, 5.0, math.inf])
        assert np.all(dedicated <= full)
        _CASES["prop_kernels_within_pack_energy"] += len(energy)


@settings(max_examples=3)
@given(seed=_KERNEL_SEED)
def prop_uncapped_placements_are_the_cut_form(seed):
    # The layer-1 search's evaluator is the cut form at infinite caps, bit
    # for bit: 64 packs, each under 16 placements of one size.
    rng = np.random.Generator(np.random.Philox(key=seed))
    for _ in range(8):
        n = int(rng.integers(2, 7))
        candidates = list(itertools.combinations(range(n), 2))
        k = int(rng.integers(1, min(4, len(candidates)) + 1))
        placements = []
        for _ in range(16):
            chosen = rng.choice(len(candidates), size=k, replace=False)
            flips = rng.random(k) < 0.5
            placements.append(
                [candidates[c][::-1] if f else candidates[c] for c, f in zip(chosen, flips)]
            )
        energy = rng.uniform(0.0, 10.0, (8, n))
        volts = rng.choice([0.5, 1.0, 2.0], size=(8, n))
        uncapped = [[math.inf] * k]
        cut = np.array(
            [cut_form_energy(energy, volts, p, uncapped)[0] for p in placements]
        )
        for p, (e, v) in enumerate(zip(energy, volts)):
            got = uncapped_placement_energy(e, v, placements)
            assert got.tolist() == cut[:, p].tolist()
        _CASES["prop_uncapped_placements_are_the_cut_form"] += cut.size


# Min-peak LP cases per example.
_LP_CASES = 100


@settings(max_examples=10)
@given(seed=_KERNEL_SEED)
def prop_min_peak_lp(seed):
    # The LP that fixes the layer-1 flows, and so its rating: its peak is
    # the parametric cut form's, every flow keeps within its cap, and no
    # module gives up more than it holds.
    rng = np.random.Generator(np.random.Philox(key=seed))
    for _ in range(_LP_CASES):
        n = int(rng.integers(2, 7))
        energy = np.where(
            rng.random(n) < 0.3,
            rng.choice([0.0, 1.0, 2.5, 4.0], size=n),
            rng.uniform(0.0, 10.0, n),
        )
        volts = rng.choice([0.5, 1.0, 2.0], size=n)
        candidates = list(itertools.combinations(range(n), 2))
        k = int(rng.integers(1, min(4, len(candidates)) + 1))
        chosen = np.sort(rng.choice(len(candidates), size=k, replace=False))
        placement = [candidates[c] for c in chosen]
        (own,) = uncapped_placement_energy(energy, volts, [placement])
        share = rng.choice([0.0, 0.5, 1.0]) if rng.random() < 0.3 else rng.random()
        output = float(share * own)
        (peak,) = uncapped_min_peak(energy, volts, [placement], output)
        caps = np.where(
            rng.random(k) < 0.5, math.inf, peak * rng.uniform(1.0, 2.0, k)
        )
        flows = np.array(min_peak_flow(energy, volts, placement, caps, output))
        tol = 1e-9 * (1.0 + energy.sum())
        assert abs(np.abs(flows).max() - peak) <= max(1e-9 * peak, tol)
        assert np.all(np.abs(flows) <= caps + tol)
        ends = np.array(placement)
        given_up = volts * (output / volts.sum())
        np.add.at(given_up, ends[:, 0], flows)
        np.subtract.at(given_up, ends[:, 1], flows)
        assert np.all(given_up <= energy + tol)
        _CASES["prop_min_peak_lp"] += 1


@settings(max_examples=1000)
@given(
    capacity=st.floats(0.0, 100.0, allow_nan=False),
    grid=st.floats(0.0, 200.0, allow_nan=False),
    demand=st.floats(0.0, 300.0, allow_nan=False),
    charger=st.floats(1.0, 300.0, allow_nan=False),
    bess_power=st.floats(0.0, 300.0, allow_nan=False),
)
def prop_cycle_energy_balance(capacity, grid, demand, charger, bess_power):
    full_power, bess_kw, full_h, curtailed_h, delivered, unmet, _ = cycle_phases(
        capacity, grid, demand, charger, bess_power
    )
    served = full_power * full_h + min(grid, charger) * curtailed_h
    assert served + unmet == pytest.approx(demand, rel=1e-9, abs=1e-9)
    assert delivered <= capacity + 1e-9
    assert delivered == pytest.approx(bess_kw * full_h, rel=1e-9, abs=1e-9)


@settings(max_examples=1000)
@given(
    seed=st.integers(0, 2**32 - 1),
    capacity=st.floats(1.0, 60.0, allow_nan=False),
    grid=st.floats(0.0, 120.0, allow_nan=False),
    rate=st.floats(0.25, 4.0, allow_nan=False),
    mean=st.floats(5.0, 80.0, allow_nan=False),
    std=st.floats(0.0, 40.0, allow_nan=False),
)
def prop_storage_full_at_cycle_start(seed, capacity, grid, rate, mean, std):
    stream = draw_arrivals([(rate, DemandModel(mean, std), [seed])], 24.0)
    profile = GridProfile(((0.0, grid),))
    cycles = lane_cycles(
        replay_lanes(stream, [0], [capacity], 150.0, profile, 150.0).cycles(), 0
    )
    _, _, _, bess_kwh, _ = _minute_series(
        [dataclasses.asdict(c) for c in cycles], capacity, profile
    )
    assert bess_kwh[0] == pytest.approx(capacity)
    for cycle in cycles:
        # Starting from full is only possible if the previous service and
        # recharge both finished; delivered energy can then never exceed
        # one full capacity.
        assert cycle.bess_delivered_kwh <= capacity + 1e-9
    for prev, nxt in zip(cycles, cycles[1:]):
        end = prev.start_h + prev.full_h + prev.curtailed_h + prev.recharge_h
        assert nxt.start_h >= end - 1e-9


_ARRAY_PROPERTIES = (
    prop_kernels_zero_caps,
    prop_kernels_saturated_caps,
    prop_kernels_monotone_in_caps,
    prop_kernels_within_pack_energy,
    prop_uncapped_placements_are_the_cut_form,
    prop_min_peak_lp,
)


def test_criterion_5_invariant_suite():
    with criterion(5, "randomized invariant suite"):
        prop_flow_conservation()
        prop_zero_cap_matches_series_string()
        prop_saturated_caps_reach_full_energy()
        prop_cap_monotonicity()
        prop_sparse_layer_flows_within_ratings()
        prop_cycle_energy_balance()
        prop_storage_full_at_cycle_start()
        _CASES.clear()
        for prop in _ARRAY_PROPERTIES:
            prop()
        for prop in _ARRAY_PROPERTIES:
            assert _CASES[prop.__name__] >= 1000, (prop.__name__, _CASES)


# ---------------------------------------------------------------------------
# 6. Search-space count


def test_criterion_6_search_space_count():
    with criterion(6, "sparse placement count"):
        placements = enumerate_placements(9, 3)
        assert len(placements) == 7140
        assert len(placements) == math.comb(36, 3)


# ---------------------------------------------------------------------------
# 7. Derating and captured value


def test_criterion_7_derating_and_captured_value(exemplar_ensemble):
    with criterion(7, "derating and captured value"):
        reports, _ = exemplar_ensemble
        ls = {name: m["value"] for name, m in reports["lshippp"].items()}
        c = {name: m["value"] for name, m in reports["cppp"].items()}
        assert ls["derating_factor"] > c["derating_factor"]
        assert ls["captured_value_kwh"] > c["captured_value_kwh"]
        assert abs(ls["captured_fraction"] - 0.798) <= 0.08, (
            f"sparse-hierarchical captured fraction {ls['captured_fraction']:.3f}"
        )
        assert abs(c["captured_fraction"] - 0.510) <= 0.08, (
            f"adjacent-ladder captured fraction {c['captured_fraction']:.3f}"
        )


# ---------------------------------------------------------------------------
# 8. Curtailed charging time


def test_criterion_8_curtailed_charging(exemplar_ensemble):
    with criterion(8, "curtailed charging minutes"):
        _, cells = exemplar_ensemble
        ls = float(cells["lshippp"]["curtailed_mean_min"])
        c = float(cells["cppp"]["curtailed_mean_min"])
        assert c >= 1.4 * ls, f"ratio {c / ls:.3f} below 1.4"
        assert abs(ls - 15.0) <= 10.0, f"sparse-hierarchical mean {ls:.2f} min"
        assert abs(c - 25.0) <= 10.0, f"adjacent-ladder mean {c:.2f} min"


# ---------------------------------------------------------------------------
# 9. Byte-level determinism


def _tree_digest(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "byte-identical reruns and worker counts"):
        scenario = dataclasses.replace(
            default_scenario(),
            demand_means_kwh=(50.0,),
            demand_stds_kwh=(25.0,),
            arrival_rates_per_h=(2.0,),
            r_grid=(0.15, 0.3),
            n_packs=6,
            n_trajectories=8,
        )
        runs = [("e1", 1), ("e2", 1), ("e3", 3)]
        for name, workers in runs:
            run_ensemble(scenario, tmp_path / name, workers=workers)
        digests = [_tree_digest(tmp_path / name) for name, _ in runs]
        assert digests[0] == digests[1], "rerun differs"
        assert digests[0] == digests[2], "worker count changed the bytes"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_to_dict(scenario)))
        for workers in ("1", "2"):
            args = ["tradeoff", "--scenario", str(path), "--workers", workers]
            assert main([*args, "--out", str(tmp_path / f"t{workers}")]) == 0
        assert _tree_digest(tmp_path / "t1") == _tree_digest(tmp_path / "t2")
        # The whole reproduction tree, rerun and across worker counts.
        for name, workers in (("r1", "1"), ("r2", "1"), ("r3", "2")):
            args = ["reproduce", "--scenario", str(path), "--workers", workers]
            assert main([*args, "--out", str(tmp_path / name)]) == 0
        trees = [_tree_digest(tmp_path / name) for name in ("r1", "r2", "r3")]
        assert trees[0] == trees[1], "reproduce rerun differs"
        assert trees[0] == trees[2], "worker count changed the reproduce bytes"
