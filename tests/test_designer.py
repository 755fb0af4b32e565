import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besspp.architectures import ConfigurationError, split_budget, split_lambda
from besspp.designer import (
    _TIE_RTOL,
    TRADEOFF_HEADER,
    _tie_set,
    derive_seed,
    derive_seeds,
    design_layer1,
    enumerate_placements,
    sweep_energy,
    sweep_rows,
)
from besspp.flows import uncapped_min_peak, uncapped_placement_energy
from besspp.metrics import utilization_stats
from besspp.scenario import MAX_PLACEMENTS, SupplyDistribution, default_scenario
from besspp.supply import flatten_distribution, sample_packs

from lp_reference import max_deliverable_energy, min_peak_flow
from test_flows import cut_reference, left_fold, pack, wiring

# Expected pack energy over the 150 kW rating for the 9-module reference.
HORIZON_H = 2.25

# Module voltage of every pack here, the supply's default.
VOLTS = 50.0


def expected_set(*caps: float) -> np.ndarray:
    return np.array([float(c) for c in caps])


def keyed_packs(dist, n: int, n_packs: int, seed: int) -> np.ndarray:
    """``n_packs`` packs of ``dist``, pack ``i`` keyed by ``(seed, "pack", i)``."""
    return sample_packs(dist, n, derive_seeds(seed, "pack", indices=range(n_packs)))


def wired(energy, pairs, caps):
    """A row of module energies at ``VOLTS``, wired by ``pairs`` and ``caps``."""
    return wiring(pack(*energy, voltage=VOLTS), pairs, caps)


def basis_kwh(dist, n: int) -> float:
    """Total energy of the expected pack of ``dist``, the sweeps' budget basis."""
    return left_fold(flatten_distribution(dist, n).tolist())


def lambda_rows(layer1, dist, lambda_grid, packs) -> list[dict]:
    """The lambda sweep over ``packs``, one row per ratio, keyed by column."""
    basis = basis_kwh(dist, layer1.n_batteries)
    splits = [split_lambda(layer1, lam, basis) for lam in lambda_grid]
    return [dict(zip(TRADEOFF_HEADER, row)) for row in sweep_rows(packs, VOLTS, splits)]


def curve_rows(kind, dist, r_grid, packs, layer1=None) -> list[dict]:
    """The budget sweep of ``kind`` over ``packs``, one row per rating."""
    n = packs.shape[1]
    basis = basis_kwh(dist, n)
    splits = [split_budget(kind, n, r, basis, layer1) for r in r_grid]
    return [dict(zip(TRADEOFF_HEADER, row)) for row in sweep_rows(packs, VOLTS, splits)]


def as_tuples(placements) -> list[tuple[tuple[int, int], ...]]:
    """A placement array as a list of tuples of ``(i, j)`` pairs."""
    return [tuple(tuple(pair) for pair in p) for p in np.asarray(placements).tolist()]


def tied_candidates(placements, outputs):
    """Reference tie set: the scalar running-best loop over the outputs.

    The best output is that of the placement which last beat the running
    best by more than the relative tie slack; the candidates are it and
    every later placement within the slack of it, in enumeration order.
    """
    best_output = -math.inf
    candidates = []
    for placement, output in zip(placements, outputs):
        if not candidates:
            best_output = output
            candidates = [placement]
            continue
        tie = _TIE_RTOL * (1.0 + abs(best_output))
        if output > best_output + tie:
            best_output = output
            candidates = [placement]
        elif output >= best_output - tie:
            candidates.append(placement)
    return best_output, candidates


def component_average_bound(caps, placement) -> float:
    """Closed-form optimum for uncapped placements on a unit-voltage pack.

    With converters uncapped, each connected component acts as one battery
    holding its total energy; the string charge per volt is the smallest
    per-module average over components, singletons included.
    """
    n = len(caps)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in placement:
        parent[find(i)] = find(j)
    groups: dict[int, list[float]] = {}
    for idx, cap in enumerate(caps):
        groups.setdefault(find(idx), []).append(cap)
    per_module = min(sum(g) / len(g) for g in groups.values())
    return per_module * n


class TestTieSet:
    """The array scan picks the scalar running-best loop's tie set."""

    @given(
        st.lists(
            st.sampled_from([0.0, 1.0, 1.0 + 1e-10, 1.0 + 3e-9, 2.0, -1.0, math.nan])
            | st.floats(-1e3, 1e3),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=300)
    def test_equals_the_scalar_scan(self, outputs):
        best, tied = _tie_set(np.array(outputs))
        ref_best, ref_tied = tied_candidates(range(len(outputs)), outputs)
        assert tied.tolist() == ref_tied
        assert best == ref_best or (math.isnan(best) and math.isnan(ref_best))

    def test_a_slack_chain_moves_the_best_once_it_is_passed(self):
        # Each output is within the slack (2e-9 here) of the one before it;
        # the best moves to the first output past the slack of the current
        # best, and the tie set restarts there.
        outputs = [1.0 + k * 0.6e-9 for k in range(6)]
        best, tied = _tie_set(np.array(outputs))
        assert (best, tied.tolist()) == (outputs[4], [4, 5])
        assert (best, tied.tolist()) == tied_candidates(range(6), outputs)


class TestEnumeratePlacements:
    def test_reference_count(self):
        # 9 modules give C(9,2) = 36 pairs; 3 edges among them.
        assert len(enumerate_placements(9, 3)) == 7140

    def test_small_case_explicit(self):
        placements = enumerate_placements(3, 1)
        assert placements.shape == (3, 1, 2)
        assert as_tuples(placements) == [((0, 1),), ((0, 2),), ((1, 2),)]

    def test_lexicographic_order(self):
        placements = as_tuples(enumerate_placements(4, 2))
        assert placements == sorted(placements)
        assert placements == list(
            itertools.combinations(itertools.combinations(range(4), 2), 2)
        )
        assert len(placements) == math.comb(6, 2)

    def test_rejects_too_many_edges(self):
        with pytest.raises(ValueError):
            enumerate_placements(3, 4)

    def test_rejects_searches_above_the_placement_limit(self):
        # 16 modules: C(120, 3) = 280,840 placements fit, C(120, 4) do not.
        assert math.comb(120, 3) <= MAX_PLACEMENTS < math.comb(120, 4)
        with pytest.raises(ValueError, match="at most 1,000,000"):
            enumerate_placements(16, 4)
        with pytest.raises(ValueError, match="190,578,024 layer-1 placements"):
            enumerate_placements(16, 5)


class TestDesignLayer1:
    def test_three_module_reference(self):
        design = design_layer1(expected_set(3, 4, 5), VOLTS, 1, 1.0)
        assert design.edges == ((0, 2),)
        assert design.expected_output_kwh == pytest.approx(12.0)
        assert design.optimal_flows_kwh[0] == pytest.approx(-1.0)
        assert design.rating_kw == pytest.approx(1.0)

    def test_horizon_scales_rating_only(self):
        fast = design_layer1(expected_set(3, 4, 5), VOLTS, 1, 0.5)
        slow = design_layer1(expected_set(3, 4, 5), VOLTS, 1, 2.0)
        assert fast.expected_output_kwh == slow.expected_output_kwh
        assert fast.rating_kw == pytest.approx(4 * slow.rating_kw)

    def test_nine_module_reference_design(self, expected9, layer1_9):
        total = left_fold(expected9.tolist())
        # The binding constraint is the median-low module left unpaired.
        caps = expected9.tolist()
        assert layer1_9.expected_output_kwh == pytest.approx(9 * caps[3])
        assert layer1_9.expected_output_kwh / total == pytest.approx(
            0.9294, abs=2e-4
        )
        # The weakest module must be lifted to the string charge; that
        # inflow sets the identical converter rating.
        peak = max(abs(f) for f in layer1_9.optimal_flows_kwh)
        assert peak == pytest.approx(caps[3] - caps[0])
        assert layer1_9.rating_kw == pytest.approx(peak / 2.25)
        assert (0, 8) in layer1_9.edges

    def test_matches_component_average_oracle(self):
        caps = (2.0, 3.5, 4.0, 6.5)
        best = max(
            component_average_bound(caps, placement)
            for placement in enumerate_placements(4, 2)
        )
        design = design_layer1(expected_set(*caps), VOLTS, 2, 1.0)
        assert design.expected_output_kwh == pytest.approx(best)

    def test_exhaustive_oracle_agreement_random_sets(self):
        rng = np.random.Generator(np.random.Philox(key=99))
        for _ in range(20):
            n = int(rng.integers(3, 6))
            caps = tuple(sorted(float(c) for c in rng.uniform(1.0, 9.0, n)))
            m = int(rng.integers(1, 3))
            best = max(
                component_average_bound(caps, placement)
                for placement in enumerate_placements(n, m)
            )
            design = design_layer1(expected_set(*caps), VOLTS, m, 1.0)
            assert design.expected_output_kwh == pytest.approx(best)


def uncapped(expected, placement):
    """The expected set wired by ``placement``, every edge uncapped."""
    return wired(expected, placement, [math.inf] * len(placement))


def lp_loop_design(expected, n_edges: int, horizon_h: float):
    """The search's tie-break by one min-peak LP per tied placement.

    Returns the winner, its LP flows and peak, the tied placements and
    their LP peaks; the slack rule and enumeration order are the search's.
    """
    placements = enumerate_placements(len(expected), n_edges)
    volts = np.full(len(expected), VOLTS)
    outputs = uncapped_placement_energy(expected, volts, placements).tolist()
    best_output, candidates = tied_candidates(as_tuples(placements), outputs)
    winner, flows_kwh, best_peak, peaks = None, (), math.inf, []
    for placement in candidates:
        flows = min_peak_flow(*uncapped(expected, placement), best_output)
        peak = max(abs(f) for f in flows)
        peaks.append(peak)
        if peak < best_peak * (1 - _TIE_RTOL) - _TIE_RTOL:
            winner, flows_kwh, best_peak = placement, flows, peak
    return winner, flows_kwh, best_peak, best_output, candidates, peaks


class TestSearchAgainstLpSweep:
    def test_same_outputs_candidates_winner(self, supply9):
        # A reduced search: the cut form against the per-placement LP sweep.
        expected = flatten_distribution(supply9, 7)
        placements = as_tuples(enumerate_placements(7, 2))
        lp_outputs = [
            max_deliverable_energy(*uncapped(expected, p))[0] for p in placements
        ]
        volts = np.full(7, VOLTS)
        cut = uncapped_placement_energy(expected, volts, placements).tolist()
        np.testing.assert_allclose(cut, lp_outputs, rtol=1e-12, atol=0)

        lp_best, lp_candidates = tied_candidates(placements, lp_outputs)
        cut_best, cut_candidates = tied_candidates(placements, cut)
        assert cut_candidates == lp_candidates
        assert len(lp_candidates) > 1  # the tie-break is exercised
        assert cut_best == pytest.approx(lp_best, rel=1e-12)

        # The LP path's winner: smallest min-peak flow, first in order.
        winner, *_ = lp_loop_design(expected, 2, 1.0)
        design = design_layer1(expected, VOLTS, 2, 1.0)
        assert design.edges == winner
        assert design.expected_output_kwh == pytest.approx(lp_best, rel=1e-12)

    @pytest.mark.parametrize("n_edges, n_tied", [(3, 13), (2, 18)])
    def test_closed_form_tie_break_is_the_lp_loop(self, expected9, n_edges, n_tied):
        # The default expected set, where 13 (3 edges) or 18 (2 edges)
        # placements tie: one LP per tied placement picks the same winner,
        # with the same flows and rating, as the closed-form tie-break and
        # flows.
        winner, flows_kwh, peak, best, candidates, lp_peaks = lp_loop_design(
            expected9, n_edges, HORIZON_H
        )
        assert len(candidates) == n_tied
        volts = np.full(9, VOLTS)
        closed = uncapped_min_peak(expected9, volts, candidates, best)
        np.testing.assert_allclose(closed, lp_peaks, rtol=1e-9, atol=1e-9)
        design = design_layer1(expected9, VOLTS, n_edges, HORIZON_H)
        assert design.edges == winner
        assert design.optimal_flows_kwh == flows_kwh
        assert design.rating_kw == peak / HORIZON_H


@st.composite
def expected_search(draw):
    """An expected set and a layer-1 size whose search stays small.

    The set is a flattened supply, or sorted uniform energies, whose
    winners more often need the peak bound.  ``n_layer1 < n_modules``, the
    scenario's own rule, and at most 20,000 placements, so each example
    searches in a few milliseconds.
    """
    n = draw(st.integers(3, 12))
    sizes = [m for m in range(1, n) if math.comb(math.comb(n, 2), m) <= 20_000]
    m = draw(st.sampled_from(sizes))
    if draw(st.booleans()):
        spread = draw(st.floats(0.05, 0.5))
        return flatten_distribution(SupplyDistribution(37.5, 37.5 * spread), n), m
    energy = draw(st.lists(st.floats(1.0, 9.0), min_size=n, max_size=n))
    return np.sort(energy), m


class TestWinnerFlows:
    """The closed-form layer-1 flows against the two-pass min-peak LP."""

    @given(case=expected_search())
    @settings(max_examples=100, deadline=None)
    def test_equal_the_lp_where_not_refused(self, case):
        expected, m = case
        try:
            design = design_layer1(expected, VOLTS, m, HORIZON_H)
        except ValueError:
            return
        lp = min_peak_flow(
            *uncapped(expected, design.edges), design.expected_output_kwh
        )
        peak = max(abs(f) for f in design.optimal_flows_kwh)
        np.testing.assert_allclose(
            design.optimal_flows_kwh, lp, rtol=0, atol=2e-9 * (1 + peak)
        )
        assert design.rating_kw == peak / HORIZON_H

    def test_the_peak_bound_fixes_a_hub(self):
        # Module 0 lacks 2 kWh at the string charge.  Each edge's sides need
        # nothing through (0, 2) and 1 kWh through (0, 3), which overdraws
        # module 0; at the peak of 1 kWh, (0, 3) brings at most 1, so (0, 2)
        # must bring the other 1.  That is the LP's one optimum.
        expected = expected_set(1.0, 3.0, 4.0, 5.0)
        design = design_layer1(expected, VOLTS, 2, 1.0)
        assert design.edges == ((0, 2), (0, 3))
        assert design.optimal_flows_kwh == (-1.0, -1.0)
        lp = min_peak_flow(*uncapped(expected, design.edges), 12.0)
        assert lp == design.optimal_flows_kwh

    def test_refuses_a_winner_with_two_optimal_duties(self):
        # The winner's least edge flows overdraw module 3 even at the peak
        # bound; the LP returns one of two optima, whichever its pivots
        # reach, both with a 2.15 kWh peak and 5.55 kWh moved.
        expected = expected_set(5.4, 3.5, 2.3, 2.0, 8.3, 5.3)
        winner = ((0, 1), (2, 4), (3, 4), (3, 5))
        with pytest.raises(ValueError, match=re.escape(f"{winner} overdraw")):
            design_layer1(expected, VOLTS, 4, HORIZON_H)
        (output,) = uncapped_placement_energy(expected, np.full(6, VOLTS), [winner])
        lp = np.abs(min_peak_flow(*uncapped(expected, winner), output))
        assert lp.max() == pytest.approx(2.15)
        assert lp.sum() == pytest.approx(5.55)

    def test_refuses_a_winner_with_a_cycle(self):
        expected = expected_set(6.1, 5.9, 6.7, 4.6, 8.2)
        winner = ((0, 3), (0, 4), (1, 2), (3, 4))
        with pytest.raises(ValueError, match=re.escape(f"{winner} has a cycle")):
            design_layer1(expected, VOLTS, 4, HORIZON_H)


class TestDesignLayer2:
    def test_lp_flows_stay_within_designed_duty(self, layer1_9, supply9):
        # The sweep's cut form computes no flows; the LP's flows on the same
        # networks show that the layer-1 caps hold every converter to its
        # designed duty.
        m = len(layer1_9.edges)
        for energy in keyed_packs(supply9, 9, 12, seed=7):
            for lam in (0.0, 0.3, 1.0, 5.0):
                split = split_lambda(layer1_9, lam, 337.5)
                _, flows = max_deliverable_energy(
                    *wired(energy, split.pairs, split.caps_kwh)
                )
                for flow, duty in zip(flows[:m], layer1_9.optimal_flows_kwh):
                    assert abs(flow) <= abs(duty) + 1e-6

    def test_layer1_duty_respected_and_utilization_monotone(self, layer1_9):
        dist = SupplyDistribution(mean_kwh=37.5, std_kwh=9.375)
        packs = keyed_packs(dist, 9, 30, seed=7)
        rows = lambda_rows(layer1_9, dist, [0.0, 0.5, 1.5], packs)
        means = [row["util_mean"] for row in rows]
        assert means == sorted(means)  # more ladder never hurts on average
        assert rows[0]["lambda_h"] == 0.0
        # Every lambda evaluated on the same packs: common random numbers.
        assert all(row["kind"] == "lshippp" for row in rows)

    def test_rating_reporting(self, layer1_9):
        dist = SupplyDistribution(mean_kwh=37.5, std_kwh=9.375)
        (row,) = lambda_rows(layer1_9, dist, [1.0], keyed_packs(dist, 9, 10, 7))
        layer1_aggregate = 3 * layer1_9.rating_kw * layer1_9.horizon_h
        expected_r = 2 * layer1_aggregate / 337.5
        assert row["R"] == pytest.approx(expected_r)


class TestTradeoffCurve:
    def test_fpp_matches_closed_form(self):
        dist = SupplyDistribution(mean_kwh=37.5, std_kwh=9.375)
        packs = keyed_packs(dist, 9, 25, seed=3)
        (row,) = curve_rows("fpp", dist, [0.2], packs)
        # Re-derive each pack by hand: sum_j min(E_j, cap) over its total.
        basis = left_fold(flatten_distribution(dist, 9).tolist())
        cap = 0.2 * basis / 9
        utils = []
        for energy in packs.tolist():
            total = left_fold(energy)
            utils.append(left_fold(min(e, cap) for e in energy) / total)
        assert row["util_mean"] == pytest.approx(float(np.mean(utils)))

    def test_common_random_packs_across_kinds(self, layer1_9):
        dist = SupplyDistribution(mean_kwh=37.5, std_kwh=9.375)
        packs = keyed_packs(dist, 9, 15, seed=11)
        (a,) = curve_rows("cppp", dist, [10.0], packs)
        (b,) = curve_rows("lshippp", dist, [10.0], packs, layer1_9)
        # At absurdly generous budgets both families deliver everything,
        # so equal packs force exactly equal utilization statistics.
        assert a["util_mean"] == pytest.approx(b["util_mean"], abs=1e-9)
        assert a["util_mean"] == pytest.approx(1.0, abs=1e-9)

    def test_zero_rating_collapses_to_string(self):
        dist = SupplyDistribution(mean_kwh=37.5, std_kwh=9.375)
        packs = keyed_packs(dist, 9, 10, seed=5)
        (cp,) = curve_rows("cppp", dist, [0.0], packs)
        utils = []
        for energy in packs.tolist():
            utils.append(9 * min(energy) / left_fold(energy))
        assert cp["util_mean"] == pytest.approx(float(np.mean(utils)))

    def test_lambda_reported_for_lshippp_only(self, layer1_9):
        dist = SupplyDistribution(mean_kwh=37.5, std_kwh=9.375)
        packs = keyed_packs(dist, 9, 5, seed=2)
        (ls,) = curve_rows("lshippp", dist, [0.25], packs, layer1_9)
        (fp,) = curve_rows("fpp", dist, [0.25], packs)
        assert ls["lambda_h"] >= 0
        assert math.isnan(fp["lambda_h"])

    def test_lshippp_needs_its_layer1(self):
        dist = SupplyDistribution(mean_kwh=37.5, std_kwh=9.375)
        packs = keyed_packs(dist, 9, 2, seed=2)
        with pytest.raises(ConfigurationError, match="layer-1 design"):
            curve_rows("lshippp", dist, [0.25], packs)

    def test_quantile_fields_consistent(self):
        dist = SupplyDistribution(mean_kwh=37.5, std_kwh=9.375)
        packs = keyed_packs(dist, 9, 40, seed=9)
        (row,) = curve_rows("cppp", dist, [0.3], packs)
        assert row["util_p10"] <= row["util_mean"] + 1e-9
        assert row["util_mean"] <= row["util_p90"] + 1e-9
        assert row["util_idr"] == pytest.approx(row["util_p90"] - row["util_p10"])

    def test_module_count_comes_from_the_packs(self):
        dist = SupplyDistribution(mean_kwh=37.5, std_kwh=9.375)
        packs = keyed_packs(dist, 6, 8, seed=1)
        (row,) = curve_rows("fpp", dist, [10.0], packs)
        assert row["util_mean"] == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError, match="at least one pack"):
            curve_rows("fpp", dist, [0.2], packs[:0])


def reference_row(kind, r, lam, packs, outputs):
    """The row of one sweep value from per-pack reference outputs."""
    utils = [out / left_fold(energy) for energy, out in zip(packs.tolist(), outputs)]
    return (kind, r, lam, *utilization_stats(utils))


class TestSweepsEqualBuiltNetworks:
    """Every sweep row equals, bit for bit, one reference per pack."""

    @pytest.mark.parametrize("kind", ["fpp", "cppp", "lshippp"])
    def test_tradeoff_curve(self, kind, layer1_9, supply9, expected9):
        r_grid = [0.0, 0.05, 0.1, 0.2, 0.35, 0.6, 1.5]
        packs = keyed_packs(supply9, 9, 45, seed=4)
        basis = left_fold(expected9.tolist())
        splits = [split_budget(kind, 9, r, basis, layer1_9) for r in r_grid]
        rows = sweep_rows(packs, supply9.voltage_v, splits)
        assert len(rows) == len(r_grid)
        for r, split, row in zip(r_grid, splits, rows):
            if kind == "fpp":
                outputs = [
                    left_fold(min(e, split.caps_kwh[0]) for e in p)
                    for p in packs.tolist()
                ]
            else:
                outputs = [
                    cut_reference(*wired(p, split.pairs, split.caps_kwh))
                    for p in packs
                ]
            expected = reference_row(kind, r, split.lambda_h, packs, outputs)
            assert repr(row) == repr(expected)

    def test_design_layer2(self, layer1_9, supply9, expected9):
        lambda_grid = [0.0, 0.05, 0.3, 1.0, 2.5, 5.0]
        packs = keyed_packs(supply9, 9, 45, seed=8)
        basis = left_fold(expected9.tolist())
        splits = [split_lambda(layer1_9, lam, basis) for lam in lambda_grid]
        rows = sweep_rows(packs, supply9.voltage_v, splits)
        horizon = layer1_9.horizon_h
        aggregate = 3 * layer1_9.rating_kw * horizon
        pairs = layer1_9.edges + tuple((j, j + 1) for j in range(8))
        duty = tuple(abs(flow) for flow in layer1_9.optimal_flows_kwh)
        for lam, row in zip(lambda_grid, rows):
            cap2 = lam * aggregate / 8
            caps = duty + (cap2,) * 8
            outputs = [cut_reference(*wired(p, pairs, caps)) for p in packs]
            rating_r = (1 + lam) * aggregate / basis
            expected = reference_row("lshippp", rating_r, lam, packs, outputs)
            assert repr(row) == repr(expected)

    def test_sweep_needs_a_pack(self):
        with pytest.raises(ValueError, match="at least one pack"):
            sweep_energy(np.empty((0, 9)), VOLTS, [])

    def test_sweep_rejects_mixed_wiring(self, layer1_9, supply9, expected9):
        packs = keyed_packs(supply9, 9, 1, seed=8)
        basis = left_fold(expected9.tolist())

        def split(kind, r=0.2):
            return split_budget(kind, 9, r, basis, layer1_9)

        ladder = tuple((j, j + 1) for j in range(8))
        other_layer1 = dataclasses.replace(
            split("lshippp"), pairs=((0, 1), (0, 2), (0, 3)) + ladder
        )
        for splits in (
            [split("cppp"), split("fpp")],
            [split("cppp"), split_lambda(layer1_9, 0.5, basis)],
            [split("lshippp"), other_layer1],
            [],
        ):
            with pytest.raises(ValueError, match="one kind and one wiring"):
                sweep_energy(packs, VOLTS, splits)
        # One kind and wiring at several budgets is one sweep.
        assert len(sweep_energy(packs, VOLTS, [split("cppp", 0.1), split("cppp")])) == 2


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_sensitive_to_every_part(self):
        base = derive_seed(1, "a", 2)
        assert derive_seed(2, "a", 2) != base
        assert derive_seed(1, "b", 2) != base
        assert derive_seed(1, "a", 3) != base

    def test_fits_in_128_bits(self):
        assert 0 <= derive_seed(123, "x") < 2**128

    @pytest.mark.parametrize("mean, std, rate", [(33.0, 5.0, 2.0), (50.0, 25.0, 0.4)])
    def test_prefix_hashed_keys_are_the_cell_keys(self, mean, std, rate):
        # An ensemble run keys trajectory t of a cell (seed, "traj", mean,
        # std, rate, t); a run that starts mid-cell keeps the cell's keys.
        keys = derive_seeds(99, "traj", mean, std, rate, indices=range(150))
        cell = [derive_seed(99, "traj", mean, std, rate, t) for t in range(150)]
        assert keys == cell
        tail = derive_seeds(99, "traj", mean, std, rate, indices=range(111, 150))
        assert tail == keys[111:]

    def test_prefix_hashed_keys_without_a_label(self):
        unlabelled = [derive_seed(7, i) for i in range(3)]
        assert derive_seeds(7, indices=range(3)) == unlabelled
        assert derive_seeds(7, "pack", indices=range(0)) == []


class TestDefaultLambdaGrid:
    def test_starts_at_zero_and_spans_range(self):
        # Zero, then 20 log-spaced ladder-to-layer-1 ratios in [0.05, 5].
        grid = default_scenario().lambda_grid
        assert grid[0] == 0.0
        assert grid[1] == pytest.approx(0.05)
        assert grid[-1] == pytest.approx(5.0)
        assert len(grid) == 21
        log_spaced = np.logspace(math.log10(0.05), math.log10(5.0), 20)
        assert list(grid[1:]) == log_spaced.tolist()
