import math

import pytest

from besspp.architectures import (
    ArchitectureKind,
    BudgetSplit,
    ConfigurationError,
    layer1_aggregate_kwh,
    split_budget,
    split_lambda,
)
from besspp.designer import design_layer1, sweep_energy
from besspp.flows import cut_form_energy, uncapped_placement_energy

from lp_reference import max_deliverable_energy, min_peak_flow
from test_flows import left_fold, wiring
from test_flows import pack as volt_pack

# Module voltage of every pack here, the supply's default.
VOLTS = 50.0


def pack(*caps: float) -> tuple[list, list]:
    return volt_pack(*caps, voltage=VOLTS)


@pytest.fixture(scope="module")
def layer1_345():
    return design_layer1([3.0, 4.0, 5.0], VOLTS, 1, 1.0)


def cppp_split(modules, rating_r, basis=None):
    """The cppp split whose budget is ``rating_r`` times the pack's energy."""
    energy, _ = modules
    if basis is None:
        basis = sum(energy)
    return split_budget("cppp", len(energy), rating_r, basis)


def lshippp_split(modules, layer1, lambda_h):
    """Layer 1 at its procured rating plus a ``lambda_h`` ladder."""
    energy, _ = modules
    n = len(energy)
    cap1 = layer1.rating_kw * layer1.horizon_h
    aggregate = layer1_aggregate_kwh(layer1)
    rung = lambda_h * aggregate / (n - 1)
    ladder = tuple((j, j + 1) for j in range(n - 1))
    return BudgetSplit(
        ArchitectureKind.LSHIPPP,
        tuple(layer1.edges) + ladder,
        (cap1,) * len(layer1.edges) + (rung,) * (n - 1),
        (1 + lambda_h) * aggregate / sum(energy),
        lambda_h,
    )


def budget_split(modules, layer1, rating_r):
    """The lshippp split of a total budget ``rating_r``."""
    energy, _ = modules
    return split_budget("lshippp", len(energy), rating_r, sum(energy), layer1)


class TestFppBuilder:
    """fpp is its split alone: one cap per module and no string edges."""

    def test_budget_split_evenly(self):
        split = split_budget("fpp", 3, 0.5, 12.0)
        assert split.caps_kwh == pytest.approx((2.0, 2.0, 2.0))
        assert split.pairs == ()

    def test_budget_invariant_exact(self):
        split = split_budget("fpp", 3, 0.37, 12.0)
        assert sum(split.caps_kwh) == pytest.approx(0.37 * 12.0, abs=1e-12)

    def test_procurement_basis_override(self):
        split = split_budget("fpp", 3, 0.5, 24.0)
        assert split.caps_kwh == pytest.approx((4.0, 4.0, 4.0))


class TestCpppBuilder:
    def test_adjacent_ladder(self):
        split = cppp_split(pack(3, 4, 5), rating_r=0.5)
        assert split.pairs == ((0, 1), (1, 2))
        # Budget 0.5 * 12 split over 2 rungs.
        assert split.caps_kwh == pytest.approx((3.0, 3.0))

    def test_budget_invariant_exact(self):
        split = cppp_split(pack(2, 2, 2, 2), 0.123)
        assert sum(split.caps_kwh) == pytest.approx(0.123 * 8.0, abs=1e-12)

    def test_zero_rating_allowed(self):
        modules = pack(3, 4, 5)
        split = cppp_split(modules, 0.0)
        assert all(cap == 0.0 for cap in split.caps_kwh)
        total, _ = max_deliverable_energy(*wiring(modules, split.pairs, split.caps_kwh))
        assert total == pytest.approx(9.0)


class TestLshipppBuilder:
    def test_two_layer_structure(self, layer1_345):
        # The designed layer first, then the adjacent ladder.
        split = lshippp_split(pack(3, 4, 5), layer1_345, lambda_h=1.0)
        assert split.pairs == layer1_345.edges + ((0, 1), (1, 2))
        assert split_lambda(layer1_345, 1.0, 12.0).pairs == split.pairs

    def test_identical_layer1_caps(self, layer1_345):
        split = lshippp_split(pack(3, 4, 5), layer1_345, 0.5)
        cap = layer1_345.rating_kw * 1.0
        assert split.caps_kwh[:1] == pytest.approx((cap,))

    def test_ladder_cap_from_lambda(self, layer1_345):
        lam = 0.8
        split = split_lambda(layer1_345, lam, 12.0)
        layer1_aggregate = 1 * layer1_345.rating_kw * 1.0
        expected = lam * layer1_aggregate / 2
        assert split.caps_kwh[1:] == pytest.approx((expected, expected))

    def test_budget_invariant(self, layer1_345):
        lam = 1.3
        split = lshippp_split(pack(3, 4, 5), layer1_345, lam)
        layer1_aggregate = layer1_345.rating_kw * 1.0
        assert sum(split.caps_kwh) == pytest.approx((1 + lam) * layer1_aggregate)

    def test_mismatched_pack_size(self, layer1_345):
        with pytest.raises(ConfigurationError):
            split_budget("lshippp", 4, 0.25, 18.0, layer1_345)


class TestBudgetedLshippp:
    def test_surplus_goes_to_ladder(self, layer1_345):
        # Layer 1 needs rating * T = 1 kWh of cap; budget 0.25 * 12 = 3.
        split = budget_split(pack(3, 4, 5), layer1_345, 0.25)
        layer1_aggregate = layer1_345.rating_kw * 1.0
        assert split.lambda_h == pytest.approx(
            (3.0 - layer1_aggregate) / layer1_aggregate
        )
        assert sum(split.caps_kwh) == pytest.approx(3.0)

    def test_below_design_point_scales_layer1(self, layer1_345):
        # Budget smaller than the designed layer-1 aggregate: no ladder.
        layer1_aggregate = layer1_345.rating_kw * 1.0
        r_small = 0.5 * layer1_aggregate / 12.0
        split = budget_split(pack(3, 4, 5), layer1_345, r_small)
        assert split.lambda_h == 0.0
        m = len(layer1_345.edges)
        assert sum(split.caps_kwh[:m]) == pytest.approx(0.5 * layer1_aggregate)
        assert all(cap == 0.0 for cap in split.caps_kwh[m:])

    def test_total_budget_invariant(self, layer1_345):
        for r in (0.05, 0.1, 0.2, 0.4, 0.8):
            split = budget_split(pack(3, 4, 5), layer1_345, r)
            assert sum(split.caps_kwh) == pytest.approx(r * 12.0, abs=1e-9)

    def test_layer1_that_carries_nothing_sends_the_budget_to_the_ladder(self):
        # Equal modules need no layer-1 flow, so the design point is 0: a
        # positive budget goes to the ladder, and lambda_h is its limit, inf.
        layer1 = design_layer1([4.0, 4.0, 4.0], VOLTS, 1, 1.0)
        assert layer1_aggregate_kwh(layer1) == 0.0
        split = budget_split(pack(4, 4, 4), layer1, 0.25)
        assert split.lambda_h == math.inf
        assert split.caps_kwh == (0.0, 1.5, 1.5)
        zero = budget_split(pack(4, 4, 4), layer1, 0.0)
        assert (zero.lambda_h, zero.caps_kwh) == (0.0, (0.0, 0.0, 0.0))


class TestBudgetSplit:
    @pytest.mark.parametrize("kind", ["fpp", "cppp", "lshippp"])
    def test_one_cap_per_converter(self, kind, layer1_345):
        split = split_budget(kind, 3, 0.25, 12.0, layer1_345)
        n_converters = 3 if kind == "fpp" else len(split.pairs)
        assert split.kind is ArchitectureKind(kind)
        assert len(split.caps_kwh) == n_converters
        assert sum(split.caps_kwh) == pytest.approx(0.25 * 12.0)
        assert math.isnan(split.lambda_h) == (kind != "lshippp")

    def test_each_kind_carries_its_wiring(self, layer1_9, expected9):
        ladder = tuple((j, j + 1) for j in range(8))
        wiring = {"fpp": (), "cppp": ladder, "lshippp": layer1_9.edges + ladder}
        for kind, pairs in wiring.items():
            basis = left_fold(expected9.tolist())
            split = split_budget(kind, 9, 0.2, basis, layer1_9)
            assert split.pairs == pairs
        assert split_lambda(layer1_9, 0.5, 337.5).pairs == layer1_9.edges + ladder

    @pytest.mark.parametrize("kind", ["fpp", "cppp", "lshippp"])
    @pytest.mark.parametrize("rating_r", [0.0, 0.05, 0.2, 0.37, 1.5])
    def test_caps_sum_to_the_normalized_rating(
        self, kind, rating_r, layer1_9, expected9
    ):
        # R = P * T / E: the caps of every kind add up to R times the basis.
        basis = left_fold(expected9.tolist())
        split = split_budget(kind, 9, rating_r, basis, layer1_9)
        assert sum(split.caps_kwh) == pytest.approx(rating_r * basis, rel=1e-12)

    def test_rating_r_is_pinned_to_the_bit(self, layer1_9, expected9):
        # The R column of a sweep row.  split_budget keeps the R it is given;
        # split_lambda spends layer 1 at its procured rating plus the
        # ladder, over the basis: the values the lambda sweep always wrote.
        basis = left_fold(expected9.tolist())
        for kind in ("fpp", "cppp", "lshippp"):
            for r in (0.0, 0.19473684210526315, 0.2, 1.5):
                split = split_budget(kind, 9, r, basis, layer1_9)
                assert split.rating_r.hex() == r.hex()
        pinned = {
            0.0: "0x1.bf7d2950fe035p-4",
            0.5: "0x1.4f9ddefcbe827p-3",
            5.0: "0x1.4f9ddefcbe827p-1",
        }
        for lam, bits in pinned.items():
            assert split_lambda(layer1_9, lam, basis).rating_r.hex() == bits

    def test_fpp_split_has_no_network(self):
        # No string edges: the sweep takes the closed form, one cap a module.
        split = split_budget("fpp", 3, 0.5, 12.0)
        assert split.pairs == ()
        assert sweep_energy([[3.0, 4.0, 5.0]], VOLTS, [split]).tolist() == [[6.0]]

    def test_lshippp_needs_a_layer1_design(self):
        with pytest.raises(ConfigurationError, match="layer-1 design"):
            split_budget("lshippp", 3, 0.25, 12.0)

    def test_lambda_split_caps_layer1_at_designed_duty(self, layer1_345):
        split = split_lambda(layer1_345, 0.8, 12.0)
        (flow,) = layer1_345.optimal_flows_kwh
        aggregate = layer1_345.rating_kw * layer1_345.horizon_h
        rung = pytest.approx(0.8 * aggregate / 2)
        assert split.caps_kwh == (abs(flow), rung, rung)
        with pytest.raises(ConfigurationError):
            split_lambda(layer1_345, -0.1, 12.0)


def every_evaluator(modules, pairs, caps) -> None:
    """Evaluate one wired string by the cut form and both LPs."""
    string = wiring(modules, pairs, caps)
    cut_form_energy([string[0]], [string[1]], pairs, [caps])
    max_deliverable_energy(*string)
    min_peak_flow(*string, 0.0)


class TestValidateNetwork:
    """One wiring check guards the cut form, both LPs and the placements."""

    def test_valid_network_is_clean(self):
        every_evaluator(pack(3, 4, 5), [(0, 2)], [1.0])

    def test_self_loop(self):
        with pytest.raises(ValueError, match="distinct modules"):
            every_evaluator(pack(3, 4), [(1, 1)], [1.0])
        with pytest.raises(ValueError, match="distinct modules"):
            uncapped_placement_energy(*pack(3, 4), [((1, 1),)])

    def test_index_out_of_range(self):
        for pair in ((0, 5), (-1, 0)):
            with pytest.raises(ValueError, match="distinct modules of 0..1"):
                every_evaluator(pack(3, 4), [pair], [1.0])
            with pytest.raises(ValueError, match="distinct modules of 0..1"):
                uncapped_placement_energy(*pack(3, 4), [(pair,)])

    def test_negative_cap(self):
        for cap in (-2.0, math.nan):
            with pytest.raises(ValueError, match="caps must be >= 0"):
                every_evaluator(pack(3, 4), [(0, 1)], [cap])

    def test_duplicate_pair_other_layer_ok(self):
        # A layer-1 edge and a ladder rung on one pair, as lshippp splits
        # wire them: legal, and their caps add.
        modules = pack(3, 5)
        every_evaluator(modules, [(0, 1), (0, 1)], [0.25, 0.5])
        twice, _ = max_deliverable_energy(
            *wiring(modules, [(0, 1), (1, 0)], [0.25, 0.5])
        )
        once, _ = max_deliverable_energy(*wiring(modules, [(0, 1)], [0.75]))
        assert twice == pytest.approx(once) == pytest.approx(7.5)
        ((cut,),) = cut_form_energy(
            [[3.0, 5.0]], [[50.0, 50.0]], [(0, 1)] * 2, [[0.25, 0.5]]
        )
        assert cut == pytest.approx(7.5)


class TestEfficiencyAcrossRatings:
    def test_partial_processing_beats_full_processing_on_loss(self):
        # The processed share R scales the converter loss; dedicated
        # full processing (R = 1) pays it on everything.
        from besspp.metrics import system_efficiency

        assert system_efficiency(0.85, 0.2) > system_efficiency(0.85, 1.0)
        assert system_efficiency(0.85, 0.0) == pytest.approx(1.0)
