import math

import pytest

from besspp.architectures import (
    ADJACENT_LAYER,
    SPARSE_LAYER,
    ArchitectureConfig,
    ArchitectureKind,
    BudgetSplit,
    ConfigurationError,
    assemble_network,
    layer1_aggregate_kwh,
    split_budget,
    split_lambda,
    validate_network,
)
from besspp.designer import design_layer1
from besspp.flows import ConverterEdge, FlowNetwork, max_deliverable_energy
from besspp.supply import BatteryModule, ExpectedSet


def pack(*caps: float) -> tuple[BatteryModule, ...]:
    return tuple(BatteryModule(float(c), 50.0) for c in caps)


@pytest.fixture(scope="module")
def layer1_345():
    expected = ExpectedSet(pack(3, 4, 5))
    return design_layer1(expected, 1, 1.0)


class TestConfig:
    def test_roundtrip(self):
        config = ArchitectureConfig(
            kind="lshippp",
            n_modules=9,
            rating_r=0.2,
            eta_c=0.85,
            n_layer1=3,
            lambda_h=0.83,
            horizon_h=2.25,
        )
        again = ArchitectureConfig.from_dict(config.to_dict())
        assert again == config

    def test_json_keys(self):
        config = ArchitectureConfig(kind="fpp", n_modules=9, rating_r=0.3)
        assert set(config.to_dict()) == {
            "kind",
            "n_modules",
            "n_layer1",
            "lambda_h",
            "rating_r",
            "eta_c",
            "horizon_h",
        }

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            ArchitectureConfig.from_dict(
                {"kind": "fpp", "n_modules": 9, "rating_r": 0.3, "bogus": 1}
            )

    def test_lshippp_requires_layer1_count(self):
        with pytest.raises(ConfigurationError):
            ArchitectureConfig(kind="lshippp", n_modules=9, rating_r=0.2)

    def test_dedicated_kinds_reject_layer1_count(self):
        with pytest.raises(ConfigurationError):
            ArchitectureConfig(kind="fpp", n_modules=9, rating_r=0.2, n_layer1=3)

    def test_kind_coercion(self):
        config = ArchitectureConfig(kind="cppp", n_modules=4, rating_r=0.1)
        assert config.kind is ArchitectureKind.CPPP


def cppp_network(modules, rating_r, horizon_h, basis=None):
    """The cppp network whose budget is ``rating_r`` times the pack's energy."""
    if basis is None:
        basis = sum(b.capacity_kwh for b in modules)
    split = split_budget("cppp", len(modules), rating_r, basis, horizon_h)
    return assemble_network(modules, split, horizon_h)


def lshippp_network(modules, layer1, lambda_h):
    """Layer 1 at its procured rating plus a ``lambda_h`` ladder."""
    n = len(modules)
    cap1 = layer1.rating_kw * layer1.horizon_h
    rung = lambda_h * layer1_aggregate_kwh(layer1, layer1.horizon_h) / (n - 1)
    ladder = tuple((j, j + 1) for j in range(n - 1))
    split = BudgetSplit(
        ArchitectureKind.LSHIPPP,
        tuple(layer1.edges) + ladder,
        (cap1,) * len(layer1.edges) + (rung,) * (n - 1),
        rung,
        lambda_h,
    )
    return assemble_network(modules, split, layer1.horizon_h)


def budget_network(modules, layer1, rating_r):
    """The lshippp network and ``lambda_h`` of a total budget ``rating_r``."""
    basis = sum(b.capacity_kwh for b in modules)
    split = split_budget("lshippp", len(modules), rating_r, basis, 1.0, layer1)
    return assemble_network(modules, split, 1.0), split.lambda_h


class TestFppBuilder:
    """fpp is its split alone: one cap per module and no string edges."""

    def test_budget_split_evenly(self):
        split = split_budget("fpp", 3, 0.5, 12.0, 1.0)
        assert split.caps_kwh == pytest.approx((2.0, 2.0, 2.0))
        assert split.pairs == ()

    def test_budget_invariant_exact(self):
        split = split_budget("fpp", 3, 0.37, 12.0, 2.0)
        assert sum(split.caps_kwh) == pytest.approx(0.37 * 12.0, abs=1e-12)

    def test_procurement_basis_override(self):
        split = split_budget("fpp", 3, 0.5, 24.0, 1.0)
        assert split.caps_kwh == pytest.approx((4.0, 4.0, 4.0))


class TestCpppBuilder:
    def test_adjacent_ladder(self):
        net = cppp_network(pack(3, 4, 5), rating_r=0.5, horizon_h=1.0)
        assert [
            (e.from_battery, e.to_battery) for e in net.converter_edges
        ] == [(0, 1), (1, 2)]
        assert all(e.layer == ADJACENT_LAYER for e in net.converter_edges)
        # Budget 0.5 * 12 split over 2 rungs.
        assert [e.energy_cap_kwh for e in net.converter_edges] == pytest.approx(
            [3.0, 3.0]
        )

    def test_budget_invariant_exact(self):
        net = cppp_network(pack(2, 2, 2, 2), 0.123, 1.5)
        total = sum(e.energy_cap_kwh for e in net.converter_edges)
        assert total == pytest.approx(0.123 * 8.0, abs=1e-12)

    def test_zero_rating_allowed(self):
        net = cppp_network(pack(3, 4, 5), 0.0, 1.0)
        assert all(e.energy_cap_kwh == 0.0 for e in net.converter_edges)
        sol = max_deliverable_energy(net)
        assert sol.total_output == pytest.approx(9.0)


class TestLshipppBuilder:
    def test_two_layer_structure(self, layer1_345):
        net = lshippp_network(pack(3, 4, 5), layer1_345, lambda_h=1.0)
        layers = [e.layer for e in net.converter_edges]
        assert layers == [SPARSE_LAYER, ADJACENT_LAYER, ADJACENT_LAYER]

    def test_identical_layer1_caps(self, layer1_345):
        net = lshippp_network(pack(3, 4, 5), layer1_345, 0.5)
        sparse = [e for e in net.converter_edges if e.layer == SPARSE_LAYER]
        cap = layer1_345.rating_kw * 1.0
        assert [e.energy_cap_kwh for e in sparse] == pytest.approx([cap])

    def test_ladder_cap_from_lambda(self, layer1_345):
        lam = 0.8
        net = assemble_network(pack(3, 4, 5), split_lambda(layer1_345, lam), 1.0)
        ladder = [e for e in net.converter_edges if e.layer == ADJACENT_LAYER]
        layer1_aggregate = 1 * layer1_345.rating_kw * 1.0
        expected = lam * layer1_aggregate / 2
        assert [e.energy_cap_kwh for e in ladder] == pytest.approx(
            [expected, expected]
        )

    def test_budget_invariant(self, layer1_345):
        lam = 1.3
        net = lshippp_network(pack(3, 4, 5), layer1_345, lam)
        total = sum(e.energy_cap_kwh for e in net.converter_edges)
        layer1_aggregate = layer1_345.rating_kw * 1.0
        assert total == pytest.approx((1 + lam) * layer1_aggregate)

    def test_mismatched_pack_size(self, layer1_345):
        with pytest.raises(ConfigurationError):
            split_budget("lshippp", 4, 0.25, 18.0, 1.0, layer1_345)
        with pytest.raises(ConfigurationError, match="ladder"):
            assemble_network(pack(3, 4, 5, 6), split_lambda(layer1_345, 1.0), 1.0)


class TestBudgetedLshippp:
    def test_surplus_goes_to_ladder(self, layer1_345):
        # Layer 1 needs rating * T = 1 kWh of cap; budget 0.25 * 12 = 3.
        net, lam = budget_network(pack(3, 4, 5), layer1_345, 0.25)
        layer1_aggregate = layer1_345.rating_kw * 1.0
        assert lam == pytest.approx((3.0 - layer1_aggregate) / layer1_aggregate)
        total = sum(e.energy_cap_kwh for e in net.converter_edges)
        assert total == pytest.approx(3.0)

    def test_below_design_point_scales_layer1(self, layer1_345):
        # Budget smaller than the designed layer-1 aggregate: no ladder.
        layer1_aggregate = layer1_345.rating_kw * 1.0
        r_small = 0.5 * layer1_aggregate / 12.0
        net, lam = budget_network(pack(3, 4, 5), layer1_345, r_small)
        assert lam == 0.0
        sparse = [e for e in net.converter_edges if e.layer == SPARSE_LAYER]
        assert sum(e.energy_cap_kwh for e in sparse) == pytest.approx(
            0.5 * layer1_aggregate
        )
        ladder = [e for e in net.converter_edges if e.layer == ADJACENT_LAYER]
        assert all(e.energy_cap_kwh == 0.0 for e in ladder)

    def test_total_budget_invariant(self, layer1_345):
        for r in (0.05, 0.1, 0.2, 0.4, 0.8):
            net, _ = budget_network(pack(3, 4, 5), layer1_345, r)
            total = sum(e.energy_cap_kwh for e in net.converter_edges)
            assert total == pytest.approx(r * 12.0, abs=1e-9)


class TestBudgetSplit:
    @pytest.mark.parametrize("kind", ["fpp", "cppp", "lshippp"])
    def test_one_cap_per_converter(self, kind, layer1_345):
        split = split_budget(kind, 3, 0.25, 12.0, 1.0, layer1_345)
        n_converters = 3 if kind == "fpp" else len(split.pairs)
        assert split.kind is ArchitectureKind(kind)
        assert len(split.caps_kwh) == n_converters
        assert sum(split.caps_kwh) == pytest.approx(0.25 * 12.0)
        assert split.rung_kwh == split.caps_kwh[-1]
        assert math.isnan(split.lambda_h) == (kind != "lshippp")

    def test_each_kind_carries_its_wiring(self, layer1_9, expected9):
        ladder = tuple((j, j + 1) for j in range(8))
        wiring = {"fpp": (), "cppp": ladder, "lshippp": layer1_9.edges + ladder}
        for kind, pairs in wiring.items():
            split = split_budget(kind, 9, 0.2, expected9.total_kwh, 2.25, layer1_9)
            assert split.pairs == pairs
        assert split_lambda(layer1_9, 0.5).pairs == layer1_9.edges + ladder

    @pytest.mark.parametrize("kind", ["fpp", "cppp", "lshippp"])
    @pytest.mark.parametrize("rating_r", [0.0, 0.05, 0.2, 0.37, 1.5])
    def test_caps_sum_to_the_normalized_rating(
        self, kind, rating_r, layer1_9, expected9
    ):
        # R = P * T / E: the caps of every kind add up to R times the basis.
        basis = expected9.total_kwh
        split = split_budget(kind, 9, rating_r, basis, 2.25, layer1_9)
        assert sum(split.caps_kwh) == pytest.approx(rating_r * basis, rel=1e-12)

    def test_fpp_split_has_no_network(self):
        split = split_budget("fpp", 3, 0.5, 12.0, 1.0)
        with pytest.raises(ConfigurationError, match="no series string"):
            assemble_network(pack(3, 4, 5), split, 1.0)

    def test_lshippp_needs_a_layer1_design(self):
        with pytest.raises(ConfigurationError, match="layer-1 design"):
            split_budget("lshippp", 3, 0.25, 12.0, 1.0)

    def test_lambda_split_caps_layer1_at_designed_duty(self, layer1_345):
        split = split_lambda(layer1_345, 0.8)
        (flow,) = layer1_345.optimal_flows_kwh
        aggregate = layer1_345.rating_kw * layer1_345.horizon_h
        assert split.caps_kwh == (abs(flow), split.rung_kwh, split.rung_kwh)
        assert split.rung_kwh == pytest.approx(0.8 * aggregate / 2)
        with pytest.raises(ConfigurationError):
            split_lambda(layer1_345, -0.1)


class TestValidateNetwork:
    def test_valid_network_is_clean(self):
        net = FlowNetwork(pack(3, 4, 5), (ConverterEdge(0, 2, 1.0),), 1.0)
        assert validate_network(net) == []

    def test_self_loop(self):
        net = FlowNetwork(pack(3, 4), (ConverterEdge(1, 1, 1.0),), 1.0)
        assert any("self" in p for p in validate_network(net))

    def test_index_out_of_range(self):
        net = FlowNetwork(pack(3, 4), (ConverterEdge(0, 5, 1.0),), 1.0)
        assert validate_network(net)

    def test_negative_cap(self):
        net = FlowNetwork(pack(3, 4), (ConverterEdge(0, 1, -2.0),), 1.0)
        assert any("cap" in p for p in validate_network(net))

    def test_duplicate_pair_same_layer(self):
        edges = (ConverterEdge(0, 1, 1.0), ConverterEdge(1, 0, 1.0))
        net = FlowNetwork(pack(3, 4), edges, 1.0)
        assert any("duplicate" in p for p in validate_network(net))

    def test_duplicate_pair_other_layer_ok(self):
        edges = (
            ConverterEdge(0, 1, 1.0, layer=1),
            ConverterEdge(0, 1, 1.0, layer=2),
        )
        net = FlowNetwork(pack(3, 4), edges, 1.0)
        assert validate_network(net) == []

    def test_bad_horizon(self):
        net = FlowNetwork(pack(3, 4), (), 0.0)
        assert any("horizon" in p for p in validate_network(net))

    def test_bad_layer_tag(self):
        net = FlowNetwork(pack(3, 4), (ConverterEdge(0, 1, 1.0, layer=3),), 1.0)
        assert any("layer" in p for p in validate_network(net))


class TestEfficiencyAcrossRatings:
    def test_partial_processing_beats_full_processing_on_loss(self):
        # The processed share R scales the converter loss; dedicated
        # full processing (R = 1) pays it on everything.
        from besspp.metrics import system_efficiency

        assert system_efficiency(0.85, 0.2) > system_efficiency(0.85, 1.0)
        assert system_efficiency(0.85, 0.0) == pytest.approx(1.0)
