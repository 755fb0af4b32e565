import math

import pytest

from besspp.architectures import (
    ADJACENT_LAYER,
    SPARSE_LAYER,
    ArchitectureConfig,
    ArchitectureKind,
    ConfigurationError,
    build_cppp,
    build_fpp,
    build_lshippp,
    build_lshippp_for_budget,
    converter_pairs,
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


class TestFppBuilder:
    def test_budget_split_evenly(self):
        net = build_fpp(pack(3, 4, 5), rating_r=0.5, horizon_h=1.0)
        assert net.output_caps == pytest.approx((2.0, 2.0, 2.0))
        assert net.converter_edges == ()

    def test_budget_invariant_exact(self):
        modules = pack(3, 4, 5)
        net = build_fpp(modules, 0.37, 2.0)
        assert sum(net.output_caps) == pytest.approx(0.37 * 12.0, abs=1e-12)

    def test_procurement_basis_override(self):
        net = build_fpp(pack(3, 4, 5), 0.5, 1.0, budget_basis_kwh=24.0)
        assert net.output_caps == pytest.approx((4.0, 4.0, 4.0))


class TestCpppBuilder:
    def test_adjacent_ladder(self):
        net = build_cppp(pack(3, 4, 5), rating_r=0.5, horizon_h=1.0)
        assert [
            (e.from_battery, e.to_battery) for e in net.converter_edges
        ] == [(0, 1), (1, 2)]
        assert all(e.layer == ADJACENT_LAYER for e in net.converter_edges)
        # Budget 0.5 * 12 split over 2 rungs.
        assert [e.energy_cap_kwh for e in net.converter_edges] == pytest.approx(
            [3.0, 3.0]
        )

    def test_budget_invariant_exact(self):
        net = build_cppp(pack(2, 2, 2, 2), 0.123, 1.5)
        total = sum(e.energy_cap_kwh for e in net.converter_edges)
        assert total == pytest.approx(0.123 * 8.0, abs=1e-12)

    def test_zero_rating_allowed(self):
        net = build_cppp(pack(3, 4, 5), 0.0, 1.0)
        assert all(e.energy_cap_kwh == 0.0 for e in net.converter_edges)
        sol = max_deliverable_energy(net)
        assert sol.total_output == pytest.approx(9.0)


class TestLshipppBuilder:
    def test_two_layer_structure(self, layer1_345):
        net = build_lshippp(pack(3, 4, 5), layer1_345, lambda_h=1.0, horizon_h=1.0)
        layers = [e.layer for e in net.converter_edges]
        assert layers == [SPARSE_LAYER, ADJACENT_LAYER, ADJACENT_LAYER]

    def test_identical_layer1_caps(self, layer1_345):
        net = build_lshippp(pack(3, 4, 5), layer1_345, 0.5, 1.0)
        sparse = [e for e in net.converter_edges if e.layer == SPARSE_LAYER]
        cap = layer1_345.rating_kw * 1.0
        assert [e.energy_cap_kwh for e in sparse] == pytest.approx([cap])

    def test_ladder_cap_from_lambda(self, layer1_345):
        lam = 0.8
        net = build_lshippp(pack(3, 4, 5), layer1_345, lam, 1.0)
        ladder = [e for e in net.converter_edges if e.layer == ADJACENT_LAYER]
        layer1_aggregate = 1 * layer1_345.rating_kw * 1.0
        expected = lam * layer1_aggregate / 2
        assert [e.energy_cap_kwh for e in ladder] == pytest.approx(
            [expected, expected]
        )

    def test_budget_invariant(self, layer1_345):
        lam = 1.3
        net = build_lshippp(pack(3, 4, 5), layer1_345, lam, 1.0)
        total = sum(e.energy_cap_kwh for e in net.converter_edges)
        layer1_aggregate = layer1_345.rating_kw * 1.0
        assert total == pytest.approx((1 + lam) * layer1_aggregate)

    def test_mismatched_pack_size(self, layer1_345):
        with pytest.raises(ConfigurationError):
            build_lshippp(pack(3, 4, 5, 6), layer1_345, 1.0, 1.0)


class TestBudgetedLshippp:
    def test_surplus_goes_to_ladder(self, layer1_345):
        # Layer 1 needs rating * T = 1 kWh of cap; budget 0.25 * 12 = 3.
        net, lam = build_lshippp_for_budget(pack(3, 4, 5), layer1_345, 0.25, 1.0)
        layer1_aggregate = layer1_345.rating_kw * 1.0
        assert lam == pytest.approx((3.0 - layer1_aggregate) / layer1_aggregate)
        total = sum(e.energy_cap_kwh for e in net.converter_edges)
        assert total == pytest.approx(3.0)

    def test_below_design_point_scales_layer1(self, layer1_345):
        # Budget smaller than the designed layer-1 aggregate: no ladder.
        layer1_aggregate = layer1_345.rating_kw * 1.0
        r_small = 0.5 * layer1_aggregate / 12.0
        net, lam = build_lshippp_for_budget(pack(3, 4, 5), layer1_345, r_small, 1.0)
        assert lam == 0.0
        sparse = [e for e in net.converter_edges if e.layer == SPARSE_LAYER]
        assert sum(e.energy_cap_kwh for e in sparse) == pytest.approx(
            0.5 * layer1_aggregate
        )
        ladder = [e for e in net.converter_edges if e.layer == ADJACENT_LAYER]
        assert all(e.energy_cap_kwh == 0.0 for e in ladder)

    def test_total_budget_invariant(self, layer1_345):
        for r in (0.05, 0.1, 0.2, 0.4, 0.8):
            net, _ = build_lshippp_for_budget(pack(3, 4, 5), layer1_345, r, 1.0)
            total = sum(e.energy_cap_kwh for e in net.converter_edges)
            assert total == pytest.approx(r * 12.0, abs=1e-9)


class TestBudgetSplit:
    @pytest.mark.parametrize("kind", ["fpp", "cppp", "lshippp"])
    def test_one_cap_per_converter(self, kind, layer1_345):
        split = split_budget(kind, 3, 0.25, 12.0, 1.0, layer1_345)
        n_converters = 3 if kind == "fpp" else len(converter_pairs(kind, 3, layer1_345))
        assert len(split.caps_kwh) == n_converters
        assert sum(split.caps_kwh) == pytest.approx(0.25 * 12.0)
        assert split.rung_kwh == split.caps_kwh[-1]
        assert math.isnan(split.lambda_h) == (kind != "lshippp")

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

    def test_output_caps_must_cover_all_modules(self):
        net = FlowNetwork(pack(3, 4, 5), (), 1.0, output_caps=(1.0, 1.0))
        assert validate_network(net)

    def test_output_caps_exclude_edges(self):
        net = FlowNetwork(
            pack(3, 4),
            (ConverterEdge(0, 1, 1.0),),
            1.0,
            output_caps=(1.0, 1.0),
        )
        assert validate_network(net)

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
