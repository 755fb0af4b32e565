import ast
import math
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besspp.architectures import split_budget
from besspp.designer import TRADEOFF_HEADER, sweep_rows
from besspp.metrics import (
    captured_value,
    derating_factor,
    grid_ev_energy_gap,
    system_efficiency,
    utilization_stats,
)


def sweep_row(packs, rating_r, basis_kwh) -> dict:
    """The fpp sweep row of one budget over ``packs``, keyed by column."""
    split = split_budget("fpp", len(packs[0]), rating_r, basis_kwh)
    (row,) = sweep_rows(packs, 50.0, [split])
    return dict(zip(TRADEOFF_HEADER, row))


class TestEnergyUtilization:
    """Delivered energy over the pack's usable energy, as the sweeps report it."""

    def test_from_total(self):
        # 30 kWh converters on 37.5 kWh modules deliver 270 of 337.5 kWh.
        row = sweep_row(np.full((1, 9), 37.5), 0.8, 337.5)
        assert row["util_mean"] == pytest.approx(0.8)

    def test_from_modules(self):
        # 2 kWh converters deliver 4 of 8 and 3 of 4 kWh: each pack is
        # divided by its own total, so the utilizations are 0.5 and 0.75.
        row = sweep_row(np.array([[3.0, 5.0], [1.0, 3.0]]), 1.0, 4.0)
        assert (row["util_mean"], row["util_std"]) == (0.625, 0.125)


class TestNormalizedRating:
    """R = P * T / E, read back from the budget split of every kind."""

    @staticmethod
    def aggregate_power_kw(kind, rating_r, layer1):
        split = split_budget(kind, 9, rating_r, 337.5, layer1)
        return sum(split.caps_kwh) / 2.25

    def test_reference_point(self, layer1_9):
        # 30 kW of converters against 337.5 kWh discharged over 2.25 h.
        for kind in ("fpp", "cppp", "lshippp"):
            power = self.aggregate_power_kw(kind, 0.2, layer1_9)
            assert power == pytest.approx(30.0, rel=1e-12)

    def test_linear_in_power(self, layer1_9):
        for kind in ("fpp", "cppp", "lshippp"):
            power = self.aggregate_power_kw(kind, 0.4, layer1_9)
            assert power == pytest.approx(60.0, rel=1e-12)


class TestSystemEfficiency:
    def test_reference_values(self):
        assert system_efficiency(0.85, 0.15) == pytest.approx(0.9775)
        assert system_efficiency(0.85, 1.0) == pytest.approx(0.85)
        assert system_efficiency(0.85, 0.0) == pytest.approx(1.0)

    def test_exact_linear_form(self):
        for r in np.linspace(0.0, 1.0, 21):
            assert system_efficiency(0.9, float(r)) == 1.0 - (1.0 - 0.9) * float(r)

    def test_processed_share_saturates(self):
        assert system_efficiency(0.85, 1.5) == pytest.approx(0.85)

    def test_validation(self):
        with pytest.raises(ValueError):
            system_efficiency(0.0, 0.5)
        with pytest.raises(ValueError):
            system_efficiency(0.9, -0.1)


class TestInterdecileRange:
    """The ``util_idr`` of a sweep point: type-7 p90 - p10."""

    @staticmethod
    def idr(samples):
        _, _, idr, _, _ = utilization_stats(list(samples))
        return idr

    def test_eleven_point_ramp(self):
        # 0..100 in steps of 10: deciles sit on sample points exactly.
        assert self.idr(range(0, 101, 10)) == pytest.approx(80.0)

    def test_constant_samples(self):
        assert self.idr([5.0] * 12) == 0.0

    def test_matches_numpy_quantiles(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        samples = rng.uniform(0, 1, 97)
        expected = np.quantile(samples, 0.9) - np.quantile(samples, 0.1)
        assert self.idr(samples) == float(expected)


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


_SAMPLE_VALUES = (
    st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, math.inf, -math.inf, math.nan])
    | st.floats(allow_nan=True, allow_infinity=True)
)


class TestDeciles:
    """The p10 and p90 of ``utilization_stats`` are ``np.quantile``'s."""

    @given(st.lists(_SAMPLE_VALUES, min_size=1, max_size=500))
    @settings(max_examples=300, deadline=None)
    def test_bits_equal_np_quantile(self, values):
        # Ties, both zeros, infinities and NaNs (any payload) included.
        arr = np.array(values)
        with np.errstate(invalid="ignore", over="ignore"):
            _, _, _, p10, p90 = utilization_stats(arr)
            expected = [float(np.quantile(arr, q)) for q in (0.1, 0.9)]
        assert [bits(p10), bits(p90)] == [bits(q) for q in expected]

    def test_the_sample_is_left_as_it_is(self):
        samples = np.array([3.0, 1.0, 2.0, 0.0, 5.0])
        utilization_stats(samples)
        assert samples.tolist() == [3.0, 1.0, 2.0, 0.0, 5.0]

    def test_no_numpy_quantile_in_the_package(self):
        # np.quantile and np.percentile pick their partition points with
        # np.unique, which imports numpy.ma; the package computes its deciles
        # with metrics._linear_quantile instead.
        names = {"quantile", "percentile", "nanquantile", "nanpercentile"}
        root = Path(sys.modules["besspp"].__file__).parent
        calls = [
            f"{path.name}:{node.lineno}"
            for path in sorted(root.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Call)
            and (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in names
                or isinstance(node.func, ast.Name)
                and node.func.id in names
            )
        ]
        assert calls == []


class TestGridEvGap:
    def test_positive_gap(self):
        # 60 kWh wanted over 0.4 h against a 45 kW feeder.
        assert grid_ev_energy_gap(60.0, 45.0, 0.4) == pytest.approx(42.0)

    def test_zero_when_grid_covers(self):
        assert grid_ev_energy_gap(10.0, 50.0, 0.2) == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_ev_energy_gap(-1.0, 50.0, 0.2)
        with pytest.raises(ValueError):
            grid_ev_energy_gap(10.0, -1.0, 0.2)


class TestDeratingFactor:
    def test_two_sample_reference(self):
        # mean 100, population std 10: (100 - 30) / 100.
        assert derating_factor([90.0, 110.0]) == pytest.approx(0.7)

    def test_tight_ensemble_near_one(self):
        assert derating_factor([100.0, 100.0, 100.0]) == pytest.approx(1.0)

    def test_clamped_at_zero(self):
        assert derating_factor([1.0, 100.0]) == 0.0

    def test_needs_two_samples_and_positive_mean(self):
        with pytest.raises(ValueError):
            derating_factor([1.0])
        with pytest.raises(ValueError):
            derating_factor([0.0, 0.0])


class TestCapturedValue:
    def test_reference_products(self):
        # Dependable fraction times utilization times the pack energy.
        assert captured_value(0.84, 0.95, 337.5) == pytest.approx(269.33, abs=0.2)
        assert captured_value(0.65, 0.785, 337.5) == pytest.approx(172.2, abs=0.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            captured_value(1.2, 0.5, 100.0)
        with pytest.raises(ValueError):
            captured_value(0.5, -0.1, 100.0)
        with pytest.raises(ValueError):
            captured_value(0.5, 0.5, -1.0)

