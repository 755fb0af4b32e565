import csv
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besspp.plaza import (
    Arrivals,
    cycle_phases,
    draw_arrivals,
    powers_at,
    replay_lanes,
)
from besspp.flows import cut_form_energy
from besspp.scenario import DemandModel, GridProfile, ScenarioError, default_scenario
from besspp.studies import _curtailed_minutes, run_day

from plaza_oracle import (
    lane_cycles,
    power_at,
    reference_draw,
    reference_phases,
    reference_replay,
)


class TestGridProfile:
    def test_piecewise_lookup_and_wrap(self):
        grid = GridProfile(((0.0, 50.0), (6.0, 30.0), (18.0, 40.0)))
        times = np.array([0.0, 5.99, 6.0, 17.9, 23.0, 24.5])
        # 24.5 h wraps into the next day.
        expected = [50.0, 50.0, 30.0, 30.0, 40.0, 50.0]
        assert powers_at(grid, times).tolist() == expected
        assert [power_at(grid, t) for t in times.tolist()] == expected

    def test_constant(self):
        grid = GridProfile(((0.0, 42.0),))
        assert powers_at(grid, np.array([0.0, 13.7, 30.0])).tolist() == [42.0] * 3

    @pytest.mark.parametrize(
        "grid",
        [default_scenario().grid_profile, GridProfile(((0.0, 42.0),))],
        ids=["default", "constant"],
    )
    def test_powers_at_matches_scalar_lookup(self, grid):
        starts = np.array([start for start, _ in grid.segments])
        times = np.concatenate(
            [np.arange(48 * 60 + 1) / 60.0, starts, starts + 24.0, starts + 48.0]
        )
        expected = [power_at(grid, float(t)) for t in times]
        assert np.array_equal(powers_at(grid, times), expected)

    def test_validation(self):
        # The record checks nothing: a scenario built on it refuses each bad
        # profile, named grid_profile.
        base = default_scenario()
        for segments, problem in [
            (((1.0, 50.0),), "must have a first segment, at hour 0"),
            (((0.0, 50.0), (0.0, 40.0)), "starts must strictly increase"),
            (((0.0, -1.0),), "powers must be nonnegative"),
            (((0.0, 50.0), (math.nan, 40.0)), "starts and powers must be finite"),
            (((0.0, math.inf),), "starts and powers must be finite"),
        ]:
            problem = re.escape(f"grid_profile {problem}")
            with pytest.raises(ScenarioError, match=problem):
                base.replace(grid_profile=GridProfile(segments))

    def test_csv_roundtrip(self, tmp_path):
        grid = GridProfile(((0.0, 55.0), (7.5, 32.5), (21.0, 48.0)))
        path = tmp_path / "grid.csv"
        rows = [f"{start!r},{kw!r}" for start, kw in grid.segments]
        path.write_text("\r\n".join(["time_h,power_kw", *rows, ""]), newline="")
        assert GridProfile.from_csv(path) == grid

    def test_csv_header_enforced(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("hour,kw\r\n0.0,5.0\r\n")
        with pytest.raises(ValueError):
            GridProfile.from_csv(path)


class TestEffectiveCapacity:
    def test_matches_deliverable_energy(self):
        # The monolith's usable energy is the network's deliverable energy.
        # A 3/4/5 kWh string with one uncapped converter across its ends.
        ((got,),) = cut_form_energy(
            [[3.0, 4.0, 5.0]], [[50.0] * 3], [(0, 2)], [[math.inf]]
        )
        assert got == pytest.approx(12.0)


# The seven arrays of cycle_phases, in order.
PHASES = (
    "full_power_kw",
    "bess_kw",
    "full_h",
    "curtailed_h",
    "bess_delivered_kwh",
    "unmet_kwh",
    "recharge_h",
)


def _scalar_phases(capacity, grid_kw, demand, charger, bess_power) -> dict:
    """:func:`cycle_phases` of one cycle, as floats by name."""
    phases = cycle_phases(capacity, grid_kw, demand, charger, bess_power)
    return dict(zip(PHASES, map(float, phases), strict=True))


class TestEvaluateCycle:
    """The phase arithmetic of a single cycle."""

    def test_reference_uncurtailed(self):
        # 200 kWh unit, 50 kW grid, 150 kW charger: the unit covers 100 kW.
        phases = _scalar_phases(200.0, 50.0, 30.0, 150.0, 150.0)
        assert phases["full_power_kw"] == 150.0
        assert phases["bess_kw"] == 100.0
        assert phases["full_h"] == pytest.approx(0.2)
        assert phases["curtailed_h"] == 0.0
        assert phases["bess_delivered_kwh"] == pytest.approx(20.0)
        assert phases["recharge_h"] == pytest.approx(0.4)
        assert phases["unmet_kwh"] == 0.0

    def test_reference_curtailed(self):
        # Same cycle with a 10 kWh unit: depletion after 0.1 h, pedestal
        # covers the remaining 15 kWh at 50 kW.
        phases = _scalar_phases(10.0, 50.0, 30.0, 150.0, 150.0)
        assert phases["full_h"] == pytest.approx(0.1)
        assert phases["bess_delivered_kwh"] == pytest.approx(10.0)
        assert phases["curtailed_h"] == pytest.approx(0.3)
        assert phases["unmet_kwh"] == 0.0
        assert phases["recharge_h"] == pytest.approx(0.2)

    def test_no_grid_terminates_with_unmet(self):
        phases = _scalar_phases(10.0, 0.0, 30.0, 150.0, 150.0)
        assert phases["full_power_kw"] == 150.0
        assert phases["full_h"] == pytest.approx(10.0 / 150.0)
        assert phases["curtailed_h"] == 0.0
        assert phases["unmet_kwh"] == pytest.approx(20.0)
        assert math.isinf(phases["recharge_h"])

    def test_no_source_at_all(self):
        phases = _scalar_phases(0.0, 0.0, 30.0, 150.0, 150.0)
        assert phases["unmet_kwh"] == pytest.approx(30.0)
        assert phases["full_h"] == 0.0
        assert phases["recharge_h"] == 0.0

    def test_grid_larger_than_charger(self):
        # Grid alone saturates the charger: the unit is never tapped.
        phases = _scalar_phases(50.0, 200.0, 30.0, 150.0, 150.0)
        assert phases["bess_kw"] == 0.0
        assert phases["bess_delivered_kwh"] == 0.0
        assert phases["full_h"] == pytest.approx(0.2)
        assert phases["recharge_h"] == 0.0

    def test_bess_power_limit(self):
        phases = _scalar_phases(100.0, 50.0, 30.0, 150.0, 60.0)
        assert phases["bess_kw"] == 60.0
        assert phases["full_power_kw"] == 110.0

    def test_validation(self):
        with pytest.raises(ValueError, match="charger_max_kw"):
            _scalar_phases(10.0, 50.0, 30.0, 0.0, 150.0)
        with pytest.raises(ValueError, match="demand_kwh"):
            _scalar_phases(10.0, 50.0, -1.0, 150.0, 150.0)
        with pytest.raises(ValueError, match="demand_kwh"):
            cycle_phases([10.0, 10.0], 50.0, [30.0, -1.0], 150.0, 150.0)

    @given(
        cases=st.lists(
            st.tuples(
                st.floats(0.0, 300.0) | st.sampled_from([0.0, math.inf]),
                st.floats(0.0, 200.0) | st.sampled_from([0.0, 5e-324, 1e-300]),
                st.floats(0.0, 300.0) | st.just(0.0),
                st.floats(0.0, 300.0) | st.just(0.0),
            ),
            min_size=1,
            max_size=20,
        ),
        charger=st.floats(1.0, 300.0) | st.just(150.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_array_phases_equal_scalar_reference(self, cases, charger):
        capacity, grid, demand, bess_power = map(np.array, zip(*cases))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phases = cycle_phases(capacity, grid, demand, charger, bess_power)
        assert len(phases) == len(PHASES)
        for k, (cap, grid_kw, dem, power) in enumerate(cases):
            expected = reference_phases(cap, grid_kw, dem, charger, power)
            assert tuple(float(values[k]) for values in phases) == expected
            scalar = _scalar_phases(cap, grid_kw, dem, charger, power)
            assert tuple(scalar.values()) == expected

    def test_zero_demand(self):
        phases = _scalar_phases(100.0, 50.0, 0.0, 150.0, 150.0)
        assert phases["full_h"] == 0.0
        assert phases["bess_delivered_kwh"] == 0.0
        assert phases["recharge_h"] == 0.0

    @given(
        capacity=st.floats(0.0, 300.0),
        grid=st.floats(0.0, 200.0),
        demand=st.floats(0.0, 150.0),
        bess_power=st.floats(0.0, 200.0),
    )
    @settings(max_examples=500)
    def test_energy_balance(self, capacity, grid, demand, bess_power):
        phases = _scalar_phases(capacity, grid, demand, 150.0, bess_power)
        delivered_to_ev = (
            phases["full_power_kw"] * phases["full_h"]
            + grid * phases["curtailed_h"]
            + phases["unmet_kwh"]
        )
        assert delivered_to_ev == pytest.approx(demand, abs=1e-6)
        assert 0 <= phases["bess_delivered_kwh"] <= capacity + 1e-9
        assert phases["bess_delivered_kwh"] == pytest.approx(
            phases["bess_kw"] * phases["full_h"], abs=1e-6
        )


def _demand(mean=50.0, std=25.0):
    return DemandModel(mean_kwh=mean, std_kwh=std)


def _drawn(rate, demand, horizon, seed) -> Arrivals:
    """A table of one stream, drawn from ``seed``."""
    return draw_arrivals([(rate, demand, [seed])], horizon)


def _table(streams, horizon) -> Arrivals:
    """A table of ``streams``, ``(times, demands)`` pairs, end to end."""
    return Arrivals(
        [t for times, _ in streams for t in times],
        [d for _, demands in streams for d in demands],
        [len(times) for times, _ in streams],
        horizon,
    )


def _day(capacity, grid, rate, demand, seed, horizon=24.0):
    """One day's cycles and dropped arrivals: a drawn stream replayed as one lane."""
    arrivals = _drawn(rate, demand, horizon, seed)
    lanes = replay_lanes(arrivals, [0], [capacity], 150.0, grid, 150.0).cycles()
    return lane_cycles(lanes, 0), int(lanes.dropped[0])


class TestSimulateDay:
    """One day of plaza service: a drawn stream replayed through the lanes."""

    def test_reproducible(self):
        grid = GridProfile(((0.0, 40.0),))
        a = _day(40.0, grid, 2.0, _demand(), 9)
        b = _day(40.0, grid, 2.0, _demand(), 9)
        assert a == b

    def test_demand_stream_independent_of_capacity(self):
        # Same seed, different unit sizes: identical arrival set, and every
        # cycle served by both shares its demand draw.
        grid = GridProfile(((0.0, 40.0),))
        small, _ = _day(5.0, grid, 1.0, _demand(), 33)
        large, _ = _day(500.0, grid, 1.0, _demand(), 33)
        small_by_start = {c.start_h: c.demand_kwh for c in small}
        large_by_start = {c.start_h: c.demand_kwh for c in large}
        common = set(small_by_start) & set(large_by_start)
        assert common
        for start in common:
            assert small_by_start[start] == large_by_start[start]

    def test_cycles_do_not_overlap(self):
        cycles, _ = _day(30.0, GridProfile(((0.0, 45.0),)), 3.0, _demand(), 77)
        assert len(cycles) > 3
        for before, after in zip(cycles, cycles[1:]):
            end = (
                before.start_h
                + before.full_h
                + before.curtailed_h
                + before.recharge_h
            )
            assert after.start_h >= end - 1e-9

    def test_demands_clamped(self):
        grid = GridProfile(((0.0, 45.0),))
        cycles, _ = _day(30.0, grid, 3.0, _demand(50.0, 200.0), 5)
        for cycle in cycles:
            assert 0.0 <= cycle.demand_kwh <= 100.0

    def test_dropped_arrivals_counted(self):
        # Tiny grid: recharges take ages, so most arrivals find the charger
        # busy.
        _, dropped = _day(60.0, GridProfile(((0.0, 5.0),)), 4.0, _demand(), 21)
        assert dropped > 10

    def test_zero_grid_strands_the_day_after_first_cycle(self):
        cycles, _ = _day(60.0, GridProfile(((0.0, 0.0),)), 2.0, _demand(), 13)
        served = [c for c in cycles if c.bess_delivered_kwh > 0]
        assert len(served) == 1  # no recharge possible, charger never idles

    def test_minute_series_shapes_and_bounds(self, tmp_path):
        scenario = default_scenario()
        run_day(scenario, tmp_path)
        for kind in (k.value for k in scenario.plaza.kinds):
            report = json.loads((tmp_path / f"day_{kind}.json").read_text())
            capacity = report["effective_capacity_kwh"]
            with (tmp_path / f"day_{kind}.csv").open(newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            _, _, _, e_bess, p_ev = np.array(rows, dtype=float).T
            assert len(rows) == 24 * 60 + 1
            assert report["n_cycles"] > 3
            assert np.all(e_bess >= -1e-9)
            assert np.all(e_bess <= capacity + 1e-9)
            assert np.all(p_ev <= scenario.plaza.charger_max_kw + 1e-9)

    def test_truncation_flag_set_only_on_service_cut(self):
        # Demand so large the last cycle inevitably crosses midnight.
        grid = GridProfile(((0.0, 8.0),))
        cycles, _ = _day(20.0, grid, 2.0, _demand(90.0, 5.0), 2)
        for cycle in cycles[:-1]:
            assert not cycle.truncated
        last = cycles[-1]
        end = last.start_h + last.full_h + last.curtailed_h + last.recharge_h
        assert end <= 24.0 + 1e-9


_GRIDS = st.sampled_from(
    [
        GridProfile(((0.0, 40.0),)),
        GridProfile(((0.0, 0.0),)),
        GridProfile(((0.0, 55.0), (6.0, 0.0), (9.0, 20.0), (17.0, 160.0))),
    ]
)


_HORIZONS = st.sampled_from([0.5, 24.0, 30.5])


@st.composite
def _streams(draw, horizon):
    """One stream over ``horizon`` as ``(times, demands)`` lists."""
    if draw(st.booleans()):
        stream = _drawn(
            draw(st.floats(0.25, 4.0)),
            _demand(draw(st.floats(1.0, 80.0)), draw(st.floats(0.0, 60.0))),
            horizon,
            draw(st.integers(0, 2**32 - 1)),
        )
        return stream.times_h.tolist(), stream.demands_kwh.tolist()
    # Hand-made: empty streams, equal arrival times and zero demands, i.e.
    # cycles that end where they start.
    times = sorted(
        draw(st.lists(st.floats(0.0, horizon, exclude_max=True), max_size=12))
    )
    demands = draw(
        st.lists(
            st.sampled_from([0.0, 0.5, 20.0, 60.0, 100.0]) | st.floats(0.0, 100.0),
            min_size=len(times),
            max_size=len(times),
        )
    )
    return times, demands


_CAPACITIES = (
    st.sampled_from([0.0, math.inf]) | st.floats(0.1, 10.0) | st.floats(50.0, 500.0)
)


class TestReplayLanes:
    @given(
        horizon=_HORIZONS,
        data=st.data(),
        grid=_GRIDS,
        bess_power=st.sampled_from([150.0, 60.0, 0.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_lanes_equal_reference_loop(self, horizon, data, grid, bess_power):
        streams = data.draw(st.lists(_streams(horizon), min_size=1, max_size=4))
        arrivals = _table(streams, horizon)
        lanes_spec = data.draw(
            st.lists(
                st.tuples(st.integers(0, len(streams) - 1), _CAPACITIES),
                min_size=1,
                max_size=8,
            )
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lanes = replay_lanes(
                arrivals,
                [row for row, _ in lanes_spec],
                [capacity for _, capacity in lanes_spec],
                bess_power,
                grid,
                150.0,
            ).cycles()
        for lane, (row, capacity) in enumerate(lanes_spec):
            cycles, dropped = reference_replay(
                capacity, bess_power, grid, arrivals, row, 150.0
            )
            assert lane_cycles(lanes, lane) == cycles
            assert lanes.dropped[lane] == dropped
            total = 0.0
            for cycle in cycles:
                total += cycle.unmet_kwh
            assert lanes.unmet_total_kwh[lane] == total
        assert lanes.counts.sum() == lanes.start_h.size

    @given(
        horizon=_HORIZONS,
        data=st.data(),
        grid=_GRIDS,
        bess_power=st.sampled_from([150.0, 60.0, 0.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_one_batch_of_cells_equals_each_cell_alone(
        self, horizon, data, grid, bess_power
    ):
        # An ensemble batch replays the lanes of several demand cells in one
        # call, kind by kind over each cell's streams, and takes each cell's
        # cycles as a run of lanes.  Each run must be the cell replayed
        # alone, and the scalar oracle's replay lane by lane.
        cells = data.draw(
            st.lists(
                st.lists(_streams(horizon), min_size=1, max_size=3),
                min_size=2,
                max_size=4,
            )
        )
        caps = [data.draw(st.lists(_CAPACITIES, min_size=2, max_size=2)) for _ in cells]
        specs = [
            [(row, cap) for cap in kind_caps for row in range(len(streams))]
            for streams, kind_caps in zip(cells, caps)
        ]
        offsets = np.cumsum([0] + [len(streams) for streams in cells])
        rows = [at + row for at, spec in zip(offsets, specs) for row, _ in spec]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = replay_lanes(
                _table([stream for streams in cells for stream in streams], horizon),
                rows,
                [cap for spec in specs for _, cap in spec],
                bess_power,
                grid,
                150.0,
            )
            first = 0
            for streams, spec in zip(cells, specs):
                run = batch.cycles(first, first + len(spec))
                first += len(spec)
                cell = _table(streams, horizon)
                alone = replay_lanes(
                    cell,
                    [row for row, _ in spec],
                    [cap for _, cap in spec],
                    bess_power,
                    grid,
                    150.0,
                ).cycles()
                for field in run._fields:
                    got, want = getattr(run, field), getattr(alone, field)
                    assert got.dtype == want.dtype, field
                    assert got.tobytes() == want.tobytes(), field
                for lane, (row, cap) in enumerate(spec):
                    cycles, dropped = reference_replay(
                        cap, bess_power, grid, cell, row, 150.0
                    )
                    assert lane_cycles(run, lane) == cycles
                    assert run.dropped[lane] == dropped

    def test_rejects_streams_it_cannot_search(self):
        grid = GridProfile(((0.0, 40.0),))
        for table, match in [
            (((2.0, 1.0), (5.0, 5.0), (2,)), "never decrease"),
            (((1.0, 2.0, 1.5), (5.0,) * 3, (1, 2)), "never decrease"),
            (((math.nan,), (5.0,), (1,)), "numbers"),
            (((1.0, 2.0), (5.0,), (2,)), "one time and one demand"),
            (((1.0, 2.0), (5.0, 5.0), (1,)), "add up to the arrivals"),
            (((1.0, 2.0), (5.0, 5.0), (3, -1)), "nonnegative"),
        ]:
            with pytest.raises(ValueError, match=match):
                Arrivals(*table, 24.0)
        for horizon in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="horizon_h"):
                Arrivals((), (), (), horizon)
        # A NaN opening a later stream is refused too.
        with pytest.raises(ValueError, match="numbers"):
            Arrivals((1.0, math.nan), (5.0, 5.0), (1, 1), 24.0)
        # Times may fall from one stream to the next, across an empty one too.
        two = Arrivals((5.0, 1.0), (5.0, 5.0), (1, 1), 24.0)
        lanes = replay_lanes(two, [0, 1], [10.0, 10.0], 150.0, grid, 150.0)
        assert lanes.counts.tolist() == [1, 1]
        assert lanes.cycles(1).start_h.tolist() == [1.0]
        gap = Arrivals((5.0, 1.0), (5.0, 5.0), (1, 0, 1), 24.0)
        lanes = replay_lanes(gap, [0, 1, 2], [10.0] * 3, 150.0, grid, 150.0)
        assert lanes.counts.tolist() == [1, 0, 1]
        assert lanes.cycles(2).start_h.tolist() == [1.0]
        # Equal times, -0.0 and 0.0 included, never decrease.
        for times in ((2.0, 2.0), (-0.0, 0.0)):
            same = Arrivals(times, (0.0, 0.0), (2,), 24.0)
            lanes = replay_lanes(same, [0], [10.0], 150.0, grid, 150.0)
            assert lanes.counts.tolist() == [2]
        with pytest.raises(ValueError, match="one stream index and one capacity"):
            replay_lanes(two, [0, 1], [10.0], 150.0, grid, 150.0)

    @given(
        streams=st.lists(
            st.lists(
                st.sampled_from([-0.0, 0.0, 1.0, 2.0, math.inf, math.nan]),
                max_size=4,
            ),
            max_size=4,
        )
    )
    @settings(max_examples=300)
    def test_accepts_exactly_the_streams_that_never_decrease(self, streams):
        # A per-stream check in plain Python is the contract.
        valid = all(
            not any(map(math.isnan, times))
            and all(a <= b for a, b in zip(times, times[1:]))
            for times in streams
        )
        times = [t for stream in streams for t in stream]
        table = (times, [1.0] * len(times), [len(stream) for stream in streams])
        if valid:
            Arrivals(*table, 24.0)
        else:
            with pytest.raises(ValueError, match="never decrease"):
                Arrivals(*table, 24.0)

    @pytest.mark.parametrize("demand", [-30.0, -1e-300, math.nan, math.inf])
    def test_rejects_demands_it_cannot_serve(self, demand):
        # A negative demand would be served as negative energy over a
        # negative time, and a NaN one would vanish from delivered and unmet.
        with pytest.raises(ValueError, match="demands must be finite and >= 0"):
            Arrivals((1.0, 2.0), (5.0, demand), (2,), 24.0)
        # Zero is a demand the replay serves: a cycle that delivers nothing.
        grid = GridProfile(((0.0, 40.0),))
        zero = Arrivals((1.0,), (0.0,), (1,), 24.0)
        cycles = replay_lanes(zero, [0], [10.0], 150.0, grid, 150.0).cycles()
        assert cycles.counts.tolist() == [1]
        assert cycles.demand_kwh.tolist() == [0.0]

    def test_no_lanes_and_empty_streams(self):
        grid = GridProfile(((0.0, 40.0),))
        empty = Arrivals((), (), (0,), 24.0)
        lanes = replay_lanes(
            empty, [0, 0], [0.0, 10.0], 150.0, grid, 150.0
        ).cycles()
        assert lanes.counts.tolist() == [0, 0]
        assert lanes.dropped.tolist() == [0, 0]
        assert lanes.start_h.size == 0 and lanes.truncated.dtype == bool
        none = replay_lanes(empty, [], [], 150.0, grid, 150.0).cycles()
        assert none.counts.size == 0
        with pytest.raises(ValueError, match="charger_max_kw"):
            replay_lanes(empty, [0], [1.0], 150.0, grid, 0.0)

    def test_tables_and_replays_compare_by_identity(self):
        # Records of arrays compare and hash as objects, never element-wise.
        grid = GridProfile(((0.0, 40.0),))
        table, twin = (Arrivals((1.0,), (5.0,), (1,), 24.0) for _ in range(2))
        replays = [
            replay_lanes(t, [0], [1.0], 150.0, grid, 150.0) 
            for t in (table, twin)
        ]
        for one, other in (table, twin), replays:
            assert one == one and one != other and len({one, other}) == 2
        with pytest.raises(AttributeError):
            table.horizon_h = 12.0


    def test_an_overflowing_refill_warns_nothing(self):
        # 40 kWh refilled at 2.5e-307 kW: the curtailed and refill hours
        # each fit a float, but their sum overflows to infinity.
        arrivals = Arrivals((1.0,), (50.0,), (1,), 24.0)
        grid = GridProfile(((0.0, 2.5e-307),))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            lanes = replay_lanes(
                arrivals, [0], [40.0], 150.0, grid, 150.0
            ).cycles()
        (cycle,) = lane_cycles(lanes, 0)
        assert cycle.truncated
        assert ([cycle], 0) == reference_replay(40.0, 150.0, grid, arrivals, 0, 150.0)
        assert lanes.dropped.tolist() == [0]


def _assert_draws_like_reference(groups, horizon) -> Arrivals:
    """``draw_arrivals(groups, horizon)``, checked key by key against the oracle."""
    table = draw_arrivals(groups, horizon)
    streams = [
        reference_draw(rate, demand, horizon, key)
        for rate, demand, keys in groups
        for key in keys
    ]
    assert table.lengths.tolist() == [len(times) for times, _ in streams]
    times = np.array([t for times, _ in streams for t in times], dtype=float)
    demands = np.array([d for _, demands in streams for d in demands], dtype=float)
    assert table.times_h.tobytes() == times.tobytes()
    assert table.demands_kwh.tobytes() == demands.tobytes()
    assert table.horizon_h == horizon
    return table


class TestDrawArrivals:
    @given(
        groups=st.lists(
            st.tuples(
                st.floats(0.25, 4.0),
                st.floats(1.0, 80.0),
                st.floats(0.0, 60.0) | st.floats(200.0, 2000.0),
                st.lists(st.integers(0, 2**128 - 1), max_size=4),
            ),
            max_size=4,
        ),
        horizon=st.sampled_from([0.01, 0.5, 24.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_call_draws_every_key_like_the_reference(self, groups, horizon):
        _assert_draws_like_reference(
            [
                (rate, DemandModel(mean, std), keys)
                for rate, mean, std, keys in groups
            ],
            horizon,
        )

    def test_empty_streams_and_both_clamps(self):
        # Two hours at 0.5 EV/h leave some streams empty, and a spread fifty
        # times the mean clamps demands at 0 and at 2 x mean; the second
        # group clamps at twice its own mean.
        table = _assert_draws_like_reference(
            [
                (0.5, DemandModel(10.0, 500.0), range(20)),
                (4.0, DemandModel(26.0, 30.0), range(20, 30)),
            ],
            2.0,
        )
        assert 0 in table.lengths[:20]
        first = int(table.lengths[:20].sum())
        assert {0.0, 20.0} <= set(table.demands_kwh[:first].tolist())
        assert 52.0 in table.demands_kwh[first:]


class TestSharedStream:
    @given(
        seed=st.integers(0, 2**32 - 1),
        grid=_GRIDS,
        small=st.floats(0.1, 10.0),
        large=st.floats(50.0, 500.0),
        rate=st.floats(0.25, 4.0),
        mean=st.floats(5.0, 80.0),
        std=st.floats(0.0, 40.0),
        horizon=st.sampled_from([0.5, 24.0, 30.5]),
    )
    @settings(max_examples=150)
    def test_one_stream_replays_like_separate_days(
        self, seed, grid, small, large, rate, mean, std, horizon
    ):
        # The exemplar day replays one draw for every kind; each lane must
        # serve it as a day drawn and replayed on its own would.
        demand = _demand(mean, std)
        stream = _drawn(rate, demand, horizon, seed)
        capacities = (0.0, small, large, math.inf)
        shared = replay_lanes(
            stream, [0] * 4, capacities, 150.0, grid, 150.0
        ).cycles()
        for lane, capacity in enumerate(capacities):
            day = _drawn(rate, demand, horizon, seed)
            alone = replay_lanes(
                day, [0], [capacity], 150.0, grid, 150.0
            ).cycles()
            assert lane_cycles(shared, lane) == lane_cycles(alone, 0)
            assert shared.dropped[lane] == alone.dropped[0]
            assert shared.counts[lane] + shared.dropped[lane] == len(stream.times_h)

    def test_stream_validation(self):
        with pytest.raises(ValueError, match="horizon_h"):
            _drawn(1.0, _demand(), 0.0, 1)
        # An infinite rate would draw zero interarrivals forever.  Each
        # group's rate is checked, even a group with no keys.
        for rate in (math.inf, math.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="rate_per_h must be positive"):
                draw_arrivals([(rate, _demand(), [1])], 24.0)
            with pytest.raises(ValueError, match="rate_per_h must be positive"):
                draw_arrivals([(1.0, _demand(), [1]), (rate, _demand(), [])], 24.0)
        stream = _drawn(1.0, _demand(), 24.0, 1)
        with pytest.raises(ValueError, match="charger_max_kw"):
            replay_lanes(
                stream, [0], [10.0], 150.0, GridProfile(((0.0, 40.0),)), 0.0
            )


class TestCurtailedMinutes:
    def test_excludes_truncated_and_averages(self):
        # A drawn day, and a day whose second cycle the horizon cuts in its
        # curtailed phase.
        drawn = _drawn(2.0, _demand(), 24.0, 101)
        day = (drawn.times_h.tolist(), drawn.demands_kwh.tolist())
        cut = ([23.0, 23.8], [30.0, 30.0])
        lanes = replay_lanes(
            _table([day, cut], 24.0), [0, 1], [12.0, 12.0], 150.0,
            GridProfile(((0.0, 40.0),)), 150.0,
        ).cycles()
        assert lane_cycles(lanes, 1)[1].truncated
        mean_min, max_min, n_cycles = _curtailed_minutes(
            lanes.curtailed_h, lanes.truncated
        )
        manual = [
            c.curtailed_h * 60.0
            for lane in (0, 1)
            for c in lane_cycles(lanes, lane)
            if not c.truncated
        ]
        assert n_cycles == len(manual) == lanes.start_h.size - 1
        assert mean_min == pytest.approx(float(np.mean(manual)))
        assert max_min == pytest.approx(float(np.max(manual)))

    def test_empty_day(self):
        empty = Arrivals((), (), (0,), 0.5)
        lanes = replay_lanes(
            empty, [0], [12.0], 150.0, GridProfile(((0.0, 40.0),)), 150.0
        ).cycles()
        mean_min, max_min, n_cycles = _curtailed_minutes(
            lanes.curtailed_h, lanes.truncated
        )
        assert n_cycles == 0
        assert mean_min is None and max_min is None
