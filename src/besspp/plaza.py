"""Event-driven EV charging plaza with a storage-backed fast charger.

Three actors: the distribution grid offers a piecewise-constant available
power (held quasistatic for each charging cycle), a single fast charger
serves one EV at a time, and the storage unit is a monolith whose usable
energy is the architecture's deliverable energy.

Service policy per cycle:

* full-power phase: the charger runs at its maximum, the storage unit
  covering whatever the grid cannot, until the demand is met or the unit
  is depleted (singular depletion: once empty it stays out);
* curtailed phase: with the unit depleted, charging continues at the
  available grid power alone (a power pedestal); if no grid power is
  available the cycle terminates and the shortfall is recorded as unmet;
* recharge phase: the unit is refilled completely at the available grid
  power (lossless) before the charger returns to standby.

EVs arrive with exponential interarrival times and Gaussian demands
(clamped to [0, 2 mean]); arrivals outside standby leave unserved.  One
demand is drawn per arrival whether or not it is served, so the arrival
and demand stream depends on the seed alone, never on the storage unit.

A day is therefore two steps: :func:`draw_arrivals` draws the streams, one
per key of each ``(rate_per_h, demand_model, keys)`` group, and
:func:`replay_lanes`, the event loop, serves them from a full storage unit.
The draw writes every stream of a call end to end into one
:class:`Arrivals` table of float64 arrays over one horizon, keyed once by
(stream, time), and the loop runs many (capacity, stream) lanes in lockstep
over that table as it is: each step finds, on every lane still active, the
next servable arrival by one search of those keys and serves it with the
phase arithmetic of :func:`cycle_phases`.  It records only which arrivals
each lane served, as a :class:`LaneReplay`; :meth:`LaneReplay.cycles`
derives the cycles of any run of lanes as :class:`LaneCycles` arrays, so a
caller can take them a few lanes at a time.  Every study replays through
it: the exemplar day draws its stream once and replays one lane per kind,
the reference schedule is one lane with an unlimited unit, and the ensemble
draws every trajectory of a batch of demand cells into one table and
replays each trajectory x kind as one lane of a single call.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from besspp.supply import _philox

__all__ = [
    "GridProfile",
    "DemandModel",
    "Arrivals",
    "LaneCycles",
    "LaneReplay",
    "cycle_phases",
    "draw_arrivals",
    "replay_lanes",
]

HOURS_PER_DAY = 24.0


@dataclass(frozen=True)
class GridProfile:
    """Piecewise-constant available grid power over a day.

    ``segments`` are ``(start_hour, available_kw)`` with the first start at
    0 and strictly increasing starts below 24; each level holds until the
    next start.  Lookups wrap modulo 24 h.
    """

    segments: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("grid profile needs at least one segment")
        if not all(map(math.isfinite, (v for seg in self.segments for v in seg))):
            raise ValueError("grid segment starts and powers must be finite")
        starts = [s for s, _ in self.segments]
        if starts[0] != 0:
            raise ValueError("first grid segment must start at hour 0")
        if any(a >= b for a, b in zip(starts, starts[1:])):
            raise ValueError("grid segment starts must be strictly increasing")
        if starts[-1] >= HOURS_PER_DAY:
            raise ValueError("grid segment starts must lie below 24 h")
        if any(kw < 0 for _, kw in self.segments):
            raise ValueError("available grid power must be nonnegative")

    def powers_at(self, times_h: np.ndarray) -> np.ndarray:
        """Available grid power at each of an array of nonnegative times."""
        starts = np.array([s for s, _ in self.segments], dtype=float)
        levels = np.array([kw for _, kw in self.segments], dtype=float)
        index = np.searchsorted(starts, times_h % HOURS_PER_DAY, side="right")
        return levels[index - 1]

    @classmethod
    def from_csv(cls, path) -> "GridProfile":
        """The profile of a ``time_h,power_kw`` CSV, one segment per data row.

        Every data row must hold exactly two values; blank lines are skipped.
        """
        import csv

        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header != ["time_h", "power_kw"]:
                raise ValueError(
                    f"grid profile CSV must have columns time_h,power_kw, got {header}"
                )
            segments = []
            for row in filter(None, reader):
                if len(row) != 2:
                    raise ValueError(
                        f"line {reader.line_num} holds {len(row)} values, not 2"
                    )
                segments.append((float(row[0]), float(row[1])))
        return cls(tuple(segments))


@dataclass(frozen=True)
class DemandModel:
    """Gaussian per-EV energy demand, clamped to [0, 2 * mean_kwh]."""

    mean_kwh: float
    std_kwh: float

    def __post_init__(self) -> None:
        if not 0 < self.mean_kwh < math.inf:
            raise ValueError("mean_kwh must be positive and finite")
        if not 0 <= self.std_kwh < math.inf:
            raise ValueError("std_kwh must be nonnegative and finite")
        if not 2.0 * self.mean_kwh < math.inf:
            raise ValueError("2 x mean_kwh, the demand clamp, must be finite")


@dataclass(frozen=True, eq=False, slots=True)
class Arrivals:
    """EV arrivals of many days over one horizon: a table of streams end to end.

    Stream ``s`` is the ``lengths[s]`` arrivals that follow those of streams
    ``0 .. s-1`` in ``times_h`` and ``demands_kwh``.  Both are float64
    arrays (sequences are converted, buffers are not copied), and the
    lengths are integers that sum to their size.  ``keys`` holds one complex
    key per arrival, its stream as the real part and its time as the
    imaginary part; numpy orders complex numbers by real part, then
    imaginary part, so :func:`replay_lanes` searches every stream in them at
    once.  They must never decrease: the times are numbers that never
    decrease within a stream, and may fall from one stream to the next.
    Every demand must be a finite number >= 0, as the replay serves it.
    """

    times_h: np.ndarray
    demands_kwh: np.ndarray
    lengths: np.ndarray
    horizon_h: float
    keys: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        times = np.asarray(self.times_h, dtype=float)
        demands = np.asarray(self.demands_kwh, dtype=float)
        lengths = np.asarray(self.lengths, dtype=np.intp)
        if not self.horizon_h > 0:
            raise ValueError("horizon_h must be positive")
        if times.ndim != 1 or demands.shape != times.shape:
            raise ValueError("every arrival needs one time and one demand")
        if lengths.ndim != 1 or (lengths < 0).any() or lengths.sum() != times.size:
            raise ValueError(
                "stream lengths must be nonnegative and add up to the arrivals"
            )
        keys = _keys(np.repeat(np.arange(lengths.size), lengths), times)
        # NaN first: comparing a NaN key would warn.
        if np.isnan(times).any() or not (keys[1:] >= keys[:-1]).all():
            raise ValueError(
                "arrival times must be numbers that never decrease within a stream"
            )
        if not ((demands >= 0) & (demands < math.inf)).all():
            raise ValueError("arrival demands must be finite and >= 0")
        object.__setattr__(self, "times_h", times)
        object.__setattr__(self, "demands_kwh", demands)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "keys", keys)


def _keys(streams, times) -> np.ndarray:
    """Complex keys, ``streams`` as the real parts and ``times`` the imaginary.

    The parts are set one by one: ``1j * math.inf`` has a NaN real part.
    """
    keys = np.empty(len(times), dtype=complex)
    keys.real = streams
    keys.imag = times
    return keys


# The per-cycle arrays of LaneCycles, in the order _serve returns them.
_CYCLE_FIELDS = (
    "start_h",
    "demand_kwh",
    "grid_kw",
    "full_power_kw",
    "full_h",
    "curtailed_h",
    "bess_delivered_kwh",
    "recharge_h",
    "unmet_kwh",
    "truncated",
)


@dataclass(frozen=True)
class LaneCycles:
    """The cycles of many replays, flattened lane by lane.

    Lane ``i`` served ``counts[i]`` cycles, which follow those of lanes
    ``0 .. i-1`` in every per-cycle array, in service order, and dropped
    ``dropped[i]`` arrivals.  ``unmet_total_kwh[i]`` is the lane's unmet
    energy summed cycle by cycle, in service order.
    """

    counts: np.ndarray
    dropped: np.ndarray
    unmet_total_kwh: np.ndarray
    start_h: np.ndarray
    demand_kwh: np.ndarray
    grid_kw: np.ndarray
    full_power_kw: np.ndarray
    full_h: np.ndarray
    curtailed_h: np.ndarray
    bess_delivered_kwh: np.ndarray
    recharge_h: np.ndarray
    unmet_kwh: np.ndarray
    truncated: np.ndarray


@dataclass(frozen=True, eq=False)
class LaneReplay:
    """Which arrivals every lane of one :func:`replay_lanes` call served.

    Lane ``i`` served ``counts[i]`` arrivals and dropped ``dropped[i]``.
    ``arrival`` indexes ``table``, the :class:`Arrivals` the lanes replayed:
    the served arrivals lane by lane, each lane's in service order.  The
    table's times, demands and horizon, the grid power at each arrival
    (``grid_kw``) and each lane's ``capacity_kwh`` are what :meth:`cycles`
    serves them with.
    """

    counts: np.ndarray
    dropped: np.ndarray
    arrival: np.ndarray
    table: Arrivals
    grid_kw: np.ndarray
    capacity_kwh: np.ndarray
    bess_power_kw: float
    charger_max_kw: float

    def cycles(self, start: int = 0, stop: int | None = None) -> LaneCycles:
        """The cycles of lanes ``start .. stop - 1`` (all lanes by default).

        They come from the served arrivals through the same arithmetic the
        replay ran, so a caller may take the lanes a run at a time and keep
        its temporaries small.
        """
        start, stop, _ = slice(start, stop).indices(self.counts.size)
        stop = max(start, stop)
        counts = self.counts[start:stop]
        first = int(self.counts[:start].sum())
        arrival = self.arrival[first : first + int(counts.sum())]
        lane = np.repeat(np.arange(start, stop), counts)
        table = self.table
        values, _ = _serve(
            table.times_h[arrival], table.demands_kwh[arrival], self.grid_kw[arrival],
            self.capacity_kwh[lane], table.horizon_h, self.charger_max_kw,
            self.bess_power_kw,
        )
        cycles = dict(zip(_CYCLE_FIELDS, values))
        return LaneCycles(
            counts=counts,
            dropped=self.dropped[start:stop],
            unmet_total_kwh=_lane_sums(cycles["unmet_kwh"], counts),
            **cycles,
        )


def cycle_phases(
    capacity_kwh, grid_kw, demand_kwh, charger_max_kw: float, bess_power_kw
) -> tuple[np.ndarray, ...]:
    """Phase arithmetic of cycles that start from a full storage unit.

    Capacity, grid power, demand and storage power may be arrays; each
    element of the result is the outcome of its own cycle, before the
    horizon cuts it: ``full_power_kw, bess_kw, full_h, curtailed_h,
    bess_delivered_kwh, unmet_kwh, recharge_h``, arrays of one shape.
    """
    if charger_max_kw <= 0:
        raise ValueError("charger_max_kw must be positive")
    demand = np.asarray(demand_kwh, dtype=float)
    if (demand < 0).any():
        raise ValueError("demand_kwh must be nonnegative")
    return _phases(capacity_kwh, grid_kw, demand, charger_max_kw, bess_power_kw)


def _phases(capacity, grid, demand, charger, bess_power) -> tuple:
    """:func:`cycle_phases`' seven arrays, element-wise, with no validation.

    ``np.where(b > a, b, a)`` is Python's ``max(a, b)`` and
    ``np.where(b < a, b, a)`` its ``min(a, b)``, NaN included.  Divisors
    that a branch does not use are replaced by 1 so that no element divides
    by zero; an overflow to infinity is an outcome (a vanishingly small
    source), not an error.
    """
    headroom = charger - grid
    headroom = np.where(headroom > 0.0, headroom, 0.0)
    bess_kw = np.where(headroom < bess_power, headroom, bess_power)
    source = grid + bess_kw
    full_power = np.where(source < charger, source, charger)
    dead = full_power <= 0  # no source at all: nothing can be delivered
    tapped = bess_kw > 0
    lit = grid > 0
    with np.errstate(over="ignore"):
        t_demand = demand / np.where(dead, 1.0, full_power)
        # A source too small to finish the cycle delivers nothing either.
        stuck = dead | ~np.isfinite(t_demand)
        t_demand = np.where(stuck, 0.0, t_demand)
        t_deplete = np.where(
            tapped, capacity / np.where(tapped, bess_kw, 1.0), math.inf
        )
        # The unit runs empty before the demand is met.
        short = ~stuck & ~(t_demand <= t_deplete)
        t_deplete = np.where(short, t_deplete, 0.0)
        rest = demand - full_power * t_deplete
        curtailed = np.where(lit, rest / np.where(lit, grid, 1.0), math.inf)
        # Pedestal power is zero for practical purposes: terminate.
        pedestal = np.isfinite(curtailed)
        delivered = np.where(short, capacity, bess_kw * t_demand)
        drew = delivered > 0
        recharge_h = np.where(
            drew & lit, delivered / np.where(drew & lit, grid, 1.0), 0.0
        )
    return (
        np.where(dead, 0.0, full_power),
        np.where(dead, 0.0, bess_kw),
        np.where(short, t_deplete, t_demand),
        np.where(short & pedestal, curtailed, 0.0),
        delivered,
        np.where(stuck, demand, np.where(short & ~pedestal, rest, 0.0)),
        np.where(drew & ~lit, math.inf, recharge_h),
    )


def draw_arrivals(groups: Iterable[tuple], horizon_h: float) -> Arrivals:
    """Arrival times and clamped demands over ``[0, horizon_h)``, one stream per key.

    ``groups`` holds ``(rate_per_h, demand_model, keys)`` triples: EVs arrive
    at ``rate_per_h`` while the charger idles, with demands from
    ``demand_model``.  The table holds their streams group by group, key by
    key.  A key's draws alternate interarrival, demand, interarrival, ...
    from one Philox stream, so a stream depends only on its group, the
    horizon and its key, never on the other streams or on the storage unit
    that later serves it.
    """
    # Imported here because it loads an extension module, which the studies
    # that draw no arrivals (design, tradeoff) would carry in their RSS.
    from array import array

    times, demands, lengths = array("d"), array("d"), []
    # Scalar draws return Python floats; bound methods save a lookup each.
    add_time, add_demand = times.append, demands.append
    for rate_per_h, demand, keys in groups:
        if not 0 < rate_per_h < math.inf:
            raise ValueError("rate_per_h must be positive and finite")
        max_kwh = 2.0 * demand.mean_kwh
        # The draws take 0-d float64 arrays, which they would otherwise make
        # from Python floats on every call (about 15% of a call); the same
        # doubles reach the same routine, so the stream is unchanged.
        scale_h, mean_kwh, std_kwh = (
            np.array(v, dtype=np.float64)
            for v in (1.0 / rate_per_h, demand.mean_kwh, demand.std_kwh)
        )
        for key in keys:
            rng = _philox(key)
            exponential, normal = rng.exponential, rng.normal
            before = len(times)
            t_arrival = exponential(scale_h)
            while t_arrival < horizon_h:
                draw = normal(mean_kwh, std_kwh)
                add_time(t_arrival)
                # min(max(draw, 0.0), max_kwh) without the calls; np.clip
                # gives the same value for a finite draw at several times the
                # cost.
                draw = 0.0 if draw < 0.0 else draw
                add_demand(max_kwh if max_kwh < draw else draw)
                t_arrival += exponential(scale_h)
            lengths.append(len(times) - before)
    return Arrivals(times, demands, lengths, horizon_h)


def replay_lanes(
    arrivals: Arrivals,
    stream_index,
    capacities_kwh,
    bess_power_kw: float,
    grid: GridProfile,
    charger_max_kw: float,
) -> LaneReplay:
    """Serve stream ``stream_index[i]`` from a full unit of ``capacities_kwh[i]``.

    This is the plaza's event loop, run for every lane ``i`` in lockstep
    over the table's one horizon.  Lanes index the table's arrays instead of
    copying them, so the kinds of an ensemble cell share one draw.  Each
    step serves, on every lane still active, the first arrival at or after
    the lane's cursor (the arrival after the last one served) whose time is
    at least the lane's busy-until time ``b``: on stream ``s`` that is the
    first of the table's keys at or above the key of ``(s, b)``, one search
    of them all.  The arrivals skipped on the way are dropped, and a lane
    with no such arrival left, a busy-until of +inf included, is done.  The
    loop records only which arrivals each lane served;
    :meth:`LaneReplay.cycles` derives their cycles.
    """
    if charger_max_kw <= 0:
        raise ValueError("charger_max_kw must be positive")
    rows = np.asarray(stream_index, dtype=np.intp)
    capacity = np.asarray(capacities_kwh, dtype=float)
    if rows.ndim != 1 or rows.shape != capacity.shape:
        raise ValueError("every lane needs one stream index and one capacity")
    times, demands = arrivals.times_h, arrivals.demands_kwh
    lengths = arrivals.lengths
    offsets = np.cumsum(lengths) - lengths
    grid_kw = grid.powers_at(times)

    lane_len = lengths[rows]
    # Lane i's slots hold its stream's arrivals, slot = arrival + shift[i].
    shift = np.cumsum(lane_len) - lane_len - offsets[rows]
    served = np.zeros(int(lane_len.sum()), dtype=bool)
    counts = np.zeros(rows.size, dtype=np.intp)
    live = np.flatnonzero(lane_len > 0)
    cursor = offsets[rows[live]]
    end = cursor + lane_len[live]
    busy = np.zeros(live.size)
    while live.size:
        pick = np.searchsorted(arrivals.keys, _keys(rows[live], busy))
        pick = np.maximum(pick, cursor)
        found = pick < end
        if not found.all():
            live, pick, end = live[found], pick[found], end[found]
            if not live.size:
                break
        served[pick + shift[live]] = True
        counts[live] += 1
        _, busy = _serve(
            times[pick], demands[pick], grid_kw[pick], capacity[live],
            arrivals.horizon_h, charger_max_kw, bess_power_kw,
        )
        cursor = pick + 1

    return LaneReplay(
        counts=counts,
        dropped=lane_len - counts,
        arrival=np.flatnonzero(served) - np.repeat(shift, counts),
        table=arrivals,
        grid_kw=grid_kw,
        capacity_kwh=capacity,
        bess_power_kw=bess_power_kw,
        charger_max_kw=charger_max_kw,
    )


def _lane_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each lane's values added left to right from 0.0, in service order.

    ``values`` holds ``counts[i]`` entries for lane ``i`` after those of
    lanes ``0 .. i-1``.  They go down the columns of a table under a row of
    zeros, and one running sum down the table is every lane's fold; the
    zeros that pad a lane's column leave its sum as it is.
    """
    table = np.zeros((int(counts.max(initial=0)) + 1, counts.size))
    rank = np.arange(values.size) - np.repeat(np.cumsum(counts) - counts, counts)
    table[rank + 1, np.repeat(np.arange(counts.size), counts)] = values
    return np.add.accumulate(table, axis=0, out=table)[-1].copy()


def _serve(start_h, demand_kwh, grid_kw, capacity, horizon_h, charger, bess_power):
    """The served arrivals' cycles, cut at the horizon, and their end times.

    The cycle values come in :data:`_CYCLE_FIELDS` order.
    """
    full_power, bess_kw, full_h, curtailed_h, delivered, unmet, recharge_h = (
        _phases(capacity, grid_kw, demand_kwh, charger, bess_power)
    )
    # An endless refill is an outcome, not an error: sums that overflow to
    # infinity only ever exceed the room left in the day.
    with np.errstate(over="ignore"):
        room = horizon_h - start_h
        # Day ends mid full-power phase.
        in_full = full_h > room
        in_curtailed = ~in_full & (full_h + curtailed_h > room)
        truncated = in_full | in_curtailed
        # Service completed; only the refill (maybe endless) is cut short by
        # the day's end.
        in_recharge = ~truncated & (full_h + curtailed_h + recharge_h > room)
        cut_curtailed = room - full_h
        unmet = np.where(
            in_full,
            demand_kwh - full_power * room,
            np.where(
                in_curtailed,
                demand_kwh - full_power * full_h - grid_kw * cut_curtailed,
                unmet,
            ),
        )
        recharge_h = np.where(
            truncated,
            0.0,
            np.where(in_recharge, room - full_h - curtailed_h, recharge_h),
        )
        curtailed_h = np.where(
            in_full, 0.0, np.where(in_curtailed, cut_curtailed, curtailed_h)
        )
        delivered = np.where(in_full, bess_kw * room, delivered)
        full_h = np.where(in_full, room, full_h)
        end = start_h + full_h + curtailed_h + recharge_h
    # A refill with no grid power can never complete.
    end = np.where((delivered > 0) & (grid_kw <= 0), math.inf, end)
    cycle = (
        start_h,
        demand_kwh,
        grid_kw,
        full_power,
        full_h,
        curtailed_h,
        delivered,
        recharge_h,
        np.where(unmet > 0.0, unmet, 0.0),
        truncated,
    )
    return cycle, end
