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

A day is therefore two steps: :func:`draw_stream` draws the stream and
:func:`replay_lanes`, the event loop, serves it from a full storage unit
and returns the cycles and the dropped arrivals as :class:`LaneCycles`
arrays.  The loop runs many (capacity, stream) lanes in lockstep: each step
serves the next servable arrival of every lane still active, with the phase
arithmetic of :func:`cycle_phases`.  Every study replays through it: the
exemplar day draws its stream once and replays one lane per kind, the
reference schedule is one lane with an unlimited unit, and an ensemble cell
replays every trajectory x kind as one lane of a single call.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from besspp.supply import _philox

__all__ = [
    "GridProfile",
    "ArrivalModel",
    "DemandModel",
    "CyclePhases",
    "ArrivalStream",
    "LaneCycles",
    "cycle_phases",
    "draw_stream",
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
        starts = [s for s, _ in self.segments]
        if starts[0] != 0:
            raise ValueError("first grid segment must start at hour 0")
        if any(a >= b for a, b in zip(starts, starts[1:])):
            raise ValueError("grid segment starts must be strictly increasing")
        if starts[-1] >= HOURS_PER_DAY:
            raise ValueError("grid segment starts must lie below 24 h")
        if any(kw < 0 for _, kw in self.segments):
            raise ValueError("available grid power must be nonnegative")

    def power_at(self, t_h: float) -> float:
        t = t_h % HOURS_PER_DAY
        level = self.segments[0][1]
        for start, kw in self.segments:
            if start > t:
                break
            level = kw
        return level

    def powers_at(self, times_h: np.ndarray) -> np.ndarray:
        """:meth:`power_at` over an array of nonnegative times."""
        starts = np.array([s for s, _ in self.segments], dtype=float)
        levels = np.array([kw for _, kw in self.segments], dtype=float)
        index = np.searchsorted(starts, times_h % HOURS_PER_DAY, side="right")
        return levels[index - 1]

    @classmethod
    def constant(cls, kw: float) -> "GridProfile":
        return cls(((0.0, kw),))

    @classmethod
    def from_csv(cls, path) -> "GridProfile":
        import csv

        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames != ["time_h", "power_kw"]:
                raise ValueError(
                    f"grid profile CSV must have columns time_h,power_kw, "
                    f"got {reader.fieldnames}"
                )
            segments = tuple(
                (float(row["time_h"]), float(row["power_kw"])) for row in reader
            )
        return cls(segments)

    def to_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["time_h", "power_kw"])
            for start, kw in self.segments:
                writer.writerow([repr(float(start)), repr(float(kw))])


@dataclass(frozen=True)
class ArrivalModel:
    """Exponential standby: EV arrivals at ``rate_per_h`` while idle."""

    rate_per_h: float

    def __post_init__(self) -> None:
        if not self.rate_per_h > 0:
            raise ValueError("rate_per_h must be positive")


@dataclass(frozen=True)
class DemandModel:
    """Gaussian per-EV energy demand, clamped to [0, max_kwh]."""

    mean_kwh: float
    std_kwh: float
    max_kwh: float | None = None

    def __post_init__(self) -> None:
        if not self.mean_kwh > 0:
            raise ValueError("mean_kwh must be positive")
        if self.std_kwh < 0:
            raise ValueError("std_kwh must be nonnegative")
        if self.max_kwh is None:
            object.__setattr__(self, "max_kwh", 2.0 * self.mean_kwh)
        elif self.max_kwh <= 0:
            raise ValueError("max_kwh must be positive")


@dataclass(frozen=True)
class CyclePhases:
    """Closed-form outcome of charging cycles, before truncation.

    Arrays of the arguments' broadcast shape from :func:`cycle_phases`.
    """

    full_power_kw: float
    bess_kw: float
    full_h: float
    curtailed_h: float
    bess_delivered_kwh: float
    unmet_kwh: float
    recharge_h: float


@dataclass(frozen=True)
class ArrivalStream:
    """One day's EV arrivals: times within the horizon and their demands."""

    horizon_h: float
    times_h: tuple[float, ...]
    demands_kwh: tuple[float, ...]


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


def cycle_phases(
    capacity_kwh, grid_kw, demand_kwh, charger_max_kw: float, bess_power_kw
) -> CyclePhases:
    """Phase arithmetic of cycles that start from a full storage unit.

    Capacity, grid power, demand and storage power may be arrays; each
    element of the result is the outcome of its own cycle.
    """
    if charger_max_kw <= 0:
        raise ValueError("charger_max_kw must be positive")
    demand = np.asarray(demand_kwh, dtype=float)
    if (demand < 0).any():
        raise ValueError("demand_kwh must be nonnegative")
    return CyclePhases(
        *_phases(capacity_kwh, grid_kw, demand, charger_max_kw, bess_power_kw)
    )


def _phases(capacity, grid, demand, charger, bess_power) -> tuple:
    """:class:`CyclePhases` fields, element-wise, with no validation.

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


def draw_stream(
    arrivals: ArrivalModel, demand: DemandModel, horizon_h: float, seed: int
) -> ArrivalStream:
    """Arrival times and clamped demands over ``[0, horizon_h)`` from ``seed``.

    Draws alternate interarrival, demand, interarrival, ... from one Philox
    stream, so the sequence depends only on the models, the horizon and the
    seed, never on the storage unit that later serves it.
    """
    if horizon_h <= 0:
        raise ValueError("horizon_h must be positive")
    rng = _philox(seed)
    # Scalar draws return Python floats; bound methods save a lookup each.
    exponential, normal = rng.exponential, rng.normal
    scale_h = 1.0 / arrivals.rate_per_h
    mean_kwh, std_kwh = demand.mean_kwh, demand.std_kwh
    max_kwh = float(demand.max_kwh)
    times: list[float] = []
    demands: list[float] = []
    t_arrival = exponential(scale_h)
    while t_arrival < horizon_h:
        draw = normal(mean_kwh, std_kwh)
        times.append(t_arrival)
        # min(max(draw, 0.0), max_kwh) without the calls; np.clip gives the
        # same value for a finite draw at several times the cost.
        draw = 0.0 if draw < 0.0 else draw
        demands.append(max_kwh if max_kwh < draw else draw)
        t_arrival += exponential(scale_h)
    return ArrivalStream(horizon_h, tuple(times), tuple(demands))


def replay_lanes(
    streams: Sequence[ArrivalStream],
    stream_index,
    capacities_kwh,
    bess_power_kw: float,
    grid: GridProfile,
    charger_max_kw: float,
) -> LaneCycles:
    """Serve ``streams[stream_index[i]]`` from a full unit of ``capacities_kwh[i]``.

    This is the plaza's event loop, run for every lane ``i`` in lockstep.
    Lanes index the stream arrays instead of copying them, so the kinds of
    an ensemble cell share one draw.  Each step serves, on every lane still
    active, the first arrival after the last one served whose time is at
    least the lane's busy-until time; the arrivals skipped on the way are
    dropped, and a lane with no such arrival left is done.
    """
    if charger_max_kw <= 0:
        raise ValueError("charger_max_kw must be positive")
    rows = np.asarray(stream_index, dtype=np.intp)
    capacity = np.asarray(capacities_kwh, dtype=float)
    lengths = np.array([len(s.times_h) for s in streams], dtype=np.intp)
    horizons = np.array([s.horizon_h for s in streams], dtype=float)
    width = int(lengths.max(initial=0))
    # A -inf pad never finds the charger idle: busy-until is never negative.
    times = np.full((len(streams), width), -math.inf)
    demands = np.zeros((len(streams), width))
    for row, stream in enumerate(streams):
        times[row, : lengths[row]] = stream.times_h
        demands[row, : lengths[row]] = stream.demands_kwh
    columns = np.arange(width)

    n_lanes = len(rows)
    unmet_total = np.zeros(n_lanes)
    live = np.flatnonzero(lengths[rows] > 0)
    first = np.zeros(live.size, dtype=np.intp)  # next index a lane may serve
    busy = np.zeros(live.size)
    served: list[tuple] = []
    # Every step moves each live lane past one more arrival.
    for _ in range(width):
        row = rows[live]
        idle = (times[row] >= busy[:, None]) & (columns >= first[:, None])
        pick = idle.argmax(axis=1)
        found = idle[np.arange(live.size), pick]
        if not found.all():
            live, row, pick = live[found], row[found], pick[found]
        if not live.size:
            break
        cycle, busy = _serve(
            times[row, pick],
            demands[row, pick],
            capacity[live],
            horizons[row],
            grid,
            charger_max_kw,
            bess_power_kw,
        )
        unmet_total[live] += cycle[-2]  # unmet_kwh, in service order
        served.append((live, *cycle))
        first = pick + 1

    if served:
        lane = np.concatenate([step[0] for step in served])
        order = np.argsort(lane, kind="stable")
        values = [
            np.concatenate([step[k] for step in served])[order]
            for k in range(1, len(_CYCLE_FIELDS) + 1)
        ]
    else:
        lane = np.empty(0, dtype=np.intp)
        values = [np.empty(0)] * (len(_CYCLE_FIELDS) - 1) + [np.empty(0, bool)]
    counts = np.bincount(lane, minlength=n_lanes)
    return LaneCycles(
        counts=counts,
        dropped=lengths[rows] - counts,
        unmet_total_kwh=unmet_total,
        **dict(zip(_CYCLE_FIELDS, values)),
    )


def _serve(start_h, demand_kwh, capacity, horizon_h, grid, charger, bess_power):
    """The served arrivals' cycles, cut at the horizon, and their end times.

    The cycle values come in :data:`_CYCLE_FIELDS` order.
    """
    grid_kw = grid.powers_at(start_h)
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
