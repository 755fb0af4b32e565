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
:func:`replay_stream`, the event loop, serves it from one storage unit and
returns the cycles and the dropped arrivals.  :func:`simulate_day` runs
both and adds the 1-minute series; the ensemble draws each (cell,
trajectory) stream once and replays it for every architecture kind,
without building series it does not use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from besspp.flows import FlowNetwork, deliverable_energy

__all__ = [
    "GridProfile",
    "ArrivalModel",
    "DemandModel",
    "BessMonolith",
    "ChargeCycle",
    "CyclePhases",
    "ArrivalStream",
    "DayTrajectory",
    "CurtailmentStats",
    "effective_capacity",
    "evaluate_cycle",
    "draw_stream",
    "replay_stream",
    "simulate_day",
    "curtailed_minutes_per_ev",
]

HOURS_PER_DAY = 24.0
MINUTES_PER_HOUR = 60


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


@dataclass
class BessMonolith:
    """The storage unit as the plaza sees it: one bucket of usable energy."""

    effective_capacity_kwh: float
    max_discharge_kw: float
    remaining_kwh: float

    def __post_init__(self) -> None:
        if self.effective_capacity_kwh < 0:
            raise ValueError("effective_capacity_kwh must be nonnegative")
        if self.max_discharge_kw < 0:
            raise ValueError("max_discharge_kw must be nonnegative")
        if not 0 <= self.remaining_kwh <= self.effective_capacity_kwh + 1e-9:
            raise ValueError("remaining_kwh must lie within [0, capacity]")

    @classmethod
    def full(cls, capacity_kwh: float, max_discharge_kw: float) -> "BessMonolith":
        return cls(capacity_kwh, max_discharge_kw, capacity_kwh)


@dataclass(frozen=True)
class ChargeCycle:
    """Bookkeeping for one served EV."""

    index: int
    start_h: float
    demand_kwh: float
    grid_kw: float
    full_power_kw: float
    full_h: float
    curtailed_h: float
    bess_delivered_kwh: float
    recharge_h: float
    unmet_kwh: float
    truncated: bool


@dataclass(frozen=True)
class CyclePhases:
    """Closed-form outcome of a single charging cycle, before truncation."""

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


@dataclass(frozen=True)
class DayTrajectory:
    cycles: tuple[ChargeCycle, ...]
    horizon_h: float
    dropped_arrivals: int
    time_h: np.ndarray
    grid_kw: np.ndarray
    bess_kw: np.ndarray
    bess_kwh: np.ndarray
    ev_kw: np.ndarray


@dataclass(frozen=True)
class CurtailmentStats:
    mean_min: float
    max_min: float
    n_cycles: int


def effective_capacity(net: FlowNetwork) -> float:
    """Usable monolith energy: the architecture's deliverable energy."""
    return float(deliverable_energy([net])[0])


def evaluate_cycle(
    capacity_kwh: float,
    grid_kw: float,
    demand_kwh: float,
    charger_max_kw: float,
    bess_power_kw: float,
) -> CyclePhases:
    """Phase arithmetic for one cycle starting from a full storage unit."""
    if charger_max_kw <= 0:
        raise ValueError("charger_max_kw must be positive")
    if demand_kwh < 0:
        raise ValueError("demand_kwh must be nonnegative")
    bess_kw = min(bess_power_kw, max(0.0, charger_max_kw - grid_kw))
    full_power = min(charger_max_kw, grid_kw + bess_kw)
    if full_power <= 0:
        # No source at all: nothing can be delivered.
        return CyclePhases(0.0, 0.0, 0.0, 0.0, 0.0, demand_kwh, 0.0)
    t_demand = demand_kwh / full_power
    if not math.isfinite(t_demand):
        # Source power is vanishingly small: the cycle would never finish.
        return CyclePhases(full_power, bess_kw, 0.0, 0.0, 0.0, demand_kwh, 0.0)
    t_deplete = capacity_kwh / bess_kw if bess_kw > 0 else math.inf
    if t_demand <= t_deplete:
        delivered = bess_kw * t_demand
        phases = (t_demand, 0.0, delivered, 0.0)
    else:
        delivered = capacity_kwh
        rest = demand_kwh - full_power * t_deplete
        curtailed = rest / grid_kw if grid_kw > 0 else math.inf
        if math.isfinite(curtailed):
            phases = (t_deplete, curtailed, delivered, 0.0)
        else:
            # Pedestal power is zero for practical purposes: terminate.
            phases = (t_deplete, 0.0, delivered, rest)
    full_h, curtailed_h, delivered, unmet = phases
    if delivered > 0 and grid_kw > 0:
        recharge_h = delivered / grid_kw
    elif delivered > 0:
        recharge_h = math.inf
    else:
        recharge_h = 0.0
    return CyclePhases(
        full_power, bess_kw, full_h, curtailed_h, delivered, unmet, recharge_h
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
    rng = np.random.Generator(np.random.Philox(key=seed))
    scale_h = 1.0 / arrivals.rate_per_h
    max_kwh = float(demand.max_kwh)
    times: list[float] = []
    demands: list[float] = []
    t_arrival = float(rng.exponential(scale_h))
    while t_arrival < horizon_h:
        # Scalar clamp: np.clip gives the same value for a finite draw at
        # several times the cost.
        draw = float(rng.normal(demand.mean_kwh, demand.std_kwh))
        times.append(t_arrival)
        demands.append(min(max(draw, 0.0), max_kwh))
        t_arrival += float(rng.exponential(scale_h))
    return ArrivalStream(horizon_h, tuple(times), tuple(demands))


def replay_stream(
    bess: BessMonolith,
    grid: GridProfile,
    stream: ArrivalStream,
    charger_max_kw: float,
) -> tuple[tuple[ChargeCycle, ...], int]:
    """Serve ``stream`` from a full ``bess``: the cycles and the dropped count.

    This is the plaza's event loop; ``simulate_day`` and the ensemble both
    run it, the ensemble once per storage unit on a shared stream.
    """
    if charger_max_kw <= 0:
        raise ValueError("charger_max_kw must be positive")
    horizon_h = stream.horizon_h
    cycles: list[ChargeCycle] = []
    dropped = 0
    busy_until = 0.0
    for t_arrival, demand_kwh in zip(stream.times_h, stream.demands_kwh):
        if t_arrival < busy_until:
            dropped += 1
            continue
        cycle = _serve(
            len(cycles), t_arrival, demand_kwh, bess, grid, charger_max_kw,
            horizon_h,
        )
        cycles.append(cycle)
        end = t_arrival + cycle.full_h + cycle.curtailed_h + cycle.recharge_h
        if cycle.bess_delivered_kwh > 0 and cycle.grid_kw <= 0:
            end = math.inf  # recharge can never complete
        busy_until = end
    return tuple(cycles), dropped


def simulate_day(
    bess: BessMonolith,
    grid: GridProfile,
    arrivals: ArrivalModel,
    demand: DemandModel,
    charger_max_kw: float,
    horizon_h: float,
    seed: int,
) -> DayTrajectory:
    """Simulate one day of plaza service; the unit starts the day full."""
    stream = draw_stream(arrivals, demand, horizon_h, seed)
    cycles, dropped = replay_stream(bess, grid, stream, charger_max_kw)
    return DayTrajectory(
        cycles=cycles,
        horizon_h=horizon_h,
        dropped_arrivals=dropped,
        **_minute_series(cycles, bess, grid, horizon_h),
    )


def _serve(
    index: int,
    start_h: float,
    demand_kwh: float,
    bess: BessMonolith,
    grid: GridProfile,
    charger_max_kw: float,
    horizon_h: float,
) -> ChargeCycle:
    grid_kw = grid.power_at(start_h)
    phases = evaluate_cycle(
        bess.effective_capacity_kwh,
        grid_kw,
        demand_kwh,
        charger_max_kw,
        bess.max_discharge_kw,
    )
    full_h = phases.full_h
    curtailed_h = phases.curtailed_h
    delivered = phases.bess_delivered_kwh
    unmet = phases.unmet_kwh
    recharge_h = phases.recharge_h
    room = horizon_h - start_h
    truncated = False
    if full_h > room:
        # Day ends mid full-power phase.
        full_h = room
        delivered = phases.bess_kw * full_h
        unmet = demand_kwh - phases.full_power_kw * full_h
        curtailed_h = 0.0
        recharge_h = 0.0
        truncated = True
    elif full_h + curtailed_h > room:
        curtailed_h = room - full_h
        unmet = demand_kwh - phases.full_power_kw * full_h - grid_kw * curtailed_h
        recharge_h = 0.0
        truncated = True
    elif not math.isfinite(recharge_h) or full_h + curtailed_h + recharge_h > room:
        # Service completed; only the refill is cut short by the day's end.
        recharge_h = room - full_h - curtailed_h
    return ChargeCycle(
        index=index,
        start_h=start_h,
        demand_kwh=demand_kwh,
        grid_kw=grid_kw,
        full_power_kw=phases.full_power_kw,
        full_h=full_h,
        curtailed_h=curtailed_h,
        bess_delivered_kwh=delivered,
        recharge_h=recharge_h,
        unmet_kwh=max(0.0, unmet),
        truncated=truncated,
    )


def _minute_series(
    cycles: tuple[ChargeCycle, ...],
    bess: BessMonolith,
    grid: GridProfile,
    horizon_h: float,
) -> dict:
    n = int(round(horizon_h * MINUTES_PER_HOUR)) + 1
    time_h = np.arange(n) / MINUTES_PER_HOUR
    grid_kw = grid.powers_at(time_h)
    bess_kw = np.zeros(n)
    ev_kw = np.zeros(n)
    bess_kwh = np.full(n, bess.effective_capacity_kwh)

    for cycle in cycles:
        t0 = cycle.start_h
        t1 = t0 + cycle.full_h
        t2 = t1 + cycle.curtailed_h
        t3 = t2 + cycle.recharge_h
        p_bess = (
            cycle.bess_delivered_kwh / cycle.full_h if cycle.full_h > 0 else 0.0
        )
        recharge_kw = cycle.grid_kw if cycle.bess_delivered_kwh > 0 else 0.0
        in_full = (time_h >= t0) & (time_h < t1)
        in_curt = (time_h >= t1) & (time_h < t2)
        in_rech = (time_h >= t2) & (time_h < t3)
        after = time_h >= t3
        ev_kw[in_full] = cycle.full_power_kw
        ev_kw[in_curt] = cycle.grid_kw
        bess_kw[in_full] = p_bess
        bess_kw[in_rech] = -recharge_kw
        bess_kwh[in_full] = bess.effective_capacity_kwh - p_bess * (
            time_h[in_full] - t0
        )
        bess_kwh[in_curt] = (
            bess.effective_capacity_kwh - cycle.bess_delivered_kwh
        )
        bess_kwh[in_rech] = (
            bess.effective_capacity_kwh
            - cycle.bess_delivered_kwh
            + recharge_kw * (time_h[in_rech] - t2)
        )
        end_state = min(
            bess.effective_capacity_kwh,
            bess.effective_capacity_kwh
            - cycle.bess_delivered_kwh
            + recharge_kw * cycle.recharge_h,
        )
        bess_kwh[after] = end_state
    np.clip(bess_kwh, 0.0, bess.effective_capacity_kwh, out=bess_kwh)
    return {
        "time_h": time_h,
        "grid_kw": grid_kw,
        "bess_kw": bess_kw,
        "bess_kwh": bess_kwh,
        "ev_kw": ev_kw,
    }


def curtailed_minutes_per_ev(trajectory: DayTrajectory) -> CurtailmentStats:
    """Mean and worst pedestal duration over completed cycles.

    Truncated cycles are excluded; an empty day yields NaN statistics with
    ``n_cycles == 0``.
    """
    durations = [
        cycle.curtailed_h * MINUTES_PER_HOUR
        for cycle in trajectory.cycles
        if not cycle.truncated
    ]
    if not durations:
        return CurtailmentStats(math.nan, math.nan, 0)
    return CurtailmentStats(
        mean_min=float(np.mean(durations)),
        max_min=float(np.max(durations)),
        n_cycles=len(durations),
    )
