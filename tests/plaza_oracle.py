"""Pure-Python scalar oracle for the plaza's draw and lane core.

The one-stream scalar draw that :func:`besspp.plaza.draw_arrivals` replaced,
and the scalar phase arithmetic and per-arrival event loop that
:func:`besspp.plaza.replay_lanes` replaced, kept as the references that the
arrivals table, the lane core, the day study and the ensemble cells must
equal bit for bit.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from besspp.scenario import DAY_HORIZON_H


@dataclass(frozen=True)
class Cycle:
    """One served EV, numbered by its position in the day."""

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


# The per-cycle fields after ``index``; each names a LaneCycles array.
CYCLE_FIELDS = tuple(f.name for f in fields(Cycle))[1:]


def reference_draw(rate_per_h, demand, horizon_h, key):
    """One stream's arrival times and clamped demands, as two lists.

    Interarrival, demand, interarrival, ... from a fresh
    ``Generator(Philox(key=key))``, each demand clamped to
    ``[0, 2 * mean_kwh]``, until an arrival falls at or past the horizon.
    """
    rng = np.random.Generator(np.random.Philox(key=key))
    scale_h = 1.0 / rate_per_h
    times, demands = [], []
    t_arrival = rng.exponential(scale_h)
    while t_arrival < horizon_h:
        draw = rng.normal(demand.mean_kwh, demand.std_kwh)
        times.append(t_arrival)
        demands.append(min(max(draw, 0.0), 2.0 * demand.mean_kwh))
        t_arrival += rng.exponential(scale_h)
    return times, demands


def power_at(grid, t_h):
    """Available power of ``grid`` at hour ``t_h``, one segment at a time.

    The scalar lookup that :func:`besspp.plaza.powers_at` does
    over an array of times.
    """
    t = t_h % DAY_HORIZON_H
    level = grid.segments[0][1]
    for start, kw in grid.segments:
        if start > t:
            break
        level = kw
    return level


def reference_phases(capacity, grid_kw, demand, charger, bess_power):
    """One cycle's seven values, in the order of ``plaza.cycle_phases``."""
    bess_kw = min(bess_power, max(0.0, charger - grid_kw))
    full_power = min(charger, grid_kw + bess_kw)
    if full_power <= 0:
        return (0.0, 0.0, 0.0, 0.0, 0.0, demand, 0.0)
    t_demand = demand / full_power
    if not math.isfinite(t_demand):
        return (full_power, bess_kw, 0.0, 0.0, 0.0, demand, 0.0)
    t_deplete = capacity / bess_kw if bess_kw > 0 else math.inf
    if t_demand <= t_deplete:
        full_h, curtailed_h, delivered, unmet = (
            t_demand, 0.0, bess_kw * t_demand, 0.0
        )
    else:
        rest = demand - full_power * t_deplete
        curtailed = rest / grid_kw if grid_kw > 0 else math.inf
        if math.isfinite(curtailed):
            full_h, curtailed_h, delivered, unmet = t_deplete, curtailed, capacity, 0.0
        else:
            full_h, curtailed_h, delivered, unmet = t_deplete, 0.0, capacity, rest
    if delivered > 0 and grid_kw > 0:
        recharge_h = delivered / grid_kw
    elif delivered > 0:
        recharge_h = math.inf
    else:
        recharge_h = 0.0
    return full_power, bess_kw, full_h, curtailed_h, delivered, unmet, recharge_h


def reference_replay(capacity, bess_power, grid, arrivals, stream, charger):
    """Serve stream ``stream`` of the table ``arrivals`` from a full unit.

    Returns the cycles and the dropped count.
    """
    first = int(arrivals.lengths[:stream].sum())
    day = slice(first, first + int(arrivals.lengths[stream]))
    cycles, dropped, busy_until = [], 0, 0.0
    for start, demand in zip(
        arrivals.times_h[day].tolist(), arrivals.demands_kwh[day].tolist()
    ):
        if start < busy_until:
            dropped += 1
            continue
        grid_kw = power_at(grid, start)
        full_power, bess_kw, full_h, curtailed_h, delivered, unmet, recharge_h = (
            reference_phases(capacity, grid_kw, demand, charger, bess_power)
        )
        room = arrivals.horizon_h - start
        truncated = False
        if full_h > room:
            full_h = room
            delivered = bess_kw * full_h
            unmet = demand - full_power * full_h
            curtailed_h = recharge_h = 0.0
            truncated = True
        elif full_h + curtailed_h > room:
            curtailed_h = room - full_h
            unmet = demand - full_power * full_h - grid_kw * curtailed_h
            recharge_h = 0.0
            truncated = True
        elif not math.isfinite(recharge_h) or full_h + curtailed_h + recharge_h > room:
            recharge_h = room - full_h - curtailed_h
        cycles.append(
            Cycle(
                len(cycles), start, demand, grid_kw, full_power,
                full_h, curtailed_h, delivered, recharge_h, max(0.0, unmet),
                truncated,
            )
        )
        busy_until = start + full_h + curtailed_h + recharge_h
        if delivered > 0 and grid_kw <= 0:
            busy_until = math.inf
    return cycles, dropped


def lane_cycles(lanes, lane: int) -> list[Cycle]:
    """Lane ``lane`` of a :class:`~besspp.plaza.LaneCycles` as oracle records."""
    first = int(lanes.counts[:lane].sum())
    served = slice(first, first + int(lanes.counts[lane]))
    columns = [getattr(lanes, name)[served].tolist() for name in CYCLE_FIELDS]
    return [Cycle(k, *values) for k, values in enumerate(zip(*columns))]
