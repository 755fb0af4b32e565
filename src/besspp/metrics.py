"""Evaluation metrics for pack output and plaza service quality.

Dispersion statistics use population moments (``ddof=0``), numpy's
default, so frozen expected values are reproducible bit-for-bit.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "system_efficiency",
    "grid_ev_energy_gap",
    "derating_factor",
    "captured_value",
    "utilization_stats",
]


def system_efficiency(converter_efficiency: float, rating_r: float) -> float:
    """Storage-system efficiency when only a fraction R of power is processed.

    Converter loss applies to the processed share alone, hence
    ``1 - (1 - eta_c) * R``.  The processed share saturates at 1: surplus
    converter rating cannot touch more than all of the power.
    """
    if not 0 < converter_efficiency <= 1:
        raise ValueError("converter_efficiency must be in (0, 1]")
    if rating_r < 0:
        raise ValueError("rating_r must be nonnegative")
    return 1.0 - (1.0 - converter_efficiency) * min(rating_r, 1.0)


def grid_ev_energy_gap(demand_kwh, grid_kw, interval_h):
    """Energy the grid cannot supply over each charging interval.

    Positive when the EV wants more than the available grid power can
    deliver in the interval; the storage unit must cover it.  The arguments
    may be arrays, one element per interval.
    """
    named = {"demand_kwh": demand_kwh, "interval_h": interval_h, "grid_kw": grid_kw}
    for name, value in named.items():
        if (np.asarray(value) < 0).any():
            raise ValueError(f"{name} must be nonnegative")
    return demand_kwh - grid_kw * interval_h


def utilization_stats(samples) -> tuple[float, float, float, float, float]:
    """Mean, population std, p90 - p10, p10 and p90 of a flat sample.

    The order is that of the utilization columns of the tradeoff and
    dispersion tables.  The deciles are numpy's default (``linear``)
    quantiles, bit for bit.
    """
    arr = np.asarray(samples, dtype=float)
    p10 = _linear_quantile(arr, 0.1)
    p90 = _linear_quantile(arr, 0.9)
    return float(arr.mean()), float(arr.std()), p90 - p10, p10, p90


def _linear_quantile(values: np.ndarray, q: float) -> float:
    """``float(np.quantile(values, q))`` of a flat float sample, bit for bit.

    The same steps as numpy's ``linear`` rule: the same partition of a copy
    (a sort may order -0.0 and 0.0 differently), the same interpolation
    with its ``t >= 0.5`` branch, and the last element when it is NaN.
    ``np.quantile`` itself picks its partition points with ``np.unique``,
    which imports ``numpy.ma``: about 17 ms and 1.2 MB in every study.
    """
    n = values.size
    virtual = (n - 1) * q
    if virtual >= n - 1:
        below = above = -1
    else:
        below = math.floor(virtual)
        above = below + 1
    work = values.copy()
    work.partition(sorted({0, -1, below, above}))
    if math.isnan(work[-1]):
        return float(work[-1])
    low, high = work[below], work[above]
    t = virtual - below
    diff = high - low
    if t >= 0.5:
        return float(high - diff * (1 - t))
    return float(low + diff * t)


def derating_factor(output_samples) -> float:
    """Three-sigma worst-case output as a fraction of the mean, in [0, 1].

    ``(mean - 3 std) / mean`` over an ensemble of output samples, clamped to
    [0, 1]; population standard deviation.
    """
    arr = np.asarray(output_samples, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("derating_factor needs a flat sample of size >= 2")
    mean = float(arr.mean())
    if mean <= 0:
        raise ValueError("derating_factor needs a positive mean output")
    raw = (mean - 3.0 * float(arr.std())) / mean
    return min(1.0, max(0.0, raw))


def captured_value(
    derating: float, utilization: float, intrinsic_kwh: float
) -> float:
    """Dependable delivered energy: derating times utilization times capacity."""
    if not 0 <= derating <= 1:
        raise ValueError("derating must be in [0, 1]")
    if not 0 <= utilization <= 1 + 1e-9:
        raise ValueError("utilization must be in [0, 1]")
    if intrinsic_kwh < 0:
        raise ValueError("intrinsic_kwh must be nonnegative")
    return derating * utilization * intrinsic_kwh

