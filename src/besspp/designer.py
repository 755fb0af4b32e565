"""Sparse-layer design and budget tradeoff sweeps.

Layer 1 placement is an exhaustive search: for every size-``m`` set of
module pairs, evaluate the uncapped deliverable energy on the expected
(flattened) pack and keep the set with the largest output.  The search uses
the cut form of :mod:`besspp.flows`, so it solves no LP per placement, and
at most :data:`~besspp.scenario.MAX_PLACEMENTS` placements are searched.
Ties are broken by the smaller minimum-peak flow, which the parametric cut
form :func:`~besspp.flows.uncapped_min_peak` gives for every tied placement
in one array pass, and then by enumeration order, so designs are
deterministic.  The winner's flows follow from the same argument in closed
form (``_winner_flows``): on a forest, each edge carries the deficit of the
side it feeds, so the package solves no LP.  The shared layer-1 converter
rating is the flows' peak over the discharge horizon.

Layer 2 sizing is Monte Carlo: with layer-1 flows capped at their designed
optima, sweep the ladder-to-layer-1 aggregate ratio ``lambda_h`` and record
the utilization distribution over sampled packs.  The budget tradeoff
evaluates any architecture family on a grid of total normalized ratings
``R``.  Both are lists of budget splits from :mod:`besspp.architectures`
(:func:`~besspp.architectures.split_lambda` per ``lambda_h``,
:func:`~besspp.architectures.split_budget` per kind and ``R``), and each
split states the ``R`` it spends.  :func:`sweep_rows` turns one list of
splits into :data:`TRADEOFF_HEADER` rows: every split x pack in one
:func:`sweep_energy` call, which reads the wiring from the splits (one
cut-form kernel call for the string families, one array pass of the
closed form for fpp, and no network per pack), then the utilization
statistics of each split.  Packs are (packs x n) matrices of module
energies from :func:`~besspp.supply.sample_packs`, drawn once by the
caller, so every row of a study shares its random numbers.
"""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np

from besspp._record import Record
from besspp.architectures import BudgetSplit
from besspp.flows import (
    _module_totals,
    _subset_sums,
    cut_form_energy,
    fpp_deliverable,
    uncapped_min_peak,
    uncapped_placement_energy,
)
from besspp.metrics import utilization_stats
from besspp.scenario import check_placement_limit

__all__ = [
    "Layer1Design",
    "TRADEOFF_HEADER",
    "enumerate_placements",
    "design_layer1",
    "sweep_rows",
    "sweep_energy",
]

# Relative slack used when comparing candidate objectives during the search.
_TIE_RTOL = 1e-9

# Columns of a sweep row: the split's kind, R and lambda_h, then the
# utilization statistics in the order of metrics.utilization_stats.
TRADEOFF_HEADER = (
    "kind",
    "R",
    "lambda_h",
    "util_mean",
    "util_std",
    "util_idr",
    "util_p10",
    "util_p90",
)


class Layer1Design(Record):
    """Designed sparse layer for a given pack size.

    ``optimal_flows_kwh`` are the signed per-edge flows of the minimum-peak
    solution on the expected set; ``rating_kw`` is the identical procured
    converter rating, the peak of those flows over the horizon.
    """

    n_batteries: int
    edges: tuple[tuple[int, int], ...]
    optimal_flows_kwh: tuple[float, ...]
    rating_kw: float
    expected_output_kwh: float
    horizon_h: float


def enumerate_placements(n_batteries: int, n_edges: int) -> np.ndarray:
    """All size-``n_edges`` sets of module pairs, lexicographically ordered.

    A (placements x n_edges x 2) array of 0-based ``(i, j)`` pairs with
    ``i < j``, built from the combinations of pair ids; the search space is
    checked by :func:`~besspp.scenario.check_placement_limit`.
    """
    if n_batteries < 2:
        raise ValueError("n_batteries must be >= 2")
    pairs = np.array(list(itertools.combinations(range(n_batteries), 2)))
    if not 1 <= n_edges <= len(pairs):
        raise ValueError(
            f"n_edges must be in 1..{len(pairs)} for n_batteries={n_batteries}"
        )
    check_placement_limit(n_batteries, n_edges)
    count = math.comb(len(pairs), n_edges)
    ids = np.fromiter(
        itertools.chain.from_iterable(
            itertools.combinations(range(len(pairs)), n_edges)
        ),
        dtype=np.intp,
        count=count * n_edges,
    )
    return pairs[ids.reshape(count, n_edges)]


def design_layer1(
    expected_kwh: np.ndarray,
    voltage_v: float,
    n_edges: int,
    horizon_h: float,
) -> Layer1Design:
    """Exhaustively place ``n_edges`` uncapped converters on the expected set.

    ``expected_kwh`` is the expected set's row of module energies and
    ``voltage_v`` the voltage of every module.  Keeps the placement
    maximizing deliverable energy; among optima, the one whose minimum-peak
    flow is smallest, and among those the first in enumeration order.  The
    tied placements' peaks come from the parametric cut form; the winner's
    flows, and so its rating, from ``_winner_flows``, which raises
    ``ValueError`` for a winner whose flows are not unique.
    """
    if horizon_h <= 0:
        raise ValueError("horizon_h must be positive")
    energy = np.asarray(expected_kwh, dtype=float)
    volts = np.full(energy.shape, float(voltage_v))
    placements = enumerate_placements(len(energy), n_edges)

    outputs = uncapped_placement_energy(energy, volts, placements)
    best_output, tied = _tie_set(outputs)
    candidates = placements[tied]

    peaks = uncapped_min_peak(energy, volts, candidates, best_output).tolist()
    best = 0
    for k, peak in enumerate(peaks):
        if peak < peaks[best] * (1 - _TIE_RTOL) - _TIE_RTOL:
            best = k
    placement = tuple(tuple(pair) for pair in candidates[best].tolist())
    flows = _winner_flows(energy, volts, placement, best_output, peaks[best])
    peak = max((abs(f) for f in flows), default=0.0)

    return Layer1Design(
        n_batteries=len(energy),
        edges=placement,
        optimal_flows_kwh=flows,
        rating_kw=peak / horizon_h,
        expected_output_kwh=best_output,
        horizon_h=horizon_h,
    )


def _winner_flows(
    energy, volts, placement, output_kwh: float, peak_kwh: float
) -> tuple[float, ...]:
    """The winner's uncapped edge flows at ``output_kwh``, in closed form.

    ``need(S)`` is what module subset ``S`` lacks at the string charge, as
    :func:`~besspp.flows.uncapped_min_peak` folds it.  Edge ``(i, j)`` of a
    forest carries ``need(B)`` into side B, the modules its other edges join
    to ``j``, or else ``need(A)`` into side A, or nothing.  Where that
    overdraws a module, it carries the most any subset ``S`` holding ``j``
    and not ``i`` must take through it while its other crossing edges run
    at ``peak_kwh``.  Every optimum of the minimum-peak, then
    minimum-total-flow problem carries at least these flows, so flows within
    every module's room (1e-9 kWh slack) are its one optimum.  A cycle, or
    bounds that overdraw a module, raise ``ValueError``.  A positive flow
    runs from ``i`` to ``j``.
    """
    n = len(energy)
    string = volts * (output_kwh / volts.sum())
    room = energy - string
    member = (np.arange(1 << n) >> np.arange(n)[:, None]) & 1 == 1
    ends = np.array(placement)
    cut = member[ends[:, 0]] != member[ends[:, 1]]
    crossing = cut.sum(axis=0)
    # Where one edge crosses S, this reads need(S) exactly.
    need = _subset_sums((string - energy)[None])[0]
    through = need - peak_kwh * (crossing - 1)
    # A side is the smallest subset that only its own edge crosses; on a
    # cycle, every subset that parts i from j is crossed twice.
    size = np.where(crossing == 1, member.sum(axis=0), n + 1)
    sides, bounds = [], []
    for k, (i, j) in enumerate(placement):
        into_j, into_i = cut[k] & member[j], cut[k] & member[i]
        side_b = np.where(into_j, size, n + 1).argmin()
        side_a = np.where(into_i, size, n + 1).argmin()
        if size[side_b] > n:
            raise ValueError(f"layer-1 winner {placement} has a cycle: no unique flows")
        sides.append((through[side_b], through[side_a]))
        bounds.append((through[into_j].max(), through[into_i].max()))
    for needs in (sides, bounds):
        flows = tuple(
            float(b) if b > 0 else -float(a) if a > 0 else 0.0 for b, a in needs
        )
        outflow = np.zeros(n)
        for (i, j), f in zip(placement, flows):
            outflow[i] += f
            outflow[j] -= f
        if np.all(outflow <= room + 1e-9):
            return flows
    raise ValueError(f"layer-1 winner {placement} overdraws a module: no unique flows")


def _tie_set(outputs: np.ndarray) -> tuple[float, np.ndarray]:
    """Best output and the indices of the outputs tied with it, in order.

    A running-best scan in array form: an output sets a new best when it
    beats the current one by more than the relative tie slack, and the tie
    set holds the last such output and every later one within the slack of
    it.  The slack threshold only rises with the best, so no output before
    the current best passes it and the next new best is the first place
    where the running maximum (NaN ignored) does.
    """
    running = np.fmax.accumulate(outputs)
    last = 0
    best = float(outputs[0])
    while not math.isnan(best):
        cut = best + _TIE_RTOL * (1.0 + abs(best))
        nxt = int(np.searchsorted(running, cut, side="right"))
        if nxt == len(outputs):
            break
        last, best = nxt, float(outputs[nxt])
    tie = _TIE_RTOL * (1.0 + abs(best))
    later = last + 1 + np.flatnonzero(outputs[last + 1 :] >= best - tie)
    return best, np.concatenate([[last], later])


def sweep_rows(
    packs: np.ndarray, voltage_v: float, splits: list[BudgetSplit]
) -> list[tuple]:
    """One :data:`TRADEOFF_HEADER` row per split, over every pack.

    A row is the split's kind, ``rating_r`` and ``lambda_h``, then the
    :func:`~besspp.metrics.utilization_stats` of its deliverable energy
    (:func:`sweep_energy`) over each pack's total.  Every split is
    evaluated on the same packs, so rows of one call share their random
    numbers.
    """
    packs = np.asarray(packs, dtype=float)
    utils = sweep_energy(packs, voltage_v, splits) / _module_totals(packs)
    return [
        (split.kind.value, float(split.rating_r), float(split.lambda_h), *stats)
        for split, stats in zip(splits, map(utilization_stats, utils))
    ]


def sweep_energy(
    packs: np.ndarray, voltage_v: float, splits: list[BudgetSplit]
) -> np.ndarray:
    """Deliverable energy of every pack under every split, one row per split.

    ``packs`` is a (packs x n) matrix of module energies, every module at
    ``voltage_v``.  The splits must share one kind and one wiring.  Without
    string edges (fpp) it is one :func:`~besspp.flows.fpp_deliverable` call
    with one cap per split; a string wiring is one
    :func:`~besspp.flows.cut_form_energy` call with one cap row per split, so
    no per-pack network is built.
    """
    packs = np.asarray(packs, dtype=float)
    if not len(packs):
        raise ValueError("a sweep needs at least one pack")
    wirings = {(s.kind, s.pairs) for s in splits}
    if len(wirings) != 1:
        raise ValueError("a sweep needs splits of one kind and one wiring")
    ((_, pairs),) = wirings
    if not pairs:
        return fpp_deliverable(packs, [s.caps_kwh[0] for s in splits])
    return cut_form_energy(
        packs,
        np.full(packs.shape, float(voltage_v)),
        pairs,
        [s.caps_kwh for s in splits],
    )


def derive_seed(master: int, *parts: object) -> int:
    """Stable 128-bit stream key from a master seed and a label path."""
    text = "/".join([str(master), *(str(p) for p in parts)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


def derive_seeds(master: int, *parts: object, indices: range) -> list[int]:
    """``derive_seed(master, *parts, i)`` for every ``i`` of ``indices``.

    The label path they share is hashed once and each key only adds its
    index, so the keys are the same digests at a fraction of the cost.
    """
    prefix = hashlib.sha256(
        "/".join([str(master), *(str(p) for p in parts), ""]).encode("utf-8")
    )
    keys = []
    for i in indices:
        digest = prefix.copy()
        digest.update(str(i).encode("utf-8"))
        keys.append(int.from_bytes(digest.digest()[:16], "little"))
    return keys
