"""Energy-flow evaluation over a series string with converter edges.

A pack is a series string of modules: one shared string charge passes
through every module, and battery-to-battery converter edges move a bounded
amount of energy between modules over the discharge horizon.  Deliverable
energy is the optimum of a small LP:

    maximize   sum_j q * V_j                     (energy into the output bus)
    subject to q * V_j + outflow_j - inflow_j <= E_j   for every module j,
               |f_e| <= cap_e                          for every edge e,
               q >= 0.

The per-module inequality is the singular-depletion rule: a module may not
be driven past its own usable energy even if its neighbours still hold
charge.  Because the edges are lossless and bidirectional, the LP has a
closed form by max-flow/min-cut (Gale 1957, Hoffman 1960): a string charge
``q`` is feasible exactly when no module subset ``S`` needs more energy
than it holds plus what its cut can import, so

    Q* = V_tot * min over nonempty S of (E(S) + cap(dS)) / V(S),

where ``dS`` is the set of edges with exactly one end in ``S``.
:func:`cut_form_energy` is the kernel: it evaluates that form for every
pack x row of edge caps of one wiring, building the subset sums once per
chunk of packs and the cut table once per cap row; the sweeps call it once
per curve.  :func:`uncapped_placement_energy` evaluates many uncapped
placements on one pack, and :func:`uncapped_min_peak` the same argument's
parametric form: the smallest shared edge rating at which each placement
meets a required output.  All three enumerate the ``2**n - 1`` subsets, so
series strings are limited to :data:`MAX_CUT_MODULES` modules.

A :class:`FlowNetwork` is always a series string.  Dedicated per-module
converters (fpp) have no string and no network here: their deliverable
energy is the closed form :func:`fpp_deliverable`, ``sum_j min(E_j, cap)``,
evaluated for every pack x cap in one array pass.

The simplex remains where flows are needed: :func:`min_peak_flow` fixes the
designed converter flows, and :func:`max_deliverable_energy` solves the LP
above with its flows and serves as the reference for the cut form.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from besspp.simplex import (
    BoundedLp,
    LpInfeasible,
    solve_bounded_lp,
)
from besspp.supply import BatteryModule

__all__ = [
    "ConverterEdge",
    "FlowNetwork",
    "FlowSolution",
    "InfeasibleFlowError",
    "MAX_CUT_MODULES",
    "cut_form_energy",
    "uncapped_placement_energy",
    "uncapped_min_peak",
    "max_deliverable_energy",
    "min_peak_flow",
    "fpp_deliverable",
]


# The cut form enumerates every nonempty module subset: 2**16 - 1 = 65,535
# subsets at this limit.  Larger series strings are rejected, not attempted.
MAX_CUT_MODULES = 16

# Entries per temporary table of the cut form; bounds its working memory.
_CHUNK_ENTRIES = 1 << 14


class InfeasibleFlowError(Exception):
    """Raised when a requested output cannot be met by any feasible flow."""


@dataclass(frozen=True)
class ConverterEdge:
    """Directed tag of a bidirectional converter between two modules.

    ``energy_cap_kwh`` bounds ``|flow|`` over the horizon; it may be
    ``math.inf`` while a sparse layer is being designed.  Positive flow moves
    energy from ``from_battery`` to ``to_battery``.
    """

    from_battery: int
    to_battery: int
    energy_cap_kwh: float
    layer: int = 1


@dataclass(frozen=True)
class FlowNetwork:
    """A series string of modules plus its converter edges."""

    batteries: tuple[BatteryModule, ...]
    converter_edges: tuple[ConverterEdge, ...] = ()
    horizon_h: float = 1.0


@dataclass(frozen=True)
class FlowSolution:
    """Optimal energy bookkeeping for one network over the horizon.

    ``string_energy`` is the per-module energy pushed through the series
    string (``q * V_j``).  ``extraction`` is what each module actually
    gives up, string plus net converter outflow.
    """

    string_energy: tuple[float, ...]
    edge_flows: tuple[float, ...]
    extraction: tuple[float, ...]
    total_output: float


def _check_network(net: FlowNetwork) -> None:
    from besspp.architectures import validate_network

    problems = validate_network(net)
    if problems:
        raise ValueError("invalid flow network: " + "; ".join(problems))


def max_deliverable_energy(net: FlowNetwork) -> FlowSolution:
    """Maximize the energy delivered to the output bus over the horizon."""
    _check_network(net)
    n = len(net.batteries)
    n_edges = len(net.converter_edges)
    volts = np.array([b.voltage_v for b in net.batteries])
    caps = np.array([b.capacity_kwh for b in net.batteries])

    # Columns: [q, flows..., slacks...]; rows: one extraction bound per module.
    n_vars = 1 + n_edges + n
    a = np.zeros((n, n_vars))
    a[:, 0] = volts
    for k, edge in enumerate(net.converter_edges):
        a[edge.from_battery, 1 + k] = 1.0
        a[edge.to_battery, 1 + k] = -1.0
    a[:, 1 + n_edges :] = np.eye(n)

    lower = np.zeros(n_vars)
    upper = np.full(n_vars, np.inf)
    for k, edge in enumerate(net.converter_edges):
        cap = edge.energy_cap_kwh
        lower[1 + k] = -cap if math.isfinite(cap) else -np.inf
        upper[1 + k] = cap if math.isfinite(cap) else np.inf

    c = np.zeros(n_vars)
    c[0] = volts.sum()

    sol = solve_bounded_lp(BoundedLp(c, a, caps, lower, upper))
    return _assemble(net, float(sol.x[0]), sol.x[1 : 1 + n_edges])


def cut_form_energy(energy_kwh, volts_v, pairs, caps_kwh) -> np.ndarray:
    """Deliverable energy of every pack under every row of edge caps.

    ``energy_kwh`` and ``volts_v`` are (packs x n) module energies and
    voltages, ``pairs`` the ``(i, j)`` module pairs of the edges and
    ``caps_kwh`` a (rows x edges) matrix of their energy caps (``math.inf``
    allowed).  Returns the (rows x packs) optima of the series string.  The
    subset sums are built once per chunk of packs and the cut table once per
    cap row; no table holds more than ``_CHUNK_ENTRIES`` entries or one row
    of ``2**n``.
    """
    energy = np.asarray(energy_kwh, dtype=float)
    volts = np.asarray(volts_v, dtype=float)
    caps = np.asarray(caps_kwh, dtype=float)
    if energy.ndim != 2 or volts.shape != energy.shape:
        raise ValueError("energy_kwh and volts_v must be equal (packs x n) arrays")
    n = energy.shape[1]
    if n < 1:
        raise ValueError("a series string needs at least one module")
    _check_cut_size(n)
    if caps.ndim != 2 or caps.shape[1] != len(pairs):
        raise ValueError("caps_kwh must hold one cap per edge in every row")
    if not (np.all(energy >= 0) and np.all(volts > 0) and np.all(caps >= 0)):
        raise ValueError("energies and caps must be >= 0 and voltages > 0")
    ids = np.arange(1 << n)
    crossed = []
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n and i != j):
            raise ValueError(
                f"edge pairs must join two distinct modules of 0..{n - 1}"
            )
        crossed.append(((ids >> i) ^ (ids >> j)) & 1 == 1)

    step = max(1, _CHUNK_ENTRIES >> n)
    q = np.empty((len(caps), len(energy)))
    for top in range(0, len(caps), step):
        cuts = np.zeros((len(caps[top : top + step]), 1 << n))
        for e, mask in enumerate(crossed):
            cuts += np.where(mask, caps[top : top + step, e : e + 1], 0.0)
        for lo in range(0, len(energy), step):
            e_sub = _subset_sums(energy[lo : lo + step])[:, 1:]
            v_sub = _subset_sums(volts[lo : lo + step])[:, 1:]
            for k, cut in enumerate(cuts, top):
                q[k, lo : lo + step] = ((e_sub + cut[1:]) / v_sub).min(axis=1)
    return (q[..., None] * volts).sum(axis=-1)


def uncapped_placement_energy(
    batteries: tuple[BatteryModule, ...],
    placements: Sequence[tuple[tuple[int, int], ...]],
) -> np.ndarray:
    """Deliverable energy of one pack under each placement of uncapped edges.

    An uncapped edge makes every subset it crosses unbounded, so a
    placement's optimum is the smallest ``E(S) / V(S)`` over the subsets
    none of its edges cross.  The subsets are sorted by that ratio once and
    each placement takes the first one it leaves uncrossed.  Placements are
    evaluated in fixed-size chunks so memory stays bounded.
    """
    pairs = _placement_pairs(batteries, placements)
    n = len(batteries)
    energy = np.array([[b.capacity_kwh for b in batteries]])
    volts = np.array([[b.voltage_v for b in batteries]])
    ratio = _subset_sums(energy)[0, 1:] / _subset_sums(volts)[0, 1:]
    order = np.argsort(ratio, kind="stable")
    ratio = ratio[order]
    member = (((order + 1)[None, :] >> np.arange(n)[:, None]) & 1).astype(bool)

    q = np.empty(len(pairs))
    step = max(1, _CHUNK_ENTRIES // (pairs.shape[1] * len(order)))
    for lo in range(0, len(pairs), step):
        chunk = pairs[lo : lo + step]
        crossed = (member[chunk[..., 0]] != member[chunk[..., 1]]).any(axis=1)
        q[lo : lo + step] = ratio[crossed.argmin(axis=1)]
    return (q[:, None] * volts).sum(axis=1)


def uncapped_min_peak(
    batteries: tuple[BatteryModule, ...],
    placements: Sequence[tuple[tuple[int, int], ...]],
    output_kwh: float,
) -> np.ndarray:
    """Smallest peak edge flow that meets ``output_kwh`` under each placement.

    Every edge of a placement ``P`` is uncapped and all of them share one
    rating ``t``.  At string charge ``q = output_kwh / V_tot`` a module
    subset ``S`` needs ``q * V(S) - E(S)`` from outside, and its cut can
    import at most ``t * |dS & P|``, so (Gale 1957, as for the cut form)

        peak(P) = max(0, max over S with |dS & P| > 0 of
                          (q * V(S) - E(S)) / |dS & P|).

    Subsets that no edge crosses are left out: each must hold its own
    share, which is what ``output_kwh`` not exceeding the placement's
    :func:`uncapped_placement_energy` means.  The caller guarantees that,
    up to its own tie slack.  Placements are evaluated in fixed-size chunks
    so memory stays bounded.
    """
    pairs = _placement_pairs(batteries, placements)
    n = len(batteries)
    volts = np.array([b.voltage_v for b in batteries])
    energy = np.array([b.capacity_kwh for b in batteries])
    # The string energy per module exactly as min_peak_flow fixes it.
    string = volts * (output_kwh / volts.sum())
    need = _subset_sums((string - energy)[None, :])[0, 1:]
    ids = np.arange(1, 1 << n)
    member = ((ids[None, :] >> np.arange(n)[:, None]) & 1).astype(bool)

    peaks = np.empty(len(pairs))
    step = max(1, _CHUNK_ENTRIES // (pairs.shape[1] * len(ids)))
    for lo in range(0, len(pairs), step):
        chunk = pairs[lo : lo + step]
        crossing = (member[chunk[..., 0]] != member[chunk[..., 1]]).sum(axis=1)
        # Uncrossed subsets read 0, which is also the floor of the peak.
        share = np.where(crossing > 0, need / np.maximum(crossing, 1), 0.0)
        peaks[lo : lo + step] = share.max(axis=1)
    return peaks


def _placement_pairs(
    batteries: tuple[BatteryModule, ...],
    placements: Sequence[tuple[tuple[int, int], ...]],
) -> np.ndarray:
    """Checked (placements x edges x 2) module indices of one pack's placements.

    The array is filled from a flat iterator over the pairs, without an
    intermediate nested-sequence conversion.
    """
    _check_network(FlowNetwork(tuple(batteries)))
    n = len(batteries)
    _check_cut_size(n)
    m = len(placements[0]) if len(placements) else 0
    if m == 0 or any(len(p) != m for p in placements):
        raise ValueError("placements must be equal-size tuples of module pairs")
    pairs = np.fromiter(
        itertools.chain.from_iterable(placements),
        dtype=np.dtype((np.intp, 2)),
        count=len(placements) * m,
    ).reshape(len(placements), m, 2)
    if pairs.min() < 0 or pairs.max() >= n or np.any(pairs[..., 0] == pairs[..., 1]):
        raise ValueError(f"placement pairs must join two distinct modules of 0..{n - 1}")
    return pairs


def _check_cut_size(n: int) -> None:
    if n > MAX_CUT_MODULES:
        raise ValueError(
            f"the cut form enumerates 2**n - 1 module subsets and supports at "
            f"most {MAX_CUT_MODULES} modules in series, got {n}"
        )


def _subset_sums(values: np.ndarray) -> np.ndarray:
    """Per-row sums over every module subset, indexed by its bit mask."""
    rows, n = values.shape
    table = np.zeros((rows, 1 << n))
    for j in range(n):
        table[:, 1 << j : 2 << j] = table[:, : 1 << j] + values[:, j : j + 1]
    return table


def min_peak_flow(net: FlowNetwork, required_output_kwh: float) -> FlowSolution:
    """Meet a required output while minimizing the largest converter flow.

    The string charge is fixed by the required output; the LP chooses edge
    flows.  A first pass minimizes the peak ``max_e |f_e|`` and a second pass
    minimizes total moved energy at that peak, which pins the flow vector
    for reporting and rating purposes.
    """
    _check_network(net)
    if required_output_kwh < 0:
        raise ValueError("required_output_kwh must be nonnegative")

    n = len(net.batteries)
    volts = np.array([b.voltage_v for b in net.batteries])
    caps = np.array([b.capacity_kwh for b in net.batteries])
    string = volts * (required_output_kwh / volts.sum())

    edges = net.converter_edges
    n_edges = len(edges)
    if n_edges == 0:
        if np.any(string > caps + 1e-9 * (1 + caps.max(initial=0.0))):
            raise InfeasibleFlowError(
                "required output exceeds the stringwise deliverable energy"
            )
        return _assemble(net, float(required_output_kwh / volts.sum()), np.zeros(0))

    peak = _solve_peak_pass(edges, string, caps)
    flows = _solve_movement_pass(edges, string, caps, peak)
    return _assemble(net, float(required_output_kwh / volts.sum()), flows)


def fpp_deliverable(energy_kwh, caps_kwh) -> np.ndarray:
    """Deliverable energy with one dedicated converter per module.

    ``energy_kwh`` holds (packs x n) module energies and ``caps_kwh`` one
    converter energy cap per row, shared by the n converters of that row.
    Returns the (rows x packs) totals ``sum_j min(E_j, cap)``.  The columns
    are added left to right from 0.0, the fold of ``supply._left_sum``, so
    every total is the same float on every Python version.
    """
    energy = np.asarray(energy_kwh, dtype=float)
    caps = np.asarray(caps_kwh, dtype=float)
    if energy.ndim != 2:
        raise ValueError("energy_kwh must be a (packs x n) array")
    if caps.ndim != 1:
        raise ValueError("caps_kwh must hold one cap per row")
    if not np.all(caps >= 0):
        raise ValueError("energy caps must be nonnegative")
    taken = np.minimum(energy[None, :, :], caps[:, None, None])
    total = np.zeros(taken.shape[:2])
    for j in range(energy.shape[1]):
        total += taken[:, :, j]
    return total


def _split_flow_rows(
    edges: tuple[ConverterEdge, ...], string: np.ndarray, caps: np.ndarray
):
    """Battery rows over split flow variables ``f+ - f-`` with slacks."""
    n = len(string)
    n_edges = len(edges)
    a = np.zeros((n, 2 * n_edges))
    for k, edge in enumerate(edges):
        a[edge.from_battery, 2 * k] = 1.0
        a[edge.to_battery, 2 * k] = -1.0
        a[edge.from_battery, 2 * k + 1] = -1.0
        a[edge.to_battery, 2 * k + 1] = 1.0
    return a, caps - string


def _solve_peak_pass(
    edges: tuple[ConverterEdge, ...], string: np.ndarray, caps: np.ndarray
) -> float:
    n, n_edges = len(string), len(edges)
    flow_rows, room = _split_flow_rows(edges, string, caps)
    # Columns: [t, f+-, pair slacks, battery slacks].
    n_vars = 1 + 2 * n_edges + n_edges + n
    a = np.zeros((n_edges + n, n_vars))
    b = np.zeros(n_edges + n)
    for k in range(n_edges):  # f+ + f- - t + w_k = 0
        a[k, 1 + 2 * k] = 1.0
        a[k, 1 + 2 * k + 1] = 1.0
        a[k, 0] = -1.0
        a[k, 1 + 2 * n_edges + k] = 1.0
    a[n_edges:, 1 : 1 + 2 * n_edges] = flow_rows
    a[n_edges:, 1 + 2 * n_edges + n_edges :] = np.eye(n)
    b[n_edges:] = room

    lower = np.zeros(n_vars)
    upper = np.full(n_vars, np.inf)
    for k, edge in enumerate(edges):
        if math.isfinite(edge.energy_cap_kwh):
            upper[1 + 2 * k] = edge.energy_cap_kwh
            upper[1 + 2 * k + 1] = edge.energy_cap_kwh

    c = np.zeros(n_vars)
    c[0] = -1.0  # minimize the peak
    try:
        sol = solve_bounded_lp(BoundedLp(c, a, b, lower, upper))
    except LpInfeasible as exc:
        raise InfeasibleFlowError(
            "required output exceeds the deliverable energy of this network"
        ) from exc
    return float(sol.x[0])


def _solve_movement_pass(
    edges: tuple[ConverterEdge, ...],
    string: np.ndarray,
    caps: np.ndarray,
    peak: float,
) -> np.ndarray:
    n, n_edges = len(string), len(edges)
    flow_rows, room = _split_flow_rows(edges, string, caps)
    peak_bound = peak * (1 + 1e-9) + 1e-12
    # Columns: [f+-, pair slacks, battery slacks].
    n_vars = 2 * n_edges + n_edges + n
    a = np.zeros((n_edges + n, n_vars))
    b = np.zeros(n_edges + n)
    for k, edge in enumerate(edges):  # f+ + f- + w_k = min(cap, peak)
        a[k, 2 * k] = 1.0
        a[k, 2 * k + 1] = 1.0
        a[k, 2 * n_edges + k] = 1.0
        b[k] = min(edge.energy_cap_kwh, peak_bound)
    a[n_edges:, : 2 * n_edges] = flow_rows
    a[n_edges:, 2 * n_edges + n_edges :] = np.eye(n)
    b[n_edges:] = room

    lower = np.zeros(n_vars)
    upper = np.full(n_vars, np.inf)
    c = np.zeros(n_vars)
    c[: 2 * n_edges] = -1.0  # minimize total moved energy
    try:
        sol = solve_bounded_lp(BoundedLp(c, a, b, lower, upper))
    except LpInfeasible as exc:  # pragma: no cover - pass 1 already succeeded
        raise InfeasibleFlowError("movement pass infeasible") from exc
    split = sol.x[: 2 * n_edges]
    return split[0::2] - split[1::2]


def _assemble(net: FlowNetwork, q: float, flows: np.ndarray) -> FlowSolution:
    volts = np.array([b.voltage_v for b in net.batteries])
    string = q * volts
    extraction = string.copy()
    for k, edge in enumerate(net.converter_edges):
        extraction[edge.from_battery] += flows[k]
        extraction[edge.to_battery] -= flows[k]
    return FlowSolution(
        string_energy=tuple(float(v) for v in string),
        edge_flows=tuple(float(v) for v in flows),
        extraction=tuple(float(v) for v in extraction),
        total_output=float(string.sum()),
    )
