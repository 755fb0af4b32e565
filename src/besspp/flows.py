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
series strings are limited to :data:`~besspp.scenario.MAX_CUT_MODULES`
modules: a limit that :mod:`besspp.scenario` states and checks as a
scenario loads, and that the kernels check again.

Dedicated per-module converters (fpp) have no string: their deliverable
energy is the closed form :func:`fpp_deliverable`, ``sum_j min(E_j, cap)``,
evaluated for every pack x cap in one array pass.

The cut form takes a wired string in one form: module energies and
voltages, the ``(i, j)`` module pairs of its edges and one energy cap per
edge, the pairs and caps a :class:`~besspp.architectures.BudgetSplit`
carries.  The uncapped evaluators take one pack's energy and voltage
arrays and placements of uncapped edges.  One check, ``_check_wiring``,
validates the wiring for all of them.  Every pack total, fpp's included,
is one fold, ``_module_totals``, which adds module columns left to right.
A pair may be listed twice (an lshippp split puts a ladder rung beside a
layer-1 edge on the same pair); its caps then add.

The package solves no LP: deliverable energy has the cut form as its one
path, and :mod:`besspp.designer` fixes the layer-1 flows by the same
argument.  The LP above and the two-pass minimum-peak LP it replaced are
the tests' references (``tests/lp_reference.py``), which criterion 4 and
the kernel and designer tests check the package against.
"""

from __future__ import annotations

import numpy as np

from besspp.scenario import MAX_CUT_MODULES

__all__ = [
    "cut_form_energy",
    "uncapped_placement_energy",
    "uncapped_min_peak",
    "fpp_deliverable",
]


# Entries per temporary table of the cut form; bounds its working memory.
_CHUNK_ENTRIES = 1 << 14


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
    if energy.ndim != 2:
        raise ValueError("energy_kwh and volts_v must be equal (packs x n) arrays")
    if caps.ndim != 2 or caps.shape[1] != len(pairs):
        raise ValueError("caps_kwh must hold one cap per edge in every row")
    _check_wiring(energy, volts, pairs, caps)
    n = energy.shape[1]
    _check_cut_size(n)
    ids = np.arange(1 << n)
    crossed = [((ids >> i) ^ (ids >> j)) & 1 == 1 for i, j in pairs]

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


def uncapped_placement_energy(energy_kwh, volts_v, placements) -> np.ndarray:
    """Deliverable energy of one pack under each placement of uncapped edges.

    ``energy_kwh`` and ``volts_v`` hold the pack's n module energies and
    voltages.  ``placements`` is a (placements x edges x 2) array of module
    pairs, or a sequence of equal-size tuples of pairs.  An uncapped edge
    makes every subset it crosses unbounded, so a placement's optimum is the
    smallest ``E(S) / V(S)`` over the subsets none of its edges cross.  The
    subsets are scanned once in order of that ratio, and each placement is
    retired at the first one it leaves uncrossed; the whole string is
    crossed by no edge, so every placement retires, most of them within a
    few subsets.
    """
    energy, volts, ends = _placement_pairs(energy_kwh, volts_v, placements)
    ratio = _subset_sums(energy[None])[0, 1:] / _subset_sums(volts[None])[0, 1:]
    modules = np.arange(len(energy))
    q = np.empty(len(ends))
    open_ = np.arange(len(ends))
    for subset in np.argsort(ratio, kind="stable"):
        side = ((subset + 1) >> modules & 1)[ends]
        uncrossed = (side[..., 0] == side[..., 1]).all(axis=1)
        q[open_[uncrossed]] = ratio[subset]
        open_, ends = open_[~uncrossed], ends[~uncrossed]
        if not open_.size:
            break
    return (q[:, None] * volts).sum(axis=1)


def uncapped_min_peak(
    energy_kwh, volts_v, placements, output_kwh: float
) -> np.ndarray:
    """Smallest peak edge flow that meets ``output_kwh`` under each placement.

    The pack and ``placements`` are given as for
    :func:`uncapped_placement_energy`.  Every edge of a placement ``P`` is
    uncapped and all of them share one rating ``t``.  At string charge
    ``q = output_kwh / V_tot`` a module subset ``S`` needs
    ``q * V(S) - E(S)`` from outside, and its cut can import at most
    ``t * |dS & P|``, so (Gale 1957, as for the cut form)

        peak(P) = max(0, max over S with |dS & P| > 0 of
                          (q * V(S) - E(S)) / |dS & P|).

    Subsets that no edge crosses are left out: each must hold its own
    share, which is what ``output_kwh`` not exceeding the placement's
    :func:`uncapped_placement_energy` means.  The caller guarantees that,
    up to its own tie slack.  Placements are evaluated in fixed-size chunks
    so memory stays bounded.
    """
    energy, volts, pairs = _placement_pairs(energy_kwh, volts_v, placements)
    n = len(energy)
    # The string energy per module, exactly as the designer's flows fix it.
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


def _placement_pairs(energy_kwh, volts_v, placements):
    """One pack's checked energies, voltages and placement pairs.

    Returns the pack's (n,) module energies and voltages as float arrays and
    the (placements x edges x 2) module indices of its uncapped edges.  An
    index array passes through without a copy.
    """
    energy = np.asarray(energy_kwh, dtype=float)
    volts = np.asarray(volts_v, dtype=float)
    if energy.ndim != 1:
        raise ValueError("energy_kwh and volts_v must be equal (n,) arrays")
    try:
        pairs = np.asarray(placements, dtype=np.intp)
    except ValueError:  # ragged placements
        pairs = np.empty(0, dtype=np.intp)
    if pairs.ndim != 3 or 0 in pairs.shape[:2] or pairs.shape[2] != 2:
        raise ValueError("placements must be equal-size tuples of module pairs")
    _check_wiring(energy, volts, pairs, np.empty(0))
    _check_cut_size(len(energy))
    return energy, volts, pairs


def _check_wiring(energy, volts, pairs, caps) -> None:
    """The one check of a wired series string's values.

    ``energy`` and ``volts`` are equal arrays whose last axis is the n
    modules; ``pairs`` is any array of ``(i, j)`` module pairs and ``caps``
    any array of edge caps.  Energies and caps must be >= 0, which NaN is
    not, voltages > 0, and every pair must join two distinct modules of
    ``0..n-1``.  A pair listed more than once is legal: its caps add.
    """
    if volts.shape != energy.shape:
        raise ValueError("energy_kwh and volts_v must be equal arrays")
    n = energy.shape[-1]
    if n < 1:
        raise ValueError("a series string needs at least one module")
    if not (np.all(energy >= 0) and np.all(volts > 0) and np.all(caps >= 0)):
        raise ValueError("energies and caps must be >= 0 and voltages > 0")
    ends = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    if ends.size and (
        ends.min() < 0 or ends.max() >= n or np.any(ends[:, 0] == ends[:, 1])
    ):
        raise ValueError(f"edge pairs must join two distinct modules of 0..{n - 1}")


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


def fpp_deliverable(energy_kwh, caps_kwh) -> np.ndarray:
    """Deliverable energy with one dedicated converter per module.

    ``energy_kwh`` holds (packs x n) module energies and ``caps_kwh`` one
    converter energy cap per row, shared by the n converters of that row.
    Returns the (rows x packs) totals ``sum_j min(E_j, cap)``, folded by
    :func:`_module_totals` like every pack total.
    """
    energy = np.asarray(energy_kwh, dtype=float)
    caps = np.asarray(caps_kwh, dtype=float)
    if energy.ndim != 2:
        raise ValueError("energy_kwh must be a (packs x n) array")
    if caps.ndim != 1:
        raise ValueError("caps_kwh must hold one cap per row")
    if not np.all(caps >= 0):
        raise ValueError("energy caps must be nonnegative")
    return _module_totals(np.minimum(energy[None, :, :], caps[:, None, None]))


def _module_totals(energy: np.ndarray) -> np.ndarray:
    """Totals over the last (module) axis, added left to right from 0.0.

    Every pack total of the package is this fold, so each is the same float
    on every Python and numpy version.  ``ndarray.sum`` may add pairwise,
    and the builtin ``sum`` of floats is compensated from Python 3.12 on;
    either can round differently.
    """
    total = np.zeros(energy.shape[:-1])
    for j in range(energy.shape[-1]):
        total += energy[..., j]
    return total
