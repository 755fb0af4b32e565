"""Converter-network architectures for a second-use pack.

Three families are supported, all normalized by the same converter budget
rule ``R = P * T / E`` (aggregate converter power times discharge horizon
over intrinsic pack energy):

* ``fpp``      - full power processing: one dedicated converter per module,
                 no series string; every module's output is individually
                 capped.
* ``cppp``     - conventional partial power processing: a ladder of
                 converters between adjacent modules in the string, budget
                 split evenly over the N-1 rungs.
* ``lshippp``  - lite-sparse hierarchical partial power processing: a small
                 designed set of high-impact module-to-module converters
                 (layer 1) plus a cheap adjacent ladder (layer 2) whose
                 aggregate rating is ``lambda_h`` times layer 1's.

Converter energy caps are sized from a reference (expected) pack so that
hardware is identical across Monte Carlo packs: ``budget_basis_kwh`` pins
that reference when sampled packs are evaluated.  :func:`split_budget` (and
:func:`split_lambda` for the frozen-layer-1 ladder sweep) is the only code
that maps a kind to its wiring and caps; the :class:`BudgetSplit` it
returns carries both, with the normalized rating ``R`` it spends over that
basis.  A list of splits is a sweep: :func:`~besspp.designer.sweep_rows`
writes one table row per split from its kind, ``R`` and ``lambda_h``.  The
sweeps and the LPs take its pairs and caps as they are, and fpp takes the
closed form :func:`~besspp.flows.fpp_deliverable`.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING

from besspp._record import Record

if TYPE_CHECKING:  # pragma: no cover
    from besspp.designer import Layer1Design

__all__ = [
    "ArchitectureKind",
    "BudgetSplit",
    "ConfigurationError",
    "layer1_aggregate_kwh",
    "split_budget",
    "split_lambda",
]


class ConfigurationError(ValueError):
    """Architecture parameters are inconsistent."""


class ArchitectureKind(str, Enum):
    FPP = "fpp"
    CPPP = "cppp"
    LSHIPPP = "lshippp"


class BudgetSplit(Record):
    """A converter budget spread over an architecture's converters.

    This is the one description of a wired architecture.  ``pairs`` are the
    ``(i, j)`` module pairs of the string edges in build order, the designed
    layer first and then the adjacent ladder; fpp has none.  ``caps_kwh``
    holds one energy cap per converter in the same order: one per edge for
    the string families, one per module for fpp.  ``rating_r`` is the
    normalized rating the split spends, the R of its sweep row, and
    ``lambda_h`` the ladder-to-layer-1 aggregate ratio (NaN outside
    lshippp).
    """

    kind: ArchitectureKind
    pairs: tuple[tuple[int, int], ...]
    caps_kwh: tuple[float, ...]
    rating_r: float
    lambda_h: float


def layer1_aggregate_kwh(layer1: "Layer1Design") -> float:
    """Energy cap of the whole designed layer at its procured rating."""
    return len(layer1.edges) * layer1.rating_kw * layer1.horizon_h


def split_budget(
    kind: ArchitectureKind | str,
    n_modules: int,
    rating_r: float,
    budget_basis_kwh: float,
    layer1: "Layer1Design | None" = None,
) -> BudgetSplit:
    """Spread the budget ``rating_r * budget_basis_kwh`` over ``kind``.

    fpp splits it evenly over the N module converters and cppp over the
    N-1 rungs.  lshippp funds layer 1 first: below its design point the
    layer-1 caps are scaled down uniformly and the ladder gets nothing;
    above it, the surplus is spread evenly over the ladder and ``lambda_h``
    is the resulting aggregate ratio, ``inf`` when layer 1 carries nothing
    (a zero design point).  The design point is
    :func:`layer1_aggregate_kwh`, over the design's own ``horizon_h``.
    """
    kind = ArchitectureKind(kind)
    if kind is ArchitectureKind.LSHIPPP:
        _check_layer1(layer1, n_modules)
    _check_split(n_modules, rating_r)
    budget = rating_r * budget_basis_kwh
    if kind is ArchitectureKind.FPP:
        cap = budget / n_modules
        return BudgetSplit(kind, (), (cap,) * n_modules, rating_r, math.nan)
    ladder = _ladder(n_modules)
    if kind is ArchitectureKind.CPPP:
        cap = budget / (n_modules - 1)
        return BudgetSplit(kind, ladder, (cap,) * (n_modules - 1), rating_r, math.nan)
    m = len(layer1.edges)
    design_point = layer1_aggregate_kwh(layer1)
    if budget <= design_point:
        cap1 = budget / m
        lambda_h = 0.0
        cap2 = 0.0
    else:
        cap1 = layer1.rating_kw * layer1.horizon_h
        # inf: the ratio's limit as the design point falls to 0.
        surplus = budget - design_point
        lambda_h = surplus / design_point if design_point else math.inf
        cap2 = surplus / (n_modules - 1)
    caps = (cap1,) * m + (cap2,) * (n_modules - 1)
    pairs = tuple(layer1.edges) + ladder
    return BudgetSplit(kind, pairs, caps, rating_r, lambda_h)


def split_lambda(
    layer1: "Layer1Design", lambda_h: float, budget_basis_kwh: float
) -> BudgetSplit:
    """lshippp with layer 1 capped at its designed duty and a ``lambda_h`` ladder.

    Each layer-1 edge is capped at the magnitude of its designed optimal
    flow, so no pack can work it past that duty; the ladder splits
    ``lambda_h`` times the layer-1 aggregate evenly over its N-1 rungs.
    The rating it reports is the layer-1 aggregate at its procured rating
    plus the ladder, over ``budget_basis_kwh``.
    """
    if lambda_h < 0:
        raise ConfigurationError("lambda_h must be >= 0")
    n = layer1.n_batteries
    aggregate = layer1_aggregate_kwh(layer1)
    rung = lambda_h * aggregate / (n - 1)
    duty = tuple(abs(flow) for flow in layer1.optimal_flows_kwh)
    return BudgetSplit(
        ArchitectureKind.LSHIPPP,
        tuple(layer1.edges) + _ladder(n),
        duty + (rung,) * (n - 1),
        (1 + lambda_h) * aggregate / budget_basis_kwh,
        lambda_h,
    )


def _ladder(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((j, j + 1) for j in range(n - 1))


def _check_layer1(layer1: "Layer1Design | None", n: int) -> None:
    if layer1 is None:
        raise ConfigurationError("lshippp needs a layer-1 design")
    if layer1.n_batteries != n:
        raise ConfigurationError(
            f"layer-1 design is for {layer1.n_batteries} modules, pack has {n}"
        )


def _check_split(n: int, rating_r: float) -> None:
    if n < 2:
        raise ConfigurationError("need at least two modules")
    if rating_r < 0:
        raise ConfigurationError("rating_r must be >= 0")

