"""The LPs the package's closed forms replaced, kept as their references.

The studies evaluate deliverable energy with the cut form of
:mod:`besspp.flows`; :func:`max_deliverable_energy` poses the same quantity
as the LP the cut form replaced:

    maximize   sum_j q * V_j
    subject to q * V_j + outflow_j - inflow_j <= E_j   for every module j,
               |f_e| <= cap_e                          for every edge e,
               q >= 0.

Criterion 4 checks it against vertex enumeration, and the cut-form tests
check the kernels against it and against scipy.  The designer fixes the
layer-1 flows in closed form; :func:`min_peak_flow` is the two-pass LP it
replaced, the oracle the designer and parametric cut-form tests check
against.  Both LPs are solved by the tests' own simplex, :mod:`simplex`.
"""

import numpy as np

from besspp.flows import _check_wiring
from simplex import BoundedLp, LpInfeasible, solve_bounded_lp


class InfeasibleFlowError(Exception):
    """Raised when a requested output cannot be met by any feasible flow."""


def max_deliverable_energy(
    energy_kwh, volts_v, pairs, caps_kwh
) -> tuple[float, tuple[float, ...]]:
    """Maximize the energy delivered to the output bus by one wired string.

    ``energy_kwh`` and ``volts_v`` hold the n module energies and voltages,
    ``pairs`` the ``(i, j)`` module pairs of the edges and ``caps_kwh`` one
    energy cap per edge (``math.inf`` allowed).  Returns the optimum and the
    edge flows; positive flow moves energy from ``i`` to ``j``.
    """
    energy = np.asarray(energy_kwh, dtype=float)
    volts = np.asarray(volts_v, dtype=float)
    caps = np.asarray(caps_kwh, dtype=float)
    if energy.ndim != 1:
        raise ValueError("energy_kwh and volts_v must be equal (n,) arrays")
    if caps.shape != (len(pairs),):
        raise ValueError("caps_kwh must hold one cap per edge")
    _check_wiring(energy, volts, pairs, caps)
    n = len(energy)
    n_edges = len(pairs)

    # Columns: [q, flows..., slacks...]; rows: one extraction bound per module.
    n_vars = 1 + n_edges + n
    a = np.zeros((n, n_vars))
    a[:, 0] = volts
    for k, (i, j) in enumerate(pairs):
        a[i, 1 + k] = 1.0
        a[j, 1 + k] = -1.0
    a[:, 1 + n_edges :] = np.eye(n)

    lower = np.zeros(n_vars)
    upper = np.full(n_vars, np.inf)
    lower[1 : 1 + n_edges] = -caps
    upper[1 : 1 + n_edges] = caps

    c = np.zeros(n_vars)
    c[0] = volts.sum()

    sol = solve_bounded_lp(BoundedLp(c, a, energy, lower, upper))
    q = float(sol.x[0])
    flows = tuple(float(v) for v in sol.x[1 : 1 + n_edges])
    return float((q * volts).sum()), flows


def min_peak_flow(
    energy_kwh, volts_v, pairs, caps_kwh, required_output_kwh: float
) -> tuple[float, ...]:
    """Meet a required output while minimizing the largest converter flow.

    ``energy_kwh`` and ``volts_v`` hold the n module energies and voltages,
    ``pairs`` the ``(i, j)`` module pairs of the edges and ``caps_kwh`` one
    energy cap per edge (``math.inf`` allowed).  The string charge is fixed
    by the required output; the LP chooses edge flows, positive from ``i``
    to ``j``.  A first pass minimizes the peak ``max_e |f_e|`` and a second
    pass minimizes total moved energy at that peak, which pins the flow
    vector for reporting and rating purposes.  Both passes take their edge
    and module rows from one builder, ``_flow_rows``; each adds only its
    own column (the peak ``t``), bounds, right-hand side and objective.
    Returns the edge flows.
    """
    energy = np.asarray(energy_kwh, dtype=float)
    volts = np.asarray(volts_v, dtype=float)
    caps = np.asarray(caps_kwh, dtype=float)
    if energy.ndim != 1:
        raise ValueError("energy_kwh and volts_v must be equal (n,) arrays")
    if caps.shape != (len(pairs),):
        raise ValueError("caps_kwh must hold one cap per edge")
    _check_wiring(energy, volts, pairs, caps)
    if required_output_kwh < 0:
        raise ValueError("required_output_kwh must be nonnegative")
    string = volts * (required_output_kwh / volts.sum())

    if len(pairs) == 0:
        if np.any(string > energy + 1e-9 * (1 + energy.max(initial=0.0))):
            raise InfeasibleFlowError(
                "required output exceeds the stringwise deliverable energy"
            )
        return ()

    n_edges, room = len(pairs), energy - string
    try:
        # Pass 1, columns [t, flows...]: f+ + f- - t + w_k = 0, f <= cap.
        a, b, lower, upper = _flow_rows(pairs, room, 1)
        a[:n_edges, 0] = -1.0
        upper[1 : 1 + 2 * n_edges] = np.repeat(caps, 2)
        c = np.zeros(len(lower))
        c[0] = -1.0  # minimize the peak
        peak = float(solve_bounded_lp(BoundedLp(c, a, b, lower, upper)).x[0])

        # Pass 2: f+ + f- + w_k = min(cap, peak).
        a, b, lower, upper = _flow_rows(pairs, room, 0)
        b[:n_edges] = np.minimum(caps, peak * (1 + 1e-9) + 1e-12)
        c = np.zeros(len(lower))
        c[: 2 * n_edges] = -1.0  # minimize total moved energy
        split = solve_bounded_lp(BoundedLp(c, a, b, lower, upper)).x[: 2 * n_edges]
    except LpInfeasible as exc:
        raise InfeasibleFlowError(
            "required output exceeds the deliverable energy of this string"
        ) from exc
    return tuple(float(v) for v in split[0::2] - split[1::2])


def _flow_rows(pairs, room: np.ndarray, lead: int):
    """Rows, right-hand side and bounds that both min-peak passes share.

    Columns: ``lead`` columns left to the caller, then each edge's split
    flows ``f+, f-`` (positive from ``i`` to ``j``), one slack ``w_k`` per
    edge and one per module, all in ``[0, inf)``.  Rows: ``f+ + f- + w_k``
    per edge with right-hand side 0, then each module's net outflow plus its
    slack with right-hand side ``room``, the module's energy minus its
    string energy.  Returns ``(a, b, lower, upper)``.
    """
    n_edges, n = len(pairs), len(room)
    a = np.zeros((n_edges + n, lead + 3 * n_edges + n))
    for k, (i, j) in enumerate(pairs):
        f = lead + 2 * k
        a[k, f] = a[k, f + 1] = a[k, lead + 2 * n_edges + k] = 1.0
        a[n_edges + i, f] = a[n_edges + j, f + 1] = 1.0
        a[n_edges + j, f] = a[n_edges + i, f + 1] = -1.0
    a[n_edges:, lead + 3 * n_edges :] = np.eye(n)
    b = np.concatenate([np.zeros(n_edges), room])
    return a, b, np.zeros(a.shape[1]), np.full(a.shape[1], np.inf)
