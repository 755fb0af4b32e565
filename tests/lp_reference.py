"""The deliverable-energy LP, kept as the reference for the cut form.

The studies evaluate deliverable energy with the cut form of
:mod:`besspp.flows`; this module poses the same quantity as the LP the cut
form replaced and solves it with the package's simplex:

    maximize   sum_j q * V_j
    subject to q * V_j + outflow_j - inflow_j <= E_j   for every module j,
               |f_e| <= cap_e                          for every edge e,
               q >= 0.

Criterion 4 checks it against vertex enumeration, and the cut-form tests
check the kernels against it and against scipy.
"""

import numpy as np

from besspp.flows import _check_wiring
from besspp.simplex import BoundedLp, solve_bounded_lp


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
