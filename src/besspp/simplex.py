"""Dense bounded-variable primal simplex: the tests' LP solver.

Solves ``maximize c @ x`` subject to ``A x = b`` and ``lower <= x <= upper``
(a lower bound may be ``-inf`` and an upper bound ``+inf``).  The
implementation is a textbook two-phase method with Bland's anti-cycling
rule.  Every instance is tiny (tens of variables), so each iteration
refactorizes the basis with dense solves; determinism and robustness
matter far more here than speed.

No package module imports it: the package evaluates every quantity in
closed form, and this solver runs only the tests' reference LPs
(``tests/lp_reference.py``) and ``tests/test_simplex.py``.  It stays in
the package only until perfbench's layer trace tolerates a missing
module; then it moves to ``tests/``.

The ratio test is one scalar pass over the basis that records each blocking
row's step, variable and bound; the step taken and Bland's leaving row (the
smallest variable index among the rows within :data:`FEASIBILITY_TOL` of
that step) both come from it.  It stays a scalar scan because an array form
made the two-pass minimum-peak LP about 2x slower on its 9-20-row LPs
(3.1-4.9 ms rose to 6.2-6.8 ms on a 2-core x86 host).

Outcomes are signalled distinctly: :class:`LpInfeasible` when phase 1 cannot
drive the artificial variables to zero, :class:`LpUnbounded` when an
improving direction has no blocking bound, and :class:`LpIterationLimit`
(with the iteration count) when the cap is hit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoundedLp",
    "LpSolution",
    "LpError",
    "LpInfeasible",
    "LpUnbounded",
    "LpIterationLimit",
    "solve_bounded_lp",
    "FEASIBILITY_TOL",
    "OPTIMALITY_TOL",
    "DEFAULT_MAX_ITERATIONS",
]

FEASIBILITY_TOL = 1e-9  # absolute, on constraint residuals and bound violations
OPTIMALITY_TOL = 1e-9  # relative, on reduced costs
DEFAULT_MAX_ITERATIONS = 10_000

# Nonbasic variable states.  Free variables rest at zero until they enter.
_BASIC = 0
_AT_LOWER = 1
_AT_UPPER = 2
_FREE_ZERO = 3


class LpError(Exception):
    """Base class for solver failures."""


class LpInfeasible(LpError):
    """The constraint system admits no point within the bounds."""


class LpUnbounded(LpError):
    """The objective increases without limit over the feasible set."""


class LpIterationLimit(LpError):
    """The iteration cap was reached before termination."""

    def __init__(self, iterations: int):
        super().__init__(f"simplex did not terminate within {iterations} iterations")
        self.iterations = iterations


@dataclass(frozen=True)
class BoundedLp:
    """Equality-form LP data: maximize ``c @ x`` s.t. ``a_eq x = b_eq``, bounds."""

    c: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=float)
        a = np.atleast_2d(np.asarray(self.a_eq, dtype=float))
        b = np.asarray(self.b_eq, dtype=float)
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if a.size == 0:
            a = a.reshape(len(b), len(c)) if len(b) else np.zeros((0, len(c)))
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a_eq", a)
        object.__setattr__(self, "b_eq", b)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        n = len(c)
        if a.shape != (len(b), n):
            raise ValueError(f"a_eq shape {a.shape} does not match ({len(b)}, {n})")
        if lo.shape != (n,) or hi.shape != (n,):
            raise ValueError("bound vectors must match the variable count")
        if not np.all(np.isfinite(b)):
            raise ValueError("right-hand sides must be finite")
        if np.any(lo > hi):
            raise ValueError("lower bound exceeds upper bound")
        if np.any(lo == np.inf) or np.any(hi == -np.inf):
            raise ValueError("no variable may be fixed at an infinite bound")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)) or np.any(np.isnan(c)):
            raise ValueError("NaN in LP data")


@dataclass(frozen=True)
class LpSolution:
    x: np.ndarray
    objective: float
    iterations: int


def _initial_nonbasic(lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rest every variable at a finite bound, or at zero if free both ways."""
    n = len(lower)
    status = np.empty(n, dtype=np.int8)
    x = np.empty(n, dtype=float)
    for j in range(n):
        if np.isfinite(lower[j]):
            status[j], x[j] = _AT_LOWER, lower[j]
        elif np.isfinite(upper[j]):
            status[j], x[j] = _AT_UPPER, upper[j]
        else:
            status[j], x[j] = _FREE_ZERO, 0.0
    return status, x


class _Tableau:
    """Mutable simplex state over an extended (structural + artificial) LP."""

    def __init__(self, a, b, lower, upper, status, x, basis: list[int]):
        self.a = a
        self.b = b
        self.lower = lower
        self.upper = upper
        self.m, self.n = a.shape
        self.status = status
        self.x = x
        self.basis = basis
        self.iterations = 0

    def refresh_basic_values(self) -> None:
        xn = self.x.copy()
        xn[self.basis] = 0.0
        rhs = self.b - self.a @ xn
        if self.m:
            basis_matrix = self.a[:, self.basis]
            try:
                xb = np.linalg.solve(basis_matrix, rhs)
            except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
                raise LpError("singular working basis") from exc
            self.x[self.basis] = xb

    def run(self, c: np.ndarray, max_iterations: int) -> None:
        """Iterate to optimality for objective ``c`` (maximization).

        Returns right after refreshing the basic values of the final basis,
        so the caller reads a current ``x`` without another solve.
        """
        dual_tol = OPTIMALITY_TOL * (1.0 + float(np.max(np.abs(c))) if c.size else 1.0)
        while True:
            if self.iterations >= max_iterations:
                raise LpIterationLimit(self.iterations)
            self.refresh_basic_values()
            if self.m:
                basis_matrix = self.a[:, self.basis]
                y = np.linalg.solve(basis_matrix.T, c[self.basis])
                reduced = c - self.a.T @ y
            else:
                reduced = c.copy()

            entering = -1
            for j in range(self.n):
                st = self.status[j]
                if st == _BASIC or self.upper[j] - self.lower[j] <= 0:
                    continue
                if st == _AT_LOWER and reduced[j] > dual_tol:
                    entering = j
                    break
                if st == _AT_UPPER and reduced[j] < -dual_tol:
                    entering = j
                    break
                if st == _FREE_ZERO and abs(reduced[j]) > dual_tol:
                    entering = j
                    break
            if entering < 0:
                return  # optimal

            direction = 1.0
            if self.status[entering] == _AT_UPPER:
                direction = -1.0
            elif self.status[entering] == _FREE_ZERO and reduced[entering] < 0:
                direction = -1.0

            if self.m:
                w = np.linalg.solve(self.a[:, self.basis], self.a[:, entering])
            else:
                w = np.zeros(0)

            # Ratio test: how far can the entering variable travel before a
            # basic variable (or its own opposite bound) blocks.  Negating
            # both terms of a quotient is exact, so one formula serves rows
            # that fall to their lower and rise to their upper bound.
            step_entering = self.upper[entering] - self.lower[entering]
            blocking = []  # (step, basic variable, position, bound, state)
            for i, var in enumerate(self.basis):
                rate = direction * w[i]
                if rate > FEASIBILITY_TOL:
                    bound, state = self.lower[var], _AT_LOWER
                elif rate < -FEASIBILITY_TOL:
                    bound, state = self.upper[var], _AT_UPPER
                else:
                    continue
                if np.isfinite(bound):
                    step = max(0.0, (self.x[var] - bound) / rate)
                    blocking.append((step, var, i, bound, state))
            best_step = min((row[0] for row in blocking), default=np.inf)

            if not np.isfinite(best_step) and not np.isfinite(step_entering):
                raise LpUnbounded("no blocking bound for an improving direction")

            self.iterations += 1
            if step_entering <= best_step:
                # Bound flip: the entering variable crosses to its other bound.
                if direction > 0:
                    self.x[entering] = self.upper[entering]
                    self.status[entering] = _AT_UPPER
                else:
                    self.x[entering] = self.lower[entering]
                    self.status[entering] = _AT_LOWER
                continue

            # Bland tie-break: among blocking basic variables at the best
            # step, leave the one with the smallest variable index.
            tie = best_step + FEASIBILITY_TOL
            leaving, leave_pos, bound, state = min(
                row[1:] for row in blocking if row[0] <= tie
            )
            if self.status[entering] == _AT_LOWER:
                self.x[entering] = self.lower[entering] + direction * best_step
            elif self.status[entering] == _AT_UPPER:
                self.x[entering] = self.upper[entering] + direction * best_step
            else:
                self.x[entering] = direction * best_step
            self.status[entering] = _BASIC
            self.basis[leave_pos] = entering
            self.status[leaving] = state
            self.x[leaving] = bound


def solve_bounded_lp(
    lp: BoundedLp, max_iterations: int = DEFAULT_MAX_ITERATIONS
) -> LpSolution:
    """Solve a bounded-variable equality-form LP to a vertex optimum."""
    m, n = lp.a_eq.shape

    status, x0 = _initial_nonbasic(lp.lower, lp.upper)
    residual = lp.b_eq - lp.a_eq @ x0
    signs = np.where(residual < 0, -1.0, 1.0)

    # Extended problem: structural columns followed by one artificial per
    # row, basic at the size of its row's residual.
    tab = _Tableau(
        np.hstack([lp.a_eq, np.diag(signs)]) if m else lp.a_eq.copy(),
        lp.b_eq.copy(),
        np.concatenate([lp.lower, np.zeros(m)]),
        np.concatenate([lp.upper, np.full(m, np.inf)]),
        np.concatenate([status, np.full(m, _BASIC, dtype=np.int8)]),
        np.concatenate([x0, np.abs(residual)]),
        list(range(n, n + m)),
    )

    scale_b = 1.0 + (float(np.max(np.abs(lp.b_eq))) if m else 0.0)

    # Phase 1: drive the artificial variables to zero.
    phase1_c = np.concatenate([np.zeros(n), -np.ones(m)])
    tab.run(phase1_c, max_iterations)
    infeas = float(np.sum(tab.x[n:]))
    if infeas > FEASIBILITY_TOL * scale_b:
        raise LpInfeasible(f"phase 1 residual {infeas:.3e}")

    _pivot_out_artificials(tab, n)
    # Any artificial still basic sits on a redundant row at value zero; pin
    # every artificial to zero for phase 2 so none can re-enter.
    tab.upper[n:] = 0.0
    tab.x[n:] = np.clip(tab.x[n:], 0.0, 0.0)

    phase2_c = np.concatenate([lp.c, np.zeros(m)])
    tab.run(phase2_c, max_iterations)

    x = tab.x[:n].copy()
    # Snap solver noise onto the box; anything beyond tolerance is a bug.
    over = np.maximum(x - lp.upper, 0.0)
    under = np.maximum(lp.lower - x, 0.0)
    worst = max(
        float(np.max(over, initial=0.0)), float(np.max(under, initial=0.0))
    )
    if worst > 1e-6 * scale_b:
        raise LpError(f"solution violates bounds by {worst:.3e}")
    x = np.minimum(np.maximum(x, lp.lower), lp.upper)
    if m:
        residual = float(np.max(np.abs(lp.a_eq @ x - lp.b_eq)))
        if residual > 1e-6 * scale_b:
            raise LpError(f"solution violates equalities by {residual:.3e}")
    return LpSolution(x=x, objective=float(lp.c @ x), iterations=tab.iterations)


def _pivot_out_artificials(tab: _Tableau, n_structural: int) -> None:
    """Replace basic artificials with structural columns where possible."""
    for pos in range(tab.m):
        if tab.basis[pos] < n_structural:
            continue
        basis_matrix = tab.a[:, tab.basis]
        e = np.zeros(tab.m)
        e[pos] = 1.0
        row_multiplier = np.linalg.solve(basis_matrix.T, e)
        row = row_multiplier @ tab.a[:, :n_structural]
        candidate = -1
        for j in range(n_structural):
            if tab.status[j] != _BASIC and abs(row[j]) > 1e-7:
                candidate = j
                break
        if candidate < 0:
            continue  # redundant row; artificial stays basic at zero
        leaving = tab.basis[pos]
        tab.basis[pos] = candidate
        tab.status[candidate] = _BASIC
        tab.status[leaving] = _AT_LOWER
        tab.x[leaving] = 0.0
        tab.refresh_basic_values()
