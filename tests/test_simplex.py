import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.optimize

from simplex import (
    BoundedLp,
    LpInfeasible,
    LpIterationLimit,
    LpUnbounded,
    solve_bounded_lp,
)


def enumerate_optimum(lp: BoundedLp) -> float | None:
    """Brute-force oracle: best objective over all basic solutions.

    Requires finite bounds on every variable, so the feasible set is a
    polytope and the optimum (if the problem is feasible) is attained at a
    basic solution: a choice of basis columns with every nonbasic variable
    resting at one of its bounds.  Exhaustive, exponential, test-only.
    """
    m, n = lp.a_eq.shape
    assert np.all(np.isfinite(lp.lower)) and np.all(np.isfinite(lp.upper))
    best = None

    def consider(x: np.ndarray) -> None:
        nonlocal best
        if np.any(x < lp.lower - 1e-7) or np.any(x > lp.upper + 1e-7):
            return
        if not np.allclose(lp.a_eq @ x, lp.b_eq, atol=1e-7):
            return
        value = float(lp.c @ x)
        if best is None or value > best:
            best = value

    if m == 0:
        # Box only: optimize each coordinate independently.
        x = np.where(lp.c >= 0, lp.upper, lp.lower)
        consider(x)
        return best

    for basis in itertools.combinations(range(n), m):
        b_cols = lp.a_eq[:, basis]
        if abs(np.linalg.det(b_cols)) < 1e-9:
            continue
        nonbasic = [j for j in range(n) if j not in basis]
        for corner in itertools.product(*[(lp.lower[j], lp.upper[j]) for j in nonbasic]):
            x = np.zeros(n)
            for j, v in zip(nonbasic, corner):
                x[j] = v
            rhs = lp.b_eq - lp.a_eq[:, nonbasic] @ np.array(corner)
            x[list(basis)] = np.linalg.solve(b_cols, rhs)
            consider(x)
    return best


def scipy_optimum(lp: BoundedLp) -> float | None:
    """Second independent route: HiGHS, minimizing the negated objective."""
    res = scipy.optimize.linprog(
        -lp.c,
        A_eq=lp.a_eq if lp.a_eq.shape[0] else None,
        b_eq=lp.b_eq if lp.a_eq.shape[0] else None,
        bounds=list(zip(lp.lower, lp.upper)),
        method="highs",
    )
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return -float(res.fun)


class TestHandLps:
    def test_box_only_maximization(self):
        lp = BoundedLp(
            c=[2.0, -3.0],
            a_eq=np.zeros((0, 2)),
            b_eq=[],
            lower=[0.0, -1.0],
            upper=[4.0, 5.0],
        )
        sol = solve_bounded_lp(lp)
        assert sol.objective == pytest.approx(2 * 4 + 3 * 1)
        assert sol.x == pytest.approx([4.0, -1.0])

    def test_single_equality(self):
        # max x + 2y s.t. x + y = 3, 0 <= x,y <= 2
        lp = BoundedLp([1.0, 2.0], [[1.0, 1.0]], [3.0], [0.0, 0.0], [2.0, 2.0])
        sol = solve_bounded_lp(lp)
        assert sol.objective == pytest.approx(5.0)
        assert sol.x == pytest.approx([1.0, 2.0])

    def test_free_variable(self):
        # max -|gap|-style: y free, x - y = 1, maximize -x => x at lower.
        lp = BoundedLp(
            [-1.0, 0.0],
            [[1.0, -1.0]],
            [1.0],
            [0.0, -np.inf],
            [np.inf, np.inf],
        )
        sol = solve_bounded_lp(lp)
        assert sol.objective == pytest.approx(0.0)
        assert sol.x == pytest.approx([0.0, -1.0])

    def test_degenerate_rhs(self):
        # Two identical rows: redundant equality must not be declared infeasible.
        lp = BoundedLp(
            [1.0, 1.0],
            [[1.0, 1.0], [1.0, 1.0]],
            [2.0, 2.0],
            [0.0, 0.0],
            [2.0, 2.0],
        )
        sol = solve_bounded_lp(lp)
        assert sol.objective == pytest.approx(2.0)

    def test_infeasible_bounds_vs_equality(self):
        lp = BoundedLp([1.0, 1.0], [[1.0, 1.0]], [5.0], [0.0, 0.0], [1.0, 1.0])
        with pytest.raises(LpInfeasible):
            solve_bounded_lp(lp)

    def test_unbounded(self):
        lp = BoundedLp(
            [1.0, 0.0],
            [[0.0, 1.0]],
            [1.0],
            [0.0, 0.0],
            [np.inf, 2.0],
        )
        with pytest.raises(LpUnbounded):
            solve_bounded_lp(lp)

    def test_iteration_limit_diagnostic(self):
        lp = BoundedLp([1.0, 2.0], [[1.0, 1.0]], [3.0], [0.0, 0.0], [2.0, 2.0])
        with pytest.raises(LpIterationLimit) as err:
            solve_bounded_lp(lp, max_iterations=1)
        assert err.value.iterations == 1

    def test_fixed_variable(self):
        lp = BoundedLp(
            [1.0, 1.0], [[1.0, 1.0]], [3.0], [1.0, 0.0], [1.0, 5.0]
        )
        sol = solve_bounded_lp(lp)
        assert sol.x == pytest.approx([1.0, 2.0])

    def test_negative_lower_bounds(self):
        # max x - y s.t. x + y = 0, -2 <= x,y <= 2
        lp = BoundedLp([1.0, -1.0], [[1.0, 1.0]], [0.0], [-2.0, -2.0], [2.0, 2.0])
        sol = solve_bounded_lp(lp)
        assert sol.objective == pytest.approx(4.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            BoundedLp([1.0], [[1.0, 2.0]], [1.0], [0.0], [1.0])

    def test_rejects_crossed_bounds(self):
        with pytest.raises(ValueError):
            BoundedLp([1.0], [[1.0]], [1.0], [2.0], [1.0])

    @pytest.mark.parametrize("bound", [math.inf, -math.inf])
    def test_rejects_a_variable_fixed_at_an_infinite_bound(self, bound):
        # Such a variable has no finite value; it is refused at construction,
        # before any solver arithmetic can warn on inf - inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="infinite bound"):
                BoundedLp([1.0], np.zeros((0, 1)), [], [bound], [bound])
            with pytest.raises(ValueError, match="infinite bound"):
                BoundedLp([0.0, 0.0], [[1.0, 1.0]], [1.0], [0.0, bound], [1.0, bound])


def _random_lp(rng: np.random.Generator) -> BoundedLp:
    m = int(rng.integers(1, 4))
    n = int(rng.integers(m + 1, 7))
    while True:
        a = rng.integers(-3, 4, size=(m, n)).astype(float)
        # The enumeration oracle needs a full-row-rank system; redundant
        # rows are covered separately by hand-built cases.
        if np.linalg.matrix_rank(a) == m:
            break
    lower = rng.integers(-2, 1, size=n).astype(float)
    upper = lower + rng.integers(0, 4, size=n).astype(float)
    # Anchor feasibility: the RHS is reachable by an interior-ish point.
    frac = rng.uniform(0.0, 1.0, size=n)
    x0 = lower + frac * (upper - lower)
    b = a @ x0
    c = rng.integers(-4, 5, size=n).astype(float)
    return BoundedLp(c, a, b, lower, upper)


class TestRandomLpsAgainstOracles:
    def test_three_route_agreement(self):
        rng = np.random.Generator(np.random.Philox(key=20240501))
        checked = 0
        for _ in range(150):
            lp = _random_lp(rng)
            expected = enumerate_optimum(lp)
            assert expected is not None  # constructed feasible
            sol = solve_bounded_lp(lp)
            scale = 1.0 + abs(expected)
            assert abs(sol.objective - expected) <= 1e-7 * scale
            via_scipy = scipy_optimum(lp)
            assert via_scipy is not None
            assert abs(sol.objective - via_scipy) <= 1e-7 * scale
            # The reported point must actually attain the objective.
            assert float(lp.c @ sol.x) == pytest.approx(sol.objective)
            assert np.all(sol.x >= lp.lower - 1e-8)
            assert np.all(sol.x <= lp.upper + 1e-8)
            assert np.allclose(lp.a_eq @ sol.x, lp.b_eq, atol=1e-7)
            checked += 1
        assert checked == 150

    def test_infeasible_detection_matches_scipy(self):
        rng = np.random.Generator(np.random.Philox(key=777))
        seen_infeasible = 0
        for _ in range(120):
            m = int(rng.integers(1, 3))
            n = int(rng.integers(m + 1, 5))
            a = rng.integers(-2, 3, size=(m, n)).astype(float)
            lower = np.zeros(n)
            upper = np.full(n, 1.0)
            b = rng.uniform(-4.0, 4.0, size=m)
            lp = BoundedLp(rng.integers(-2, 3, size=n).astype(float), a, b, lower, upper)
            via_scipy = scipy_optimum(lp)
            if via_scipy is None:
                seen_infeasible += 1
                with pytest.raises(LpInfeasible):
                    solve_bounded_lp(lp)
            else:
                sol = solve_bounded_lp(lp)
                assert abs(sol.objective - via_scipy) <= 1e-6 * (1 + abs(via_scipy))
        assert seen_infeasible > 10  # the sweep genuinely exercises both paths
