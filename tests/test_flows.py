import ast
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from besspp.architectures import layer1_aggregate_kwh, split_budget, split_lambda
from besspp.designer import derive_seed, sweep_energy
from besspp.flows import (
    MAX_CUT_MODULES,
    cut_form_energy,
    fpp_deliverable,
    uncapped_min_peak,
    uncapped_placement_energy,
)
from besspp.supply import SupplyDistribution, sample_packs

from lp_reference import InfeasibleFlowError, max_deliverable_energy, min_peak_flow


def pack(*caps: float, voltage: float = 1.0) -> tuple[list, list]:
    """Modules of energies ``caps``, all at ``voltage``: ``(energy, volts)``."""
    return [float(c) for c in caps], [float(voltage)] * len(caps)


def wiring(modules, pairs=(), caps=()):
    """A ``pack`` wired by ``pairs`` and ``caps``: ``(energy, volts, pairs, caps)``.

    The one form every series-string evaluator takes.
    """
    energy, volts = modules
    return list(energy), list(volts), tuple(pairs), tuple(caps)


def left_fold(values) -> float:
    """Floats added one by one, left to right from 0.0, as scalar Python.

    The reference for every pack total of the package, which folds array
    columns in this order.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def extraction(energy, volts, pairs, caps, total, flows) -> list[float]:
    """What each module gives up: ``q * V_j + outflow_j - inflow_j``.

    The string charge ``q`` is the optimum over the total voltage.
    """
    q = total / sum(volts)
    taken = [q * v for v in volts]
    for (i, j), flow in zip(pairs, flows):
        taken[i] += flow
        taken[j] -= flow
    return taken


def _enumerate_polytope_max(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """Max of ``c @ z`` over ``a z <= b`` by checking every vertex.

    Valid only for bounded polytopes.  Exponential, test-only.
    """
    d = a.shape[1]
    best = -math.inf
    for combo in itertools.combinations(range(a.shape[0]), d):
        sub = a[list(combo)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        z = np.linalg.solve(sub, b[list(combo)])
        if np.all(a @ z <= b + 1e-9):
            best = max(best, float(c @ z))
    assert best > -math.inf, "polytope has no vertex"
    return best


def vertex_oracle(energy, volts, pairs, caps) -> float:
    """Independent route to the maximum deliverable energy.

    The wired string is posed as ``max q * sum(V)`` over the inequality
    polytope in ``z = (q, f_1..f_k)`` and solved by enumerating every
    vertex.  Edge caps must be finite so the polytope is bounded.
    """
    volts = np.array(volts, dtype=float)
    k = len(pairs)
    d = 1 + k
    rows: list[np.ndarray] = []
    rhs: list[float] = []

    def add(row, bound):
        rows.append(np.asarray(row, dtype=float))
        rhs.append(float(bound))

    for j, energy_j in enumerate(energy):
        row = np.zeros(d)
        row[0] = volts[j]
        for e, (a, b) in enumerate(pairs):
            if a == j:
                row[1 + e] += 1.0
            if b == j:
                row[1 + e] -= 1.0
        add(row, energy_j)
    for e, cap in enumerate(caps):
        assert math.isfinite(cap)
        row = np.zeros(d)
        row[1 + e] = 1.0
        add(row, cap)
        add(-row, cap)
    row = np.zeros(d)
    row[0] = -1.0
    add(row, 0.0)

    objective = np.zeros(d)
    objective[0] = volts.sum()
    return _enumerate_polytope_max(np.vstack(rows), np.array(rhs), objective)


class TestSeriesStringOnly:
    def test_weakest_module_limits_everyone(self):
        string = wiring(pack(3, 4, 5))
        total, flows = max_deliverable_energy(*string)
        assert total == pytest.approx(9.0)
        assert flows == ()
        assert extraction(*string, total, flows) == pytest.approx([3.0, 3.0, 3.0])

    def test_homogeneous_pack_fully_used(self):
        total, _ = max_deliverable_energy(*wiring(pack(5, 5, 5, 5)))
        assert total == pytest.approx(20.0)

    def test_voltage_weighting(self):
        # Q limited by min(E_j / V_j); output is Q * sum(V).
        total, _ = max_deliverable_energy([4.0, 3.0], [2.0, 1.0], (), ())
        assert total == pytest.approx(2.0 * 3.0)

    def test_zero_capacity_module_blocks_string(self):
        total, _ = max_deliverable_energy(*wiring(pack(0, 4, 5)))
        assert total == pytest.approx(0.0)


TRIANGLE = ((0, 1), (0, 2), (1, 2))


class TestConverterNetworks:
    def test_full_triangle_caps_one(self):
        total, _ = max_deliverable_energy(*wiring(pack(3, 4, 5), TRIANGLE, [1.0] * 3))
        assert total == pytest.approx(12.0)

    def test_full_triangle_caps_half_saturates(self):
        # The weak module can import 2 * 0.5, already enough to reach the
        # pack average, so halving the caps loses nothing here.
        total, _ = max_deliverable_energy(*wiring(pack(3, 4, 5), TRIANGLE, [0.5] * 3))
        assert total == pytest.approx(12.0)

    def test_full_triangle_caps_quarter(self):
        # Q is pinned by the weak module: 3 + 2 * 0.25 per volt.
        total, _ = max_deliverable_energy(*wiring(pack(3, 4, 5), TRIANGLE, [0.25] * 3))
        assert total == pytest.approx(10.5)

    def test_single_uncapped_edge_balances_extremes(self):
        total, flows = max_deliverable_energy(
            *wiring(pack(3, 4, 5), [(0, 2)], [math.inf])
        )
        assert total == pytest.approx(12.0)
        assert flows[0] == pytest.approx(-1.0)

    def test_uncapped_connected_network_reaches_total(self):
        string = wiring(pack(3, 4, 5), [(0, 1), (1, 2)], [math.inf, math.inf])
        total, _ = max_deliverable_energy(*string)
        assert total == pytest.approx(12.0)

    def test_extraction_never_exceeds_module_energy(self):
        string = wiring(pack(2, 3.5, 6), [(0, 2), (1, 2)], [2.0, 0.25])
        taken = extraction(*string, *max_deliverable_energy(*string))
        for taken_j, energy_j in zip(taken, string[0]):
            assert taken_j <= energy_j + 1e-9

    def test_total_output_is_sum_of_extraction(self):
        string = wiring(pack(1, 2, 3), [(0, 1), (1, 2)], [0.7, 0.3])
        total, flows = max_deliverable_energy(*string)
        assert total == pytest.approx(sum(extraction(*string, total, flows)))


def fpp_one(modules, cap: float) -> float:
    """The closed form on one pack under one cap."""
    ((value,),) = fpp_deliverable([modules[0]], [cap])
    return float(value)


class TestDedicatedConverters:
    def test_closed_form(self):
        assert fpp_one(pack(3, 4, 5), 1.5) == pytest.approx(4.5)

    def test_every_cap_and_pack_is_the_left_fold(self):
        # The (caps x packs) pass equals the scalar fold, bit for bit.
        energy = sampled_packs(n_packs=30).tolist()
        caps = [0.0, 0.5, 3.7, 7.5, 20.0, 41.25, 1e3]
        got = fpp_deliverable(energy, caps)
        assert got.shape == (len(caps), len(energy))
        for k, cap in enumerate(caps):
            for p, row in enumerate(energy):
                assert got[k, p] == left_fold(min(e, cap) for e in row)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="nonnegative"):
            fpp_deliverable([[1.0, 2.0]], [-1.0])
        with pytest.raises(ValueError, match="nonnegative"):
            fpp_deliverable([[1.0, 2.0]], [math.nan])
        with pytest.raises(ValueError, match="packs x n"):
            fpp_deliverable([1.0, 2.0], [1.0])
        with pytest.raises(ValueError, match="one cap per row"):
            fpp_deliverable([[1.0, 2.0]], [[1.0]])

    def test_network_route_matches_closed_form(self):
        # The sweeps' route for an fpp split: 3 x 1.5 kWh converters.
        split = split_budget("fpp", 3, 0.375, 12.0)
        assert sweep_energy([[3.0, 4.0, 5.0]], 1.0, [split]).tolist() == [[4.5]]

    @given(
        energy=st.lists(st.just(0.0) | st.floats(0.01, 10.0), min_size=1, max_size=9),
        cap=st.just(0.0) | st.floats(0.01, 10.0),
    )
    @settings(max_examples=200)
    def test_closed_form_matches_linprog(self, energy, cap):
        # Each module delivers y_j <= min(E_j, cap), independently.
        modules = pack(*energy)
        bounds = [(0.0, min(e, cap)) for e in energy]
        res = scipy.optimize.linprog(-np.ones(len(energy)), bounds=bounds)
        assert res.status == 0
        assert abs(fpp_one(modules, cap) + res.fun) <= 1e-12 * max(
            1.0, -res.fun
        )

    def test_small_modules_saturate_before_cap(self):
        assert fpp_one(pack(1, 4, 5), 2.0) == pytest.approx(1 + 2 + 2)

    def test_reference_budget_point(self):
        # 9 equal shares of a 0.2 * 337.5 kWh budget: each module limited
        # to 7.5 kWh.
        modules = pack(*([37.5] * 9))
        assert fpp_one(modules, 7.5) == pytest.approx(67.5)


class TestMinPeakFlow:
    def test_single_edge_reference(self):
        flows = min_peak_flow(*wiring(pack(3, 4, 5), [(0, 2)], [math.inf]), 12.0)
        assert flows[0] == pytest.approx(-1.0)

    def test_redundant_edges_split_is_minimal(self):
        # Two parallel routes into the weak module: peak halves.
        string = wiring(pack(2, 5, 5), [(0, 1), (0, 2)], [math.inf, math.inf])
        required, _ = max_deliverable_energy(*string)
        peak = max(abs(f) for f in min_peak_flow(*string, required))
        balanced = (4.0 - 2.0) / 2.0
        assert peak == pytest.approx(balanced)

    def test_no_movement_needed(self):
        flows = min_peak_flow(*wiring(pack(4, 4), [(0, 1)], [math.inf]), 8.0)
        assert flows[0] == pytest.approx(0.0)

    def test_infeasible_requirement(self):
        with pytest.raises(InfeasibleFlowError):
            min_peak_flow(*wiring(pack(3, 4, 5), [(0, 2)], [math.inf]), 12.5)

    def test_no_edges_feasible(self):
        assert min_peak_flow(*wiring(pack(3, 4, 5)), 9.0) == ()

    def test_no_edges_infeasible(self):
        with pytest.raises(InfeasibleFlowError):
            min_peak_flow(*wiring(pack(3, 4, 5)), 9.1)

    def test_capped_edges_respected(self):
        string = wiring(pack(3, 4, 5), [(0, 2)], [0.5])
        required, _ = max_deliverable_energy(*string)
        flows = min_peak_flow(*string, required)
        assert abs(flows[0]) <= 0.5 + 1e-9


def scipy_min_peak(energy, volts, placement, output_kwh: float) -> float:
    """Minimum peak by ``scipy.optimize.linprog``: min t, |f_e| <= t."""
    n, m = len(energy), len(placement)
    volts = np.array(volts, dtype=float)
    energy = np.array(energy, dtype=float)
    string = volts * (output_kwh / volts.sum())
    # Columns [t, f_1..f_m]; module rows string + outflow - inflow <= E.
    a_modules = np.zeros((n, 1 + m))
    for e, (i, j) in enumerate(placement):
        a_modules[i, 1 + e] = 1.0
        a_modules[j, 1 + e] = -1.0
    a_peak = np.zeros((2 * m, 1 + m))
    a_peak[:, 0] = -1.0
    a_peak[:m, 1:] = np.eye(m)
    a_peak[m:, 1:] = -np.eye(m)
    res = scipy.optimize.linprog(
        np.eye(1 + m)[0],
        A_ub=np.vstack([a_modules, a_peak]),
        b_ub=np.concatenate([energy - string, np.zeros(2 * m)]),
        bounds=[(0, None)] + [(None, None)] * m,
        method="highs",
    )
    assert res.status == 0, res.message
    return float(res.x[0])


@st.composite
def placement_case(draw):
    """A pack, a placement and an output no larger than it can deliver.

    Energies come partly from a short menu, so modules often tie and a
    placement often holds an edge that needs to carry nothing.
    """
    n = draw(st.integers(2, 6))
    energy = draw(
        st.lists(
            st.sampled_from([0.0, 1.0, 2.5, 4.0]) | st.floats(0.0, 10.0),
            min_size=n,
            max_size=n,
        )
    )
    volts = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=n, max_size=n))
    pairs = list(itertools.combinations(range(n), 2))
    placement = draw(
        st.lists(
            st.sampled_from(pairs), min_size=1, max_size=min(4, len(pairs)),
            unique=True,
        )
    )
    share = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
    return energy, volts, tuple(sorted(placement)), share


class TestUncappedMinPeak:
    """The parametric cut form against the two-pass LP and scipy."""

    @given(case=placement_case())
    # Edge (1, 3) joins two modules already at the string charge: no flow.
    @example(case=([2.0, 4.0, 6.0, 4.0], [1.0] * 4, ((0, 2), (1, 3)), 1.0))
    @settings(max_examples=150)
    def test_matches_lp_and_scipy(self, case):
        energy, volts, placement, share = case
        (own,) = uncapped_placement_energy(energy, volts, [placement])
        output = share * float(own)
        (peak,) = uncapped_min_peak(energy, volts, [placement], output)
        string = (energy, volts, placement, [math.inf] * len(placement))
        lp = max(abs(f) for f in min_peak_flow(*string, output))
        oracle = scipy_min_peak(energy, volts, placement, output)
        tol = 1e-9 * (1.0 + sum(energy))
        assert peak == pytest.approx(lp, rel=1e-9, abs=tol)
        assert peak == pytest.approx(oracle, rel=1e-9, abs=tol)

    def test_an_idle_edge_still_counts_in_the_cut(self):
        # (1, 3) carries nothing; (0, 2) lifts module 0 by 2 kWh.
        batteries = pack(2, 4, 6, 4)
        assert uncapped_min_peak(*batteries, [((0, 2), (1, 3))], 16.0).tolist() == [2.0]
        assert uncapped_min_peak(*batteries, [((0, 2),)], 16.0).tolist() == [2.0]
        string = wiring(batteries, [(0, 2), (1, 3)], [math.inf, math.inf])
        flows = min_peak_flow(*string, 16.0)
        assert flows[1] == pytest.approx(0.0, abs=1e-12)

    def test_parallel_routes_halve_the_peak(self):
        batteries = pack(2, 5, 5)
        both = uncapped_min_peak(*batteries, [((0, 1), (0, 2)), ((0, 1), (1, 2))], 12.0)
        assert both.tolist() == [1.0, 2.0]

    def test_no_output_needs_no_flow(self):
        assert uncapped_min_peak(*pack(3, 4, 5), [((0, 2),)], 0.0).tolist() == [0.0]

    def test_chunks_keep_placement_order(self):
        # 7 modules x 2 edges: 210 placements over several chunks.
        rng = np.random.Generator(np.random.Philox(key=5))
        batteries = pack(*rng.uniform(1.0, 9.0, size=7))
        placements = list(
            itertools.combinations(list(itertools.combinations(range(7), 2)), 2)
        )
        output = float(uncapped_placement_energy(*batteries, placements).min())
        whole = uncapped_min_peak(*batteries, placements, output)
        one_by_one = [uncapped_min_peak(*batteries, [p], output)[0] for p in placements]
        assert whole.tolist() == one_by_one

    def test_invalid_placement_rejected(self):
        with pytest.raises(ValueError, match="distinct modules"):
            uncapped_min_peak(*pack(1, 2, 3), [((0, 3),)], 1.0)
        with pytest.raises(ValueError, match="equal-size"):
            uncapped_min_peak(*pack(1, 2, 3), [((0, 1),), ((0, 1), (1, 2))], 1.0)
        with pytest.raises(ValueError, match="equal-size"):
            uncapped_min_peak(*pack(1, 2, 3), [], 1.0)
        with pytest.raises(ValueError, match="subsets"):
            uncapped_min_peak(*pack(*([2.0] * (MAX_CUT_MODULES + 1))), [((0, 1),)], 1.0)
        with pytest.raises(ValueError, match=r"\(n,\) arrays"):
            uncapped_min_peak([[1.0, 2.0]], [[1.0, 1.0]], [((0, 1),)], 1.0)


def random_string(rng: np.random.Generator):
    """A random wired string, ``(energy, volts, pairs, caps)``, finite caps."""
    n = int(rng.integers(1, 5))
    energy = [float(c) for c in rng.uniform(0.5, 3.0, size=n)]
    volts = [float(v) for v in rng.choice([0.5, 1.0, 2.0], size=n)]
    pairs, caps = (), ()
    if n >= 2 and rng.random() < 0.8:
        candidates = list(itertools.combinations(range(n), 2))
        k = int(rng.integers(1, min(3, len(candidates)) + 1))
        chosen = rng.choice(len(candidates), size=k, replace=False)
        edges = [(candidates[int(i)], float(rng.uniform(0.2, 2.0))) for i in chosen]
        pairs = tuple(pair for pair, _ in edges)
        caps = tuple(cap for _, cap in edges)
    return energy, volts, pairs, caps


class TestAgainstVertexOracle:
    def test_200_random_networks(self):
        rng = np.random.Generator(np.random.Philox(key=424242))
        for _ in range(200):
            string = random_string(rng)
            expected = vertex_oracle(*string)
            got, _ = max_deliverable_energy(*string)
            assert got == pytest.approx(expected, abs=1e-6)


@st.composite
def network_strategy(draw, min_n=1, max_n=5):
    n = draw(st.integers(min_n, max_n))
    energy = draw(
        st.lists(
            st.floats(0.0, 10.0, allow_nan=False), min_size=n, max_size=n
        )
    )
    pairs = list(itertools.combinations(range(n), 2))
    edge_pairs = draw(
        st.lists(st.sampled_from(pairs), max_size=4, unique=True)
        if pairs
        else st.just([])
    )
    edge_caps = draw(
        st.lists(
            st.floats(0.0, 5.0, allow_nan=False),
            min_size=len(edge_pairs),
            max_size=len(edge_pairs),
        )
    )
    return energy, [1.0] * n, tuple(edge_pairs), tuple(edge_caps)


class TestFlowProperties:
    @given(network_strategy())
    @settings(max_examples=300)
    def test_output_bounded_by_pack_energy(self, string):
        total, _ = max_deliverable_energy(*string)
        assert total <= sum(string[0]) + 1e-6
        assert total >= -1e-9

    @given(network_strategy(min_n=2))
    @settings(max_examples=300)
    def test_converters_never_hurt(self, string):
        energy, volts, _, _ = string
        with_edges, _ = max_deliverable_energy(*string)
        string_only, _ = max_deliverable_energy(energy, volts, (), ())
        assert with_edges >= string_only - 1e-7


def scipy_deliverable(energy, volts, pairs, caps) -> float:
    """Deliverable energy from ``scipy.optimize.linprog`` (HiGHS)."""
    volts = np.array(volts, dtype=float)
    a_ub = np.zeros((len(energy), 1 + len(pairs)))
    a_ub[:, 0] = volts
    bounds = [(0.0, None)]
    for k, ((i, j), cap) in enumerate(zip(pairs, caps)):
        a_ub[i, 1 + k] += 1.0
        a_ub[j, 1 + k] -= 1.0
        bounds.append((-cap, cap) if math.isfinite(cap) else (None, None))
    c = np.zeros(1 + len(pairs))
    c[0] = -volts.sum()
    res = scipy.optimize.linprog(c, A_ub=a_ub, b_ub=energy, bounds=bounds)
    assert res.status == 0
    return -res.fun


def cut_reference(energy, volts, pairs, caps) -> float:
    """The cut form for one series string, op for op as first written.

    Every cut-form evaluation has produced exactly these floats since the
    artifacts were pinned: the cut accumulated from 0.0 in edge order, the
    subset sums built module by module, and the output as numpy's sum of
    ``q * V_j``.  Comparing with ``==`` keeps the artifacts byte-identical.
    """
    n = len(energy)
    energy = np.array(energy, dtype=float)
    volts = np.array(volts, dtype=float)
    ids = np.arange(1 << n)
    cut = np.zeros(1 << n)
    for (i, j), cap in zip(pairs, caps):
        crossed = ((ids >> i) ^ (ids >> j)) & 1
        cut += np.where(crossed == 1, cap, 0.0)
    e_sub, v_sub = np.zeros(1 << n), np.zeros(1 << n)
    for j in range(n):
        e_sub[1 << j : 2 << j] = e_sub[: 1 << j] + energy[j]
        v_sub[1 << j : 2 << j] = v_sub[: 1 << j] + volts[j]
    q = ((e_sub + cut)[1:] / v_sub[1:]).min()
    return float((q * volts).sum())


def kernel_energy(energy, volts, pairs, caps) -> float:
    """The cut-form kernel on one wired string: one pack, one row of caps."""
    ((got,),) = cut_form_energy([energy], [volts], pairs, [caps])
    return float(got)


def assert_three_way(strings, rel: float = 1e-12) -> None:
    """The kernel against the in-house LP and scipy, and ``==`` its reference."""
    for string in strings:
        got = kernel_energy(*string)
        assert got == cut_reference(*string)
        lp, _ = max_deliverable_energy(*string)
        oracle = scipy_deliverable(*string)
        scale = max(1.0, abs(lp))
        assert abs(got - lp) <= rel * scale, (got, lp)
        assert abs(got - oracle) <= rel * scale, (got, oracle)


# Module voltage of the sampled packs, the supply's default.
SAMPLED_VOLTS = 50.0


def sampled_packs(n_packs: int = 8, n: int = 9) -> np.ndarray:
    """A (packs x n) matrix of module energies, every module at ``SAMPLED_VOLTS``."""
    dist = SupplyDistribution(mean_kwh=37.5, std_kwh=9.375, voltage_v=SAMPLED_VOLTS)
    keys = [derive_seed(5, "cut-pack", i) for i in range(n_packs)]
    return sample_packs(dist, n, keys)


def sampled_wirings(split, n_packs: int = 8) -> list:
    """Each sampled pack wired by ``split``."""
    return [
        wiring(pack(*p, voltage=SAMPLED_VOLTS), split.pairs, split.caps_kwh)
        for p in sampled_packs(n_packs)
    ]


@st.composite
def cap_rows_strategy(draw):
    """Packs of one size, an edge set and several rows of caps for it.

    Caps mix 0, ``math.inf`` and finite values; strings may have no edges.
    Nonzero energies and caps stay well above the LP oracles' ~1e-9
    feasibility tolerance, so a 1e-12 comparison tests the cut form, not
    the oracles' slack.
    """
    n = draw(st.integers(1, 5))
    module = st.just(0.0) | st.floats(0.01, 10.0)
    n_packs = draw(st.integers(1, 3))
    energy = draw(st.lists(
        st.lists(module, min_size=n, max_size=n), min_size=n_packs, max_size=n_packs
    ))
    volts = draw(st.lists(
        st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=n, max_size=n),
        min_size=n_packs, max_size=n_packs,
    ))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(
        st.lists(st.sampled_from(pairs), max_size=4, unique=True)
        if pairs
        else st.just([])
    )
    cap = st.sampled_from([0.0, math.inf]) | st.floats(0.01, 5.0)
    rows = draw(st.lists(
        st.lists(cap, min_size=len(edges), max_size=len(edges)),
        min_size=1, max_size=4,
    ))
    return energy, volts, edges, rows


class TestCutForm:
    def test_three_way_random_networks(self):
        rng = np.random.Generator(np.random.Philox(key=424242))
        assert_three_way([random_string(rng) for _ in range(200)])

    @pytest.mark.parametrize("rating_r", [0.0, 0.05, 0.2, 0.6])
    def test_three_way_cppp_packs(self, rating_r):
        split = split_budget("cppp", 9, rating_r, 337.5)
        assert_three_way(sampled_wirings(split))

    @pytest.mark.parametrize("rating_r", [0.0, 0.05, 0.2, 0.6])
    def test_three_way_lshippp_budget_packs(self, layer1_9, rating_r):
        split = split_budget("lshippp", 9, rating_r, 337.5, layer1_9)
        assert_three_way(sampled_wirings(split))

    @pytest.mark.parametrize("cap2", [0.0, 0.5, 3.0, 40.0])
    def test_three_way_frozen_layer1_packs(self, layer1_9, cap2):
        # More packs than one chunk of the batched evaluator holds.
        # The lambda whose ladder rungs get ``cap2`` each.
        lam = cap2 * 8 / layer1_aggregate_kwh(layer1_9)
        split = split_lambda(layer1_9, lam, 337.5)
        assert split.rung_kwh == pytest.approx(cap2, rel=1e-12)
        assert_three_way(sampled_wirings(split, n_packs=40))

    @given(cap_rows_strategy())
    @settings(max_examples=200)
    def test_kernel_three_way_over_cap_rows(self, case):
        energy, volts, edges, rows = case
        got = cut_form_energy(energy, volts, edges, rows)
        assert got.shape == (len(rows), len(energy))
        for caps, row in zip(rows, got):
            for e_pack, v_pack, value in zip(energy, volts, row):
                string = (e_pack, v_pack, edges, caps)
                lp, _ = max_deliverable_energy(*string)
                oracle = scipy_deliverable(*string)
                scale = max(1.0, abs(lp))
                assert abs(value - lp) <= 1e-12 * scale, (value, lp)
                assert abs(value - oracle) <= 1e-12 * scale, (value, oracle)
                assert value == cut_reference(*string)

    def test_kernel_chunks_match_the_reference(self, layer1_9):
        # 40 packs and 21 cap rows span several chunks of packs and rows.
        energy = sampled_packs(n_packs=40)
        volts = np.full(energy.shape, SAMPLED_VOLTS)
        splits = [split_lambda(layer1_9, lam, 337.5) for lam in np.linspace(0, 5, 21)]
        pairs = [e for e in layer1_9.edges] + [(j, j + 1) for j in range(8)]
        rows = [s.caps_kwh for s in splits]
        got = cut_form_energy(energy, volts, pairs, rows)
        for k, caps in enumerate(rows):
            for p, (e, v) in enumerate(zip(energy, volts)):
                assert got[k, p] == cut_reference(e, v, pairs, caps)

    def test_kernel_rejects_bad_input(self):
        with pytest.raises(ValueError, match="one cap per edge"):
            cut_form_energy([[1.0, 2.0]], [[1.0, 1.0]], [(0, 1)], [[1.0, 2.0]])
        with pytest.raises(ValueError, match="distinct modules"):
            cut_form_energy([[1.0, 2.0]], [[1.0, 1.0]], [(0, 2)], [[1.0]])
        with pytest.raises(ValueError, match="distinct modules"):
            cut_form_energy([[1.0, 2.0]], [[1.0, 1.0]], [(1, 1)], [[1.0]])
        with pytest.raises(ValueError, match=">= 0"):
            cut_form_energy([[1.0, 2.0]], [[1.0, 1.0]], [(0, 1)], [[-1.0]])
        with pytest.raises(ValueError, match=">= 0"):
            cut_form_energy([[1.0, 2.0]], [[1.0, 1.0]], [(0, 1)], [[math.nan]])
        for energy in (-1.0, math.nan):
            with pytest.raises(ValueError, match="energies and caps must be >= 0"):
                cut_form_energy([[energy, 2.0]], [[1.0, 1.0]], [], [[]])
        with pytest.raises(ValueError, match="voltages > 0"):
            cut_form_energy([[1.0, 2.0]], [[1.0, 0.0]], [], [[]])
        with pytest.raises(ValueError, match="equal"):
            cut_form_energy([[1.0, 2.0]], [[1.0]], [], [[]])
        with pytest.raises(ValueError, match="at least one module"):
            cut_form_energy([[]], [[]], [], [[]])
        with pytest.raises(ValueError, match="subsets"):
            n = MAX_CUT_MODULES + 1
            cut_form_energy([[1.0] * n], [[1.0] * n], [], [[]])

    def test_mixed_batch_keeps_order(self, layer1_9):
        # Packs and cap rows of one wiring: the batch equals pack by pack.
        packs = sampled_packs(n_packs=40)
        splits = [split_lambda(layer1_9, lam, 337.5) for lam in (0.0, 0.4, 2.0)]
        batched = sweep_energy(packs, SAMPLED_VOLTS, splits)
        one_by_one = [
            [cut_reference(*string) for string in sampled_wirings(s, n_packs=40)]
            for s in splits
        ]
        assert batched.tolist() == one_by_one

    def test_uncapped_placements_match_lp(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        energy = rng.uniform(1.0, 9.0, size=6)
        volts = rng.choice([0.5, 1.0, 2.0], size=6)
        placements = list(itertools.combinations(
            list(itertools.combinations(range(6), 2)), 2
        ))
        got = uncapped_placement_energy(energy, volts, placements)
        for placement, value in zip(placements, got):
            lp, _ = max_deliverable_energy(
                energy, volts, placement, [math.inf] * len(placement)
            )
            assert value == pytest.approx(lp, rel=1e-12, abs=1e-12)

    def test_largest_supported_string(self):
        batteries = pack(*np.linspace(1.0, 4.0, MAX_CUT_MODULES))
        split = split_budget("cppp", MAX_CUT_MODULES, 0.1, 40.0)
        string = wiring(batteries, split.pairs, split.caps_kwh)
        lp, _ = max_deliverable_energy(*string)
        assert kernel_energy(*string) == pytest.approx(lp, rel=1e-12)

    def test_rejects_strings_above_the_subset_limit(self):
        batteries = pack(*([2.0] * (MAX_CUT_MODULES + 1)))
        with pytest.raises(ValueError, match="subsets"):
            kernel_energy(*wiring(batteries))
        with pytest.raises(ValueError, match="subsets"):
            uncapped_placement_energy(*batteries, [((0, 1),)])

    def test_dedicated_converters_have_no_subset_limit(self):
        n = MAX_CUT_MODULES + 1
        split = split_budget("fpp", n, 0.75, 2.0 * n)
        assert sweep_energy([[2.0] * n], 1.0, [split]).tolist() == [[1.5 * n]]

    def test_invalid_network_rejected(self):
        # Both LPs check the wiring as the cut form does.
        string = wiring(pack(1, 2), [(0, 2)], [1.0])
        with pytest.raises(ValueError, match="distinct modules"):
            max_deliverable_energy(*string)
        with pytest.raises(ValueError, match="distinct modules"):
            min_peak_flow(*string, 1.0)
        with pytest.raises(ValueError, match="one cap per edge"):
            max_deliverable_energy(*wiring(pack(1, 2), [(0, 1)], [1.0, 1.0]))
        with pytest.raises(ValueError, match="voltages > 0"):
            max_deliverable_energy([1.0, 2.0], [1.0, 0.0], (), ())
        with pytest.raises(ValueError, match="at least one module"):
            min_peak_flow([], [], (), (), 0.0)

    def test_invalid_placement_rejected(self):
        with pytest.raises(ValueError, match="distinct modules"):
            uncapped_placement_energy(*pack(1, 2, 3), [((0, 3),)])
        with pytest.raises(ValueError, match="distinct modules"):
            uncapped_placement_energy(*pack(1, 2, 3), [((1, 1),)])


def _imported_modules(module: str) -> set[str]:
    """Every module a ``besspp`` source file imports, at any depth."""
    path = Path(sys.modules["besspp"].__file__).parent / f"{module}.py"
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join(filter(None, ["besspp", base]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


class TestModuleBoundary:
    def test_architectures_and_flows_import_nothing_from_each_other(self):
        # The split describes the wiring and the evaluators take it as
        # pairs and caps, so neither module needs the other.
        assert "besspp.flows" not in _imported_modules("architectures")
        assert "besspp.architectures" not in _imported_modules("flows")
