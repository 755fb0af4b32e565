import ast
import concurrent.futures
import dataclasses
import importlib
import math
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besspp.designer import design_layer1

from besspp.flows import _module_totals
from besspp.scenario import ScenarioError, SupplyDistribution, default_scenario
from besspp.supply import _philox, flatten_distribution, sample_packs

from test_flows import left_fold

# Standard normal quartile; the n=4 flattening hits the +/-0.6745 sigma
# quantiles exactly.
Z_75 = statistics.NormalDist().inv_cdf(0.75)


class TestSupplyDistribution:
    """The record checks nothing: a scenario built on it refuses bad values."""

    @staticmethod
    def refused(**fields) -> str:
        supply = SupplyDistribution(**{"mean_kwh": 10.0, "std_kwh": 1.0, **fields})
        with pytest.raises(ScenarioError) as exc:
            dataclasses.replace(default_scenario(), supply=supply)
        return str(exc.value)

    def test_rejects_nonpositive_mean(self):
        assert "supply.mean_kwh must be positive" in self.refused(mean_kwh=0.0)

    def test_rejects_negative_std(self):
        assert "supply.std_kwh must be nonnegative" in self.refused(std_kwh=-1.0)

    def test_rejects_excessive_heterogeneity(self):
        assert "supply.std_kwh is over 0.5 x mean" in self.refused(std_kwh=5.1)

    def test_rejects_bad_dod(self):
        assert "supply.dod must be in (0, 1]" in self.refused(dod=0.0)
        assert "supply.dod must be in (0, 1]" in self.refused(dod=1.2)


class TestUsableEnergy:
    """A module's usable energy is its intrinsic energy times the depth of discharge."""

    def test_scales_by_depth_of_discharge(self):
        expected = flatten_distribution(SupplyDistribution(40.0, 0.0, dod=0.8), 3)
        assert expected.tolist() == pytest.approx([32.0] * 3)

    def test_full_depth__identity(self):
        expected = flatten_distribution(SupplyDistribution(37.5, 0.0), 3)
        assert expected.tolist() == [37.5] * 3


class TestFlatten:
    def test_two_modules_hit_the_quartiles(self):
        # Mid-quantiles of n=2 are 0.25 and 0.75.
        dist = SupplyDistribution(mean_kwh=40.0, std_kwh=10.0)
        lo, hi = flatten_distribution(dist, 2).tolist()
        assert lo == pytest.approx(40.0 - Z_75 * 10.0)
        assert hi == pytest.approx(40.0 + Z_75 * 10.0)

    def test_reference_nine_module_set(self):
        dist = SupplyDistribution(mean_kwh=37.5, std_kwh=9.375)
        caps = flatten_distribution(dist, 9).tolist()
        assert caps[4] == pytest.approx(37.5)  # median module
        assert sum(caps) == pytest.approx(337.5)
        assert caps == sorted(caps)
        # Symmetric distribution: mirror modules straddle the mean.
        for k in range(4):
            assert caps[k] + caps[8 - k] == pytest.approx(75.0)

    def test_dod_scales_linearly(self):
        full = flatten_distribution(
            SupplyDistribution(mean_kwh=40.0, std_kwh=8.0), 5
        )
        derated = flatten_distribution(
            SupplyDistribution(mean_kwh=40.0, std_kwh=8.0, dod=0.8), 5
        )
        assert derated.tolist() == pytest.approx((0.8 * full).tolist())

    def test_voltage_carried_through(self):
        # A pack holds energies alone; its modules' voltage is the supply's,
        # which the designer wires the expected set with.
        dist = SupplyDistribution(mean_kwh=40.0, std_kwh=8.0, voltage_v=48.0)
        expected = flatten_distribution(dist, 3)
        assert expected.shape == (3,) and expected.dtype == np.float64
        design = design_layer1(expected, dist.voltage_v, 1, 1.0)
        assert design.expected_output_kwh == pytest.approx(120.0)

    def test_rejects_single_module(self):
        with pytest.raises(ValueError):
            flatten_distribution(SupplyDistribution(40.0, 8.0), 1)

    @given(
        mean=st.floats(5.0, 100.0),
        het=st.floats(0.0, 0.5, exclude_max=True),
        n=st.integers(2, 16),
    )
    @settings(max_examples=200)
    def test_flatten_properties(self, mean, het, n):
        dist = SupplyDistribution(mean_kwh=mean, std_kwh=het * mean)
        caps = flatten_distribution(dist, n).tolist()
        assert len(caps) == n
        assert all(c >= 0 for c in caps)
        assert caps == sorted(caps)
        # Clamping at zero can only raise the average above the mean.
        assert sum(caps) / n >= mean * (1 - 1e-12)


class TestSamplePack:
    def test_reproducible(self):
        dist = SupplyDistribution(mean_kwh=37.5, std_kwh=9.375)
        a = sample_packs(dist, 9, [42, 7])
        b = sample_packs(dist, 9, [42, 7])
        assert a.shape == (2, 9) and a.dtype == np.float64
        assert a.tolist() == b.tolist()
        # A row depends on its key alone, not on the other keys.
        assert sample_packs(dist, 9, [7]).tolist() == a[1:].tolist()

    def test_seed_changes_pack(self):
        dist = SupplyDistribution(mean_kwh=37.5, std_kwh=9.375)
        one, two = sample_packs(dist, 9, [1, 2]).tolist()
        assert one != two

    def test_sorted_and_nonnegative(self):
        dist = SupplyDistribution(mean_kwh=10.0, std_kwh=4.9)
        for caps in sample_packs(dist, 12, range(25)).tolist():
            assert caps == sorted(caps)
            assert all(c >= 0 for c in caps)

    def test_dod_scales_samples(self):
        (full,) = sample_packs(SupplyDistribution(40.0, 8.0), 6, [7])
        (derated,) = sample_packs(SupplyDistribution(40.0, 8.0, dod=0.5), 6, [7])
        assert derated.tolist() == pytest.approx((0.5 * full).tolist())

    def test_sample_mean_approaches_distribution_mean(self):
        dist = SupplyDistribution(mean_kwh=37.5, std_kwh=9.375)
        packs = sample_packs(dist, 9, range(400))
        assert np.mean(packs) == pytest.approx(37.5, rel=0.02)


class TestRekeyedPhilox:
    @staticmethod
    def _draws(rng) -> list:
        return [
            rng.standard_normal(5),
            rng.exponential(2.0),
            rng.normal(3.0, 4.0),
            rng.integers(0, 1000, 3, dtype=np.int32),
            rng.random(2),
        ]

    def test_draws_as_a_fresh_generator(self):
        keys = [0, 1, 2**64 - 1, 2**64, 2**128 - 1]
        keys += [(0x9E3779B97F4A7C15 * (i + 1)) % 2**128 for i in range(200)]
        for key in keys:
            expected = self._draws(np.random.Generator(np.random.Philox(key=key)))
            rng = _philox(key)
            got = self._draws(rng)
            assert all(np.array_equal(a, b) for a, b in zip(got, expected)), key
            # The next key starts from a spent counter and a half-used
            # 32-bit buffer (three int32 draws), which it must not inherit.
            assert rng.bit_generator.state["has_uint32"] == 1

    @given(st.integers(0, 2**128 - 1), st.integers(0, 2**128 - 1))
    @settings(max_examples=100)
    def test_scalar_draws_after_any_rekey(self, before, key):
        # draw_arrivals' pattern, scalar exponential and normal draws, right
        # after a re-key away from a key whose stream was left mid-buffer.
        spent = _philox(before)
        spent.standard_normal(3)
        spent.integers(0, 9, dtype=np.int32)
        rng = _philox(key)
        fresh = np.random.Generator(np.random.Philox(key=key))
        for _ in range(20):
            assert rng.exponential(0.5) == fresh.exponential(0.5)
            assert rng.normal(33.0, 5.0) == fresh.normal(33.0, 5.0)

    def test_sample_pack_matches_a_fresh_generator(self):
        # Each row is one pack drawn as by its own fresh generator.
        dist = SupplyDistribution(mean_kwh=37.5, std_kwh=9.375, dod=0.8)
        seeds = (0, 5, 2**127 + 3)
        got = sample_packs(dist, 9, seeds).tolist()
        for seed, row in zip(seeds, got):
            rng = np.random.Generator(np.random.Philox(key=seed))
            draws = dist.mean_kwh + dist.std_kwh * rng.standard_normal(9)
            caps = np.sort(np.clip(draws, 0.0, None)) * dist.dod
            assert row == caps.tolist()
        with pytest.raises(ValueError, match="128-bit"):
            sample_packs(dist, 9, [-1])

    def test_threads_draw_independently(self):
        dist = SupplyDistribution(mean_kwh=37.5, std_kwh=9.375)
        seeds = list(range(200))
        expected = [sample_packs(dist, 9, [s]).tolist() for s in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads between re-key and draw
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
                results = [
                    pool.submit(
                        lambda: [sample_packs(dist, 9, [s]).tolist() for s in seeds]
                    )
                    for _ in range(4)
                ]
                got = [f.result(timeout=60) for f in results]
        finally:
            sys.setswitchinterval(interval)
        assert all(packs == expected for packs in got)

    def test_rejects_keys_outside_128_bits(self):
        with pytest.raises(ValueError, match="128-bit"):
            _philox(-1)
        with pytest.raises(ValueError, match="128-bit"):
            _philox(2**128)



class TestExpectedSet:
    def test_total(self):
        dist = SupplyDistribution(mean_kwh=37.5, std_kwh=9.375)
        expected = flatten_distribution(dist, 9)
        assert _module_totals(expected).item() == left_fold(expected.tolist())
        assert _module_totals(expected).item() == pytest.approx(337.5)


class TestLeftSum:
    """Pack totals are folded left to right on every Python and numpy version."""

    def test_differs_from_a_compensated_sum(self):
        # Python >= 3.12's builtin sum is compensated and reads 1.0 here;
        # ndarray.sum of the second row reads 1.0 too under numpy 2.
        assert math.fsum([1e16, 1.0, -1e16]) == 1.0
        rows = np.array([[1e16, 1.0, -1e16] + [0.0] * 7, [0.1] * 10])
        assert _module_totals(rows).tolist() == [0.0, 0.9999999999999999]
        assert math.fsum([0.1] * 10) == 1.0
        # Every pack of a sample is its row's scalar fold, bit for bit.
        packs = sample_packs(SupplyDistribution(37.5, 9.375), 9, range(100))
        totals = [left_fold(row) for row in packs.tolist()]
        assert _module_totals(packs).tolist() == totals

    def test_empty_and_signed_zero(self):
        assert _module_totals(np.empty((2, 0))).tolist() == [0.0, 0.0]
        assert repr(_module_totals(np.array([[-0.0]])).item()) == "0.0"

    def test_no_builtin_sum_in_the_package(self):
        # The builtin sum of floats rounds differently from Python 3.12 on;
        # the package folds pack totals with ``flows._module_totals`` instead.
        root = Path(sys.modules["besspp"].__file__).parent
        calls = [
            f"{path.name}:{node.lineno}"
            for path in sorted(root.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sum"
        ]
        assert calls == []

    def test_every_public_name_has_a_caller(self):
        # No public API that only tests call: each public function, class
        # and method of the package is named in the package besides its own
        # definition.  The tests' LP solver lives in tests/, so no module
        # is excepted.
        package = Path(__file__).resolve().parents[1] / "src" / "besspp"
        trees = {
            path: ast.parse(path.read_text(), str(path))
            for path in sorted(package.glob("*.py"))
        }
        named = set()
        defined = set()
        for path, tree in trees.items():
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
                elif isinstance(node, ast.alias):
                    named.add(node.name)
                elif (
                    isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and path.parent == package
                    and not node.name.startswith("_")
                ):
                    defined.add(node.name)
        assert sorted(defined - named) == []

    def test_every_exported_name_resolves(self):
        # Each ``__all__`` entry of each module names something it binds.
        root = Path(sys.modules["besspp"].__file__).parent
        missing = {}
        for path in sorted(root.glob("*.py")):
            name = "besspp" if path.stem == "__init__" else f"besspp.{path.stem}"
            module = importlib.import_module(name)
            gone = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
            if gone:
                missing[path.name] = gone
        assert missing == {}

    def test_no_module_imports_a_name_it_never_uses(self):
        # The caller check above counts an import as a caller, so a leftover
        # import would keep a dead name alive.  A name that only a string
        # annotation reads (a TYPE_CHECKING import) counts as used, and so
        # does one that ``__all__`` exports.
        root = Path(sys.modules["besspp"].__file__).parent
        unused = []
        for path in sorted(root.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            imported = {}
            used = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        bound = alias.asname or alias.name.partition(".")[0]
                        imported[bound] = node.lineno
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    for alias in node.names:
                        imported[alias.asname or alias.name] = node.lineno
                elif isinstance(node, ast.Name):
                    used.add(node.id)
                annotations = []
                if isinstance(node, ast.arg):
                    annotations.append(node.annotation)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    annotations.append(node.returns)
                elif isinstance(node, ast.AnnAssign):
                    annotations.append(node.annotation)
                elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
                ):
                    used.update(ast.literal_eval(node.value))
                strings = [
                    part.value
                    for annotation in filter(None, annotations)
                    for part in ast.walk(annotation)
                    if isinstance(part, ast.Constant) and isinstance(part.value, str)
                ]
                for text in strings:
                    parsed = ast.walk(ast.parse(text, mode="eval"))
                    used.update(n.id for n in parsed if isinstance(n, ast.Name))
            unused += [
                f"{path.name}:{line} {name}"
                for name, line in imported.items()
                if name not in used
            ]
        assert unused == []
