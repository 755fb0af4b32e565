"""Supply-side model of heterogeneous second-use battery modules.

The module pool is described by a Gaussian over per-module intrinsic energy.
Two views of a pack are used downstream:

* a deterministic "flattened" expected set built by mid-quantile
  stratification, which stands in for the population during converter
  network design, and
* Monte Carlo packs drawn with a counter-based generator, so per-pack
  streams are reproducible and independent of scheduling.

Capacities carried by :class:`BatteryModule` are usable energies, i.e. the
intrinsic Gaussian draw scaled by the second-use depth of discharge.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Iterable
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

__all__ = [
    "SupplyDistribution",
    "BatteryModule",
    "ExpectedSet",
    "usable_energy",
    "flatten_distribution",
    "sample_pack",
]

_STD_NORMAL = NormalDist()

# One Philox bit generator and its Generator per thread, made on first use
# so that importing the package does not import ``numpy.random``.
_PHILOX = threading.local()
_WORD = (1 << 64) - 1

# Beyond 50% relative spread the curated-supply Gaussian model is no longer
# a sensible description (negative-capacity mass stops being negligible).
MAX_HETEROGENEITY = 0.5


@dataclass(frozen=True)
class SupplyDistribution:
    """Gaussian population of second-use module energies.

    ``mean_kwh`` and ``std_kwh`` describe intrinsic module energy before the
    depth-of-discharge derate.  Their relative spread ``std/mean`` is at
    most :data:`MAX_HETEROGENEITY`.
    """

    mean_kwh: float
    std_kwh: float
    dod: float = 1.0
    voltage_v: float = 50.0

    def __post_init__(self) -> None:
        if not (self.mean_kwh > 0 and math.isfinite(self.mean_kwh)):
            raise ValueError(f"mean_kwh must be positive, got {self.mean_kwh}")
        if not (self.std_kwh >= 0 and math.isfinite(self.std_kwh)):
            raise ValueError(f"std_kwh must be nonnegative, got {self.std_kwh}")
        if self.std_kwh / self.mean_kwh > MAX_HETEROGENEITY:
            raise ValueError(
                f"heterogeneity {self.std_kwh / self.mean_kwh:.3f} exceeds "
                f"the supported maximum {MAX_HETEROGENEITY}"
            )
        if not 0 < self.dod <= 1:
            raise ValueError(f"dod must be in (0, 1], got {self.dod}")
        if not 0 < self.voltage_v < math.inf:
            raise ValueError(
                f"voltage_v must be positive and finite, got {self.voltage_v}"
            )


@dataclass(frozen=True)
class BatteryModule:
    """One series-string module: usable energy and nominal terminal voltage."""

    capacity_kwh: float
    voltage_v: float

    def __post_init__(self) -> None:
        if not (self.capacity_kwh >= 0 and math.isfinite(self.capacity_kwh)):
            raise ValueError(f"capacity_kwh must be >= 0, got {self.capacity_kwh}")
        if not self.voltage_v > 0:
            raise ValueError(f"voltage_v must be positive, got {self.voltage_v}")


@dataclass(frozen=True)
class ExpectedSet:
    """Deterministic stand-in pack used during design, sorted ascending."""

    batteries: tuple[BatteryModule, ...]

    def __post_init__(self) -> None:
        if len(self.batteries) < 2:
            raise ValueError("an expected set needs at least two modules")
        caps = [b.capacity_kwh for b in self.batteries]
        if any(a > b for a, b in zip(caps, caps[1:])):
            raise ValueError("expected-set modules must be sorted ascending")

    @property
    def total_kwh(self) -> float:
        return _left_sum(b.capacity_kwh for b in self.batteries)


def _left_sum(values: Iterable[float]) -> float:
    """Float sum added left to right from 0.0, on every Python version.

    The builtin ``sum`` of floats is compensated from Python 3.12 on and so
    rounds differently than on 3.10 and 3.11; every float total that reaches
    an artifact goes through this fold instead, which is what ``sum`` did
    before 3.12.
    """
    total = 0.0
    for value in values:
        total += value
    return float(total)


def usable_energy(intrinsic_kwh: float, dod: float) -> float:
    """Usable energy of a module: intrinsic capacity times depth of discharge."""
    if intrinsic_kwh < 0:
        raise ValueError(f"intrinsic_kwh must be >= 0, got {intrinsic_kwh}")
    if not 0 < dod <= 1:
        raise ValueError(f"dod must be in (0, 1], got {dod}")
    return intrinsic_kwh * dod


def flatten_distribution(dist: SupplyDistribution, n_modules: int) -> ExpectedSet:
    """Mid-quantile stratification of the supply into ``n_modules`` modules.

    Module ``i`` (1-based) takes the inverse CDF at ``(i - 0.5) / n``, clamped
    at zero.  The set is symmetric about the mean, sorted ascending, and for
    odd ``n`` its median module equals the mean exactly.
    """
    if n_modules < 2:
        raise ValueError(f"n_modules must be >= 2, got {n_modules}")
    caps = []
    for i in range(1, n_modules + 1):
        q = (i - 0.5) / n_modules
        z = _STD_NORMAL.inv_cdf(q) if dist.std_kwh > 0 else 0.0
        intrinsic = max(0.0, dist.mean_kwh + dist.std_kwh * z)
        caps.append(usable_energy(intrinsic, dist.dod))
    return ExpectedSet(
        tuple(BatteryModule(float(c), dist.voltage_v) for c in caps)
    )


def sample_pack(
    dist: SupplyDistribution, n_modules: int, seed: int
) -> tuple[BatteryModule, ...]:
    """Draw one pack of ``n_modules`` modules, sorted ascending.

    Draws are Gaussian, clamped at zero capacity, and generated with a
    Philox counter-based generator keyed by ``seed``, so equal seeds give
    byte-identical packs on every platform and worker layout.
    """
    if n_modules < 1:
        raise ValueError(f"n_modules must be >= 1, got {n_modules}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = _philox(seed)
    intrinsic = dist.mean_kwh + dist.std_kwh * rng.standard_normal(n_modules)
    caps = np.sort(np.clip(intrinsic, 0.0, None)) * dist.dod
    return tuple(BatteryModule(float(c), dist.voltage_v) for c in caps)


def _philox(key: int) -> np.random.Generator:
    """A generator that draws exactly as ``Generator(Philox(key=key))``.

    The calling thread's Philox is re-keyed in place, at counter 0 with an
    empty buffer, instead of building a generator (and seeding an unused
    ``SeedSequence``) per draw.  The state setter copies every word out of
    one state dict per thread, held as Python ints, so a re-key writes the
    two key words and allocates no array.  The returned generator is valid
    until the thread's next call.
    """
    if not 0 <= key < 1 << 128:
        raise ValueError(f"Philox keys are 128-bit and nonnegative, got {key}")
    rekey = getattr(_PHILOX, "rekey", None)
    if rekey is None:
        bit_generator = np.random.Philox(key=0)
        words = [0, 0]
        state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": words},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        rekey = _PHILOX.rekey = (
            bit_generator,
            np.random.Generator(bit_generator),
            state,
            words,
        )
    bit_generator, generator, state, words = rekey
    words[0] = key & _WORD
    words[1] = key >> 64
    bit_generator.state = state
    return generator
