"""Supply-side model of heterogeneous second-use battery modules.

The module pool is described by a Gaussian over per-module intrinsic energy,
a :class:`~besspp.scenario.SupplyDistribution`.  A pack is a float64 row
of usable module energies, sorted ascending: the intrinsic draw, clamped at
zero and scaled by the second-use depth of discharge.  Every module of a
supply has its one ``voltage_v``.  Two views of a pack are used downstream:

* a deterministic "flattened" expected set built by mid-quantile
  stratification, one row that stands in for the population during
  converter network design, and
* Monte Carlo packs drawn with a counter-based generator, a (packs x n)
  matrix whose rows are reproducible and independent of scheduling.
"""

from __future__ import annotations

import threading
from statistics import NormalDist

import numpy as np

from besspp.scenario import SupplyDistribution

__all__ = [
    "flatten_distribution",
    "sample_packs",
]

_STD_NORMAL = NormalDist()

# One Philox bit generator and its Generator per thread, made on first use
# so that importing the package does not import ``numpy.random``.
_PHILOX = threading.local()
_WORD = (1 << 64) - 1

def flatten_distribution(dist: SupplyDistribution, n_modules: int) -> np.ndarray:
    """Mid-quantile stratification of the supply into ``n_modules`` modules.

    Module ``i`` (1-based) takes the inverse CDF at ``(i - 0.5) / n``, clamped
    at zero.  The row is symmetric about the mean, sorted ascending, and for
    odd ``n`` its median module equals the mean exactly.
    """
    if n_modules < 2:
        raise ValueError(f"n_modules must be >= 2, got {n_modules}")
    caps = []
    for i in range(1, n_modules + 1):
        q = (i - 0.5) / n_modules
        z = _STD_NORMAL.inv_cdf(q) if dist.std_kwh > 0 else 0.0
        caps.append(max(0.0, dist.mean_kwh + dist.std_kwh * z) * dist.dod)
    return np.array(caps)


def sample_packs(dist: SupplyDistribution, n_modules: int, keys) -> np.ndarray:
    """One pack of ``n_modules`` modules per key: a (len(keys) x n) matrix.

    Row ``i`` is drawn by a Philox counter-based generator keyed by
    ``keys[i]``: Gaussian draws, clamped at zero and sorted ascending, so
    equal keys give byte-identical packs on every platform and worker
    layout.
    """
    if n_modules < 1:
        raise ValueError(f"n_modules must be >= 1, got {n_modules}")
    draws = np.empty((len(keys), n_modules))
    for row, key in zip(draws, keys):
        _philox(key).standard_normal(out=row)
    intrinsic = dist.mean_kwh + dist.std_kwh * draws
    return np.sort(np.clip(intrinsic, 0.0, None), axis=1) * dist.dod


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
