"""Machine-speed probe: a fixed computation that does not use shiftspec.

The benchmark was sized on a shared virtual machine whose speed drifts by
20-40% over minutes, moving every operation of a run together. A run
times this probe between operations and divides its latencies by the
probe's slowdown against a reference, so that two runs of the same code
agree although the machine sped up or slowed down between them. The probe
mixes the kinds of work shiftspec does, each part on its own clock:
interpreted arithmetic, string-to-float parsing, small numpy calls, a
logistic loss and gradient on mid-sized arrays, and a large numpy array.

Its code is fixed: no change to shiftspec can change what the probe
measures, so a faster or slower program still shows in full.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

# Median seconds of each part on the machine the benchmark was sized on
# (2-vCPU KVM guest on an Intel Xeon Sapphire Rapids host, CPython 3.11).
REFERENCE_S = {"python": 0.0114, "parse": 0.0104, "numpy_small": 0.0088,
               "numpy_vector": 0.0102, "numpy_large": 0.0133}


class SpeedProbe:
    """Times the probe's parts and reports the machine's slowdown."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._text = "\n".join(",".join(repr(float(x)) for x in rng.random(9))
                               for _ in range(1500))
        self._small = rng.random(64)
        self._x = rng.standard_normal((5000, 2))
        self._large = rng.random(250_000)
        self.samples: dict[str, list[float]] = {name: [] for name in REFERENCE_S}

    def _python(self) -> int:
        total = 0
        for i in range(100_000):
            total += i * i % 7
        return total

    def _parse(self) -> float:
        rows = [[float(v) for v in line.split(",")] for line in self._text.split("\n")]
        return max(rows)[0]

    def _numpy_small(self) -> float:
        x = self._small
        for _ in range(2000):
            x = np.sqrt(x * x + 1e-3) / 1.0001
        return float(x[0])

    def _numpy_vector(self) -> float:
        """A logistic loss and gradient on a 5000 x 2 array, repeated."""
        w = np.array([0.5, -0.25])
        for _ in range(40):
            margins = self._x @ w
            loss = float(np.mean(np.logaddexp(0.0, -margins)))
            w = w + 1e-3 * (self._x.T @ (0.5 * (1.0 - np.tanh(0.5 * margins))))
        return loss

    def _numpy_large(self) -> float:
        return sum(float(np.exp(-k * self._large).sum()) for k in (1.0, 2.0, 3.0, 4.0))

    def sample(self) -> None:
        """Time each part once."""
        for name, part in (("python", self._python), ("parse", self._parse),
                           ("numpy_small", self._numpy_small),
                           ("numpy_vector", self._numpy_vector),
                           ("numpy_large", self._numpy_large)):
            t0 = perf_counter()
            part()
            self.samples[name].append(perf_counter() - t0)

    def slowdown(self) -> float:
        """Geometric mean over the parts of median seconds / reference seconds."""
        logs = [math.log(statistics.median(self.samples[name]) / ref)
                for name, ref in REFERENCE_S.items()]
        return math.exp(statistics.fmean(logs))
