"""Counter-based random streams for reproducible, order-independent sampling.

Every stream is a Philox4x64 generator keyed by (seed, stream_id), so tasks
can draw from disjoint streams in any order and still produce identical
results. Uniform doubles are the only primitive taken from the generator;
normals, integers, and simplex weights are documented transforms of that
uniform stream, which keeps the byte-level output independent of library
internals for non-uniform distributions.

`RandomStream.substream_uniform` gives the uniforms of many substreams
without building one generator each: it re-keys a single cached Philox
generator to (seed, substream id) with its counter at zero, which is the
state a fresh `substream` starts from, so the doubles are the same. The
cached generator makes a `RandomStream` unsafe to share between threads.
"""

from __future__ import annotations

import numpy as np

from .analytic import normal_quantile

_TINY_U = 2.0**-53
_MASK64 = 0xFFFFFFFFFFFFFFFF
_ZEROS4 = (0, 0, 0, 0)


def uniform_to_integers(u: np.ndarray, n) -> np.ndarray:
    """Integers on [0, n) as floor(u * n) of uniforms u; n may be an array."""
    return np.minimum((u * n).astype(np.int64), n - 1)


class RandomStream:
    """Seeded uniform stream plus derived variates.

    Two streams with the same (seed, stream_id) yield identical draws
    regardless of what other streams were consumed in between.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        key = np.array([seed & _MASK64, stream_id & _MASK64], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._rekeyed = None

    def _substream_id(self, stream_id: int) -> int:
        return self.stream_id * 0x9E3779B9 + 1 + stream_id

    def substream(self, stream_id: int) -> "RandomStream":
        """Derive an independent stream; used to give each task its own."""
        return RandomStream(self.seed, self._substream_id(stream_id))

    def substream_uniform(self, stream_id: int, size: int) -> np.ndarray:
        """The same doubles as ``self.substream(stream_id).uniform(size=size)``.

        One Philox generator, built on first use, is reset for each call to
        the key (seed, substream id) with counter 0, an empty output buffer
        and no pending 32-bit half: exactly the state of a freshly keyed
        Philox. That skips building a Philox, its discarded SeedSequence and
        a Generator per call. Not thread-safe, as calls share the cached
        generator; nothing in shiftspec draws from more than one thread.
        """
        if self._rekeyed is None:
            self._rekeyed = np.random.Generator(np.random.Philox(0))
        # Tuples, not arrays: the state setter reads them item by item.
        self._rekeyed.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZEROS4,
                      "key": (self.seed & _MASK64,
                              self._substream_id(stream_id) & _MASK64)},
            "buffer": _ZEROS4, "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}
        # uniform() maps u to 0.0 + 1.0 * u, which is u itself
        return self._rekeyed.random(size=size, dtype=np.float64)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None) -> np.ndarray:
        u = self._gen.random(size=size, dtype=np.float64)
        return low + (high - low) * u

    def standard_normal(self, size=None) -> np.ndarray:
        # Inverse-CDF transform of the uniform stream; u=0 is nudged to the
        # smallest representable uniform so the quantile stays finite.
        u = self._gen.random(size=size, dtype=np.float64)
        u = np.maximum(u, _TINY_U)
        return normal_quantile(u)

    def integers(self, n: int, size=None) -> np.ndarray:
        """Uniform integers on [0, n) via floor(u * n)."""
        if n <= 0:
            raise ValueError("n must be positive")
        return uniform_to_integers(self._gen.random(size=size, dtype=np.float64), n)

    def bernoulli_signs(self, p_plus: float, size=None) -> np.ndarray:
        """±1 labels: +1 with probability p_plus."""
        u = self._gen.random(size=size, dtype=np.float64)
        return np.where(u < p_plus, 1.0, -1.0)

    def flat_simplex(self, m: int) -> np.ndarray:
        """Uniform point on the (m-1)-simplex via sorted-uniform spacings."""
        if m < 1:
            raise ValueError("need at least one component")
        if m == 1:
            return np.ones(1)
        cuts = np.sort(self.uniform(size=m - 1))
        return np.diff(np.concatenate(([0.0], cuts, [1.0])))
