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
`seeded_generators` does the same for many seeds at stream id 0, with one
generator per call; `seeded_uniforms` and `synthgen.sample_domains` draw
through it.

The transforms make no masked select over a data-dependent mask (see
analytic): ±1 signs are 2 [u < p] - 1 in exact arithmetic, 0.9 ns per
element where np.where over the random mask u < p took 4.1 ns.
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


def uniform_to_normal(u: np.ndarray) -> np.ndarray:
    """Standard normals as the inverse CDF of uniforms u; u = 0 is nudged to
    the smallest representable uniform so the quantile stays finite."""
    return normal_quantile(np.maximum(u, _TINY_U))


def uniform_to_signs(u: np.ndarray, p_plus: float) -> np.ndarray:
    """±1 labels from uniforms u: +1 where u < p_plus, as 2 [u < p_plus] - 1,
    which is exact."""
    signs = np.less(u, p_plus).astype(np.float64)
    signs *= 2.0
    signs -= 1.0
    return signs


def _rekey(gen: np.random.Generator, seed: int,
           stream_id: int) -> np.random.Generator:
    """Reset gen's Philox to the state of ``RandomStream(seed, stream_id)``.

    That is the key (seed, stream_id), both masked to 64 bits, with counter
    0, an empty output buffer and no pending 32-bit half: exactly the state
    of a freshly keyed Philox. Re-keying skips building a Philox, its
    discarded SeedSequence and a Generator.
    """
    # Tuples, not arrays: the state setter reads them item by item.
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS4,
                  "key": (seed & _MASK64, stream_id & _MASK64)},
        "buffer": _ZEROS4, "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    return gen


def seeded_generators(seeds):
    """For each seed s in turn, a generator in the state of
    ``RandomStream(s)``'s: one Philox generator, re-keyed per seed (see
    `_rekey`), so each yielded generator is valid until the next one."""
    gen = np.random.Generator(np.random.Philox(0))
    for seed in seeds:
        yield _rekey(gen, seed, 0)


def seeded_uniforms(seeds, low: float, high: float,
                    shape: tuple[int, ...]) -> np.ndarray:
    """Stack of ``RandomStream(s).uniform(low, high, shape)`` over seeds s,
    drawn through `seeded_generators`."""
    out = np.empty((len(seeds),) + tuple(shape))
    for row, gen in zip(out, seeded_generators(seeds)):
        u = gen.random(size=shape, dtype=np.float64)
        row[...] = low + (high - low) * u  # as RandomStream.uniform
    return out


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

        One Philox generator, built on first use, is re-keyed for each call
        to (seed, substream id) (see `_rekey`). Not thread-safe, as calls
        share the cached generator; nothing in shiftspec draws from more
        than one thread.
        """
        if self._rekeyed is None:
            self._rekeyed = np.random.Generator(np.random.Philox(0))
        gen = _rekey(self._rekeyed, self.seed, self._substream_id(stream_id))
        # uniform() maps u to 0.0 + 1.0 * u, which is u itself
        return gen.random(size=size, dtype=np.float64)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None) -> np.ndarray:
        u = self._gen.random(size=size, dtype=np.float64)
        return low + (high - low) * u

    def standard_normal(self, size=None) -> np.ndarray:
        return uniform_to_normal(self._gen.random(size=size, dtype=np.float64))

    def integers(self, n: int, size=None) -> np.ndarray:
        """Uniform integers on [0, n) via floor(u * n)."""
        if n <= 0:
            raise ValueError("n must be positive")
        return uniform_to_integers(self._gen.random(size=size, dtype=np.float64), n)

    def bernoulli_signs(self, p_plus: float, size=None) -> np.ndarray:
        """±1 labels: +1 with probability p_plus."""
        return uniform_to_signs(self._gen.random(size=size, dtype=np.float64),
                                p_plus)

    def flat_simplex(self, m: int) -> np.ndarray:
        """Uniform point on the (m-1)-simplex via sorted-uniform spacings."""
        if m < 1:
            raise ValueError("need at least one component")
        if m == 1:
            return np.ones(1)
        cuts = np.sort(self.uniform(size=m - 1))
        return np.diff(np.concatenate(([0.0], cuts, [1.0])))
