"""Counter-based random streams for reproducible, order-independent sampling.

Every stream is a Philox4x64 generator keyed by (seed, stream_id), so tasks
can draw from disjoint streams in any order and still produce identical
results. Uniform doubles are the only primitive taken from the generator;
normals, integers, and simplex weights are documented transforms of that
uniform stream, which keeps the byte-level output independent of library
internals for non-uniform distributions.

The draw rule: a sampler of many seeds draws, then transforms. One
`seeded_draws` call fills one stacked buffer per part, member b's row of
each part holding, part after part, the next uniforms of
``RandomStream(seeds[b], stream_id)``; the sampler then runs each
transform once over the whole stack, which gives every member the bits of
its own draw, as the transforms are elementwise. The rows come from one
Philox generator re-keyed per member (`_rekey`), not one `RandomStream`
each; `RandomStream.substream_uniform` re-keys the same way per substream,
and its cached generator makes a `RandomStream` unsafe to share between
threads. A stack scaled in place to [low, high), u (high - low) + low,
rounds as RandomStream.uniform's low + (high - low) u, since * and +
commute exactly.

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
    """Standard normals as the inverse CDF of uniforms u, which it consumes:
    u = 0 is nudged in place to the smallest representable uniform so the
    quantile stays finite. Every caller passes a buffer of its own draws."""
    return normal_quantile(np.maximum(u, _TINY_U, out=u))


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


def seeded_draws(seeds, shapes, stream_id: int = 0) -> tuple[np.ndarray, ...]:
    """One (len(seeds),) + shape stack of uniforms on [0, 1) per shape, by
    the draw rule (see the module docstring): row b of the parts, part after
    part, holds ``RandomStream(seeds[b], stream_id).uniform(size=shape)``'s
    successive draws."""
    parts = tuple(np.empty((len(seeds),) + tuple(shape)) for shape in shapes)
    gen = np.random.Generator(np.random.Philox(0))
    for b, seed in enumerate(seeds):
        _rekey(gen, seed, stream_id)
        for part in parts:
            gen.random(out=part[b, ...])
    return parts


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
