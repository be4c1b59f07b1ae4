import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shiftspec.analytic import normal_quantile
from shiftspec.rng import (RandomStream, seeded_draws, uniform_to_normal,
                           uniform_to_signs)
from shiftspec.synthgen import random_shift, random_shifts

# A transform that evaluates log or exp outside its region warns; here that
# fails the test.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_same_key_same_draws():
    a = RandomStream(42, 7).uniform(size=1000)
    b = RandomStream(42, 7).uniform(size=1000)
    assert np.array_equal(a, b)


def test_streams_are_order_independent():
    base = RandomStream(5)
    first = base.substream(3).standard_normal(size=100)
    # consuming another stream in between must not disturb stream 3
    base2 = RandomStream(5)
    _ = base2.substream(9).standard_normal(size=1000)
    second = base2.substream(3).standard_normal(size=100)
    assert np.array_equal(first, second)


def test_uniform_range_and_mean():
    u = RandomStream(0).uniform(-2.0, 2.0, size=200_000)
    assert u.min() >= -2.0 and u.max() <= 2.0
    assert abs(u.mean()) < 0.02


def test_standard_normal_moments():
    z = RandomStream(1).standard_normal(size=400_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert np.all(np.isfinite(z))


def test_flat_simplex():
    s = RandomStream(2)
    for m in (2, 3, 6):
        w = s.flat_simplex(m)
        assert w.shape == (m,)
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) < 1e-12


def test_integers_bounds():
    idx = RandomStream(3).integers(17, size=10_000)
    assert idx.min() >= 0 and idx.max() < 17


def test_bernoulli_signs():
    y = RandomStream(4).bernoulli_signs(0.75, size=100_000)
    assert set(np.unique(y)) == {-1.0, 1.0}
    assert abs(np.mean(y == 1.0) - 0.75) < 0.01


def _masked_signs(u, p_plus):
    """uniform_to_signs as it was spelled, a select over the mask u < p."""
    return np.where(u < p_plus, 1.0, -1.0)


@pytest.mark.parametrize("p_plus", [0.0, 1.0, 0.25, 0.5, 2.0 ** -53,
                                    1.0 - 2.0 ** -53])
def test_uniform_to_signs_matches_masked_spelling(p_plus):
    # u == p_plus is -1; p = 0 gives all -1 and p = 1 all +1 on [0, 1)
    u = np.concatenate([RandomStream(9).uniform(size=1000),
                        [0.0, p_plus, np.nextafter(p_plus, 0.0),
                         np.nextafter(p_plus, 1.0), 1.0 - 2.0 ** -53]])
    for shape in (u.shape, (5, 201)):
        signs = uniform_to_signs(u.reshape(shape), p_plus)
        want = _masked_signs(u.reshape(shape), p_plus)
        assert signs.dtype == want.dtype and signs.shape == want.shape
        assert signs.tobytes() == want.tobytes()
    assert uniform_to_signs(np.array([p_plus]), p_plus).tolist() == [-1.0]
    assert uniform_to_signs(np.array(0.3), p_plus).shape == ()


@settings(max_examples=100, deadline=None)
@given(u=st.lists(st.floats(0.0, 1.0, exclude_max=True)), p_plus=st.floats(0.0, 1.0))
def test_uniform_to_signs_matches_masked_spelling_on_any_uniforms(u, p_plus):
    u = np.array(u + [p_plus], dtype=np.float64)
    assert (uniform_to_signs(u, p_plus).tobytes()
            == _masked_signs(u, p_plus).tobytes())


# seeds and stream ids that __init__ has to mask to 64 bits, and small ones
_KEY = st.one_of(st.integers(-2**70, 2**70), st.integers(-8, 8),
                 st.integers(2**64 - 4, 2**64 + 4))
# 0-5 straddle the 4-word Philox output buffer; 1010 is a bootstrap row
_SIZE = st.one_of(st.integers(0, 5), st.just(1010))


@settings(max_examples=60, deadline=None)
@given(seed=_KEY, stream_id=_KEY,
       calls=st.lists(st.tuples(_KEY, _SIZE), min_size=1, max_size=6))
def test_substream_uniform_matches_substream(seed, stream_id, calls):
    stream = RandomStream(seed, stream_id)
    for sid, size in calls:
        want = RandomStream(seed, stream_id).substream(sid).uniform(size=size)
        got = stream.substream_uniform(sid, size)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@settings(max_examples=30, deadline=None)
@given(seed=_KEY, sids=st.lists(_KEY, min_size=1, max_size=4), size=_SIZE)
def test_substream_uniform_leaves_the_parent_stream_alone(seed, sids, size):
    plain, mixed = RandomStream(seed), RandomStream(seed)
    want = [plain.uniform(size=3), plain.standard_normal(size=5),
            plain.uniform(size=7)]
    got = [mixed.uniform(size=3)]
    for sid in sids:
        mixed.substream_uniform(sid, size)
    got.append(mixed.standard_normal(size=5))
    mixed.substream_uniform(sids[0], size)
    got.append(mixed.uniform(size=7))
    assert all(w.tobytes() == g.tobytes() for w, g in zip(want, got))


_SHAPE = st.lists(st.integers(0, 5), max_size=3).map(tuple)


@settings(max_examples=80, deadline=None)
@given(seeds=st.lists(_KEY, max_size=5),
       stream_id=st.one_of(st.sampled_from([0, 1]), _KEY),
       shapes=st.lists(_SHAPE, max_size=4))
@example(seeds=[-1, 2**64 + 7], stream_id=0,
         shapes=[(), (0,), (3, 0, 2), (5,)])
@example(seeds=[-1, 2**64 + 7], stream_id=1, shapes=[(5,), (), (2, 3)])
@example(seeds=[], stream_id=1, shapes=[(2,), ()])
@example(seeds=[4, 4], stream_id=0, shapes=[])
def test_seeded_draws_rows_are_random_stream_draws(seeds, stream_id, shapes):
    # seeds outside [0, 2^64) are masked, as RandomStream does; part sizes
    # 0-5 straddle the 4-word Philox output buffer
    parts = seeded_draws(seeds, shapes, stream_id)
    assert [p.shape for p in parts] == [(len(seeds),) + s for s in shapes]
    for b, seed in enumerate(seeds):
        stream = RandomStream(seed, stream_id)
        for part, shape in zip(parts, shapes):
            want = np.asarray(stream.uniform(size=shape))
            assert part[b].shape == want.shape
            assert part[b].tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(_KEY, max_size=6), l=st.integers(1, 4),
       scale=st.floats(1e-3, 1e3))
def test_seeded_uniforms_match_random_shift(seeds, l, scale):
    # random_shifts, the stacked scaled draw, on seeds that need masking
    mats = random_shifts(l, scale, seeds)
    assert mats.shape == (len(seeds), l, l)
    for mat, seed in zip(mats, seeds):
        assert mat.tobytes() == random_shift(l, scale, seed).tobytes()


def _per_row_seeded_uniforms(seeds, low, high, shape):
    """random_shifts' scaled draw as it was spelled: each row drawn and
    scaled by itself (shape must not be ())."""
    out = np.empty((len(seeds),) + tuple(shape))
    for row, seed in zip(out, seeds):
        u = RandomStream(seed).uniform(size=shape)
        row[...] = low + (high - low) * u
    return out


_RANGES = [(0.0, 1.0), (-2.0, 2.0), (-1e300, 1e300), (1e-300, 3e-300),
           (5e-324, 1e-322), (-3.0, -2.5), (2.5, 2.5), (1.0, -1.0)]


@settings(max_examples=80, deadline=None)
@given(seeds=st.lists(_KEY, max_size=6),
       scale=st.one_of(st.sampled_from([1.0, 2.0, 2.5, 1e300, 1e-300, 1e-322,
                                        5e-324]),
                       st.floats(5e-324, 1e300)),
       l=st.integers(1, 5))
def test_seeded_uniforms_match_per_row_spelling(seeds, scale, l):
    ours = random_shifts(l, scale, seeds)
    want = _per_row_seeded_uniforms(seeds, -scale, scale, (l, l))
    assert ours.shape == want.shape
    assert ours.tobytes() == want.tobytes()


@pytest.mark.parametrize("low, high", _RANGES)
def test_seeded_uniforms_of_scalar_shape(low, high):
    # a () part scaled in place as random_shifts scales its part rounds as
    # RandomStream.uniform, for any range
    (ours,) = seeded_draws([3, 2**64 - 1], [()])
    ours *= high - low
    ours += low
    assert ours.shape == (2,)
    for got, seed in zip(ours, [3, 2**64 - 1]):
        want = RandomStream(seed).uniform(low, high, size=())
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@settings(max_examples=40, deadline=None)
@given(u=st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5])),
                  max_size=30))
def test_uniform_to_normal_clips_its_buffer_in_place(u):
    u = np.array(u, dtype=np.float64)
    clipped = np.maximum(u, 2.0**-53)
    buf = u.copy()
    assert uniform_to_normal(buf).tobytes() == normal_quantile(clipped).tobytes()
    assert buf.tobytes() == clipped.tobytes()
