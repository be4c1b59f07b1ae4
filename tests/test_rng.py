import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftspec.rng import RandomStream, seeded_uniforms
from shiftspec.synthgen import random_shift

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


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(_KEY, max_size=6), l=st.integers(1, 4),
       scale=st.floats(1e-3, 1e3))
def test_seeded_uniforms_match_random_shift(seeds, l, scale):
    mats = seeded_uniforms(seeds, -scale, scale, (l, l))
    assert mats.shape == (len(seeds), l, l)
    for mat, seed in zip(mats, seeds):
        assert mat.tobytes() == random_shift(l, scale, seed).tobytes()
