import hashlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from shiftspec.core import (DomainSpec, LinearShift, MixtureShift, default_spec,
                            psd_cholesky)
from shiftspec.rng import (RandomStream, seeded_generators, uniform_to_normal,
                           uniform_to_signs)
from shiftspec.synthgen import (interpolation_mixture, random_shift,
                                random_shifts, reflection_shift,
                                sample_domain, sample_domains)


class TestSampleDomain:
    def test_class_conditional_means(self):
        data = sample_domain(default_spec(), 1000, seed=0)
        for sign in (1.0, -1.0):
            mean = data.z_c[data.y == sign].mean(axis=0)
            assert np.all(np.abs(mean - sign * np.ones(2)) < 0.15)

    def test_determinism(self):
        a = sample_domain(default_spec(), 5, seed=123)
        b = sample_domain(default_spec(), 5, seed=123)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)

    def test_negated_shift_flips_spurious_mean(self):
        spec = default_spec().with_shift(LinearShift(-np.eye(2)))
        data = sample_domain(spec, 1000, seed=1)
        mean = data.z_e[data.y == 1.0].mean(axis=0)
        assert np.all(np.abs(mean - [-1.0, -1.0]) < 0.15)

    def test_rejects_non_psd(self):
        spec = DomainSpec(k=2, l=2, mu_c=np.ones(2),
                          sigma_c=np.diag([-1.0, 1.0]),
                          mu_e=np.ones(2), sigma_e=np.eye(2))
        with pytest.raises(ValueError, match="sigma_c"):
            sample_domain(spec, 10, seed=0)

    @pytest.mark.parametrize("mu_e, factor, name", [
        (1.0, 1e160, "shifted sigma_e"), (1e200, 1e200, "shifted mu_e")])
    def test_overflowing_shift_names_the_moment(self, mu_e, factor, name):
        spec = DomainSpec(k=2, l=2, mu_c=np.ones(2), sigma_c=np.eye(2),
                          mu_e=np.full(2, mu_e), sigma_e=np.eye(2),
                          shift=LinearShift(np.diag([factor, 1.0])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"{name} is not finite"):
                sample_domain(spec, 10, seed=0)

    def test_shifted_covariance_converges(self):
        m = np.array([[1.5, 0.4], [-0.3, 0.8]])
        spec = default_spec().with_shift(LinearShift(m))
        n = 100_000
        data = sample_domain(spec, n, seed=5)
        target = m @ np.eye(2) @ m.T
        centered = data.z_e - data.y[:, None] * (m @ np.ones(2))
        emp = centered.T @ centered / n
        dist = np.linalg.norm(emp - target)
        assert dist < 10.0 * np.linalg.norm(target) / np.sqrt(n)

    @pytest.mark.parametrize("seed, x_digest, y_digest", [
        (0, "9fa01ae86de90c0287393bda506c51324196284a40ed70f323145bcf5062eb8f",
         "97ce902801f0fa09ea29381f26c1067f2c2967ae10ac1bf9efe2e89ae3d39017"),
        (1, "1742ce907df343a5f4ea818e35a9cff7bbb82741b7be0c9379fca0ff0b739fe2",
         "a17f1c394de0fd9fe23f85a3eff7dba44cde145e78bc9b6fb53724a1484f2285"),
        (2, "3e346826ff551d3c36809110136c1150b4e9e7dedcdf6b7e86feee265a9f6c47",
         "a3ba23120bacc27ac5171a60d70f7ad6e0687412e4ef443a3eece83cbc6be500"),
    ])
    def test_bytes_pinned(self, seed, x_digest, y_digest):
        data = sample_domain(default_spec(), 10_000, seed)
        assert hashlib.sha256(data.x.tobytes()).hexdigest() == x_digest
        assert hashlib.sha256(data.y.tobytes()).hexdigest() == y_digest

    def test_single_component_mixture_matches_linear(self):
        m = np.array([[0.7, 0.2], [0.1, -1.1]])
        n = 10_000
        spec_lin = default_spec().with_shift(LinearShift(m))
        spec_mix = default_spec().with_shift(MixtureShift(((1.0, m),)))
        a = sample_domain(spec_lin, n, seed=10)
        b = sample_domain(spec_mix, n, seed=11)
        w = np.array([0.6, -1.3])
        ks = stats.ks_2samp(a.z_e @ w, b.z_e @ w)
        critical_1pct = 1.63 * np.sqrt(2.0 / n)
        assert ks.statistic < critical_1pct


def _id_shift(l: int, components: int):
    """Identity (0 components), linear (1) or a 2-3 component mixture ID
    shift on l spurious dimensions, fixed by (l, components)."""
    if components == 0:
        return default_spec(2, l).shift
    rng = np.random.default_rng([l, components])
    mats = rng.uniform(-2.0, 2.0, (components, l, l))
    if components == 1:
        return LinearShift(mats[0])
    weights = rng.dirichlet(np.ones(components))
    weights[-1] = 1.0 - weights[:-1].sum()
    return MixtureShift(tuple(zip(weights.tolist(), mats)))


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(st.integers(-2**70, 2**70), min_size=1, max_size=4),
       n=st.integers(1, 40), k=st.integers(1, 3), l=st.integers(1, 3),
       components=st.integers(0, 3))
@example(seeds=[-1, 2**64 - 1, 2**64, 2**64 + 7], n=9, k=2, l=2, components=2)
def test_sample_domains_member_is_sample_domain(seeds, n, k, l, components):
    # seeds outside [0, 2^64) are masked to 64 bits, as RandomStream does
    spec = default_spec(k, l).with_shift(_id_shift(l, components))
    x, y = sample_domains(spec, n, seeds)
    assert x.shape == (len(seeds), n, k + l) and y.shape == (len(seeds), n)
    for b, seed in enumerate(seeds):
        data = sample_domain(spec, n, seed)
        assert x[b].tobytes() == data.x.tobytes()
        assert y[b].tobytes() == data.y.tobytes()


def _strided_sample_domains(spec, n, seeds):
    """sample_domains as it was spelled: labels by a select over u < prior,
    and each block written as y mean + noise into its strided columns."""
    chol_c = psd_cholesky(spec.sigma_c, "sigma_c")
    matrices = spec.shift.matrices(spec.l)
    means = [m @ spec.mu_e for m in matrices]
    chols = [psd_cholesky(m @ spec.sigma_e @ m.T, "shifted sigma_e")
             for m in matrices]
    cum = np.cumsum(spec.shift.weights())
    k, l = spec.k, spec.l
    mixture = len(matrices) > 1
    x = np.empty((len(seeds), n, k + l))
    y = np.empty((len(seeds), n))
    for xb, yb, gen in zip(x, y, seeded_generators(seeds)):
        yb[...] = np.where(gen.random(size=n) < spec.label_prior, 1.0, -1.0)
        np.add(yb[:, None] * spec.mu_c,
               uniform_to_normal(gen.random(size=(n, k))) @ chol_c.T,
               out=xb[:, :k])
        if mixture:
            comp = np.minimum(np.searchsorted(cum, gen.random(size=n),
                                              side="right"),
                              len(matrices) - 1)
        noise = uniform_to_normal(gen.random(size=(n, l)))
        z_e = xb[:, k:]
        for j in range(len(matrices)):
            rows = comp == j if mixture else slice(None)
            z_e[rows] = (yb[rows, None] * means[j]
                         + noise[rows] @ chols[j].T)
    return x, y


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3),
       n=st.one_of(st.integers(1, 40), st.just(3000)), k=st.integers(1, 3),
       l=st.integers(1, 3), components=st.integers(0, 3),
       prior=st.sampled_from([0.5, 0.3, 0.9]))
@example(seeds=[3, 2**64 - 1], n=3000, k=2, l=2, components=1, prior=0.5)
@example(seeds=[3, 2**64 - 1], n=3000, k=2, l=2, components=3, prior=0.5)
def test_sample_domains_matches_strided_spelling(seeds, n, k, l, components,
                                                 prior):
    # linear (0-1 components) and mixture (2-3) ID shifts
    spec = replace(default_spec(k, l).with_shift(_id_shift(l, components)),
                   label_prior=prior)
    x, y = sample_domains(spec, n, seeds)
    want_x, want_y = _strided_sample_domains(spec, n, seeds)
    assert x.tobytes() == want_x.tobytes()
    assert y.tobytes() == want_y.tobytes()


def _per_member_sample_domains(spec, n, seeds):
    """sample_domains as it was spelled before it drew the whole stack first:
    each member drawn part by part and transformed straight into its row."""
    chol_c = psd_cholesky(spec.sigma_c, "sigma_c")
    matrices = spec.shift.matrices(spec.l)
    chols = [psd_cholesky(m @ spec.sigma_e @ m.T, "shifted sigma_e")
             for m in matrices]
    cum = np.cumsum(spec.shift.weights())
    means = np.hstack([np.tile(spec.mu_c, (len(matrices), 1)),
                       [m @ spec.mu_e for m in matrices]])
    signed_means = np.stack([-means, means], axis=1).reshape(2 * len(means), -1)
    k, l = spec.k, spec.l
    mixture = len(matrices) > 1
    x = np.empty((len(seeds), n, k + l))
    y = np.empty((len(seeds), n))
    for xb, yb, gen in zip(x, y, seeded_generators(seeds)):
        yb[...] = uniform_to_signs(gen.random(size=n), spec.label_prior)
        noise_c = uniform_to_normal(gen.random(size=(n, k))) @ chol_c.T
        if mixture:
            comp = np.minimum(np.searchsorted(cum, gen.random(size=n),
                                              side="right"),
                              len(matrices) - 1)
        noise_e = uniform_to_normal(gen.random(size=(n, l)))
        mean_row = (yb > 0.0).astype(np.intp)
        if mixture:
            for j in range(len(matrices)):
                rows = np.flatnonzero(comp == j)
                noise_e[rows] = noise_e[rows] @ chols[j].T
            mean_row += 2 * comp
        else:
            noise_e = noise_e @ chols[0].T
        np.concatenate((noise_c, noise_e), axis=1, out=xb)
        xb += signed_means.take(mean_row, axis=0)
    return x, y


@settings(max_examples=80, deadline=None)
@given(seeds=st.lists(st.integers(-2**70, 2**70), max_size=4),
       n=st.one_of(st.integers(1, 40), st.just(2500)), k=st.integers(1, 3),
       l=st.integers(1, 3), components=st.integers(0, 3),
       prior=st.sampled_from([0.5, 0.3, 0.9]))
@example(seeds=[-1, 2**64 + 7], n=1, k=1, l=2, components=2, prior=0.5)
@example(seeds=[0, 0], n=1, k=1, l=2, components=2, prior=0.5)
@example(seeds=[-1, 2**64 + 7, 5], n=3000, k=2, l=2, components=0, prior=0.5)
@example(seeds=[7] * 9, n=1000, k=2, l=2, components=3, prior=0.5)
def test_sample_domains_matches_per_member_spelling(seeds, n, k, l, components,
                                                    prior):
    # identity (0 components), linear (1) and mixture (2-3) ID shifts; seeds
    # outside [0, 2^64) are masked; the stacks of the n = 1000 and
    # n = 3000 examples span several quantile blocks
    spec = replace(default_spec(k, l).with_shift(_id_shift(l, components)),
                   label_prior=prior)
    x, y = sample_domains(spec, n, seeds)
    want_x, want_y = _per_member_sample_domains(spec, n, seeds)
    assert x.shape == want_x.shape and y.shape == want_y.shape
    assert x.tobytes() == want_x.tobytes()
    assert y.tobytes() == want_y.tobytes()


class TestRandomShift:
    def test_entries_in_range(self):
        m = random_shift(2, 2.0, seed=0)
        assert m.shape == (2, 2)
        assert np.all(np.abs(m) <= 2.0)

    def test_determinism(self):
        assert np.array_equal(random_shift(3, 1.5, seed=9),
                              random_shift(3, 1.5, seed=9))

    def test_mean_zero(self):
        draws = np.array([random_shift(1, 1.0, seed=s)[0, 0]
                          for s in range(10_000)])
        assert abs(draws.mean()) < 0.02

    def test_preconditions(self):
        with pytest.raises(ValueError):
            random_shift(0, 1.0, seed=0)
        with pytest.raises(ValueError):
            random_shift(2, 0.0, seed=0)

    @pytest.mark.parametrize("scale", [math.inf, math.nan])
    def test_rejects_non_finite_scale(self, scale):
        with pytest.raises(ValueError, match="finite"):
            random_shift(2, scale, seed=0)


@settings(max_examples=40, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**63 - 1), max_size=6),
       l=st.integers(1, 4), scale=st.floats(1e-3, 1e3))
def test_random_shifts_rows_are_random_shift_draws(seeds, l, scale):
    mats = random_shifts(l, scale, seeds)
    assert mats.shape == (len(seeds), l, l)
    for mat, seed in zip(mats, seeds):
        assert mat.tobytes() == random_shift(l, scale, seed).tobytes()
        want = RandomStream(seed).uniform(-scale, scale, size=(l, l))
        assert mat.tobytes() == want.tobytes()


@pytest.mark.parametrize("l, scale, message", [
    (0, 1.0, "dimension"), (2, 0.0, "scale"), (2, -1.0, "scale"),
    (2, math.inf, "scale"), (2, math.nan, "scale"),
])
def test_random_shifts_rejects_bad_input(l, scale, message):
    with pytest.raises(ValueError, match=message):
        random_shifts(l, scale, [0, 1])


class TestInterpolationMixture:
    def test_needs_two_components(self):
        with pytest.raises(ValueError, match="at least 2"):
            interpolation_mixture([np.eye(2)], seed=0)

    def test_weights_form_simplex(self):
        mats = [random_shift(2, 2.0, seed=s) for s in range(4)]
        mix = interpolation_mixture(mats, seed=3)
        w = mix.weights()
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) < 1e-12

    def test_two_component_weight_mean(self):
        mats = [np.eye(2), -np.eye(2)]
        first = np.array([interpolation_mixture(mats, seed=s).weights()[0]
                          for s in range(10_000)])
        assert abs(first.mean() - 0.5) < 0.02

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            interpolation_mixture([np.eye(2), np.eye(3)], seed=0)


class TestReflectionShift:
    def test_axis_reflection(self):
        m = reflection_shift(np.array([1.0, 0.0]), alpha=1.0)
        assert np.allclose(m, [[-1.0, 0.0], [0.0, 1.0]], atol=1e-15)

    def test_involution(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            w = rng.standard_normal(3)
            m = reflection_shift(w, alpha=1.0)
            assert np.allclose(m @ m, np.eye(3), atol=1e-12)

    def test_reverses_projection(self):
        w = np.array([1.0, 1.0])
        mu = np.array([1.0, 1.0])
        m = reflection_shift(w, alpha=2.0)
        assert w @ (m @ mu) == pytest.approx(-4.0, abs=1e-12)

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            reflection_shift(np.zeros(2), alpha=1.0)

