import numpy as np
import pytest

from shiftspec.core import (Dataset, DomainSpec, LinearClassifier, Mask,
                            MixtureShift, default_spec, validate_spec)


class TestValidateSpec:
    def test_defaults_are_legal(self):
        assert validate_spec(default_spec()) == []

    def test_negative_eigenvalue_covariance(self):
        spec = DomainSpec(k=2, l=2, mu_c=np.ones(2),
                          sigma_c=np.diag([-1.0, 1.0]),
                          mu_e=np.ones(2), sigma_e=np.eye(2))
        report = validate_spec(spec)
        assert any("covariance not PSD" in p for p in report)

    def test_mixture_weights_must_sum_to_one(self):
        shift = MixtureShift(components=((0.6, np.eye(2)), (0.6, -np.eye(2))))
        spec = default_spec().with_shift(shift)
        report = validate_spec(spec)
        assert any("weights sum ≠ 1" in p for p in report)

    def test_bad_prior(self):
        spec = DomainSpec(k=1, l=1, mu_c=np.ones(1), sigma_c=np.eye(1),
                          mu_e=np.ones(1), sigma_e=np.eye(1), label_prior=1.0)
        assert any("label_prior" in p for p in validate_spec(spec))


class TestDataset:
    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="-1 or \\+1"):
            Dataset(x=np.zeros((2, 2)), y=np.array([0.0, 1.0]), k=1, l=1)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError, match="columns"):
            Dataset(x=np.zeros((2, 3)), y=np.array([1.0, -1.0]), k=1, l=1)

    def test_blocks(self):
        x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        d = Dataset(x=x, y=np.array([1.0, -1.0]), k=2, l=1)
        assert np.array_equal(d.z_c, x[:, :2])
        assert np.array_equal(d.z_e, x[:, 2:])


class TestLinearClassifier:
    def test_domain_general_must_zero_spurious(self):
        with pytest.raises(ValueError):
            LinearClassifier(w_c=np.ones(2), w_e=np.array([0.1, 0.0]),
                             trained_on=Mask.DOMAIN_GENERAL)

    def test_domain_general_ignores_spurious_block(self):
        model = LinearClassifier(w_c=np.array([1.0, -0.5]), w_e=np.zeros(2),
                                 trained_on=Mask.DOMAIN_GENERAL)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 4))
        baseline = model.score(x)
        for _ in range(20):
            mutated = x.copy()
            mutated[:, 2:] = rng.standard_normal((50, 2)) * 100.0
            assert np.array_equal(model.score(mutated), baseline)

    def test_arrays_are_frozen(self):
        model = LinearClassifier(w_c=np.ones(2), w_e=np.ones(2),
                                 trained_on=Mask.FULL)
        with pytest.raises(ValueError):
            model.w_c[0] = 5.0
