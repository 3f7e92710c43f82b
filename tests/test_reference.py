import numpy as np
import pytest

from fblearn import SinusoidSum, sample_reference, two_tone_reference, uniform_bound
from fblearn.errors import DimensionError


class TestDerivatives:
    def test_single_tone_calculus(self):
        ref = SinusoidSum(channels=(((2.0, 3.0, 0.0),),))
        t = 0.37
        assert ref.derivative(0, 0, t) == pytest.approx(2.0 * np.sin(3.0 * t))
        assert ref.derivative(0, 1, t) == pytest.approx(6.0 * np.cos(3.0 * t))
        assert ref.derivative(0, 2, t) == pytest.approx(-18.0 * np.sin(3.0 * t))

    def test_zero_amplitude(self):
        ref = SinusoidSum(channels=(((0.0, 1.0, 0.0),), ((0.0, 2.0, 0.5),)))
        s = sample_reference(ref, (2, 2), 1.23)
        np.testing.assert_array_equal(s.xi_d, np.zeros(4))
        np.testing.assert_array_equal(s.y_dgamma, np.zeros(2))

    def test_against_central_differences(self, two_tone2):
        h = 1e-5
        for t in np.linspace(0.0, 8.0, 9):
            for ch in range(2):
                for order in (1, 2):
                    fd = (two_tone2.derivative(ch, order - 1, t + h)
                          - two_tone2.derivative(ch, order - 1, t - h)) / (2 * h)
                    assert abs(fd - two_tone2.derivative(ch, order, t)) <= 1e-5

    def test_stack_ordering_and_feedforward(self, two_tone2):
        s = sample_reference(two_tone2, (2, 2), 0.9)
        expected = [two_tone2.derivative(0, 0, 0.9), two_tone2.derivative(0, 1, 0.9),
                    two_tone2.derivative(1, 0, 0.9), two_tone2.derivative(1, 1, 0.9)]
        np.testing.assert_allclose(s.xi_d, expected)
        np.testing.assert_allclose(
            s.y_dgamma, [two_tone2.derivative(0, 2, 0.9), two_tone2.derivative(1, 2, 0.9)])

    def test_stack_consistency_along_time(self, two_tone2):
        # d/dt of each stacked entry equals the next entry in its block
        h = 1e-5
        for t in (0.3, 2.7, 5.1):
            a = sample_reference(two_tone2, (2, 2), t - h)
            b = sample_reference(two_tone2, (2, 2), t + h)
            mid = sample_reference(two_tone2, (2, 2), t)
            dstack = (b.xi_d - a.xi_d) / (2 * h)
            assert abs(dstack[0] - mid.xi_d[1]) <= 1e-5
            assert abs(dstack[2] - mid.xi_d[3]) <= 1e-5

    def test_channel_count_checked(self, two_tone2):
        with pytest.raises(DimensionError):
            sample_reference(two_tone2, (2,), 0.0)

    @pytest.mark.parametrize("gamma, times", [
        ((2,), np.linspace(0.0, 7.3, 31)),
        ((2, 2), np.linspace(0.0, 7.3, 31)),
        ((2, 2), np.arange(4801) * 0.05),
    ])
    def test_array_of_times_is_the_per_time_samples(self, gamma, times):
        ref = two_tone_reference(len(gamma))
        bulk = sample_reference(ref, gamma, times)
        assert bulk.xi_d.shape == (len(times), sum(gamma))
        assert bulk.y_dgamma.shape == (len(times), len(gamma))
        np.testing.assert_array_equal(bulk.t, times)
        for k, t in enumerate(times):
            one = sample_reference(ref, gamma, t)
            np.testing.assert_array_equal(bulk.xi_d[k], one.xi_d)
            np.testing.assert_array_equal(bulk.y_dgamma[k], one.y_dgamma)


class TestUniformBound:
    def test_unit_case(self):
        ref = SinusoidSum(channels=(((1.0, 1.0, 0.0),),))
        assert uniform_bound(ref, (2,)) == pytest.approx(1.0)

    def test_empty_terms(self):
        assert uniform_bound(SinusoidSum(channels=((),)), (2,)) == 0.0

    def test_bound_dominates_dense_sampling(self, rng):
        channels = tuple(
            tuple((float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.3, 3.0)),
                   float(rng.uniform(0, np.pi))) for _ in range(3))
            for _ in range(2))
        ref = SinusoidSum(channels=channels)
        gamma = (2, 2)
        bound = uniform_bound(ref, gamma)
        t = np.linspace(0.0, 200.0, 1_000_000)
        for ch in range(2):
            for order in range(gamma[ch] + 1):
                assert np.abs(ref.derivative(ch, order, t)).max() <= bound + 1e-12


class TestRichness:
    def test_incommensurate_tone_gram_is_positive_definite(self, two_tone2):
        # sin/cos components of both tones over a 20 s window
        t = np.linspace(0.0, 20.0, 4001)
        feats = np.stack([np.sin(0.7 * t), np.cos(0.7 * t),
                          np.sin(0.7 * np.sqrt(2) * t), np.cos(0.7 * np.sqrt(2) * t)])
        gram = feats @ feats.T / len(t)
        assert np.linalg.eigvalsh(gram)[0] > 1e-3
