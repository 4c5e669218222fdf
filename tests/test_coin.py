import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexwalk import GROVER_THETA, CoinParams, CoinState, build_coin

GROVER = np.array([
    [-1 / 3, 2 / 3, 2 / 3],
    [2 / 3, -1 / 3, 2 / 3],
    [2 / 3, 2 / 3, -1 / 3],
])

admitted_angles = st.floats(0.05, 2 * math.pi - 0.05).filter(
    lambda t: abs(t - math.pi) > 0.05
)


class TestCoinParams:
    def test_stores_cosine_and_sine(self):
        p = CoinParams(1.0)
        assert p.c == math.cos(1.0)
        assert p.s == math.sin(1.0)

    def test_grover_preset_is_exact(self):
        p = CoinParams.grover()
        assert p.c == -1 / 3
        assert p.s == 2 * math.sqrt(2) / 3
        assert abs(p.c**2 + p.s**2 - 1) < 1e-15

    @pytest.mark.parametrize("theta", [0.0, math.pi, 2 * math.pi, 1e-13, math.pi - 1e-13])
    def test_degenerate_angles_rejected(self, theta):
        with pytest.raises(ValueError):
            CoinParams(theta)

    @pytest.mark.parametrize("kwargs", [
        {"theta": math.nan}, {"theta": math.inf}, {"theta": -math.inf},
    ], ids=["theta-nan", "theta-inf", "theta-minus-inf"])
    def test_non_finite_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CoinParams(**kwargs)

    def test_angle_reduced_modulo_two_pi(self):
        p = CoinParams(2 * math.pi + 0.5)
        assert abs(p.theta - 0.5) < 1e-12

    def test_grover_angle_gives_exact_pair(self):
        # cos(GROVER_THETA) rounds to -0.33333333333333337; the angle itself
        # must select the exact pair, so the preset is no special case.
        p = CoinParams(GROVER_THETA)
        assert p == CoinParams.grover()
        assert p.c == -1 / 3
        assert p.s == 2 * math.sqrt(2) / 3

    def test_cosine_and_sine_are_not_arguments(self):
        with pytest.raises(TypeError):
            CoinParams(1.0, c=0.3)


class TestCoinState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            CoinState(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.nan), math.inf])
    def test_non_finite_amplitude_rejected(self, bad):
        with pytest.raises(ValueError):
            CoinState(bad, 1.0, 0.0)
        with pytest.raises(ValueError):
            CoinState.normalized(bad, 1.0, 0.0)

    @pytest.mark.parametrize("huge", [1e200, complex(1.5e308, 1.5e308)])
    def test_overflowing_norm_rejected(self, huge):
        # |state|^2 overflows to inf: a ValueError, not an OverflowError
        with pytest.raises(ValueError):
            CoinState(huge, 0.0, 0.0)

    def test_normalized_constructor(self):
        s = CoinState.normalized(1, 1, 1)
        assert abs(abs(s.alpha) ** 2 + abs(s.beta) ** 2 + abs(s.gamma) ** 2 - 1) < 1e-15

    def test_uniform(self):
        s = CoinState.uniform()
        assert s.alpha == s.beta == s.gamma
        np.testing.assert_allclose(s.as_array(), np.full(3, 1 / math.sqrt(3)), atol=1e-15)

    def test_complex_amplitudes(self):
        s = CoinState(0.6, 0.0, 0.8j)
        assert s.gamma == 0.8j

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            CoinState.normalized(0, 0, 0)

    @pytest.mark.parametrize("triple, expected", [
        ((1e200, 1.0, 0.0), (1.0, 1e-200, 0.0)),
        ((1e-200, 0.0, 0.0), (1.0, 0.0, 0.0)),
        ((complex(1.5e308, 1.5e308), 0.0, 0.0), ((1 + 1j) / math.sqrt(2), 0.0, 0.0)),
    ], ids=["huge", "tiny", "huge-complex"])
    def test_normalized_at_extremes(self, triple, expected):
        # the squared norm of these finite triples overflows or underflows
        s = CoinState.normalized(*triple)
        for got, want in zip((s.alpha, s.beta, s.gamma), expected):
            assert got == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_normalized_arithmetic_unchanged_on_ordinary_triples(self):
        # these triples skip the power-of-two scaling: the plain formula sets
        # the printed state, so it must be kept bit for bit
        rng = np.random.default_rng(12)
        for _ in range(2000):
            parts = rng.normal(size=6) * 10.0 ** rng.uniform(-140, 140, size=6)
            alpha, beta, gamma = (complex(re, im) for re, im in parts.reshape(3, 2))
            norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2 + abs(gamma) ** 2)
            s = CoinState.normalized(alpha, beta, gamma)
            assert repr((s.alpha, s.beta, s.gamma)) == repr((alpha / norm, beta / norm, gamma / norm))


class TestBuildCoin:
    def test_grover_matrix(self):
        coin = build_coin(CoinParams.grover())
        np.testing.assert_allclose(coin, GROVER, atol=1e-15)

    def test_theta_half_pi_matrix(self):
        coin = build_coin(CoinParams(math.pi / 2))
        r = 1 / math.sqrt(2)
        expected = np.array([[-0.5, r, 0.5], [r, 0.0, r], [0.5, r, -0.5]])
        np.testing.assert_allclose(coin, expected, atol=1e-15)

    def test_symmetric_by_construction(self):
        coin = build_coin(CoinParams(2.3))
        assert np.array_equal(coin, coin.T)

    def test_random_angles_orthogonal_symmetric_involutory(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            theta = rng.uniform(0.01, 2 * math.pi - 0.01)
            if abs(theta - math.pi) < 0.01:
                continue
            m = build_coin(CoinParams(theta))
            np.testing.assert_allclose(m.T @ m, np.eye(3), atol=1e-12)
            assert np.array_equal(m, m.T)
            np.testing.assert_allclose(m @ m, np.eye(3), atol=1e-12)

    def test_entries_read_only(self):
        coin = build_coin(CoinParams.grover())
        assert isinstance(coin, np.ndarray)
        assert (coin.shape, coin.dtype) == ((3, 3), np.float64)
        with pytest.raises(ValueError):
            coin[0, 0] = 0.0


class TestApplyCoin:
    """The coin product `coin @ v` of the build_coin array (there is no separate function)."""

    def test_column_extraction(self, grover_coin):
        out = grover_coin @ np.array([0.0, 1.0, 0.0])
        np.testing.assert_allclose(out, [2 / 3, -1 / 3, 2 / 3], atol=1e-15)

    def test_involution(self, grover_coin):
        rng = np.random.default_rng(3)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v /= np.linalg.norm(v)
        np.testing.assert_allclose(grover_coin @ (grover_coin @ v), v, atol=1e-12)

    def test_uniform_vector_is_grover_fixed_point(self, grover_coin):
        v = np.full(3, 1 / math.sqrt(3))
        np.testing.assert_allclose(grover_coin @ v, v, atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(theta=admitted_angles, seed=st.integers(0, 2**31))
    def test_norm_preserved(self, theta, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v /= np.linalg.norm(v)
        out = build_coin(CoinParams(theta)) @ v
        assert abs(np.linalg.norm(out) - 1.0) < 1e-13
