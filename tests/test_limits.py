import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hexwalk.limits
from hexwalk import (
    CoinParams,
    CoinState,
    QuadratureError,
    Site,
    a_theta,
    asymptotic_amplitude,
    asymptotic_origin_amplitude,
    build_coin,
    delocalization_condition,
    delta_weight,
    evolve,
    limit_return_probability,
    step,
)

from conftest import random_state, random_theta
from oracles import (
    flat_band_vectors,
    g_difference_mp,
    g_difference_oracle_table,
    g_difference_quad,
)

BETA_STATE = CoinState(0.0, 1.0, 0.0)
SHIFTS = [(1, -1), (-1, 1), (1, 1), (-1, -1), (0, 2), (0, -2)]


def stratified_thetas(k: int, margin: float = 0.05) -> list[float]:
    """Midpoints of ``k`` equal strata of the angles at least ``margin`` from 0 and pi."""
    half = math.pi - 2.0 * margin
    out = []
    for i in range(k):
        pos = (i + 0.5) * 2.0 * half / k
        out.append(margin + pos if pos < half else math.pi + margin + pos - half)
    return out


def g_table(x: int, y: int, x1: int, y1: int, params: CoinParams) -> float:
    """G(x, y, x1, y1) as the one row of a library ``_differences`` table."""
    return float(hexwalk.limits._differences(np.array([[x, y, x1, y1]]), params)[0])


def delocalizing_state(params: CoinParams, phase: complex = 1.0) -> CoinState:
    alpha = math.sqrt(1.0 - params.c) / 2.0 * phase
    beta = math.sqrt(2.0) * (1.0 + params.c) / params.s * alpha
    return CoinState(alpha, beta, alpha)


class TestATheta:
    def test_grover_value(self, grover_params):
        assert abs(a_theta(grover_params) - math.pi / 6) < 1e-14

    def test_half_pi_value(self):
        assert abs(a_theta(CoinParams(math.pi / 2)) - math.asin(1 / 3)) < 1e-14

    def test_argument_always_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            params = CoinParams(random_theta(rng))
            u = (1 - params.c) / (3 + params.c)
            assert 0.0 < u < 1.0
            assert 0.0 < a_theta(params) < math.pi / 2

    def test_derivative_matches_finite_difference(self):
        # d/dtheta arcsin((1-c)/(3+c)) = 4 s / ((3+c)^2 sqrt(1 - u^2))
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(100):
            theta = random_theta(rng, margin=0.1)
            c, s = math.cos(theta), math.sin(theta)
            u = (1 - c) / (3 + c)
            analytic = 4 * s / ((3 + c) ** 2 * math.sqrt(1 - u * u))
            fd = (
                a_theta(CoinParams(theta + h)) - a_theta(CoinParams(theta - h))
            ) / (2 * h)
            assert abs(fd - analytic) < 1e-6


class TestOriginLimit:
    def test_grover_beta_probability(self, grover_params):
        value = limit_return_probability(grover_params, BETA_STATE)
        assert abs(value - 1 / 6) < 1e-12

    def test_grover_uniform_delocalizes(self, grover_params):
        assert limit_return_probability(grover_params, CoinState.uniform()) < 1e-12

    def test_grover_beta_amplitude(self, grover_params):
        amp = asymptotic_origin_amplitude(grover_params, BETA_STATE)
        np.testing.assert_allclose(amp.as_array(), [-1 / 6, 1 / 3, -1 / 6], atol=1e-13)

    def test_delocalizing_amplitude_vanishes(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            params = CoinParams(random_theta(rng))
            amp = asymptotic_origin_amplitude(params, delocalizing_state(params))
            assert amp.norm_squared() < 1e-24

    def test_swap_symmetry(self):
        rng = np.random.default_rng(4)
        params = CoinParams(random_theta(rng))
        state = random_state(rng)
        swapped = CoinState(state.gamma, state.beta, state.alpha)
        amp = asymptotic_origin_amplitude(params, state).as_array()
        amp_swapped = asymptotic_origin_amplitude(params, swapped).as_array()
        np.testing.assert_allclose(amp_swapped, amp[::-1], atol=1e-14)

    @pytest.mark.parametrize("theta", [math.acos(-1 / 3), 0.4, 1.0, 2.5, 3.8, 5.0])
    def test_no_negative_zero_for_real_basis_states(self, theta):
        params = CoinParams(theta)
        for basis in np.eye(3):
            amp = asymptotic_origin_amplitude(params, CoinState(*basis)).as_array()
            parts = amp.view(np.float64)
            assert not np.any(np.signbit(parts) & (parts == 0.0)), amp

    def test_probability_is_squared_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            params = CoinParams(random_theta(rng))
            state = random_state(rng)
            p = limit_return_probability(params, state)
            n2 = asymptotic_origin_amplitude(params, state).norm_squared()
            assert 0.0 <= p <= 1.0
            assert abs(p - n2) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(phi=st.floats(0, 2 * math.pi), seed=st.integers(0, 2**31))
    def test_global_phase_invariance(self, phi, seed):
        rng = np.random.default_rng(seed)
        params = CoinParams(random_theta(rng))
        state = random_state(rng)
        z = complex(math.cos(phi), math.sin(phi))
        rotated = CoinState(z * state.alpha, z * state.beta, z * state.gamma)
        assert abs(
            limit_return_probability(params, state)
            - limit_return_probability(params, rotated)
        ) < 1e-12
        assert abs(delta_weight(params, state) - delta_weight(params, rotated)) < 1e-12


class TestGDifference:
    def test_zero_shift(self, grover_params):
        assert g_table(4, -2, 0, 0, grover_params) == 0.0

    def test_antisymmetry(self, grover_params):
        lhs = g_table(2, 1, 1, -1, grover_params)
        rhs = -g_table(1, 2, -1, 1, grover_params)
        assert abs(lhs - rhs) < 1e-9

    def test_closed_form_anchor_identities(self):
        # cross-referencing the origin limit against the Green-integral route
        # pins two exact values:
        #   G(0,0,0,2) = 4 A / (pi (1-c)^2)
        #   G(0,0,1,1) = (1/2 - A/pi) / s^2
        for theta in (CoinParams.grover().theta, 0.9, 2.5, 4.1):
            params = CoinParams(theta)
            big_a = a_theta(params)
            expected_vertical = 4 * big_a / (math.pi * (1 - params.c) ** 2)
            expected_diagonal = (0.5 - big_a / math.pi) / params.s**2
            assert abs(g_table(0, 0, 0, 2, params) - expected_vertical) < 1e-9
            assert abs(g_table(0, 0, 1, 1, params) - expected_diagonal) < 1e-9

    def test_against_grid_oracle(self, grover_params):
        cases = [(0, 0, 1, -1), (2, 0, 1, -1), (1, 3, -1, 1), (3, 3, 1, 1)]
        oracle = g_difference_oracle_table(cases, grover_params.c, grover_params.s, 4096)
        for case in cases:
            assert abs(g_table(*case, grover_params) - oracle[case]) < 1e-6

    @pytest.mark.parametrize("theta", stratified_thetas(12), ids="{:.3f}".format)
    def test_table_matches_quad_oracle(self, theta):
        params = CoinParams(theta)
        rows = [(x, y, *shift) for x in range(-3, 4) for y in range(-3, 4)
                if (x + y) % 2 == 0 for shift in SHIFTS]
        table = hexwalk.limits._differences(np.array(rows), params)
        oracle = np.array([g_difference_quad(*row, params.c, params.s) for row in rows])
        assert np.all(np.abs(table - oracle) <= 1e-12 + 1e-10 * np.abs(oracle))

    @pytest.mark.parametrize("theta", stratified_thetas(3), ids="{:.3f}".format)
    def test_powers_past_map_box(self, theta):
        # maps reach |x| <= 6; these sites take z to powers up to 13
        params = CoinParams(theta)
        for x, y in [(12, 0), (-12, 2), (11, 1), (-10, -2), (9, -3), (8, 4)]:
            for shift in SHIFTS:
                value = g_table(x, y, *shift, params)
                oracle = g_difference_quad(x, y, *shift, params.c, params.s)
                assert abs(value - oracle) <= 1e-12 + 1e-10 * abs(oracle)

    @pytest.mark.parametrize("theta, case", [
        (0.3, (3, 1, 1, -1)),
        (1.0, (5, -7, 1, 1)),
        (math.acos(-1 / 3), (2, 4, -1, -1)),
        (2.9, (0, 3, 1, -1)),
        (4.0, (-4, 6, 0, -2)),
        (5.9, (1, 1, -1, -1)),
    ])
    def test_matches_mpmath(self, theta, case):
        params = CoinParams(theta)
        reference = g_difference_mp(*case, params.c, params.s)
        assert abs(g_table(*case, params) - reference) < 1e-13

    def test_near_degenerate_angle_right_or_raises(self):
        # The boundary layer at b ~ |s| is 1e-4 wide here, and adaptive quad
        # missed it (it returned -2.7e-13).  Reference: mpmath at 30 digits
        # with breakpoints at |s| and 10|s| from both endpoints.
        try:
            value = g_table(5, 7, 1, 1, CoinParams(math.pi - 1e-4))
        except QuadratureError:
            return
        assert abs(value / -353.6776525197882 - 1.0) < 1e-9

    def test_node_budget_enforced(self, grover_params, monkeypatch):
        # the budget admits only the starting rule for |y| = 24, so the
        # n-vs-2n certificate cannot be formed
        monkeypatch.setattr(hexwalk.limits, "_MAX_NODES", 8 * 24 + 32)
        with pytest.raises(QuadratureError):
            g_table(0, 24, 0, 2, grover_params)


class TestAsymptoticAmplitude:
    def test_origin_matches_closed_form(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            params = CoinParams(random_theta(rng))
            state = random_state(rng)
            via_integrals = asymptotic_amplitude(0, 0, params, state)
            closed = asymptotic_origin_amplitude(params, state).as_array()
            np.testing.assert_allclose(via_integrals, closed, atol=1e-8)

    def test_delocalizing_state_zero_at_origin(self, grover_params):
        amp = asymptotic_amplitude(0, 0, grover_params, CoinState.uniform())
        np.testing.assert_allclose(amp, np.zeros(3), atol=1e-10)

    def test_reflection_symmetry_for_middle_state(self, grover_params):
        # beta-only start is symmetric under y -> -y with coin 0 <-> 2
        up = asymptotic_amplitude(1, 1, grover_params, BETA_STATE)
        down = asymptotic_amplitude(1, -1, grover_params, BETA_STATE)
        np.testing.assert_allclose(up, down[::-1], atol=1e-10)

    def test_kernel_cache_holds_a_repeated_map(self):
        # a second identical pass over more (coin, nodes) entries than a
        # small cache holds recomputes no kernel
        coins = [CoinParams(0.5 + 0.25 * k) for k in range(10)]
        hexwalk.limits._kernel.cache_clear()
        first = [asymptotic_amplitude(1, 1, params, BETA_STATE) for params in coins]
        misses = hexwalk.limits._kernel.cache_info().misses
        assert misses > 16
        second = [asymptotic_amplitude(1, 1, params, BETA_STATE) for params in coins]
        assert hexwalk.limits._kernel.cache_info().misses == misses
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize(
        "theta, state",
        [
            (math.acos(-1 / 3), BETA_STATE),
            (1.0, CoinState(0.6, 0.0, 0.8)),
            (4.0, CoinState(0.48 + 0.6j, 0.64, 0.0)),
        ],
    )
    def test_stepper_time_average_off_origin(self, theta, state):
        # independent route: the exact walk averaged over its last 50 even
        # times up to T = 200 settles on the flat-band projection
        params = CoinParams(theta)
        coin = build_coin(params)
        sites = [(2, 0), (1, 1), (0, 2), (-1, -1)]
        wf = evolve(state, 0, coin)
        total = np.zeros((len(sites), 3), dtype=complex)
        for t in range(1, 201):
            wf = step(wf, coin)
            if t % 2 == 0 and t > 100:
                total += [wf.amplitude(Site.a(x, y)) for x, y in sites]
        limit = [asymptotic_amplitude(x, y, params, state) for x, y in sites]
        np.testing.assert_allclose(total / 50, limit, rtol=0, atol=5e-4)

    @pytest.mark.parametrize("theta, state", [
        (math.acos(-1 / 3), BETA_STATE),
        (1.0, CoinState(0.6, 0.0, 0.8)),
    ])
    def test_total_weight_approaches_delta(self, theta, state):
        # the flat-band weight outside the box |x|, |y| <= R falls like 1/R^2
        params = CoinParams(theta)
        deficits = []
        for radius in (7, 14):
            amps = [asymptotic_amplitude(x, y, params, state)
                    for x in range(-radius, radius + 1)
                    for y in range(-radius, radius + 1) if (x + y) % 2 == 0]
            weight = float(np.sum(np.abs(np.array(amps)) ** 2))
            deficits.append(delta_weight(params, state) - weight)
        assert deficits[0] > 0 and deficits[1] > 0
        assert deficits[0] >= 3.5 * deficits[1]
        assert deficits[1] < 6e-4


class TestDelocalization:
    def test_grover_uniform_is_delocalizing(self, grover_params):
        assert delocalization_condition(grover_params, CoinState.uniform())

    def test_grover_beta_is_not(self, grover_params):
        assert not delocalization_condition(grover_params, BETA_STATE)

    def test_condition_implies_zero_limit(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            params = CoinParams(random_theta(rng))
            state = delocalizing_state(params)
            assert delocalization_condition(params, state)
            assert limit_return_probability(params, state) < 1e-12

    def test_signed_beta_formula_for_negative_s(self):
        params = CoinParams(4.5)  # s < 0 here
        assert params.s < 0
        state = delocalizing_state(params)
        assert delocalization_condition(params, state)
        assert limit_return_probability(params, state) < 1e-12

    def test_complex_phase_family(self, grover_params):
        state = delocalizing_state(grover_params, phase=complex(0.6, 0.8))
        assert delocalization_condition(grover_params, state)


class TestDeltaWeight:
    def test_grover_beta(self, grover_params):
        assert abs(delta_weight(grover_params, BETA_STATE) - 1 / 3) < 1e-12

    def test_delocalizing_state(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            params = CoinParams(random_theta(rng))
            assert abs(delta_weight(params, delocalizing_state(params))) < 1e-12

    def test_bounds_and_domination(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            params = CoinParams(random_theta(rng))
            state = random_state(rng)
            delta = delta_weight(params, state)
            assert -1e-12 <= delta <= 1.0 + 1e-12
            assert delta >= limit_return_probability(params, state) - 1e-12


class TestFlatBandProjection:
    """The origin laws against the zone mean of the flat-band projector of U2."""

    @pytest.mark.parametrize("theta", [0.5, 1.3, 2.2, 4.0, 5.5])
    def test_origin_laws_match_projector_mean(self, theta):
        params = CoinParams(theta)
        state = random_state(np.random.default_rng(int(10 * theta)))
        v = flat_band_vectors(build_coin(params), 256)
        overlap = v.conj() @ state.as_array()
        projected = (v * overlap[:, None]).mean(axis=0)
        closed = asymptotic_origin_amplitude(params, state).as_array()
        np.testing.assert_allclose(projected, closed, rtol=0, atol=5e-5)
        assert abs(np.mean(np.abs(overlap) ** 2) - delta_weight(params, state)) < 5e-5
