import math

import numpy as np
import pytest

import hexwalk.evolution
from hexwalk import (
    CoinParams,
    CoinState,
    Distribution,
    Site,
    WaveFunction,
    build_coin,
    distribution,
    evolve,
    initial_wavefunction,
    origin_amplitudes,
    return_series,
    step,
)

from conftest import random_state, random_theta, rows
from oracles import graph_distances, reference_evolve, shift_target, support_parity_ok

BETA_STATE = CoinState(0.0, 1.0, 0.0)


class TestInitialWaveFunction:
    def test_basis_state(self):
        wf = initial_wavefunction(CoinState(1, 0, 0))
        assert wf.t == 0
        assert wf.sublattice == "A"
        assert len(wf) == 1
        np.testing.assert_allclose(wf.amplitude(Site.a(0, 0)), [1, 0, 0])
        assert abs(wf.norm_squared() - 1) < 1e-15

    def test_uniform_state(self):
        wf = initial_wavefunction(CoinState.uniform())
        np.testing.assert_allclose(
            rows(wf)[Site.a(0, 0)], np.full(3, 1 / math.sqrt(3)), atol=1e-15
        )

    def test_middle_state(self):
        wf = initial_wavefunction(BETA_STATE)
        np.testing.assert_allclose(wf.amplitude(Site.a(0, 0)), [0, 1, 0])


class TestStep:
    def test_one_step_hand_values(self, grover_coin):
        wf = step(initial_wavefunction(BETA_STATE), grover_coin)
        assert wf.t == 1
        assert wf.sublattice == "B"
        assert len(wf) == 3
        np.testing.assert_allclose(wf.amplitude(Site.b(0, 1)), [2 / 3, 0, 0], atol=1e-15)
        np.testing.assert_allclose(wf.amplitude(Site.b(-1, 0)), [0, -1 / 3, 0], atol=1e-15)
        np.testing.assert_allclose(wf.amplitude(Site.b(0, -1)), [0, 0, 2 / 3], atol=1e-15)

    def test_two_step_origin_formula(self):
        # after two steps the origin amplitude is (-(1+c)/2 a', c b', -(1+c)/2 g')
        # where (a', b', g') is the coined initial state
        rng = np.random.default_rng(11)
        for _ in range(5):
            params = CoinParams(random_theta(rng))
            coin = build_coin(params)
            state = random_state(rng)
            mixed = coin @ state.as_array()
            expected = np.array([
                -(1 + params.c) / 2 * mixed[0],
                params.c * mixed[1],
                -(1 + params.c) / 2 * mixed[2],
            ])
            wf = evolve(state, 2, coin)
            np.testing.assert_allclose(wf.amplitude(Site.a(0, 0)), expected, atol=1e-13)

    def test_norm_preserved_100_steps(self, grover_coin):
        wf = evolve(CoinState.uniform(), 100, grover_coin)
        assert abs(wf.norm_squared() - 1.0) < 1e-10

    def test_matches_reference_stepper(self, grover_coin):
        # every lookup in a box past the light cone, on both sublattices and
        # in both site tables: sites the reference lacks (missing x, missing
        # y, wrong sublattice, just outside the merge window) read as exact zeros
        rng = np.random.default_rng(5)
        for _ in range(3):
            params = CoinParams(random_theta(rng))
            coin = build_coin(params)
            state = random_state(rng)
            wf = initial_wavefunction(state)
            for t in range(10):
                if t:
                    wf = step(wf, coin)
                ref = reference_evolve(state.as_array(), t, coin)
                assert set(rows(wf)) == set(ref)
                nx, ny = t // 2 + 2, t + 2
                box = [
                    Site(sub, x, y)
                    for sub in ("A", "B")
                    for x in range(-nx, nx + 1)
                    for y in range(-ny, ny + 1)
                ]
                assert set(ref) <= set(box)
                dist = distribution(wf)
                for site in box:
                    if site in ref:
                        np.testing.assert_allclose(wf.amplitude(site), ref[site], atol=1e-12)
                        expected = float(np.sum(np.abs(ref[site]) ** 2))
                        assert abs(dist.probability(site) - expected) <= 1e-12
                    else:
                        np.testing.assert_array_equal(wf.amplitude(site), np.zeros(3))
                        assert dist.probability(site) == 0.0

    @pytest.mark.parametrize("x, y", [(0, 3_000_000), (-5, -2_097_152), (10**6, -2_097_153)])
    def test_far_sites_step_to_their_neighbours(self, grover_coin, x, y):
        # |y| at and past 2**21 must step like any other site
        values = np.array([1.0, 0.5j, -0.25])
        wf = step(WaveFunction("A", [[x, y]], [values], 0), grover_coin)
        targets = [shift_target(Site.a(x, y), j) for j in range(3)]
        assert list(rows(wf)) == sorted(targets)
        mixed = grover_coin @ values
        for j, site in enumerate(targets):
            expected = np.zeros(3, dtype=complex)
            expected[j] = mixed[j]
            np.testing.assert_allclose(wf.amplitude(site), expected, rtol=0, atol=1e-15)

    def test_bit_reproducible(self, grover_coin):
        a = evolve(CoinState.uniform(), 40, grover_coin)
        b = evolve(CoinState.uniform(), 40, grover_coin)
        assert np.array_equal(a.xy, b.xy)
        assert np.array_equal(a.values, b.values)

    def test_values_read_only(self, grover_coin):
        wf = evolve(BETA_STATE, 4, grover_coin)
        with pytest.raises(ValueError):
            wf.values[0, 0] = 0.0


class TestSupport:
    def test_single_sublattice_alternates(self, grover_coin):
        wf = initial_wavefunction(CoinState.uniform())
        for t in range(1, 12):
            wf = step(wf, grover_coin)
            assert wf.sublattice == ("A" if t % 2 == 0 else "B")

    def test_odd_times_have_zero_a_amplitude(self, grover_coin):
        wf = evolve(BETA_STATE, 7, grover_coin)
        assert wf.sublattice == "B"
        np.testing.assert_array_equal(wf.amplitude(Site.a(0, 0)), np.zeros(3))

    def test_parity_predicate_holds_everywhere(self):
        rng = np.random.default_rng(23)
        coin = build_coin(CoinParams(random_theta(rng)))
        wf = initial_wavefunction(random_state(rng))
        for t in range(1, 40):
            wf = step(wf, coin)
            assert all(support_parity_ok(site, t) for site in rows(wf))

    def test_light_cone_vs_bfs(self):
        # occupied support equals the parity-compatible ball of the walk graph
        rng = np.random.default_rng(29)
        coin = build_coin(CoinParams(random_theta(rng)))
        dist = graph_distances(8)
        wf = initial_wavefunction(random_state(rng))
        for t in range(1, 9):
            wf = step(wf, coin)
            distances = [dist[site] for site in rows(wf)]
            assert max(distances) == t
            assert all(d <= t and (t - d) % 2 == 0 for d in distances)


class TestDistribution:
    def test_initial(self):
        d = distribution(initial_wavefunction(CoinState(1, 0, 0)))
        assert rows(d) == {Site.a(0, 0): 1.0}

    def test_two_step_grover_origin(self, grover_coin):
        d = distribution(evolve(BETA_STATE, 2, grover_coin))
        assert abs(d.probability(Site.a(0, 0)) - 1 / 9) < 1e-14

    def test_sums_to_one(self, grover_coin):
        d = distribution(evolve(CoinState.uniform(), 60, grover_coin))
        assert abs(d.total() - 1.0) < 1e-10
        assert np.all(d.values >= 0.0)
        assert np.all(d.values <= 1.0)

    def test_qualitative_peak_depends_on_state(self, grover_coin):
        # at t = 100 the middle state keeps a sharp central peak while the
        # balanced state spreads away from the origin
        origin = Site.a(0, 0)
        peaked = distribution(evolve(BETA_STATE, 100, grover_coin))
        spread = distribution(evolve(CoinState.uniform(), 100, grover_coin))
        assert peaked.probability(origin) == pytest.approx(peaked.values.max())
        assert spread.probability(origin) < 0.01
        assert spread.values.max() > spread.probability(origin)


class TestSiteTables:
    # Unsorted: A(0, 0) holds (0, 1, 0), but a binary search over these
    # rows would report it as empty.  Repeated: one site with two rows.
    @pytest.mark.parametrize("xy", [[[1, 0], [0, 0]], [[0, 0], [0, 0]], [[0, 2], [0, 1]]],
                             ids=["unsorted-x", "repeated", "unsorted-y"])
    def test_rows_must_strictly_increase(self, xy):
        with pytest.raises(ValueError, match="strictly increasing"):
            WaveFunction("A", xy, [[1, 0, 0], [0, 1, 0]], 0)
        with pytest.raises(ValueError, match="strictly increasing"):
            Distribution("A", xy, [0.5, 0.5], 0)

    @pytest.mark.parametrize("xy, values", [
        ([[0, 0, 0]], [1.0]),
        ([[0, 0]], [0.5, 0.5]),
        ([[0, 0]], [[1.0]]),
    ], ids=["xy-three-columns", "values-longer", "values-2d"])
    def test_distribution_shapes_checked(self, xy, values):
        with pytest.raises(ValueError, match="must be"):
            Distribution("A", xy, values, 0)


class TestReturnSeries:
    def test_first_entries(self, grover_coin):
        series = return_series(BETA_STATE, 4, grover_coin)
        assert series[0] == (0, 1.0)
        assert series[1][0] == 2
        assert abs(series[1][1] - 1 / 9) < 1e-14

    def test_only_even_times(self, grover_coin):
        series = return_series(CoinState.uniform(), 11, grover_coin)
        assert [t for t, _ in series] == [0, 2, 4, 6, 8, 10]

    def test_matches_separately_evolved_distribution(self):
        # the cropped stream equals a full evolution bit for bit at every even
        # time, for real and complex states, at even and odd t_max
        cases = [
            (CoinParams.grover(), BETA_STATE),
            (CoinParams(1.0), CoinState(0.6, 0.0, 0.8)),
            (CoinParams(4.0), CoinState(0.48 + 0.6j, 0.64, 0.0)),
        ]
        for params, state in cases:
            coin = build_coin(params)
            for t_max in (30, 31):
                stream = list(origin_amplitudes(state, t_max, coin))
                assert [t for t, _ in stream] == list(range(0, t_max + 1, 2))
                for t, amp in stream:
                    full = evolve(state, t, coin).amplitude(Site.a(0, 0))
                    assert amp.tobytes() == full.tobytes(), (params.theta, t_max, t)

    def test_steps_only_the_backward_light_cone(self, grover_coin, monkeypatch):
        # the state stepped at time t holds the occupied sites (d <= t, d = t
        # mod 2, with d the BFS distance) that are at most t_max - t hops out
        t_max = 40
        sizes = []
        real_step = hexwalk.evolution.step

        def recording_step(wf, coin):
            sizes.append(len(wf))
            return real_step(wf, coin)

        monkeypatch.setattr(hexwalk.evolution, "step", recording_step)
        list(origin_amplitudes(CoinState.uniform(), t_max, grover_coin))
        dist = graph_distances(t_max).values()
        expected = [
            sum(1 for d in dist if d <= min(t, t_max - t) and (t - d) % 2 == 0)
            for t in range(t_max)
        ]
        assert sizes == expected

    def test_negative_t_rejected(self, grover_coin):
        with pytest.raises(ValueError):
            return_series(BETA_STATE, -1, grover_coin)
