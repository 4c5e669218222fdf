import math
import re
from pathlib import Path

import numpy as np
import pytest

import hexwalk
from hexwalk import (
    GROVER_THETA,
    CoinParams,
    CoinState,
    Momentum,
    Site,
    WaveFunction,
    asymptotic_amplitude,
    build_coin,
    eigenphases_closed_form,
    evolve,
    fourier_evolve,
    inverse_transform_site,
    origin_amplitudes,
    return_series,
    two_step_operator,
)

from conftest import random_state, random_theta, rows, run_fresh
from oracles import schur_eigenpairs, two_step_matrices

TWO_PI = 2.0 * math.pi


def phase_distance(p, q):
    d = abs(p - q) % TWO_PI
    return min(d, TWO_PI - d)


def degeneracy_points(params):
    # k = 0 and the corners make all three phases equal, and the band
    # bottom (c < 0) makes nu2 = nu3 = pi, where the two phases tie
    points = [(0.0, 0.0), (math.pi, math.pi), (math.pi, -math.pi), (1e-9, 2e-9), (1e-15, 2e-15)]
    if params.c < 0:
        points.append((math.pi, math.acos((1.0 + params.c) / (1.0 - params.c))))
    return points


class TestMomentum:
    def test_wraps_into_fundamental_domain(self):
        m = Momentum(math.pi, -3 * math.pi / 2)
        assert m.a == -math.pi
        assert abs(m.b - math.pi / 2) < 1e-12

    def test_in_range_values_unchanged(self):
        m = Momentum(0.5, -0.25)
        assert (m.a, m.b) == (0.5, -0.25)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["a", "b"])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"momentum {name} must be finite"):
            Momentum(**{"a": 0.5, "b": -0.25, name: value})


class TestTwoStepOperator:
    def test_zero_momentum_is_identity(self, grover_coin):
        op = two_step_operator(Momentum(0, 0), grover_coin)
        np.testing.assert_allclose(op.matrix, np.eye(3), atol=1e-14)
        assert all(phase_distance(nu, 0.0) < 1e-10 for nu in op.eigenphases)

    def test_grover_example_point(self, grover_coin, grover_params):
        # dispersion at (pi/2, pi/3): cos(nu2) = -5/9
        m = Momentum(math.pi / 2, math.pi / 3)
        op = two_step_operator(m, grover_coin)
        expected = math.acos(-5 / 9)
        assert abs(op.eigenphases[1] - expected) < 1e-12
        closed = eigenphases_closed_form(m, grover_params)
        assert abs(closed[1] - expected) < 1e-14

    def test_matrix_matches_definition(self):
        # Pins U2 itself: U2(-a, -b) has the same spectrum, so only the
        # matrix tells the two apart.
        rng = np.random.default_rng(23)
        for _ in range(30):
            coin = build_coin(CoinParams(random_theta(rng)))
            m = Momentum(rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
            expected = two_step_matrices(coin, np.array([m.a]), np.array([m.b]))[0]
            got = two_step_operator(m, coin).matrix
            assert np.max(np.abs(got - expected)) < 1e-14

    def test_unitary_and_eigen_residuals(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            params = CoinParams(random_theta(rng))
            coin = build_coin(params)
            m = Momentum(rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
            op = two_step_operator(m, coin)
            np.testing.assert_allclose(
                op.matrix @ op.matrix.conj().T, np.eye(3), atol=1e-12
            )
            # flat band first, stored as exactly zero phase
            assert op.eigenphases[0] == 0.0
            for j, nu in enumerate(op.eigenphases):
                v = op.eigenvectors[:, j]
                residual = op.matrix @ v - np.exp(1j * nu) * v
                assert np.max(np.abs(residual)) < 1e-10
            # orthonormal eigenbasis
            np.testing.assert_allclose(
                op.eigenvectors.conj().T @ op.eigenvectors, np.eye(3), atol=1e-10
            )

    def test_phase_labeling_and_sum(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            params = CoinParams(random_theta(rng))
            op = two_step_operator(
                Momentum(rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)),
                build_coin(params),
            )
            nu1, nu2, nu3 = op.eigenphases
            assert 0.0 < nu2 <= math.pi or nu2 < 1e-10
            assert phase_distance(nu2 + nu3, 0.0) < 1e-10

    @pytest.mark.parametrize("theta", [0.3, 1.0, GROVER_THETA, 2.5, 4.0, 1e-7, math.pi - 1e-4],
                             ids=["0.3", "1.0", "grover", "2.5", "4.0", "1e-7", "pi-1e-4"])
    def test_eigenpairs_at_degeneracies(self, theta):
        params = CoinParams(theta)
        coin = build_coin(params)
        for a, b in degeneracy_points(params):
            op = two_step_operator(Momentum(a, b), coin)
            v = op.eigenvectors
            residual = op.matrix @ v - v * np.exp(1j * np.array(op.eigenphases))
            assert np.linalg.norm(residual, 2) <= 1e-13
            assert np.linalg.norm(v.conj().T @ v - np.eye(3), 2) <= 1e-13
            assert phase_distance(op.eigenphases[1] + op.eigenphases[2], 0.0) < 1e-12

    @pytest.mark.parametrize("theta", [GROVER_THETA, 1.0, 2.5, 1e-7, math.pi - 1e-4],
                             ids=["grover", "1.0", "2.5", "1e-7", "pi-1e-4"])
    def test_eigenpairs_match_schur_oracle(self, theta):
        # Each phase lies within 1e-13 of a Schur eigenvalue on the unit
        # circle.  Where the eigenvalues are 1e-2 apart or more, the matrix
        # fixes each column to about 1e-14 up to its phase, so the columns
        # must match Schur's too; closer (at theta = 1e-7 every gap is below
        # 3e-7) only the residual and orthonormality are defined.
        params = CoinParams(theta)
        coin = build_coin(params)
        rng = np.random.default_rng(53)
        randoms = [tuple(rng.uniform(-math.pi, math.pi, 2)) for _ in range(200)]
        for a, b in degeneracy_points(params) + randoms:
            op = two_step_operator(Momentum(a, b), coin)
            v = op.eigenvectors
            e = np.exp(1j * np.array(op.eigenphases))
            lam, z = schur_eigenpairs(op.matrix)
            dist = np.abs(e[:, None] - lam)
            assert dist.min(axis=1).max() <= 1e-13
            residual = op.matrix @ v - v * e
            assert np.linalg.norm(residual, 2) <= 1e-13
            assert np.linalg.norm(v.conj().T @ v - np.eye(3), 2) <= 1e-13
            if min(abs(lam[i] - lam[j]) for i, j in [(0, 1), (0, 2), (1, 2)]) >= 1e-2:
                match = z[:, dist.argmin(axis=1)]
                unit = np.sum(match.conj() * v, axis=0)
                assert np.max(np.abs(v - match * (unit / np.abs(unit)))) <= 1e-13


class TestEigenphasesClosedForm:
    def test_zero_momentum(self):
        closed = eigenphases_closed_form(Momentum(0, 0), CoinParams(1.0))
        assert closed[0] == 0.0
        assert closed[1] == 0.0
        assert closed[2] == TWO_PI

    def test_band_bottom(self):
        # at (pi, 0) with theta = pi/2 the dispersion hits cos(nu2) = -1
        closed = eigenphases_closed_form(Momentum(math.pi, 0.0), CoinParams(math.pi / 2))
        assert abs(closed[1] - math.pi) < 1e-13
        assert abs(closed[2] - math.pi) < 1e-13

    @pytest.mark.parametrize("params", [CoinParams.grover(), CoinParams(2.5)],
                             ids=["grover", "2.5"])
    @pytest.mark.parametrize("delta", [1e-4, 1e-6, 1e-8])
    def test_near_band_bottom_matches_schur(self, params, delta):
        # for c < 0 the dispersion reaches cos(nu2) = -1 on a = pi,
        # cos b = (1 + c) / (1 - c); an arcsin of the rounded X there lost
        # half the digits (1.2e-8 at delta = 1e-8 for Grover)
        b_star = math.acos((1.0 + params.c) / (1.0 - params.c))
        m = Momentum(math.pi, b_star + delta)
        closed = eigenphases_closed_form(m, params)
        matrix = two_step_matrices(build_coin(params), np.array([m.a]), np.array([m.b]))[0]
        lam, _ = schur_eigenpairs(matrix)
        assert min(phase_distance(closed[1], p) for p in np.angle(lam)) < 1e-13

    def test_matches_numerical_phases(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            params = CoinParams(random_theta(rng))
            coin = build_coin(params)
            m = Momentum(rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
            closed = eigenphases_closed_form(m, params)
            numeric = two_step_operator(m, coin).eigenphases
            for c_phase, n_phase in zip(closed, numeric):
                assert phase_distance(c_phase, n_phase) < 1e-10


class TestFourierEvolve:
    def test_zero_pairs_identity(self, grover_coin):
        state = CoinState.uniform()
        np.testing.assert_array_equal(
            fourier_evolve(state, 0, Momentum(1.0, -0.5), grover_coin), state.as_array()
        )

    def test_zero_momentum_fixed_point(self, grover_coin):
        state = CoinState(0.6, 0.0, 0.8)
        out = fourier_evolve(state, 9, Momentum(0, 0), grover_coin)
        np.testing.assert_allclose(out, state.as_array(), atol=1e-12)

    def test_matches_repeated_matrix_power(self, grover_coin):
        m = Momentum(0.9, -2.1)
        op = two_step_operator(m, grover_coin)
        state = CoinState.normalized(0.3, -0.5j, 0.8)
        v = state.as_array()
        for _ in range(7):
            v = op.matrix @ v
        np.testing.assert_allclose(fourier_evolve(state, 7, m, grover_coin), v, atol=1e-12)

    @pytest.mark.parametrize("t", [1, True, np.int64(3)], ids=["int", "bool", "numpy"])
    def test_integer_counts_accepted(self, grover_coin, t):
        m = Momentum(0.9, -2.1)
        out = fourier_evolve(CoinState.uniform(), t, m, grover_coin)
        np.testing.assert_array_equal(
            out, fourier_evolve(CoinState.uniform(), int(t), m, grover_coin)
        )

    def test_norm_preserved_for_huge_times(self, grover_coin):
        out = fourier_evolve(CoinState.uniform(), 10**6, Momentum(1.1, 0.7), grover_coin)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


class TestInverseTransform:
    def test_zero_pairs_recovers_state(self, grover_coin):
        state = CoinState.normalized(1, 2, 3)
        out = inverse_transform_site(state, 0, 0, 0, 4, grover_coin)
        np.testing.assert_allclose(out, state.as_array(), atol=1e-13)

    def test_one_pair_matches_evolution(self, grover_coin):
        state = CoinState(0, 1, 0)
        out = inverse_transform_site(state, 1, 0, 0, 16, grover_coin)
        expected = evolve(state, 2, grover_coin).amplitude(Site.a(0, 0))
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_three_pairs_all_sites(self):
        rng = np.random.default_rng(41)
        params = CoinParams(random_theta(rng))
        coin = build_coin(params)
        state = random_state(rng)
        wf = evolve(state, 6, coin)
        for site, amp in rows(wf).items():
            out = inverse_transform_site(state, 3, site.x, site.y, 32, coin)
            np.testing.assert_allclose(out, amp, atol=1e-8)

    @pytest.mark.parametrize("theta, state", [
        (1.0, CoinState(0.6, 0.0, 0.8)),
        (4.0, CoinState(0.48 + 0.6j, 0.64, 0.0)),
    ])
    def test_twenty_five_pairs_match_evolution(self, theta, state):
        # (20, 32) is 52 hops out, past the light cone of 50 steps
        coin = build_coin(CoinParams(theta))
        wf = evolve(state, 50, coin)
        for x, y in [(0, 0), (2, 0), (-3, 5), (7, -9), (0, -24), (20, 32)]:
            grid_n = 2 * 25 + abs(x) + abs(y) + 1
            out = inverse_transform_site(state, 25, x, y, grid_n, coin)
            np.testing.assert_allclose(out, wf.amplitude(Site.a(x, y)), rtol=0, atol=1e-13)

    def test_unoccupied_site_is_zero(self, grover_coin):
        out = inverse_transform_site(CoinState(0, 1, 0), 1, 5, 5, 16, grover_coin)
        np.testing.assert_allclose(out, np.zeros(3), atol=1e-12)

    def test_grid_validation(self, grover_coin):
        with pytest.raises(ValueError):
            inverse_transform_site(CoinState(0, 1, 0), 1, 0, 0, 0, grover_coin)

    @pytest.mark.parametrize("grid_n", [16, np.int64(16)], ids=["int", "numpy"])
    def test_integer_grid_accepted(self, grover_coin, grid_n):
        out = inverse_transform_site(CoinState(0, 1, 0), 1, 0, 0, grid_n, grover_coin)
        np.testing.assert_array_equal(
            out, inverse_transform_site(CoinState(0, 1, 0), 1, 0, 0, 16, grover_coin)
        )


@pytest.mark.parametrize("call, error", [
    (lambda coin: fourier_evolve(CoinState.uniform(), 2.5, Momentum(1, 1), coin), TypeError),
    (lambda coin: fourier_evolve(CoinState.uniform(), 2.0, Momentum(1, 1), coin), TypeError),
    (lambda coin: inverse_transform_site(CoinState.uniform(), 2.0, 0, 0, 16, coin), TypeError),
    (lambda coin: inverse_transform_site(CoinState.uniform(), -0.5, 0, 0, 16, coin), TypeError),
    (lambda coin: inverse_transform_site(CoinState.uniform(), 2, 0, 0, 2.5, coin), TypeError),
    (lambda coin: inverse_transform_site(CoinState.uniform(), 2, 0, 0, 16.0, coin), TypeError),
    (lambda coin: inverse_transform_site(CoinState.uniform(), 1, 0.5, 0, 16, coin), TypeError),
    (lambda coin: inverse_transform_site(CoinState.uniform(), 1, 0, 0.5, 16, coin), TypeError),
    (lambda coin: inverse_transform_site(CoinState.uniform(), 1, math.nan, 0, 16, coin),
     TypeError),
    (lambda coin: asymptotic_amplitude(0.5, 0, CoinParams.grover(), CoinState.uniform()),
     TypeError),
    (lambda coin: next(origin_amplitudes(CoinState(0, 1, 0), 40.0, coin)), TypeError),
    (lambda coin: return_series(CoinState(0, 1, 0), 4.0, coin), TypeError),
    (lambda coin: evolve(CoinState.uniform(), -1.5, coin), TypeError),
    (lambda coin: WaveFunction("A", [[0, 0]], [[1, 0, 0]], 1.0), TypeError),
    (lambda coin: evolve(CoinState.uniform(), -1, coin), ValueError),
    (lambda coin: fourier_evolve(CoinState.uniform(), -1, Momentum(1, 1), coin), ValueError),
    (lambda coin: inverse_transform_site(CoinState.uniform(), -1, 0, 0, 8, coin), ValueError),
    (lambda coin: next(origin_amplitudes(CoinState(0, 1, 0), -1, coin)), ValueError),
    (lambda coin: WaveFunction("A", [[0, 0]], [[1, 0, 0]], -1), ValueError),
], ids=["t=2.5", "t=2.0", "inverse_transform_site-t=2.0", "inverse_transform_site-t=-0.5",
        "grid_n=2.5", "grid_n=16.0", "x=0.5", "y=0.5", "x=nan",
        "asymptotic_amplitude-x=0.5", "origin_amplitudes-t_max=40.0", "return_series-t_max=4.0",
        "evolve-t=-1.5", "WaveFunction-t=1.0", "evolve-t=-1", "fourier_evolve-t=-1",
        "inverse_transform_site-t=-1", "origin_amplitudes-t_max=-1", "WaveFunction-t=-1"])
def test_float_counts_rejected(grover_coin, call, error, monkeypatch):
    # every count and site of every entry point: a count is a non-negative integer,
    # and U2^2.5, U2^-1 or a 2.5-point grid is not defined; nor is a site at
    # x = 0.5, which is no lattice site.  Each is refused where it arrives, before
    # any grid is built or any power of U2 taken.
    def no_power(*args):
        raise AssertionError("a power of U2 was taken before the inputs were checked")

    monkeypatch.setattr(hexwalk.spectral, "_power", no_power)
    with pytest.raises(error, match="as an integer|must be non-negative"):
        call(grover_coin)


def test_package_never_imports_scipy():
    # scipy serves only the test oracles; every entry point runs on numpy alone
    code = (
        "import sys\n"
        "from hexwalk import *\n"
        "params = CoinParams(1.0)\n"
        "coin, state, m = build_coin(params), CoinState(0.6, 0.0, 0.8), Momentum(0.9, -2.1)\n"
        "two_step_operator(m, coin)\n"
        "fourier_evolve(state, 7, m, coin)\n"
        "inverse_transform_site(state, 2, 1, 1, 8, coin)\n"
        "eigenphases_closed_form(m, params)\n"
        "asymptotic_amplitude(2, 0, params, state)\n"
        "evolve(state, 4, coin)\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr


def test_readme_names_every_public_name():
    # each name the package exports appears in a code span of README's Library section
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    spans = re.findall(r"`([^`]+)`", library)
    named = {word for span in spans for word in re.findall(r"\w+", span)}
    assert set(hexwalk.__all__) - named == set()
