import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hexwalk.evolution
from hexwalk import (
    CoinParams,
    CoinState,
    Site,
    WaveFunction,
    build_coin,
    distribution,
    evolve,
    origin_amplitudes,
    return_series,
    step,
)

from conftest import random_state, random_theta, rows
from oracles import (
    exact_walk,
    graph_distances,
    hop_distance,
    rational_cosine,
    reference_evolve,
    reference_step,
    row_step,
    shift_target,
    support_parity_ok,
)

BETA_STATE = CoinState(0.0, 1.0, 0.0)
# Real and complex states, with the Grover coin and two other angles.
WALKS = [
    (CoinParams.grover(), BETA_STATE),
    (CoinParams(1.0), CoinState(0.6, 0.0, 0.8)),
    (CoinParams(4.0), CoinState(0.48 + 0.6j, 0.64, 0.0)),
]

# Rational coins, c = (1 - 2m^2)/(1 + 2m^2) with m = 1 the Grover coin, from
# rational states, each given as the real and imaginary parts of its triple.
# The coin is real, so a walk is the walks of its two parts, and the exact
# oracle carries each in integers.  Real states step a float64 block, the
# complex state (3/5, 0, 4i/5) a complex128 one.
NO_IMAGINARY_PART = (0, 0, 0)
COMPLEX_STATE = ((Fraction(3, 5), 0, 0), (0, 0, Fraction(4, 5)))
REAL_EXACT_WALKS = {
    "m=1": (1, ((0, 1, 0), NO_IMAGINARY_PART)),
    "m=1/2": (Fraction(1, 2), ((Fraction(3, 5), 0, Fraction(4, 5)), NO_IMAGINARY_PART)),
    "m=2": (2, ((Fraction(2, 3), Fraction(1, 3), Fraction(2, 3)), NO_IMAGINARY_PART)),
}
EXACT_WALKS = {
    **REAL_EXACT_WALKS,
    **{f"{name}-complex": (m, COMPLEX_STATE) for name, (m, _) in REAL_EXACT_WALKS.items()},
}
EXACT_T = 40

# The walks the block stepper must step bit for bit like the row stepper.
REFEREE_WALKS = {
    "grover-beta": (CoinParams.grover(), BETA_STATE),
    "theta=1.1": (CoinParams(1.1), CoinState(0.6, 0.0, 0.8j)),
}

# The walk of tests/golden/complex_state.json.
COMPLEX_STATE_WALK = (CoinParams(2.2), CoinState(0.6, 0.48j, complex(0, -0.64)))


@pytest.fixture(scope="module", params=list(EXACT_WALKS))
def exact(request):
    """``(state, coin, walk)`` of one rational walk, to ``EXACT_T``.

    ``walk[t]`` is the pair of :func:`exact_walk` steps ``(scale, amps)`` of
    the real and the imaginary parts at step t.
    """
    m, (re, im) = EXACT_WALKS[request.param]
    coin = build_coin(CoinParams(math.acos(rational_cosine(m))))
    state = CoinState(*(complex(a, b) for a, b in zip(map(float, re), map(float, im))))
    return state, coin, list(zip(exact_walk(m, re, EXACT_T), exact_walk(m, im, EXACT_T)))


def exact_amplitudes(parts, sites):
    """The correctly rounded complex triples of one exact step at ``sites``."""
    (re_scale, re), (im_scale, im) = parts
    return [[complex(a / re_scale, b / im_scale) for a, b in zip(re[site], im[site])]
            for site in sites]


def exact_origin_probability(parts) -> float:
    """The origin probability of one exact step, correctly rounded."""
    (re_scale, re), (im_scale, im) = parts
    return float(Fraction(sum(a * a for a in re[0, 0]), re_scale**2)
                 + Fraction(sum(b * b for b in im[0, 0]), im_scale**2))


@st.composite
def column_states(draw):
    """``(sublattice, xy, in column-run form)`` for consecutive columns of progressions.

    Column k holds y, y + 2, ... (one to four rows) at x = x0 + k.  One
    column may have its x + y parity flipped, and the column ranges are drawn
    independently, so neighbours may be more than 3 apart: the draws land on
    both sides of the form.
    """
    sub = draw(st.sampled_from("AB"))
    x0 = draw(st.integers(-10**6, 10**6))
    y0 = 2 * draw(st.integers(-10**6, 10**6)) + draw(st.integers(0, 1))
    column = st.tuples(st.integers(-4, 4), st.integers(1, 4))
    columns = draw(st.lists(column, min_size=1, max_size=8))
    flip = draw(st.none() | st.integers(0, len(columns) - 1))
    ends = []
    for k, (start, count) in enumerate(columns):
        lo = y0 + 2 * start + (x0 + k) % 2 + (k == flip)
        ends.append((lo, lo + 2 * count - 2))
    xy = [(x0 + k, y) for k, (lo, hi) in enumerate(ends) for y in range(lo, hi + 1, 2)]
    in_form = (flip is None or len(columns) == 1) and all(
        lo1 - hi0 <= 3 and lo0 - hi1 <= 3 for (lo0, hi0), (lo1, hi1) in zip(ends, ends[1:])
    )
    return sub, xy, in_form


class TestInitialWaveFunction:
    def test_basis_state(self, grover_coin):
        wf = evolve(CoinState(1, 0, 0), 0, grover_coin)
        assert wf.t == 0
        assert wf.sublattice == "A"
        assert len(wf) == 1
        np.testing.assert_allclose(wf.amplitude(Site.a(0, 0)), [1, 0, 0])
        assert abs(wf.norm_squared() - 1) < 1e-15

    def test_uniform_state(self, grover_coin):
        wf = evolve(CoinState.uniform(), 0, grover_coin)
        np.testing.assert_allclose(
            rows(wf)[Site.a(0, 0)], np.full(3, 1 / math.sqrt(3)), atol=1e-15
        )

    def test_middle_state(self, grover_coin):
        wf = evolve(BETA_STATE, 0, grover_coin)
        np.testing.assert_allclose(wf.amplitude(Site.a(0, 0)), [0, 1, 0])


class TestStep:
    def test_one_step_hand_values(self, grover_coin):
        wf = step(evolve(BETA_STATE, 0, grover_coin), grover_coin)
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
        # every lookup in a box past the light cone, on both sublattices:
        # sites the reference lacks (missing x, missing y, wrong sublattice)
        # read as exact zeros, and the distribution has rows at exactly the
        # reference's sites
        rng = np.random.default_rng(5)
        for _ in range(3):
            params = CoinParams(random_theta(rng))
            coin = build_coin(params)
            state = random_state(rng)
            wf = evolve(state, 0, coin)
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
                probs = rows(distribution(wf))
                assert set(probs) == set(ref)
                for site in box:
                    if site in ref:
                        np.testing.assert_allclose(wf.amplitude(site), ref[site], atol=1e-12)
                        expected = float(np.sum(np.abs(ref[site]) ** 2))
                        assert abs(probs[site] - expected) <= 1e-12
                    else:
                        np.testing.assert_array_equal(wf.amplitude(site), np.zeros(3))

    @pytest.mark.parametrize("x, y", [(0, 3_000_000), (-5, -2_097_152), (10**6, -2_097_153),
                                      (2**59 - 1, 1 - 2**59), (1 - 2**59, 2**59 - 1)])
    def test_far_sites_step_to_their_neighbours(self, grover_coin, x, y):
        # |y| at and past 2**21, up to the largest admitted 2**59 - 1, must
        # step like any other site
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

    def test_input_layout_does_not_change_the_step(self):
        # C- and Fortran-ordered values build the same block
        coin = build_coin(CoinParams(4.0))
        wf = evolve(CoinState(0.48 + 0.6j, 0.64, 0.0), 9, coin)
        tables = [
            WaveFunction(wf.sublattice, wf.xy, layout(wf.values), wf.t)
            for layout in (np.ascontiguousarray, np.asfortranarray)
        ]
        stepped = [step(table, coin) for table in tables]
        for table in tables + stepped:
            assert not table.values.flags.writeable
        assert stepped[0].xy.tobytes() == stepped[1].xy.tobytes()
        assert stepped[0].values.tobytes() == stepped[1].values.tobytes()

    @given(state=column_states(), theta=st.floats(0.1, 3.0), seed=st.integers(0, 2**32 - 1),
           real=st.booleans())
    def test_column_runs_step_like_the_window_merge(self, state, theta, seed, real):
        # a state in the form, real or complex, steps to the union of its hop
        # targets with the reference values, the rows and values a merge of
        # the three hop windows gives; no walk from one site reaches any other
        # state, and no table holds one
        sub, xy, in_form = state
        rng = np.random.default_rng(seed)
        shape = (len(xy), 3)
        # |mixed| stays near 1, so the two summation orders agree within 1e-15
        values = rng.uniform(-0.5, 0.5, shape) + 1j * (not real) * rng.uniform(-0.5, 0.5, shape)
        if not in_form:
            with pytest.raises(ValueError, match="no walk from one site reaches"):
                WaveFunction(sub, xy, values, 0)
            return
        wf = WaveFunction(sub, xy, values, 0)
        coin = build_coin(CoinParams(theta))
        stepped = step(wf, coin)
        out = rows(stepped)
        assert list(out) == sorted({shift_target(s, j) for s in rows(wf) for j in range(3)})
        ref = reference_step(rows(wf), coin)
        for site, row in out.items():
            np.testing.assert_allclose(row, ref[site], rtol=0, atol=1e-15)
        ref_xy, ref_values = row_step(wf, coin)
        assert stepped.xy.tobytes() == ref_xy.tobytes()
        assert stepped.values.tobytes() == ref_values.tobytes()

    @pytest.mark.parametrize("chunk_cells", [hexwalk.evolution._CHUNK_CELLS, 1],
                             ids=["block-chunks", "column-chunks"])
    @pytest.mark.parametrize("walk", list(REFEREE_WALKS))
    def test_every_step_matches_the_row_stepper(self, walk, chunk_cells, monkeypatch):
        # the block stepper against the row stepper it replaced, bit for bit,
        # mixing the whole block at once (61 columns at most here) or one
        # column at a time
        monkeypatch.setattr(hexwalk.evolution, "_CHUNK_CELLS", chunk_cells)
        params, state = REFEREE_WALKS[walk]
        coin = build_coin(params)
        wf = evolve(state, 0, coin)
        for t in range(60):
            ref_xy, ref_values = row_step(wf, coin)
            wf = step(wf, coin)
            assert wf.xy.tobytes() == ref_xy.tobytes(), t
            assert wf.values.tobytes() == ref_values.tobytes(), t

    @pytest.mark.parametrize("chunk_cells", [hexwalk.evolution._CHUNK_CELLS, 2, 1])
    @pytest.mark.parametrize("n", [1, hexwalk.evolution._CHUNK_CELLS + 1])
    def test_a_real_diagonal_matches_the_row_stepper(self, n, chunk_cells, monkeypatch):
        # a real block of one u holds one value per column and component, and
        # a product of one column goes through BLAS's gemv, which rounds
        # otherwise than gemm: one site steps by gemv on both sides, and a
        # diagonal of sites, in any chunks and with a column left over past the
        # default ones, steps like the row stepper's one product of all rows
        monkeypatch.setattr(hexwalk.evolution, "_CHUNK_CELLS", chunk_cells)
        coin = build_coin(CoinParams(1.1))
        values = np.random.default_rng(0).uniform(-0.5, 0.5, (n, 3))
        wf = WaveFunction("A", [[x, x] for x in range(n)], values, 0)
        assert wf._planes.shape == (3, n, 1) and wf._planes.dtype == np.float64
        ref_xy, ref_values = row_step(wf, coin)
        stepped = step(wf, coin)
        assert stepped.xy.tobytes() == ref_xy.tobytes()
        assert stepped.values.tobytes() == ref_values.tobytes()

    @pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
    @pytest.mark.parametrize("far", [2**59, 2**60 + 2, 2**62, 2**63 - 1, -2**59, -2**63],
                             ids=["2**59", "2**60+2", "2**62", "2**63-1", "-2**59", "-2**63"])
    def test_coordinates_past_the_pads_rejected(self, grover_coin, axis, far):
        # a table admits sites of size at most 2**59, so that every
        # coordinate, shear offset and run end fits in int64, and a step out
        # of that range is refused rather than stepped to wrong rows
        site = [0, 0]
        site[axis] = far
        values = [[1.0, 0.5j, -0.25]]
        if abs(far) > 2**59:
            with pytest.raises(ValueError, match=r"past 2\*\*59"):
                WaveFunction("A", [site], values, 0)
            return
        # only B-sites hop to x + 1
        wf = WaveFunction("B" if site[0] > 0 else "A", [site], values, 0)
        with pytest.raises(ValueError, match=r"past 2\*\*59"):
            step(wf, grover_coin)

    def test_empty_wavefunction_rejected(self):
        with pytest.raises(ValueError, match="no walk from one site reaches"):
            WaveFunction("A", np.zeros((0, 2)), np.zeros((0, 3)), 0)

    @pytest.mark.parametrize("xy", [[[0.5, 0]], [[0.0, 0]], np.zeros((1, 2)), [[True, False]]],
                             ids=["half", "whole-float", "float-array", "bool"])
    def test_non_integer_sites_rejected(self, xy):
        with pytest.raises(TypeError, match="integer dtype"):
            WaveFunction("A", xy, [[1, 0, 0]], 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)],
                             ids=["nan", "inf", "-inf", "nan-imaginary"])
    def test_non_finite_amplitudes_rejected(self, bad):
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            WaveFunction("A", [[0, 0]], [[1, bad, 0]], 0)

    @pytest.mark.parametrize("t, error", [(1.0, TypeError), (-1, ValueError)],
                             ids=["float", "negative"])
    def test_bad_time_rejected(self, t, error):
        with pytest.raises(error):
            WaveFunction("A", [[0, 0]], [[1, 0, 0]], t)


class TestSupport:
    def test_single_sublattice_alternates(self, grover_coin):
        wf = evolve(CoinState.uniform(), 0, grover_coin)
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
        wf = evolve(random_state(rng), 0, coin)
        for t in range(1, 40):
            wf = step(wf, coin)
            assert all(support_parity_ok(site, t) for site in rows(wf))

    def test_light_cone_vs_bfs(self):
        # occupied support equals the parity-compatible ball of the walk graph
        rng = np.random.default_rng(29)
        coin = build_coin(CoinParams(random_theta(rng)))
        dist = graph_distances(8)
        wf = evolve(random_state(rng), 0, coin)
        for t in range(1, 9):
            wf = step(wf, coin)
            distances = [dist[site] for site in rows(wf)]
            assert max(distances) == t
            assert all(d <= t and (t - d) % 2 == 0 for d in distances)

    def test_light_cone_row_count_in_closed_form(self):
        # the row count behind the size model for evolve's memory and time
        for params, state in WALKS:
            coin = build_coin(params)
            wf = evolve(state, 0, coin)
            for t in range(61):
                assert len(wf) == (3 * t * t + 6 * t + 4) // 4, (params.theta, t)
                wf = step(wf, coin)


def assert_block_invariants(wf, state):
    # the block is complex128 for a complex state and float64 for a real one,
    # cells outside the runs are exactly +0, the block is about 4/3 of the
    # rows, and a site one past either end of a run reads zeros
    planes, lo, hi = wf._planes, wf._lo, wf._hi
    _, columns, extent = planes.shape
    assert planes.dtype == (np.complex128 if state.as_array().imag.any() else np.float64)
    k = np.arange(extent)
    outside = planes[:, (k < lo[:, None]) | (k > hi[:, None])]
    assert outside.tobytes() == bytes(outside.nbytes)
    assert columns * extent <= 4 / 3 * len(wf) + 2 * (columns + extent)
    for x in np.unique(wf.xy[:, 0]).tolist():
        ys = wf.xy[wf.xy[:, 0] == x, 1].tolist()
        for y in (ys[0] - 2, ys[-1] + 2):
            assert wf.amplitude(Site(wf.sublattice, x, y)).tobytes() == bytes(48)


class TestBlock:
    @pytest.mark.parametrize("walk", list(REFEREE_WALKS))
    def test_every_step_keeps_the_block_invariants(self, walk):
        params, state = REFEREE_WALKS[walk]
        coin = build_coin(params)
        wf = evolve(state, 0, coin)
        for _ in range(61):
            assert_block_invariants(wf, state)
            wf = step(wf, coin)

    @pytest.mark.parametrize("walk", list(REFEREE_WALKS))
    def test_every_crop_keeps_the_block_invariants(self, walk, monkeypatch):
        # a crop keeps exactly the rows at most r hops out, bit for bit
        params, state = REFEREE_WALKS[walk]
        crops = []
        real_crop = hexwalk.evolution._crop

        def checked_crop(wf, r):
            out = real_crop(wf, r)
            keep = hop_distance(wf.xy) <= r
            assert out.xy.tobytes() == wf.xy[keep].tobytes()
            assert out.values.tobytes() == wf.values[keep].tobytes()
            assert_block_invariants(out, state)
            crops.append(r)
            return out

        monkeypatch.setattr(hexwalk.evolution, "_crop", checked_crop)
        list(origin_amplitudes(state, 60, build_coin(params)))
        assert crops == list(range(28, -1, -2))

    @pytest.mark.parametrize("walk", list(REFEREE_WALKS))
    def test_norm_squared_builds_no_rows(self, walk):
        params, state = REFEREE_WALKS[walk]
        wf = evolve(state, 60, build_coin(params))
        norm = wf.norm_squared()
        assert "xy" not in vars(wf) and "values" not in vars(wf)
        assert abs(norm - float(np.sum(np.abs(wf.values) ** 2))) <= 1e-14

    @pytest.mark.parametrize("walk", list(REFEREE_WALKS))
    def test_amplitude_is_a_fresh_complex_triple(self, walk):
        # a write into the result leaves the block as it was
        params, state = REFEREE_WALKS[walk]
        wf = evolve(state, 4, build_coin(params))
        origin = Site.a(0, 0)
        amp = wf.amplitude(origin)
        assert amp.dtype == np.complex128 and amp.shape == (3,) and amp.flags.writeable
        before = amp.tobytes()
        amp[:] = 7
        assert wf.amplitude(origin).tobytes() == before

    def test_the_caller_keeps_its_arrays(self):
        # the table copies the rows into its block and holds no row arrays
        xy = np.array([[0, 0], [0, 2], [1, 1]])
        values = np.array([[1, 0, 0], [0, 0.6, 0], [0, 0, 0.8j]])
        wf = WaveFunction("A", xy, values, 3)
        assert not {name for name, v in vars(wf).items() if isinstance(v, np.ndarray)} \
            - {"_lo", "_hi", "_planes"}
        assert xy.flags.writeable and values.flags.writeable
        assert wf.xy is not xy and wf.values is not values
        assert wf.xy.tobytes() == xy.tobytes() and wf.values.tobytes() == values.tobytes()
        xy[0], values[0] = 9, 9
        assert wf.xy[0].tolist() == [0, 0] and wf.values[0].tolist() == [1, 0, 0]


class TestDistribution:
    @pytest.mark.parametrize("walk, t", [
        *((walk, 60) for walk in REFEREE_WALKS),
        *(("complex_state.json", t) for t in (7, 60, 251)),
    ])
    def test_reads_the_block_like_the_rows(self, walk, t):
        # the probabilities of the planes are, bit for bit, those of the
        # rows' amplitudes summed by einsum, and the rows' values are not built
        params, state = REFEREE_WALKS.get(walk, COMPLEX_STATE_WALK)
        wf = evolve(state, t, build_coin(params))
        d = distribution(wf)
        assert "xy" in vars(wf) and "values" not in vars(wf)
        assert d.xy is wf.xy and (d.sublattice, d.t) == (wf.sublattice, t)
        rows_probs = np.einsum("ij,ij->i", wf.values.real, wf.values.real) \
            + np.einsum("ij,ij->i", wf.values.imag, wf.values.imag)
        assert d.values.tobytes() == rows_probs.tobytes()

    def test_initial(self, grover_coin):
        d = distribution(evolve(CoinState(1, 0, 0), 0, grover_coin))
        assert rows(d) == {Site.a(0, 0): 1.0}

    def test_two_step_grover_origin(self, grover_coin):
        d = distribution(evolve(BETA_STATE, 2, grover_coin))
        assert abs(rows(d)[Site.a(0, 0)] - 1 / 9) < 1e-14

    def test_sums_to_one(self, grover_coin):
        d = distribution(evolve(CoinState.uniform(), 60, grover_coin))
        assert abs(d.values.sum() - 1.0) < 1e-10
        assert np.all(d.values >= 0.0)
        assert np.all(d.values <= 1.0)

    def test_qualitative_peak_depends_on_state(self, grover_coin):
        # at t = 100 the middle state keeps a sharp central peak while the
        # balanced state spreads away from the origin
        origin = Site.a(0, 0)
        peaked = distribution(evolve(BETA_STATE, 100, grover_coin))
        spread = distribution(evolve(CoinState.uniform(), 100, grover_coin))
        assert rows(peaked)[origin] == pytest.approx(peaked.values.max())
        assert rows(spread)[origin] < 0.01
        assert spread.values.max() > rows(spread)[origin]


class TestSiteTables:
    # Unsorted: A(0, 0) holds (0, 1, 0), but a binary search over these
    # rows would report it as empty.  Repeated: one site with two rows.
    # Wrapped: the x difference wraps to +1 in int64, and a lookup of
    # A(-2**63, 0) would find the row of A(2**63 - 1, 0).  Far apart: sorted,
    # but its x difference wraps negative.
    @pytest.mark.parametrize("xy", [[[1, 0], [0, 0]], [[0, 0], [0, 0]], [[0, 2], [0, 1]],
                                    [[2**63 - 1, 0], [-2**63, 0]], [[-2**63, 5], [2**63 - 1, 0]]],
                             ids=["unsorted-x", "repeated", "unsorted-y", "wrapped-x", "far-apart"])
    def test_rows_must_strictly_increase(self, xy):
        with pytest.raises(ValueError, match="no walk from one site reaches"):
            WaveFunction("A", xy, [[1, 0, 0], [0, 1, 0]], 0)

    def test_unknown_sublattice_rejected(self):
        with pytest.raises(ValueError, match="sublattice tag"):
            WaveFunction("C", [[0, 0]], [[1, 0, 0]], 0)

    @pytest.mark.parametrize("xy, values", [
        ([[0, 0, 0]], [[1, 0, 0]]),
        ([[0, 0]], [[1, 0]]),
        ([[0, 0]], [1, 0, 0]),
    ], ids=["xy-three-columns", "values-two-columns", "values-1d"])
    def test_wavefunction_shapes_checked(self, xy, values):
        with pytest.raises(ValueError, match="must be"):
            WaveFunction("A", xy, values, 0)


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
        for params, state in WALKS:
            coin = build_coin(params)
            for t_max in (30, 31):
                stream = list(origin_amplitudes(state, t_max, coin))
                assert [t for t, _ in stream] == list(range(0, t_max + 1, 2))
                for t, amp in stream:
                    full = evolve(state, t, coin).amplitude(Site.a(0, 0))
                    assert amp.tobytes() == full.tobytes(), (params.theta, t_max, t)

    @pytest.mark.parametrize("t_max", [40, 41])
    def test_steps_only_the_backward_light_cone(self, grover_coin, monkeypatch, t_max):
        # the state stepped at time t holds the occupied sites (d <= t, d = t
        # mod 2, with d the BFS distance) that are at most last - t hops out
        # at even t, where the A-state was cropped, and last - t + 2 at odd t,
        # one uncropped step after that crop
        last = t_max - t_max % 2
        sizes = []
        real_step = hexwalk.evolution.step

        def recording_step(wf, coin):
            sizes.append(len(wf))
            return real_step(wf, coin)

        monkeypatch.setattr(hexwalk.evolution, "step", recording_step)
        list(origin_amplitudes(CoinState.uniform(), t_max, grover_coin))
        dist = graph_distances(last).values()
        expected = [
            sum(1 for d in dist if d <= min(t, last - t + 2 * (t % 2)) and (t - d) % 2 == 0)
            for t in range(last)
        ]
        assert sizes == expected

    def test_odd_t_max_stops_at_the_last_even_step(self, grover_coin, monkeypatch):
        # step t_max would reach the B-sublattice, which the stream never reads
        calls = []
        real_step = hexwalk.evolution.step

        def counting_step(wf, coin):
            calls.append(wf.t)
            return real_step(wf, coin)

        monkeypatch.setattr(hexwalk.evolution, "step", counting_step)
        state = CoinState(0.6, 0.0, 0.8)
        odd = list(origin_amplitudes(state, 41, grover_coin))
        assert len(calls) == 40
        even = list(origin_amplitudes(state, 40, grover_coin))
        assert [(t, amp.tobytes()) for t, amp in odd] == [(t, amp.tobytes()) for t, amp in even]

    def test_negative_t_rejected(self, grover_coin):
        with pytest.raises(ValueError):
            return_series(BETA_STATE, -1, grover_coin)


class TestExactWalk:
    # The bound is one 2**-52 per step, and t = 0 is exact: both sides round
    # the same rationals.  Measured to T = 40 from the real states, the
    # amplitude error peaks at 0.75 t 2**-52 (m = 2; 0.083 for m = 1, 0.375
    # for m = 1/2) and the probability error at 0.18 t 2**-52; at T = 40 the
    # amplitude errors are 5.6e-16, 4.2e-16 and 2.7e-16.  From (3/5, 0, 4i/5)
    # the amplitude error peaks at 0.25, 0.35 and 0.53 t 2**-52 and the
    # probability error at 0.29 t 2**-52 (m = 1/2).  CoinParams(acos(c)) is
    # exact for m = 1 (the Grover angle), and build_coin gives the correctly
    # rounded Grover entries there; for m = 1/2 and 2 it rounds c by one ulp,
    # but a walk with the correctly rounded coin D C / D is off by 4.7e-16 and
    # 3.3e-16 at T = 40, so the rounding of c adds nothing measurable.
    ULP = 2.0**-52

    def test_evolve_matches(self, exact):
        # every step of the walk, and evolve to its end, which takes the same steps
        state, coin, walk = exact
        wf = evolve(state, 0, coin)
        for t, amps in enumerate(walk):
            if t:
                wf = step(wf, coin)
            assert len(wf) == len(amps[0][1])
            expected = exact_amplitudes(amps, map(tuple, wf.xy.tolist()))
            assert np.abs(wf.values - expected).max() <= t * self.ULP, t
        assert evolve(state, EXACT_T, coin).values.tobytes() == wf.values.tobytes()

    def test_origin_amplitudes_match(self, exact):
        state, coin, walk = exact
        stream = list(origin_amplitudes(state, EXACT_T, coin))
        assert [t for t, _ in stream] == list(range(0, EXACT_T + 1, 2))
        for t, amp in stream:
            assert np.abs(amp - exact_amplitudes(walk[t], [(0, 0)])[0]).max() <= t * self.ULP, t

    def test_return_series_matches(self, exact):
        state, coin, walk = exact
        for t, p in return_series(state, EXACT_T, coin):
            assert abs(p - exact_origin_probability(walk[t])) <= t * self.ULP, t

    def test_an_imaginary_state_returns_like_its_real_one(self, grover_coin):
        # i (0, 1, 0) steps a complex128 block and (0, 1, 0) a float64 one
        real, imaginary = (return_series(CoinState(0, b, 0), EXACT_T, grover_coin)
                           for b in (1, 1j))
        assert [t for t, _ in real] == [t for t, _ in imaginary]
        for (t, p), (_, q) in zip(real, imaginary):
            assert abs(p - q) <= t * self.ULP, t
