import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hexwalk import Site, physical_coordinates

from oracles import graph_distances, hop_distance, shift_target, support_parity_ok

coords = st.integers(-1000, 1000)
coin_indices = st.integers(0, 2)


class TestSite:
    def test_constructors(self):
        assert Site.a(1, 2) == Site("A", 1, 2)
        assert Site.b(-1, 0) == Site("B", -1, 0)

    def test_bad_tag_rejected(self):
        with pytest.raises(ValueError):
            Site("C", 0, 0)

    @pytest.mark.parametrize("x, y", [(0.5, 0), (0.0, 0), (0, 1.0), (np.float64(2), 0)])
    def test_float_coordinates_rejected(self, x, y):
        with pytest.raises(TypeError):
            Site.a(x, y)

    def test_integer_coordinates_become_ints(self):
        site = Site.b(np.int64(3), np.int32(-1))
        assert type(site.x) is int and type(site.y) is int
        assert site == Site.b(3, -1)

    def test_canonical_ordering(self):
        assert Site.a(0, 0) < Site.a(0, 1) < Site.a(1, -5) < Site.b(-9, 0)

    def test_hashable(self):
        assert len({Site.a(0, 0), Site.a(0, 0), Site.b(0, 0)}) == 2


class TestToPhysical:
    """The embedding `physical_coordinates`, on ints and on arrays."""

    def test_origin(self):
        assert physical_coordinates("A", 0, 0) == (0.0, 0.0)

    def test_a_site(self):
        px, py = physical_coordinates("A", 1, 1)
        assert px == 1.5
        assert abs(py - math.sqrt(3) / 2) < 1e-15

    def test_b_site(self):
        assert physical_coordinates("B", 0, 0) == (0.5, 0.0)

    @given(x=coords, y=coords)
    def test_coordinate_multiples(self, x, y):
        for sub in ("A", "B"):
            px, py = physical_coordinates(sub, x, y)
            assert abs(px * 2 - round(px * 2)) < 1e-9
            assert abs(py / (math.sqrt(3) / 2) - y) < 1e-9

    @pytest.mark.parametrize("sub", ["A", "B"])
    def test_array_form_matches_scalar(self, sub):
        xy = np.array([(x, y) for x in range(-9, 10) for y in range(-9, 10)])
        px, py = physical_coordinates(sub, xy[:, 0], xy[:, 1])
        points = [physical_coordinates(sub, x, y) for x, y in xy.tolist()]
        assert px.tolist() == [p[0] for p in points]
        assert py.tolist() == [p[1] for p in points]

    def test_injective_on_a_box(self):
        box = [
            (sub, x, y)
            for sub in ("A", "B")
            for x in range(-6, 7)
            for y in range(-6, 7)
        ]
        points = {physical_coordinates(*s) for s in box}
        assert len(points) == len(box)


class TestShiftTarget:
    def test_a_rules(self):
        assert shift_target(Site.a(2, 5), 0) == Site.b(2, 6)
        assert shift_target(Site.a(2, 5), 1) == Site.b(1, 5)
        assert shift_target(Site.a(2, 5), 2) == Site.b(2, 4)

    def test_b_rules(self):
        assert shift_target(Site.b(2, 5), 0) == Site.a(2, 4)
        assert shift_target(Site.b(2, 5), 1) == Site.a(3, 5)
        assert shift_target(Site.b(2, 5), 2) == Site.a(2, 6)

    def test_a_coin1_matches_embedding(self):
        # A(0,0) hops to the left neighbour at physical (-1, 0)
        target = shift_target(Site.a(0, 0), 1)
        assert target == Site.b(-1, 0)
        assert physical_coordinates(target.sub, target.x, target.y) == (-1.0, 0.0)

    def test_b_coin1_matches_embedding(self):
        target = shift_target(Site.b(0, 0), 1)
        assert target == Site.a(1, 0)
        assert physical_coordinates(target.sub, target.x, target.y)[0] == 1.5

    def test_invalid_coin_index(self):
        with pytest.raises(ValueError):
            shift_target(Site.a(0, 0), 3)

    @given(x=coords, y=coords, j=coin_indices)
    def test_same_coin_round_trip(self, x, y, j):
        site = Site.a(x, y)
        assert shift_target(shift_target(site, j), j) == site

    @given(x=coords, y=coords, j=coin_indices, sub=st.sampled_from(["A", "B"]))
    def test_flips_sublattice_and_parity(self, x, y, j, sub):
        site = Site(sub, x, y)
        target = shift_target(site, j)
        assert target.sub != site.sub
        assert (target.x + target.y + x + y) % 2 == 1

    def test_three_regular_bipartite(self):
        # every B-site has exactly three A-preimages, one per coin index
        for x in range(-3, 4):
            for y in range(-3, 4):
                b = Site.b(x, y)
                preimages = {
                    (j, a)
                    for j in range(3)
                    for a in [Site.a(x + dx, y + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
                    if shift_target(a, j) == b
                }
                assert len(preimages) == 3
                assert len({a for _, a in preimages}) == 3
                a_site = Site.a(x, y)
                images = {shift_target(a_site, j) for j in range(3)}
                assert len(images) == 3
                assert all(s.sub == "B" for s in images)


class TestSupportParity:
    def test_origin_at_start(self):
        assert support_parity_ok(Site.a(0, 0), 0)

    def test_origin_unreachable_at_odd_times(self):
        assert not support_parity_ok(Site.a(0, 0), 1)

    def test_first_step_sites(self):
        for site in (Site.b(0, 1), Site.b(-1, 0), Site.b(0, -1)):
            assert support_parity_ok(site, 1)

    def test_wrong_index_parity(self):
        assert not support_parity_ok(Site.a(1, 0), 0)
        assert not support_parity_ok(Site.b(0, 0), 1)

    @given(x=coords, y=coords, j=coin_indices)
    def test_shift_preserves_reachability(self, x, y, j):
        if (x + y) % 2 == 0:
            site = Site.a(x, y)
            assert support_parity_ok(site, 0)
            assert support_parity_ok(shift_target(site, j), 1)


class TestHopDistance:
    def test_matches_bfs(self):
        # every A-site a walk from A(0, 0) can occupy (x + y even) in a box
        # wider than the BFS ball: inside the ball the distance is the BFS
        # one, outside it is past the radius
        radius = 12
        ball = graph_distances(radius)
        xy = np.array([
            (x, y)
            for x in range(-radius, radius + 1)
            for y in range(-radius - 3, radius + 4)
            if (x + y) % 2 == 0
        ])
        inside = 0
        for (x, y), d in zip(xy.tolist(), hop_distance(xy).tolist()):
            site = Site.a(x, y)
            if site in ball:
                inside += 1
                assert d == ball[site], site
            else:
                assert d > radius, site
        assert inside == sum(1 for site in ball if site.sub == "A")
