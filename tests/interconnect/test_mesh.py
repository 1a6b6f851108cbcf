"""Tests for the mesh topology."""

import pytest

from repro.common.errors import ConfigError
from repro.common.params import NetworkConfig
from repro.interconnect.mesh import MeshTopology


def mesh(w=4, h=4):
    return MeshTopology(NetworkConfig(mesh_width=w, mesh_height=h))


class TestHops:
    def test_self_distance_zero(self):
        m = mesh()
        for n in range(16):
            assert m.hops(n, n) == 0

    def test_manhattan(self):
        m = mesh()
        assert m.hops(0, 3) == 3  # same row
        assert m.hops(0, 12) == 3  # same column
        assert m.hops(0, 15) == 6  # opposite corner
        assert m.hops(5, 10) == 2

    def test_symmetric(self):
        m = mesh()
        for a in range(16):
            for b in range(16):
                assert m.hops(a, b) == m.hops(b, a)

    def test_triangle_inequality(self):
        m = mesh()
        for a in range(16):
            for b in range(16):
                for c in range(16):
                    assert m.hops(a, c) <= m.hops(a, b) + m.hops(b, c)

    def test_average_hops(self):
        # Known closed form for a 4x4 mesh: 8/3.
        assert mesh().average_hops() == pytest.approx(8 / 3)


class TestPlacement:
    def test_home_interleaving(self):
        m = mesh()
        assert m.home_node(0) == 0
        assert m.home_node(17) == 1
        assert m.home_node(31) == 15

    def test_core_node_identity(self):
        m = mesh()
        assert m.core_node(7) == 7
        with pytest.raises(ConfigError):
            m.core_node(16)

    def test_corners(self):
        assert mesh()._corners == [0, 3, 12, 15]

    def test_memory_node_is_nearest_corner(self):
        m = mesh()
        assert m.memory_node(0) == 0
        assert m.memory_node(5) == 0
        assert m.memory_node(10) == 15
        assert m.memory_node(7) == 3

    @pytest.mark.parametrize("w,h", [(4, 4), (2, 3), (5, 2), (1, 4), (8, 8)])
    def test_memory_node_table_matches_nearest_corner_scan(self, w, h):
        m = mesh(w, h)
        corners = sorted({0, w - 1, (h - 1) * w, h * w - 1})
        for home in range(m.nodes):
            want = min(corners, key=lambda c: m.hops(home, c))
            assert m.memory_node(home) == want

    def test_rectangular_mesh(self):
        m = mesh(2, 3)
        assert m.nodes == 6
        assert m.hops(0, 5) == 3
        assert m._corners == [0, 1, 4, 5]

    def test_core_to_home_and_core_to_core(self):
        m = mesh()
        assert m.core_to_home(0, 15) == m.hops(0, 15)
        assert m.core_to_core(1, 2) == 1
