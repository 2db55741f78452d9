"""Unit tests for XY (dimension-ordered) routing."""

from __future__ import annotations

import pytest

from repro.errors import GraphError
from repro.graphs.commodities import Commodity
from repro.graphs.topology import NoCTopology
from repro.routing.dimension_ordered import xy_path, xy_routing


def _commodity(index, src, dst, value=1.0):
    return Commodity(index, f"s{index}", f"d{index}", src, dst, value)


class TestXyPath:
    def test_x_first(self, mesh3x3):
        # 0 (0,0) -> 8 (2,2): east twice, then south twice
        assert xy_path(mesh3x3, 0, 8) == [0, 1, 2, 5, 8]

    def test_pure_x(self, mesh3x3):
        assert xy_path(mesh3x3, 3, 5) == [3, 4, 5]

    def test_pure_y(self, mesh3x3):
        assert xy_path(mesh3x3, 1, 7) == [1, 4, 7]

    def test_westward(self, mesh3x3):
        assert xy_path(mesh3x3, 8, 0) == [8, 7, 6, 3, 0]

    def test_same_node(self, mesh3x3):
        assert xy_path(mesh3x3, 4, 4) == [4]

    def test_path_is_minimal(self, mesh4x4):
        for src in mesh4x4.nodes:
            for dst in mesh4x4.nodes:
                path = xy_path(mesh4x4, src, dst)
                assert len(path) - 1 == mesh4x4.distance(src, dst)

    def test_torus_wraps(self, torus3x3):
        path = xy_path(torus3x3, 0, 2)
        assert path == [0, 2]

    def test_torus_wrap_y(self, torus3x3):
        path = xy_path(torus3x3, 0, 6)
        assert path == [0, 6]


def _stepwise_xy(topology, src, dst):
    """Reference walk: one unit step at a time, X first, then Y."""
    x, y = topology.coords(src)
    dst_x, dst_y = topology.coords(dst)
    path = [src]
    while x != dst_x:
        x += 1 if dst_x > x else -1
        path.append(topology.node_at(x, y))
    while y != dst_y:
        y += 1 if dst_y > y else -1
        path.append(topology.node_at(x, y))
    return path


class TestXyPathClosedForm:
    """The mesh path is built from two ``range`` runs; it must equal the
    unit-step walk for every pair, in all four directions."""

    @pytest.mark.parametrize("width,height", [(1, 6), (6, 1), (3, 3), (5, 7)])
    def test_matches_stepwise_walk_for_every_pair(self, width, height):
        mesh = NoCTopology.mesh(width, height)
        for src in mesh.nodes:
            for dst in mesh.nodes:
                assert xy_path(mesh, src, dst) == _stepwise_xy(mesh, src, dst)

    def test_rejects_nodes_off_the_mesh(self, mesh3x3):
        with pytest.raises(GraphError):
            xy_path(mesh3x3, 0, 9)


class TestXyRouting:
    def test_deterministic_loads(self, mesh3x3):
        commodities = [_commodity(0, 0, 8, 10.0), _commodity(1, 0, 8, 5.0)]
        result = xy_routing(mesh3x3, commodities)
        # both take the identical XY path and stack on the same links
        assert result.max_link_load() == 15.0

    def test_all_commodities_routed(self, mesh3x3):
        commodities = [_commodity(i, i, 8 - i, 2.0) for i in range(4)]
        result = xy_routing(mesh3x3, commodities)
        assert set(result.paths) == {0, 1, 2, 3}

    def test_total_flow_is_bandwidth_times_hops(self, mesh3x3):
        commodities = [_commodity(0, 0, 8, 10.0)]
        result = xy_routing(mesh3x3, commodities)
        assert result.total_flow() == 40.0  # 4 hops x 10
