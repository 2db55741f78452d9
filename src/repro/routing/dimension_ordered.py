"""Dimension-ordered (XY) deterministic routing.

The classical deadlock-free mesh routing: travel the X dimension first, then
the Y dimension.  Figure 4 uses it as the baseline routing for the PMAP and
GMAP mappings (the DPMAP / DGMAP bars).  On a torus each dimension travels
in the wrap direction with the fewer hops.
"""

from __future__ import annotations

from repro.graphs.commodities import Commodity
from repro.graphs.topology import NoCTopology
from repro.routing.base import RoutingResult


def _axis_step(src: int, dst: int, size: int, torus: bool) -> int:
    """Signed unit step from ``src`` toward ``dst`` along one axis."""
    if src == dst:
        return 0
    if not torus:
        return 1 if dst > src else -1
    forward = (dst - src) % size
    backward = (src - dst) % size
    return 1 if forward <= backward else -1


def xy_path(topology: NoCTopology, src: int, dst: int) -> list[int]:
    """The XY route from ``src`` to ``dst`` as a node list.

    X-coordinate differences are resolved first, then Y — one fixed minimal
    path per node pair, which is what makes the routing deterministic and
    table-free.
    """
    x, y = topology.coords(src)
    dst_x, dst_y = topology.coords(dst)
    if not topology.torus:
        # Mesh: one straight run along the row, then one along the column.
        width = topology.width
        corner = src + dst_x - x
        x_step = 1 if dst_x >= x else -1
        y_step = width if dst_y >= y else -width
        path = list(range(src, corner + x_step, x_step))
        path.extend(range(corner + y_step, dst + y_step, y_step))
        return path
    path = [src]
    step = _axis_step(x, dst_x, topology.width, topology.torus)
    while x != dst_x:
        x = (x + step) % topology.width
        path.append(topology.node_at(x, y))
    step = _axis_step(y, dst_y, topology.height, topology.torus)
    while y != dst_y:
        y = (y + step) % topology.height
        path.append(topology.node_at(x, y))
    return path


def xy_routing(topology: NoCTopology, commodities: list[Commodity]) -> RoutingResult:
    """Route every commodity along its XY path."""
    paths = {
        commodity.index: xy_path(topology, commodity.src_node, commodity.dst_node)
        for commodity in commodities
    }
    return RoutingResult.from_paths(topology, commodities, paths, algorithm="xy")
