"""A fixed reference task that measures how fast the host runs right now.

The benchmark's host is shared: over a few minutes the same operation can
take 40% longer or shorter with no change to the program.  ``yardstick()``
is a frozen, self-contained task in two halves shaped like the program's
own work: a Python half (dict-of-dict graphs, breadth-first routing, a
pairwise-swap placement loop, small objects sorted by key, JSON round
trips) and an array half (gathers, arithmetic and a sort over arrays of a
few hundred kilobytes, as the compiled simulator sweep does).  Contention
slows the Python half about twice as much as the array half; interpreter-
bound operations follow the first, the simulator and the LP solver the
second, and the sum tracks both better than either half alone.  It imports
nothing from the program, so a change to the program cannot move it; timed
between operations, it tells how much of a run's speed was the host's.  Do
not change it: figures normalised by it are only comparable while it stays
the same.
"""

from __future__ import annotations

import json
from collections import deque

import numpy as np

SIDE = 10
#: Repetitions of each half in one call.
ROUNDS = 2
ARRAY_PASSES = 12


class _Core:
    __slots__ = ("name", "node", "traffic")

    def __init__(self, name: str, node: int, traffic: int) -> None:
        self.name = name
        self.node = node
        self.traffic = traffic


def _mesh(side: int) -> dict[int, dict[int, int]]:
    adjacency: dict[int, dict[int, int]] = {}
    for node in range(side * side):
        x, y = divmod(node, side)
        links = {}
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            if 0 <= x + dx < side and 0 <= y + dy < side:
                links[(x + dx) * side + y + dy] = 0
        adjacency[node] = links
    return adjacency


def _route_loads(adjacency, flows) -> dict[tuple[int, int], int]:
    loads: dict[tuple[int, int], int] = {}
    for src, dst, bandwidth in flows:
        parent = {src: src}
        queue = deque([src])
        while queue:
            node = queue.popleft()
            if node == dst:
                break
            for nxt in adjacency[node]:
                if nxt not in parent:
                    parent[nxt] = node
                    queue.append(nxt)
        node = dst
        while node != src:
            edge = (parent[node], node)
            loads[edge] = loads.get(edge, 0) + bandwidth
            node = parent[node]
    return loads


def _cost(placement: list[int], flows) -> int:
    total = 0
    for a, b, bandwidth in flows:
        xa, ya = divmod(placement[a], SIDE)
        xb, yb = divmod(placement[b], SIDE)
        total += bandwidth * (abs(xa - xb) + abs(ya - yb))
    return total


def yardstick() -> float:
    """Run the reference task once (about 20 ms on a 2-vCPU Xeon host)."""
    return sum(_round(seed) for seed in range(ROUNDS)) + _arrays()


_ORDER = np.random.default_rng(2004).permutation(1 << 16).astype(np.int32)
_VALUES = np.arange(1 << 16, dtype=np.float64)


def _arrays() -> float:
    total = 0.0
    for _ in range(ARRAY_PASSES):
        gathered = _VALUES[_ORDER]
        gathered *= 1.5
        gathered += _VALUES
        order = np.argsort(gathered[: 1 << 12], kind="stable")
        total += float(gathered[order].sum())
    return total


def _round(seed: int) -> int:
    adjacency = _mesh(SIDE)
    cores = SIDE * SIDE
    flows = [
        (i, (i * 7 + 3 + seed) % cores, 10 + (i * 13 + seed) % 90)
        for i in range(cores)
        if (i * 7 + 3 + seed) % cores != i
    ]
    placement = list(range(cores))
    best = _cost(placement, flows)
    for i in range(0, cores, 3):
        j = (i * 11 + 5) % cores
        placement[i], placement[j] = placement[j], placement[i]
        cost = _cost(placement, flows)
        if cost < best:
            best = cost
        else:
            placement[i], placement[j] = placement[j], placement[i]
    loads = _route_loads(adjacency, [(placement[a], placement[b], w) for a, b, w in flows])
    objects = [_Core(f"c{i}", placement[i], loads.get((i, i + 1), 0)) for i in range(cores)]
    objects.sort(key=lambda core: (core.traffic, core.name))
    report = {
        "loads": {f"{a}->{b}": load for (a, b), load in sorted(loads.items())},
        "cores": [{"name": c.name, "node": c.node, "traffic": c.traffic} for c in objects],
    }
    decoded = json.loads(json.dumps(report, sort_keys=True))
    counts = np.zeros(cores, dtype=np.int64)
    np.add.at(counts, np.array([a for a, _, _ in flows]), 1)
    return best + len(decoded["loads"]) + int(counts.sum())
