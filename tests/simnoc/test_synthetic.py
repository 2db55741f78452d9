"""Synthetic traffic injectors: rates, destinations, determinism, registry."""

from __future__ import annotations

import itertools

import pytest

from repro.errors import SimulationError
from repro.graphs.topology import NoCTopology
from repro.simnoc import (
    SimConfig,
    Simulator,
    build_synthetic_network,
    get_traffic_pattern,
    list_traffic_patterns,
    simulate_synthetic,
)
from repro.simnoc.synthetic import (
    OnOffSource,
    TransposeSource,
    UniformRandomSource,
    synthetic_flow_index,
)


@pytest.fixture
def mesh4x4():
    return NoCTopology.mesh(4, 4, link_bandwidth=1600.0)


def _drain_source(source, cycles):
    counter = itertools.count(1)
    packets = []
    for cycle in range(cycles):
        packets.extend(source.packets_for_cycle(cycle, lambda: next(counter)))
    return packets


class TestRegistry:
    def test_patterns_listed(self):
        patterns = list_traffic_patterns()
        assert patterns[0] == "trace"
        assert set(patterns) >= {"trace", "uniform", "transpose", "onoff"}

    def test_unknown_pattern_rejected(self):
        with pytest.raises(SimulationError, match="unknown traffic pattern"):
            get_traffic_pattern("tornado")

    def test_trace_is_not_a_synthetic_factory(self):
        with pytest.raises(SimulationError, match="unknown traffic pattern"):
            get_traffic_pattern("trace")


class TestUniform:
    def test_offered_rate_matches_configuration(self, mesh4x4):
        config = SimConfig(seed=3)
        source = UniformRandomSource(mesh4x4, 5, 0.2, config)
        packets = _drain_source(source, 40_000)
        offered = len(packets) * config.flits_per_packet / 40_000
        assert offered == pytest.approx(0.2, rel=0.1)

    def test_destinations_cover_the_mesh(self, mesh4x4):
        source = UniformRandomSource(mesh4x4, 0, 0.5, SimConfig(seed=1))
        packets = _drain_source(source, 30_000)
        destinations = {p.dst_node for p in packets}
        assert 0 not in destinations  # never self-addressed
        assert len(destinations) == mesh4x4.num_nodes - 1

    def test_flow_index_encodes_pair(self, mesh4x4):
        source = UniformRandomSource(mesh4x4, 3, 0.3, SimConfig(seed=9))
        for packet in _drain_source(source, 5_000):
            assert packet.commodity_index == synthetic_flow_index(
                mesh4x4, 3, packet.dst_node
            )

    def test_oversubscription_rejected(self, mesh4x4):
        with pytest.raises(SimulationError, match="oversubscribes"):
            UniformRandomSource(mesh4x4, 0, 1.5, SimConfig())


def _with_listed_others(source_cls):
    """The source with its destination drawn by indexing the ascending list
    of the other nodes, one ``randrange(len(others))`` draw each."""

    class Listed(source_cls):
        def _choose_destination(self):
            others = [n for n in self.topology.nodes if n != self.src_node]
            return others[self.rng.randrange(len(others))]

    return Listed


class TestDestinationDraw:
    """The shifted draw ``k + (k >= src)`` replays the listed-others draw:
    same RNG consumption, same destinations, packet for packet."""

    @pytest.mark.parametrize("source_cls", [UniformRandomSource, OnOffSource])
    @pytest.mark.parametrize("src", [0, 7, 34])
    def test_same_sequence_as_listed_others(self, source_cls, src):
        mesh = NoCTopology.mesh(5, 7)
        config = SimConfig(seed=11, mean_burst_packets=4.0)

        def stream(cls):
            packets = _drain_source(cls(mesh, src, 0.3, config), 10_000)
            return [(p.created_cycle, p.dst_node) for p in packets]

        expected = stream(_with_listed_others(source_cls))
        assert len(expected) > 100
        assert stream(source_cls) == expected

    @pytest.mark.parametrize("source_cls", [UniformRandomSource, OnOffSource])
    def test_single_node_rejected(self, source_cls):
        with pytest.raises(SimulationError, match="at least two nodes"):
            source_cls(NoCTopology.mesh(1, 1), 0, 0.1, SimConfig())


class TestTranspose:
    def test_fixed_partner(self, mesh4x4):
        source = TransposeSource(mesh4x4, mesh4x4.node_at(1, 3), 0.2, SimConfig())
        packets = _drain_source(source, 10_000)
        assert packets
        assert {p.dst_node for p in packets} == {mesh4x4.node_at(3, 1)}

    def test_diagonal_nodes_excluded_by_factory(self, mesh4x4):
        sources = get_traffic_pattern("transpose")(mesh4x4, SimConfig(), 0.1)
        senders = {source.src_node for source in sources}
        for node in mesh4x4.nodes:
            x, y = mesh4x4.coords(node)
            assert (node in senders) == (x != y)


class TestOnOff:
    def test_long_run_rate_restored(self, mesh4x4):
        # Mean burst 6 and rate 0.15 give ~640 cycles per on-off period, so
        # the horizon must span hundreds of periods for the mean to settle.
        config = SimConfig(seed=5, mean_burst_packets=6.0)
        source = OnOffSource(mesh4x4, 2, 0.15, config)
        packets = _drain_source(source, 300_000)
        offered = len(packets) * config.flits_per_packet / 300_000
        assert offered == pytest.approx(0.15, rel=0.1)

    def test_burstier_than_poisson(self, mesh4x4):
        """On-off arrivals cluster: inter-start gap variance beats Poisson's."""
        config = SimConfig(seed=5, mean_burst_packets=8.0)
        onoff = _drain_source(OnOffSource(mesh4x4, 2, 0.1, config), 60_000)
        poisson = _drain_source(UniformRandomSource(mesh4x4, 2, 0.1, config), 60_000)

        def gap_cv2(packets):
            starts = [p.created_cycle for p in packets]
            gaps = [b - a for a, b in zip(starts, starts[1:]) if b > a]
            mean = sum(gaps) / len(gaps)
            var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
            return var / mean**2

        assert gap_cv2(onoff) > gap_cv2(poisson)


class TestDeterminism:
    def test_same_seed_same_network_results(self, mesh4x4):
        config = SimConfig(warmup_cycles=200, measure_cycles=2_000, drain_cycles=500, seed=17)
        a = simulate_synthetic(mesh4x4, config, "uniform", 0.1)
        b = simulate_synthetic(mesh4x4, config, "uniform", 0.1)
        assert a.stats == b.stats
        assert a.per_flow == b.per_flow

    def test_different_seeds_differ(self, mesh4x4):
        base = dict(warmup_cycles=200, measure_cycles=2_000, drain_cycles=500)
        a = simulate_synthetic(mesh4x4, SimConfig(seed=1, **base), "uniform", 0.1)
        b = simulate_synthetic(mesh4x4, SimConfig(seed=2, **base), "uniform", 0.1)
        assert a.stats != b.stats

    def test_source_streams_are_per_node(self, mesh4x4):
        """A node's stream is a pure function of (seed, node) — rebuilding
        the source (in any order, on any worker) replays it exactly."""
        config = SimConfig(seed=3)
        first = [
            (p.created_cycle, p.dst_node)
            for p in _drain_source(UniformRandomSource(mesh4x4, 5, 0.2, config), 5_000)
        ]
        second = [
            (p.created_cycle, p.dst_node)
            for p in _drain_source(UniformRandomSource(mesh4x4, 5, 0.2, config), 5_000)
        ]
        assert first == second
        other_node = [
            (p.created_cycle, p.dst_node)
            for p in _drain_source(UniformRandomSource(mesh4x4, 6, 0.2, config), 5_000)
        ]
        assert first != other_node


class TestEndToEnd:
    def test_simulate_synthetic_runs_all_patterns(self, mesh4x4):
        config = SimConfig(warmup_cycles=200, measure_cycles=2_000, drain_cycles=500, seed=8)
        for pattern in ("uniform", "transpose", "onoff"):
            report = simulate_synthetic(mesh4x4, config, pattern, 0.1)
            assert report.stats.count > 0
            assert report.per_flow

    def test_sources_sorted_by_node(self, mesh4x4):
        network = build_synthetic_network(mesh4x4, SimConfig(), "uniform", 0.1)
        nodes = [source.src_node for source in network.sources]
        assert nodes == sorted(nodes)

    def test_vc_synthetic_simulation(self, mesh4x4):
        config = SimConfig(
            warmup_cycles=200, measure_cycles=2_000, drain_cycles=500,
            seed=8, num_vcs=2,
        )
        report = simulate_synthetic(mesh4x4, config, "uniform", 0.1, engine="event")
        assert report.stats.count > 0
