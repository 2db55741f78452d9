"""Vector-engine specifics and the ``auto`` load-adaptive policy.

The heavy bit-identity guarantees live in ``tests/properties``; this file
covers the engine-layer plumbing around them: registry exposure, the
freshness and router-model guards, observable write-back, and the load
threshold ``auto`` dispatches on.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import SimulationError
from repro.graphs.topology import NoCTopology
from repro.simnoc import (
    SimConfig,
    Simulator,
    build_synthetic_network,
    list_engines,
)
from repro.simnoc.engines.auto import (
    AUTO_LOAD_THRESHOLD,
    AUTO_LOAD_THRESHOLD_JIT,
    offered_load_per_node,
    resolve_auto_engine,
)
from repro.simnoc.engines.jit import resolve_backend
from repro.simnoc.models import register_router_model
from repro.simnoc.traffic import BurstyTrafficSource


def _network(rate: float, **config_kwargs):
    mesh = NoCTopology.mesh(3, 3, link_bandwidth=1600.0)
    config = SimConfig(
        warmup_cycles=100, measure_cycles=800, drain_cycles=300, **config_kwargs
    )
    return build_synthetic_network(mesh, config, "uniform", rate)


class TestRegistry:
    def test_all_four_engines_registered(self):
        assert set(list_engines()) >= {"auto", "cycle", "event", "vector"}


class TestVectorEngineGuards:
    def test_requires_fresh_network(self):
        """Re-running a network that already simulated must fail loudly
        rather than silently continue from flattened-away state."""
        network = _network(0.05)
        sim = Simulator(network, engine="vector")
        sim.run()
        with pytest.raises(SimulationError, match="freshly built"):
            Simulator(network, engine="vector").run()

    def test_rejects_unknown_router_model(self):
        register_router_model("test-vector-reject", per_lane_buffers=False)(
            lambda node, input_keys, output_specs, config: (_ for _ in ()).throw(
                AssertionError("factory must not run")
            )
        )
        network = _network(0.05)
        object.__setattr__(network.config, "router_model", "test-vector-reject")
        with pytest.raises(SimulationError, match="vector engine"):
            Simulator(network, engine="vector").run()

    def test_writes_back_observable_counters(self):
        """The report builder reads NIs and output ports; the flattened run
        must leave them exactly as populated as an object-engine run."""
        fast = _network(0.1, seed=3)
        reference = _network(0.1, seed=3)
        Simulator(fast, engine="vector").run()
        Simulator(reference, engine="cycle").run()
        for node in fast.routers:
            assert (
                fast.interfaces[node].flits_injected
                == reference.interfaces[node].flits_injected
            )
            assert (
                fast.interfaces[node].flits_ejected
                == reference.interfaces[node].flits_ejected
            )
            assert [
                p.packet_id for p in fast.interfaces[node].delivered_packets
            ] == [p.packet_id for p in reference.interfaces[node].delivered_packets]
            for key, port in fast.routers[node].outputs.items():
                assert (
                    port.flits_carried
                    == reference.routers[node].outputs[key].flits_carried
                )


class TestMissingPortError:
    """A route hop with no output port is a typed error on every tier.

    The kernel tier resolves all routes in one array gather after the
    injection replay; it must still name the first offending packet in
    creation order, exactly as the interpreted tier does when it registers
    that packet.
    """

    MODES = ("off", "py", "c")

    @staticmethod
    def _network(bad_paths):
        network = _network(0.05, seed=9)
        config = network.config
        paths = [[0, 1, 2]] + bad_paths
        network.sources = [
            BurstyTrafficSource(
                commodity_index=index,
                src_node=path[0],
                dst_node=path[-1],
                rate_flits_per_cycle=0.1,
                paths=[(path, 1.0)],
                config=config,
                rng=random.Random(index),
            )
            for index, path in enumerate(paths)
        ]
        return network

    @pytest.mark.parametrize(
        "offenders",
        [
            # path -> its first hop with no output port (3x3 mesh)
            {(0, 4): (0, 4)},  # skips a link
            {(3, 4, 8): (4, 8), (0, 4): (0, 4)},  # the earlier packet wins
            # toward a node outside the router table (whose port key, if
            # unchecked, would alias node 3's LOCAL port)
            {(1, 2, 9): (2, 9)},
            {(12, 13): (12, 13)},  # starts outside the router table
        ],
    )
    def test_same_message_on_every_tier(self, monkeypatch, offenders):
        monkeypatch.delenv("REPRO_NO_JIT", raising=False)
        messages = {}
        for mode in self.MODES:
            monkeypatch.setenv("REPRO_JIT", mode)
            if mode != "off" and resolve_backend()[0] is None:
                continue
            sim = Simulator(
                self._network([list(path) for path in offenders]), engine="vector"
            )
            with pytest.raises(SimulationError) as excinfo:
                sim.run()
            first = next(p for p in sim.all_packets if tuple(p.path) in offenders)
            node, toward = offenders[tuple(first.path)]
            assert str(excinfo.value) == (
                f"node {node} has no output toward {toward} "
                f"(packet {first.packet_id})"
            )
            messages[mode] = str(excinfo.value)
        assert len(set(messages.values())) == 1


class TestAutoPolicy:
    def test_offered_load_sums_source_rates(self):
        network = _network(0.08)
        assert offered_load_per_node(network) == pytest.approx(0.08)

    def test_low_load_picks_event(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_JIT", "1")
        network = _network(AUTO_LOAD_THRESHOLD / 3)
        assert resolve_auto_engine(network) == "event"

    def test_high_load_picks_vector(self):
        network = _network(AUTO_LOAD_THRESHOLD * 3)
        assert resolve_auto_engine(network) == "vector"

    def test_jit_backend_lowers_the_crossover(self):
        """With a compiled backend resolved, loads between the two
        thresholds flip from event to vector; truly idle networks do not."""
        backend, reason = resolve_backend()
        if backend is None:
            pytest.skip(f"no JIT backend here: {reason}")
        between = (AUTO_LOAD_THRESHOLD_JIT + AUTO_LOAD_THRESHOLD) / 2
        assert resolve_auto_engine(_network(between)) == "vector"
        assert resolve_auto_engine(_network(AUTO_LOAD_THRESHOLD_JIT / 2)) == "event"

    def test_custom_router_model_falls_back_to_event(self):
        network = _network(AUTO_LOAD_THRESHOLD * 3)
        object.__setattr__(network.config, "router_model", "wormhole-custom-x")
        assert resolve_auto_engine(network) == "event"

    def test_auto_runs_end_to_end_at_high_load(self):
        report = Simulator(_network(0.25), engine="auto").run()
        assert report.packets_delivered > 0
