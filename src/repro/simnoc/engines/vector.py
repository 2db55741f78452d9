"""The vector engine: structure-of-arrays state, array kernels per cycle.

The cycle engine is object-oriented: every step is a cascade of method
calls, dict lookups and attribute chains over ``Router``/``InputPort``/
``OutputPort`` instances, and the hottest probe of all — "where does this
head flit go next?" — is an ``O(path length)`` ``list.index`` search per
look.  The event engine sidesteps that work at low load by skipping dead
cycles, but near saturation there are no dead cycles to skip and it
degenerates to the same per-object dispatch plus heap overhead.  Saturation
sweeps are exactly where the paper's bandwidth-constraint story lives, so
this engine attacks the constant factor instead of the cycle count.

At build time the whole network is flattened into preallocated
structure-of-arrays state:

* every input FIFO lane and output port gets a flat integer index; wiring
  (downstream input, upstream feeder, ejection) becomes int arrays;
* token buckets live in ``numpy`` float64 arrays — the per-cycle refill
  ``t = min(t + rate, cap)`` of *all* ports is two in-place ufunc calls
  instead of one method call per port (idle gaps replay the same update
  per skipped cycle, stopping once every bucket saturates at its cap,
  which is a fixpoint of the update — bit-identical to the per-port
  catch-up in :func:`repro.simnoc.router.refill_bucket_to`);
* head-of-line state (enter cycle, packet slot, sequence, hop position) is
  mirrored into flat arrays maintained on push/pop, so the per-cycle
  visibility probe reads two ints instead of unpacking a deque head;
* credits, wormhole owners, round-robin pointers and per-port flit
  counters are flat Python lists indexed by those same port ids;
* each packet is registered once at creation with its *resolved route*:
  a per-hop array of flat output-port indices, so the per-probe
  ``path.index`` search becomes a single ``O(1)`` indexed load.

The per-cycle advance then runs as one monolithic loop over the flat
state with zero per-flit method calls.  Wormhole arbitration is
irreducibly sequential (router order within a cycle is observable through
same-cycle credit returns), so the movement phase replays the cycle
engine's exact sweep discipline — ascending node id, mid-cycle insertion
of downstream receivers, round-robin pointers updated only on successful
arbitration — over the flattened arrays.

One deliberate relaxation keeps the request bookkeeping cheap: after a
port moves flits, the cycle engine recomputes the full request set; this
engine only re-examines the single input lane that was popped.  The
maintained set is therefore a *superset* of the true one (entries for
already-consumed heads linger), which is harmless by construction — the
set only gates whether an ownerless port *attempts* arbitration, and an
attempt with no actual requesting head fails without mutating any state
(round-robin pointers move on success only).

Equivalence contract (property-tested in ``tests/properties``): identical
reports *and* identical flit traces to the cycle engine, for both router
models (``wormhole`` and ``wormhole-vc``), below, at and above saturation.
The loop structure mirrors the proven active-set variant of the cycle
engine statement for statement; only the data representation differs.

**JIT tier.** On top of the flattened representation sits a compiled
kernel tier (:mod:`repro.simnoc.engines.jit`): when a numba or C backend
is available, ``run`` flattens the whole simulation — including the
precomputed open-loop injection schedule — into a
:class:`~repro.simnoc.engines.flat_kernel.KernelProgram` and advances it
in one compiled call, falling back to the interpreted loops below when no
backend resolves (or ``REPRO_NO_JIT=1``).  :func:`run_replicas` batches
many independent simulators into a single compiled invocation per router
model — the engine-level face of ``run_batch(executor="replica")``.
Every tier is bit-identical to the cycle engine on reports and traces.
"""

from __future__ import annotations

import heapq
from bisect import insort
from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SimulationError
from repro.simnoc.engines.base import register_engine
from repro.simnoc.engines.cycle import DEADLOCK_WINDOW
from repro.simnoc.router import LOCAL

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnoc.simulator import Simulator

#: Router models this engine knows how to flatten.
SUPPORTED_ROUTER_MODELS = ("wormhole", "wormhole-vc")

#: Head-mirror sentinel for an empty queue (no enter cycle can reach it).
_EMPTY = 1 << 60


class _FlitRef:
    """Just enough flit for :meth:`repro.simnoc.trace.TraceRecorder.record`."""

    __slots__ = ("packet", "sequence")

    def __init__(self, packet, sequence: int) -> None:
        self.packet = packet
        self.sequence = sequence


def _reject_unsupported_model(model: str) -> None:
    if model not in SUPPORTED_ROUTER_MODELS:
        raise SimulationError(
            f"vector engine flattens only the built-in router models "
            f"({', '.join(SUPPORTED_ROUTER_MODELS)}); router model "
            f"{model!r} must run on the 'cycle' or 'event' engine"
        )


@register_engine("vector")
class VectorEngine:
    """Structure-of-arrays backend for the built-in wormhole router models."""

    name = "vector"

    def run(self, sim: "Simulator") -> None:
        model = sim.network.config.effective_router_model
        _reject_unsupported_model(model)
        vc_mode = model == "wormhole-vc"

        from repro.simnoc.engines.flat_kernel import (
            KernelProgram,
            kernel_unsupported,
        )
        from repro.simnoc.engines.jit import resolve_backend

        backend, _ = resolve_backend()
        if backend is not None and kernel_unsupported(sim, vc_mode) is None:
            program = KernelProgram(sim, vc_mode)
            backend.run([program])
            program.finish(sim)
            return

        state = _FlatState(sim, vc_mode=vc_mode)
        if state.vc_mode:
            state.run_vc(sim)
        else:
            state.run_plain(sim)
        state.writeback(sim)


def run_replicas(sims: list["Simulator"]) -> list[BaseException | None]:
    """Advance many independent simulators as one batched kernel call.

    The compiled-replica face of the engine layer: every simulator that
    the kernel tier supports is flattened to a
    :class:`~repro.simnoc.engines.flat_kernel.KernelProgram` and the whole
    set advances in a single ``advance_batch`` invocation per router model
    present; the rest (no backend resolved, unsupported corner) run
    one-at-a-time through :class:`VectorEngine`, which is bit-identical.

    Per-slot isolation: one replica deadlocking (or failing to flatten)
    must not poison its batch-mates, so errors come back positionally —
    the returned list holds ``None`` for success or the exception for
    that slot, aligned with ``sims``.  Callers build reports afterwards
    via each simulator's ``_build_report``.
    """
    from repro.simnoc.engines.flat_kernel import (
        KernelProgram,
        kernel_unsupported,
    )
    from repro.simnoc.engines.jit import resolve_backend

    backend, _ = resolve_backend()
    errors: list[BaseException | None] = [None] * len(sims)
    batched: list[tuple[int, KernelProgram]] = []
    for index, sim in enumerate(sims):
        try:
            model = sim.network.config.effective_router_model
            _reject_unsupported_model(model)
            vc_mode = model == "wormhole-vc"
            if backend is None or kernel_unsupported(sim, vc_mode) is not None:
                VectorEngine().run(sim)
            else:
                batched.append((index, KernelProgram(sim, vc_mode)))
        except SimulationError as exc:
            errors[index] = exc
    if batched:
        backend.run([program for _, program in batched])
        for index, program in batched:
            try:
                program.finish(sims[index])
            except SimulationError as exc:
                errors[index] = exc
    return errors


def _missing_port_error(node: int, to_key: int, packet_id: int) -> SimulationError:
    """The typed error for a route hop no output port serves."""
    toward = "LOCAL" if to_key == LOCAL else to_key
    return SimulationError(
        f"node {node} has no output toward {toward} (packet {packet_id})"
    )


class _FlatState:
    """The flattened network: every dynamic quantity lives in a flat array.

    Port indexing: input port ``i`` of lane ``vc`` is ``queues[i * L + vc]``
    (``L == 1`` for the plain wormhole router); output port ``p``'s per-lane
    state is at ``p * L + vc``.  Node-keyed side tables (``node_ins``,
    ``node_outs``, counters) use the original node ids, which keeps the
    engine independent of how the topology numbers its mesh.
    """

    def __init__(self, sim: "Simulator", vc_mode: bool) -> None:
        network = sim.network
        config = network.config
        self.vc_mode = vc_mode
        self.num_vcs = config.num_vcs if vc_mode else 1
        L = self.num_vcs

        self.nodes = sorted(network.routers)
        in_index: dict[tuple[int, int], int] = {}
        out_index: dict[tuple[int, int], int] = {}
        in_specs: list[tuple[int, int]] = []  # (node, from_key)
        out_specs: list[tuple[int, int]] = []  # (node, to_key)
        for node in self.nodes:
            router = network.routers[node]
            for key in router.input_order:
                in_index[(node, key)] = len(in_specs)
                in_specs.append((node, key))
            for key in router.output_order:
                out_index[(node, key)] = len(out_specs)
                out_specs.append((node, key))
        self.in_index = in_index
        self.out_specs = out_specs

        num_in = len(in_specs)
        num_out = len(out_specs)

        # --- input side ---------------------------------------------------
        self.queues: list = [deque() for _ in range(num_in * L)]
        #: Head-of-line mirrors, indexed like ``queues``; kept in sync on
        #: every pop and every push into an empty queue.
        self.head_enter: list[int] = [_EMPTY] * (num_in * L)
        self.head_slot: list[int] = [-1] * (num_in * L)
        self.head_seq: list[int] = [-1] * (num_in * L)
        self.head_pos: list[int] = [0] * (num_in * L)
        self.in_cap: list[int] = [0] * num_in
        self.in_feeder: list[int] = [-1] * num_in
        for i, (node, from_key) in enumerate(in_specs):
            port = network.routers[node].inputs[from_key]
            self.in_cap[i] = port.vc_capacity if vc_mode else port.capacity
            if from_key != LOCAL:
                self.in_feeder[i] = out_index[(from_key, node)]
            if port.occupancy:
                raise SimulationError(
                    "vector engine requires a freshly built network "
                    f"(node {node} port {from_key} has buffered flits)"
                )

        # --- output side --------------------------------------------------
        rates = np.empty(num_out, dtype=np.float64)
        tokens = np.empty(num_out, dtype=np.float64)
        self.credits: list[float] = [0.0] * (num_out * L)
        self.owner: list[int] = [-1] * (num_out * L)
        self.owner_pkt: list[int] = [-1] * (num_out * L)
        self.rr_in: list[int] = [0] * (num_out * L)
        self.vc_rr: list[int] = [0] * num_out
        self.port_owned: list[int] = [0] * num_out
        self.carried: list[int] = [0] * num_out
        self.out_dest_in: list[int] = [-1] * num_out
        self.out_dest_node: list[int] = [0] * num_out
        self.out_to_key: list[int] = [0] * num_out
        for p, (node, to_key) in enumerate(out_specs):
            port = network.routers[node].outputs[to_key]
            rates[p] = port.rate
            tokens[p] = port.tokens
            self.out_to_key[p] = to_key
            if to_key != LOCAL:
                self.out_dest_in[p] = in_index[(to_key, node)]
                self.out_dest_node[p] = to_key
            else:
                self.out_dest_node[p] = node
            if vc_mode:
                for vc in range(L):
                    self.credits[p * L + vc] = port.vc_credits[vc]
                    self.rr_in[p * L + vc] = port.vc_rr_inputs[vc]
                self.vc_rr[p] = port.vc_rr
                fresh = all(o is None for o in port.vc_owner)
            else:
                self.credits[p] = port.credits
                self.rr_in[p] = port.rr_pointer
                fresh = port.owner is None
            self.carried[p] = port.flits_carried
            if not fresh or port.last_refill != -1:
                raise SimulationError(
                    "vector engine requires a freshly built network "
                    f"(node {node} output {to_key} already ran)"
                )
        self.out_rates = rates
        self.out_caps = np.maximum(1.0, rates) + 1.0
        self.out_tokens = tokens

        # --- port-key table: route hop (node, to_key) -> output port ------
        # Key ``node * (size + 1) + (to_key + 1)``, sorted so the kernel
        # tier resolves every route with one vectorized ``searchsorted``;
        # the interpreted tier probes the same keys one hop at a time.
        # Memory stays linear in the port count.
        size = max(self.nodes) + 1
        self.key_stride = size + 1
        keys = np.array(
            [node * self.key_stride + to_key + 1 for node, to_key in out_specs],
            dtype=np.int64,
        )
        order = np.argsort(keys)
        self.port_keys = keys[order]
        self.port_outs = order
        self._port_of_key = dict(zip(self.port_keys.tolist(), order.tolist()))

        # --- per-node views (lists indexed by node id) --------------------
        self.node_ins: list = [()] * size
        self.node_outs: list = [()] * size
        self.local_in: list[int] = [-1] * size
        for node in self.nodes:
            router = network.routers[node]
            self.node_ins[node] = [in_index[(node, key)] for key in router.input_order]
            self.node_outs[node] = [
                out_index[(node, key)] for key in router.output_order
            ]
            self.local_in[node] = in_index[(node, LOCAL)]
        self.node_buf: list[int] = [0] * size
        self.node_owned: list[int] = [0] * size

        # --- NI + packet tables -------------------------------------------
        self.ni_queue: list = [deque() for _ in range(size)]
        self.ni_injected: list[int] = [0] * size
        self.ni_ejected: list[int] = [0] * size
        self.delivered: list = [[] for _ in range(size)]
        self.pkt_objs: list = []
        self.pkt_outs: list[list[int]] = []
        self.pkt_last: list[int] = []
        self.pkt_vc: list[int] = []
        #: Last cycle the (vectorized) token refill ran; written back to the
        #: ports so a consumed network cannot silently be re-flattened.
        self.final_refill = -1

    # ------------------------------------------------------------------
    def resolve_route(self, path, packet_id: int) -> list[int]:
        """The path as flat output-port indices, read off the port-key table.

        Raises:
            SimulationError: when a hop has no output port toward the next
                node (or the path names a node outside the router table).
        """
        port_of_key = self._port_of_key
        stride = self.key_stride
        size = stride - 1
        outs = []
        for node, to_key in zip(path, [*path[1:], LOCAL]):
            if 0 <= node < size and LOCAL <= to_key < size:
                port = port_of_key.get(node * stride + to_key + 1)
                if port is not None:
                    outs.append(port)
                    continue
            raise _missing_port_error(node, to_key, packet_id)
        return outs

    def gather_routes(self, hops: list[int], hop_counts: np.ndarray):
        """Resolve many paths to output ports in one array gather.

        ``hops`` is the paths of ``pkt_objs`` concatenated in creation
        order and ``hop_counts[k]`` the length of path ``k``.  Each hop is
        keyed like :meth:`resolve_route` keys it and looked up with one
        ``searchsorted``.  Returns the CSR pair ``(route_off, route_val)``:
        path ``k``'s output ports are ``route_val[route_off[k]:route_off[k + 1]]``.

        Raises:
            SimulationError: the :meth:`resolve_route` message, naming the
                first packet in creation order with an unserved hop.
        """
        nodes = np.array(hops, dtype=np.int64)
        route_off = np.zeros(len(hop_counts) + 1, dtype=np.int64)
        np.cumsum(hop_counts, out=route_off[1:])
        to_keys = np.empty_like(nodes)
        to_keys[:-1] = nodes[1:]
        to_keys[route_off[1:][hop_counts > 0] - 1] = LOCAL
        stride = self.key_stride
        size = stride - 1
        keys = nodes * stride + to_keys + 1
        port_keys = self.port_keys
        at = np.searchsorted(port_keys, keys)
        np.minimum(at, len(port_keys) - 1, out=at)
        found = (
            (port_keys[at] == keys)
            & (nodes >= 0)
            & (nodes < size)
            & (to_keys >= LOCAL)
            & (to_keys < size)
        )
        if not found.all():
            hop = int(np.argmin(found))
            slot = int(np.searchsorted(route_off, hop, side="right")) - 1
            raise _missing_port_error(
                int(nodes[hop]), int(to_keys[hop]), self.pkt_objs[slot].packet_id
            )
        return route_off, self.port_outs[at]

    def offer_packet(self, packet) -> int:
        """Register a packet: resolve its route once, queue its flits."""
        vc = packet.commodity_index % self.num_vcs
        packet.vc = vc
        outs = self.resolve_route(packet.path, packet.packet_id)
        slot = len(self.pkt_objs)
        self.pkt_objs.append(packet)
        self.pkt_outs.append(outs)
        self.pkt_last.append(packet.num_flits - 1)
        self.pkt_vc.append(vc)
        self.ni_queue[packet.src_node].extend(
            (slot, seq) for seq in range(packet.num_flits)
        )
        return slot

    # ------------------------------------------------------------------
    def run_plain(self, sim: "Simulator") -> None:
        """The plain-wormhole advance loop (``num_vcs == 1`` layout)."""
        network = sim.network
        config = network.config
        trace = sim.trace
        delay = config.router_delay
        measure_start = config.warmup_cycles
        measure_end = measure_start + config.measure_cycles
        total_cycles = config.total_cycles

        queues = self.queues
        head_enter = self.head_enter
        head_slot = self.head_slot
        head_seq = self.head_seq
        head_pos = self.head_pos
        in_cap = self.in_cap
        feeder = self.in_feeder
        tokens = self.out_tokens
        rates = self.out_rates
        caps = self.out_caps
        credits = self.credits
        owner = self.owner
        owner_pkt = self.owner_pkt
        rr_in = self.rr_in
        carried = self.carried
        dest_in = self.out_dest_in
        dest_node = self.out_dest_node
        out_to_key = self.out_to_key
        node_ins = self.node_ins
        node_outs = self.node_outs
        local_in = self.local_in
        node_buf = self.node_buf
        node_owned = self.node_owned
        ni_queue = self.ni_queue
        ni_injected = self.ni_injected
        ni_ejected = self.ni_ejected
        delivered = self.delivered
        pkt_objs = self.pkt_objs
        pkt_outs = self.pkt_outs
        pkt_last = self.pkt_last
        offer = self.offer_packet
        next_packet_id = sim.next_packet_id
        all_packets_append = sim.all_packets.append

        sources = network.sources
        heappush = heapq.heappush
        heappop = heapq.heappop
        event_heap = [
            (source.next_event_cycle, index) for index, source in enumerate(sources)
        ]
        heapq.heapify(event_heap)

        np_add = np.add
        np_minimum = np.minimum

        active_routers: set[int] = set()
        active_nis: set[int] = set()
        buffered_total = 0
        last_progress = 0
        last_refill = -1

        cycle = 0
        while cycle < total_cycles:
            if not active_routers and not active_nis:
                # Fully idle: nothing can happen before the next injection.
                if not event_heap or event_heap[0][0] >= total_cycles:
                    break
                if event_heap[0][0] > cycle:
                    cycle = event_heap[0][0]

            while event_heap and event_heap[0][0] <= cycle:
                _, index = heappop(event_heap)
                source = sources[index]
                for packet in source.packets_for_cycle(cycle, next_packet_id):
                    packet.measured = measure_start <= cycle < measure_end
                    all_packets_append(packet)
                    offer(packet)
                    active_nis.add(packet.src_node)
                heappush(event_heap, (source.next_event_cycle, index))

            moved = 0
            if active_nis:
                drained = None
                for node in sorted(active_nis):
                    backlog = ni_queue[node]
                    if backlog:
                        li = local_in[node]
                        in_queue = queues[li]
                        if len(in_queue) < in_cap[li]:
                            slot, seq = backlog.popleft()
                            if seq == 0:
                                packet = pkt_objs[slot]
                                if packet.injected_cycle is None:
                                    packet.injected_cycle = cycle
                            if not in_queue:
                                head_enter[li] = cycle
                                head_slot[li] = slot
                                head_seq[li] = seq
                                head_pos[li] = 0
                            in_queue.append((cycle, slot, seq, 0))
                            node_buf[node] += 1
                            buffered_total += 1
                            ni_injected[node] += 1
                            moved += 1
                            active_routers.add(node)
                    if not backlog:
                        if drained is None:
                            drained = [node]
                        else:
                            drained.append(node)
                if drained:
                    for node in drained:
                        active_nis.discard(node)

            if active_routers:
                # Vectorized token refill: one `min(t + rate, cap)` update
                # per pending cycle across every port at once (identical to
                # the per-port replay; cap is a fixpoint, so once every
                # bucket saturates the remaining iterations are no-ops).
                pending = cycle - last_refill
                last_refill = cycle
                if pending == 1:
                    np_add(tokens, rates, out=tokens)
                    np_minimum(tokens, caps, out=tokens)
                else:
                    while pending > 0:
                        np_add(tokens, rates, out=tokens)
                        np_minimum(tokens, caps, out=tokens)
                        pending -= 1
                        if pending and (tokens == caps).all():
                            break

                limit = cycle - delay
                sweep = sorted(active_routers)
                swept = set(sweep)
                sweep_len = len(sweep)
                spos = 0
                while spos < sweep_len:
                    node = sweep[spos]
                    ins = node_ins[node]

                    requested = None
                    for i in ins:
                        if head_enter[i] <= limit and head_seq[i] == 0:
                            out = pkt_outs[head_slot[i]][head_pos[i]]
                            if requested is None:
                                requested = {out}
                            else:
                                requested.add(out)
                    if requested is None and node_owned[node] == 0:
                        # No visible head and no allocated worm: every port
                        # would be skipped (token refills already applied).
                        spos += 1
                        continue
                    nin = len(ins)

                    for p in node_outs[node]:
                        ow = owner[p]
                        if ow < 0:
                            if requested is None or p not in requested:
                                continue
                            start = rr_in[p]
                            for offset in range(nin):
                                j = start + offset
                                if j >= nin:
                                    j -= nin
                                i = ins[j]
                                if (
                                    head_enter[i] <= limit
                                    and head_seq[i] == 0
                                    and pkt_outs[head_slot[i]][head_pos[i]] == p
                                ):
                                    rr_in[p] = j + 1 if j + 1 < nin else 0
                                    owner[p] = i
                                    owner_pkt[p] = head_slot[i]
                                    node_owned[node] += 1
                                    ow = i
                                    break
                            if ow < 0:
                                continue

                        # Cheap list-backed checks first; the numpy token
                        # read is deferred until a flit could actually move
                        # (blocked worms dominate near saturation).
                        my_pkt = owner_pkt[p]
                        if (
                            credits[p] < 1.0
                            or head_enter[ow] > limit
                            or head_slot[ow] != my_pkt
                        ):
                            continue
                        tk = float(tokens[p])
                        if tk < 1.0:
                            continue
                        advanced = 0
                        my_queue = queues[ow]
                        my_last = pkt_last[my_pkt]
                        fdr = feeder[ow]
                        di = dest_in[p]
                        while (
                            tk >= 1.0
                            and credits[p] >= 1.0
                            and head_enter[ow] <= limit
                            and head_slot[ow] == my_pkt
                        ):
                            seq = head_seq[ow]
                            pos = head_pos[ow]
                            my_queue.popleft()
                            if my_queue:
                                (
                                    head_enter[ow],
                                    head_slot[ow],
                                    head_seq[ow],
                                    head_pos[ow],
                                ) = my_queue[0]
                            else:
                                head_enter[ow] = _EMPTY
                            node_buf[node] -= 1
                            buffered_total -= 1
                            if fdr >= 0:
                                credits[fdr] += 1.0
                            tk -= 1.0
                            credits[p] -= 1.0
                            carried[p] += 1
                            advanced += 1
                            if trace is not None:
                                trace.record(
                                    node,
                                    out_to_key[p],
                                    _FlitRef(pkt_objs[my_pkt], seq),
                                    cycle,
                                )
                            if di < 0:
                                ni_ejected[node] += 1
                                if seq == my_last:
                                    packet = pkt_objs[my_pkt]
                                    packet.delivered_cycle = cycle
                                    delivered[node].append(packet)
                                    owner[p] = -1
                                    owner_pkt[p] = -1
                                    node_owned[node] -= 1
                                    break
                            else:
                                dn = dest_node[p]
                                down_queue = queues[di]
                                if not down_queue:
                                    head_enter[di] = cycle
                                    head_slot[di] = my_pkt
                                    head_seq[di] = seq
                                    head_pos[di] = pos + 1
                                down_queue.append((cycle, my_pkt, seq, pos + 1))
                                node_buf[dn] += 1
                                buffered_total += 1
                                active_routers.add(dn)
                                if dn > node and dn not in swept:
                                    insort(sweep, dn, spos + 1)
                                    swept.add(dn)
                                    sweep_len += 1
                                if seq == my_last:
                                    owner[p] = -1
                                    owner_pkt[p] = -1
                                    node_owned[node] -= 1
                                    break
                        if advanced:
                            tokens[p] = tk
                            moved += advanced
                            # The pops may have exposed a new head at the
                            # owner input; later-ordered ports must see its
                            # request this same cycle.  (Entries for consumed
                            # heads may linger: a superset is harmless, see
                            # the module docstring.)
                            if head_enter[ow] <= limit and head_seq[ow] == 0:
                                out = pkt_outs[head_slot[ow]][head_pos[ow]]
                                if requested is None:
                                    requested = {out}
                                else:
                                    requested.add(out)
                    spos += 1

                for node in sweep:
                    if node_buf[node] == 0 and node_owned[node] == 0:
                        active_routers.discard(node)

            if moved:
                last_progress = cycle
            elif (
                cycle - last_progress > DEADLOCK_WINDOW
                and buffered_total > 0
            ):
                raise SimulationError(
                    f"deadlock: no flit moved since cycle {last_progress} "
                    f"with {buffered_total} flits buffered"
                )
            cycle += 1
        self.final_refill = last_refill

    # ------------------------------------------------------------------
    def run_vc(self, sim: "Simulator") -> None:
        """The VC-wormhole advance loop (``L`` lanes per physical port)."""
        network = sim.network
        config = network.config
        trace = sim.trace
        delay = config.router_delay
        measure_start = config.warmup_cycles
        measure_end = measure_start + config.measure_cycles
        total_cycles = config.total_cycles
        L = self.num_vcs

        queues = self.queues
        head_enter = self.head_enter
        head_slot = self.head_slot
        head_seq = self.head_seq
        head_pos = self.head_pos
        in_cap = self.in_cap
        feeder = self.in_feeder
        tokens = self.out_tokens
        rates = self.out_rates
        caps = self.out_caps
        credits = self.credits
        owner = self.owner
        owner_pkt = self.owner_pkt
        rr_in = self.rr_in
        vc_rr = self.vc_rr
        port_owned = self.port_owned
        carried = self.carried
        dest_in = self.out_dest_in
        dest_node = self.out_dest_node
        out_to_key = self.out_to_key
        node_ins = self.node_ins
        node_outs = self.node_outs
        local_in = self.local_in
        node_buf = self.node_buf
        node_owned = self.node_owned
        ni_queue = self.ni_queue
        ni_injected = self.ni_injected
        ni_ejected = self.ni_ejected
        delivered = self.delivered
        pkt_objs = self.pkt_objs
        pkt_outs = self.pkt_outs
        pkt_last = self.pkt_last
        pkt_vc = self.pkt_vc
        offer = self.offer_packet
        next_packet_id = sim.next_packet_id
        all_packets_append = sim.all_packets.append

        sources = network.sources
        heappush = heapq.heappush
        heappop = heapq.heappop
        event_heap = [
            (source.next_event_cycle, index) for index, source in enumerate(sources)
        ]
        heapq.heapify(event_heap)

        np_add = np.add
        np_minimum = np.minimum

        active_routers: set[int] = set()
        active_nis: set[int] = set()
        buffered_total = 0
        last_progress = 0
        last_refill = -1

        cycle = 0
        while cycle < total_cycles:
            if not active_routers and not active_nis:
                if not event_heap or event_heap[0][0] >= total_cycles:
                    break
                if event_heap[0][0] > cycle:
                    cycle = event_heap[0][0]

            while event_heap and event_heap[0][0] <= cycle:
                _, index = heappop(event_heap)
                source = sources[index]
                for packet in source.packets_for_cycle(cycle, next_packet_id):
                    packet.measured = measure_start <= cycle < measure_end
                    all_packets_append(packet)
                    offer(packet)
                    active_nis.add(packet.src_node)
                heappush(event_heap, (source.next_event_cycle, index))

            moved = 0
            if active_nis:
                drained = None
                for node in sorted(active_nis):
                    backlog = ni_queue[node]
                    if backlog:
                        slot, seq = backlog[0]
                        lane = pkt_vc[slot]
                        li = local_in[node]
                        lq = li * L + lane
                        in_queue = queues[lq]
                        if len(in_queue) < in_cap[li]:
                            backlog.popleft()
                            if seq == 0:
                                packet = pkt_objs[slot]
                                if packet.injected_cycle is None:
                                    packet.injected_cycle = cycle
                            if not in_queue:
                                head_enter[lq] = cycle
                                head_slot[lq] = slot
                                head_seq[lq] = seq
                                head_pos[lq] = 0
                            in_queue.append((cycle, slot, seq, 0))
                            node_buf[node] += 1
                            buffered_total += 1
                            ni_injected[node] += 1
                            moved += 1
                            active_routers.add(node)
                    if not backlog:
                        if drained is None:
                            drained = [node]
                        else:
                            drained.append(node)
                if drained:
                    for node in drained:
                        active_nis.discard(node)

            if active_routers:
                pending = cycle - last_refill
                last_refill = cycle
                if pending == 1:
                    np_add(tokens, rates, out=tokens)
                    np_minimum(tokens, caps, out=tokens)
                else:
                    while pending > 0:
                        np_add(tokens, rates, out=tokens)
                        np_minimum(tokens, caps, out=tokens)
                        pending -= 1
                        if pending and (tokens == caps).all():
                            break

                limit = cycle - delay
                sweep = sorted(active_routers)
                swept = set(sweep)
                sweep_len = len(sweep)
                spos = 0
                while spos < sweep_len:
                    node = sweep[spos]
                    ins = node_ins[node]

                    requested = None
                    for i in ins:
                        base = i * L
                        for vc in range(L):
                            iq = base + vc
                            if head_enter[iq] <= limit and head_seq[iq] == 0:
                                out = pkt_outs[head_slot[iq]][head_pos[iq]]
                                if requested is None:
                                    requested = {out: {vc}}
                                elif out in requested:
                                    requested[out].add(vc)
                                else:
                                    requested[out] = {vc}
                    if requested is None and node_owned[node] == 0:
                        # No visible lane head and no allocated worm: every
                        # port would be skipped (refills already applied).
                        spos += 1
                        continue
                    nin = len(ins)

                    for p in node_outs[node]:
                        wanted = None if requested is None else requested.get(p)
                        if wanted is None and port_owned[p] == 0:
                            continue
                        base_p = p * L
                        if wanted is not None:
                            # Lane allocation: each requested free lane
                            # arbitrates independently, ascending lane id.
                            for vc in sorted(wanted):
                                pl = base_p + vc
                                if owner[pl] >= 0:
                                    continue
                                start = rr_in[pl]
                                for offset in range(nin):
                                    j = start + offset
                                    if j >= nin:
                                        j -= nin
                                    iq = ins[j] * L + vc
                                    if (
                                        head_enter[iq] <= limit
                                        and head_seq[iq] == 0
                                        and pkt_outs[head_slot[iq]][head_pos[iq]] == p
                                    ):
                                        rr_in[pl] = j + 1 if j + 1 < nin else 0
                                        owner[pl] = ins[j]
                                        owner_pkt[pl] = head_slot[iq]
                                        port_owned[p] += 1
                                        node_owned[node] += 1
                                        break

                        # Switch traversal: the shared token budget
                        # round-robins across lanes flit by flit.  The numpy
                        # token read is deferred until a lane actually has a
                        # movable flit (blocked worms dominate at saturation).
                        advanced = 0
                        popped = None
                        di = dest_in[p]
                        dn = dest_node[p]
                        tk = -1.0
                        starved = False
                        while not starved:
                            progressed = False
                            start_vc = vc_rr[p]
                            for offset in range(L):
                                vc = start_vc + offset
                                if vc >= L:
                                    vc -= L
                                pl = base_p + vc
                                ow = owner[pl]
                                if ow < 0 or credits[pl] < 1.0:
                                    continue
                                oq = ow * L + vc
                                my_pkt = owner_pkt[pl]
                                if head_enter[oq] > limit or head_slot[oq] != my_pkt:
                                    continue
                                if tk < 0.0:
                                    tk = float(tokens[p])
                                if tk < 1.0:
                                    starved = True
                                    break
                                seq = head_seq[oq]
                                pos = head_pos[oq]
                                queue = queues[oq]
                                queue.popleft()
                                if queue:
                                    (
                                        head_enter[oq],
                                        head_slot[oq],
                                        head_seq[oq],
                                        head_pos[oq],
                                    ) = queue[0]
                                else:
                                    head_enter[oq] = _EMPTY
                                if popped is None:
                                    popped = {oq}
                                else:
                                    popped.add(oq)
                                node_buf[node] -= 1
                                buffered_total -= 1
                                fdr = feeder[ow]
                                if fdr >= 0:
                                    credits[fdr * L + vc] += 1.0
                                tk -= 1.0
                                credits[pl] -= 1.0
                                carried[p] += 1
                                advanced += 1
                                if trace is not None:
                                    trace.record(
                                        node,
                                        out_to_key[p],
                                        _FlitRef(pkt_objs[my_pkt], seq),
                                        cycle,
                                    )
                                if di < 0:
                                    ni_ejected[node] += 1
                                    if seq == pkt_last[my_pkt]:
                                        packet = pkt_objs[my_pkt]
                                        packet.delivered_cycle = cycle
                                        delivered[node].append(packet)
                                        owner[pl] = -1
                                        owner_pkt[pl] = -1
                                        port_owned[p] -= 1
                                        node_owned[node] -= 1
                                else:
                                    dq = di * L + vc
                                    down_queue = queues[dq]
                                    if not down_queue:
                                        head_enter[dq] = cycle
                                        head_slot[dq] = my_pkt
                                        head_seq[dq] = seq
                                        head_pos[dq] = pos + 1
                                    down_queue.append((cycle, my_pkt, seq, pos + 1))
                                    node_buf[dn] += 1
                                    buffered_total += 1
                                    active_routers.add(dn)
                                    if dn > node and dn not in swept:
                                        insort(sweep, dn, spos + 1)
                                        swept.add(dn)
                                        sweep_len += 1
                                    if seq == pkt_last[my_pkt]:
                                        owner[pl] = -1
                                        owner_pkt[pl] = -1
                                        port_owned[p] -= 1
                                        node_owned[node] -= 1
                                vc_rr[p] = vc + 1 if vc + 1 < L else 0
                                progressed = True
                                break
                            if not progressed:
                                break
                        if advanced:
                            tokens[p] = tk
                            moved += advanced
                            # Newly exposed heads on the popped lanes must be
                            # visible to later-ordered ports this same cycle
                            # (supersets are harmless, see module docstring).
                            for oq in popped:
                                if head_enter[oq] <= limit and head_seq[oq] == 0:
                                    out = pkt_outs[head_slot[oq]][head_pos[oq]]
                                    vc = oq % L
                                    if requested is None:
                                        requested = {out: {vc}}
                                    elif out in requested:
                                        requested[out].add(vc)
                                    else:
                                        requested[out] = {vc}
                    spos += 1

                for node in sweep:
                    if node_buf[node] == 0 and node_owned[node] == 0:
                        active_routers.discard(node)

            if moved:
                last_progress = cycle
            elif (
                cycle - last_progress > DEADLOCK_WINDOW
                and buffered_total > 0
            ):
                raise SimulationError(
                    f"deadlock: no flit moved since cycle {last_progress} "
                    f"with {buffered_total} flits buffered"
                )
            cycle += 1
        self.final_refill = last_refill

    # ------------------------------------------------------------------
    def writeback(self, sim: "Simulator") -> None:
        """Copy the observable counters back onto the model objects.

        The report builder reads delivered packets from the NIs and
        ``flits_carried`` from the router output ports.  Token-bucket state
        is also written back: it costs nothing and arms the freshness guard
        (``last_refill != -1``) against re-flattening a consumed network.
        """
        network = sim.network
        for p, (node, to_key) in enumerate(self.out_specs):
            port = network.routers[node].outputs[to_key]
            port.flits_carried = self.carried[p]
            port.tokens = float(self.out_tokens[p])
            port.last_refill = self.final_refill
        for node in self.nodes:
            interface = network.interfaces[node]
            interface.delivered_packets.extend(self.delivered[node])
            interface.flits_injected += self.ni_injected[node]
            interface.flits_ejected += self.ni_ejected[node]
