"""Deterministic discrete-event simulator for the TDMA multi-hop MAC.

One global event heap keyed by integer nanoseconds drives every node;
ties break on (event priority, node id, push order), so a run is a pure
function of (scenario, seed). Clocks are per-node affine maps with
constant ppm drift: a node schedules the slots *within* a frame at the
nominal tick rate (the frame-boundary reference it just received from
its parent corrects first-order error, leaving intra-frame drift second
order), while frame-to-frame extrapolation — the beacon window position
and the flywheel after a miss — runs on the node's own drifted crystal.
That split is exactly the regime the guard-time bound T_g/2 >= D_R*T_F
protects.

A synchronized node's fixed work for a frame is set up when the frame is
scheduled: its beacon goes on the air, and its child-uplink, join and
(while a JoinAccept is due) own-downlink windows open. A slot service
that reads a queue at slot time (own uplink, child downlink, LoRaWAN, the
relay's JoinAccept answer) waits off the heap until one rule (_wake) finds
work for its slot in its queue, while the slot is still ahead. The
application sample is a heap event every collection period. A node's one
open parent-beacon window is a field of its own, and closes by event,
since the close decides between a miss, the flywheel and a desync. Every
other receive window is plain: it closes at its end time, so its receive
interval is recorded when it opens. Every transmission joins one on-air
list when it is scheduled, and delivery reads the ones that may overlap
the packet it resolves. Only a sender that is listening gets a start
event, which cuts its listen interval; it listens again from the
transmission's end (half-duplex).

Radio model: one channel, zero propagation delay, no capture
(overlapping transmissions at a listener destroy each other), per-link
Bernoulli packet error rate drawn at transmission end in listener-id
order. The relay's LoRaWAN uplink reaches no node: it is logged, not
delivered.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter, defaultdict
from collections.abc import Container, Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .phy import lorawan_time_on_air, time_on_air
from .protocol import (
    ACK,
    DESYNCHRONIZED,
    JOINING,
    JOIN_BACKOFF_SLOTS,
    JOIN_RETRY_FRAMES,
    SYNCHRONIZED,
    UNJOINED,
    UP_DATA,
    BecameSynchronized,
    CandidateBeacon,
    FrameSchedule,
    MacPacket,
    NodeState,
    PacketKind,
    QueueDrop,
    Resync,
    SendAck,
    SendJoinAccept,
    SlotTiming,
    best_parent,
    enqueue_down,
    enqueue_up,
    forwarding_step,
    handle_rx,
    join_procedure,
    make_beacon,
    make_relay,
)
from .scenario import Scenario
from .timebase import GUARD_WIDEN_FACTOR, MAX_BEACON_MISSES, VirtualClock, local_tick_duration, resync

LORAWAN_CHANNEL = "lorawan"

# Event priorities: frame bookkeeping first, then radio edges in causal
# order, then slot services and timers.
_P_FRAME = 0
_P_TX_START = 1
_P_TX_END = 2
_P_CLOSE = 3
_P_SVC = 4


class Transmission:
    """One packet on the air; compared by identity, so two with equal
    fields stay distinct when delivery skips the one it resolves."""

    __slots__ = ("sender", "packet", "start", "end", "frame", "slot")

    def __init__(
        self, sender: int, packet: MacPacket, start: float, end: float, frame: int, slot: int
    ) -> None:
        if end <= start:
            raise ValueError("transmission must have positive airtime")
        self.sender = sender
        self.packet = packet
        self.start = start
        self.end = end
        self.frame = frame
        self.slot = slot


# The trace records and receive windows check nothing, so the engine builds
# them with ``tuple.__new__(Cls, (...))``: the generated ``__new__`` is a
# Python call on top of the tuple (PacketEvent 0.98 against 0.61 µs). A record
# built that way skips the arity check, which a test over the corpus makes
# instead.
class _Window(NamedTuple):
    """A receive window of one node. Each one is built once and compared by
    identity (``rt.beacon is not win``), never by value."""

    open_t: float
    close_t: float
    purpose: str
    frame: int | None  # the frame of a beacon window; a plain one has none


class PacketEvent(NamedTuple):
    t: float
    node: int
    event: str
    kind: str
    sender: int
    dest: int
    origin: int
    seq: int
    size_bytes: int
    channel: str
    frame: int
    slot: int


class SyncSample(NamedTuple):
    frame: int
    node: int
    t_syn: float
    resynced: bool


class QueueSample(NamedTuple):
    frame: int
    node: int
    uplink_depth: int  # the relay's is its LoRaWAN backlog
    downlink_depth: int


class ProtocolEvent(NamedTuple):
    t: float
    node: int
    event: str
    detail: str


@dataclass
class SimulationTrace:
    """Everything a run produced, ready for measurement and export.

    A trace stays read-only after ``run()``: its records are immutable, and
    the measures read per-node views of its lists, each built once on first
    use, which would go stale if a list changed.
    """

    scenario: Scenario
    end_time: float
    radio_intervals: list[tuple[int, str, float, float]]
    packet_events: list[PacketEvent]
    sync_samples: list[SyncSample]
    queue_samples: list[QueueSample]
    protocol_events: list[ProtocolEvent]
    app_intervals: dict[int, list[tuple[float, float]]]
    final_modes: dict[int, str]
    parents: dict[int, int]
    addresses: dict[int, int]
    protocol_errors: dict[int, int]

    @cached_property
    def intervals_by_node(self) -> dict[int, list[tuple[int, str, float, float]]]:
        """``radio_intervals`` grouped by node, each list in trace order."""
        return dict(_group_by_node(self.radio_intervals))

    @cached_property
    def node_measures(self) -> dict[int, tuple[float, float | None]]:
        """Per node, its whole-run duty cycle and mean power (None without a
        power profile): what ``summary.csv`` and the CLI report."""
        power = self.scenario.power
        return {
            nid: (
                measure_duty_cycle(self, nid, self.end_time),
                None if power is None else measure_avg_power(self, nid, power),
            )
            for nid in sorted(self.final_modes)
        }

    @cached_property
    def resynced_by_node(self) -> dict[int, dict[int, float]]:
        """Per node, ``{frame: t_syn}`` of its resynced sync samples; a later
        sample of the same frame replaces an earlier one."""
        by_node: dict[int, dict[int, float]] = defaultdict(dict)
        for s in self.sync_samples:
            if s.resynced:
                by_node[s.node][s.frame] = s.t_syn
        return dict(by_node)


_KIND_NAMES = {k: k.name.lower() for k in PacketKind}


def _packet_columns(pkt: MacPacket, channel: str, frame: int, slot: int) -> tuple:
    """A packet's ``PacketEvent`` columns after the event name."""
    return (
        _KIND_NAMES[pkt.kind], pkt.sender_id, pkt.dest_id, pkt.origin_id, pkt.seq,
        pkt.onair_bytes, channel, frame, slot,
    )


def _group_by_node(
    rows: list[tuple[int, str, float, float]],
) -> defaultdict[int, list[tuple[int, str, float, float]]]:
    """Interval rows grouped by their node, each group in input order."""
    by_node: defaultdict[int, list[tuple[int, str, float, float]]] = defaultdict(list)
    for row in rows:
        by_node[row[0]].append(row)
    return by_node


class _NodeRt:
    """Engine-side runtime wrapped around one protocol NodeState."""

    def __init__(self, st: NodeState, frame_ticks: int):
        self.st = st
        self.tick = local_tick_duration(st.clock)
        self.frame_local = frame_ticks * self.tick
        self.anchor: float = 0.0
        self.sync_slot: int = 0
        self.eff_guard: float = 0.0
        self.listen_from: float | None = None
        # The open parent-beacon window, which closes by event; every window
        # in ``windows`` is plain and closes at its close_t.
        self.beacon: _Window | None = None
        self.windows: list[_Window] = []
        self.candidates: dict[int, tuple[float, float, int]] = {}
        self.attempt_scheduled = False
        self.app_phase: int | None = None
        self.pending_accept_tx: list[MacPacket] = []
        # This frame's slot services that are not on the heap, by slot: each
        # waits for its queue to get work while its instant is ahead (_wake).
        self.due: dict[int, tuple] = {}


class Simulator:
    def __init__(self, scenario: Scenario):
        self.sc = scenario
        self.sched: FrameSchedule = scenario.schedule
        self.timing: SlotTiming = scenario.timing
        self.rng = random.Random(scenario.seed)
        self.t_slot = scenario.slot_seconds
        self.t_frame = scenario.frame_seconds
        self.t_join_accept = scenario.join.accept_offset(scenario.timing)
        self.base_guard = base_guard = scenario.guard.base_guard
        self.listen_until_frame = scenario.join.listen_until_frame
        self._toa_cache: dict[int, float] = {}
        self._lorawan_toa_cache: dict[int, float] = {}
        self.end_time = scenario.frames * self.t_frame

        self.nodes: dict[int, _NodeRt] = {}
        for cfg in scenario.nodes:
            clock = VirtualClock(
                tick_rate_hz=scenario.tick_rate_hz, drift_ppm=cfg.drift_ppm
            )
            kw = dict(clock=clock, queue_capacity=scenario.queue_capacity)
            if cfg.is_relay:
                st = make_relay(cfg.node_id, self.sched, **kw)
            else:
                st = NodeState(node_id=cfg.node_id, **kw)
            rt = _NodeRt(st, self.sched.frame_ticks)
            rt.eff_guard = base_guard
            self.nodes[cfg.node_id] = rt
        self.relay_id = scenario.relay_id
        # Who hears each sender: (node_id, runtime, link PER) in node-id order.
        self.hearers: dict[int, list[tuple[int, _NodeRt, float]]] = {n: [] for n in self.nodes}
        for (src, dst), (per, _rssi) in scenario.links.items():
            self.hearers[src].append((dst, self.nodes[dst], per))
        for hearers in self.hearers.values():
            hearers.sort()  # by node id alone: a sender's link ends are distinct

        self.heap: list = []
        self._seq = 0
        # Every transmission put on the air, pruned to those that may still
        # overlap one delivered later (see _deliver).
        self.on_air: list[Transmission] = []
        self.radio_intervals: list[tuple[int, str, float, float]] = []
        self.packet_events: list[PacketEvent] = []
        self.sync_samples: list[SyncSample] = []
        self.queue_samples: list[QueueSample] = []
        self.protocol_events: list[ProtocolEvent] = []
        self.app_intervals: dict[int, list[tuple[float, float]]] = {
            n: [] for n in self.nodes
        }

    # ------------------------------------------------------------ setup

    def _toa(self, onair_bytes: int) -> float:
        t = self._toa_cache.get(onair_bytes)
        if t is None:
            t = self._toa_cache[onair_bytes] = time_on_air(onair_bytes, self.sc.radio)
        return t

    def _lorawan_toa(self, payload_bytes: int) -> float:
        t = self._lorawan_toa_cache.get(payload_bytes)
        if t is None:
            t = self._lorawan_toa_cache[payload_bytes] = lorawan_time_on_air(payload_bytes, self.sc.radio)
        return t

    def _join_req_offset(self, backoff: int) -> float:
        return self.timing.t_offset + self.timing.t_guard / 2.0 + backoff * self.sc.join.backoff_step

    # ------------------------------------------------------- event plumbing

    def _push(self, t: float, prio: int, node_id: int, fn, *args) -> None:
        self._seq += 1
        heapq.heappush(self.heap, (round(t * 1e9), prio, node_id, self._seq, fn, args))

    def run(self) -> SimulationTrace:
        relay = self.nodes[self.relay_id]
        relay.app_phase = 0
        for rt in self.nodes.values():
            if rt.st.node_id != self.relay_id:
                rt.listen_from = 0.0
        self._push(0.0, _P_FRAME, self.relay_id, self._ev_relay_frame, relay, 0, 0.0)
        end_ns = round(self.end_time * 1e9)
        try:
            while self.heap:
                t_ns, _prio, _nid, _seq, fn, args = heapq.heappop(self.heap)
                if t_ns > end_ns:
                    break
                fn(*args)
        finally:
            # Events left past the end, and services still waiting off the
            # heap, hold bound methods of this simulator: a reference cycle
            # that would keep the whole run alive until the cycle collector
            # ran, also when a handler raised. cli.cmd_simulate pauses the
            # collector for the whole job and relies on this.
            self.heap.clear()
            for rt in self.nodes.values():
                rt.due.clear()
        return self._finalize()

    # ------------------------------------------------------- frame driving

    def _ev_relay_frame(self, rt: _NodeRt, frame: int, anchor: float) -> None:
        if frame >= self.sc.frames:
            return
        self._enter_frame(rt, frame, anchor, resynced=True)
        self._push(
            anchor + rt.frame_local,
            _P_FRAME,
            rt.st.node_id,
            self._ev_relay_frame,
            rt,
            frame + 1,
            anchor + rt.frame_local,
        )

    def _enter_frame(self, rt: _NodeRt, frame: int, anchor: float, resynced: bool) -> None:
        """Start a synchronized node's frame at ``anchor``: the relay's own
        frame, a resync on the parent's beacon, or the flywheel after a miss."""
        rt.anchor = anchor
        self._record_frame_samples(rt, frame, anchor, resynced)
        self._schedule_frame(rt, frame, anchor)

    def _resync(self, rt: _NodeRt, ref: float, frame: int) -> float:
        """Re-anchor the node's clock on its parent's beacon reference of
        ``frame``, reset the guard, and return the new frame anchor."""
        st = rt.st
        expected_tick = frame * self.sched.frame_ticks + rt.sync_slot * self.sched.ticks_per_slot
        st.clock = resync(st.clock, ref, expected_tick)
        rt.eff_guard = self.base_guard
        return st.clock.epoch_global

    def _record_frame_samples(
        self, rt: _NodeRt, frame: int, anchor: float, resynced: bool
    ) -> None:
        t_syn = anchor - rt.sync_slot * self.t_slot
        st = rt.st
        self.sync_samples.append(tuple.__new__(SyncSample, (frame, st.node_id, t_syn, resynced)))
        self.queue_samples.append(
            tuple.__new__(
                QueueSample, (frame, st.node_id, len(st.uplink_queue), len(st.downlink_queue))
            )
        )

    def _schedule_frame(self, rt: _NodeRt, frame: int, anchor: float) -> None:
        """Set up every activity of one synchronized node for one frame.

        What is fixed once the node is synchronized happens here: the next
        parent-beacon window opens, the beacon goes on the air, the
        child-uplink and join windows open, and the own-downlink window
        opens while a JoinAccept is due (the due set shrinks only when the
        accept arrives in that window). A synchronized node leaves that mode
        only at the next frame's beacon-window close, after every slot of
        this frame, so neither this nor any slot service of the frame checks
        the mode. Every slot service that reads a queue at slot time (own
        uplink, LoRaWAN, child downlink, JoinAccept answer) waits in
        ``rt.due``; one call of _wake then puts on the heap those whose
        queue already holds work for their slot.

        A slot's global start is ``anchor + (slot - sync_slot) * t_slot``,
        counted from the slot of the parent beacon the anchor is on.
        """
        st = rt.st
        b, up, down = st.assigned_slots
        is_relay = st.is_relay
        sched, timing = self.sched, self.timing
        sync_slot, t_slot = rt.sync_slot, self.t_slot

        # Every transmission resolved from now on ends at or after the
        # anchor, so a plain window that closed a slot before it can no
        # longer hear one.
        horizon = anchor - t_slot
        rt.windows = [w for w in rt.windows if w.close_t >= horizon]
        if not is_relay:
            self._schedule_beacon_window(rt, frame + 1, anchor)

        t_beacon = anchor + (b - sync_slot) * t_slot + timing.beacon_tx_offset
        self._transmit(rt, make_beacon(st, frame), t_beacon, frame, b)

        rt.due = due = {}
        if is_relay:
            slot = sched.lorawan_slot
            t_up = anchor + (slot - sync_slot) * t_slot
            due[slot] = (t_up, self._ev_lorawan, (rt, frame, t_up))
        else:
            t_up = anchor + (up - sync_slot) * t_slot
            due[up] = (t_up, self._ev_own_uplink, (rt, frame, up, t_up))

        d0, d1 = timing.data_window
        for child in sorted(st.children):
            t_cu = anchor + (sched.uplink_slot(child) - sync_slot) * t_slot
            self._listen(rt, "uplink_rx", t_cu + d0, t_cu + d1)
            slot = sched.downlink_slot(child)
            t_cd = anchor + (slot - sync_slot) * t_slot
            due[slot] = (t_cd, self._ev_child_downlink, (rt, frame, slot, t_cd))

        if st.expecting_downlink:
            t_od = anchor + (down - sync_slot) * t_slot
            self._listen(rt, "downlink_rx", t_od + d0, t_od + d1)

        lu = self.listen_until_frame
        if lu is None or frame <= lu:
            t_join = anchor + (sched.join_slot - sync_slot) * t_slot
            join_close = t_join + self.t_join_accept - timing.join_rx_margin
            self._listen(rt, "join_rx", t_join + timing.t_offset, join_close)
            if is_relay:
                t_acc = t_join + self.t_join_accept
                due[sched.join_slot] = (t_acc, self._ev_join_respond, (rt, frame, t_acc))

        # Every service lies at least a slot after the anchor, so the wake
        # forgets none of them as past.
        if st.uplink_queue or st.downlink_queue or rt.pending_accept_tx:
            self._wake(rt, anchor)

        if rt.app_phase is not None and frame % self.sc.k == rt.app_phase:
            t_app = anchor + (sched.first_idle_slot - sync_slot) * t_slot
            self._push(t_app, _P_SVC, st.node_id, self._ev_app, rt, frame, t_app)

    def _wake(self, rt: _NodeRt, now: float) -> None:
        """Put on the heap each of the node's waiting services whose queue
        holds work for its slot: the uplink queue for the own-uplink slot
        (the LoRaWAN slot on the relay), a downlink entry for its slot, and
        a JoinAccept to answer for the join slot. ``now`` is the time of
        the event being handled. A service whose instant has passed is
        forgotten: its slot went by with nothing to send. At an equal
        nanosecond the current event still comes first: it has a lower
        priority or an earlier push."""
        due = rt.due
        if not due:
            return
        st = rt.st
        work = [slot for _pkt, slot in st.downlink_queue] if st.downlink_queue else []
        if st.uplink_queue:
            work.append(self.sched.lorawan_slot if st.is_relay else st.assigned_slots[1])
        if rt.pending_accept_tx:
            work.append(self.sched.join_slot)
        now_ns = round(now * 1e9)
        for slot in work:
            svc = due.pop(slot, None)
            if svc is not None and now_ns <= round(svc[0] * 1e9):
                self._push(svc[0], _P_SVC, st.node_id, svc[1], *svc[2])

    def _schedule_beacon_window(
        self, rt: _NodeRt, frame: int, prev_anchor: float
    ) -> None:
        """Open the next frame's parent-beacon window on the local crystal."""
        center = prev_anchor + rt.frame_local + self.timing.beacon_tx_offset
        half = min(rt.eff_guard, self.t_slot) / 2.0
        # One extra local tick on the early side absorbs the resync
        # quantization residual, so guard = min_guard is truly sufficient.
        open_t = center - half - rt.tick
        close_t = center + half + self.timing.t_bcn
        rt.beacon = win = tuple.__new__(_Window, (open_t, close_t, "beacon", frame))
        self._push(close_t, _P_CLOSE, rt.st.node_id, self._ev_beacon_window_close, rt, win)

    def _close_beacon(self, rt: _NodeRt, end: float) -> None:
        """Close the node's beacon window at ``end`` and record its receive interval."""
        win = rt.beacon
        rt.beacon = None
        self._log_receive(rt.st.node_id, win.open_t, end)

    def _ev_beacon_window_close(self, rt: _NodeRt, win: _Window) -> None:
        if rt.beacon is not win:
            return  # the beacon arrived, closed it and re-anchored this frame
        self._close_beacon(rt, win.close_t)
        st = rt.st
        st.consecutive_beacon_misses += 1
        self._log_protocol(
            win.close_t,
            st.node_id,
            "beacon_miss",
            f"frame={win.frame} consecutive={st.consecutive_beacon_misses}",
        )
        if st.consecutive_beacon_misses >= MAX_BEACON_MISSES:
            self._desynchronize(rt, win.close_t, win.frame)
            return
        rt.eff_guard = min(rt.eff_guard * GUARD_WIDEN_FACTOR, self.t_slot)
        # Flywheel: extrapolate the anchor on the local crystal and keep going.
        self._enter_frame(rt, win.frame, rt.anchor + rt.frame_local, resynced=False)

    def _desynchronize(self, rt: _NodeRt, t: float, frame: int) -> None:
        st = rt.st
        st.mode = DESYNCHRONIZED
        st.assigned_slots = None
        st.parent_id = None
        st.consecutive_beacon_misses = 0
        rt.candidates.clear()
        rt.attempt_scheduled = False
        rt.app_phase = None
        rt.due.clear()
        rt.eff_guard = self.base_guard
        rt.listen_from = t
        self._log_protocol(t, st.node_id, "desynchronized", f"frame={frame}")

    # --------------------------------------------------------- slot services

    def _ev_lorawan(self, rt: _NodeRt, frame: int, t_slot_start: float) -> None:
        queue = rt.st.uplink_queue
        if not queue:
            return
        pkt = queue.popleft()
        start = t_slot_start + self.timing.data_tx_offset
        end = start + self._lorawan_toa(len(pkt.payload))
        # No node hears the uplink, so it is logged, not delivered, and only
        # if it ends by the end of the run, like every other transmission.
        if round(end * 1e9) <= round(self.end_time * 1e9):
            nid = rt.st.node_id
            self.radio_intervals.append((nid, "transmit", start, end))
            self._log_packet(start, nid, "tx", pkt, LORAWAN_CHANNEL, frame, self.sched.lorawan_slot)

    def _ev_own_uplink(self, rt: _NodeRt, frame: int, slot: int, t_slot_start: float) -> None:
        pkt = forwarding_step(rt.st)
        if pkt is None:
            return
        start = t_slot_start + self.timing.data_tx_offset
        self._transmit(rt, pkt, start, frame, slot)
        aw = self.timing.ack_window
        self._listen(rt, "ack", t_slot_start + aw[0], t_slot_start + aw[1])

    def _ev_child_downlink(self, rt: _NodeRt, frame: int, slot: int, t_slot_start: float) -> None:
        st = rt.st
        for i, (pkt, target_slot) in enumerate(st.downlink_queue):
            if target_slot == slot:
                del st.downlink_queue[i]
                start = t_slot_start + self.timing.data_tx_offset
                self._transmit(rt, pkt, start, frame, slot)
                return

    def _ev_join_respond(self, rt: _NodeRt, frame: int, t: float) -> None:
        if not rt.pending_accept_tx:
            return
        first, *rest = rt.pending_accept_tx
        rt.pending_accept_tx = []
        self._transmit(rt, first, t, frame, self.sched.join_slot)
        # The others wait for each joiner's new downlink slot (triple[2]).
        for pkt in rest:
            slot = pkt.payload[2]
            if not enqueue_down(rt.st, pkt, slot):
                self._log_drop(rt, t, pkt, frame, slot)
        self._wake(rt, t)

    def _ev_app(self, rt: _NodeRt, frame: int, t: float) -> None:
        st = rt.st
        sc = self.sc
        if sc.power is not None and sc.power.tau_app > 0:
            self.app_intervals[st.node_id].append((t, t + sc.power.tau_app))
        if sc.app_payload_bytes <= 0:
            return
        addr = st.address
        sender = addr if addr is not None else 0
        dest = st.parent_id if st.parent_id is not None else sender
        # Fields in order: kind, network, sender, dest, origin, seq, payload.
        pkt = MacPacket(
            UP_DATA, st.network_id, sender, dest, sender, st.next_seq(), bytes(sc.app_payload_bytes)
        )
        if enqueue_up(st, pkt):
            self._wake(rt, t)
        else:
            self._log_drop(rt, t, pkt, frame, -1)

    # ------------------------------------------------------------ radio

    def _listen(self, rt: _NodeRt, purpose: str, open_t: float, close_t: float) -> None:
        """Open a plain receive window: it stays open up to ``close_t``, so
        its receive interval is recorded now."""
        rt.windows.append(tuple.__new__(_Window, (open_t, close_t, purpose, None)))
        self._log_receive(rt.st.node_id, open_t, close_t)

    def _transmit(self, rt: _NodeRt, pkt: MacPacket, start: float, frame: int, slot: int) -> None:
        """Put a MAC packet on the air. Delivery ignores a transmission that
        starts at or after the one it resolves, so it joins ``on_air`` now."""
        nid = rt.st.node_id
        end = start + self._toa(pkt.onair_bytes)
        tx = Transmission(nid, pkt, start, end, frame, slot)
        self.on_air.append(tx)
        if rt.listen_from is not None:
            self._push(start, _P_TX_START, nid, self._ev_tx_start, rt, tx)
        self._push(end, _P_TX_END, nid, self._ev_tx_end, rt, tx)

    def _ev_tx_start(self, rt: _NodeRt, tx: Transmission) -> None:
        # Half-duplex: only a listening sender gets a start event (see
        # _transmit); it stops receiving while it transmits, and the gap
        # also voids coverage of overlapping packets.
        self._log_receive(rt.st.node_id, rt.listen_from, tx.start)
        rt.listen_from = None

    def _ev_tx_end(self, rt: _NodeRt, tx: Transmission) -> None:
        nid = rt.st.node_id
        self.radio_intervals.append((nid, "transmit", tx.start, tx.end))
        # The packet's columns, shared by its tx event and every listener's.
        cols = _packet_columns(tx.packet, "0", tx.frame, tx.slot)
        self.packet_events.append(tuple.__new__(PacketEvent, (tx.start, nid, "tx") + cols))
        # Only a node that is not synchronized listens without pause, and
        # only its own transmission (see _ev_tx_start) stops it.
        if rt.listen_from is None and rt.st.mode is not SYNCHRONIZED:
            rt.listen_from = tx.end
        self._deliver(tx, cols)

    # ------------------------------------------------------------ delivery

    def _listening_state(
        self, rt: _NodeRt, tx: Transmission
    ) -> tuple[bool, bool, _Window | None]:
        """(fully_covered, heard_at_all, covering_window) for one listener and one tx.

        The covering window is the beacon window if it spans the whole
        packet, else the first plain window that does: a widened beacon
        window can overlap the join window at the end of the frame before.
        A node that listens without pause covers the packet, and still
        reports a covering window if one exists.
        """
        beacon = rt.beacon
        if beacon is not None and beacon.open_t <= tx.start and tx.end <= beacon.close_t:
            return True, True, beacon
        for win in rt.windows:
            if win.open_t <= tx.start and tx.end <= win.close_t:
                return True, True, win
        if rt.listen_from is not None and rt.listen_from <= tx.start:
            return True, True, None
        if beacon is not None and beacon.open_t < tx.end and beacon.close_t > tx.start:
            return False, True, None
        end_ns = None
        for win in rt.windows:
            if win.open_t < tx.end and win.close_t > tx.start:
                # A plain window that closed before the packet ended no
                # longer hears it. At an equal nanosecond it still does:
                # an end came before a close there (_P_TX_END < _P_CLOSE).
                if end_ns is None:
                    end_ns = round(tx.end * 1e9)
                if round(win.close_t * 1e9) < end_ns:
                    continue
                return False, True, None
        if rt.listen_from is not None and rt.listen_from < tx.end:
            return False, True, None
        return False, False, None

    def _deliver(self, tx: Transmission, cols: tuple) -> None:
        """Resolve tx at every node that hears it; ``cols`` are its
        packet-event columns after the event name."""
        listeners = []
        covering: dict[int, _Window | None] = {}
        for nid, rt, per in self.hearers[tx.sender]:
            covered, heard, win = self._listening_state(rt, tx)
            if heard:
                listeners.append((nid, covered, per))
                covering[nid] = win
        if not listeners:
            return
        # A transmission delivered later ends no earlier than tx and lasts at
        # most t_data_max, so one that ended by tx.start - t_data_max
        # overlaps neither it nor tx.
        horizon = tx.start - self.timing.t_data_max
        self.on_air = on_air = [o for o in self.on_air if o.end > horizon]
        outcomes = deliver(tx, listeners, on_air, self.sc.links, self.rng)
        packet_events = self.packet_events
        for nid, outcome in outcomes.items():
            event = "rx" if outcome == "received" else outcome
            packet_events.append(tuple.__new__(PacketEvent, (tx.end, nid, event) + cols))
            if event == "rx":
                self._receive(self.nodes[nid], tx, covering[nid])

    def _receive(self, rt: _NodeRt, tx: Transmission, covering: _Window | None) -> None:
        st = rt.st
        in_join_slot = covering is not None and covering.purpose == "join_rx"
        up, down = len(st.uplink_queue), len(st.downlink_queue)
        actions = handle_rx(
            st, tx.packet, tx.end, self.sched, self.timing, in_join_slot=in_join_slot
        )
        if len(st.uplink_queue) > up or len(st.downlink_queue) > down:
            self._wake(rt, tx.end)
        for act in actions:
            self._apply_action(rt, act, tx)

    def _apply_action(self, rt, act, tx: Transmission) -> None:
        # Each action is exactly one of the action classes, never a
        # subclass, so its type names it without an isinstance chain.
        st = rt.st
        kind = type(act)
        if kind is Resync:
            # The parent's beacon arrives only in this node's beacon window.
            anchor = self._resync(rt, act.reference_global, tx.frame)
            self._close_beacon(rt, tx.end)
            self._enter_frame(rt, tx.frame, anchor, resynced=True)
        elif kind is CandidateBeacon:
            ref = tx.start - self.timing.beacon_tx_offset
            _per, rssi = self.sc.links[tx.sender, st.node_id]
            rt.candidates[act.sender_id] = (rssi, ref, tx.frame)
            if not rt.attempt_scheduled:
                self._maybe_schedule_attempt(rt, tx.end)
        elif kind is SendAck:
            slot_start = tx.start - self.timing.data_tx_offset
            t_ack = slot_start + self.timing.ack_tx_offset
            sender = st.address if st.address is not None else 0
            ack = MacPacket(ACK, st.network_id, sender, act.dest_id, act.dest_id, act.seq)
            self._transmit(rt, ack, t_ack, tx.frame, tx.slot)
        elif kind is SendJoinAccept:
            rt.pending_accept_tx.append(act.packet)
            self._wake(rt, tx.end)
        elif kind is BecameSynchronized:
            self._on_synchronized(rt, act, tx)
        elif kind is QueueDrop:
            # An uplink drop keeps the slot the packet arrived in.
            slot = tx.slot if act.slot is None else act.slot
            self._log_drop(rt, tx.end, act.packet, tx.frame, slot)

    def _maybe_schedule_attempt(self, rt: _NodeRt, now: float) -> None:
        st = rt.st
        if st.mode not in (UNJOINED, DESYNCHRONIZED):
            return
        if rt.attempt_scheduled or not rt.candidates:
            return
        rt.attempt_scheduled = True
        addr = best_parent((a, info[0]) for a, info in rt.candidates.items())
        _rssi, ref, _frame = rt.candidates[addr]
        t_join = ref + (self.sched.join_slot - addr) * self.t_slot
        while t_join <= now:
            t_join += self.t_frame
        self._push(t_join, _P_SVC, st.node_id, self._ev_join_attempt, rt, t_join)

    def _ev_join_attempt(self, rt: _NodeRt, t_evt: float) -> None:
        st = rt.st
        rt.attempt_scheduled = False
        if st.mode not in (UNJOINED, DESYNCHRONIZED):
            return
        if not rt.candidates:
            return
        heard = [(addr, info[0]) for addr, info in sorted(rt.candidates.items())]
        parent, req = join_procedure(st, heard)
        _rssi, ref, frame = rt.candidates[parent]
        slot_start = ref + (self.sched.join_slot - parent) * self.t_slot
        backoff = self.rng.randrange(JOIN_BACKOFF_SLOTS)
        t_tx = slot_start + self._join_req_offset(backoff)
        # A stale reference (the chosen parent's beacon was lost this
        # frame) may point at a contention slot already behind us; step
        # forward on the nominal frame grid until the slot is ahead.
        while t_tx <= t_evt:
            t_tx += self.t_frame
            frame += 1
        self._transmit(rt, req, t_tx, frame, self.sched.join_slot)
        self._log_protocol(t_tx, st.node_id, "join_request", f"parent={parent} backoff={backoff}")
        t_retry = t_tx + JOIN_RETRY_FRAMES * self.t_frame
        self._push(t_retry, _P_SVC, st.node_id, self._ev_join_timeout, rt, t_retry)

    def _ev_join_timeout(self, rt: _NodeRt, now: float) -> None:
        st = rt.st
        if st.mode is not JOINING:
            return
        st.mode = UNJOINED
        rt.attempt_scheduled = False
        self._maybe_schedule_attempt(rt, now)

    def _on_synchronized(self, rt: _NodeRt, act: BecameSynchronized, tx: Transmission) -> None:
        st = rt.st
        parent = act.parent_id
        if rt.listen_from is not None:
            self._log_receive(st.node_id, rt.listen_from, tx.end)
        rt.listen_from = None
        rt.sync_slot = parent
        info = rt.candidates.get(parent)
        if info is None:
            # Never heard the parent directly: should not happen (the
            # parent was chosen from heard beacons), but fail loud.
            raise RuntimeError(f"node {st.node_id} synchronized on unheard parent {parent}")
        _rssi, ref, frame = info
        # The reference may be frames old (later beacons, requests or
        # accepts were lost): step it forward on the nominal frame grid, as
        # _ev_join_attempt does, so the next beacon window lies ahead.
        while ref + self.t_frame <= tx.end:
            ref += self.t_frame
            frame += 1
        rt.anchor = self._resync(rt, ref, frame)
        rt.app_phase = (st.address or 0) % self.sc.k
        self._log_protocol(
            tx.end, st.node_id, "synchronized", f"frame={frame} address={st.address} parent={parent}"
        )
        self._record_frame_samples(rt, frame, rt.anchor, resynced=True)
        # The frame is nearly over (the accept arrived in a join or
        # downlink slot, both late in the frame); arm the next beacon
        # window, from which normal per-frame scheduling takes over.
        self._schedule_beacon_window(rt, frame + 1, rt.anchor)

    # ------------------------------------------------------------ logging

    def _log_receive(self, node: int, start: float, end: float) -> None:
        """Record a receive interval, clipped to the run; an empty one is dropped."""
        if end > self.end_time:
            end = self.end_time
        if end > start:
            self.radio_intervals.append((node, "receive", start, end))

    def _log_protocol(self, t: float, node: int, event: str, detail: str) -> None:
        self.protocol_events.append(tuple.__new__(ProtocolEvent, (t, node, event, detail)))

    def _log_packet(
        self, t: float, node: int, event: str, pkt: MacPacket, channel: str,
        frame: int, slot: int,
    ) -> None:
        self.packet_events.append(
            tuple.__new__(PacketEvent, (t, node, event) + _packet_columns(pkt, channel, frame, slot))
        )

    def _log_drop(self, rt: _NodeRt, t: float, pkt: MacPacket, frame: int, slot: int) -> None:
        """Log a packet that a full queue of the node turned away. UpData
        dropped by the relay was bound for its LoRaWAN uplink."""
        st = rt.st
        channel = LORAWAN_CHANNEL if st.is_relay and pkt.kind is UP_DATA else "0"
        self._log_packet(t, st.node_id, "queue_drop", pkt, channel, frame, slot)

    # ------------------------------------------------------------ finalize

    def _finalize(self) -> SimulationTrace:
        end = self.end_time
        for rt in self.nodes.values():
            if rt.listen_from is not None:
                self._log_receive(rt.st.node_id, rt.listen_from, end)
            if rt.beacon is not None:
                self._close_beacon(rt, rt.beacon.close_t)

        raw = _group_by_node(self.radio_intervals)
        self.radio_intervals = []  # the buckets hold every record; free the list before the output grows
        intervals: list[tuple[int, str, float, float]] = []
        for nid in sorted(self.nodes):
            # Every record site clips its interval to the run already.
            # Two rows of one node with the same start overlap, so the start
            # alone orders a timeline that passes the check below; a float
            # key costs no allocation.
            rows = raw.pop(nid, [])
            rows.sort(key=itemgetter(2))
            cursor = 0.0
            for row in rows:
                _n, state, s, e = row
                if not 0.0 <= s < e <= end:
                    raise RuntimeError(
                        f"node {nid}: {state} interval [{s:.9f}, {e:.9f}] outside the run or empty"
                    )
                if s > cursor:
                    intervals.append((nid, "sleep", cursor, s))
                elif s < cursor - 1e-9:
                    raise RuntimeError(
                        f"node {nid}: overlapping radio intervals at t={s:.9f}"
                    )
                intervals.append(row)
                if e > cursor:
                    cursor = e
            if cursor < end:
                intervals.append((nid, "sleep", cursor, end))

        parents: dict[int, int] = {}
        addresses: dict[int, int] = {}
        addr_to_hw: dict[int, int] = {}
        for nid, rt in self.nodes.items():
            if rt.st.address is not None:
                addresses[nid] = rt.st.address
                addr_to_hw[rt.st.address] = nid
        for nid, rt in self.nodes.items():
            if rt.st.parent_id is not None and rt.st.parent_id in addr_to_hw:
                parents[nid] = addr_to_hw[rt.st.parent_id]

        # Whole rows: (t, node, event), then the remaining columns. No key
        # tuple per record, so the sort adds nothing to the trace's peak.
        self.packet_events.sort()

        return SimulationTrace(
            scenario=self.sc,
            end_time=end,
            radio_intervals=intervals,
            packet_events=self.packet_events,
            sync_samples=self.sync_samples,
            queue_samples=self.queue_samples,
            protocol_events=self.protocol_events,
            app_intervals=self.app_intervals,
            final_modes={n: rt.st.mode.value for n, rt in self.nodes.items()},
            parents=parents,
            addresses=addresses,
            protocol_errors={nid: rt.st.protocol_errors for nid, rt in self.nodes.items()},
        )


def run(scenario: Scenario) -> SimulationTrace:
    """Simulate one scenario to completion. Deterministic per (scenario, seed)."""
    return Simulator(scenario).run()


def deliver(
    tx: Transmission,
    listeners: list[tuple[int, bool, float]],
    concurrent: list[Transmission],
    links: Container[tuple[int, int]],
    rng: random.Random,
) -> dict[int, str]:
    """Outcome of one transmission at each listener; the engine's delivery rule.

    ``listeners`` holds (node_id, window_fully_covers_tx, link_per);
    ``concurrent`` the other transmissions on the air around ``tx``. An
    interferer counts at a listener only if ``(sender, listener)`` is in
    ``links``. No capture: any audible overlap destroys reception. PER
    draws happen in listener-id order.
    """
    # Transmissions overlapping tx; the cheap time test first.
    overlapping = []
    for o in concurrent:
        if o.start >= tx.end or o.end <= tx.start or o is tx:
            continue
        overlapping.append(o)
    out: dict[int, str] = {}
    for nid, covered, per in sorted(listeners):
        if not covered:
            out[nid] = "lost_window"
            continue
        for o in overlapping:
            if o.sender != nid and (o.sender, nid) in links:
                out[nid] = "lost_collision"
                break
        else:
            if per > 0.0 and rng.random() < per:
                out[nid] = "lost_per"
            else:
                out[nid] = "received"
    return out


# ------------------------------------------------------------- measures


def measure_sync_error(
    trace: SimulationTrace, parent_id: int, child_id: int
) -> list[float]:
    """Per-frame frame-boundary offsets parent minus child, in seconds.

    Uses only frames where both nodes re-anchored on a fresh reference
    (the flywheel after a missed beacon is an estimate, not a sample).
    """
    return [eps for _frame, eps in _sync_offsets(trace, parent_id, child_id)]


def _sync_offsets(trace: SimulationTrace, parent_id: int, child_id: int) -> list[tuple[int, float]]:
    """``(frame, parent minus child offset)`` of each frame both nodes resynced."""
    parent = trace.resynced_by_node.get(parent_id, {})
    child = trace.resynced_by_node.get(child_id, {})
    return [(f, parent[f] - child[f]) for f in sorted(parent.keys() & child.keys())]


def measure_duty_cycle(
    trace: SimulationTrace,
    node_id: int,
    window_seconds: float,
    start_s: float = 0.0,
) -> float:
    """Share of the window spent transmitting."""
    if window_seconds <= 0:
        raise ValueError("window must be positive")
    # A weight of 1.0 leaves each product exact: the plain sum of the spans.
    busy = _state_time(trace, node_id, {"transmit": 1.0}, start_s, start_s + window_seconds)
    return busy / window_seconds


def _state_time(
    trace: SimulationTrace, node_id: int, weights: dict[str, float], start_s: float, end_s: float
) -> float:
    """Sum of ``weights[state]`` times the part of each of the node's radio
    intervals inside [start_s, end_s]; a state without a weight adds nothing."""
    total = 0.0
    for _n, state, s, e in trace.intervals_by_node.get(node_id, ()):
        w = weights.get(state)
        if w is None:
            continue
        if start_s <= s and e <= end_s:
            total += w * (e - s)  # the clip below would give the same hi - lo
            continue
        lo, hi = max(s, start_s), min(e, end_s)
        if hi > lo:
            total += w * (hi - lo)
    return total


def measure_avg_power(
    trace: SimulationTrace,
    node_id: int,
    profile,
    start_s: float = 0.0,
    end_s: float | None = None,
) -> float:
    """Time-weighted mean power over [start_s, end_s] for one node.

    Radio states map to profile powers; application bursts add
    (p_app - p_sleep) on top of whatever the radio is doing, which need not
    be sleep. With N = 3M + 2 slots the first idle slot is slot N, so a
    burst starts at the next frame's slot-0 instant, the relay's beacon
    slot: the relay's burst overlaps its own beacon transmission, and a
    burst longer than its slot runs into the next beacon slots.
    """
    if end_s is None:
        end_s = trace.end_time
    span = end_s - start_s
    if span <= 0:
        raise ValueError("measurement span must be positive")
    state_p = {"sleep": profile.p_sleep, "receive": profile.p_rx, "transmit": profile.p_tx}
    energy = _state_time(trace, node_id, state_p, start_s, end_s)
    for s, e in trace.app_intervals.get(node_id, []):
        lo, hi = max(s, start_s), min(e, end_s)
        if hi > lo:
            energy += (profile.p_app - profile.p_sleep) * (hi - lo)
    return energy / span


# ------------------------------------------------------------- export


# Lines joined into one write: a block of a few kB, small beside the trace.
_BLOCK_LINES = 256


def write_trace_csvs(trace: SimulationTrace, out_dir: str | Path) -> list[Path]:
    """Write the four CSV artifacts; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = (
        ("radio_states.csv", "node,state,start_s,end_s\n",
         _radio_state_lines(trace.radio_intervals)),
        ("packet_events.csv",
         "t_s,node,event,kind,sender,dest,origin,seq,size_bytes,channel,frame,slot\n",
         _packet_event_lines(trace.packet_events)),
        ("sync_samples.csv", "frame,parent,child,epsilon_us\n", _sync_sample_lines(trace)),
        ("summary.csv",
         "node,final_mode,address,duty_cycle,avg_power_w,tx_count,rx_count,"
         "uplink_drops,protocol_errors\n",
         _summary_lines(trace)),
    )
    paths = []
    for name, header, lines in files:
        p = out / name
        with p.open("w", newline="") as f:
            f.write(header)
            while block := "".join(islice(lines, _BLOCK_LINES)):
                f.write(block)
        paths.append(p)
    return paths


def _radio_state_lines(rows: list[tuple[int, str, float, float]]) -> Iterator[str]:
    """``radio_states.csv`` rows. Rows are node-major, so the ``node,state,``
    text is built once per node and state; an instant shared by one row's
    end and the next row's start is formatted once (an end is after its
    start, so never a zero of either sign)."""
    last_node = None
    prefixes: dict[str, str] = {}
    last_end = None
    end_text = ""
    for n, state, s, e in rows:
        if n != last_node:
            last_node, prefixes = n, {}
        try:
            prefix = prefixes[state]
        except KeyError:
            prefix = prefixes[state] = f"{n},{state},"
        start_text = end_text if s == last_end else f"{s:.9f}"
        last_end = e
        end_text = f"{e:.9f}"
        yield f"{prefix}{start_text},{end_text}\n"


def _packet_event_lines(events: list[PacketEvent]) -> Iterator[str]:
    """``packet_events.csv`` rows. Events are sorted by (t, node, event), so
    the rows of one transmission sit together: a row reuses the previous
    row's time text when its ``t`` is equal, and the previous row's text of
    the nine columns after ``event`` when those are equal.

    Equal ints and strings format alike, and so do equal floats except
    ``0.0`` and ``-0.0``: a zero instant is always formatted afresh.
    """
    columns = ",%s,%d,%d,%d,%d,%d,%s,%d,%d\n".__mod__
    last_t = last_cols = None
    t_text = cols_text = ""
    for ev in events:
        t = ev[0]
        if t != last_t or not t:
            last_t = t
            t_text = f"{t:.9f}"
        cols = ev[3:]
        if cols != last_cols:
            last_cols = cols
            cols_text = columns(cols)
        yield f"{t_text},{ev[1]},{ev[2]}{cols_text}"


def _sync_sample_lines(trace: SimulationTrace) -> Iterator[str]:
    """``sync_samples.csv`` rows, pair by pair; each pair's text is built once."""
    for parent_id, child_id in sync_pairs(trace):
        pair = f",{parent_id},{child_id},"
        for fr, eps in _sync_offsets(trace, parent_id, child_id):
            yield f"{fr}{pair}{eps * 1e6:.3f}\n"


def _summary_lines(trace: SimulationTrace) -> Iterator[str]:
    """``summary.csv`` rows, one per node."""
    counts = Counter(map(itemgetter(1, 2), trace.packet_events))  # (node, event)
    for nid, (duty, avg) in trace.node_measures.items():
        power = "" if avg is None else f"{avg:.9e}"
        txc, rxc = counts[(nid, "tx")], counts[(nid, "rx")]
        addr = trace.addresses.get(nid, "")
        yield (
            f"{nid},{trace.final_modes[nid]},{addr},{duty:.9f},{power},{txc},{rxc},"
            f"{counts[(nid, 'queue_drop')]},{trace.protocol_errors[nid]}\n"
        )


def sync_pairs(trace: SimulationTrace) -> list[tuple[int, int]]:
    """Parent-child pairs to report: every tree edge, plus relay-to-node
    for nodes deeper than one hop (the per-hop accumulation view)."""
    relay = trace.scenario.relay_id
    # Disjoint: (relay, c) is an edge only when c's parent is the relay.
    edges = sorted((p, c) for c, p in trace.parents.items())
    extra = sorted((relay, c) for c, p in trace.parents.items() if p != relay)
    return edges + extra
