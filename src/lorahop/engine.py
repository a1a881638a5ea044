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

Radio model: zero propagation delay, no capture (overlapping on-channel
transmissions at a listener destroy each other), per-link Bernoulli
packet error rate drawn at transmission end in listener-id order. The
LoRaWAN backhaul is a pure sink on its own pseudo-channel.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from .phy import lorawan_time_on_air, time_on_air
from .protocol import (
    BecameSynchronized,
    CandidateBeacon,
    FrameSchedule,
    GatewayEnqueue,
    MacPacket,
    NodeMode,
    NodeState,
    PacketKind,
    Resync,
    SendAck,
    SendJoinAccept,
    SlotTiming,
    forwarding_step,
    handle_rx,
    join_procedure,
    make_beacon,
    make_relay,
)
from .scenario import Scenario
from .timebase import VirtualClock, local_tick_duration, resync

LORAWAN_CHANNEL = "lorawan"

# Event priorities: frame bookkeeping first, then radio edges in causal
# order, then slot services and timers.
_P_FRAME = 0
_P_TX_START = 1
_P_TX_END = 2
_P_CLOSE = 3
_P_SVC = 4


@dataclass(frozen=True)
class Transmission:
    """One packet on the air."""

    sender: int
    packet: MacPacket
    channel: int | str
    start: float
    end: float
    frame: int
    slot: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("transmission must have positive airtime")


@dataclass
class _Window:
    node_id: int
    channel: int | str
    open_t: float
    close_t: float
    purpose: str
    slot: int
    frame: int
    closed: bool = False
    early_close: float | None = None


@dataclass(frozen=True)
class PacketEvent:
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


@dataclass(frozen=True)
class SyncSample:
    frame: int
    node: int
    t_syn: float
    resynced: bool


@dataclass(frozen=True)
class QueueSample:
    frame: int
    node: int
    uplink_depth: int
    downlink_depth: int
    gateway_depth: int


@dataclass(frozen=True)
class ProtocolEvent:
    t: float
    node: int
    event: str
    detail: str


@dataclass
class SimulationTrace:
    """Everything a run produced, ready for measurement and export."""

    scenario: Scenario
    end_time: float
    radio_intervals: list[tuple[int, str, float, float, str]]
    packet_events: list[PacketEvent]
    sync_samples: list[SyncSample]
    queue_samples: list[QueueSample]
    protocol_events: list[ProtocolEvent]
    app_intervals: dict[int, list[tuple[float, float]]]
    final_modes: dict[int, str]
    parents: dict[int, int]
    addresses: dict[int, int]
    node_counters: dict[int, dict[str, int]]


class _NodeRt:
    """Engine-side runtime wrapped around one protocol NodeState."""

    def __init__(self, st: NodeState, frame_ticks: int):
        self.st = st
        self.tick = local_tick_duration(st.clock)
        self.frame_local = frame_ticks * self.tick
        self.anchor: float | None = None
        self.frame: int = -1
        self.sync_slot: int = 0
        self.eff_guard: float = 0.0
        self.listen_from: float | None = None
        self.windows: list[_Window] = []
        self.candidates: dict[int, tuple[float, float, int]] = {}
        self.attempt_scheduled = False
        self.gw_queue: deque[MacPacket] = deque()
        self.gw_drops = 0
        self.app_phase: int | None = None
        self.pending_accept_tx: list[MacPacket] = []
        self.beacon_misses_total = 0
        self.own_tx: list[tuple[float, float]] = []
        self.resume_listen = False


class Simulator:
    def __init__(self, scenario: Scenario):
        self.sc = scenario
        self.sched: FrameSchedule = scenario.schedule
        self.timing: SlotTiming = scenario.timing
        self.rng = random.Random(scenario.seed)
        self.t_slot = scenario.slot_seconds
        self.t_frame = scenario.frame_seconds
        self.t_join_accept = scenario.join.accept_offset(scenario.timing)
        self._toa_cache: dict[int, float] = {}
        self.end_time = scenario.frames * self.t_frame

        self.nodes: dict[int, _NodeRt] = {}
        for cfg in scenario.nodes:
            clock = VirtualClock(
                tick_rate_hz=scenario.tick_rate_hz, drift_ppm=cfg.drift_ppm
            )
            if cfg.is_relay:
                st = make_relay(cfg.node_id, self.sched, clock=clock)
            else:
                st = NodeState(node_id=cfg.node_id, clock=clock)
            st.network_id = scenario.network_id
            st.queue_capacity = scenario.queue_capacity
            rt = _NodeRt(st, self.sched.frame_ticks)
            rt.eff_guard = scenario.guard.base_guard
            self.nodes[cfg.node_id] = rt
        self.relay_id = scenario.relay_id

        self.heap: list = []
        self._seq = 0
        self.active_tx: list[Transmission] = []
        self.tx_history: list[Transmission] = []
        self.radio_intervals: list[tuple[int, str, float, float, str]] = []
        self.packet_events: list[PacketEvent] = []
        self.sync_samples: list[SyncSample] = []
        self.queue_samples: list[QueueSample] = []
        self.protocol_events: list[ProtocolEvent] = []
        self.app_intervals: dict[int, list[tuple[float, float]]] = {
            n: [] for n in self.nodes
        }

    # ------------------------------------------------------------ setup

    def _toa(self, payload_bytes: int) -> float:
        if payload_bytes not in self._toa_cache:
            self._toa_cache[payload_bytes] = time_on_air(payload_bytes, self.sc.radio)
        return self._toa_cache[payload_bytes]

    def _join_req_offset(self, backoff: int) -> float:
        return self.timing.t_offset + self.timing.t_guard / 2.0 + backoff * self.sc.join.backoff_step

    # ------------------------------------------------------- event plumbing

    def _push(self, t: float, prio: int, node_id: int, fn, *args) -> None:
        self._seq += 1
        heapq.heappush(self.heap, (round(t * 1e9), prio, node_id, self._seq, fn, args))

    def run(self) -> SimulationTrace:
        relay = self.nodes[self.relay_id]
        relay.anchor = 0.0
        relay.sync_slot = 0
        relay.app_phase = 0
        for rt in self.nodes.values():
            if rt.st.node_id != self.relay_id:
                rt.listen_from = 0.0
        self._push(0.0, _P_FRAME, self.relay_id, self._ev_relay_frame, relay, 0, 0.0)
        end_ns = round(self.end_time * 1e9)
        while self.heap:
            t_ns, _prio, _nid, _seq, fn, args = heapq.heappop(self.heap)
            if t_ns > end_ns:
                break
            fn(*args)
        return self._finalize()

    # ------------------------------------------------------- frame driving

    def _ev_relay_frame(self, rt: _NodeRt, frame: int, anchor: float) -> None:
        if frame >= self.sc.frames:
            return
        rt.anchor = anchor
        rt.frame = frame
        self._record_frame_samples(rt, frame, anchor, resynced=True)
        self._schedule_frame(rt, frame, anchor)
        self._push(
            anchor + rt.frame_local,
            _P_FRAME,
            rt.st.node_id,
            self._ev_relay_frame,
            rt,
            frame + 1,
            anchor + rt.frame_local,
        )

    def _record_frame_samples(
        self, rt: _NodeRt, frame: int, anchor: float, resynced: bool
    ) -> None:
        t_syn = anchor - rt.sync_slot * self.t_slot
        self.sync_samples.append(
            SyncSample(frame=frame, node=rt.st.node_id, t_syn=t_syn, resynced=resynced)
        )
        self.queue_samples.append(
            QueueSample(
                frame=frame,
                node=rt.st.node_id,
                uplink_depth=len(rt.st.uplink_queue),
                downlink_depth=len(rt.st.downlink_queue),
                gateway_depth=len(rt.gw_queue),
            )
        )

    def _slot_time(self, rt: _NodeRt, anchor: float, slot: int) -> float:
        """Global instant of a slot start, from this node's frame anchor."""
        return anchor + (slot - rt.sync_slot) * self.t_slot

    def _schedule_frame(self, rt: _NodeRt, frame: int, anchor: float) -> None:
        """Queue every activity of one synchronized node for one frame."""
        st = rt.st
        if st.mode is not NodeMode.SYNCHRONIZED or st.assigned_slots is None:
            return
        b, up, down = st.assigned_slots
        nid = st.node_id

        t_beacon = self._slot_time(rt, anchor, b) + self.timing.beacon_tx_offset
        self._push(t_beacon, _P_SVC, nid, self._ev_beacon_tx, rt, frame, b, t_beacon)

        if st.is_relay:
            t_lw = self._slot_time(rt, anchor, self.sched.lorawan_slot)
            self._push(t_lw, _P_SVC, nid, self._ev_lorawan, rt, frame, t_lw)
        else:
            t_up = self._slot_time(rt, anchor, up)
            self._push(t_up, _P_SVC, nid, self._ev_own_uplink, rt, frame, up, t_up)

        for child in sorted(st.children):
            t_cu = self._slot_time(rt, anchor, self.sched.uplink_slot(child))
            self._push(
                t_cu, _P_SVC, nid, self._ev_child_uplink, rt, frame,
                self.sched.uplink_slot(child), t_cu,
            )
            t_cd = self._slot_time(rt, anchor, self.sched.downlink_slot(child))
            self._push(
                t_cd, _P_SVC, nid, self._ev_child_downlink, rt, frame,
                self.sched.downlink_slot(child), t_cd,
            )

        if st.expecting_downlink:
            t_od = self._slot_time(rt, anchor, down)
            self._push(t_od, _P_SVC, nid, self._ev_own_downlink, rt, frame, down, t_od)

        lu = self.sc.join.listen_until_frame
        if lu is None or frame <= lu:
            t_join = self._slot_time(rt, anchor, self.sched.join_slot)
            self._push(t_join, _P_SVC, nid, self._ev_join_slot, rt, frame, t_join)

        if rt.app_phase is not None and frame % self.sc.k == rt.app_phase:
            t_app = self._slot_time(rt, anchor, self.sched.first_idle_slot)
            self._push(t_app, _P_SVC, nid, self._ev_app, rt, frame, t_app)

        if not st.is_relay:
            self._schedule_beacon_window(rt, frame + 1, anchor)

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
        self._listen(
            rt, "beacon", rt.sync_slot, frame, open_t, close_t, self._ev_beacon_window_close
        )

    def _ev_beacon_window_close(self, rt: _NodeRt, win: _Window) -> None:
        if win.closed:
            return
        self._close_window(rt, win)
        if rt.frame >= win.frame:
            return  # the beacon arrived and already re-anchored this frame
        st = rt.st
        if st.mode is not NodeMode.SYNCHRONIZED:
            return
        st.consecutive_beacon_misses += 1
        rt.beacon_misses_total += 1
        self.protocol_events.append(
            ProtocolEvent(
                t=win.close_t,
                node=st.node_id,
                event="beacon_miss",
                detail=f"frame={win.frame} consecutive={st.consecutive_beacon_misses}",
            )
        )
        if st.consecutive_beacon_misses >= self.sc.guard.max_misses:
            self._desynchronize(rt, win.close_t, win.frame)
            return
        rt.eff_guard = min(
            rt.eff_guard * self.sc.guard.widen_factor, self.t_slot
        )
        # Flywheel: extrapolate the anchor on the local crystal and keep going.
        anchor = (rt.anchor if rt.anchor is not None else 0.0) + rt.frame_local
        rt.anchor = anchor
        rt.frame = win.frame
        self._record_frame_samples(rt, win.frame, anchor, resynced=False)
        self._schedule_frame(rt, win.frame, anchor)

    def _desynchronize(self, rt: _NodeRt, t: float, frame: int) -> None:
        st = rt.st
        st.mode = NodeMode.DESYNCHRONIZED
        st.assigned_slots = None
        st.parent_id = None
        st.consecutive_beacon_misses = 0
        rt.candidates.clear()
        rt.attempt_scheduled = False
        rt.app_phase = None
        rt.eff_guard = self.sc.guard.base_guard
        rt.listen_from = t
        self.protocol_events.append(
            ProtocolEvent(t=t, node=st.node_id, event="desynchronized", detail=f"frame={frame}")
        )

    # --------------------------------------------------------- slot services

    def _ev_beacon_tx(self, rt: _NodeRt, frame: int, slot: int, t: float) -> None:
        if rt.st.mode is not NodeMode.SYNCHRONIZED:
            return
        pkt = make_beacon(rt.st, frame)
        self._transmit(rt, pkt, 0, t, frame, slot)

    def _ev_lorawan(self, rt: _NodeRt, frame: int, t_slot_start: float) -> None:
        if rt.st.mode is not NodeMode.SYNCHRONIZED or not rt.gw_queue:
            return
        pkt = rt.gw_queue.popleft()
        start = t_slot_start + self.timing.data_tx_offset
        airtime = lorawan_time_on_air(len(pkt.payload), self.sc.radio)
        tx = Transmission(
            sender=rt.st.node_id,
            packet=pkt,
            channel=LORAWAN_CHANNEL,
            start=start,
            end=start + airtime,
            frame=frame,
            slot=self.sched.lorawan_slot,
        )
        self._push(start, _P_TX_START, rt.st.node_id, self._ev_tx_start, rt, tx)
        self._push(tx.end, _P_TX_END, rt.st.node_id, self._ev_tx_end, rt, tx)

    def _ev_own_uplink(self, rt: _NodeRt, frame: int, slot: int, t_slot_start: float) -> None:
        st = rt.st
        if st.mode is not NodeMode.SYNCHRONIZED:
            return
        pkt = forwarding_step(st)
        if pkt is None:
            return
        start = t_slot_start + self.timing.data_tx_offset
        self._transmit(rt, pkt, 0, start, frame, slot)
        aw = self.timing.ack_window
        self._listen(rt, "ack", slot, frame, t_slot_start + aw[0], t_slot_start + aw[1])

    def _ev_child_uplink(self, rt: _NodeRt, frame: int, slot: int, t_slot_start: float) -> None:
        if rt.st.mode is not NodeMode.SYNCHRONIZED:
            return
        dw = self.timing.data_window
        self._listen(rt, "uplink_rx", slot, frame, t_slot_start + dw[0], t_slot_start + dw[1])

    def _ev_own_downlink(self, rt: _NodeRt, frame: int, slot: int, t_slot_start: float) -> None:
        st = rt.st
        if st.mode is not NodeMode.SYNCHRONIZED or not st.expecting_downlink:
            return
        dw = self.timing.data_window
        self._listen(rt, "downlink_rx", slot, frame, t_slot_start + dw[0], t_slot_start + dw[1])

    def _ev_child_downlink(self, rt: _NodeRt, frame: int, slot: int, t_slot_start: float) -> None:
        st = rt.st
        if st.mode is not NodeMode.SYNCHRONIZED:
            return
        for i, (pkt, target_slot) in enumerate(st.downlink_queue):
            if target_slot == slot:
                del st.downlink_queue[i]
                start = t_slot_start + self.timing.data_tx_offset
                self._transmit(rt, pkt, 0, start, frame, slot)
                return

    def _ev_join_slot(self, rt: _NodeRt, frame: int, t_slot_start: float) -> None:
        st = rt.st
        if st.mode is not NodeMode.SYNCHRONIZED:
            return
        rt.pending_accept_tx = []
        self._listen(
            rt, "join_rx", self.sched.join_slot, frame,
            t_slot_start + self.timing.t_offset,
            t_slot_start + self.t_join_accept - 0.005,
        )
        if st.is_relay:
            t_acc = t_slot_start + self.t_join_accept
            self._push(t_acc, _P_SVC, st.node_id, self._ev_join_respond, rt, frame, t_acc)

    def _ev_join_respond(self, rt: _NodeRt, frame: int, t: float) -> None:
        if rt.st.mode is not NodeMode.SYNCHRONIZED or not rt.pending_accept_tx:
            return
        first, rest = rt.pending_accept_tx[0], rt.pending_accept_tx[1:]
        self._transmit(rt, first, 0, t, frame, self.sched.join_slot)
        for pkt in rest:
            triple = tuple(pkt.payload)
            self._enqueue_down_logged(rt, pkt, triple[2], t)
        rt.pending_accept_tx = []

    def _ev_app(self, rt: _NodeRt, frame: int, t: float) -> None:
        st = rt.st
        if st.mode is not NodeMode.SYNCHRONIZED:
            return
        sc = self.sc
        if sc.power is not None and sc.power.tau_app > 0:
            self.app_intervals[st.node_id].append((t, t + sc.power.tau_app))
        if sc.app_payload_bytes <= 0:
            return
        payload = bytes(sc.app_payload_bytes)
        pkt = MacPacket(
            kind=PacketKind.UP_DATA,
            network_id=st.network_id,
            sender_id=st.address if st.address is not None else 0,
            dest_id=st.parent_id if st.parent_id is not None else st.address or 0,
            origin_id=st.address if st.address is not None else 0,
            seq=st.next_seq(),
            payload=payload,
        )
        if st.is_relay:
            if len(rt.gw_queue) >= st.queue_capacity:
                rt.gw_drops += 1
                self._log_packet(t, st.node_id, "queue_drop", pkt, LORAWAN_CHANNEL, frame, -1)
            else:
                rt.gw_queue.append(pkt)
        else:
            if len(st.uplink_queue) >= st.queue_capacity:
                st.uplink_drops += 1
                self._log_packet(t, st.node_id, "queue_drop", pkt, "0", frame, -1)
            else:
                st.uplink_queue.append(pkt)

    # ------------------------------------------------------------ radio

    def _listen(
        self, rt: _NodeRt, purpose: str, slot: int, frame: int, open_t: float,
        close_t: float, on_close=None,
    ) -> None:
        """Open a receive window on channel 0 and schedule its close."""
        win = _Window(rt.st.node_id, 0, open_t, close_t, purpose, slot, frame)
        rt.windows.append(win)
        self._push(
            close_t, _P_CLOSE, rt.st.node_id, on_close or self._ev_plain_window_close, rt, win
        )

    def _ev_plain_window_close(self, rt: _NodeRt, win: _Window) -> None:
        if not win.closed:
            self._close_window(rt, win)

    def _close_window(self, rt: _NodeRt, win: _Window) -> None:
        win.closed = True
        end = win.early_close if win.early_close is not None else win.close_t
        end = min(end, self.end_time)
        if end > win.open_t:
            self.radio_intervals.append(
                (rt.st.node_id, "receive", win.open_t, end, "0")
            )
        if win in rt.windows:
            rt.windows.remove(win)

    def _transmit(
        self, rt: _NodeRt, pkt: MacPacket, channel: int | str, start: float,
        frame: int, slot: int,
    ) -> None:
        airtime = self._toa(pkt.onair_bytes)
        tx = Transmission(
            sender=rt.st.node_id,
            packet=pkt,
            channel=channel,
            start=start,
            end=start + airtime,
            frame=frame,
            slot=slot,
        )
        self._push(start, _P_TX_START, rt.st.node_id, self._ev_tx_start, rt, tx)
        self._push(tx.end, _P_TX_END, rt.st.node_id, self._ev_tx_end, rt, tx)

    def _ev_tx_start(self, rt: _NodeRt, tx: Transmission) -> None:
        # Half-duplex: a continuously listening node stops receiving while
        # it transmits; the gap also voids coverage of overlapping packets.
        if rt.listen_from is not None and tx.start > rt.listen_from:
            self.radio_intervals.append(
                (rt.st.node_id, "receive", rt.listen_from, tx.start, "0")
            )
        rt.resume_listen = rt.listen_from is not None
        rt.listen_from = None
        rt.own_tx.append((tx.start, tx.end))
        self.active_tx.append(tx)

    def _ev_tx_end(self, rt: _NodeRt, tx: Transmission) -> None:
        self.radio_intervals.append(
            (rt.st.node_id, "transmit", tx.start, tx.end, str(tx.channel))
        )
        self._log_packet(tx.start, rt.st.node_id, "tx", tx.packet, str(tx.channel), tx.frame, tx.slot)
        if rt.resume_listen and rt.st.mode in (
            NodeMode.UNJOINED,
            NodeMode.JOINING,
            NodeMode.DESYNCHRONIZED,
        ):
            rt.listen_from = tx.end
            rt.resume_listen = False
        self.tx_history.append(tx)
        if tx in self.active_tx:
            self.active_tx.remove(tx)
        if tx.channel != LORAWAN_CHANNEL:
            self._deliver(tx)

    # ------------------------------------------------------------ delivery

    def _listening_state(self, rt: _NodeRt, tx: Transmission) -> tuple[bool, bool]:
        """(fully_covered, heard_at_all) for one listener and one tx."""
        if rt.listen_from is not None and rt.listen_from <= tx.start:
            for s, e in reversed(rt.own_tx):
                if e <= tx.start:
                    break
                if s < tx.end and e > tx.start:
                    return False, True
            return True, True
        for win in rt.windows:
            if win.channel != tx.channel or win.closed:
                continue
            if win.open_t <= tx.start and tx.end <= win.close_t:
                return True, True
        for win in rt.windows:
            if win.channel != tx.channel or win.closed:
                continue
            if win.open_t < tx.end and win.close_t > tx.start:
                return False, True
        if rt.listen_from is not None and rt.listen_from < tx.end:
            return False, True
        return False, False

    def _deliver(self, tx: Transmission) -> None:
        self.tx_history = [
            t for t in self.tx_history if t.end > tx.start - 2.0
        ]
        links = self.sc.links
        listeners = []
        for nid in sorted(self.nodes):
            if nid == tx.sender or (tx.sender, nid) not in links:
                continue
            covered, heard = self._listening_state(self.nodes[nid], tx)
            if heard:
                listeners.append((nid, covered, links[(tx.sender, nid)]))
        outcomes = deliver(tx, listeners, self.tx_history + self.active_tx, links, self.rng)
        for nid, outcome in outcomes.items():
            event = "rx" if outcome == "received" else outcome
            self._log_packet(tx.end, nid, event, tx.packet, str(tx.channel), tx.frame, tx.slot)
            if event == "rx":
                self._receive(self.nodes[nid], tx)

    def _receive(self, rt: _NodeRt, tx: Transmission) -> None:
        st = rt.st
        in_join_slot = False
        covering = None
        for win in rt.windows:
            if not win.closed and win.open_t <= tx.start and tx.end <= win.close_t:
                covering = win
                break
        if covering is not None and covering.purpose == "join_rx":
            in_join_slot = True
        drops_before = st.uplink_drops + st.downlink_drops
        actions = handle_rx(
            st, tx.packet, tx.end, self.sched, self.timing, in_join_slot=in_join_slot
        )
        if st.uplink_drops + st.downlink_drops > drops_before:
            self._log_packet(tx.end, st.node_id, "queue_drop", tx.packet, str(tx.channel), tx.frame, tx.slot)
        for act in actions:
            self._apply_action(rt, act, tx, covering)

    def _apply_action(self, rt, act, tx: Transmission, win: _Window | None) -> None:
        st = rt.st
        if isinstance(act, Resync):
            expected_tick = tx.frame * self.sched.frame_ticks + rt.sync_slot * self.sched.ticks_per_slot
            st.clock = resync(st.clock, act.reference_global, expected_tick)
            anchor = st.clock.epoch_global
            if win is not None:
                win.early_close = tx.end
                self._close_window(rt, win)
            rt.anchor = anchor
            rt.frame = tx.frame
            rt.eff_guard = self.sc.guard.base_guard
            self._record_frame_samples(rt, tx.frame, anchor, resynced=True)
            self._schedule_frame(rt, tx.frame, anchor)
        elif isinstance(act, CandidateBeacon):
            ref = tx.start - self.timing.beacon_tx_offset
            rssi = self.sc.link_rssi.get((tx.sender, st.node_id), -60.0)
            rt.candidates[act.sender_id] = (rssi, ref, tx.frame)
            self._maybe_schedule_attempt(rt, tx.end)
        elif isinstance(act, SendAck):
            slot_start = tx.start - self.timing.data_tx_offset
            t_ack = slot_start + self.timing.ack_tx_offset
            ack = MacPacket(
                kind=PacketKind.ACK,
                network_id=st.network_id,
                sender_id=st.address if st.address is not None else 0,
                dest_id=act.dest_id,
                origin_id=act.dest_id,
                seq=act.seq,
            )
            self._transmit(rt, ack, 0, t_ack, tx.frame, tx.slot)
        elif isinstance(act, SendJoinAccept):
            rt.pending_accept_tx.append(act.packet)
        elif isinstance(act, GatewayEnqueue):
            if len(rt.gw_queue) >= st.queue_capacity:
                rt.gw_drops += 1
                self._log_packet(tx.end, st.node_id, "queue_drop", act.packet, LORAWAN_CHANNEL, tx.frame, tx.slot)
            else:
                rt.gw_queue.append(act.packet)
        elif isinstance(act, BecameSynchronized):
            self._on_synchronized(rt, act, tx)

    def _maybe_schedule_attempt(self, rt: _NodeRt, now: float) -> None:
        st = rt.st
        if st.mode not in (NodeMode.UNJOINED, NodeMode.DESYNCHRONIZED):
            return
        if rt.attempt_scheduled or not rt.candidates:
            return
        rt.attempt_scheduled = True
        addr = min(rt.candidates, key=lambda a: (-rt.candidates[a][0], a))
        _rssi, ref, _frame = rt.candidates[addr]
        t_join = ref + (self.sched.join_slot - addr) * self.t_slot
        while t_join <= now:
            t_join += self.t_frame
        self._push(t_join, _P_SVC, st.node_id, self._ev_join_attempt, rt, t_join)

    def _ev_join_attempt(self, rt: _NodeRt, t_evt: float) -> None:
        st = rt.st
        rt.attempt_scheduled = False
        if st.mode not in (NodeMode.UNJOINED, NodeMode.DESYNCHRONIZED):
            return
        if not rt.candidates:
            return
        heard = [(addr, info[0]) for addr, info in sorted(rt.candidates.items())]
        parent, req = join_procedure(st, heard)
        _rssi, ref, frame = rt.candidates[parent]
        slot_start = ref + (self.sched.join_slot - parent) * self.t_slot
        backoff = self.rng.randrange(self.sc.join.backoff_slots)
        t_tx = slot_start + self._join_req_offset(backoff)
        # A stale reference (the chosen parent's beacon was lost this
        # frame) may point at a contention slot already behind us; step
        # forward on the nominal frame grid until the slot is ahead.
        while t_tx <= t_evt:
            t_tx += self.t_frame
            frame += 1
        self._transmit(rt, req, 0, t_tx, frame, self.sched.join_slot)
        self.protocol_events.append(
            ProtocolEvent(t=t_tx, node=st.node_id, event="join_request", detail=f"parent={parent} backoff={backoff}")
        )
        t_retry = t_tx + self.sc.join.retry_frames * self.t_frame
        self._push(t_retry, _P_SVC, st.node_id, self._ev_join_timeout, rt, t_retry)

    def _ev_join_timeout(self, rt: _NodeRt, now: float) -> None:
        st = rt.st
        if st.mode is not NodeMode.JOINING:
            return
        st.mode = NodeMode.UNJOINED
        rt.attempt_scheduled = False
        self._maybe_schedule_attempt(rt, now)

    def _on_synchronized(self, rt: _NodeRt, act: BecameSynchronized, tx: Transmission) -> None:
        st = rt.st
        parent = act.parent_id
        if rt.listen_from is not None and tx.end > rt.listen_from:
            self.radio_intervals.append(
                (st.node_id, "receive", rt.listen_from, tx.end, "0")
            )
        rt.listen_from = None
        rt.sync_slot = parent
        info = rt.candidates.get(parent)
        if info is None:
            # Never heard the parent directly: should not happen (the
            # parent was chosen from heard beacons), but fail loud.
            raise RuntimeError(f"node {st.node_id} synchronized on unheard parent {parent}")
        _rssi, ref, frame = info
        expected_tick = frame * self.sched.frame_ticks + parent * self.sched.ticks_per_slot
        st.clock = resync(st.clock, ref, expected_tick)
        rt.anchor = st.clock.epoch_global
        rt.frame = frame
        rt.eff_guard = self.sc.guard.base_guard
        rt.app_phase = (st.address or 0) % self.sc.k
        self.protocol_events.append(
            ProtocolEvent(
                t=tx.end,
                node=st.node_id,
                event="synchronized",
                detail=f"frame={frame} address={st.address} parent={parent}",
            )
        )
        self._record_frame_samples(rt, frame, rt.anchor, resynced=True)
        # The frame is nearly over (the accept arrived in a join or
        # downlink slot, both late in the frame); arm the next beacon
        # window, from which normal per-frame scheduling takes over.
        self._schedule_beacon_window(rt, frame + 1, rt.anchor)

    # ------------------------------------------------------------ logging

    def _log_packet(
        self, t: float, node: int, event: str, pkt: MacPacket, channel: str,
        frame: int, slot: int,
    ) -> None:
        self.packet_events.append(
            PacketEvent(
                t=t,
                node=node,
                event=event,
                kind=pkt.kind.name.lower(),
                sender=pkt.sender_id,
                dest=pkt.dest_id,
                origin=pkt.origin_id,
                seq=pkt.seq,
                size_bytes=pkt.onair_bytes,
                channel=str(channel),
                frame=frame,
                slot=slot,
            )
        )

    def _enqueue_down_logged(self, rt: _NodeRt, pkt: MacPacket, slot: int, t: float) -> None:
        st = rt.st
        if len(st.downlink_queue) >= st.queue_capacity:
            st.downlink_drops += 1
            self._log_packet(t, st.node_id, "queue_drop", pkt, "0", -1, slot)
        else:
            st.downlink_queue.append((pkt, slot))

    # ------------------------------------------------------------ finalize

    def _finalize(self) -> SimulationTrace:
        end = self.end_time
        for rt in self.nodes.values():
            if rt.listen_from is not None and rt.listen_from < end:
                self.radio_intervals.append(
                    (rt.st.node_id, "receive", rt.listen_from, end, "0")
                )
                rt.listen_from = None
            for win in rt.windows:
                if not win.closed and win.open_t < end:
                    self.radio_intervals.append(
                        (rt.st.node_id, "receive", win.open_t, min(win.close_t, end), "0")
                    )
                    win.closed = True

        intervals: list[tuple[int, str, float, float, str]] = []
        for nid in sorted(self.nodes):
            rows = sorted(
                (
                    (max(0.0, s), min(e, end), state, ch)
                    for (n, state, s, e, ch) in self.radio_intervals
                    if n == nid and e > 0.0 and s < end and e > s
                ),
            )
            cursor = 0.0
            for s, e, state, ch in rows:
                if s > cursor:
                    intervals.append((nid, "sleep", cursor, s, ""))
                if s < cursor - 1e-9:
                    raise RuntimeError(
                        f"node {nid}: overlapping radio intervals at t={s:.9f}"
                    )
                intervals.append((nid, state, s, e, ch))
                cursor = max(cursor, e)
            if cursor < end:
                intervals.append((nid, "sleep", cursor, end, ""))

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

        counters = {
            nid: {
                "uplink_drops": rt.st.uplink_drops,
                "downlink_drops": rt.st.downlink_drops,
                "gateway_drops": rt.gw_drops,
                "protocol_errors": rt.st.protocol_errors,
                "beacon_misses": rt.beacon_misses_total,
            }
            for nid, rt in self.nodes.items()
        }

        self.packet_events.sort(key=lambda ev: (ev.t, ev.node, ev.event))

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
            node_counters=counters,
        )


def run(scenario: Scenario) -> SimulationTrace:
    """Simulate one scenario to completion. Deterministic per (scenario, seed)."""
    return Simulator(scenario).run()


def deliver(
    tx: Transmission,
    listeners: list[tuple[int, bool, float]],
    concurrent: list[Transmission],
    links: dict[tuple[int, int], float],
    rng: random.Random,
) -> dict[int, str]:
    """Outcome of one transmission at each listener; the engine's delivery rule.

    ``listeners`` holds (node_id, window_fully_covers_tx, link_per);
    ``concurrent`` the other transmissions on the air around ``tx``. An
    interferer counts at a listener only if ``(sender, listener)`` is in
    ``links``. No capture: any audible overlap on the channel destroys
    reception. PER draws happen in listener-id order.
    """
    # Same-channel transmissions overlapping tx; the cheap time test first.
    overlapping = []
    for o in concurrent:
        if o.start >= tx.end or o.end <= tx.start or o is tx or o.channel != tx.channel:
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
    parent = {
        s.frame: s.t_syn for s in trace.sync_samples if s.node == parent_id and s.resynced
    }
    child = {
        s.frame: s.t_syn for s in trace.sync_samples if s.node == child_id and s.resynced
    }
    return [parent[f] - child[f] for f in sorted(parent.keys() & child.keys())]


def measure_duty_cycle(
    trace: SimulationTrace,
    node_id: int,
    window_seconds: float,
    channel: str | None = None,
    start_s: float = 0.0,
) -> float:
    """Share of the window spent transmitting, optionally on one channel."""
    if window_seconds <= 0:
        raise ValueError("window must be positive")
    end_s = start_s + window_seconds
    total = 0.0
    for n, state, s, e, ch in trace.radio_intervals:
        if n != node_id or state != "transmit":
            continue
        if channel is not None and ch != str(channel):
            continue
        lo, hi = max(s, start_s), min(e, end_s)
        if hi > lo:
            total += hi - lo
    return total / window_seconds


def measure_avg_power(
    trace: SimulationTrace,
    node_id: int,
    profile,
    start_s: float = 0.0,
    end_s: float | None = None,
) -> float:
    """Time-weighted mean power over [start_s, end_s] for one node.

    Radio states map to profile powers; application bursts add
    (p_app - p_sleep) on top of whatever the radio is doing (the app
    runs while the radio sleeps in every scheduled layout).
    """
    if end_s is None:
        end_s = trace.end_time
    span = end_s - start_s
    if span <= 0:
        raise ValueError("measurement span must be positive")
    state_p = {"sleep": profile.p_sleep, "receive": profile.p_rx, "transmit": profile.p_tx}
    energy = 0.0
    for n, state, s, e, _ch in trace.radio_intervals:
        if n != node_id:
            continue
        lo, hi = max(s, start_s), min(e, end_s)
        if hi > lo:
            energy += state_p[state] * (hi - lo)
    for s, e in trace.app_intervals.get(node_id, []):
        lo, hi = max(s, start_s), min(e, end_s)
        if hi > lo:
            energy += (profile.p_app - profile.p_sleep) * (hi - lo)
    return energy / span


# ------------------------------------------------------------- export


def _fmt(x: float) -> str:
    return f"{x:.9f}"


def write_trace_csvs(trace: SimulationTrace, out_dir: str | Path) -> list[Path]:
    """Write the four CSV artifacts; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []

    p = out / "radio_states.csv"
    with p.open("w", newline="") as f:
        f.write("node,state,start_s,end_s\n")
        for n, state, s, e, _ch in trace.radio_intervals:
            f.write(f"{n},{state},{_fmt(s)},{_fmt(e)}\n")
    paths.append(p)

    p = out / "packet_events.csv"
    with p.open("w", newline="") as f:
        f.write("t_s,node,event,kind,sender,dest,origin,seq,size_bytes,channel,frame,slot\n")
        for ev in trace.packet_events:
            f.write(
                f"{_fmt(ev.t)},{ev.node},{ev.event},{ev.kind},{ev.sender},{ev.dest},"
                f"{ev.origin},{ev.seq},{ev.size_bytes},{ev.channel},{ev.frame},{ev.slot}\n"
            )
    paths.append(p)

    p = out / "sync_samples.csv"
    with p.open("w", newline="") as f:
        f.write("frame,parent,child,epsilon_us\n")
        for parent_id, child_id in sync_pairs(trace):
            pmap = {
                s.frame: s.t_syn
                for s in trace.sync_samples
                if s.node == parent_id and s.resynced
            }
            cmap = {
                s.frame: s.t_syn
                for s in trace.sync_samples
                if s.node == child_id and s.resynced
            }
            for fr in sorted(pmap.keys() & cmap.keys()):
                eps_us = (pmap[fr] - cmap[fr]) * 1e6
                f.write(f"{fr},{parent_id},{child_id},{eps_us:.3f}\n")
    paths.append(p)

    p = out / "summary.csv"
    with p.open("w", newline="") as f:
        f.write(
            "node,final_mode,address,duty_cycle,avg_power_w,tx_count,rx_count,"
            "uplink_drops,protocol_errors\n"
        )
        for nid in sorted(trace.final_modes):
            duty = measure_duty_cycle(trace, nid, trace.end_time)
            if trace.scenario.power is not None:
                power = f"{measure_avg_power(trace, nid, trace.scenario.power):.9e}"
            else:
                power = ""
            txc = sum(1 for ev in trace.packet_events if ev.node == nid and ev.event == "tx")
            rxc = sum(1 for ev in trace.packet_events if ev.node == nid and ev.event == "rx")
            addr = trace.addresses.get(nid, "")
            ctr = trace.node_counters[nid]
            drops = ctr["uplink_drops"] + ctr["downlink_drops"] + ctr["gateway_drops"]
            f.write(
                f"{nid},{trace.final_modes[nid]},{addr},{duty:.9f},{power},{txc},{rxc},"
                f"{drops},{ctr['protocol_errors']}\n"
            )
    paths.append(p)
    return paths


def sync_pairs(trace: SimulationTrace) -> list[tuple[int, int]]:
    """Parent-child pairs to report: every tree edge, plus relay-to-node
    for nodes deeper than one hop (the per-hop accumulation view)."""
    relay = trace.scenario.relay_id
    edges = sorted((p, c) for c, p in trace.parents.items())
    extra = sorted((relay, c) for c, p in trace.parents.items() if p != relay)
    seen: set[tuple[int, int]] = set()
    ordered: list[tuple[int, int]] = []
    for pair in edges + extra:
        if pair not in seen:
            seen.add(pair)
            ordered.append(pair)
    return ordered
