"""MAC state machine: schedule layout, packets, join, forwarding."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import lorahop.engine
import lorahop.protocol
from lorahop import (
    FrameSchedule,
    GuardConfig,
    MacPacket,
    NodeState,
    PacketKind,
    RadioParams,
    Scenario,
    SlotTiming,
    build_schedule,
    time_on_air,
)
from lorahop.protocol import (
    BecameSynchronized,
    CandidateBeacon,
    NodeMode,
    QueueDrop,
    Resync,
    SendAck,
    SendJoinAccept,
    forwarding_step,
    handle_rx,
    join_procedure,
    make_beacon,
    make_relay,
)
from lorahop.scenario import JoinConfig

TIMING = SlotTiming()
SCHED = build_schedule(max_nodes=4, slots_per_frame=90, ticks_per_slot=21281)


# --- frame template ---


def test_slot_triple():
    assert SCHED.slot_triple(0) == (0, 5, 9)
    assert SCHED.slot_triple(3) == (3, 8, 12)
    assert SCHED.join_slot == 13
    assert SCHED.first_idle_slot == 14


def test_layout_capacity_floor():
    build_schedule(max_nodes=4, slots_per_frame=14, ticks_per_slot=21281)
    with pytest.raises(ValueError):
        build_schedule(max_nodes=4, slots_per_frame=13, ticks_per_slot=21281)


@pytest.mark.parametrize(
    "max_nodes, slots, ticks, message",
    [
        (0, 8, 21281, r"^need at least one addressable node \(the relay\)$"),
        (2, 8, 0, r"^ticks per slot must be at least 1$"),
    ],
    ids=["max_nodes_0", "ticks_per_slot_0"],
)
def test_build_schedule_refusals(max_nodes, slots, ticks, message):
    with pytest.raises(ValueError, match=message):
        build_schedule(max_nodes, slots, ticks)


def _frame_seconds(schedule: FrameSchedule, tick_rate_hz: int) -> float:
    """T_F of a scenario with this frame schedule and tick rate."""
    return Scenario(
        schedule, tick_rate_hz, RadioParams(), GuardConfig(), JoinConfig(), (), {}, frames=1
    ).frame_seconds


def test_frame_time_reference():
    t = _frame_seconds(SCHED, 32768)
    assert t == 90 * 21281 / 32768
    assert abs(t - 58.5) < 0.1


def test_frame_time_scales_with_tick_rate():
    assert _frame_seconds(SCHED, 65536) == pytest.approx(29.225006103515625, abs=0.0)
    one = build_schedule(1, 5, 32768)
    assert _frame_seconds(one, 32768) == pytest.approx(5.0)


# --- packets ---


def test_packet_field_bounds():
    MacPacket(PacketKind.UP_DATA, 1, 3, 0, 3, 31, b"x" * 59)
    with pytest.raises(ValueError):
        MacPacket(PacketKind.UP_DATA, 1, 256, 0, 3, 0)
    with pytest.raises(ValueError):
        MacPacket(PacketKind.UP_DATA, 1, 3, 0, 3, 32)
    with pytest.raises(ValueError):
        MacPacket(PacketKind.UP_DATA, 1, 3, 0, 3, 0, b"x" * 60)


@pytest.mark.parametrize(
    "fields, message",
    [
        ((-1, 3, 0, 3, 0, b""), "network_id -1 does not fit one byte"),
        ((1, 256, 0, 3, 0, b""), "sender_id 256 does not fit one byte"),
        ((1, 3, 256, 3, 0, b""), "dest_id 256 does not fit one byte"),
        ((1, 3, 0, -1, 0, b""), "origin_id -1 does not fit one byte"),
        ((1, 3, 0, 3, -1, b""), "seq -1 outside the packed 5-bit field"),
        ((1, 3, 0, 3, 0, b"x" * 60), r"payload of 60 B exceeds 59 B \(64 B on-air cap\)"),
    ],
)
def test_packet_check_names_the_field(fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        MacPacket(PacketKind.UP_DATA, *fields)


def test_packets_and_actions_are_immutable():
    pkt = MacPacket(PacketKind.UP_DATA, 1, 2, 0, 2, 4, b"abc")
    for rec, field in (
        (pkt, "dest_id"),
        (SendAck(2, 4), "seq"),
        (SendJoinAccept(pkt), "packet"),
        (BecameSynchronized(0), "parent_id"),
        (CandidateBeacon(0), "sender_id"),
        (QueueDrop(pkt, None), "slot"),
    ):
        with pytest.raises(AttributeError):
            setattr(rec, field, 0)
    assert pkt == MacPacket(PacketKind.UP_DATA, 1, 2, 0, 2, 4, b"abc")


def test_onair_sizes():
    beacon = make_beacon(make_relay(10), frame_index=7)
    assert beacon.onair_bytes == 3
    ack = MacPacket(PacketKind.ACK, 1, 0, 2, 0, 5)
    assert ack.onair_bytes == 2
    data = MacPacket(PacketKind.UP_DATA, 1, 2, 0, 2, 5, b"x" * 24)
    assert data.onair_bytes == 29


def test_no_enum_class_lookup_in_a_function_body():
    # CPython 3.10 and 3.11 read NodeMode.X and PacketKind.X through the enum
    # metaclass's __getattr__, a slow hook; the event path reads the members'
    # module-level bindings instead. Module level and class bodies may use them.
    members = {cls.__name__: set(cls.__members__) for cls in (NodeMode, PacketKind)}
    found = set()
    for module in (lorahop.engine, lorahop.protocol):
        tree = ast.parse(Path(module.__file__).read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name)
                    and node.attr in members.get(node.value.id, ())
                ):
                    found.add(f"{module.__name__}:{node.lineno} {node.value.id}.{node.attr}")
    assert sorted(found) == []


def _sites(module, hit) -> list[str]:
    """The enclosing function's name for each node of the module that ``hit``
    accepts (the modules nest no functions)."""
    tree = ast.parse(Path(module.__file__).read_text())
    return sorted(
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if hit(node)
    )


def test_one_function_per_recording_rule():
    # A receive interval, a ProtocolEvent and the relay's address
    # allocation are each written in one place, so a rule changes there.
    def receive_row(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "append"
            and any(
                isinstance(arg, ast.Tuple)
                and any(isinstance(e, ast.Constant) and e.value == "receive" for e in arg.elts)
                for arg in node.args
            )
        )

    def builds(name):
        return lambda node: isinstance(node, ast.Call) and any(
            isinstance(part, ast.Name) and part.id == name for part in (node.func, *node.args)
        )

    assert _sites(lorahop.engine, receive_row) == ["_log_receive"]
    assert _sites(lorahop.engine, builds("ProtocolEvent")) == ["_log_protocol"]
    assert _sites(lorahop.protocol, builds("_alloc_address")) == ["_join_accept"]


def test_beacon_seq_wraps_with_frame():
    relay = make_relay(10)
    assert make_beacon(relay, 0).seq == 0
    assert make_beacon(relay, 33).seq == 1


def test_slot_timing_anatomy():
    t = TIMING
    assert t.beacon_tx_offset == 0.030
    assert t.data_tx_offset == pytest.approx(0.035)
    assert t.data_window == (0.030, 0.030 + 0.010 + 0.390144)
    assert t.ack_tx_offset == pytest.approx(t.data_window[1] + 0.035)
    assert t.slot_budget() < 21281 / 32768
    t.validate_for(21281 / 32768)
    with pytest.raises(ValueError):
        t.validate_for(0.5)
    sf7 = RadioParams(spreading_factor=7)
    t7 = SlotTiming(sf7)
    assert t7.data_window[1] == 0.040 + time_on_air(64, sf7)
    # The join slot: 13 guard times hold the 0.124 s JoinRequest at SF9.
    assert t.t_backoff == 0.130
    assert t.join_request_offsets == tuple(0.030 + 0.010 / 2.0 + b * 0.130 for b in range(3))
    assert t.join_accept_offset == 0.030 + 0.010 + 3 * 0.130
    # At every SF a backoff position holds a whole request, in guard times.
    for sf in range(6, 13):
        radio = RadioParams(spreading_factor=sf)
        step = SlotTiming(radio).t_backoff
        assert step >= time_on_air(5, radio)
        assert step - 0.010 < time_on_air(5, radio)


# --- relay bootstrap and roles ---


def test_make_relay():
    relay = make_relay(10)
    assert relay.mode is NodeMode.SYNCHRONIZED
    assert relay.address == 0
    assert relay.is_relay
    assert relay.parent_id is None


def test_only_make_relay_makes_a_relay():
    # Synchronized at address 0 with no parent, as the relay is, but built
    # by hand: the role is the flag make_relay sets, not read off the state.
    st = NodeState(node_id=10, mode=NodeMode.SYNCHRONIZED, address=0)
    assert st.address == 0 and st.parent_id is None
    assert not st.is_relay


def _synced_leaf(node_id: int, address: int, parent: int = 0) -> NodeState:
    st = NodeState(node_id=node_id)
    st.mode = NodeMode.SYNCHRONIZED
    st.parent_id = parent
    st.address = address
    return st


# --- forwarding ---


def test_forwarding_rewrites_hops():
    leaf = _synced_leaf(11, 2)
    original = MacPacket(PacketKind.UP_DATA, 1, 7, 2, 7, 4, b"abc")
    leaf.uplink_queue.append(original)
    out = forwarding_step(leaf)
    assert out is not None
    assert (out.sender_id, out.dest_id) == (2, 0)
    assert (out.origin_id, out.seq, out.payload) == (7, 4, b"abc")
    # Head stays queued until its ack arrives.
    assert leaf.uplink_queue[0] is original


def test_ack_pops_matching_head():
    leaf = _synced_leaf(11, 2)
    leaf.uplink_queue.append(MacPacket(PacketKind.UP_DATA, 1, 2, 0, 2, 4, b"abc"))
    wrong = MacPacket(PacketKind.ACK, 1, 0, 2, 0, 5)
    assert handle_rx(leaf, wrong, SCHED) == []
    assert len(leaf.uplink_queue) == 1
    right = MacPacket(PacketKind.ACK, 1, 0, 2, 0, 4)
    acts = handle_rx(leaf, right, SCHED)
    assert acts == []
    assert not leaf.uplink_queue


# --- beacons and resync ---


def test_wrong_network_ignored():
    leaf = _synced_leaf(11, 2)
    alien = MacPacket(PacketKind.BEACON, 2, 0, 255, 0, 0)
    assert handle_rx(leaf, alien, SCHED) == []
    assert leaf.protocol_errors == 0


def test_parent_beacon_resyncs():
    # The engine builds the reference (test_engine checks it at SF9 and SF8).
    leaf = _synced_leaf(11, 2)
    leaf.consecutive_beacon_misses = 2
    (act,) = handle_rx(leaf, make_beacon(make_relay(10), 3), SCHED)
    assert type(act) is Resync
    assert leaf.consecutive_beacon_misses == 0


def test_non_parent_beacon_no_resync():
    leaf = _synced_leaf(11, 2)
    other = _synced_leaf(12, 1)
    assert handle_rx(leaf, make_beacon(other, 3), SCHED) == []


def test_unjoined_collects_candidates():
    st = NodeState(node_id=13)
    acts = handle_rx(st, make_beacon(make_relay(10), 0), SCHED)
    assert acts == [CandidateBeacon(sender_id=0)]


# --- join handshake ---


def test_join_procedure_prefers_strong_then_low():
    st = NodeState(node_id=13)
    parent, req = join_procedure(st, [(2, -70.0), (1, -60.0), (3, -60.0)])
    assert parent == 1  # strongest rssi, tie broken toward the lower address
    assert st.mode is NodeMode.JOINING
    assert req.kind is PacketKind.JOIN_REQUEST
    assert (req.origin_id, req.dest_id) == (13, 1)
    with pytest.raises(ValueError):
        join_procedure(NodeState(node_id=14), [])


def test_relay_accepts_in_join_slot():
    relay = make_relay(10)
    req = MacPacket(PacketKind.JOIN_REQUEST, 1, 13, 0, 13, 0)
    acts = handle_rx(relay, req, SCHED, in_join_slot=True)
    (act,) = acts
    assert isinstance(act, SendJoinAccept)
    assert act.packet.kind is PacketKind.JOIN_ACCEPT
    assert act.packet.origin_id == 13
    assert tuple(act.packet.payload) == SCHED.slot_triple(1)
    assert 1 in relay.children

    # Same hardware id asks again: identical allocation, no new address.
    acts2 = handle_rx(relay, req, SCHED, in_join_slot=True)
    assert tuple(acts2[0].packet.payload) == SCHED.slot_triple(1)
    assert relay.next_address == 2


def test_address_exhaustion_counts_error():
    sched = build_schedule(max_nodes=2, slots_per_frame=8, ticks_per_slot=21281)
    relay = make_relay(10)
    first = MacPacket(PacketKind.JOIN_REQUEST, 1, 13, 0, 13, 0)
    handle_rx(relay, first, sched, in_join_slot=True)
    second = MacPacket(PacketKind.JOIN_REQUEST, 1, 14, 0, 14, 0)
    acts = handle_rx(relay, second, sched, in_join_slot=True)
    assert acts == []
    assert relay.protocol_errors == 1


def test_forwarder_relays_join_request():
    mid = _synced_leaf(11, 1)
    req = MacPacket(PacketKind.JOIN_REQUEST, 1, 13, 1, 13, 0)
    acts = handle_rx(mid, req, SCHED, in_join_slot=True)
    assert acts == []
    assert mid.pending_accepts == {13}
    assert mid.uplink_queue[0].origin_id == 13
    assert mid.routes[13] is None


def test_joining_node_takes_its_accept():
    st = NodeState(node_id=13)
    join_procedure(st, [(0, -60.0)])
    triple = SCHED.slot_triple(2)
    accept = MacPacket(PacketKind.JOIN_ACCEPT, 1, 0, 13, 13, 0, bytes(triple))
    acts = handle_rx(st, accept, SCHED)
    (act,) = acts
    assert isinstance(act, BecameSynchronized)
    assert SCHED.slot_triple(st.address) == triple
    assert st.mode is NodeMode.SYNCHRONIZED
    assert st.address == 2

    # Someone else's accept means nothing to a joiner.
    st2 = NodeState(node_id=14)
    join_procedure(st2, [(0, -60.0)])
    assert handle_rx(st2, accept, SCHED) == []
    assert st2.mode is NodeMode.JOINING


def test_accept_routed_down_through_forwarder():
    mid = _synced_leaf(11, 1)
    mid.routes[13] = None
    mid.pending_accepts.add(13)
    triple = SCHED.slot_triple(2)
    accept = MacPacket(PacketKind.JOIN_ACCEPT, 1, 0, 1, 13, 0, bytes(triple))
    handle_rx(mid, accept, SCHED)
    assert 2 in mid.children
    assert not mid.pending_accepts
    # Queued for the joiner's new downlink slot, which only the
    # forwarder can know; the joiner still listens continuously.
    pkt, slot = mid.downlink_queue[0]
    assert slot == triple[2]
    assert pkt.dest_id == 13


def test_forwarded_accept_is_checked_like_any_packet():
    # Re-addressing a JoinAccept for the next hop builds a new packet through
    # the constructor, so a next hop that does not fit one byte is refused.
    mid = _synced_leaf(11, 1)
    mid.routes[13] = 256
    accept = MacPacket(PacketKind.JOIN_ACCEPT, 1, 0, 1, 13, 0, bytes(SCHED.slot_triple(2)))
    with pytest.raises(ValueError, match="dest_id 256 does not fit one byte"):
        handle_rx(mid, accept, SCHED)
    assert not mid.downlink_queue


def test_full_queue_names_the_packet_it_turned_away():
    # A forwarder's full downlink queue refuses the re-addressed accept,
    # bound for the joiner's downlink slot; the relay's refuses the accept it
    # built for a forwarded JoinRequest; a full uplink queue refuses the
    # packet that arrived.
    mid = _synced_leaf(11, 1)
    mid.routes[13] = None
    mid.queue_capacity = 0
    accept = MacPacket(PacketKind.JOIN_ACCEPT, 1, 0, 1, 13, 0, bytes(SCHED.slot_triple(2)))
    (drop,) = handle_rx(mid, accept, SCHED)
    assert drop == QueueDrop(MacPacket(PacketKind.JOIN_ACCEPT, 1, 1, 13, 13, 0, accept.payload), SCHED.downlink_slot(2))

    relay = make_relay(10)
    relay.children.add(1)
    relay.queue_capacity = 0
    req = MacPacket(PacketKind.JOIN_REQUEST, 1, 1, 0, 13, 3)
    ack, drop = handle_rx(relay, req, SCHED)
    assert isinstance(ack, SendAck)
    assert drop.slot == SCHED.downlink_slot(1)
    assert drop.packet[:5] == (PacketKind.JOIN_ACCEPT, 1, 0, 1, 13)

    mid.children.add(2)
    data = MacPacket(PacketKind.UP_DATA, 1, 2, 1, 2, 4, b"abc")
    assert handle_rx(mid, data, SCHED) == [SendAck(2, 4), QueueDrop(data, None)]


def test_accept_without_route_is_error():
    mid = _synced_leaf(11, 1)
    accept = MacPacket(PacketKind.JOIN_ACCEPT, 1, 0, 1, 13, 0, bytes(SCHED.slot_triple(2)))
    assert handle_rx(mid, accept, SCHED) == []
    assert mid.protocol_errors == 1


# --- uplink data path ---


def test_relay_gateway_enqueue_and_dedup():
    relay = make_relay(10)
    relay.children.add(2)
    data = MacPacket(PacketKind.UP_DATA, 1, 2, 0, 2, 4, b"abc")
    acts = handle_rx(relay, data, SCHED)
    kinds = [type(a) for a in acts]
    assert kinds == [SendAck]
    assert acts[0].seq == 4
    # The relay's uplink queue is its LoRaWAN backlog.
    assert list(relay.uplink_queue) == [data]

    # A retransmission of the same (origin, seq) is acked but not re-queued.
    acts2 = handle_rx(relay, data, SCHED)
    assert [type(a) for a in acts2] == [SendAck]
    assert list(relay.uplink_queue) == [data]


def test_uplink_from_stranger_dropped():
    relay = make_relay(10)
    data = MacPacket(PacketKind.UP_DATA, 1, 2, 0, 2, 4, b"abc")
    assert handle_rx(relay, data, SCHED) == []


def test_forwarder_queues_child_data():
    mid = _synced_leaf(11, 1)
    mid.children.add(2)
    data = MacPacket(PacketKind.UP_DATA, 1, 2, 1, 2, 4, b"abc")
    acts = handle_rx(mid, data, SCHED)
    assert [type(a) for a in acts] == [SendAck]
    assert mid.uplink_queue[0].origin_id == 2


def test_queue_capacity_drops():
    mid = _synced_leaf(11, 1)
    mid.children.add(2)
    mid.queue_capacity = 2
    for seq in range(3):
        data = MacPacket(PacketKind.UP_DATA, 1, 2, 1, 2, seq, b"abc")
        acts = handle_rx(mid, data, SCHED)
    assert len(mid.uplink_queue) == 2
    assert acts == [SendAck(2, 2), QueueDrop(data, None)]
