"""MAC state machine: schedule layout, packets, join, forwarding."""

from __future__ import annotations

import pytest

from lorahop import (
    FrameSchedule,
    MacPacket,
    NodeState,
    PacketKind,
    RadioParams,
    SlotRole,
    SlotTiming,
    build_schedule,
    frame_time,
    time_on_air,
)
from lorahop.protocol import (
    AckMatched,
    AppDelivery,
    BecameSynchronized,
    CandidateBeacon,
    ExpectDownlink,
    GatewayEnqueue,
    NodeMode,
    Resync,
    SendAck,
    SendJoinAccept,
    forwarding_step,
    handle_rx,
    join_procedure,
    make_beacon,
    make_relay,
)

TIMING = SlotTiming()
SCHED = build_schedule(max_nodes=4, slots_per_frame=90, ticks_per_slot=21281)


# --- frame template ---


def test_layout_sections():
    m = 4
    roles = [r for r, _ in SCHED.layout]
    assert roles[:m] == [SlotRole.BEACON_TX] * m
    assert roles[m] == SlotRole.LORAWAN_UPLINK
    assert roles[m + 1 : 2 * m + 1] == [SlotRole.UPLINK_EXCHANGE] * m
    assert roles[2 * m + 1 : 3 * m + 1] == [SlotRole.DOWNLINK_EXCHANGE] * m
    assert roles[3 * m + 1] == SlotRole.JOIN_CONTENTION
    assert all(r is SlotRole.IDLE for r in roles[3 * m + 2 :])
    assert len(roles) == 90


def test_slot_triple():
    assert SCHED.slot_triple(0) == (0, 5, 9)
    assert SCHED.slot_triple(3) == (3, 8, 12)
    assert SCHED.join_slot == 13
    assert SCHED.first_idle_slot == 14


def test_layout_capacity_floor():
    build_schedule(max_nodes=4, slots_per_frame=14, ticks_per_slot=21281)
    with pytest.raises(ValueError):
        build_schedule(max_nodes=4, slots_per_frame=13, ticks_per_slot=21281)


def test_frame_time_reference():
    t = frame_time(SCHED, 32768)
    assert t == 90 * 21281 / 32768
    assert abs(t - 58.5) < 0.1


def test_frame_time_scales_with_tick_rate():
    assert frame_time(SCHED, 65536) == pytest.approx(29.225006103515625, abs=0.0)
    one = build_schedule(1, 5, 32768)
    assert frame_time(one, 32768) == pytest.approx(5.0)


# --- packets ---


def test_packet_field_bounds():
    MacPacket(PacketKind.UP_DATA, 1, 3, 0, 3, 31, b"x" * 59)
    with pytest.raises(ValueError):
        MacPacket(PacketKind.UP_DATA, 1, 256, 0, 3, 0)
    with pytest.raises(ValueError):
        MacPacket(PacketKind.UP_DATA, 1, 3, 0, 3, 32)
    with pytest.raises(ValueError):
        MacPacket(PacketKind.UP_DATA, 1, 3, 0, 3, 0, b"x" * 60)


def test_onair_sizes():
    beacon = make_beacon(make_relay(10, SCHED), frame_index=7)
    assert beacon.onair_bytes == 3
    ack = MacPacket(PacketKind.ACK, 1, 0, 2, 0, 5)
    assert ack.onair_bytes == 2
    data = MacPacket(PacketKind.UP_DATA, 1, 2, 0, 2, 5, b"x" * 24)
    assert data.onair_bytes == 29


def test_beacon_seq_wraps_with_frame():
    relay = make_relay(10, SCHED)
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


# --- relay bootstrap and roles ---


def test_make_relay():
    relay = make_relay(10, SCHED)
    assert relay.mode is NodeMode.SYNCHRONIZED
    assert relay.address == 0
    assert relay.is_relay
    assert relay.parent_id is None


def _synced_leaf(node_id: int, address: int, parent: int = 0) -> NodeState:
    st = NodeState(node_id=node_id)
    st.mode = NodeMode.SYNCHRONIZED
    st.parent_id = parent
    st.assigned_slots = SCHED.slot_triple(address)
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
    assert forwarding_step(NodeState(node_id=9)) is None


def test_ack_pops_matching_head():
    leaf = _synced_leaf(11, 2)
    leaf.uplink_queue.append(MacPacket(PacketKind.UP_DATA, 1, 2, 0, 2, 4, b"abc"))
    wrong = MacPacket(PacketKind.ACK, 1, 0, 2, 0, 5)
    assert handle_rx(leaf, wrong, 0.0, SCHED, TIMING) == []
    assert len(leaf.uplink_queue) == 1
    right = MacPacket(PacketKind.ACK, 1, 0, 2, 0, 4)
    acts = handle_rx(leaf, right, 0.0, SCHED, TIMING)
    assert acts == [AckMatched(seq=4)]
    assert not leaf.uplink_queue


# --- beacons and resync ---


def test_wrong_network_ignored():
    leaf = _synced_leaf(11, 2)
    alien = MacPacket(PacketKind.BEACON, 2, 0, 255, 0, 0)
    assert handle_rx(leaf, alien, 1.0, SCHED, TIMING) == []
    assert leaf.protocol_errors == 0


def test_parent_beacon_resyncs():
    leaf = _synced_leaf(11, 2)
    leaf.consecutive_beacon_misses = 2
    arrival = 100.0
    acts = handle_rx(leaf, make_beacon(make_relay(10, SCHED), 3), arrival, SCHED, TIMING)
    (act,) = acts
    assert isinstance(act, Resync)
    assert act.reference_global == pytest.approx(arrival - TIMING.t_bcn - TIMING.beacon_tx_offset)
    assert leaf.consecutive_beacon_misses == 0
    # The reference backs off the beacon airtime of the radio in use.
    sf8 = RadioParams(spreading_factor=8)
    (act,) = handle_rx(
        leaf, make_beacon(make_relay(10, SCHED), 4), arrival, SCHED, SlotTiming(sf8)
    )
    assert act.reference_global == pytest.approx(arrival - time_on_air(3, sf8) - 0.030)


def test_non_parent_beacon_no_resync():
    leaf = _synced_leaf(11, 2)
    other = _synced_leaf(12, 1)
    assert handle_rx(leaf, make_beacon(other, 3), 100.0, SCHED, TIMING) == []


def test_unjoined_collects_candidates():
    st = NodeState(node_id=13)
    acts = handle_rx(st, make_beacon(make_relay(10, SCHED), 0), 5.0, SCHED, TIMING)
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
    relay = make_relay(10, SCHED)
    req = MacPacket(PacketKind.JOIN_REQUEST, 1, 13, 0, 13, 0)
    acts = handle_rx(relay, req, 9.0, SCHED, TIMING, in_join_slot=True)
    (act,) = acts
    assert isinstance(act, SendJoinAccept)
    assert act.packet.kind is PacketKind.JOIN_ACCEPT
    assert act.packet.origin_id == 13
    assert tuple(act.packet.payload) == SCHED.slot_triple(1)
    assert 1 in relay.children

    # Same hardware id asks again: identical allocation, no new address.
    acts2 = handle_rx(relay, req, 70.0, SCHED, TIMING, in_join_slot=True)
    assert tuple(acts2[0].packet.payload) == SCHED.slot_triple(1)
    assert relay.next_address == 2


def test_address_exhaustion_counts_error():
    sched = build_schedule(max_nodes=2, slots_per_frame=8, ticks_per_slot=21281)
    relay = make_relay(10, sched)
    first = MacPacket(PacketKind.JOIN_REQUEST, 1, 13, 0, 13, 0)
    handle_rx(relay, first, 9.0, sched, TIMING, in_join_slot=True)
    second = MacPacket(PacketKind.JOIN_REQUEST, 1, 14, 0, 14, 0)
    acts = handle_rx(relay, second, 70.0, sched, TIMING, in_join_slot=True)
    assert acts == []
    assert relay.protocol_errors == 1


def test_forwarder_relays_join_request():
    mid = _synced_leaf(11, 1)
    req = MacPacket(PacketKind.JOIN_REQUEST, 1, 13, 1, 13, 0)
    acts = handle_rx(mid, req, 9.0, SCHED, TIMING, in_join_slot=True)
    assert any(isinstance(a, ExpectDownlink) for a in acts)
    assert mid.pending_accepts == {13}
    assert mid.uplink_queue[0].origin_id == 13
    assert mid.routes[13] is None


def test_joining_node_takes_its_accept():
    st = NodeState(node_id=13)
    join_procedure(st, [(0, -60.0)])
    triple = SCHED.slot_triple(2)
    accept = MacPacket(PacketKind.JOIN_ACCEPT, 1, 0, 13, 13, 0, bytes(triple))
    acts = handle_rx(st, accept, 12.0, SCHED, TIMING)
    (act,) = acts
    assert isinstance(act, BecameSynchronized)
    assert act.assigned_slots == triple
    assert st.mode is NodeMode.SYNCHRONIZED
    assert st.address == 2

    # Someone else's accept means nothing to a joiner.
    st2 = NodeState(node_id=14)
    join_procedure(st2, [(0, -60.0)])
    assert handle_rx(st2, accept, 12.0, SCHED, TIMING) == []
    assert st2.mode is NodeMode.JOINING


def test_accept_routed_down_through_forwarder():
    mid = _synced_leaf(11, 1)
    mid.routes[13] = None
    mid.pending_accepts.add(13)
    triple = SCHED.slot_triple(2)
    accept = MacPacket(PacketKind.JOIN_ACCEPT, 1, 0, 1, 13, 0, bytes(triple))
    handle_rx(mid, accept, 12.0, SCHED, TIMING)
    assert 2 in mid.children
    assert not mid.pending_accepts
    # Queued for the joiner's new downlink slot, which only the
    # forwarder can know; the joiner still listens continuously.
    pkt, slot = mid.downlink_queue[0]
    assert slot == triple[2]
    assert pkt.dest_id == 13


def test_accept_without_route_is_error():
    mid = _synced_leaf(11, 1)
    accept = MacPacket(PacketKind.JOIN_ACCEPT, 1, 0, 1, 13, 0, bytes(SCHED.slot_triple(2)))
    assert handle_rx(mid, accept, 12.0, SCHED, TIMING) == []
    assert mid.protocol_errors == 1


# --- uplink data path ---


def test_relay_gateway_enqueue_and_dedup():
    relay = make_relay(10, SCHED)
    relay.children.add(2)
    data = MacPacket(PacketKind.UP_DATA, 1, 2, 0, 2, 4, b"abc")
    acts = handle_rx(relay, data, 30.0, SCHED, TIMING)
    kinds = [type(a) for a in acts]
    assert kinds == [SendAck, GatewayEnqueue]
    assert acts[0].seq == 4

    # A retransmission of the same (origin, seq) is acked but not re-queued.
    acts2 = handle_rx(relay, data, 90.0, SCHED, TIMING)
    assert [type(a) for a in acts2] == [SendAck]


def test_uplink_from_stranger_dropped():
    relay = make_relay(10, SCHED)
    data = MacPacket(PacketKind.UP_DATA, 1, 2, 0, 2, 4, b"abc")
    assert handle_rx(relay, data, 30.0, SCHED, TIMING) == []


def test_forwarder_queues_child_data():
    mid = _synced_leaf(11, 1)
    mid.children.add(2)
    data = MacPacket(PacketKind.UP_DATA, 1, 2, 1, 2, 4, b"abc")
    acts = handle_rx(mid, data, 30.0, SCHED, TIMING)
    assert [type(a) for a in acts] == [SendAck]
    assert mid.uplink_queue[0].origin_id == 2


# --- downlink data path ---


def test_down_data_for_self_delivered():
    leaf = _synced_leaf(11, 2)
    down = MacPacket(PacketKind.DOWN_DATA, 1, 0, 2, 0, 4, b"cmd")
    acts = handle_rx(leaf, down, 30.0, SCHED, TIMING)
    assert [type(a) for a in acts] == [AppDelivery]


def test_down_data_forwarded_by_route():
    mid = _synced_leaf(11, 1)
    mid.addr_routes[2] = None  # address 2 is a direct child
    down = MacPacket(PacketKind.DOWN_DATA, 1, 0, 2, 0, 4, b"cmd")
    handle_rx(mid, down, 30.0, SCHED, TIMING)
    pkt, slot = mid.downlink_queue[0]
    assert slot == SCHED.downlink_slot(2)
    assert pkt.sender_id == 1


def test_down_data_unknown_dest_is_error():
    mid = _synced_leaf(11, 1)
    down = MacPacket(PacketKind.DOWN_DATA, 1, 0, 7, 0, 4, b"cmd")
    assert handle_rx(mid, down, 30.0, SCHED, TIMING) == []
    assert mid.protocol_errors == 1


def test_queue_capacity_drops():
    mid = _synced_leaf(11, 1)
    mid.children.add(2)
    mid.queue_capacity = 2
    for seq in range(3):
        data = MacPacket(PacketKind.UP_DATA, 1, 2, 1, 2, seq, b"abc")
        handle_rx(mid, data, 30.0 + seq, SCHED, TIMING)
    assert len(mid.uplink_queue) == 2
    assert mid.uplink_drops == 1
