"""Multi-hop TDMA MAC: packet formats, frame schedule, node state machine.

A network is a tree rooted at the relay (the only node with a LoRaWAN
backhaul). Time is divided into frames of N slots; the first M slots
carry one beacon each, then one LoRaWAN slot, M uplink slots, M downlink
slots, one join-contention slot, and idle padding. A node's address is
its beacon slot index, assigned by the relay at join time; the relay is
address 0. Because a node can only join after its parent is already
beaconing, parent addresses always precede child addresses, so time
references propagate down the tree within a single frame.

State transitions are pure: ``handle_rx`` mutates the passed NodeState
and returns a list of action records for the caller (the simulation
engine, or a test) to execute. The protocol layer keeps no time: each
node's clock and every slot instant live in the engine. It knows nothing
about event scheduling or radio physics beyond packet sizes.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import ClassVar, NamedTuple

from .phy import RadioParams, time_on_air
from .planner import PlanError

#: Fixed MAC header: network_id, sender_id, dest_id, origin_id, seq/kind.
MAC_HEADER_BYTES = 5
#: Beacon carries only network_id, sender_id, seq/kind.
BEACON_ONAIR_BYTES = 3
#: Ack carries only sender_id, seq/kind.
ACK_ONAIR_BYTES = 2
#: Hard cap on any on-air MAC packet.
MAX_ONAIR_BYTES = 64
MAX_DATA_PAYLOAD_BYTES = MAX_ONAIR_BYTES - MAC_HEADER_BYTES
#: JoinAccept payload: the assigned (beacon, uplink, downlink) indices.
JOIN_ACCEPT_PAYLOAD_BYTES = 3

#: The dest of a beacon, which any node may hear.
BROADCAST_ID = 255

#: The network id every node of a run shares and every packet carries.
NETWORK_ID = 1

#: seq travels in a 5-bit field packed with the 3-bit kind.
SEQ_MODULO = 32

#: Join contention: the backoff positions of a JoinRequest in the contention
#: slot, and the frames a joiner waits for its accept before re-requesting.
JOIN_BACKOFF_SLOTS = 3
JOIN_RETRY_FRAMES = 3


class PacketKind(IntEnum):
    BEACON = 0
    JOIN_REQUEST = 1
    JOIN_ACCEPT = 2
    UP_DATA = 3
    ACK = 5


class NodeMode(Enum):
    UNJOINED = "unjoined"
    JOINING = "joining"
    SYNCHRONIZED = "synchronized"
    DESYNCHRONIZED = "desynchronized"


# Each member bound once as a module name. In CPython 3.10 and 3.11 the enum
# metaclass defines __getattr__, so every ``PacketKind.X`` or ``NodeMode.X``
# read takes the slow attribute hook (about 190 ns against 17 ns for a
# global). Function bodies here and in the engine read these names; a test
# pins that.
BEACON = PacketKind.BEACON
JOIN_REQUEST = PacketKind.JOIN_REQUEST
JOIN_ACCEPT = PacketKind.JOIN_ACCEPT
UP_DATA = PacketKind.UP_DATA
ACK = PacketKind.ACK
UNJOINED = NodeMode.UNJOINED
JOINING = NodeMode.JOINING
SYNCHRONIZED = NodeMode.SYNCHRONIZED
DESYNCHRONIZED = NodeMode.DESYNCHRONIZED


class _MacPacketFields(NamedTuple):
    kind: PacketKind
    network_id: int
    sender_id: int
    dest_id: int
    origin_id: int
    seq: int
    payload: bytes = b""


class MacPacket(_MacPacketFields):
    """One on-air MAC packet.

    ``origin_id`` survives forwarding and names the node whose data (or
    join attempt) this is; ``sender_id``/``dest_id`` are rewritten hop
    by hop. Joined nodes use their beacon index as identity; nodes
    without an address identify by hardware id in join traffic.

    An immutable named tuple, validated on construction. ``_replace`` and
    ``_make`` would skip the checks, so edited copies go through the
    constructor.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: PacketKind,
        network_id: int,
        sender_id: int,
        dest_id: int,
        origin_id: int,
        seq: int,
        payload: bytes = b"",
    ) -> MacPacket:
        if not (
            0 <= network_id <= 255
            and 0 <= sender_id <= 255
            and 0 <= dest_id <= 255
            and 0 <= origin_id <= 255
            and 0 <= seq < SEQ_MODULO
            and len(payload) <= MAX_DATA_PAYLOAD_BYTES
        ):
            _check_packet_fields(network_id, sender_id, dest_id, origin_id, seq, payload)
        return tuple.__new__(cls, (kind, network_id, sender_id, dest_id, origin_id, seq, payload))

    @property
    def onair_bytes(self) -> int:
        if self.kind is BEACON:
            return BEACON_ONAIR_BYTES
        if self.kind is ACK:
            return ACK_ONAIR_BYTES
        return MAC_HEADER_BYTES + len(self.payload)


def _check_packet_fields(
    network_id: int, sender_id: int, dest_id: int, origin_id: int, seq: int, payload: bytes
) -> None:
    """Raise on the first MacPacket field that the packet format cannot carry."""
    for label, v in (
        ("network_id", network_id),
        ("sender_id", sender_id),
        ("dest_id", dest_id),
        ("origin_id", origin_id),
    ):
        if not 0 <= v <= 255:
            raise ValueError(f"{label} {v} does not fit one byte")
    if not 0 <= seq < SEQ_MODULO:
        raise ValueError(f"seq {seq} outside the packed 5-bit field")
    if len(payload) > MAX_DATA_PAYLOAD_BYTES:
        raise ValueError(
            f"payload of {len(payload)} B exceeds "
            f"{MAX_DATA_PAYLOAD_BYTES} B (64 B on-air cap)"
        )


@dataclass(frozen=True)
class SlotTiming:
    """Sub-slot layout, shared by all nodes (Fig-3-style slot anatomy).

    A data slot runs [t_offset][guard/2 | data | guard/2][t_offset]
    [guard/2 | ack | guard/2]. A beacon slot is just [t_offset][beacon],
    received through a guard window centered on the nominal start. A join
    slot runs [t_offset][guard/2 | JOIN_BACKOFF_SLOTS positions of t_backoff
    | guard/2][JoinAccept], a JoinRequest starting at one position chosen at
    random. Every airtime, and so every offset, follows from ``radio``.
    """

    t_offset: ClassVar[float] = 0.030
    t_guard: ClassVar[float] = 0.010
    #: The join listen window ends this long before the relay's JoinAccept,
    #: which a request at the last backoff ends at least half a guard before.
    join_rx_margin: ClassVar[float] = t_guard / 2.0

    radio: RadioParams = RadioParams()
    t_bcn: float = field(init=False)
    t_ack: float = field(init=False)
    t_data_max: float = field(init=False)
    #: One backoff position: the fewest whole guard times that hold a JoinRequest.
    t_backoff: float = field(init=False)
    # Offsets below are relative to the slot start, in seconds.
    beacon_tx_offset: float = field(init=False)
    data_tx_offset: float = field(init=False)
    data_window: tuple[float, float] = field(init=False)
    ack_tx_offset: float = field(init=False)
    ack_window: tuple[float, float] = field(init=False)
    join_request_offsets: tuple[float, ...] = field(init=False)  # one per backoff position
    join_accept_offset: float = field(init=False)

    def __post_init__(self) -> None:
        for label, size in (
            ("t_bcn", BEACON_ONAIR_BYTES),
            ("t_ack", ACK_ONAIR_BYTES),
            ("t_data_max", MAX_ONAIR_BYTES),
        ):
            object.__setattr__(self, label, time_on_air(size, self.radio))
        step = math.ceil(time_on_air(MAC_HEADER_BYTES, self.radio) / self.t_guard) * self.t_guard
        data_end = self.t_offset + self.t_guard + self.t_data_max
        ack_start = data_end + self.t_offset
        for label, v in (
            ("t_backoff", step),
            ("beacon_tx_offset", self.t_offset),
            ("data_tx_offset", self.t_offset + self.t_guard / 2.0),
            ("data_window", (self.t_offset, data_end)),
            ("ack_tx_offset", ack_start + self.t_guard / 2.0),
            ("ack_window", (ack_start, ack_start + self.t_guard + self.t_ack)),
            ("join_request_offsets", tuple(
                self.t_offset + self.t_guard / 2.0 + b * step for b in range(JOIN_BACKOFF_SLOTS)
            )),
            ("join_accept_offset", self.t_offset + self.t_guard + JOIN_BACKOFF_SLOTS * step),
        ):
            object.__setattr__(self, label, v)

    def slot_budget(self) -> float:
        """Worst-case busy span of a data slot (exchange plus ack)."""
        return self.ack_window[1]

    def validate_for(self, slot_seconds: float) -> None:
        """Raise ``PlanError("slot")`` if a slot cannot hold the data exchange or the join slot."""
        if self.slot_budget() > slot_seconds:
            raise PlanError(
                "slot",
                f"slot anatomy needs {self.slot_budget():.6f} s "
                f"but a slot lasts {slot_seconds:.6f} s",
            )
        accept_end = self.join_accept_offset + time_on_air(
            MAC_HEADER_BYTES + JOIN_ACCEPT_PAYLOAD_BYTES, self.radio
        )
        if accept_end > slot_seconds:
            raise PlanError(
                "slot",
                f"join slot anatomy needs {accept_end:.3f} s "
                f"but a slot lasts {slot_seconds:.3f} s",
            )


@dataclass(frozen=True)
class FrameSchedule:
    """Frame geometry and the slot index of each section, per address."""

    slots_per_frame: int
    ticks_per_slot: int
    max_nodes: int
    lorawan_slot: int = field(init=False)
    join_slot: int = field(init=False)
    first_idle_slot: int = field(init=False)
    frame_ticks: int = field(init=False)

    def __post_init__(self) -> None:
        for label, v in (
            ("lorawan_slot", self.max_nodes),
            ("join_slot", 3 * self.max_nodes + 1),
            ("first_idle_slot", 3 * self.max_nodes + 2),
            ("frame_ticks", self.slots_per_frame * self.ticks_per_slot),
        ):
            object.__setattr__(self, label, v)

    def uplink_slot(self, address: int) -> int:
        return self.max_nodes + 1 + address

    def downlink_slot(self, address: int) -> int:
        return 2 * self.max_nodes + 1 + address

    def slot_triple(self, address: int) -> tuple[int, int, int]:
        """The (beacon, uplink, downlink) slots of ``address``; its beacon
        slot is the address itself."""
        return address, self.uplink_slot(address), self.downlink_slot(address)


def build_schedule(
    max_nodes: int, slots_per_frame: int, ticks_per_slot: int
) -> FrameSchedule:
    """Lay out one frame for up to ``max_nodes`` addressable nodes.

    [M beacon][1 LoRaWAN][M uplink][M downlink][1 join][idle...]; needs
    N >= 3M + 2. A JoinAccept carries each slot of the triple in one byte,
    and the last downlink slot is 3M, so M is at most 85. A layout past
    either bound is refused as ``PlanError("capacity")``.
    """
    if max_nodes < 1:
        raise ValueError("need at least one addressable node (the relay)")
    if max_nodes > 85:
        raise PlanError(
            "capacity",
            f"schedule.max_nodes: {max_nodes} exceeds 85: a JoinAccept carries each "
            f"assigned slot in one byte, and the last downlink slot is 3 * max_nodes",
        )
    if ticks_per_slot < 1:
        raise ValueError("ticks per slot must be at least 1")
    needed = 3 * max_nodes + 2
    if slots_per_frame < needed:
        raise PlanError(
            "capacity",
            f"{slots_per_frame} slots cannot hold {max_nodes} nodes: "
            f"layout needs 3M+2 = {needed} slots",
        )
    return FrameSchedule(slots_per_frame, ticks_per_slot, max_nodes)


@dataclass
class NodeState:
    """Everything one node remembers between events.

    ``address`` is the node's beacon slot index, None while it holds
    none; the schedule derives its uplink and downlink slots from it.
    A synchronized node holds an address, and one that is not the relay
    a parent; a joining node holds the parent it asked. The state machine
    sets and clears each with the mode, so no packet falls back to a
    made-up sender: a ``MacPacket`` refuses None.
    ``parent_id`` and ``children`` hold addresses, not hardware ids;
    ``node_id`` is the hardware id. ``routes`` maps the hardware id of a
    joining descendant to the address of the direct child leading to it
    (None while the joiner itself is the next hop). ``pending_accepts``
    holds the hardware ids whose JoinAccept a forwarder still awaits from
    above. The relay additionally owns the address allocator
    (``allocations``, hardware id to address); ``is_relay`` is set only
    by ``make_relay``.
    """

    node_id: int
    mode: NodeMode = NodeMode.UNJOINED
    parent_id: int | None = None
    children: set[int] = field(default_factory=set)
    address: int | None = None
    uplink_queue: deque[MacPacket] = field(default_factory=deque)
    downlink_queue: deque[tuple[MacPacket, int]] = field(default_factory=deque)
    consecutive_beacon_misses: int = 0
    queue_capacity: int = 64
    seq_counter: int = 0
    routes: dict[int, int | None] = field(default_factory=dict)
    allocations: dict[int, int] = field(default_factory=dict)
    next_address: int = 1
    pending_accepts: set[int] = field(default_factory=set)
    last_up_seq: dict[int, int] = field(default_factory=dict)
    protocol_errors: int = 0
    is_relay: bool = False

    def next_seq(self) -> int:
        s = self.seq_counter
        self.seq_counter = (self.seq_counter + 1) % SEQ_MODULO
        return s


def make_relay(node_id: int, **kw) -> NodeState:
    """The relay is born synchronized at address 0; it never joins."""
    return NodeState(node_id, mode=SYNCHRONIZED, address=0, is_relay=True, **kw)


# --- actions returned by the state machine for the caller to execute ---
#
# Of those ``handle_rx`` returns per beacon or data packet, Resync is one
# shared instance, and CandidateBeacon and SendAck are built with
# ``tuple.__new__(Cls, (...))``, which skips the generated ``__new__`` and
# its arity check; a test checks every action over the corpus instead. The
# caller dispatches on the exact type.


class Resync(NamedTuple):
    """The parent's beacon was heard: re-anchor the node's clock on it. The
    caller, which knows when the beacon ended, builds the reference."""


class SendAck(NamedTuple):
    dest_id: int
    seq: int


class SendJoinAccept(NamedTuple):
    """Relay answers a join request heard directly in the contention slot."""

    packet: MacPacket


class BecameSynchronized(NamedTuple):
    """A JoinAccept has set the node's ``address``; its parent is ``parent_id``."""

    parent_id: int


class CandidateBeacon(NamedTuple):
    """A beacon heard while not joined; input for join_procedure."""

    sender_id: int


class QueueDrop(NamedTuple):
    """A full queue turned ``packet`` away; ``slot`` is the downlink slot it
    was bound for, None for the uplink queue."""

    packet: MacPacket
    slot: int | None


_RESYNC = Resync()

Action = Resync | SendAck | SendJoinAccept | BecameSynchronized | CandidateBeacon | QueueDrop


def make_beacon(node: NodeState, frame_index: int) -> MacPacket:
    """The beacon of a synchronized node."""
    addr = node.address
    # Fields in order: kind, network, sender, dest, origin, seq.
    return MacPacket(BEACON, NETWORK_ID, addr, BROADCAST_ID, addr, frame_index % SEQ_MODULO)


def forwarding_step(node: NodeState) -> MacPacket:
    """Packet to transmit in the node's own uplink slot: the head of its
    uplink queue, from its address to its parent. The caller holds that
    the node is synchronized, not the relay, and has a queued packet.

    The head of the queue stays put until its ack arrives; a retry is
    therefore a byte-identical retransmission.
    """
    head = node.uplink_queue[0]
    return MacPacket(
        head.kind, head.network_id, node.address, node.parent_id, head.origin_id, head.seq, head.payload
    )


def best_parent(heard_beacons: Iterable[tuple[int, float]]) -> int:
    """The address to join among overheard ``(address, rssi)`` beacons:
    strongest RSSI wins, ties to the lowest address. A plain loop, not
    ``min`` with a key function: each join attempt asks twice."""
    best, best_rssi = None, 0.0
    for addr, rssi in heard_beacons:
        if best is None or rssi > best_rssi or (rssi == best_rssi and addr < best):
            best, best_rssi = addr, rssi
    if best is None:
        raise ValueError("cannot join without having heard a beacon")
    return best


def join_procedure(
    node: NodeState, heard_beacons: list[tuple[int, float]]
) -> tuple[int, MacPacket]:
    """Choose a parent from overheard beacons and build the JoinRequest.

    The parent is the ``best_parent``. The caller places the request in the
    next join-contention slot after a random backoff.
    """
    parent = best_parent(heard_beacons)
    node.mode = JOINING
    node.parent_id = parent
    req = MacPacket(
        kind=JOIN_REQUEST,
        network_id=NETWORK_ID,
        sender_id=node.node_id,
        dest_id=parent,
        origin_id=node.node_id,
        seq=node.next_seq(),
    )
    return parent, req


def enqueue_up(node: NodeState, packet: MacPacket) -> bool:
    """Append to the uplink queue if it has room; else return False."""
    if len(node.uplink_queue) >= node.queue_capacity:
        return False
    node.uplink_queue.append(packet)
    return True


def enqueue_down(node: NodeState, packet: MacPacket, slot_index: int) -> bool:
    """Queue for a downlink slot if there is room; else return False."""
    if len(node.downlink_queue) >= node.queue_capacity:
        return False
    node.downlink_queue.append((packet, slot_index))
    return True


def _alloc_address(
    relay: NodeState, origin_hw: int, schedule: FrameSchedule
) -> int | None:
    """Relay-side address allocation, idempotent per hardware id."""
    if origin_hw in relay.allocations:
        return relay.allocations[origin_hw]
    if relay.next_address >= schedule.max_nodes:
        return None
    address = relay.allocations[origin_hw] = relay.next_address
    relay.next_address += 1
    return address


def _join_accept(
    relay: NodeState, origin_hw: int, dest: int, schedule: FrameSchedule
) -> MacPacket | None:
    """The relay's JoinAccept for ``origin_hw``, addressed to ``dest``; None,
    counted as a protocol error, once no address is left to allocate."""
    address = _alloc_address(relay, origin_hw, schedule)
    if address is None:
        relay.protocol_errors += 1
        return None
    return MacPacket(
        kind=JOIN_ACCEPT,
        network_id=NETWORK_ID,
        sender_id=relay.address,
        dest_id=dest,
        origin_id=origin_hw,
        seq=relay.next_seq(),
        payload=bytes(schedule.slot_triple(address)),
    )


def handle_rx(
    node: NodeState,
    packet: MacPacket,
    schedule: FrameSchedule,
    in_join_slot: bool = False,
) -> list[Action]:
    """Apply one successfully decoded packet to the node state.

    A beacon from the node's parent resets the miss count and yields a
    Resync; the caller owns the reference and the clock update. Wrong
    network ids are ignored silently; kinds a node cannot interpret in its
    current mode count as protocol errors.
    """
    if packet.network_id != NETWORK_ID:
        return []
    actions: list[Action] = []
    kind = packet.kind

    if node.mode is not SYNCHRONIZED:
        # A beacon is a candidate parent; a joining node takes its own accept.
        if kind is BEACON:
            actions.append(tuple.__new__(CandidateBeacon, (packet.sender_id,)))
        elif kind is JOIN_ACCEPT and node.mode is JOINING and packet.origin_id == node.node_id:
            triple = tuple(packet.payload)
            if len(triple) != 3:
                node.protocol_errors += 1
                return actions
            node.address = triple[0]
            node.mode = SYNCHRONIZED
            node.consecutive_beacon_misses = 0
            actions.append(BecameSynchronized(node.parent_id))
        return actions

    # Synchronized from here on.
    if kind is BEACON:
        if packet.sender_id == node.parent_id:
            node.consecutive_beacon_misses = 0
            actions.append(_RESYNC)
        return actions

    if kind is ACK:
        if (
            node.uplink_queue
            and packet.sender_id == node.parent_id
            and packet.seq == node.uplink_queue[0].seq
        ):
            node.uplink_queue.popleft()
        return actions

    if kind in (UP_DATA, JOIN_REQUEST) and not in_join_slot:
        # Arrived in an uplink-exchange slot from a direct child.
        if packet.sender_id not in node.children or packet.dest_id != node.address:
            return actions
        duplicate = node.last_up_seq.get(packet.origin_id) == packet.seq
        actions.append(tuple.__new__(SendAck, (packet.sender_id, packet.seq)))
        if duplicate:
            return actions
        node.last_up_seq[packet.origin_id] = packet.seq
        if kind is JOIN_REQUEST:
            node.routes.setdefault(packet.origin_id, packet.sender_id)
            if node.is_relay:
                accept = _join_accept(node, packet.origin_id, packet.sender_id, schedule)
                if accept is not None:
                    slot = schedule.downlink_slot(packet.sender_id)
                    if not enqueue_down(node, accept, slot):
                        actions.append(QueueDrop(accept, slot))
                return actions
            node.pending_accepts.add(packet.origin_id)
        # The relay's uplink queue is its LoRaWAN backlog.
        if not enqueue_up(node, packet):
            actions.append(QueueDrop(packet, None))
        return actions

    if kind is JOIN_REQUEST and in_join_slot:
        # Heard directly in the contention slot; only the chosen parent acts.
        if packet.dest_id != node.address:
            return actions
        node.routes[packet.origin_id] = None
        if node.is_relay:
            accept = _join_accept(node, packet.origin_id, packet.origin_id, schedule)
            if accept is not None:
                node.children.add(accept.payload[0])  # the joiner's address
                actions.append(SendJoinAccept(accept))
        else:
            node.pending_accepts.add(packet.origin_id)
            if not enqueue_up(node, packet):
                actions.append(QueueDrop(packet, None))
        return actions

    if kind is JOIN_ACCEPT:
        if packet.origin_id == node.node_id:
            return actions  # duplicate of the accept that synchronized us
        # Traveling down the tree; route by the joiner's hardware id.
        if packet.origin_id not in node.routes:
            node.protocol_errors += 1
            return actions
        nxt = node.routes[packet.origin_id]
        node.pending_accepts.discard(packet.origin_id)
        if nxt is None:
            # The joiner is our own child-to-be: deliver in its new
            # downlink slot (triple[2]), which it cannot know yet but we
            # can schedule; it listens continuously until synchronized.
            triple = tuple(packet.payload)
            node.children.add(triple[0])
            dest, slot = packet.origin_id, triple[2]
        else:
            dest, slot = nxt, schedule.downlink_slot(nxt)
        forwarded = MacPacket(
            packet.kind, packet.network_id, node.address, dest, packet.origin_id, packet.seq, packet.payload
        )
        if not enqueue_down(node, forwarded, slot):
            actions.append(QueueDrop(forwarded, slot))
        return actions

    node.protocol_errors += 1
    return actions
