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
engine, or a test) to execute. The protocol layer knows nothing about
event scheduling or radio physics beyond packet sizes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum, IntEnum

from .phy import RadioParams, time_on_air
from .timebase import VirtualClock

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

#: sender/dest value for nodes that do not hold an address (yet).
BROADCAST_ID = 255

#: seq travels in a 5-bit field packed with the 3-bit kind.
SEQ_MODULO = 32


class PacketKind(IntEnum):
    BEACON = 0
    JOIN_REQUEST = 1
    JOIN_ACCEPT = 2
    UP_DATA = 3
    DOWN_DATA = 4
    ACK = 5


class SlotRole(Enum):
    """Role of one slot in the frame template (``FrameSchedule.layout``).

    The template uses BEACON_TX for every beacon slot and IDLE for the
    padding after the join slot.
    """

    BEACON_TX = "beacon_tx"
    LORAWAN_UPLINK = "lorawan_uplink"
    UPLINK_EXCHANGE = "uplink_exchange"
    DOWNLINK_EXCHANGE = "downlink_exchange"
    JOIN_CONTENTION = "join_contention"
    IDLE = "idle"


class NodeMode(Enum):
    UNJOINED = "unjoined"
    JOINING = "joining"
    SYNCHRONIZED = "synchronized"
    DESYNCHRONIZED = "desynchronized"


@dataclass(frozen=True)
class MacPacket:
    """One on-air MAC packet.

    ``origin_id`` survives forwarding and names the node whose data (or
    join attempt) this is; ``sender_id``/``dest_id`` are rewritten hop
    by hop. Joined nodes use their beacon index as identity; nodes
    without an address identify by hardware id in join traffic.
    """

    kind: PacketKind
    network_id: int
    sender_id: int
    dest_id: int
    origin_id: int
    seq: int
    payload: bytes = b""

    def __post_init__(self) -> None:
        for label, v in (
            ("network_id", self.network_id),
            ("sender_id", self.sender_id),
            ("dest_id", self.dest_id),
            ("origin_id", self.origin_id),
        ):
            if not 0 <= v <= 255:
                raise ValueError(f"{label} {v} does not fit one byte")
        if not 0 <= self.seq < SEQ_MODULO:
            raise ValueError(f"seq {self.seq} outside the packed 5-bit field")
        if len(self.payload) > MAX_DATA_PAYLOAD_BYTES:
            raise ValueError(
                f"payload of {len(self.payload)} B exceeds "
                f"{MAX_DATA_PAYLOAD_BYTES} B (64 B on-air cap)"
            )

    @property
    def onair_bytes(self) -> int:
        if self.kind is PacketKind.BEACON:
            return BEACON_ONAIR_BYTES
        if self.kind is PacketKind.ACK:
            return ACK_ONAIR_BYTES
        return MAC_HEADER_BYTES + len(self.payload)


@dataclass(frozen=True)
class SlotTiming:
    """Sub-slot layout, shared by all nodes (Fig-3-style slot anatomy).

    A data slot runs [t_offset][guard/2 | data | guard/2][t_offset]
    [guard/2 | ack | guard/2]. A beacon slot is just [t_offset][beacon],
    received through a guard window centered on the nominal start. The
    beacon, ack and largest data airtimes follow from ``radio``.
    """

    radio: RadioParams = RadioParams()
    t_offset: float = 0.030
    t_guard: float = 0.010
    t_bcn: float = field(init=False)
    t_ack: float = field(init=False)
    t_data_max: float = field(init=False)

    def __post_init__(self) -> None:
        for label, v in (("t_offset", self.t_offset), ("t_guard", self.t_guard)):
            if v <= 0:
                raise ValueError(f"{label} must be positive")
        for label, size in (
            ("t_bcn", BEACON_ONAIR_BYTES),
            ("t_ack", ACK_ONAIR_BYTES),
            ("t_data_max", MAX_ONAIR_BYTES),
        ):
            object.__setattr__(self, label, time_on_air(size, self.radio))

    # Offsets below are relative to the slot start, in seconds.

    @property
    def beacon_tx_offset(self) -> float:
        return self.t_offset

    @property
    def data_tx_offset(self) -> float:
        return self.t_offset + self.t_guard / 2.0

    @property
    def data_window(self) -> tuple[float, float]:
        return (self.t_offset, self.t_offset + self.t_guard + self.t_data_max)

    @property
    def ack_tx_offset(self) -> float:
        return self.data_window[1] + self.t_offset + self.t_guard / 2.0

    @property
    def ack_window(self) -> tuple[float, float]:
        start = self.data_window[1] + self.t_offset
        return (start, start + self.t_guard + self.t_ack)

    def slot_budget(self) -> float:
        """Worst-case busy span of a data slot (exchange plus ack)."""
        return self.ack_window[1]

    def validate_for(self, slot_seconds: float) -> None:
        if self.slot_budget() > slot_seconds:
            raise ValueError(
                f"slot anatomy needs {self.slot_budget():.6f} s "
                f"but a slot lasts {slot_seconds:.6f} s"
            )


@dataclass(frozen=True)
class FrameSchedule:
    """Frame template: who may do what in each of the N slots."""

    slots_per_frame: int
    ticks_per_slot: int
    max_nodes: int
    layout: tuple[tuple[SlotRole, int | None], ...]

    @property
    def lorawan_slot(self) -> int:
        return self.max_nodes

    @property
    def join_slot(self) -> int:
        return 3 * self.max_nodes + 1

    @property
    def first_idle_slot(self) -> int:
        return 3 * self.max_nodes + 2

    @property
    def frame_ticks(self) -> int:
        return self.slots_per_frame * self.ticks_per_slot

    def beacon_slot(self, address: int) -> int:
        return address

    def uplink_slot(self, address: int) -> int:
        return self.max_nodes + 1 + address

    def downlink_slot(self, address: int) -> int:
        return 2 * self.max_nodes + 1 + address

    def slot_triple(self, address: int) -> tuple[int, int, int]:
        return (
            self.beacon_slot(address),
            self.uplink_slot(address),
            self.downlink_slot(address),
        )


def build_schedule(
    max_nodes: int, slots_per_frame: int, ticks_per_slot: int
) -> FrameSchedule:
    """Lay out one frame for up to ``max_nodes`` addressable nodes.

    [M beacon][1 LoRaWAN][M uplink][M downlink][1 join][idle...]; needs
    N >= 3M + 2.
    """
    if max_nodes < 1:
        raise ValueError("need at least one addressable node (the relay)")
    if ticks_per_slot < 1:
        raise ValueError("ticks per slot must be at least 1")
    needed = 3 * max_nodes + 2
    if slots_per_frame < needed:
        raise ValueError(
            f"{slots_per_frame} slots cannot hold {max_nodes} nodes: "
            f"layout needs 3M+2 = {needed} slots"
        )
    m = max_nodes
    layout: list[tuple[SlotRole, int | None]] = []
    layout += [(SlotRole.BEACON_TX, b) for b in range(m)]
    layout.append((SlotRole.LORAWAN_UPLINK, 0))
    layout += [(SlotRole.UPLINK_EXCHANGE, b) for b in range(m)]
    layout += [(SlotRole.DOWNLINK_EXCHANGE, b) for b in range(m)]
    layout.append((SlotRole.JOIN_CONTENTION, None))
    layout += [(SlotRole.IDLE, None)] * (slots_per_frame - needed)
    return FrameSchedule(slots_per_frame, ticks_per_slot, max_nodes, tuple(layout))


def frame_time(schedule: FrameSchedule, tick_rate_hz: int = 32768) -> float:
    """Nominal frame duration: N * ticks_per_slot / tick_rate."""
    if tick_rate_hz <= 0:
        raise ValueError("tick rate must be positive")
    return schedule.frame_ticks / tick_rate_hz


@dataclass
class NodeState:
    """Everything one node remembers between events.

    ``parent_id`` and ``children`` hold addresses (beacon indices), not
    hardware ids; ``node_id`` is the hardware id. ``routes`` maps the
    hardware id of a joining descendant to the address of the direct
    child leading to it (None while the joiner itself is the next hop).
    The relay additionally owns the address allocator.
    """

    node_id: int
    clock: VirtualClock = field(default_factory=VirtualClock)
    network_id: int = 1
    mode: NodeMode = NodeMode.UNJOINED
    parent_id: int | None = None
    children: set[int] = field(default_factory=set)
    assigned_slots: tuple[int, int, int] | None = None
    uplink_queue: deque[MacPacket] = field(default_factory=deque)
    downlink_queue: deque[tuple[MacPacket, int]] = field(default_factory=deque)
    consecutive_beacon_misses: int = 0
    queue_capacity: int = 64
    seq_counter: int = 0
    routes: dict[int, int | None] = field(default_factory=dict)
    addr_routes: dict[int, int | None] = field(default_factory=dict)
    allocations: dict[int, tuple[int, int, int]] = field(default_factory=dict)
    next_address: int = 1
    pending_accepts: set[int] = field(default_factory=set)
    last_up_seq: dict[int, int] = field(default_factory=dict)
    uplink_drops: int = 0
    downlink_drops: int = 0
    protocol_errors: int = 0

    @property
    def address(self) -> int | None:
        return None if self.assigned_slots is None else self.assigned_slots[0]

    @property
    def expecting_downlink(self) -> bool:
        """True while a forwarded join still awaits its accept from above."""
        return bool(self.pending_accepts)

    @property
    def is_relay(self) -> bool:
        return self.mode is not NodeMode.UNJOINED and self.parent_id is None and (
            self.assigned_slots is not None and self.assigned_slots[0] == 0
        )

    def next_seq(self) -> int:
        s = self.seq_counter
        self.seq_counter = (self.seq_counter + 1) % SEQ_MODULO
        return s


def make_relay(node_id: int, schedule: FrameSchedule, **kw) -> NodeState:
    """The relay is born synchronized at address 0; it never joins."""
    st = NodeState(node_id=node_id, **kw)
    st.mode = NodeMode.SYNCHRONIZED
    st.assigned_slots = schedule.slot_triple(0)
    return st


# --- actions returned by the state machine for the caller to execute ---


@dataclass(frozen=True)
class Resync:
    """Re-anchor the clock on this slot-start reference (global seconds)."""

    reference_global: float
    sender_id: int


@dataclass(frozen=True)
class SendAck:
    dest_id: int
    seq: int


@dataclass(frozen=True)
class AckMatched:
    """The in-flight uplink head was acknowledged and popped."""

    seq: int


@dataclass(frozen=True)
class SendJoinAccept:
    """Relay answers a join request heard directly in the contention slot."""

    packet: MacPacket


@dataclass(frozen=True)
class BecameSynchronized:
    assigned_slots: tuple[int, int, int]
    parent_id: int


@dataclass(frozen=True)
class ExpectDownlink:
    """Listen in the own downlink slot (a forwarded accept may arrive)."""


@dataclass(frozen=True)
class CandidateBeacon:
    """A beacon heard while not joined; input for join_procedure."""

    sender_id: int


@dataclass(frozen=True)
class AppDelivery:
    """DownData reached its destination application."""

    packet: MacPacket


@dataclass(frozen=True)
class GatewayEnqueue:
    """Relay accepted an UpData whose payload now awaits the LoRaWAN slot."""

    packet: MacPacket


Action = (
    Resync
    | SendAck
    | AckMatched
    | SendJoinAccept
    | BecameSynchronized
    | ExpectDownlink
    | CandidateBeacon
    | AppDelivery
    | GatewayEnqueue
)


def make_beacon(node: NodeState, frame_index: int) -> MacPacket:
    return MacPacket(
        kind=PacketKind.BEACON,
        network_id=node.network_id,
        sender_id=node.address if node.address is not None else BROADCAST_ID,
        dest_id=BROADCAST_ID,
        origin_id=node.address if node.address is not None else BROADCAST_ID,
        seq=frame_index % SEQ_MODULO,
    )


def forwarding_step(node: NodeState) -> MacPacket | None:
    """Packet to transmit in the node's own uplink slot, if any.

    The head of the queue stays put until its ack arrives; a retry is
    therefore a byte-identical retransmission.
    """
    if not node.uplink_queue or node.parent_id is None:
        return None
    head = node.uplink_queue[0]
    return MacPacket(
        kind=head.kind,
        network_id=head.network_id,
        sender_id=node.address if node.address is not None else BROADCAST_ID,
        dest_id=node.parent_id,
        origin_id=head.origin_id,
        seq=head.seq,
        payload=head.payload,
    )


def join_procedure(
    node: NodeState, heard_beacons: list[tuple[int, float]]
) -> tuple[int, MacPacket]:
    """Choose a parent from overheard beacons and build the JoinRequest.

    Strongest RSSI wins, ties to the lowest address. The caller places
    the request in the next join-contention slot after a random backoff.
    """
    if not heard_beacons:
        raise ValueError("cannot join without having heard a beacon")
    parent = min(heard_beacons, key=lambda sr: (-sr[1], sr[0]))[0]
    node.mode = NodeMode.JOINING
    node.parent_id = parent
    req = MacPacket(
        kind=PacketKind.JOIN_REQUEST,
        network_id=node.network_id,
        sender_id=node.node_id,
        dest_id=parent,
        origin_id=node.node_id,
        seq=node.next_seq(),
    )
    return parent, req


def _enqueue_up(node: NodeState, packet: MacPacket) -> bool:
    if len(node.uplink_queue) >= node.queue_capacity:
        node.uplink_drops += 1
        return False
    node.uplink_queue.append(packet)
    return True


def _enqueue_down(node: NodeState, packet: MacPacket, slot_index: int) -> bool:
    if len(node.downlink_queue) >= node.queue_capacity:
        node.downlink_drops += 1
        return False
    node.downlink_queue.append((packet, slot_index))
    return True


def _alloc_address(
    relay: NodeState, origin_hw: int, schedule: FrameSchedule
) -> tuple[int, int, int] | None:
    """Relay-side address allocation, idempotent per hardware id."""
    if origin_hw in relay.allocations:
        return relay.allocations[origin_hw]
    if relay.next_address >= schedule.max_nodes:
        return None
    triple = schedule.slot_triple(relay.next_address)
    relay.next_address += 1
    relay.allocations[origin_hw] = triple
    return triple


def _make_join_accept(relay: NodeState, origin_hw: int, dest: int, triple) -> MacPacket:
    return MacPacket(
        kind=PacketKind.JOIN_ACCEPT,
        network_id=relay.network_id,
        sender_id=relay.address if relay.address is not None else 0,
        dest_id=dest,
        origin_id=origin_hw,
        seq=relay.next_seq(),
        payload=bytes(triple),
    )


def handle_rx(
    node: NodeState,
    packet: MacPacket,
    arrival_global: float,
    schedule: FrameSchedule,
    timing: SlotTiming,
    in_join_slot: bool = False,
) -> list[Action]:
    """Apply one successfully decoded packet to the node state.

    ``arrival_global`` is the decode-completion instant. Beacons from
    the node's parent yield a Resync action carrying the reconstructed
    slot-start reference (decode end minus beacon airtime minus the
    intra-slot offset); the caller owns the clock update. Wrong network
    ids are ignored silently; kinds a node cannot interpret in its
    current mode count as protocol errors.
    """
    if packet.network_id != node.network_id:
        return []
    actions: list[Action] = []
    kind = packet.kind

    if node.mode in (NodeMode.UNJOINED, NodeMode.DESYNCHRONIZED):
        if kind is PacketKind.BEACON:
            actions.append(CandidateBeacon(sender_id=packet.sender_id))
        return actions

    if node.mode is NodeMode.JOINING:
        if kind is PacketKind.BEACON:
            actions.append(CandidateBeacon(sender_id=packet.sender_id))
        elif kind is PacketKind.JOIN_ACCEPT and packet.origin_id == node.node_id:
            triple = tuple(packet.payload)
            if len(triple) != 3:
                node.protocol_errors += 1
                return actions
            node.assigned_slots = (triple[0], triple[1], triple[2])
            node.mode = NodeMode.SYNCHRONIZED
            node.consecutive_beacon_misses = 0
            actions.append(
                BecameSynchronized(
                    assigned_slots=node.assigned_slots,
                    parent_id=node.parent_id if node.parent_id is not None else 0,
                )
            )
        return actions

    # Synchronized from here on.
    if kind is PacketKind.BEACON:
        if packet.sender_id == node.parent_id:
            ref = arrival_global - timing.t_bcn - timing.beacon_tx_offset
            node.consecutive_beacon_misses = 0
            actions.append(Resync(reference_global=ref, sender_id=packet.sender_id))
        return actions

    if kind is PacketKind.ACK:
        if (
            node.uplink_queue
            and packet.sender_id == node.parent_id
            and packet.seq == node.uplink_queue[0].seq
        ):
            node.uplink_queue.popleft()
            actions.append(AckMatched(seq=packet.seq))
        return actions

    if kind in (PacketKind.UP_DATA, PacketKind.JOIN_REQUEST) and not in_join_slot:
        # Arrived in an uplink-exchange slot from a direct child.
        if packet.sender_id not in node.children or packet.dest_id != node.address:
            return actions
        duplicate = node.last_up_seq.get(packet.origin_id) == packet.seq
        actions.append(SendAck(dest_id=packet.sender_id, seq=packet.seq))
        if duplicate:
            return actions
        node.last_up_seq[packet.origin_id] = packet.seq
        if node.is_relay:
            if kind is PacketKind.UP_DATA:
                actions.append(GatewayEnqueue(packet=packet))
            else:
                node.routes.setdefault(packet.origin_id, packet.sender_id)
                triple = _alloc_address(node, packet.origin_id, schedule)
                if triple is None:
                    node.protocol_errors += 1
                    return actions
                node.addr_routes[triple[0]] = packet.sender_id
                accept = _make_join_accept(
                    node, packet.origin_id, packet.sender_id, triple
                )
                _enqueue_down(node, accept, schedule.downlink_slot(packet.sender_id))
        else:
            if kind is PacketKind.JOIN_REQUEST:
                node.routes.setdefault(packet.origin_id, packet.sender_id)
                node.pending_accepts.add(packet.origin_id)
            _enqueue_up(node, packet)
        return actions

    if kind is PacketKind.JOIN_REQUEST and in_join_slot:
        # Heard directly in the contention slot; only the chosen parent acts.
        if packet.dest_id != node.address:
            return actions
        node.routes[packet.origin_id] = None
        if node.is_relay:
            triple = _alloc_address(node, packet.origin_id, schedule)
            if triple is None:
                node.protocol_errors += 1
                return actions
            node.children.add(triple[0])
            node.addr_routes[triple[0]] = None
            accept = _make_join_accept(node, packet.origin_id, packet.origin_id, triple)
            actions.append(SendJoinAccept(packet=accept))
        else:
            node.pending_accepts.add(packet.origin_id)
            _enqueue_up(node, packet)
            actions.append(ExpectDownlink())
        return actions

    if kind is PacketKind.JOIN_ACCEPT:
        if packet.origin_id == node.node_id:
            return actions  # duplicate of the accept that synchronized us
        # Traveling down the tree; route by the joiner's hardware id.
        if packet.origin_id not in node.routes:
            node.protocol_errors += 1
            return actions
        nxt = node.routes[packet.origin_id]
        node.pending_accepts.discard(packet.origin_id)
        triple = tuple(packet.payload)
        sender = node.address if node.address is not None else 0
        if nxt is None:
            # The joiner is our own child-to-be: deliver in its new
            # downlink slot (triple[2]), which it cannot know yet but we
            # can schedule; it listens continuously until synchronized.
            node.children.add(triple[0])
            node.addr_routes[triple[0]] = None
            fwd = MacPacket(
                kind=PacketKind.JOIN_ACCEPT,
                network_id=packet.network_id,
                sender_id=sender,
                dest_id=packet.origin_id,
                origin_id=packet.origin_id,
                seq=packet.seq,
                payload=packet.payload,
            )
            _enqueue_down(node, fwd, triple[2])
        else:
            node.addr_routes[triple[0]] = nxt
            fwd = MacPacket(
                kind=PacketKind.JOIN_ACCEPT,
                network_id=packet.network_id,
                sender_id=sender,
                dest_id=nxt,
                origin_id=packet.origin_id,
                seq=packet.seq,
                payload=packet.payload,
            )
            _enqueue_down(node, fwd, schedule.downlink_slot(nxt))
        return actions

    if kind is PacketKind.DOWN_DATA:
        if packet.dest_id == node.address:
            actions.append(AppDelivery(packet=packet))
            return actions
        nxt = node.addr_routes.get(packet.dest_id, "missing")
        if nxt == "missing":
            node.protocol_errors += 1
            return actions
        sender = node.address if node.address is not None else 0
        hop = packet.dest_id if nxt is None else nxt
        fwd = MacPacket(
            kind=PacketKind.DOWN_DATA,
            network_id=packet.network_id,
            sender_id=sender,
            dest_id=packet.dest_id,
            origin_id=packet.origin_id,
            seq=packet.seq,
            payload=packet.payload,
        )
        _enqueue_down(node, fwd, schedule.downlink_slot(hop))
        return actions

    node.protocol_errors += 1
    return actions
