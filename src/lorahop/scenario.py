"""Scenario files: the JSON schema feeding the simulator.

A scenario bundles the frame geometry, radio settings, slot anatomy,
guard policy, join tuning, per-node clock drifts, the connectivity
graph with per-link packet error rates, traffic settings, and an
optional power profile. Parsing is strict: unknown keys and missing
required keys are rejected with the offending field named, so a typo
cannot silently fall back to a default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .phy import RadioParams, check_modem, time_on_air
from .planner import PowerProfile
from .protocol import (
    JOIN_ACCEPT_PAYLOAD_BYTES,
    MAC_HEADER_BYTES,
    MAX_DATA_PAYLOAD_BYTES,
    FrameSchedule,
    SlotTiming,
    build_schedule,
)
from .timebase import GuardConfig

SCHEMA_VERSION = 1

# The packet codec carries node ids, the network id and each slot of a
# JoinAccept's slot triple in one byte. The largest slot handed out is the
# last downlink slot, 3 * max_nodes, so max_nodes is at most 85.
_BYTE_MAX = 255
_MAX_NODES = _BYTE_MAX // 3

_REQUIRED = object()


class ScenarioError(Exception):
    """Schema or consistency violation in a scenario document."""


@dataclass(frozen=True)
class NodeConfig:
    node_id: int
    is_relay: bool = False
    drift_ppm: float = 0.0


@dataclass(frozen=True)
class JoinConfig:
    """Join-contention tuning.

    A JoinRequest goes out after a uniformly chosen backoff of
    ``backoff_step`` * {0 .. backoff_slots-1} inside the contention
    slot; the step must exceed the request airtime so distinct backoffs
    cannot collide. ``retry_frames`` is how long a joiner waits for its
    accept before re-requesting. Synchronized nodes listen in the
    contention slot up to frame ``listen_until_frame`` (None = always),
    letting energy-measurement scenarios stop paying for it once the
    tree is formed.
    """

    backoff_step: float = 0.130
    backoff_slots: int = 3
    retry_frames: int = 3
    listen_until_frame: int | None = None

    def __post_init__(self) -> None:
        if self.backoff_step <= 0:
            raise ValueError("backoff step must be positive")
        if self.backoff_slots < 1:
            raise ValueError("need at least one backoff position")
        if self.retry_frames < 1:
            raise ValueError("retry period must be at least one frame")

    def accept_offset(self, timing: SlotTiming) -> float:
        """Start of the relay's JoinAccept within the contention slot: after
        the guard and every backoff position."""
        return timing.t_offset + timing.t_guard + self.backoff_slots * self.backoff_step


@dataclass(frozen=True)
class Scenario:
    """Fully validated simulation input."""

    schedule: FrameSchedule
    tick_rate_hz: int
    radio: RadioParams
    timing: SlotTiming
    guard: GuardConfig
    join: JoinConfig
    nodes: tuple[NodeConfig, ...]
    links: dict[tuple[int, int], float]
    frames: int
    seed: int = 1
    k: int = 1
    app_payload_bytes: int = 24
    network_id: int = 1
    queue_capacity: int = 64
    power: PowerProfile | None = None
    name: str = "scenario"
    link_rssi: dict[tuple[int, int], float] = field(default_factory=dict)

    @property
    def slot_seconds(self) -> float:
        return self.schedule.ticks_per_slot / self.tick_rate_hz

    @property
    def frame_seconds(self) -> float:
        return self.schedule.frame_ticks / self.tick_rate_hz

    @property
    def relay_id(self) -> int:
        return next(n.node_id for n in self.nodes if n.is_relay)

    def node(self, node_id: int) -> NodeConfig:
        for n in self.nodes:
            if n.node_id == node_id:
                return n
        raise KeyError(node_id)


def _typename(v: Any) -> str:
    return type(v).__name__


def _take(d: dict, key: str, kind: type | tuple, ctx: str, default: Any = _REQUIRED):
    if key not in d:
        if default is _REQUIRED:
            raise ScenarioError(f"{ctx}: missing required key '{key}'")
        return default
    v = d.pop(key)
    if isinstance(v, bool) and kind in (int, float):
        raise ScenarioError(f"{ctx}.{key}: expected {kind.__name__}, got bool")
    if kind is float and isinstance(v, int):
        v = float(v)
    if not isinstance(v, kind):
        want = kind.__name__ if isinstance(kind, type) else "/".join(k.__name__ for k in kind)
        raise ScenarioError(f"{ctx}.{key}: expected {want}, got {_typename(v)}")
    return v


def _reject_unknown(d: dict, ctx: str) -> None:
    if d:
        raise ScenarioError(f"{ctx}: unknown key '{sorted(d)[0]}'")


def _parse_nodes(raw: Any, ctx: str) -> tuple[NodeConfig, ...]:
    if not isinstance(raw, list) or not raw:
        raise ScenarioError(f"{ctx}: 'nodes' must be a non-empty list")
    nodes = []
    for i, item in enumerate(raw):
        c = f"{ctx}.nodes[{i}]"
        if not isinstance(item, dict):
            raise ScenarioError(f"{c}: expected an object")
        item = dict(item)
        node_id = _take(item, "id", int, c)
        if not 0 <= node_id <= _BYTE_MAX:
            raise ScenarioError(f"{c}.id: {node_id} does not fit the one-byte node id (0..{_BYTE_MAX})")
        is_relay = _take(item, "relay", bool, c, default=False)
        drift = _take(item, "drift_ppm", float, c, default=0.0)
        _reject_unknown(item, c)
        nodes.append(NodeConfig(node_id=node_id, is_relay=is_relay, drift_ppm=drift))
    ids = [n.node_id for n in nodes]
    if len(set(ids)) != len(ids):
        raise ScenarioError(f"{ctx}: duplicate node ids")
    relays = [n for n in nodes if n.is_relay]
    if len(relays) != 1:
        raise ScenarioError(f"{ctx}: exactly one node must set relay=true, found {len(relays)}")
    return tuple(nodes)


def _parse_links(
    raw: Any, ids: set[int], ctx: str
) -> tuple[dict[tuple[int, int], float], dict[tuple[int, int], float]]:
    if not isinstance(raw, list):
        raise ScenarioError(f"{ctx}: 'links' must be a list")
    links: dict[tuple[int, int], float] = {}
    rssi_map: dict[tuple[int, int], float] = {}
    for i, item in enumerate(raw):
        c = f"{ctx}.links[{i}]"
        if not isinstance(item, dict):
            raise ScenarioError(f"{c}: expected an object")
        item = dict(item)
        src = _take(item, "from", int, c)
        dst = _take(item, "to", int, c)
        per = _take(item, "per", float, c, default=0.0)
        rssi = _take(item, "rssi", float, c, default=-60.0)
        bidir = _take(item, "bidir", bool, c, default=True)
        _reject_unknown(item, c)
        if src not in ids or dst not in ids:
            raise ScenarioError(f"{c}: link references unknown node id")
        if src == dst:
            raise ScenarioError(f"{c}: self-links are not allowed")
        if not 0.0 <= per <= 1.0:
            raise ScenarioError(f"{c}: per must be in [0, 1]")
        links[(src, dst)] = per
        rssi_map[(src, dst)] = rssi
        if bidir:
            links[(dst, src)] = per
            rssi_map[(dst, src)] = rssi
    return links, rssi_map


def _check_connected(nodes, links, relay_id: int) -> None:
    # A usable tree edge needs both directions (beacons down, acks up).
    ids = {n.node_id for n in nodes}
    undirected = {
        (a, b) for (a, b) in links if (b, a) in links
    }
    reached = {relay_id}
    frontier = [relay_id]
    while frontier:
        u = frontier.pop()
        for a, b in undirected:
            if a == u and b not in reached:
                reached.add(b)
                frontier.append(b)
    missing = sorted(ids - reached)
    if missing:
        raise ScenarioError(
            f"topology: nodes {missing} cannot reach the relay over bidirectional links"
        )


def parse_scenario(doc: dict, source: str = "scenario") -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError(f"{source}: top level must be an object")
    d = dict(doc)
    version = _take(d, "schema_version", int, source)
    if version != SCHEMA_VERSION:
        raise ScenarioError(
            f"{source}: schema_version {version} unsupported (this build reads {SCHEMA_VERSION})"
        )
    name = _take(d, "name", str, source, default="scenario")
    frames = _take(d, "frames", int, source)
    seed = _take(d, "seed", int, source, default=1)
    k = _take(d, "k", int, source, default=1)
    app_bytes = _take(d, "app_payload_bytes", int, source, default=24)
    network_id = _take(d, "network_id", int, source, default=1)
    capacity = _take(d, "queue_capacity", int, source, default=64)

    sched_d = _take(d, "schedule", dict, source)
    sc = f"{source}.schedule"
    sched_d = dict(sched_d)
    max_nodes = _take(sched_d, "max_nodes", int, sc)
    slots = _take(sched_d, "slots_per_frame", int, sc)
    ticks = _take(sched_d, "ticks_per_slot", int, sc)
    tick_rate = _take(sched_d, "tick_rate_hz", int, sc, default=32768)
    _reject_unknown(sched_d, sc)

    radio_d = dict(_take(d, "radio", dict, source, default={}))
    rc = f"{source}.radio"
    radio_kwargs = {}
    for key, kind in (
        ("spreading_factor", int),
        ("bandwidth_hz", float),
        ("coding_rate_denominator", int),
        ("preamble_symbols", int),
        ("explicit_header", bool),
        ("crc_on", bool),
        ("low_data_rate_opt", bool),
    ):
        if key in radio_d:
            radio_kwargs[key] = _take(radio_d, key, kind, rc)
    _reject_unknown(radio_d, rc)

    timing_d = dict(_take(d, "slot_timing", dict, source, default={}))
    tc = f"{source}.slot_timing"
    timing_kwargs = {}
    for key in ("t_offset", "t_guard"):
        if key in timing_d:
            timing_kwargs[key] = _take(timing_d, key, float, tc)
    _reject_unknown(timing_d, tc)

    guard_d = dict(_take(d, "guard", dict, source, default={}))
    gc = f"{source}.guard"
    guard_kwargs: dict[str, Any] = {"base_guard": _take(guard_d, "base_guard", float, gc, default=0.010)}
    if "widen_factor" in guard_d:
        guard_kwargs["widen_factor"] = _take(guard_d, "widen_factor", float, gc)
    if "max_misses" in guard_d:
        guard_kwargs["max_misses"] = _take(guard_d, "max_misses", int, gc)
    _reject_unknown(guard_d, gc)

    join_d = dict(_take(d, "join", dict, source, default={}))
    jc = f"{source}.join"
    join_kwargs: dict[str, Any] = {}
    if "backoff_step" in join_d:
        join_kwargs["backoff_step"] = _take(join_d, "backoff_step", float, jc)
    if "backoff_slots" in join_d:
        join_kwargs["backoff_slots"] = _take(join_d, "backoff_slots", int, jc)
    if "retry_frames" in join_d:
        join_kwargs["retry_frames"] = _take(join_d, "retry_frames", int, jc)
    if "listen_until_frame" in join_d:
        v = join_d.pop("listen_until_frame")
        if v is not None and not isinstance(v, int):
            raise ScenarioError(f"{jc}.listen_until_frame: expected int or null")
        join_kwargs["listen_until_frame"] = v
    _reject_unknown(join_d, jc)

    nodes = _parse_nodes(_take(d, "nodes", list, source), source)
    links, link_rssi = _parse_links(
        _take(d, "links", list, source), {n.node_id for n in nodes}, source
    )

    power: PowerProfile | None = None
    if "power" in d:
        power_d = dict(_take(d, "power", dict, source))
        pc = f"{source}.power"
        power = PowerProfile(
            p_sleep=_take(power_d, "p_sleep", float, pc),
            p_rx=_take(power_d, "p_rx", float, pc),
            p_tx=_take(power_d, "p_tx", float, pc),
            p_app=_take(power_d, "p_app", float, pc, default=0.0),
            tau_app=_take(power_d, "tau_app", float, pc, default=0.0),
        )
        _reject_unknown(power_d, pc)

    _reject_unknown(d, source)

    if frames < 1:
        raise ScenarioError(f"{source}.frames: must be at least 1")
    if k < 1:
        raise ScenarioError(f"{source}.k: must be at least 1")
    if not 0 <= app_bytes <= MAX_DATA_PAYLOAD_BYTES:
        raise ScenarioError(
            f"{source}.app_payload_bytes: must be 0..{MAX_DATA_PAYLOAD_BYTES}"
        )
    if capacity < 1:
        raise ScenarioError(f"{source}.queue_capacity: must be at least 1")
    if not 0 <= network_id <= _BYTE_MAX:
        raise ScenarioError(
            f"{source}.network_id: {network_id} does not fit the one-byte network id (0..{_BYTE_MAX})"
        )
    if max_nodes > _MAX_NODES:
        raise ScenarioError(
            f"{sc}.max_nodes: {max_nodes} exceeds {_MAX_NODES}: a JoinAccept carries each "
            f"assigned slot in one byte, and the last downlink slot is 3 * max_nodes"
        )
    if tick_rate < 1:
        raise ScenarioError(f"{sc}.tick_rate_hz: must be positive")
    if len(nodes) > max_nodes:
        raise ScenarioError(
            f"{source}: {len(nodes)} nodes exceed schedule.max_nodes = {max_nodes}"
        )

    try:
        schedule = build_schedule(max_nodes, slots, ticks)
        radio = RadioParams(**radio_kwargs)
        timing = SlotTiming(radio, **timing_kwargs)
        guard = GuardConfig(**guard_kwargs)
        join = JoinConfig(**join_kwargs)
    except ValueError as e:
        raise ScenarioError(f"{source}: {e}") from e
    try:
        check_modem(radio)
    except ValueError as e:
        raise ScenarioError(f"{rc}.{e}") from e

    slot_seconds = ticks / tick_rate
    try:
        timing.validate_for(slot_seconds)
    except ValueError as e:
        raise ScenarioError(f"{tc}: {e}") from e
    req_air = time_on_air(MAC_HEADER_BYTES, radio)
    if join.backoff_step < req_air:
        raise ScenarioError(
            f"{jc}.backoff_step {join.backoff_step:.3f} s below the JoinRequest "
            f"airtime {req_air:.3f} s: adjacent backoffs would overlap"
        )
    accept_end = join.accept_offset(timing) + time_on_air(
        MAC_HEADER_BYTES + JOIN_ACCEPT_PAYLOAD_BYTES, radio
    )
    if accept_end > slot_seconds:
        raise ScenarioError(
            f"{jc}: join slot anatomy needs {accept_end:.3f} s "
            f"but a slot lasts {slot_seconds:.3f} s"
        )

    relay_id = next(n.node_id for n in nodes if n.is_relay)
    _check_connected(nodes, links, relay_id)

    return Scenario(
        schedule=schedule,
        tick_rate_hz=tick_rate,
        radio=radio,
        timing=timing,
        guard=guard,
        join=join,
        nodes=nodes,
        links=links,
        frames=frames,
        seed=seed,
        k=k,
        app_payload_bytes=app_bytes,
        network_id=network_id,
        queue_capacity=capacity,
        power=power,
        name=name,
        link_rssi=link_rssi,
    )


def read_scenario_doc(path: str | Path) -> dict:
    """The raw JSON object of one scenario file, before validation."""
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
    except FileNotFoundError:
        raise ScenarioError(f"{p}: no such scenario file") from None
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{p}:{e.lineno}: invalid JSON: {e.msg}") from None
    if not isinstance(doc, dict):
        raise ScenarioError(f"{p}: top level must be an object")
    return doc


def load_scenario(path: str | Path) -> Scenario:
    return parse_scenario(read_scenario_doc(path), source=Path(path).name)


def apply_override(doc: dict, dotted_key: str, raw_value: str) -> None:
    """Apply one `--set key=value` override onto a raw scenario document.

    Dotted paths descend into objects and (numeric components) lists,
    e.g. ``guard.base_guard=0.002`` or ``nodes.1.drift_ppm=20``. Values
    parse as JSON, falling back to a bare string.
    """
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    parts = dotted_key.split(".")
    target: Any = doc
    for i, part in enumerate(parts[:-1]):
        if isinstance(target, list):
            try:
                target = target[int(part)]
            except (ValueError, IndexError):
                raise ScenarioError(
                    f"--set {dotted_key}: '{part}' is not a valid list index"
                ) from None
        elif isinstance(target, dict):
            if part not in target:
                target[part] = {}
            target = target[part]
        else:
            raise ScenarioError(
                f"--set {dotted_key}: cannot descend into '{'.'.join(parts[:i + 1])}'"
            )
    last = parts[-1]
    if isinstance(target, list):
        try:
            target[int(last)] = value
        except (ValueError, IndexError):
            raise ScenarioError(
                f"--set {dotted_key}: '{last}' is not a valid list index"
            ) from None
    elif isinstance(target, dict):
        target[last] = value
    else:
        raise ScenarioError(f"--set {dotted_key}: cannot assign into a scalar")
