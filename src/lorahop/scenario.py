"""Scenario files: the JSON schema feeding the simulator.

A scenario bundles the frame geometry, radio settings, guard policy,
the join listening limit, per-node clock drifts, the connectivity graph
with per-link packet error rates, traffic settings, and an optional
power profile. The slot anatomy, the join slot's included, is not a
key: ``SlotTiming`` derives it from the radio, and parsing refuses a
slot too short to hold it. Parsing is strict: unknown keys and missing
required keys are rejected with the offending field named, so a typo
cannot silently fall back to a default. The top-level scalars and the
``radio``, ``guard``, ``join`` and ``power`` sections are read against
``Scenario`` and the config dataclasses: a class's init fields are the
section's keys, with their types and defaults.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Any, get_type_hints

from .phy import RadioParams, check_modem
from .planner import PowerProfile
from .protocol import MAX_DATA_PAYLOAD_BYTES, FrameSchedule, SlotTiming, build_schedule
from .timebase import DEFAULT_TICK_RATE_HZ, MAX_DRIFT_PPM, GuardConfig

SCHEMA_VERSION = 1

# The packet codec carries node ids in one byte, and build_schedule keeps
# each slot of a JoinAccept's triple in one byte too.
_BYTE_MAX = 255

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

    Synchronized nodes listen in the contention slot up to frame
    ``listen_until_frame`` (None = always; at least 0, the first frame),
    letting energy-measurement scenarios stop paying for it once the tree
    is formed. The contention slot's anatomy (backoff step, request and
    accept offsets) follows from the radio, in ``SlotTiming``.

    The fields are the keys of a scenario's ``join`` section, with these
    types and defaults: ``listen_until_frame`` takes an int or null, and
    a bool is rejected.
    """

    listen_until_frame: int | None = None

    def __post_init__(self) -> None:
        if self.listen_until_frame is not None and self.listen_until_frame < 0:
            raise ValueError(
                f"listen_until_frame: {self.listen_until_frame} is before the first "
                f"frame, so no node could join"
            )


@dataclass(frozen=True)
class Scenario:
    """Fully validated simulation input."""

    schedule: FrameSchedule
    tick_rate_hz: int
    radio: RadioParams
    guard: GuardConfig
    join: JoinConfig
    nodes: tuple[NodeConfig, ...]
    links: dict[tuple[int, int], tuple[float, float]]  # (sender, listener): (per, rssi)
    frames: int
    seed: int = 1
    k: int = 1
    app_payload_bytes: int = 24
    queue_capacity: int = 64
    power: PowerProfile | None = None
    name: str = "scenario"

    @functools.cached_property
    def timing(self) -> SlotTiming:
        """The slot anatomy, derived from ``radio``."""
        return SlotTiming(self.radio)

    @property
    def slot_seconds(self) -> float:
        return self.schedule.ticks_per_slot / self.tick_rate_hz

    @property
    def frame_seconds(self) -> float:
        return self.schedule.frame_ticks / self.tick_rate_hz

    @property
    def relay_id(self) -> int:
        return next(n.node_id for n in self.nodes if n.is_relay)


def _typename(v: Any) -> str:
    return type(v).__name__


def _take(d: dict, key: str, kind: Any, ctx: str, default: Any = _REQUIRED):
    """Pop ``d[key]`` as a ``kind``: an int widens to a float, a float is
    finite, and a bool is only ever a bool."""
    v = d.pop(key, _REQUIRED)
    if type(v) is kind:
        if kind is float and not math.isfinite(v):
            raise ScenarioError(f"{ctx}.{key}: expected a finite number, got {v}")
        return v
    if v is _REQUIRED:
        if default is _REQUIRED:
            raise ScenarioError(f"{ctx}: missing required key '{key}'")
        return default
    if kind is float and type(v) is int:
        try:
            return float(v)
        except OverflowError:
            raise ScenarioError(
                f"{ctx}.{key}: expected a finite number, got an int past the float range"
            ) from None
    if isinstance(v, bool) or not isinstance(v, kind):
        want = kind.__name__ if isinstance(kind, type) else str(kind)
        raise ScenarioError(f"{ctx}.{key}: expected {want}, got {_typename(v)}")
    return v


def _reject_unknown(d: dict, ctx: str) -> None:
    if d:
        raise ScenarioError(f"{ctx}: unknown key '{sorted(d)[0]}'")


@functools.cache
def _schema(cls: type) -> tuple[tuple[str, Any, bool], ...]:
    """(key, type, required) of each init field of a config dataclass."""
    hints = get_type_hints(cls)
    return tuple(
        (f.name, hints[f.name], f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
    )


def _build(raw: dict, cls: type, ctx: str, **given: Any) -> Any:
    """Build ``cls`` from the keys of ``raw``, which it consumes: one key per
    init field not in ``given``, typed as the field is. ``cls`` supplies the
    default of each key left out."""
    for key, kind, required in _schema(cls):
        if (key in raw or required) and key not in given:
            given[key] = _take(raw, key, kind, ctx)
    _reject_unknown(raw, ctx)
    try:
        return cls(**given)
    except ValueError as e:
        raise ScenarioError(f"{ctx}: {e}") from e


def _section(d: dict, key: str, cls: type, ctx: str) -> Any:
    """Build ``cls`` from the optional object ``d[key]``."""
    return _build(dict(_take(d, key, dict, ctx, default={})), cls, f"{ctx}.{key}")


def _parse_nodes(raw: list, ctx: str) -> tuple[NodeConfig, ...]:
    if not raw:
        raise ScenarioError(f"{ctx}: 'nodes' must be a non-empty list")
    nodes = []
    ids = set()
    for i, item in enumerate(raw):
        c = f"{ctx}.nodes[{i}]"
        if not isinstance(item, dict):
            raise ScenarioError(f"{c}: expected an object")
        item = dict(item)
        node_id = _take(item, "id", int, c)
        if not 0 <= node_id <= _BYTE_MAX:
            raise ScenarioError(f"{c}.id: {node_id} does not fit the one-byte node id (0..{_BYTE_MAX})")
        if node_id in ids:
            raise ScenarioError(f"{c}.id: {node_id} is a duplicate node id")
        ids.add(node_id)
        is_relay = _take(item, "relay", bool, c, default=False)
        drift = _take(item, "drift_ppm", float, c, default=0.0)
        if not -MAX_DRIFT_PPM <= drift <= MAX_DRIFT_PPM:
            raise ScenarioError(
                f"{c}.drift_ppm: {drift} ppm outside the +/-{MAX_DRIFT_PPM:g} ppm model range"
            )
        _reject_unknown(item, c)
        nodes.append(NodeConfig(node_id=node_id, is_relay=is_relay, drift_ppm=drift))
    relays = [n for n in nodes if n.is_relay]
    if len(relays) != 1:
        raise ScenarioError(f"{ctx}: exactly one node must set relay=true, found {len(relays)}")
    return tuple(nodes)


def _parse_links(raw: list, ids: set[int], ctx: str) -> dict[tuple[int, int], tuple[float, float]]:
    links: dict[tuple[int, int], tuple[float, float]] = {}
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
        links[(src, dst)] = (per, rssi)
        if bidir:
            links[(dst, src)] = (per, rssi)
    return links


def _check_connected(nodes, links, relay_id: int) -> None:
    # A usable tree edge needs both directions (beacons down, acks up).
    neighbours: dict[int, list[int]] = {n.node_id: [] for n in nodes}
    for a, b in links:
        if (b, a) in links:
            neighbours[a].append(b)
    reached = {relay_id}
    frontier = [relay_id]
    while frontier:
        for b in neighbours[frontier.pop()]:
            if b not in reached:
                reached.add(b)
                frontier.append(b)
    missing = sorted(neighbours.keys() - reached)
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

    sched_d = dict(_take(d, "schedule", dict, source))
    sc = f"{source}.schedule"
    max_nodes = _take(sched_d, "max_nodes", int, sc)
    slots = _take(sched_d, "slots_per_frame", int, sc)
    ticks = _take(sched_d, "ticks_per_slot", int, sc)
    tick_rate = _take(sched_d, "tick_rate_hz", int, sc, default=DEFAULT_TICK_RATE_HZ)
    _reject_unknown(sched_d, sc)
    if tick_rate < 1:
        raise ScenarioError(f"{sc}.tick_rate_hz: must be positive")
    try:
        schedule = build_schedule(max_nodes, slots, ticks)
    except ValueError as e:
        raise ScenarioError(f"{sc}: {e}") from e

    radio = _section(d, "radio", RadioParams, source)
    guard = _section(d, "guard", GuardConfig, source)
    join = _section(d, "join", JoinConfig, source)

    nodes = _parse_nodes(_take(d, "nodes", list, source), source)
    if len(nodes) > max_nodes:
        raise ScenarioError(
            f"{source}: {len(nodes)} nodes exceed schedule.max_nodes = {max_nodes}"
        )
    links = _parse_links(
        _take(d, "links", list, source), {n.node_id for n in nodes}, source
    )
    power = _section(d, "power", PowerProfile, source) if "power" in d else None

    scenario: Scenario = _build(
        d, Scenario, source,
        schedule=schedule, tick_rate_hz=tick_rate, radio=radio,
        guard=guard, join=join, nodes=nodes, links=links, power=power,
    )
    if scenario.frames < 1:
        raise ScenarioError(f"{source}.frames: must be at least 1")
    if scenario.k < 1:
        raise ScenarioError(f"{source}.k: must be at least 1")
    if not 0 <= scenario.app_payload_bytes <= MAX_DATA_PAYLOAD_BYTES:
        raise ScenarioError(
            f"{source}.app_payload_bytes: must be 0..{MAX_DATA_PAYLOAD_BYTES}"
        )
    if scenario.queue_capacity < 1:
        raise ScenarioError(f"{source}.queue_capacity: must be at least 1")

    try:
        check_modem(radio)
    except ValueError as e:
        raise ScenarioError(f"{source}.radio.{e}") from e
    try:
        slot_seconds = scenario.slot_seconds
    except OverflowError:
        raise ScenarioError(
            f"{sc}.ticks_per_slot: the slot, ticks_per_slot / tick_rate_hz, lies past the float range"
        ) from None
    try:
        scenario.timing.validate_for(slot_seconds)
    except ValueError as e:
        raise ScenarioError(f"{source}.schedule: {e}") from e

    _check_connected(nodes, links, scenario.relay_id)
    # The engine keys its events in nanoseconds.
    try:
        end_ns = scenario.frames * scenario.frame_seconds * 1e9
    except OverflowError:  # an int too large for a float
        end_ns = math.inf
    if end_ns == math.inf:
        raise ScenarioError(
            f"{source}.frames: the run end, frames * T_F in nanoseconds, lies past the float range"
        )
    # Up to a frame past the end, where the last beacon window closes, the
    # shortest airtime must still move an instant: a transmission ends after
    # its start.
    last, t_ack = (scenario.frames + 1) * scenario.frame_seconds, scenario.timing.t_ack
    if last + t_ack == last:
        raise ScenarioError(
            f"{source}.frames: the run end, frames * T_F of the schedule, lies too late for "
            f"float seconds to resolve the radio's {t_ack:g} s ack airtime"
        )
    if power is not None:
        try:
            power.check_period(scenario.k, scenario.frame_seconds)
        except ValueError as e:
            raise ScenarioError(f"{source}.power.{e}") from None
    return scenario


def read_scenario_doc(path: str | Path) -> dict:
    """The raw JSON object of one scenario file, before validation."""
    p = Path(path)
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ScenarioError(f"{p}: no such scenario file") from None
    except OSError as e:
        raise ScenarioError(f"{p}: cannot read scenario file: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise ScenarioError(f"{p}: not UTF-8 text: {e.reason} at byte {e.start}") from None
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{p}:{e.lineno}: invalid JSON: {e.msg}") from None
    except RecursionError:
        raise ScenarioError(f"{p}: JSON nested too deeply") from None
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
