"""Scenario file validation and override handling."""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import pytest

from lorahop import (
    GuardConfig,
    MacPacket,
    PacketKind,
    PowerProfile,
    RadioParams,
    Scenario,
    SlotTiming,
    load_scenario,
)
from lorahop.scenario import JoinConfig, ScenarioError, apply_override, parse_scenario, read_scenario_doc

REPO = Path(__file__).resolve().parent.parent


def _minimal(**overrides) -> dict:
    doc = {
        "schema_version": 1,
        "frames": 10,
        "schedule": {"max_nodes": 2, "slots_per_frame": 8, "ticks_per_slot": 21281},
        "nodes": [{"id": 0, "relay": True}, {"id": 1}],
        "links": [{"from": 0, "to": 1}],
    }
    doc.update(overrides)
    return doc


def test_minimal_defaults():
    sc = parse_scenario(_minimal())
    assert isinstance(sc, Scenario)
    assert sc.k == 1
    assert sc.seed == 1
    assert sc.app_payload_bytes == 24
    assert sc.relay_id == 0
    assert sc.guard.base_guard == 0.010
    assert sc.links == {(0, 1): (0.0, -60.0), (1, 0): (0.0, -60.0)}
    assert sc.power is None
    assert sc.slot_seconds == 21281 / 32768


def test_omitted_keys_take_the_class_defaults():
    sc = parse_scenario(_minimal())
    assert sc.radio == RadioParams()
    assert sc.timing == SlotTiming(RadioParams())
    assert sc.guard == GuardConfig(base_guard=0.010)
    assert sc.join == JoinConfig()
    for f in dataclasses.fields(Scenario):
        if f.default is not dataclasses.MISSING:
            assert getattr(sc, f.name) == f.default, f.name


def test_timing_follows_the_radio():
    sc = parse_scenario(_minimal())
    sf8 = RadioParams(spreading_factor=8)
    assert dataclasses.replace(sc, radio=sf8).timing == SlotTiming(sf8)
    assert "timing" not in {f.name for f in dataclasses.fields(Scenario)}


def _init_keys(cls, *given):
    return [f for f in dataclasses.fields(cls) if f.init and f.name not in given]


# Scenario fields read from the top level of a document; the rest are
# built from their own sections.
_TOP_LEVEL = ("frames", "seed", "k", "app_payload_bytes", "queue_capacity", "name")
_POWER = {"p_sleep": 1e-5, "p_rx": 0.036, "p_tx": 0.120, "p_app": 0.0, "tau_app": 0.0}


@pytest.mark.parametrize(
    "section, cls, attr, given",
    [
        ("radio", RadioParams, "radio", ()),
        ("guard", GuardConfig, "guard", ()),
        ("join", JoinConfig, "join", ()),
    ],
)
def test_every_section_field_is_accepted_by_name(section, cls, attr, given):
    for f in _init_keys(cls, *given):
        value = 0.010 if f.default is dataclasses.MISSING else f.default
        sc = parse_scenario(_minimal(**{section: {f.name: value}}))
        assert getattr(getattr(sc, attr), f.name) == value


def test_every_power_and_top_level_field_is_accepted_by_name():
    assert {f.name for f in _init_keys(PowerProfile)} == set(_POWER)
    assert parse_scenario(_minimal(power=_POWER)).power == PowerProfile(**_POWER)
    top = {f.name: f.default for f in _init_keys(Scenario) if f.name in _TOP_LEVEL}
    assert top.keys() == set(_TOP_LEVEL)
    top["frames"] = 10
    assert parse_scenario(_minimal(**top)) == parse_scenario(_minimal())


def test_readme_scenario_example_parses():
    readme = (REPO / "README.md").read_text()
    section = readme[readme.index("## Scenario files"):]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    sc = parse_scenario(json.loads(block), source="README")
    assert sc.name == "star4"
    assert sc.power is not None


def test_shipped_star_scenario_loads():
    sc = load_scenario(REPO / "scenarios" / "star4.json")
    assert len(sc.nodes) == 4
    assert sc.k == 4
    assert sc.frames == 100
    drifts = {n.node_id: n.drift_ppm for n in sc.nodes}
    assert drifts == {0: 0.0, 1: 20.0, 2: -20.0, 3: 10.0}


def test_shipped_line_scenario_loads():
    sc = load_scenario(REPO / "scenarios" / "line4.json")
    assert (0, 1) in sc.links and (1, 2) in sc.links and (2, 3) in sc.links
    assert (0, 3) not in sc.links


def test_missing_file():
    with pytest.raises(ScenarioError, match="no such scenario"):
        load_scenario(REPO / "scenarios" / "does_not_exist.json")


def test_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ScenarioError, match="invalid JSON"):
        load_scenario(p)


def test_unknown_keys_rejected():
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_scenario(_minimal(typo_field=1))
    doc = _minimal()
    doc["schedule"]["bogus"] = 3
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_scenario(doc)
    # The slot anatomy follows from the radio, and the engine has one channel.
    for key in ("t_offset", "t_guard", "t_bcn", "t_ack", "t_data_max"):
        with pytest.raises(ScenarioError, match="unknown key 'slot_timing'"):
            parse_scenario(_minimal(slot_timing={key: 0.1}))
    with pytest.raises(ScenarioError, match="unknown key 'slot_timing'"):
        parse_scenario(_minimal(slot_timing={}))
    with pytest.raises(ScenarioError, match="unknown key 'channel_count'"):
        parse_scenario(_minimal(channel_count=1))
    # The beacon-miss policy and the join backoff and retry counts are
    # protocol constants.
    for section, key, value in (
        ("guard", "widen_factor", 2.0),
        ("guard", "max_misses", 4),
        ("join", "backoff_slots", 3),
        ("join", "retry_frames", 3),
        # The backoff step follows from the radio.
        ("join", "backoff_step", 0.130),
    ):
        with pytest.raises(ScenarioError, match=f"{section}: unknown key '{key}'"):
            parse_scenario(_minimal(**{section: {key: value}}))


def test_missing_required_key():
    doc = _minimal()
    del doc["frames"]
    with pytest.raises(ScenarioError, match="missing required key 'frames'"):
        parse_scenario(doc)


def test_wrong_schema_version():
    with pytest.raises(ScenarioError, match="unsupported"):
        parse_scenario(_minimal(schema_version=99))


def test_bool_is_not_an_int():
    with pytest.raises(ScenarioError, match="expected int, got bool"):
        parse_scenario(_minimal(frames=True))


def test_exactly_one_relay():
    doc = _minimal(nodes=[{"id": 0}, {"id": 1}])
    with pytest.raises(ScenarioError, match="exactly one"):
        parse_scenario(doc)
    doc = _minimal(nodes=[{"id": 0, "relay": True}, {"id": 1, "relay": True}])
    with pytest.raises(ScenarioError, match="exactly one"):
        parse_scenario(doc)


def test_duplicate_node_ids():
    doc = _minimal(nodes=[{"id": 0, "relay": True}, {"id": 0}])
    with pytest.raises(ScenarioError, match="duplicate"):
        parse_scenario(doc)


@pytest.mark.parametrize(
    "overrides",
    [
        {"radio": {"bandwidth_hz": 1e300}},
        {"schedule": {"max_nodes": 2, "slots_per_frame": 2**64, "ticks_per_slot": 21281}},
        {"frames": 10**15},
    ],
    ids=["ack_airtime_vanishes", "frame_too_long", "run_too_long"],
)
def test_a_run_end_where_an_ack_airtime_vanishes_is_refused(overrides):
    # Past about 2**52 ack airtimes, the spacing of float seconds exceeds an
    # ack: a transmission would end at its start.
    with pytest.raises(
        ScenarioError,
        match=r"^scenario\.frames: the run end, frames \* T_F of the schedule, lies too late for "
        r"float seconds to resolve the radio's \S+ s ack airtime$",
    ):
        parse_scenario(_minimal(**overrides))


def test_link_validation():
    with pytest.raises(ScenarioError, match="unknown node"):
        parse_scenario(_minimal(links=[{"from": 0, "to": 9}]))
    with pytest.raises(ScenarioError, match="self-links"):
        parse_scenario(_minimal(links=[{"from": 0, "to": 0}]))
    with pytest.raises(ScenarioError, match="per must be"):
        parse_scenario(_minimal(links=[{"from": 0, "to": 1, "per": 1.5}]))


def test_disconnected_topology():
    doc = _minimal(
        schedule={"max_nodes": 3, "slots_per_frame": 11, "ticks_per_slot": 21281},
        nodes=[{"id": 0, "relay": True}, {"id": 1}, {"id": 2}],
        links=[{"from": 0, "to": 1}],
    )
    with pytest.raises(ScenarioError, match="cannot reach the relay"):
        parse_scenario(doc)


def test_one_way_link_does_not_connect():
    doc = _minimal(links=[{"from": 0, "to": 1, "bidir": False}])
    with pytest.raises(ScenarioError, match="cannot reach the relay"):
        parse_scenario(doc)


def test_too_many_nodes_for_schedule():
    doc = _minimal(
        nodes=[{"id": 0, "relay": True}, {"id": 1}, {"id": 2}],
        links=[{"from": 0, "to": 1}, {"from": 0, "to": 2}],
    )
    with pytest.raises(ScenarioError, match="exceed schedule.max_nodes"):
        parse_scenario(doc)


@pytest.mark.parametrize("node_id", [-1, 256, 300])
def test_node_id_must_fit_one_byte(node_id):
    doc = _minimal(
        nodes=[{"id": 0, "relay": True}, {"id": node_id}],
        links=[{"from": 0, "to": node_id}],
    )
    with pytest.raises(ScenarioError, match=r"nodes\[1\]\.id: "):
        parse_scenario(doc)


def test_network_id_is_not_a_scenario_key():
    # Every node of a run shares one network id, so no output depends on it;
    # the packet codec keeps NodeState's default.
    with pytest.raises(ScenarioError, match="unknown key 'network_id'"):
        parse_scenario(_minimal(network_id=1))


@pytest.mark.parametrize("network_id", [-1, 256])
def test_network_id_must_fit_one_byte(network_id):
    # No scenario can carry an out-of-range network id, and the packet codec,
    # which holds the one-byte field, refuses it by name.
    with pytest.raises(ScenarioError, match="unknown key 'network_id'"):
        parse_scenario(_minimal(network_id=network_id))
    with pytest.raises(ValueError, match=f"^network_id {network_id} does not fit one byte$"):
        MacPacket(PacketKind.UP_DATA, network_id, 1, 0, 1, 0)


def test_largest_one_byte_ids_parse():
    doc = _minimal(
        nodes=[{"id": 0, "relay": True}, {"id": 255}],
        links=[{"from": 0, "to": 255}],
    )
    sc = parse_scenario(doc)
    assert {n.node_id for n in sc.nodes} == {0, 255}


def test_max_nodes_must_keep_join_accept_slots_in_one_byte():
    # The last downlink slot, 3 * max_nodes, travels in one JoinAccept byte.
    doc = _minimal(schedule={"max_nodes": 86, "slots_per_frame": 260, "ticks_per_slot": 21281})
    with pytest.raises(ScenarioError, match="schedule.max_nodes: 86 exceeds 85"):
        parse_scenario(doc)
    doc["schedule"].update(max_nodes=85, slots_per_frame=257)
    schedule = parse_scenario(doc).schedule
    assert max(schedule.slot_triple(84)) == 255


def test_frame_too_short_for_layout():
    doc = _minimal(schedule={"max_nodes": 2, "slots_per_frame": 7, "ticks_per_slot": 21281})
    with pytest.raises(ScenarioError, match="3M\\+2"):
        parse_scenario(doc)


def test_slot_too_short_for_anatomy():
    doc = _minimal(schedule={"max_nodes": 2, "slots_per_frame": 8, "ticks_per_slot": 8192})
    with pytest.raises(ScenarioError, match="slot anatomy"):
        parse_scenario(doc)


@pytest.mark.parametrize(
    "radio, key",
    [
        # SF6 runs only in implicit-header mode; the header is explicit by default.
        ({"spreading_factor": 6}, "explicit_header"),
        ({"spreading_factor": 6, "explicit_header": True}, "explicit_header"),
        # Symbols past 16 ms need low data rate optimization.
        ({"spreading_factor": 11}, "low_data_rate_opt"),
        ({"spreading_factor": 12, "low_data_rate_opt": False}, "low_data_rate_opt"),
        ({"spreading_factor": 10, "bandwidth_hz": 62500.0}, "low_data_rate_opt"),
    ],
)
def test_radio_settings_no_modem_can_run_are_rejected(radio, key):
    with pytest.raises(ScenarioError, match=rf"^scenario\.radio\.{key}: "):
        parse_scenario(_minimal(radio=radio))


def test_radio_settings_the_modem_can_run_pass_the_radio_check():
    parse_scenario(_minimal(radio={"spreading_factor": 6, "explicit_header": False}))
    # A symbol of exactly 16 ms (SF11 at 128 kHz) does not need the optimization.
    wide = {"max_nodes": 2, "slots_per_frame": 8, "ticks_per_slot": 70000}
    for radio in (
        {"spreading_factor": 11, "bandwidth_hz": 128000.0},
        {"spreading_factor": 11, "low_data_rate_opt": True},
    ):
        parse_scenario(_minimal(radio=radio, schedule=dict(wide)))
    # With the optimization on, SF11 at the committed slot fails on the anatomy.
    with pytest.raises(ScenarioError, match="slot anatomy"):
        parse_scenario(_minimal(radio={"spreading_factor": 11, "low_data_rate_opt": True}))


def test_join_accept_must_end_inside_the_slot():
    # At SF10 the 1.007 s slot holds the data exchange (0.985 s) but not the
    # join slot: three 0.250 s backoff positions, then the JoinAccept.
    schedule = {"max_nodes": 2, "slots_per_frame": 8, "ticks_per_slot": 33000}
    doc = _minimal(radio={"spreading_factor": 10}, schedule=schedule)
    with pytest.raises(
        ScenarioError,
        match=r"^scenario\.schedule, scenario\.radio: join slot anatomy needs 1\.038 s but a slot lasts 1\.007 s$",
    ):
        parse_scenario(doc)


def test_payload_bounds():
    parse_scenario(_minimal(app_payload_bytes=0))
    parse_scenario(_minimal(app_payload_bytes=59))
    with pytest.raises(ScenarioError, match="app_payload_bytes"):
        parse_scenario(_minimal(app_payload_bytes=60))


def test_per_link_rssi():
    doc = _minimal(links=[{"from": 0, "to": 1, "rssi": -95.5}])
    sc = parse_scenario(doc)
    assert sc.links == {(0, 1): (0.0, -95.5), (1, 0): (0.0, -95.5)}


def test_apply_override_scalars():
    doc = _minimal()
    apply_override(doc, "seed", "42")
    apply_override(doc, "guard.base_guard", "0.002")
    apply_override(doc, "nodes.1.drift_ppm", "20")
    apply_override(doc, "name", "tweaked")
    assert doc["seed"] == 42
    assert doc["guard"] == {"base_guard": 0.002}
    assert doc["nodes"][1]["drift_ppm"] == 20
    assert doc["name"] == "tweaked"
    sc = parse_scenario(doc)
    assert sc.seed == 42
    assert next(n for n in sc.nodes if n.node_id == 1).drift_ppm == 20.0


def test_listen_until_frame_takes_an_int_or_null_not_a_bool():
    assert parse_scenario(_minimal(join={"listen_until_frame": 2})).join.listen_until_frame == 2
    assert parse_scenario(_minimal(join={"listen_until_frame": None})).join == JoinConfig()
    message = r"^scenario\.join\.listen_until_frame: expected int \| None, got bool$"
    with pytest.raises(ScenarioError, match=message):
        parse_scenario(_minimal(join={"listen_until_frame": True}))
    doc = _minimal()
    apply_override(doc, "join.listen_until_frame", "true")
    with pytest.raises(ScenarioError, match=message):
        parse_scenario(doc)


def test_listen_until_frame_is_at_least_the_first_frame():
    # The relay would never listen in the join slot, so no node could join.
    assert parse_scenario(_minimal(join={"listen_until_frame": 0})).join.listen_until_frame == 0
    message = r"^scenario\.join: listen_until_frame: -1 is before the first frame, so no node could join$"
    with pytest.raises(ScenarioError, match=message):
        parse_scenario(_minimal(join={"listen_until_frame": -1}))
    with pytest.raises(ValueError, match="^listen_until_frame: "):
        JoinConfig(listen_until_frame=-5)


@pytest.mark.parametrize("drift", [500, -500.0])
def test_drift_at_the_model_bound_parses(drift):
    sc = parse_scenario(_minimal(nodes=[{"id": 0, "relay": True}, {"id": 1, "drift_ppm": drift}]))
    assert sc.nodes[1].drift_ppm == drift


@pytest.mark.parametrize("drift", [500.1, -500.1])
def test_drift_beyond_the_model_bound_is_rejected(drift):
    doc = _minimal(nodes=[{"id": 0, "relay": True}, {"id": 1, "drift_ppm": drift}])
    with pytest.raises(
        ScenarioError,
        match=rf"^scenario\.nodes\[1\]\.drift_ppm: {drift} ppm outside the \+/-500 ppm model range$",
    ):
        parse_scenario(doc)


def test_apply_override_bad_paths():
    doc = _minimal()
    with pytest.raises(ScenarioError, match="not a valid list index"):
        apply_override(doc, "nodes.x.drift_ppm", "1")
    with pytest.raises(ScenarioError, match="cannot descend"):
        apply_override(doc, "frames.deep.key", "1")


def test_round_trips_through_json(tmp_path):
    doc = _minimal(name="rt", seed=9)
    p = tmp_path / "rt.json"
    p.write_text(json.dumps(doc))
    sc = load_scenario(p)
    assert sc.name == "rt"
    assert sc.seed == 9


def _read_text(tmp_path: Path, text: str) -> dict:
    p = tmp_path / "doc.json"
    p.write_text(text)
    return read_scenario_doc(p)


def _set(key: str, value: str) -> None:
    apply_override(_minimal(), key, value)


@pytest.mark.parametrize(
    "refuse, message",
    [
        pytest.param(
            lambda tmp: parse_scenario(_minimal(nodes=[])),
            r"^scenario: 'nodes' must be a non-empty list$",
            id="nodes_empty",
        ),
        pytest.param(
            lambda tmp: parse_scenario(_minimal(nodes={"id": 0})),
            r"^scenario\.nodes: expected list, got dict$",
            id="nodes_not_a_list",
        ),
        pytest.param(
            lambda tmp: parse_scenario(_minimal(nodes=[{"id": 0, "relay": True}, 1])),
            r"^scenario\.nodes\[1\]: expected an object$",
            id="node_not_an_object",
        ),
        pytest.param(
            lambda tmp: parse_scenario(_minimal(links={"from": 0, "to": 1})),
            r"^scenario\.links: expected list, got dict$",
            id="links_not_a_list",
        ),
        pytest.param(
            lambda tmp: parse_scenario(_minimal(links=[[0, 1]])),
            r"^scenario\.links\[0\]: expected an object$",
            id="link_not_an_object",
        ),
        pytest.param(
            lambda tmp: parse_scenario([_minimal()]),
            r"^scenario: top level must be an object$",
            id="parse_top_level_not_an_object",
        ),
        pytest.param(
            lambda tmp: _read_text(tmp, "[]"),
            r"doc\.json: top level must be an object$",
            id="read_top_level_not_an_object",
        ),
        pytest.param(
            lambda tmp: parse_scenario(
                _minimal(schedule={"max_nodes": 2, "slots_per_frame": 8, "ticks_per_slot": 21281, "tick_rate_hz": 0})
            ),
            r"^scenario\.schedule\.tick_rate_hz: must be at least 1$",
            id="tick_rate_0",
        ),
        pytest.param(
            lambda tmp: parse_scenario(_minimal(frames=0)),
            r"^scenario\.frames: must be at least 1$",
            id="frames_0",
        ),
        pytest.param(
            lambda tmp: parse_scenario(_minimal(queue_capacity=0)),
            r"^scenario\.queue_capacity: must be at least 1$",
            id="queue_capacity_0",
        ),
        pytest.param(
            lambda tmp: _set("nodes.2", "{}"),
            r"^--set nodes\.2: '2' is not a valid list index$",
            id="set_list_element_past_the_end",
        ),
        pytest.param(
            lambda tmp: _set("nodes.0.id.x", "1"),
            r"^--set nodes\.0\.id\.x: cannot assign into a scalar$",
            id="set_into_a_scalar",
        ),
    ],
)
def test_each_refusal_names_what_it_refuses(refuse, message, tmp_path):
    with pytest.raises(ScenarioError, match=message):
        refuse(tmp_path)


def test_apply_override_writes_a_list_element():
    doc = _minimal()
    apply_override(doc, "nodes.1", '{"id": 1, "drift_ppm": 5}')
    assert doc["nodes"][1] == {"id": 1, "drift_ppm": 5}
    assert parse_scenario(doc).nodes[1].drift_ppm == 5.0
