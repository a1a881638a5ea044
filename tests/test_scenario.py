"""Scenario file validation and override handling."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from lorahop import Scenario, load_scenario
from lorahop.scenario import ScenarioError, apply_override, parse_scenario

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
    assert sc.links == {(0, 1): 0.0, (1, 0): 0.0}
    assert sc.link_rssi[(0, 1)] == -60.0
    assert sc.power is None
    assert sc.slot_seconds == 21281 / 32768


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
    # The airtimes follow from the radio, and the engine has one channel.
    for key in ("t_bcn", "t_ack", "t_data_max"):
        with pytest.raises(ScenarioError, match=f"slot_timing: unknown key '{key}'"):
            parse_scenario(_minimal(slot_timing={key: 0.1}))
    with pytest.raises(ScenarioError, match="unknown key 'channel_count'"):
        parse_scenario(_minimal(channel_count=1))
    sc = parse_scenario(_minimal(slot_timing={"t_offset": 0.03, "t_guard": 0.01}))
    assert (sc.timing.t_offset, sc.timing.t_guard) == (0.03, 0.01)


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


def test_frame_too_short_for_layout():
    doc = _minimal(schedule={"max_nodes": 2, "slots_per_frame": 7, "ticks_per_slot": 21281})
    with pytest.raises(ScenarioError, match="3M\\+2"):
        parse_scenario(doc)


def test_slot_too_short_for_anatomy():
    doc = _minimal(schedule={"max_nodes": 2, "slots_per_frame": 8, "ticks_per_slot": 8192})
    with pytest.raises(ScenarioError, match="slot anatomy"):
        parse_scenario(doc)


def test_backoff_step_below_join_request_airtime():
    # The 5-byte JoinRequest lasts 0.124 s at SF9: adjacent backoffs would overlap.
    with pytest.raises(ScenarioError, match="backoff_step 0.050 s below the JoinRequest airtime"):
        parse_scenario(_minimal(join={"backoff_step": 0.05}))


def test_join_accept_must_end_inside_the_slot():
    # A fourth 0.130 s backoff position pushes the JoinAccept past the 0.649 s slot.
    with pytest.raises(ScenarioError, match="join slot anatomy needs 0.684 s but a slot lasts 0.649 s"):
        parse_scenario(_minimal(join={"backoff_slots": 4}))


def test_payload_bounds():
    parse_scenario(_minimal(app_payload_bytes=0))
    parse_scenario(_minimal(app_payload_bytes=59))
    with pytest.raises(ScenarioError, match="app_payload_bytes"):
        parse_scenario(_minimal(app_payload_bytes=60))


def test_per_link_rssi():
    doc = _minimal(links=[{"from": 0, "to": 1, "rssi": -95.5}])
    sc = parse_scenario(doc)
    assert sc.link_rssi[(0, 1)] == -95.5
    assert sc.link_rssi[(1, 0)] == -95.5


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
    assert sc.node(1).drift_ppm == 20.0


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
