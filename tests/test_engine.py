"""Event engine: delivery semantics, full-run traces, measurements, CSVs."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from lorahop import (
    MacPacket,
    PacketKind,
    PowerProfile,
    Transmission,
    deliver,
    load_scenario,
    measure_avg_power,
    measure_duty_cycle,
    measure_sync_error,
    run,
    sync_pairs,
    write_trace_csvs,
)
from lorahop.scenario import ScenarioError, parse_scenario, read_scenario_doc

REPO = Path(__file__).resolve().parent.parent
T_SLOT = 21281 / 32768
T_FRAME = 90 * T_SLOT


def _tx(sender=0, start=1.0, end=1.1, channel=0, seq=0):
    pkt = MacPacket(PacketKind.UP_DATA, 1, sender, 0, sender, seq, b"x")
    return Transmission(sender, pkt, channel, start, end, frame=0, slot=5)


# --- delivery semantics ---

# Every node hears every other one, so each overlap in these cases is audible.
MESH = {(a, b): 0.0 for a in range(4) for b in range(4) if a != b}


def test_deliver_clean():
    out = deliver(_tx(), [(2, True, 0.0)], [], MESH, random.Random(1))
    assert out == {2: "received"}


def test_deliver_window_miss():
    out = deliver(_tx(), [(2, False, 0.0)], [], MESH, random.Random(1))
    assert out == {2: "lost_window"}


def test_deliver_collision_same_channel_only():
    tx = _tx(sender=1, start=1.0, end=1.1)
    same = _tx(sender=3, start=1.05, end=1.2, channel=0, seq=1)
    other = _tx(sender=3, start=1.05, end=1.2, channel=1, seq=2)
    assert deliver(tx, [(2, True, 0.0)], [same], MESH, random.Random(1)) == {2: "lost_collision"}
    assert deliver(tx, [(2, True, 0.0)], [other], MESH, random.Random(1)) == {2: "received"}


def test_deliver_interferer_counts_only_over_a_link():
    # Node 3 overlaps on the same channel, but node 2 cannot hear it:
    # a hidden terminal leaves the reception intact until the link exists.
    tx = _tx(sender=1, start=1.0, end=1.1)
    hidden = _tx(sender=3, start=1.05, end=1.2, seq=1)
    links = {(1, 2): 0.0, (2, 1): 0.0}
    assert deliver(tx, [(2, True, 0.0)], [hidden], links, random.Random(1)) == {2: "received"}
    links[(3, 2)] = 0.0
    assert deliver(tx, [(2, True, 0.0)], [hidden], links, random.Random(1)) == {2: "lost_collision"}


def test_deliver_adjacent_not_collision():
    tx = _tx(sender=1, start=1.0, end=1.1)
    after = _tx(sender=3, start=1.1, end=1.2, seq=1)
    assert deliver(tx, [(2, True, 0.0)], [after], MESH, random.Random(1)) == {2: "received"}


def test_deliver_own_transmission_not_interference():
    # A node half-duplexing cannot jam itself into lost_collision; its
    # own concurrent tx is excluded (the window carve handles that case).
    tx = _tx(sender=1, start=1.0, end=1.1)
    own = _tx(sender=2, start=1.0, end=1.05, seq=1)
    assert deliver(tx, [(2, True, 0.0)], [own], MESH, random.Random(1)) == {2: "received"}


def test_deliver_per_extremes_and_determinism():
    assert deliver(_tx(), [(2, True, 1.0)], [], MESH, random.Random(1)) == {2: "lost_per"}
    outs = {
        tuple(sorted(deliver(_tx(), [(2, True, 0.5), (3, True, 0.5)], [], MESH, random.Random(s)).items()))
        for s in (7, 7, 7)
    }
    assert len(outs) == 1  # same seed, same outcome


def test_transmission_validation():
    with pytest.raises(ValueError):
        _tx(start=1.0, end=1.0)


# --- full runs ---


@pytest.fixture(scope="module")
def star_trace():
    return run(load_scenario(REPO / "scenarios" / "star4.json"))


@pytest.fixture(scope="module")
def line_trace():
    return run(load_scenario(REPO / "scenarios" / "line4.json"))


def test_star_converges(star_trace):
    assert star_trace.final_modes == {i: "synchronized" for i in range(4)}
    assert star_trace.addresses[0] == 0
    assert sorted(star_trace.addresses.values()) == [0, 1, 2, 3]
    assert all(p == 0 for c, p in star_trace.parents.items())


def test_line_converges(line_trace):
    assert line_trace.final_modes == {i: "synchronized" for i in range(4)}
    assert line_trace.parents == {1: 0, 2: 1, 3: 2}


def test_star_sync_error_bound(star_trace):
    for parent, child in sync_pairs(star_trace):
        errs = measure_sync_error(star_trace, parent, child)
        assert len(errs) > 90  # nearly every frame resyncs
        assert max(abs(e) for e in errs) <= 30.6e-6


def test_line_error_grows_with_depth(line_trace):
    tick = 1.0 / 32768
    per_hop = []
    for child in (1, 2, 3):
        errs = measure_sync_error(line_trace, 0, child)
        assert errs
        per_hop.append(max(abs(e) for e in errs))
    assert per_hop == sorted(per_hop)
    assert per_hop[-1] <= 3 * tick


def test_no_overlapping_radio_intervals(star_trace):
    by_node: dict[int, list[tuple[float, float]]] = {}
    for n, _state, s, e, _ch in star_trace.radio_intervals:
        assert e > s - 1e-12
        by_node.setdefault(n, []).append((s, e))
    for spans in by_node.values():
        spans.sort()
        for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
            assert s1 >= e0 - 1e-9


def test_radio_timeline_is_gapless(star_trace):
    # Sleep filling makes each node's intervals partition [0, end].
    for node in range(4):
        spans = [(s, e) for n, _st, s, e, _ in star_trace.radio_intervals if n == node]
        spans.sort()
        assert spans[0][0] == 0.0
        assert spans[-1][1] == pytest.approx(star_trace.end_time)
        for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
            assert s1 == pytest.approx(e0, abs=1e-9)


def test_uplink_data_reaches_gateway(star_trace):
    ups = [
        e
        for e in star_trace.packet_events
        if e.event == "rx" and e.kind == "up_data" and e.node == 0
    ]
    assert len(ups) > 50  # three leaves, one sample each per k=4 frames
    gw = [e for e in star_trace.packet_events if e.channel == "lorawan"]
    assert gw
    assert all(e.event == "tx" and e.node == 0 for e in gw)


def test_acks_match_uplinks(star_trace):
    data_rx = sum(
        1
        for e in star_trace.packet_events
        if e.event == "rx" and e.kind == "up_data" and e.node == 0
    )
    acks_tx = sum(
        1 for e in star_trace.packet_events if e.event == "tx" and e.kind == "ack" and e.node == 0
    )
    assert acks_tx == data_rx


def test_counters_clean_run(star_trace):
    for node, c in star_trace.node_counters.items():
        assert c["uplink_drops"] == 0
        assert c["protocol_errors"] == 0
        if node != 0:
            assert c["beacon_misses"] == 0


def test_relay_duty_close_to_estimate(star_trace):
    from lorahop import duty_cycle_estimate, lorawan_time_on_air, time_on_air

    est = duty_cycle_estimate(
        3, 4, 1, 4 * T_FRAME, time_on_air(2), lorawan_time_on_air(24), time_on_air(3)
    )
    meas = measure_duty_cycle(star_trace, 0, 4 * T_FRAME, start_s=8 * T_FRAME)
    assert meas == pytest.approx(est, rel=0.02)


def test_avg_power_needs_profile(star_trace):
    prof = PowerProfile(p_sleep=1e-5, p_rx=0.036, p_tx=0.120, p_app=0.030, tau_app=1.0)
    p = measure_avg_power(star_trace, 1, prof, start_s=8 * T_FRAME, end_s=60 * T_FRAME)
    assert 1e-4 < p < 2e-3  # milliwatt regime, dominated by beacon rx/tx


def test_app_sampling_interval(star_trace):
    # Each node samples once per k frames once joined.
    for node in range(4):
        times = star_trace.app_intervals.get(node, [])
        assert times, f"node {node} never sampled"
        starts = [s for s, _e in times]
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        assert all(abs(g - 4 * T_FRAME) < 0.1 for g in gaps)


def test_deterministic_rerun():
    sc = load_scenario(REPO / "scenarios" / "star4.json")
    a = run(sc)
    b = run(sc)
    assert a.packet_events == b.packet_events
    assert a.radio_intervals == b.radio_intervals
    assert a.sync_samples == b.sync_samples


def test_write_trace_csvs(tmp_path, star_trace):
    paths = write_trace_csvs(star_trace, tmp_path)
    names = sorted(p.name for p in paths)
    assert names == [
        "packet_events.csv",
        "radio_states.csv",
        "summary.csv",
        "sync_samples.csv",
    ]
    headers = {p.name: p.read_text().splitlines()[0] for p in paths}
    assert headers["radio_states.csv"] == "node,state,start_s,end_s"
    assert headers["sync_samples.csv"] == "frame,parent,child,epsilon_us"
    assert headers["summary.csv"].startswith("node,final_mode,address,duty_cycle")
    assert headers["packet_events.csv"].startswith("t_s,node,event,kind")
    summary_rows = (tmp_path / "summary.csv").read_text().splitlines()[1:]
    assert len(summary_rows) == 4


# --- lossy and degraded paths ---


def test_per_causes_retries():
    doc = {
        "schema_version": 1,
        "name": "lossy",
        "frames": 40,
        "seed": 5,
        "k": 4,
        "schedule": {"max_nodes": 2, "slots_per_frame": 8, "ticks_per_slot": 21281},
        "nodes": [{"id": 0, "relay": True}, {"id": 1}],
        "links": [{"from": 0, "to": 1, "per": 0.3}],
    }
    tr = run(parse_scenario(doc))
    lost = [e for e in tr.packet_events if e.event == "lost_per"]
    assert lost  # at 30% loss something must drop
    # Retransmissions reuse the head seq, so distinct tx instants can
    # outnumber distinct sequence numbers.
    up_tx = [e for e in tr.packet_events if e.event == "tx" and e.kind == "up_data" and e.node == 1]
    assert len(up_tx) > len({e.seq for e in up_tx})


def test_join_contention_resolves():
    # All three leaves hear the relay only; they contend in the same
    # join slot and must all end up with distinct addresses.
    sc = load_scenario(REPO / "scenarios" / "star4.json")
    tr = run(sc)
    addr = tr.addresses
    assert sorted(addr[n] for n in (1, 2, 3)) == [1, 2, 3]


# --- spreading-factor sweep ---


def _sf_doc(topology: str, sf: int, ticks_per_slot=None, backoff_step=None, ldro=False) -> dict:
    doc = read_scenario_doc(REPO / "scenarios" / f"{topology}.json")
    doc["frames"] = 60
    doc["radio"] = {"spreading_factor": sf}
    if ldro:
        doc["radio"]["low_data_rate_opt"] = True
    if ticks_per_slot is not None:
        doc["schedule"]["ticks_per_slot"] = ticks_per_slot
    if backoff_step is not None:
        doc["join"] = {"backoff_step": backoff_step}
    return doc


@pytest.mark.parametrize("topology", ["star4", "line4"])
@pytest.mark.parametrize("sf", range(6, 13))
def test_spreading_factor_sweep(topology, sf):
    # At the committed 0.649 s slot SF6..9 must sync every node within the
    # single-hop bound of criterion 3; SF10..12 cannot fit a 64-byte data
    # exchange plus its ack, and must be rejected for it.
    doc = _sf_doc(topology, sf)
    if sf >= 10:
        with pytest.raises(ScenarioError, match="slot anatomy"):
            parse_scenario(doc)
        return
    _assert_syncs_every_edge(run(parse_scenario(doc)))


@pytest.mark.parametrize("topology", ["star4", "line4"])
@pytest.mark.parametrize(
    "sf, ticks_per_slot, backoff_step, ldro",
    [(10, 36000, 0.26, False), (11, 70000, 0.50, True)],
)
def test_spreading_factor_with_a_slot_sized_for_it(topology, sf, ticks_per_slot, backoff_step, ldro):
    doc = _sf_doc(topology, sf, ticks_per_slot, backoff_step, ldro)
    _assert_syncs_every_edge(run(parse_scenario(doc)))


def _assert_syncs_every_edge(trace) -> None:
    assert trace.final_modes == {i: "synchronized" for i in range(4)}
    for child, parent in trace.parents.items():
        errs = measure_sync_error(trace, parent, child)
        assert errs
        assert max(abs(e) for e in errs) <= 30.6e-6
