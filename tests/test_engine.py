"""Event engine: delivery semantics, full-run traces, measurements, CSVs."""

from __future__ import annotations

import dataclasses
import gc
import heapq
import random
import tracemalloc
import weakref
from collections import Counter
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
import lorahop.cli
import lorahop.engine
from lorahop.engine import _P_SVC, PacketEvent, ProtocolEvent, QueueSample, Simulator, SyncSample, _Window
from lorahop.phy import lorawan_time_on_air, time_on_air
from lorahop.protocol import (
    ACK_ONAIR_BYTES,
    BEACON_ONAIR_BYTES,
    MAC_HEADER_BYTES,
    MAX_DATA_PAYLOAD_BYTES,
    NETWORK_ID,
    Action,
    BecameSynchronized,
    NodeMode,
    SendJoinAccept,
    handle_rx,
    make_beacon,
)
from lorahop.scenario import ScenarioError, parse_scenario, read_scenario_doc
from corpus import CORPUS, ENQUEUES, GENERATED, Audit, generated_doc

REPO = Path(__file__).resolve().parent.parent
T_SLOT = 21281 / 32768
T_FRAME = 90 * T_SLOT


def _tx(sender=0, start=1.0, end=1.1, seq=0):
    pkt = MacPacket(PacketKind.UP_DATA, 1, sender, 0, sender, seq, b"x")
    return Transmission(sender, pkt, start, end, frame=0, slot=5)


# --- delivery semantics ---

# Every node hears every other one, so each overlap in these cases is audible.
MESH = {(a, b): 0.0 for a in range(4) for b in range(4) if a != b}


def test_deliver_clean():
    out = deliver(_tx(), [(2, True, 0.0)], [], MESH, random.Random(1))
    assert out == {2: "received"}


def test_deliver_window_miss():
    out = deliver(_tx(), [(2, False, 0.0)], [], MESH, random.Random(1))
    assert out == {2: "lost_window"}


def test_deliver_collision():
    tx = _tx(sender=1, start=1.0, end=1.1)
    overlap = _tx(sender=3, start=1.05, end=1.2, seq=1)
    assert deliver(tx, [(2, True, 0.0)], [overlap], MESH, random.Random(1)) == {2: "lost_collision"}


def test_deliver_interferer_counts_only_over_a_link():
    # Node 3 overlaps, but node 2 cannot hear it:
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
    for n, _state, s, e in star_trace.radio_intervals:
        assert e > s - 1e-12
        by_node.setdefault(n, []).append((s, e))
    for spans in by_node.values():
        spans.sort()
        for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
            assert s1 >= e0 - 1e-9


def test_radio_timeline_is_gapless(star_trace):
    # Sleep filling makes each node's intervals partition [0, end].
    for node in range(4):
        spans = [(s, e) for n, _st, s, e in star_trace.radio_intervals if n == node]
        spans.sort()
        assert spans[0][0] == 0.0
        assert spans[-1][1] == pytest.approx(star_trace.end_time)
        for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
            assert s1 == pytest.approx(e0, abs=1e-9)


def test_radio_intervals_are_the_node_timelines_node_by_node(star_trace, tmp_path):
    # The trace stores one timeline per node; the flat list is their
    # concatenation in node order, and radio_states.csv holds its rows.
    by_node = star_trace.intervals_by_node
    assert list(by_node) == sorted(star_trace.final_modes)
    assert all(row[0] == n for n, rows in by_node.items() for row in rows)
    assert star_trace.radio_intervals == [row for rows in by_node.values() for row in rows]
    write_trace_csvs(star_trace, tmp_path)
    lines = (tmp_path / "radio_states.csv").read_text().splitlines()[1:]
    assert lines == ["%d,%s,%.9f,%.9f" % row for row in star_trace.radio_intervals]


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
    drops = {ev.node for ev in star_trace.packet_events if ev.event == "queue_drop"}
    misses = {ev.node for ev in star_trace.protocol_events if ev.event == "beacon_miss"}
    for node, errors in star_trace.protocol_errors.items():
        assert node not in drops
        assert errors == 0
        if node != 0:
            assert node not in misses


def test_relay_duty_close_to_estimate(star_trace):
    from lorahop import duty_cycle_estimate, lorawan_time_on_air, time_on_air

    est = duty_cycle_estimate(
        3, 4, 1, 4 * T_FRAME, time_on_air(2), lorawan_time_on_air(24), time_on_air(3)
    )
    meas = measure_duty_cycle(star_trace, 0, 4 * T_FRAME, start_s=8 * T_FRAME)
    assert meas == pytest.approx(est, rel=0.02)


@pytest.mark.parametrize("seed", [3, 5, 16])
def test_duty_cycle_by_position_matches_the_model(seed):
    # The paper's D_i on a 16-node binary tree (node i under (i - 1) // 2),
    # one node per depth: m_i descendants of node 0, 1, 3, 7, 15. Measured
    # over 8 application periods once the tree has long since joined.
    from lorahop import duty_cycle_estimate, time_on_air

    edges = [((i - 1) // 2, i) for i in range(1, 16)]
    sc = parse_scenario(generated_doc("tree16", edges, 328, seed, False))
    trace = run(sc)
    t_frame, k, radio = sc.frame_seconds, sc.k, sc.radio
    t_ack, t_bcn = time_on_air(ACK_ONAIR_BYTES, radio), time_on_air(BEACON_ONAIR_BYTES, radio)
    for node, m_i in ((0, 15), (1, 7), (3, 3), (7, 1), (15, 0)):
        if node == sc.relay_id:
            t_data = lorawan_time_on_air(sc.app_payload_bytes, radio)
        else:
            t_data = time_on_air(MAC_HEADER_BYTES + sc.app_payload_bytes, radio)
        est = duty_cycle_estimate(m_i, k, 1, k * t_frame, t_ack, t_data, t_bcn)
        meas = measure_duty_cycle(trace, node, 128 * t_frame, start_s=200 * t_frame)
        assert meas == pytest.approx(est, rel=1e-3), node


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


def test_relay_app_burst_overlaps_its_own_beacon():
    # With N = 3M + 2 slots the first idle slot is slot N, so the application
    # sample runs at the next frame's slot-0 instant: the relay's beacon slot.
    # On the bench's tree64 job of seed 1000 each of the relay's three bursts
    # overlaps the relay's own beacon transmission; measure_avg_power adds
    # the burst on top of the transmit power there.
    edges = [((i - 1) // 2, i) for i in range(1, 64)]
    trace = run(parse_scenario(generated_doc("tree64", edges, 150, 1000, True)))
    sched = trace.scenario.schedule
    assert sched.first_idle_slot == sched.slots_per_frame
    t_bcn = trace.scenario.timing.t_bcn
    beacons = [
        ev.t for ev in trace.packet_events
        if ev.node == 0 and ev.event == "tx" and ev.kind == "beacon"
    ]
    bursts = trace.app_intervals[0]
    assert len(bursts) == 3
    for s, e in bursts:
        assert any(t < e and s < t + t_bcn for t in beacons)


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


# --- measures against full scans of the trace ---


def _scan_duty_cycle(trace, node_id, window_seconds, start_s=0.0):
    end_s = start_s + window_seconds
    total = 0.0
    for n, state, s, e in trace.radio_intervals:
        if n != node_id or state != "transmit":
            continue
        lo, hi = max(s, start_s), min(e, end_s)
        if hi > lo:
            total += hi - lo
    return total / window_seconds


def _scan_avg_power(trace, node_id, profile, start_s=0.0, end_s=None):
    if end_s is None:
        end_s = trace.end_time
    state_p = {"sleep": profile.p_sleep, "receive": profile.p_rx, "transmit": profile.p_tx}
    energy = 0.0
    for n, state, s, e in trace.radio_intervals:
        if n != node_id:
            continue
        lo, hi = max(s, start_s), min(e, end_s)
        if hi > lo:
            energy += state_p[state] * (hi - lo)
    for s, e in trace.app_intervals.get(node_id, []):
        lo, hi = max(s, start_s), min(e, end_s)
        if hi > lo:
            energy += (profile.p_app - profile.p_sleep) * (hi - lo)
    return energy / (end_s - start_s)


def _scan_sync_error(trace, parent_id, child_id):
    parent = {s.frame: s.t_syn for s in trace.sync_samples if s.node == parent_id and s.resynced}
    child = {s.frame: s.t_syn for s in trace.sync_samples if s.node == child_id and s.resynced}
    return [parent[f] - child[f] for f in sorted(parent.keys() & child.keys())]


@pytest.mark.parametrize("name", ["star4", "line4", "tree16", "tree16_resampled"])
def test_measures_equal_full_scans(name):
    if name.startswith("tree16"):
        trace = run(parse_scenario(GENERATED["tree16"]()))
    else:
        trace = run(load_scenario(REPO / "scenarios" / f"{name}.json"))
    if name == "tree16_resampled":
        # A second resynced sample of a (node, frame) replaces the first.
        extra = [s._replace(t_syn=s.t_syn + 1e-3) for s in trace.sync_samples[::7]]
        trace = dataclasses.replace(trace, sync_samples=trace.sync_samples + extra)
    end = trace.end_time
    nodes = sorted(trace.final_modes) + [999]  # 999 has no record in the trace
    prof = PowerProfile(p_sleep=1e-5, p_rx=0.036, p_tx=0.120, p_app=0.030, tau_app=1.0)
    windows = [(0.0, end), (0.0, 100.0), (8 * T_SLOT, 4 * T_FRAME), (end / 3, end / 2), (end - 10.0, 25.0)]
    spans = [(0.0, None), (8 * T_SLOT, end / 2), (end / 3, end - 1.0), (end - 10.0, end + 15.0)]
    for nid in nodes:
        for start_s, window in windows:
            assert measure_duty_cycle(trace, nid, window, start_s) == _scan_duty_cycle(
                trace, nid, window, start_s
            )
        for start_s, end_s in spans:
            assert measure_avg_power(trace, nid, prof, start_s, end_s) == _scan_avg_power(
                trace, nid, prof, start_s, end_s
            )
        for other in nodes:
            assert measure_sync_error(trace, nid, other) == _scan_sync_error(trace, nid, other)
    assert measure_duty_cycle(trace, 999, end) == 0.0
    assert measure_avg_power(trace, 999, prof) == 0.0
    assert measure_sync_error(trace, 0, 999) == []


def test_finalize_rejects_overlapping_intervals():
    sim = Simulator(load_scenario(REPO / "scenarios" / "star4.json"))
    sim.nodes[1].intervals += [(1, "transmit", 1.0, 2.0), (1, "receive", 1.5, 2.5)]
    with pytest.raises(RuntimeError, match="overlapping radio intervals"):
        sim._finalize()


@pytest.mark.parametrize("rows", [
    [(1, "transmit", 1.0, 2.0), (1, "receive", 1.0, 1.5)],
    [(1, "receive", 1.0, 1.5), (1, "transmit", 1.0, 2.0)],
])
def test_finalize_rejects_intervals_that_share_a_start_in_either_order(rows):
    # A node's timeline is sorted on the start alone, so rows that share one
    # keep their append order; the overlap check must catch both orders.
    sim = Simulator(load_scenario(REPO / "scenarios" / "star4.json"))
    sim.nodes[1].intervals += rows
    with pytest.raises(RuntimeError, match="node 1: overlapping radio intervals at t=1.000000000"):
        sim._finalize()


def test_finalize_orders_packet_events_tied_on_time_node_and_event_by_their_columns():
    # The relay refusing two JoinAccepts of one join slot logs two queue_drop
    # rows at its accept instant, with the same (t, node, event); they come
    # out in the order of their remaining columns, not in the order they
    # were logged.
    sim = Simulator(load_scenario(REPO / "scenarios" / "star4.json"))
    late, early = (
        PacketEvent(40.0, 0, "queue_drop", "join_accept", 0, hw, hw, hw, 20, "0", 2, slot)
        for hw, slot in ((13, 47), (12, 46))
    )
    sim.packet_events += [late, early]
    assert sim._finalize().packet_events == [early, late]


def test_finalize_holds_no_key_per_record():
    # Sorting the trace must not allocate per record: star32's packet events
    # are most of the live memory, and a key tuple for each was a third more.
    sim = Simulator(parse_scenario(GENERATED["star32"]()))
    finalize = sim._finalize
    seen = {}

    def measured():
        seen["live"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        trace = finalize()
        seen["peak"] = tracemalloc.get_traced_memory()[1]
        return trace

    sim._finalize = measured
    tracemalloc.start()
    try:
        trace = sim.run()
    finally:
        tracemalloc.stop()
    assert len(trace.packet_events) > 5000
    assert seen["peak"] - seen["live"] <= 0.10 * seen["live"], seen


@pytest.mark.parametrize("start, end", [(1.0, 1.0), (2.0, 1.0), (-0.5, 0.5), ("end", 0.1)])
def test_finalize_rejects_an_empty_interval_or_one_outside_the_run(start, end):
    # Every record site clips to the run, so such a row is a fault to report,
    # not one to clip or drop.
    sim = Simulator(load_scenario(REPO / "scenarios" / "star4.json"))
    if start == "end":
        start, end = sim.end_time - 0.5, sim.end_time + end
    sim.nodes[2].intervals.append((2, "receive", start, end))
    with pytest.raises(RuntimeError, match="node 2: receive interval .* outside the run or empty"):
        sim._finalize()


# --- trace records ---


def test_trace_records_are_immutable(star_trace):
    for rec, field in (
        (star_trace.packet_events[0], "t"),
        (star_trace.queue_samples[0], "uplink_depth"),
        (star_trace.protocol_events[0], "detail"),
        (star_trace.sync_samples[0], "t_syn"),
    ):
        with pytest.raises(AttributeError):
            setattr(rec, field, 0)


def test_trace_records_have_their_class_and_arity():
    # The engine builds records with tuple.__new__, which checks no arity.
    seen = Counter()
    for name in ("star4", "line4", *GENERATED):
        trace = run(parse_scenario(CORPUS[name]()))
        for cls, records in (
            (PacketEvent, trace.packet_events),
            (SyncSample, trace.sync_samples),
            (QueueSample, trace.queue_samples),
            (ProtocolEvent, trace.protocol_events),
        ):
            for rec in records:
                assert isinstance(rec, cls) and len(rec) == len(cls._fields), (name, tuple(rec))
            seen[cls.__name__] += len(records)
    assert len(seen) == 4 and min(seen.values()) > 0, seen


def test_windows_and_actions_have_their_class_and_arity(monkeypatch):
    # Receive windows and handle_rx's actions are built with tuple.__new__
    # too. Each window is checked as its one opening site returns, each
    # action as handle_rx returns it to the engine.
    seen = Counter()

    def check(obj, classes, name):
        cls = type(obj)
        assert cls in classes and len(obj) == len(cls._fields), (name, cls.__name__, tuple(obj))
        seen[cls.__name__] += 1

    def watched_handle_rx(*args, **kwargs):
        actions = handle_rx(*args, **kwargs)
        for act in actions:
            check(act, Action.__args__, name)
        return actions

    monkeypatch.setattr(lorahop.engine, "handle_rx", watched_handle_rx)
    for name in ("star4", "line4", *GENERATED):
        sim = Simulator(parse_scenario(CORPUS[name]()))
        listen, beacon_window = sim._listen, sim._schedule_beacon_window

        def watched_listen(rt, *args):
            listen(rt, *args)
            check(rt.windows[-1], (_Window,), name)

        def watched_beacon_window(rt, *args):
            beacon_window(rt, *args)
            check(rt.beacon, (_Window,), name)

        sim._listen, sim._schedule_beacon_window = watched_listen, watched_beacon_window
        sim.run()
    assert {"_Window", "Resync", "CandidateBeacon", "SendAck"} <= seen.keys(), seen


def test_equal_transmissions_stay_distinct():
    # Delivery skips the transmission it resolves by identity (o is tx), so
    # of two with equal fields the other one still counts.
    a, b = _tx(), _tx()
    active = [a, b]
    active.remove(b)
    assert active[0] is a
    assert b not in active


def test_packet_event_fields_are_the_csv_columns(tmp_path, star_trace):
    write_trace_csvs(star_trace, tmp_path)
    lines = (tmp_path / "packet_events.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert [c.removesuffix("_s") for c in header] == list(PacketEvent._fields)
    assert len(lines) == len(star_trace.packet_events) + 1
    for line, ev in zip(lines[1:], star_trace.packet_events):
        assert line.split(",") == [f"{ev.t:.9f}", *map(str, ev[1:])]


def _plain_csv_lines(trace) -> dict[str, list[str]]:
    """The data lines of each trace CSV, every line formatted alone from its record."""
    return {
        "packet_events.csv": [
            "%.9f,%d,%s,%s,%d,%d,%d,%d,%d,%s,%d,%d\n" % ev for ev in trace.packet_events
        ],
        "radio_states.csv": ["%d,%s,%.9f,%.9f\n" % row for row in trace.radio_intervals],
        "sync_samples.csv": [
            f"{fr},{p},{c},{eps * 1e6:.3f}\n"
            for p, c in sync_pairs(trace)
            for fr, eps in lorahop.engine._sync_offsets(trace, p, c)
        ],
    }


def _written_csv_lines(trace, out: Path) -> dict[str, list[str]]:
    write_trace_csvs(trace, out)
    return {
        name: (out / name).read_text().splitlines(keepends=True)[1:]
        for name in ("packet_events.csv", "radio_states.csv", "sync_samples.csv")
    }


@pytest.fixture(scope="module")
def star32_trace():
    """31 leaves joining one relay from cold: each relay beacon gives 31 rx
    rows at one instant, and colliding JoinRequests share theirs."""
    return run(parse_scenario(GENERATED["star32"]()))


@pytest.mark.parametrize("name", ["star4", "star32", "tree16"])
def test_every_csv_line_is_its_record_formatted_alone(name, tmp_path, star32_trace):
    # The writers reuse text a row shares with the row before it; the bytes
    # must be those of formatting each record on its own.
    trace = star32_trace if name == "star32" else run(parse_scenario(CORPUS[name]()))
    plain = _plain_csv_lines(trace)
    assert plain["packet_events.csv"] and plain["radio_states.csv"]
    assert bool(plain["sync_samples.csv"]) == (name != "star32")  # no star32 leaf syncs
    assert _written_csv_lines(trace, tmp_path) == plain


def test_csv_text_is_reused_only_for_equal_values(tmp_path, star_trace):
    # Adjacent rows that share their instant but not their columns, their
    # columns but not their instant, or neither; 0.0 and -0.0 compare equal
    # but format apart. Radio rows of two nodes share a state, not a node.
    ev = PacketEvent(1.5, 1, "rx", "beacon", 0, 255, 0, 3, 3, "0", 1, 0)
    packets = [
        ev,
        ev._replace(node=2),
        ev._replace(node=3, seq=4),
        ev._replace(t=2.25, seq=4),
        ev._replace(t=2.25, node=0, event="tx", kind="ack", channel="lorawan"),
        ev._replace(t=3.0, node=0, event="tx", kind="ack", channel="lorawan", slot=1),
        ev._replace(t=0.0),
        ev._replace(t=-0.0),
        ev._replace(t=0.0),
    ]
    radio = {
        0: [(0, "sleep", 0.0, 1.5), (0, "receive", 1.5, 2.25)],
        1: [(1, "receive", 2.25, 3.0), (1, "sleep", 3.0, 4.0)],
        2: [(2, "sleep", 0.0, 4.0)],
    }
    trace = dataclasses.replace(star_trace, packet_events=packets, intervals_by_node=radio)
    written = _written_csv_lines(trace, tmp_path)
    assert written == _plain_csv_lines(trace)
    assert written["packet_events.csv"][6:] == [
        "0.000000000,1,rx,beacon,0,255,0,3,3,0,1,0\n",
        "-0.000000000,1,rx,beacon,0,255,0,3,3,0,1,0\n",
        "0.000000000,1,rx,beacon,0,255,0,3,3,0,1,0\n",
    ]


def test_csv_export_holds_one_block_of_lines_at_a_time(tmp_path, star32_trace):
    # The peak above the live trace: 34.6 kB for a writer that hands the
    # file one line at a time (Python 3.11), plus one block of 256 lines of
    # at most 64 characters, each held as a str (49 B and its text), a list
    # slot and its share of the joined text: 47.4 kB. A whole joined file
    # is far above it.
    trace = star32_trace
    trace.resynced_by_node  # the trace's own view, built once
    write_trace_csvs(trace, tmp_path)
    tracemalloc.start()
    try:
        write_trace_csvs(trace, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "packet_events.csv").stat().st_size > 300_000
    assert peak <= 82_000, peak


# --- plain receive windows against packet timing ---


def _drain(sim: Simulator) -> None:
    """Handle the queued events up to the end of the run, as run() does."""
    end_ns = round(sim.end_time * 1e9)
    while sim.heap and sim.heap[0][0] <= end_ns:
        *_, fn, args = heapq.heappop(sim.heap)
        fn(*args)


def _events_at(sim: Simulator, node: int) -> list[str]:
    return [ev.event for ev in sim.packet_events if ev.node == node]


def _ack_from_relay(sim: Simulator, start: float) -> float:
    """Queue an ack from relay 0 to leaf 1 starting at ``start``; return its end."""
    ack = MacPacket(PacketKind.ACK, 1, 0, 1, 1, 0)
    sim._transmit(sim.nodes[0], ack, start, 0, 5)
    return start + sim._toa(ack.onair_bytes)


def test_packet_ending_at_a_plain_window_close_is_received():
    sim = Simulator(load_scenario(REPO / "scenarios" / "star4.json"))
    end = _ack_from_relay(sim, 1.01)
    sim._listen(sim.nodes[1], 1.0, end)
    _drain(sim)
    assert _events_at(sim, 1) == ["rx"]


def test_plain_window_that_closes_mid_packet_does_not_receive_it():
    # Closed before the packet ends, the window no longer hears it: no rx
    # and no loss at the listener. A window that opens mid-packet, and so
    # is still open at its end, loses it to the window.
    sim = Simulator(load_scenario(REPO / "scenarios" / "star4.json"))
    end = _ack_from_relay(sim, 1.01)
    sim._listen(sim.nodes[1], 1.0, (1.01 + end) / 2)
    sim._listen(sim.nodes[2], (1.01 + end) / 2, end + 0.1)
    _drain(sim)
    assert _events_at(sim, 1) == []
    assert _events_at(sim, 2) == ["lost_window"]


def test_packet_spanned_by_a_later_plain_window_is_received_past_one_that_overlaps_it():
    # The first window overlaps the packet only in part; the second spans it.
    sim = Simulator(load_scenario(REPO / "scenarios" / "star4.json"))
    end = _ack_from_relay(sim, 1.01)
    sim._listen(sim.nodes[1], 1.0, (1.01 + end) / 2)
    sim._listen(sim.nodes[1], 1.0, end + 0.1)
    _drain(sim)
    assert _events_at(sim, 1) == ["rx"]


def test_node_listening_from_before_a_packet_receives_it_past_a_window_that_closes_mid_packet():
    sim = Simulator(load_scenario(REPO / "scenarios" / "star4.json"))
    end = _ack_from_relay(sim, 1.01)
    sim.nodes[1].listen_from = 0.5
    sim._listen(sim.nodes[1], 1.0, (1.01 + end) / 2)
    _drain(sim)
    assert _events_at(sim, 1) == ["rx"]


def test_plain_window_interval_is_recorded_once_and_clipped_at_the_end():
    sim = Simulator(load_scenario(REPO / "scenarios" / "star4.json"))
    end = sim.end_time
    sim._listen(sim.nodes[1], 1.0, 1.5)
    sim._listen(sim.nodes[1], end - 0.5, end + 1.0)
    _drain(sim)
    trace = sim._finalize()
    receive = [(s, e) for n, state, s, e in trace.radio_intervals if n == 1 and state == "receive"]
    assert receive == [(1.0, 1.5), (end - 0.5, end)]


# --- a listening sender stops listening at its transmission's start ---


def _listening_request(sim: Simulator, start: float) -> float:
    """Leaf 1, unjoined and listening from 0, puts a JoinRequest on the air
    at ``start``; return its end."""
    rt = sim.nodes[1]
    rt.listen_from = 0.0
    req = MacPacket(PacketKind.JOIN_REQUEST, NETWORK_ID, 1, 0, 1, 0)
    sim._transmit(rt, req, start, 0, sim.sched.join_slot)
    return start + sim._toa(req.onair_bytes)


@pytest.mark.parametrize("gap_ns, heard", [(0, []), (1, ["rx"])])
def test_listening_sender_hears_a_packet_only_if_it_ends_before_its_start(gap_ns, heard):
    # At an equal nanosecond the sender's transmission has started, so the
    # packet ends after its listening stopped; one nanosecond earlier it
    # ends while the sender still listens.
    sim = Simulator(load_scenario(REPO / "scenarios" / "star4.json"))
    ack_end_ns = round(_ack_from_relay(sim, 1.01) * 1e9)
    start = (ack_end_ns + gap_ns) / 1e9
    assert round(start * 1e9) == ack_end_ns + gap_ns
    _listening_request(sim, start)
    _drain(sim)
    assert [ev.event for ev in sim.packet_events if ev.node == 1 and ev.kind == "ack"] == heard


def test_listening_sender_whose_transmission_starts_past_the_end_listens_to_the_end():
    sim = Simulator(load_scenario(REPO / "scenarios" / "star4.json"))
    end = sim.end_time
    _listening_request(sim, end + 0.5)
    _drain(sim)
    assert sim._finalize().intervals_by_node[1] == [(1, "receive", 0.0, end)]


def test_listening_sender_transmitting_over_the_end_listens_up_to_its_start():
    # The transmission does not end by the end of the run, so it has no
    # transmit row; the listening still stops at its start.
    sim = Simulator(load_scenario(REPO / "scenarios" / "star4.json"))
    end = sim.end_time
    airtime = sim._toa(MacPacket(PacketKind.JOIN_REQUEST, 1, 1, 0, 1, 0).onair_bytes)
    start = end - airtime / 2
    assert _listening_request(sim, start) > end
    _drain(sim)
    assert sim._finalize().intervals_by_node[1] == [(1, "receive", 0.0, start), (1, "sleep", start, end)]


@pytest.mark.parametrize("past_end, logged", [(0.0, True), (1e-6, False)])
def test_relay_uplink_is_logged_only_if_it_ends_by_the_end(past_end, logged):
    # The LoRaWAN uplink reaches no node; its transmit interval and tx event
    # are kept exactly when the run lasts until the uplink ends.
    sim = Simulator(load_scenario(REPO / "scenarios" / "star4.json"))
    relay = sim.nodes[0]
    pkt = _up_data(1, 0, 4)
    relay.st.uplink_queue.append(pkt)
    airtime = lorawan_time_on_air(len(pkt.payload), sim.sc.radio)
    start = sim.end_time - airtime + past_end
    sim._ev_lorawan(relay, sim.sc.frames - 1, start - sim.timing.data_tx_offset)
    _drain(sim)
    trace = sim._finalize()
    sent = [r for r in trace.radio_intervals if r[0] == 0 and r[1] == "transmit"]
    events = [(ev.t, ev.node, ev.event, ev.channel) for ev in trace.packet_events]
    if logged:
        assert sent == [(0, "transmit", pytest.approx(start), pytest.approx(trace.end_time))]
        assert events == [(pytest.approx(start), 0, "tx", "lorawan")]
    else:
        assert sent == [] and events == []


def test_committed_line4_needs_few_heap_events_per_frame(audits):
    line4 = audits["line4"]
    assert line4.pushes / line4.frames < 16


def test_committed_star32_needs_few_heap_events_per_frame_beside_its_join_attempts(audits):
    # 31 leaves join from cold. Each join attempt is three pushes: itself,
    # its JoinRequest's end and its timeout. The rest, per frame, read 9.93
    # while a listening sender's transmission also pushed a start event.
    star32 = audits["star32"]
    assert (star32.pushes - 3 * star32.attempt_pops) / star32.frames < 3


# --- memory after a run ---


def _freed_without_the_collector(simulate) -> None:
    """``simulate(sim)`` runs a Simulator built on committed line4; once it
    returns, reference counting alone must have freed that Simulator."""
    gc.collect()
    gc.disable()
    try:
        sim = Simulator(load_scenario(REPO / "scenarios" / "line4.json"))
        ref = weakref.ref(sim)
        simulate(sim)
        del sim
        assert ref() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_finished_run_is_freed_by_reference_counting():
    def simulate(sim):
        trace = sim.run()
        assert trace.final_modes == {i: "synchronized" for i in range(4)}

    _freed_without_the_collector(simulate)


def _raise_now():
    raise RuntimeError("handler failed")


@pytest.mark.parametrize("where", ["handler", "finalize"])
def test_run_that_raises_is_freed_by_reference_counting(where):
    def simulate(sim):
        if where == "handler":
            sim._push(30.0, _P_SVC, 0, _raise_now)
            match = "handler failed"
        else:
            sim.nodes[1].intervals += [(1, "transmit", 1.0, 2.0), (1, "receive", 1.5, 2.5)]
            match = "overlapping radio intervals"
        try:
            sim.run()
        except RuntimeError as e:
            assert match in str(e)
        else:
            pytest.fail("run() did not raise")

    _freed_without_the_collector(simulate)


# --- joining on an old parent reference ---


def test_accept_after_an_old_reference_arms_a_beacon_window_after_it():
    # Node 1 last heard the relay's beacon in frame 0; the JoinAccept comes
    # in the join slot of frame 5. The next beacon window must lie ahead of
    # the accept, in frame 6, not in frame 1.
    sim = Simulator(load_scenario(REPO / "scenarios" / "star4.json"))
    rt = sim.nodes[1]
    rt.candidates[0] = (-60.0, 0.0, 0)
    start = 5 * sim.t_frame + sim.sched.join_slot * sim.t_slot + sim.timing.join_accept_offset
    accept = MacPacket(PacketKind.JOIN_ACCEPT, 1, 0, 1, 1, 0, bytes([1, 2, 3]))
    tx = Transmission(0, accept, start, start + sim._toa(accept.onair_bytes), frame=5, slot=sim.sched.join_slot)
    rt.st.address, rt.st.parent_id = 1, 0
    sim._apply_action(rt, BecameSynchronized(0), tx)
    win = rt.beacon
    assert win.frame == 6
    assert win.open_t > tx.end
    assert sim.sync_samples[-1].frame == 5


# --- the beacon-miss policy ---


def _next_beacon_window(sim: Simulator, rt) -> None:
    """Handle events until the node's open beacon window gives way to the next."""
    win = rt.beacon
    while rt.beacon is win:
        *_, fn, args = heapq.heappop(sim.heap)
        fn(*args)


@pytest.mark.parametrize("base_slots", [0.01, 0.2, 1.0, 2.0])
def test_beacon_window_widens_per_miss_up_to_a_slot_and_resets_on_resync(base_slots):
    # The guard doubles with each consecutive miss, capped at one slot; a
    # base guard of a slot or more opens every window a whole slot wide.
    doc = read_scenario_doc(REPO / "scenarios" / "star4.json")
    doc["guard"]["base_guard"] = base = base_slots * T_SLOT
    sim = Simulator(parse_scenario(doc))
    _synchronize(sim, 1, address=1, parent=0)
    rt = sim.nodes[1]
    sim._enter_frame(rt, 0, 0.0, resynced=True)

    def half_width(misses: int) -> float:
        # The window spans center -/+ half, plus a local tick before and
        # the beacon's airtime after; the center lies one local frame after
        # the anchor.
        win = rt.beacon
        assert rt.st.consecutive_beacon_misses == misses
        center = rt.anchor + rt.frame_local + sim.timing.beacon_tx_offset
        late = win.close_t - sim.timing.t_bcn - center
        assert center - (win.open_t + rt.tick) == pytest.approx(late, abs=1e-9)
        return late

    halves = []
    for misses in range(4):
        halves.append(half_width(misses))
        if misses < 3:
            _next_beacon_window(sim, rt)  # the window closes empty: a miss
    assert halves == pytest.approx([min(base * 2**m, T_SLOT) / 2 for m in range(4)], abs=1e-9)

    # The parent's beacon inside the widest window resyncs the node.
    relay, frame = sim.nodes[0], rt.beacon.frame
    sim._transmit(relay, make_beacon(relay.st, frame), rt.beacon.open_t + 0.005, frame, 0)
    _next_beacon_window(sim, rt)
    assert [e.event for e in sim.protocol_events] == ["beacon_miss"] * 3
    assert half_width(0) == pytest.approx(min(base, T_SLOT) / 2, abs=1e-9)


def test_a_node_desynchronized_before_its_sample_instant_queues_no_sample():
    # With N = 3M + 2 a node samples at the next frame's slot 0. In frames
    # of 8 slots of 50 s, a leaf 500 ppm fast opens each beacon window
    # 0.2 s further ahead of the relay's beacon: it misses every one, and
    # its fourth miss closes before that frame's sample. The leaf holds no
    # address then, so it queues no sample, where it once queued one from
    # address 0, the relay's.
    doc = generated_doc("slide", [(0, 1)], 8, 1, False)
    doc["schedule"]["ticks_per_slot"] = 50 * 32768
    doc["nodes"][1]["drift_ppm"] = -500.0
    sim = Simulator(parse_scenario(doc))
    trace = sim.run()
    assert trace.final_modes[1] == "desynchronized"
    queued = sim.nodes[1].st.uplink_queue
    assert queued and {p.origin_id for p in queued} == {1}


# --- a widened beacon window over the join window before it ---


def _beacon_window_over_the_join_window() -> tuple[Simulator, float, float]:
    """Node 1 of a three-node line at SF10, synchronized under the relay in
    frame 0 with a base guard of a whole slot. The join slot is the
    frame's last, so frame 1's beacon window opens before frame 0's join
    window closes. Returns the simulator and that overlap (open, close).

    The join window closes one backoff position before the JoinAccept, so
    on a slot that holds the join slot the overlap falls short of a
    JoinRequest. Node 1's -500 ppm crystal, the model's limit, ends its
    96 s frame (92 slots of 1.044 s) 48 ms early and widens the overlap
    to hold one."""
    doc = generated_doc("line3", [(0, 1), (1, 2)], 1, 3, False)
    doc["radio"] = {"spreading_factor": 10}
    doc["schedule"] = {"max_nodes": 30, "slots_per_frame": 92, "ticks_per_slot": 34200}
    doc["nodes"][1]["drift_ppm"] = -500.0
    doc["guard"]["base_guard"] = parse_scenario(doc).slot_seconds
    sim = Simulator(parse_scenario(doc))
    _synchronize(sim, 1, address=1, parent=0)
    rt = sim.nodes[1]
    sim._enter_frame(rt, 0, 0.0, resynced=True)
    beacon_open = rt.frame_local + sim.timing.beacon_tx_offset - sim.t_slot / 2 - rt.tick
    join_close = sim.sched.join_slot * sim.t_slot + sim.timing.join_accept_offset - 0.005
    assert sim.sched.join_slot * sim.t_slot + sim.timing.t_offset < beacon_open < join_close
    return sim, beacon_open, join_close


def test_parent_beacon_in_both_windows_resyncs_the_node():
    sim, open_t, close_t = _beacon_window_over_the_join_window()
    beacon = make_beacon(sim.nodes[0].st, 1)
    start = open_t + 0.005
    assert start + sim._toa(beacon.onair_bytes) < close_t
    sim._transmit(sim.nodes[0], beacon, start, 1, 0)
    _drain(sim)
    assert [(s.frame, s.resynced) for s in sim.sync_samples if s.node == 1] == [(0, True), (1, True)]
    assert sim.protocol_events == []


@pytest.mark.parametrize("in_beacon_window", [True, False])
def test_join_request_in_both_windows_is_not_join_slot_traffic(in_beacon_window):
    # Node 1 is the request's chosen parent. Taken by the beacon window, the
    # request is a stray uplink from a node that is no child and is ignored;
    # in the join window alone, node 1 forwards it and awaits the accept.
    sim, open_t, close_t = _beacon_window_over_the_join_window()
    req = MacPacket(PacketKind.JOIN_REQUEST, NETWORK_ID, 2, 1, 2, 0)
    airtime = sim._toa(req.onair_bytes)
    start = open_t + 0.005 if in_beacon_window else open_t - airtime - 0.005
    assert start + airtime < close_t
    sim._transmit(sim.nodes[2], req, start, 0, sim.sched.join_slot)
    _drain(sim)
    st = sim.nodes[1].st
    heard = [(ev.event, ev.kind) for ev in sim.packet_events if ev.node == 1 and ev.event != "tx"]
    assert heard == [("rx", "join_request")]
    assert bool(st.pending_accepts) is not in_beacon_window
    assert len(st.uplink_queue) == (0 if in_beacon_window else 1)


# --- the audited corpus (tests/corpus.py, simulated once per session) ---


def test_audit_restores_what_it_wraps_even_if_the_run_raises(monkeypatch):
    wrapped = [(heapq, "heappop"), (heapq, "heappush"), (lorahop.cli, "run"), *ENQUEUES]
    before = [getattr(module, name) for module, name in wrapped]
    monkeypatch.setattr(Simulator, "_finalize", lambda sim: _raise_now())
    with pytest.raises(RuntimeError, match="handler failed"):
        Audit("star4", CORPUS["star4"]())
    assert [getattr(module, name) for module, name in wrapped] == before


def test_random_scenarios_run_to_the_end(audits):
    # Lost beacons, accepts and requests leave joiners holding parent
    # references several frames old, and with a 0.4 ms guard nodes also
    # miss beacons, fly on the flywheel, desynchronize and join again; every
    # run must still finish with a gapless, non-overlapping timeline
    # (_finalize checks the overlap).
    for name, audit in audits.items():
        assert audit.gapped == [], name
    assert sum(audit.desyncs for audit in audits.values()) > 0


def test_node_measures_are_the_full_run_scans(audits):
    # The finalize step's sums make the scans' additions in their order, so
    # every node's duty cycle and mean power match them bit for bit.
    for name, audit in audits.items():
        assert audit.measure_mismatches == [], name
    assert len(audits) == 650


def test_a_join_attempt_is_pending_exactly_while_an_unjoined_node_holds_a_candidate(audits):
    # Only a node's first candidate, or a join timeout that leaves it
    # unjoined, schedules an attempt; _ev_join_attempt checks neither the
    # node's mode nor its candidates, so each attempt must find both.
    for name, audit in audits.items():
        assert audit.idle_attempts == [], name
        assert audit.double_attempts == [], name
    assert sum(audit.attempt_pops for audit in audits.values()) > sum(audit.desyncs for audit in audits.values()) > 0


def test_every_node_holds_the_facts_its_mode_promises_at_every_pop(audits):
    # A node gets its address only from a JoinAccept, its parent when it
    # asks to join, and loses both together on a desync; only a
    # synchronized node stops listening. The engine and the protocol layer
    # send no fallback address for a node that breaks this, so every pop
    # must find each node's facts agreeing with its mode.
    for name, audit in audits.items():
        assert audit.mode_faults == [], name
    assert sum(audit.mode_pops for audit in audits.values()) > len(audits)


# --- slot services on the heap ---


def test_no_slot_service_pops_without_work(audits):
    # An own-uplink, LoRaWAN or child-downlink event goes on the heap only
    # once its queue holds work for its slot.
    for name, audit in audits.items():
        assert audit.idle_pops == [], name
    assert sum(audit.service_pops for audit in audits.values()) > 0


def test_no_slot_service_is_pushed_before_the_event_being_handled(audits):
    # A service woken by an enqueue must still lie ahead: pushed behind the
    # event that woke it, it would pop out of time order.
    for name, audit in audits.items():
        assert audit.early_pushes == [], name


def test_every_out_of_order_pop_is_a_tx_end_under_a_higher_address(audits):
    # A node that rejoins under a new parent gets its old address back, even
    # when it is below the parent's: its beacon slot then precedes the
    # parent's, and _schedule_frame puts that beacon in the past. That is
    # the only known cause; a pop out of order for any other reason fails
    # here.
    for name, audit in audits.items():
        for handler, address, parent in audit.out_of_order:
            assert handler == "_ev_tx_end" and address < parent, (name, handler, address, parent)


def test_engine_cost_per_node_frame_is_bounded(audits):
    # Bounds fixed from the corpus maxima of 4.27 heap pushes, 5.03 non-sleep
    # radio intervals and 3.99 packet events per node-frame (random231_tight,
    # random177_tight and random148_tight).
    for name, audit in audits.items():
        node_frames = audit.nodes * audit.frames
        assert audit.pushes <= 5 * node_frames, name
        assert audit.intervals <= 6 * node_frames, name
        assert audit.packet_events <= 5 * node_frames, name


# --- queue admission ---


def _capacity_one_sim(topology: str) -> Simulator:
    doc = read_scenario_doc(REPO / "scenarios" / f"{topology}.json")
    doc["queue_capacity"] = 1
    return Simulator(parse_scenario(doc))


def _synchronize(sim: Simulator, node: int, address: int, parent: int) -> None:
    st = sim.nodes[node].st
    st.mode = NodeMode.SYNCHRONIZED
    st.parent_id = parent
    st.address = address


def _drop_rows(sim: Simulator) -> list[tuple]:
    return [
        (ev.t, ev.node, ev.kind, ev.channel, ev.frame, ev.slot)
        for ev in sim.packet_events
        if ev.event == "queue_drop"
    ]


def _up_data(sender: int, dest: int, seq: int) -> MacPacket:
    return MacPacket(PacketKind.UP_DATA, 1, sender, dest, sender, seq, b"abc")


def test_leaf_sample_into_a_full_uplink_queue_is_dropped():
    sim = _capacity_one_sim("star4")
    _synchronize(sim, 1, address=1, parent=0)
    rt = sim.nodes[1]
    rt.st.uplink_queue.append(_up_data(1, 0, 9))
    sim._ev_app(rt, 7, 12.5)
    assert _drop_rows(sim) == [(12.5, 1, "up_data", "0", 7, -1)]
    assert len(rt.st.uplink_queue) == 1


def test_relay_sample_into_a_full_gateway_queue_is_dropped():
    sim = _capacity_one_sim("star4")
    relay = sim.nodes[0]
    relay.st.uplink_queue.append(_up_data(1, 0, 9))
    sim._ev_app(relay, 4, 3.25)
    assert _drop_rows(sim) == [(3.25, 0, "up_data", "lorawan", 4, -1)]
    assert len(relay.st.uplink_queue) == 1


def test_child_data_into_a_full_gateway_queue_is_dropped():
    sim = _capacity_one_sim("star4")
    relay = sim.nodes[0]
    relay.st.children.add(1)
    relay.st.uplink_queue.append(_up_data(2, 0, 9))
    slot = sim.sched.uplink_slot(1)
    tx = Transmission(1, _up_data(1, 0, 4), 20.0, 20.2, frame=3, slot=slot)
    sim._receive(relay, tx)
    assert _drop_rows(sim) == [(20.2, 0, "up_data", "lorawan", 3, slot)]
    assert len(relay.st.uplink_queue) == 1
    # The packet was still acknowledged: the drop is the relay's, not the link's.
    assert [t.packet.kind for t in sim.on_air] == [PacketKind.ACK]


def test_every_queue_drop_is_a_state_drop_and_a_logged_row(audits):
    # With room for one packet per queue, relays and forwarders drop
    # samples, child data, JoinRequests and JoinAccepts; each refusal by a
    # node's queues is one queue_drop row of that node, and no other.
    for name, audit in audits.items():
        assert Counter(node for node, _kind in audit.drops) == audit.refused, name
    assert sum(len(audit.drops) for audit in audits.values()) > 0


def test_no_relay_queue_drop_names_a_join_request(audits):
    # The relay never queues a JoinRequest: when its downlink queue is full,
    # the row names the JoinAccept it turned away, with the downlink slot
    # that accept was bound for.
    accepts = 0
    for name, audit in audits.items():
        kinds = [kind for node, kind in audit.drops if node == audit.relay]
        assert "join_request" not in kinds, name
        accepts += kinds.count("join_accept")
    assert accepts > 0


def test_forwarder_drop_of_a_join_accept_names_the_readdressed_copy():
    sim = _capacity_one_sim("line4")
    _synchronize(sim, 1, address=1, parent=0)
    mid = sim.nodes[1]
    mid.st.routes[13] = None
    mid.st.downlink_queue.append((_up_data(1, 2, 9), sim.sched.downlink_slot(2)))
    accept = MacPacket(PacketKind.JOIN_ACCEPT, 1, 0, 1, 13, 6, bytes(sim.sched.slot_triple(3)))
    tx = Transmission(0, accept, 40.0, 40.2, frame=6, slot=sim.sched.downlink_slot(1))
    sim._receive(mid, tx)
    # Sender 1 and dest 13 are the re-addressed copy's; the slot is the
    # joiner's downlink slot it was bound for.
    assert [(ev.kind, ev.sender, ev.dest, ev.origin, ev.frame, ev.slot) for ev in sim.packet_events] == [
        ("join_accept", 1, 13, 13, 6, sim.sched.downlink_slot(3))
    ]


def test_join_accepts_past_the_first_queue_for_the_downlink_and_drop_beyond_it():
    # Three requests heard in frame 2's join slot: the first is answered on
    # the air at the slot's accept instant, the second waits for its
    # joiner's downlink slot, and the third finds the queue full.
    sim = _capacity_one_sim("star4")
    relay = sim.nodes[0]
    relay.anchor = 2 * sim.t_frame
    join_slot = sim.sched.join_slot
    t_acc = sim._slot_start(relay.anchor, 0, join_slot) + sim.timing.join_accept_offset
    accepts = [
        MacPacket(PacketKind.JOIN_ACCEPT, 1, 0, hw, hw, hw, bytes(sim.sched.slot_triple(a)))
        for a, hw in ((1, 11), (2, 12), (3, 13))
    ]
    for i, accept in enumerate(accepts):
        request = MacPacket(PacketKind.JOIN_REQUEST, 1, 0, 0, accept.origin_id, 0)
        start = t_acc - 0.5 + 0.1 * i
        tx = Transmission(accept.origin_id, request, start, start + 0.05, frame=2, slot=join_slot)
        sim._apply_action(relay, SendJoinAccept(accept), tx)
    assert [(t.packet, t.start, t.frame, t.slot) for t in sim.on_air] == [(accepts[0], t_acc, 2, join_slot)]
    assert list(relay.st.downlink_queue) == [(accepts[1], sim.sched.downlink_slot(2))]
    assert _drop_rows(sim) == [(t_acc, 0, "join_accept", "0", 2, sim.sched.downlink_slot(3))]


def test_child_data_into_a_full_forwarder_queue_is_dropped():
    sim = _capacity_one_sim("line4")
    _synchronize(sim, 1, address=1, parent=0)
    mid = sim.nodes[1]
    mid.st.children.add(2)
    mid.st.uplink_queue.append(_up_data(1, 0, 9))
    slot = sim.sched.uplink_slot(2)
    tx = Transmission(2, _up_data(2, 1, 4), 30.0, 30.2, frame=5, slot=slot)
    sim._receive(mid, tx)
    assert _drop_rows(sim) == [(30.2, 1, "up_data", "0", 5, slot)]
    assert [p.seq for p in mid.st.uplink_queue] == [9]


def test_packet_kind_codes_are_stable():
    names = ("BEACON", "JOIN_REQUEST", "JOIN_ACCEPT", "UP_DATA", "ACK")
    assert [PacketKind[n].value for n in names] == [0, 1, 2, 3, 5]


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


def _sf_doc(topology: str, sf: int, ticks_per_slot=None, ldro=False) -> dict:
    doc = read_scenario_doc(REPO / "scenarios" / f"{topology}.json")
    doc["frames"] = 60
    doc["radio"] = {"spreading_factor": sf}
    if sf == 6:
        doc["radio"]["explicit_header"] = False
    if ldro:
        doc["radio"]["low_data_rate_opt"] = True
    if ticks_per_slot is not None:
        doc["schedule"]["ticks_per_slot"] = ticks_per_slot
    return doc


@pytest.mark.parametrize("topology", ["star4", "line4"])
@pytest.mark.parametrize("sf", range(6, 13))
def test_spreading_factor_sweep(topology, sf):
    # At the committed 0.649 s slot SF6..9 must sync every node within the
    # single-hop bound of criterion 3; SF10..12 cannot fit a 64-byte data
    # exchange plus its ack, and must be rejected for it. SF6 runs with an
    # implicit header, and SF11/12 (symbols past 16 ms) with low data rate
    # optimization, as the modem requires.
    doc = _sf_doc(topology, sf, ldro=sf >= 11)
    if sf >= 10:
        with pytest.raises(ScenarioError, match="slot anatomy"):
            parse_scenario(doc)
        return
    _assert_syncs_every_edge(run(parse_scenario(doc)))


@pytest.mark.parametrize("topology", ["star4", "line4"])
@pytest.mark.parametrize(
    "sf, ticks_per_slot, ldro",
    [(6, 5300, False), (7, 8000, False), (8, 12000, False), (10, 36000, False), (11, 70000, True)],
)
def test_spreading_factor_with_a_slot_sized_for_it(topology, sf, ticks_per_slot, ldro):
    # The join slot follows from the radio too, so no scenario sets it by hand.
    doc = _sf_doc(topology, sf, ticks_per_slot, ldro)
    _assert_syncs_every_edge(run(parse_scenario(doc)))


@pytest.mark.parametrize("sf, ticks_per_slot", [(9, None), (8, 12000)])
def test_beacon_reference_is_the_beacon_end_less_its_airtime_and_offset(sf, ticks_per_slot, monkeypatch):
    # Every clock re-anchor takes the slot start of the parent's beacon of
    # that frame: its end, less the airtime of a beacon on the radio in use,
    # less the beacon's offset in its slot.
    sc = parse_scenario(_sf_doc("line4", sf, ticks_per_slot))
    refs = []
    real_resync = lorahop.engine.resync

    def recording_resync(clock, beacon_ref_global, expected_local_tick):
        refs.append((beacon_ref_global, expected_local_tick))
        return real_resync(clock, beacon_ref_global, expected_local_tick)

    monkeypatch.setattr(lorahop.engine, "resync", recording_resync)
    trace = run(sc)
    t_bcn = time_on_air(BEACON_ONAIR_BYTES, sc.radio)
    beacon_start = {
        (ev.sender, ev.frame): ev.t
        for ev in trace.packet_events
        if ev.event == "tx" and ev.kind == "beacon"
    }
    assert len(refs) > 100
    for ref, tick in refs:
        frame, rest = divmod(tick, sc.schedule.frame_ticks)
        parent = rest // sc.schedule.ticks_per_slot
        end = beacon_start[parent, frame] + t_bcn
        assert abs(ref - (end - t_bcn - sc.timing.beacon_tx_offset)) <= 1e-9, (parent, frame)


def _assert_syncs_every_edge(trace) -> None:
    assert trace.final_modes == {i: "synchronized" for i in range(4)}
    for child, parent in trace.parents.items():
        errs = measure_sync_error(trace, parent, child)
        assert errs
        assert max(abs(e) for e in errs) <= 30.6e-6


def test_delivery_remembers_transmissions_a_long_packet_overlaps():
    # SF12 at coding rate 4/8: a 64-byte packet lasts 4.07 s, an ack 0.93 s.
    # Node 1 hears 0 and 2 but not 3. B ends, and is delivered, more than
    # 2 s after A ends and before C does; C overlapped A, so node 1 must
    # still lose C to the collision.
    doc = _sf_doc("line4", 12, ticks_per_slot=180000, ldro=True)
    doc["radio"]["coding_rate_denominator"] = 8
    sim = Simulator(parse_scenario(doc))
    sim.nodes[1].listen_from = 0.0

    def send(sender, kind, payload, start):
        """Put a packet on the air from a sender that is not listening; return its end."""
        pkt = MacPacket(kind, 1, sender, 1, sender, 0, payload)
        sim._transmit(sim.nodes[sender], pkt, start, 0, 5)
        return start + sim._toa(pkt.onair_bytes)

    a_end = send(0, PacketKind.ACK, b"", 0.0)
    c_end = send(2, PacketKind.UP_DATA, bytes(MAX_DATA_PAYLOAD_BYTES), a_end - 0.1)
    b_end = send(3, PacketKind.ACK, b"", a_end + 2.1)
    assert b_end < c_end
    _drain(sim)  # the ends of A, B and C, in that order
    at_1 = {ev.sender: ev.event for ev in sim.packet_events if ev.node == 1 and ev.event != "tx"}
    assert at_1 == {0: "lost_collision", 2: "lost_collision"}
