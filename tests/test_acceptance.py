"""End-to-end acceptance gate.

Nine numbered criteria cover the analytical layer (airtimes, frame
timing, dimensioning equations) and the executable model (sync error,
duty cycle, power, guard-time and capacity properties, determinism).
Each test prints one criterion line so a full run reads as a checklist.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from lorahop import (
    PowerProfile,
    app_period,
    duty_cycle_estimate,
    load_scenario,
    lorawan_time_on_air,
    mean_power,
    measure_avg_power,
    measure_duty_cycle,
    measure_sync_error,
    min_guard,
    run,
    time_on_air,
    write_trace_csvs,
)
from lorahop.scenario import parse_scenario

from conftest import record_criterion

REPO = Path(__file__).resolve().parent.parent
T_SLOT = 21281 / 32768
T_FRAME = 90 * T_SLOT
TICK = 1.0 / 32768
MS = 1e-3


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line)
    record_criterion(line)
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_1_airtime_goldens():
    cases = [
        (time_on_air(3), 103.424, 103.4),
        (time_on_air(29), 226.304, 226.3),
        (lorawan_time_on_air(24), 267.264, 267.26),
    ]
    ok = all(
        abs(got - exact * MS) < 1e-9 and abs(got - published * MS) <= 0.05 * MS
        for got, exact, published in cases
    )
    detail = ", ".join(f"{got / MS:.3f} ms" for got, _, _ in cases)
    _report(1, "airtime goldens", ok, detail)


def test_criterion_2_frame_timing():
    t = load_scenario(REPO / "scenarios" / "star4.json").frame_seconds
    ok = abs(t - 58.5) < 0.1
    _report(2, "frame timing", ok, f"T_F = {t:.6f} s, |T_F - 58.5| = {abs(t - 58.5):.6f}")


def test_criterion_3_sync_error_bound():
    t0 = time.perf_counter()
    star = run(load_scenario(REPO / "scenarios" / "star4.json"))
    line = run(load_scenario(REPO / "scenarios" / "line4.json"))
    wall = time.perf_counter() - t0

    # The single-hop bound covers every parent-child edge of the tree;
    # deeper relay-to-node views accumulate one residual per hop and get
    # their own multi-hop bound below.
    worst = 0.0
    ok = True
    for trace in (star, line):
        for child, parent in trace.parents.items():
            errs = measure_sync_error(trace, parent, child)
            ok = ok and bool(errs)
            worst = max(worst, max(abs(e) for e in errs))
    ok = ok and worst <= 30.6e-6

    per_hop = [max(abs(e) for e in measure_sync_error(line, 0, c)) for c in (1, 2, 3)]
    ok = ok and per_hop == sorted(per_hop) and per_hop[-1] <= 3 * TICK
    ok = ok and wall < 10.0
    _report(
        3,
        "sync error bound",
        ok,
        f"max |eps| = {worst * 1e6:.3f} us, line per-hop us = "
        f"{[round(e * 1e6, 3) for e in per_hop]}, wall = {wall:.2f} s",
    )


def _star_doc(m0: int, frames: int, **extra) -> dict:
    doc = {
        "schema_version": 1,
        "name": f"star_m{m0}",
        "frames": frames,
        "seed": 21,
        "k": 4,
        "app_payload_bytes": 24,
        "schedule": {
            "max_nodes": m0 + 1,
            "slots_per_frame": 90,
            "ticks_per_slot": 21281,
            "tick_rate_hz": 32768,
        },
        "nodes": [{"id": 0, "relay": True}] + [{"id": i} for i in range(1, m0 + 1)],
        "links": [{"from": 0, "to": i} for i in range(1, m0 + 1)],
    }
    doc.update(extra)
    return doc


def test_criterion_4_duty_cycle_model():
    t0 = time.perf_counter()
    t_app = 4 * T_FRAME
    t_ack, t_bcn = time_on_air(2), time_on_air(3)
    t_lw = lorawan_time_on_air(24)

    worst_rel = 0.0
    measured = []
    for m0 in (1, 2, 3):
        trace = run(parse_scenario(_star_doc(m0, frames=32)))
        est = duty_cycle_estimate(m0, 4, 1, t_app, t_ack, t_lw, t_bcn)
        windows = [
            measure_duty_cycle(trace, 0, t_app, start_s=(8 + 4 * w) * T_FRAME)
            for w in range(5)
        ]
        meas = sum(windows) / len(windows)
        measured.append(meas)
        worst_rel = max(worst_rel, abs(meas - est) / est)
    ok = worst_rel <= 0.02

    # Affine in m_0: least-squares line through the three points.
    xs = [1.0, 2.0, 3.0]
    xm, ym = sum(xs) / 3, sum(measured) / 3
    slope = sum((x - xm) * (y - ym) for x, y in zip(xs, measured)) / sum(
        (x - xm) ** 2 for x in xs
    )
    intercept = ym - slope * xm
    resid = max(abs(y - (intercept + slope * x)) for x, y in zip(xs, measured))
    ok = ok and resid < 0.01 * slope

    wall = time.perf_counter() - t0
    ok = ok and wall < 30.0
    _report(
        4,
        "duty cycle vs model",
        ok,
        f"max rel err = {worst_rel * 100:.3f} %, fit residual = "
        f"{resid / slope * 100 if slope else float('inf'):.4f} % of slope, wall = {wall:.2f} s",
    )


def _power_doc(profile: dict) -> dict:
    g = min_guard(10.0, T_FRAME)
    return {
        "schema_version": 1,
        "name": "power_pair",
        "frames": 64,
        "seed": 3,
        "k": 4,
        "app_payload_bytes": 0,
        "schedule": {
            "max_nodes": 2,
            "slots_per_frame": 90,
            "ticks_per_slot": 21281,
            "tick_rate_hz": 32768,
        },
        "guard": {"base_guard": g},
        "join": {"listen_until_frame": 2},
        "nodes": [{"id": 0, "relay": True, "drift_ppm": 0.0}, {"id": 1, "drift_ppm": 10.0}],
        "links": [{"from": 0, "to": 1}],
        "power": profile,
    }


def test_criterion_5_power_model():
    variants = {
        "app": {"p_sleep": 1e-5, "p_rx": 0.036, "p_tx": 0.120, "p_app": 0.030, "tau_app": 1.0},
        "no-app": {"p_sleep": 1e-5, "p_rx": 0.036, "p_tx": 0.120},
    }
    rel = {}
    for label, prof_d in variants.items():
        trace = run(parse_scenario(_power_doc(prof_d)))
        prof = PowerProfile(**prof_d)
        sim = measure_avg_power(trace, 1, prof, start_s=8 * T_FRAME, end_s=60 * T_FRAME)
        ref = mean_power(prof, time_on_air(3), T_SLOT, 90, 4, 10.0)
        rel[label] = abs(sim - ref) / ref
    ok = all(r < 0.05 for r in rel.values())
    _report(
        5,
        "power model",
        ok,
        ", ".join(f"{label}: rel err {r * 100:.3f} %" for label, r in rel.items()),
    )


def _guard_doc(guard: float, frames: int) -> dict:
    return {
        "schema_version": 1,
        "name": "guard_run",
        "frames": frames,
        "seed": 11,
        "k": 4,
        "app_payload_bytes": 0,
        "schedule": {
            "max_nodes": 2,
            "slots_per_frame": 90,
            "ticks_per_slot": 21281,
            "tick_rate_hz": 32768,
        },
        "guard": {"base_guard": guard},
        "nodes": [{"id": 0, "relay": True, "drift_ppm": 0.0}, {"id": 1, "drift_ppm": 20.0}],
        "links": [{"from": 0, "to": 1}],
    }


def _event_frame(detail: str) -> int:
    return int(detail.split()[0].split("=", 1)[1])


def test_criterion_6_guard_time_property():
    d_r = 20e-6
    needed = min_guard(20.0, T_FRAME)

    # Too small a guard: the window must lose the beacon quickly.
    small = 0.001
    assert small < needed
    trace = run(parse_scenario(_guard_doc(small, frames=50)))
    ev = [e for e in trace.protocol_events if e.node == 1]
    sync_frames = [_event_frame(e.detail) for e in ev if e.event == "synchronized"]
    miss_frames = [_event_frame(e.detail) for e in ev if e.event == "beacon_miss"]
    desyncs = [e for e in ev if e.event == "desynchronized"]
    bound = math.ceil((small / 2) / (d_r * T_FRAME)) + 1
    ok = bool(sync_frames) and bool(miss_frames) and bool(desyncs)
    first_gap = miss_frames[0] - sync_frames[0] if ok else -1
    ok = ok and 0 < first_gap <= bound
    # The miss policy must recover: a later synchronized event after the
    # first desynchronization.
    desync_t = desyncs[0].t if desyncs else 0.0
    rejoined = any(e.event == "synchronized" and e.t > desync_t for e in ev)
    ok = ok and rejoined

    # A sufficient guard: zero misses over 200 frames.
    trace2 = run(parse_scenario(_guard_doc(needed, frames=200)))
    misses2 = [e for e in trace2.protocol_events if e.node == 1 and e.event == "beacon_miss"]
    ok = ok and not misses2 and trace2.final_modes[1] == "synchronized"
    _report(
        6,
        "guard time property",
        ok,
        f"small guard: first miss after {first_gap} frame(s) (bound {bound}), "
        f"desync+rejoin = {rejoined}; min guard: {len(misses2)} misses in 200 frames",
    )


def _capacity_doc(n: int, frames: int) -> dict:
    m = n - 1
    return {
        "schema_version": 1,
        "name": f"cap_n{n}",
        "frames": frames,
        "seed": 13,
        "k": 4,
        "app_payload_bytes": 24,
        "schedule": {
            "max_nodes": n,
            "slots_per_frame": 3 * n + 2,
            "ticks_per_slot": 21281,
            "tick_rate_hz": 32768,
        },
        "nodes": [{"id": 0, "relay": True}] + [{"id": i} for i in range(1, m + 1)],
        "links": [{"from": 0, "to": i} for i in range(1, m + 1)],
    }


def _relay_backlog(trace) -> dict[int, int]:
    # The relay's uplink queue is its outbound queue toward the gateway,
    # sampled per frame.
    return {
        s.frame: s.uplink_depth for s in trace.queue_samples if s.node == 0
    }


def _last_join_frame(trace) -> int:
    return max(
        _event_frame(e.detail) for e in trace.protocol_events if e.event == "synchronized"
    )


def test_criterion_7_capacity_property():
    # n = 5 > k = 4: one more arrival than departure per app period.
    over = run(parse_scenario(_capacity_doc(5, frames=50)))
    depth = _relay_backlog(over)
    # Within a period the backlog is flat by construction, so compare
    # period-aligned samples (stride k) once the tree is formed and
    # every node has sampled once.
    start = _last_join_frame(over) + 4
    aligned = [depth[f] for f in range(start, 50, 4)]
    strictly_up = len(aligned) >= 5 and all(b > a for a, b in zip(aligned, aligned[1:]))

    stable = run(parse_scenario(_capacity_doc(4, frames=50)))
    depth4 = _relay_backlog(stable)
    peak = max(depth4.values())
    ok = strictly_up and peak <= 4
    _report(
        7,
        "capacity property",
        ok,
        f"n=5 backlog {aligned[0]} -> {aligned[-1]} strictly increasing = {strictly_up}; "
        f"n=4 peak = {peak} <= 4",
    )


@settings(max_examples=60, deadline=None)
@given(
    p_sleep=st.floats(0.0, 5e-3),
    p_rx=st.floats(1e-3, 0.5),
    p_tx=st.floats(1e-3, 0.5),
    p_app=st.floats(0.0, 0.1),
    tau_app=st.floats(0.0, 5.0),
    drift=st.floats(0.0, 50.0),
    n=st.integers(2, 10),
)
def _k_optimality(p_sleep, p_rx, p_tx, p_app, tau_app, drift, n):
    if p_rx < p_sleep or p_tx < p_sleep:
        return  # not a physical profile
    if p_rx + p_tx <= 2 * p_sleep + 1e-6:
        return  # outside the claimed regime
    prof = PowerProfile(p_sleep=p_sleep, p_rx=p_rx, p_tx=p_tx, p_app=p_app, tau_app=tau_app)
    total = 2520  # divisible by every k in 1..10
    feasible = [k for k in range(n, 11) if total % k == 0]
    best = min(feasible, key=lambda k: mean_power(prof, 0.103424, T_SLOT, total // k, k, drift))
    assert best == n


def test_criterion_8_kn_invariance_and_k_optimality():
    periods = [app_period(k, n_slots, T_SLOT) for k, n_slots in ((1, 360), (2, 180), (4, 90))]
    invariant = periods[0] == periods[1] == periods[2]

    optimal = True
    try:
        _k_optimality()
    except AssertionError:
        optimal = False
    ok = invariant and optimal
    _report(
        8,
        "kN invariance and k-optimality",
        ok,
        f"T_app set = {{{periods[0]:.6f}}} s across (k,N) pairs, "
        f"mean_power argmin at k=n over randomized profiles = {optimal}",
    )


def test_criterion_9_determinism(tmp_path):
    mismatches = []
    for name in ("star4", "line4"):
        dirs = []
        for tag in ("a", "b"):
            sc = load_scenario(REPO / "scenarios" / f"{name}.json")
            out = tmp_path / name / tag
            write_trace_csvs(run(sc), out)
            dirs.append(out)
        for f in sorted(dirs[0].iterdir()):
            if f.read_bytes() != (dirs[1] / f.name).read_bytes():
                mismatches.append(f"{name}/{f.name}")
    ok = not mismatches
    _report(
        9,
        "determinism",
        ok,
        "all CSVs byte-identical across reruns" if ok else f"differs: {mismatches}",
    )
