"""Drifting tick-quantized clock behavior."""

from __future__ import annotations

import pytest

from lorahop import (
    GuardConfig,
    VirtualClock,
    local_tick_duration,
    min_guard,
    resync,
    ticks_to_global,
)
from lorahop.timebase import MAX_RELATIVE_DRIFT_PPM, next_tick_edge

NOMINAL_TICK = 1.0 / 32768  # 30.517578125 us exactly in binary float


def test_nominal_tick_duration():
    assert local_tick_duration(VirtualClock()) == NOMINAL_TICK
    assert NOMINAL_TICK == pytest.approx(30.517578125e-6, abs=0.0)


def test_drift_scales_tick():
    fast = VirtualClock(drift_ppm=-20.0)
    slow = VirtualClock(drift_ppm=20.0)
    assert local_tick_duration(slow) == NOMINAL_TICK * (1.0 + 20e-6)
    assert local_tick_duration(fast) == NOMINAL_TICK * (1.0 - 20e-6)


def test_ticks_to_global_affine():
    c = VirtualClock(drift_ppm=10.0, anchor_tick=100, epoch_global=5.0)
    dt = local_tick_duration(c)
    assert ticks_to_global(c, 100) == 5.0
    assert ticks_to_global(c, 101) == pytest.approx(5.0 + dt, abs=0.0)
    assert ticks_to_global(c, 100 + 32768) == pytest.approx(5.0 + 32768 * dt)


def test_clock_is_immutable():
    c = resync(VirtualClock(drift_ppm=10.0), 1.0, 32768)
    with pytest.raises(AttributeError):
        c.epoch_global = 0.0
    assert c == VirtualClock(32768, 10.0, 32768, c.epoch_global)


def test_ticks_before_anchor_rejected():
    c = VirtualClock(anchor_tick=100)
    with pytest.raises(ValueError):
        ticks_to_global(c, 99)


def test_drift_per_frame_magnitude():
    # One 58.45 s frame at 20 ppm slides ~1.17 ms, the scale the guard
    # time must absorb.
    frame_ticks = 90 * 21281
    nominal = ticks_to_global(VirtualClock(), frame_ticks)
    drifted = ticks_to_global(VirtualClock(drift_ppm=20.0), frame_ticks)
    assert drifted - nominal == pytest.approx(20e-6 * nominal, rel=1e-12)


def test_next_tick_edge_on_grid():
    c = VirtualClock(drift_ppm=10.0, epoch_global=2.0)
    dt = local_tick_duration(c)
    # Exactly on an edge stays put; just past it moves one tick on.
    assert next_tick_edge(c, 2.0 + 5 * dt) == pytest.approx(2.0 + 5 * dt, abs=1e-15)
    assert next_tick_edge(c, 2.0 + 5.3 * dt) == pytest.approx(2.0 + 6 * dt, abs=1e-15)


def test_next_tick_edge_extends_before_anchor():
    c = VirtualClock(epoch_global=10.0)
    dt = local_tick_duration(c)
    assert next_tick_edge(c, 10.0 - 2.5 * dt) == pytest.approx(10.0 - 2 * dt, abs=1e-15)


def test_resync_residual_bounds():
    c = VirtualClock(drift_ppm=10.0, anchor_tick=0, epoch_global=0.0)
    dt = local_tick_duration(c)
    for ref in (1.234567, 60.0, 3601.5, 7200.0 + 0.4 * dt):
        c2 = resync(c, ref, expected_local_tick=123456)
        r = c2.epoch_global - ref
        # The counter restarts on the next edge of the old grid.
        assert 0.0 <= r < dt + 1e-12
        assert c2.anchor_tick == 123456
        assert c2.drift_ppm == c.drift_ppm


def test_resync_then_extrapolate():
    # After a resync, extrapolating one frame lands within one local
    # tick plus the accumulated drift of the anchor-to-anchor gap.
    frame_ticks = 90 * 21281
    c = resync(VirtualClock(drift_ppm=20.0), 100.003, expected_local_tick=frame_ticks)
    t_next = ticks_to_global(c, 2 * frame_ticks)
    nominal_frame = frame_ticks / 32768
    slide = t_next - (100.003 + nominal_frame)
    assert 0.0 <= slide < 20e-6 * nominal_frame + local_tick_duration(c)


def test_min_guard_values():
    t_frame = 90 * 21281 / 32768
    assert min_guard(10.0, t_frame) == pytest.approx(2 * 10e-6 * t_frame, rel=1e-12)
    assert min_guard(20.0, t_frame) == pytest.approx(0.00233800048828125, rel=1e-12)
    assert min_guard(40.0, t_frame) == pytest.approx(4.676e-3, rel=1e-4)


def test_min_guard_validation():
    with pytest.raises(ValueError):
        min_guard(-1.0, 58.45)
    with pytest.raises(ValueError):
        min_guard(10.0, 0.0)


def test_min_guard_takes_at_most_two_crystals_at_the_clock_bound():
    assert min_guard(MAX_RELATIVE_DRIFT_PPM, 10.0) == pytest.approx(2 * 1000e-6 * 10.0, rel=1e-12)
    with pytest.raises(ValueError, match="^relative drift of 1000.5 ppm is above 1000 ppm"):
        min_guard(1000.5, 10.0)


def test_clock_validation():
    with pytest.raises(ValueError):
        VirtualClock(tick_rate_hz=0)
    with pytest.raises(ValueError):
        VirtualClock(drift_ppm=501.0)


def test_guard_config_validation():
    GuardConfig(base_guard=0.01)
    with pytest.raises(ValueError):
        GuardConfig(base_guard=0.0)
