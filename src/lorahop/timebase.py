"""Drifting per-node clocks and beacon guard sizing.

Each node timestamps with a crystal-driven tick counter (32.768 kHz by
default). A constant frequency error in ppm stretches or shrinks every
tick by the same amount, so local time is an affine map of the tick
count. Resynchronization re-anchors that map on a received beacon; the
grid phase is kept (the crystal never stops), so the residual alignment
error is the sub-tick wait for the next counter edge, always less than
one local tick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

DEFAULT_TICK_RATE_HZ = 32768

#: Largest crystal frequency error, either way, that the clock model takes.
MAX_DRIFT_PPM = 500.0
#: Largest drift of one such crystal against another: each at the bound, opposite ways.
MAX_RELATIVE_DRIFT_PPM = 2 * MAX_DRIFT_PPM

#: Snap tolerance, in ticks, when locating the next tick edge. Protects
#: instants that are mathematically on an edge from float rounding noise
#: (sub-picosecond at hour-long runs); far below any physical effect in
#: the model (1e-6 tick = ~30 picoseconds).
_EDGE_SNAP_TICKS = 1e-6


class _VirtualClockFields(NamedTuple):
    tick_rate_hz: int = DEFAULT_TICK_RATE_HZ
    drift_ppm: float = 0.0
    anchor_tick: int = 0
    epoch_global: float = 0.0


class VirtualClock(_VirtualClockFields):
    """Affine map from a node's tick counter to global simulation time.

    ``anchor_tick`` is a counter value whose global instant
    ``epoch_global`` is known (from the last resync, or the scenario
    start). ``drift_ppm`` is the constant crystal frequency error:
    positive runs slow (each local tick is longer than nominal).

    An immutable named tuple, validated on construction. ``_replace`` and
    ``_make`` would skip the checks, so new clocks go through the
    constructor.
    """

    __slots__ = ()

    def __new__(
        cls,
        tick_rate_hz: int = DEFAULT_TICK_RATE_HZ,
        drift_ppm: float = 0.0,
        anchor_tick: int = 0,
        epoch_global: float = 0.0,
    ) -> VirtualClock:
        if not (tick_rate_hz > 0 and -MAX_DRIFT_PPM <= drift_ppm <= MAX_DRIFT_PPM):
            if tick_rate_hz <= 0:
                raise ValueError("tick rate must be positive")
            raise ValueError(f"drift of {drift_ppm} ppm outside the +/-{MAX_DRIFT_PPM:g} ppm model range")
        return tuple.__new__(cls, (tick_rate_hz, drift_ppm, anchor_tick, epoch_global))


#: Beacon-miss policy: each missed beacon multiplies the effective guard by
#: GUARD_WIDEN_FACTOR (up to one slot); MAX_BEACON_MISSES consecutive misses
#: declare the node desynchronized.
GUARD_WIDEN_FACTOR = 2.0
MAX_BEACON_MISSES = 4


@dataclass(frozen=True)
class GuardConfig:
    """Beacon listening guard policy.

    ``base_guard`` is the full guard time T_g in seconds (the receive
    window opens T_g/2 early and stays T_g/2 late).
    """

    base_guard: float = 0.010

    def __post_init__(self) -> None:
        if self.base_guard <= 0:
            raise ValueError("guard time must be positive")


def local_tick_duration(clock: VirtualClock) -> float:
    """Length of one of this node's ticks in global seconds."""
    return (1.0 / clock.tick_rate_hz) * (1.0 + clock.drift_ppm * 1e-6)


def ticks_to_global(clock: VirtualClock, tick: int) -> float:
    """Global instant at which the node's counter reaches ``tick``.

    Only defined from the anchor onward; the affine map is not valid
    across a resync boundary in the past.
    """
    if tick < clock.anchor_tick:
        raise ValueError(f"tick {tick} precedes the clock anchor {clock.anchor_tick}")
    return clock.epoch_global + (tick - clock.anchor_tick) * local_tick_duration(clock)


def next_tick_edge(clock: VirtualClock, t_global: float) -> float:
    """Global instant of the first tick edge at or after ``t_global``.

    The edge grid extends the anchored map in both directions (the
    crystal was already running before the anchor).
    """
    dt = local_tick_duration(clock)
    n = math.ceil((t_global - clock.epoch_global) / dt - _EDGE_SNAP_TICKS)
    return clock.epoch_global + n * dt


def resync(clock: VirtualClock, beacon_ref_global: float, expected_local_tick: int) -> VirtualClock:
    """Re-anchor the clock on a decoded beacon.

    ``beacon_ref_global`` is the slot-start reference the receiver
    reconstructs from the decode instant (decode end minus beacon
    airtime minus the intra-slot transmit offset). The counter cannot
    restart mid-tick, so ``expected_local_tick`` is pinned to the first
    edge of the existing grid at or after the reference; the leftover is
    the quantization residual, in [0, one local tick).
    """
    edge = next_tick_edge(clock, beacon_ref_global)
    return VirtualClock(clock.tick_rate_hz, clock.drift_ppm, expected_local_tick, edge)


def check_relative_drift(relative_drift_ppm: float) -> None:
    """Refuse a relative drift that is negative, since it is a magnitude,
    or above ``MAX_RELATIVE_DRIFT_PPM``."""
    if relative_drift_ppm < 0:
        raise ValueError("relative drift is a magnitude, cannot be negative")
    if relative_drift_ppm > MAX_RELATIVE_DRIFT_PPM:
        raise ValueError(
            f"relative drift of {relative_drift_ppm:g} ppm is above {MAX_RELATIVE_DRIFT_PPM:g} ppm, "
            f"the most two crystals within +/-{MAX_DRIFT_PPM:g} ppm differ by"
        )


def min_guard(relative_drift_ppm: float, frame_seconds: float) -> float:
    """Smallest guard time T_g that keeps a beacon inside the window.

    Between two resyncs a child's frame-start estimate slides by at most
    (relative drift) * T_F against its parent, and the window must cover
    that slide on either side: T_g / 2 >= drift * T_F.
    """
    check_relative_drift(relative_drift_ppm)
    if frame_seconds <= 0:
        raise ValueError("frame time must be positive")
    return 2.0 * relative_drift_ppm * 1e-6 * frame_seconds
