"""Analytical dimensioning of a TDMA multi-hop LoRa network.

Closed-form relations between the frame layout (N slots, beacon period
k), the application period, per-node duty cycle, and mean power draw.
These are the planning-time counterparts of what the simulator measures;
`tests` assert the two agree.

Conventions: ``m_i`` is the number of descendants whose traffic node i
relays (0 for a leaf, n-1 for the relay root). The relay's own data
transmission is the LoRaWAN uplink, so its data airtime argument should
be the LoRaWAN one; every other node uses the in-network data airtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .timebase import check_relative_drift


class PlanError(Exception):
    """A requested plan violates a hard constraint.

    ``constraint`` names the binding one: "capacity" (Eq. n <= k),
    "duty-cycle", "period" (T_app short of a frame, or n * T_SL or
    k * N * T_SL past the float range), or "slot" (a slot too short for
    the slot anatomy).
    """

    def __init__(self, constraint: str, message: str) -> None:
        super().__init__(message)
        self.constraint = constraint


# The largest draw of any state, in watts. A LoRa radio draws under 0.5 W
# at its +20 dBm maximum (SX1276: 120 mA at 3.3 V), and a battery sensor's
# application load is of the same order; 10 W holds both with room to
# spare, and keeps every energy and mean power the models report finite.
MAX_DRAW_W = 10.0


@dataclass(frozen=True)
class PowerProfile:
    """Device power draw per radio/application state, in watts.

    ``p_app`` is the draw while the sensing application runs, for
    ``tau_app`` seconds per application period; both models add
    ``p_app - p_sleep`` over that time, so a ``p_app`` below ``p_sleep``
    lowers the mean. No draw is negative or above ``MAX_DRAW_W``. Each
    refusal names the field first.
    """

    p_sleep: float
    p_rx: float
    p_tx: float
    p_app: float = 0.0
    tau_app: float = 0.0

    def __post_init__(self) -> None:
        for name in ("p_sleep", "p_rx", "p_tx", "p_app"):
            draw = getattr(self, name)
            if draw > MAX_DRAW_W:
                raise ValueError(
                    f"{name}: {draw:g} W is above the {MAX_DRAW_W:g} W a LoRa sensor node draws at most"
                )
        if self.p_sleep < 0:
            raise ValueError("p_sleep: sleep power cannot be negative")
        if self.p_rx < self.p_sleep:
            raise ValueError("p_rx: receive power below sleep power")
        if self.p_tx < self.p_sleep:
            raise ValueError("p_tx: transmit power below sleep power")
        if self.p_app < 0:
            raise ValueError("p_app: application power cannot be negative")
        if self.tau_app < 0:
            raise ValueError("tau_app: application run time cannot be negative")

    def check_period(self, k: int, frame_seconds: float) -> None:
        """Refuse an application run longer than its sampling period, one
        sample every ``k`` frames of ``frame_seconds``: the next sample
        would start while the last run goes on. Named by field, as above."""
        if self.tau_app / frame_seconds > k:  # no k * T_F, which may pass the float range
            raise ValueError(
                f"tau_app: the application runs {self.tau_app} s, longer than its sampling "
                f"period k * T_F = {k * frame_seconds:.6f} s, so the next sample starts "
                f"while the last run goes on"
            )


def app_period(k: int, slots_per_frame: int, slot_seconds: float) -> float:
    """Application period T_app = k * N * T_SL.

    Every node gets one uplink opportunity per frame and samples every
    k-th frame, so only the product k*N matters for the period.
    """
    if k < 1 or slots_per_frame < 1:
        raise ValueError("k and N must be at least 1")
    if slot_seconds <= 0:
        raise ValueError("slot time must be positive")
    return k * slots_per_frame * slot_seconds


def mean_power(
    profile: PowerProfile,
    t_beacon: float,
    slot_seconds: float,
    slots_per_frame: int,
    k: int,
    relative_drift_ppm: float,
) -> float:
    """Predicted mean power of a synchronized non-relay node.

    Sleep baseline, plus one beacon received and one transmitted per
    frame, plus the guard listening margin (the window must absorb a
    relative clock slide of up to drift * T_F on each side), plus the
    application burst once per k frames:

        P = P_s
          + (P_Rx + P_Tx - 2 P_s) * T_bcn / (N * T_SL)
          + (P_Rx - P_s) * 2 * drift
          + (P_app - P_s) * tau_app / (k * N * T_SL)
    """
    if t_beacon <= 0 or slot_seconds <= 0:
        raise ValueError("durations must be positive")
    check_relative_drift(relative_drift_ppm)
    if slots_per_frame < 1 or k < 1:
        raise ValueError("k and N must be at least 1")
    frame = slots_per_frame * slot_seconds
    drift = relative_drift_ppm * 1e-6
    p = profile.p_sleep
    p += (profile.p_rx + profile.p_tx - 2.0 * profile.p_sleep) * t_beacon / frame
    p += (profile.p_rx - profile.p_sleep) * 2.0 * drift
    p += (profile.p_app - profile.p_sleep) * profile.tau_app / (k * frame)
    return p


def check_capacity(n: int, k: int) -> bool:
    """Each node needs one beacon slot group per application period: n <= k."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be at least 1")
    return n <= k


def duty_cycle_estimate(
    m_i: int,
    k: int,
    c: int,
    t_app: float,
    t_ack: float,
    t_data: float,
    t_bcn: float,
) -> float:
    """Transmit duty cycle of a node relaying m_i descendants.

    Per application period the node sends m_i acks, its own plus m_i
    forwarded data packets, and k beacons, spread over c channels:

        D = (m_i * T_ack + (1 + m_i) * T_data + k * T_bcn) / (T_app * c)
    """
    if m_i < 0:
        raise ValueError("descendant count cannot be negative")
    if c < 1:
        raise ValueError("need at least one channel")
    if t_app <= 0:
        raise ValueError("application period must be positive")
    return (m_i * t_ack + (1 + m_i) * t_data + k * t_bcn) / (t_app * c)


def min_app_period(
    m_i: int,
    k: int,
    c: int,
    duty_limit: float,
    t_ack: float,
    t_data: float,
    t_bcn: float,
) -> float:
    """Shortest application period a node can sustain under the duty-cycle
    limit: the duty-cycle formula rearranged around the limit. The capacity
    rule n <= k is ``check_capacity``'s, and ``recommend_frame`` holds a
    plan to it.
    """
    if not 0 < duty_limit <= 1:
        raise ValueError("duty limit must be in (0, 1]")
    airtime = m_i * t_ack + (1 + m_i) * t_data + k * t_bcn
    return airtime / (duty_limit * c)


def recommend_frame(
    t_app_target: float, n: int, slot_seconds: float, max_slots: int,
    k: int | None = None, slots: int | None = None,
) -> tuple[int, int]:
    """Pick (k, N) for a target application period and node count.

    T_app = k * N * T_SL. Given both, they stand; given one, the other
    is the target over it rounded half up, with an N set from k held to
    ``max_slots``. Given neither, N walks down from the largest the
    target admits at k = n (capped at ``max_slots``: energy falls with
    larger N at fixed k*N) until k reaches n. Refuses n > k as
    "capacity", and n * T_SL or k * N * T_SL past the float range as
    "period".
    """
    if min(n, max_slots, *(x for x in (k, slots) if x is not None)) < 1 or slot_seconds <= 0:
        raise ValueError("n, max_slots, k and N must be at least 1, the slot time positive")

    def half_up(x: int) -> int:  # the other factor of T_app = k * N * T_SL
        return math.floor(t_app_target / (x * slot_seconds) + 0.5)

    try:
        if k is None and slots is None:
            try:
                floor = n * slot_seconds
            except OverflowError:
                raise PlanError(
                    "period",
                    f"{n} nodes in slots of {slot_seconds:.6f} s put n * T_SL past the float range",
                ) from None
            if t_app_target < floor:
                raise PlanError(
                    "period",
                    f"target period {t_app_target:.3f} s cannot admit {n} node(s): "
                    f"needs at least n*T_SL = {floor:.3f} s",
                )
            start = min(max_slots, half_up(n))
            for slots in range(max(start, 1), 0, -1):  # at N = 1, k >= n
                if half_up(slots) >= n:
                    break
        elif slots is None:
            slots = half_up(k)
            if slots > max_slots:
                raise PlanError(
                    "capacity",
                    f"T_app = {t_app_target} s at k = {k} needs more than "
                    f"--max-slots = {max_slots} slots per frame",
                )
            if slots < 1:
                raise PlanError(
                    "period",
                    f"T_app = {t_app_target} s is shorter than "
                    f"k = {k} slots of {slot_seconds:.6f} s",
                )
        if k is None:  # N given alone, or chosen above with k >= n
            k = half_up(slots)
            if k < 1:
                raise PlanError(
                    "period",
                    f"T_app = {t_app_target} s rounds to k = 0 frames "
                    f"of N = {slots} slots of {slot_seconds:.6f} s",
                )
        if not check_capacity(n, k):
            raise PlanError(
                "capacity",
                f"n > k: {n} nodes cannot each deliver one packet "
                f"within k = {k} collection frames",
            )
        if not math.isfinite(app_period(k, slots, slot_seconds)):
            raise OverflowError
    except OverflowError:  # an infinite k, or a k * N or k * N * T_SL past the float range
        raise PlanError(
            "period",
            f"T_app = {t_app_target} s in slots of {slot_seconds:.6f} s "
            f"puts k * N * T_SL past the float range",
        ) from None
    return k, slots
