"""Dimensioning equations: duty cycle, mean power, frame recommendation."""

from __future__ import annotations

import math

import pytest

from lorahop import (
    PlanError,
    PowerProfile,
    app_period,
    check_capacity,
    duty_cycle_estimate,
    mean_power,
    min_app_period,
    recommend_frame,
)
from lorahop.planner import MAX_DRAW_W

T_SLOT = 21281 / 32768  # 0.649444580078125 s
T_BCN = 0.103424
T_ACK = 0.103424
T_DATA_HOP = 0.226304  # 24 B app payload + 5 B MAC header at SF9
T_DATA_LW = 0.267264  # 24 B + 12 B LoRaWAN overhead


def test_app_period_value():
    assert app_period(4, 90, T_SLOT) == pytest.approx(233.800048828125, abs=0.0)


def test_app_period_depends_only_on_product():
    assert app_period(1, 360, T_SLOT) == app_period(2, 180, T_SLOT) == app_period(4, 90, T_SLOT)


def test_app_period_validation():
    with pytest.raises(ValueError):
        app_period(0, 90, T_SLOT)
    with pytest.raises(ValueError):
        app_period(4, 90, 0.0)


T_APP = 4 * 90 * T_SLOT  # 233.800048828125 s


def test_duty_cycle_leaf():
    # Leaf with no descendants: one data packet plus k beacons per period.
    d = duty_cycle_estimate(0, 4, 1, T_APP, T_ACK, T_DATA_HOP, T_BCN)
    assert d == pytest.approx(0.0027373823781009403, rel=1e-5)
    assert d == pytest.approx((T_DATA_HOP + 4 * T_BCN) / T_APP, rel=1e-12)


def test_duty_cycle_relay_three_children():
    d = duty_cycle_estimate(3, 4, 1, T_APP, T_ACK, T_DATA_LW, T_BCN)
    assert d == pytest.approx(0.007669050470487595, rel=1e-5)
    assert d == pytest.approx((3 * T_ACK + 4 * T_DATA_LW + 4 * T_BCN) / T_APP, rel=1e-12)


def test_duty_cycle_channels_divide():
    one = duty_cycle_estimate(3, 4, 1, T_APP, T_ACK, T_DATA_LW, T_BCN)
    two = duty_cycle_estimate(3, 4, 2, T_APP, T_ACK, T_DATA_LW, T_BCN)
    assert two == pytest.approx(one / 2, rel=1e-12)


def test_duty_cycle_affine_in_descendants():
    ds = [duty_cycle_estimate(m, 4, 1, T_APP, T_ACK, T_DATA_LW, T_BCN) for m in (0, 1, 2, 3)]
    diffs = [b - a for a, b in zip(ds, ds[1:])]
    assert diffs[0] == pytest.approx(diffs[1], rel=1e-9)
    assert diffs[1] == pytest.approx(diffs[2], rel=1e-9)
    assert diffs[0] == pytest.approx((T_ACK + T_DATA_LW) / T_APP, rel=1e-12)


def test_duty_cycle_validation():
    with pytest.raises(ValueError):
        duty_cycle_estimate(-1, 4, 1, 233.8, T_ACK, T_DATA_LW, T_BCN)
    with pytest.raises(ValueError):
        duty_cycle_estimate(0, 4, 0, 233.8, T_ACK, T_DATA_LW, T_BCN)
    with pytest.raises(ValueError):
        duty_cycle_estimate(0, 4, 1, 0.0, T_ACK, T_DATA_LW, T_BCN)


def test_min_app_period_inverts_duty():
    # At exactly the returned period, the duty cycle equals the limit.
    t = min_app_period(3, 4, 1, 0.01, T_ACK, T_DATA_LW, T_BCN)
    assert t == pytest.approx(179.3024, rel=1e-12)
    assert duty_cycle_estimate(3, 4, 1, t, T_ACK, T_DATA_LW, T_BCN) == pytest.approx(0.01)
    with pytest.raises(ValueError):
        min_app_period(0, 1, 1, 0.0, T_ACK, T_DATA_HOP, T_BCN)


PROFILE = PowerProfile(p_sleep=1e-5, p_rx=0.036, p_tx=0.120, p_app=0.030, tau_app=1.0)


def test_mean_power_reference_profile():
    p = mean_power(PROFILE, T_BCN, T_SLOT, 90, 4, 10.0)
    assert p == pytest.approx(0.0004149893518652251, rel=1e-5)
    t_frame = 90 * T_SLOT
    expect = (
        PROFILE.p_sleep
        + (PROFILE.p_rx + PROFILE.p_tx - 2 * PROFILE.p_sleep) * T_BCN / t_frame
        + (PROFILE.p_rx - PROFILE.p_sleep) * 2 * 10e-6
        + (PROFILE.p_app - PROFILE.p_sleep) * PROFILE.tau_app / (4 * t_frame)
    )
    assert p == pytest.approx(expect, rel=1e-12)


def test_mean_power_zero_cost_app():
    prof = PowerProfile(p_sleep=1e-5, p_rx=0.036, p_tx=0.120)
    p = mean_power(prof, T_BCN, T_SLOT, 90, 4, 10.0)
    assert p == pytest.approx(0.0002867174342193035, rel=1e-5)


def test_mean_power_drift_term():
    lo = mean_power(PROFILE, T_BCN, T_SLOT, 90, 4, 0.0)
    hi = mean_power(PROFILE, T_BCN, T_SLOT, 90, 4, 10.0)
    assert hi - lo == pytest.approx((PROFILE.p_rx - PROFILE.p_sleep) * 2 * 10e-6, rel=1e-12)


def test_mean_power_takes_the_drift_as_a_magnitude():
    # A signed drift would predict less power than a perfect clock.
    with pytest.raises(ValueError, match="magnitude"):
        mean_power(PROFILE, T_BCN, T_SLOT, 90, 4, -10.0)


@pytest.mark.parametrize(
    "args, message",
    [
        ((0.0, T_SLOT, 90, 4, 10.0), "^durations must be positive$"),
        ((T_BCN, -T_SLOT, 90, 4, 10.0), "^durations must be positive$"),
        ((T_BCN, T_SLOT, 0, 4, 10.0), "^k and N must be at least 1$"),
        ((T_BCN, T_SLOT, 90, 0, 10.0), "^k and N must be at least 1$"),
    ],
    ids=["beacon_0", "slot_negative", "slots_0", "k_0"],
)
def test_mean_power_refusals(args, message):
    with pytest.raises(ValueError, match=message):
        mean_power(PROFILE, *args)


def test_mean_power_takes_at_most_two_crystals_at_the_clock_bound():
    mean_power(PROFILE, T_BCN, T_SLOT, 90, 4, 1000.0)
    with pytest.raises(ValueError, match="^relative drift of 1e\\+300 ppm is above 1000 ppm"):
        mean_power(PROFILE, T_BCN, T_SLOT, 90, 4, 1e300)


def test_check_capacity():
    assert check_capacity(4, 4)
    assert check_capacity(3, 4)
    assert not check_capacity(5, 4)
    with pytest.raises(ValueError):
        check_capacity(0, 4)


def test_recommend_frame_reference_deployment():
    # 234 s target with 4 nodes lands on the k=4, N=90 layout.
    assert recommend_frame(234.0, 4, T_SLOT, 90) == (4, 90)


def test_recommend_frame_prefers_large_n():
    # Doubling the slot budget halves k rather than shrinking the frame.
    assert recommend_frame(234.0, 2, T_SLOT, 180) == (2, 180)


def test_recommend_frame_capped_by_target():
    # Extra slot budget beyond the target period is left unused; the
    # realized period must not overshoot more than rounding requires.
    assert recommend_frame(234.0, 4, T_SLOT, 95) == (4, 90)


def test_recommend_frame_single_node():
    # One node, one frame per period: k stays at its floor of 1.
    assert recommend_frame(58.45, 1, T_SLOT, 90) == (1, 90)


def test_recommend_frame_rounding_fallback():
    # When rounding at the capped N leaves k < n, a shorter frame with a
    # proportionally larger k still meets the capacity constraint.
    k, slots = recommend_frame(1.51 * 4 * T_SLOT, 4, T_SLOT, 90)
    assert k >= 4
    assert slots == 1


def test_recommend_frame_infeasible():
    with pytest.raises(PlanError) as ei:
        recommend_frame(0.5, 4, T_SLOT, 90)
    assert ei.value.constraint == "period"


def _refusal(*args, **kw) -> str:
    """The constraint recommend_frame names when it refuses these arguments."""
    with pytest.raises(PlanError) as ei:
        recommend_frame(*args, **kw)
    return ei.value.constraint


def test_recommend_frame_neither_given_searches_down_from_the_target():
    assert recommend_frame(234.0, 4, T_SLOT, 90, k=None, slots=None) == (4, 90)
    assert recommend_frame(234.0, 4, T_SLOT, 14) == (26, 14)  # capped at max_slots
    assert _refusal(0.5, 4, T_SLOT, 90) == "period"  # below n * T_SL


def test_recommend_frame_k_alone_sets_n_held_to_max_slots():
    # 234 s at k = 26 rounds to N = 14; 2340 s at k = 4 to N = 901.
    assert recommend_frame(234.0, 4, T_SLOT, 90, k=26) == (26, 14)
    assert recommend_frame(2340.0, 4, T_SLOT, 901, k=4) == (4, 901)
    assert _refusal(2340.0, 4, T_SLOT, 900, k=4) == "capacity"
    assert _refusal(1e300, 4, T_SLOT, 90, k=4) == "capacity"
    assert _refusal(0.5, 4, T_SLOT, 90, k=4) == "period"  # rounds to N = 0
    assert _refusal(234.0, 5, T_SLOT, 90, k=4) == "capacity"  # n > k


def test_recommend_frame_n_alone_sets_k_and_is_not_held_to_max_slots():
    assert recommend_frame(234.0, 4, T_SLOT, 90, slots=14) == (26, 14)
    assert recommend_frame(2340.0, 4, T_SLOT, 90, slots=901) == (4, 901)
    assert _refusal(234.0, 4, T_SLOT, 90, slots=1000) == "period"  # rounds to k = 0
    assert _refusal(234.0, 5, T_SLOT, 90, slots=90) == "capacity"  # n > k


def test_recommend_frame_both_given_stand():
    assert recommend_frame(234.0, 4, T_SLOT, 90, k=26, slots=14) == (26, 14)
    assert recommend_frame(1.0, 4, T_SLOT, 90, k=4, slots=1000) == (4, 1000)
    assert _refusal(234.0, 5, T_SLOT, 90, k=4, slots=90) == "capacity"  # n > k


@pytest.mark.parametrize(
    "t_app, slot, kw",
    [
        (1.7e308, 0.24, {}),  # k * N past the float range
        (1.7e308, 0.24, {"slots": 90}),
        (1.7e308, 0.24, {"slots": 1}),  # k itself past it
        (1.0, 2.0, {"k": 10**300, "slots": 10**8}),  # k * N * T_SL past it
        (1.0, 2.0, {"k": 2**600, "slots": 2**600}),
    ],
    ids=["neither", "slots_90", "slots_1", "both_period", "both_k_times_n"],
)
def test_recommend_frame_refuses_a_period_past_the_float_range(t_app, slot, kw):
    with pytest.raises(PlanError, match="past the float range") as ei:
        recommend_frame(t_app, 4, slot, 90, **kw)
    assert ei.value.constraint == "period"


def test_recommend_frame_names_n_times_t_sl_past_the_float_range():
    # The n-node floor n * T_SL overflows before any k * N is formed.
    with pytest.raises(PlanError) as ei:
        recommend_frame(234.0, 10**400, T_SLOT, 90)
    assert ei.value.constraint == "period"
    assert str(ei.value) == f"{10**400} nodes in slots of 0.649445 s put n * T_SL past the float range"


@pytest.mark.parametrize(
    "args, kw",
    [
        ((234.0, 0, T_SLOT, 90), {}),
        ((234.0, 4, T_SLOT, 0), {}),
        ((234.0, 4, T_SLOT, 90), {"k": 0}),
        ((234.0, 4, T_SLOT, 90), {"slots": 0}),
        ((234.0, 4, 0.0, 90), {}),
    ],
    ids=["n_0", "max_slots_0", "k_0", "slots_0", "slot_0"],
)
def test_recommend_frame_refuses_an_argument_out_of_its_domain(args, kw):
    with pytest.raises(ValueError, match="at least 1, the slot time positive"):
        recommend_frame(*args, **kw)


def test_power_profile_validation():
    with pytest.raises(ValueError):
        PowerProfile(p_sleep=-1.0, p_rx=0.036, p_tx=0.120)


@pytest.mark.parametrize(
    "field, value",
    [("p_sleep", -1.0), ("p_rx", 1e-6), ("p_tx", 1e-6), ("p_app", -1e-3), ("tau_app", -1.0)],
)
def test_power_profile_refusal_names_the_field(field, value):
    kw = dict(p_sleep=1e-5, p_rx=0.036, p_tx=0.120, p_app=0.030, tau_app=1.0)
    with pytest.raises(ValueError, match=f"^{field}: "):
        PowerProfile(**{**kw, field: value})


@pytest.mark.parametrize("field", ["p_sleep", "p_rx", "p_tx", "p_app"])
def test_power_profile_holds_each_draw_to_its_physical_bound(field):
    # A draw may reach MAX_DRAW_W but not pass it; at 1e308 W the mean
    # power was inf or a 309-digit figure.
    kw = dict(p_sleep=1e-5, p_rx=0.036, p_tx=0.120, p_app=0.030, tau_app=1.0)
    PowerProfile(**{**kw, "p_rx": MAX_DRAW_W, "p_tx": MAX_DRAW_W, field: MAX_DRAW_W})
    for value in (math.nextafter(MAX_DRAW_W, math.inf), 1e308):
        refused = {**kw, "p_rx": MAX_DRAW_W, "p_tx": MAX_DRAW_W, field: value}
        with pytest.raises(ValueError, match=f"^{field}: .* W is above the 10 W a LoRa sensor node draws at most$"):
            PowerProfile(**refused)


def test_application_run_may_last_its_sampling_period_but_no_longer():
    # One sample every 4 frames of 0.5 s: a run of 2 s ends as the next starts.
    PowerProfile(p_sleep=0.0, p_rx=0.0, p_tx=0.0, tau_app=2.0).check_period(4, 0.5)
    longer = PowerProfile(p_sleep=0.0, p_rx=0.0, p_tx=0.0, tau_app=math.nextafter(2.0, 3.0))
    with pytest.raises(ValueError, match="^tau_app: .* the next sample starts while the last run goes on$"):
        longer.check_period(4, 0.5)
    longer.check_period(10**400, 0.5)  # a period past the float range holds any run
