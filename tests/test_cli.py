"""Command line behavior: output contracts and exit codes."""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import gc
import io
import json
import math
import re
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lorahop.cli
import lorahop.engine
from lorahop import GuardConfig, PowerProfile, RadioParams, Scenario, SlotTiming
from lorahop.cli import _radio_from_args, main
from lorahop.scenario import JoinConfig, ScenarioError, _schema, parse_scenario, read_scenario_doc
from lorahop.timebase import MAX_RELATIVE_DRIFT_PPM
from corpus import CORPUS, GENERATED

REPO = Path(__file__).resolve().parent.parent
STAR = str(REPO / "scenarios" / "star4.json")
LINE4 = str(REPO / "scenarios" / "line4.json")


def test_toa_goldens(capsys):
    assert main(["toa", "--payload", "3"]) == 0
    assert capsys.readouterr().out.strip() == "103.424 ms"
    assert main(["toa", "--payload", "29"]) == 0
    assert capsys.readouterr().out.strip() == "226.304 ms"
    assert main(["toa", "--payload", "24", "--lorawan"]) == 0
    assert capsys.readouterr().out.strip() == "267.264 ms"


def test_toa_radio_flags(capsys):
    assert main(["toa", "--payload", "36", "--sf", "7"]) == 0
    assert capsys.readouterr().out.strip() == "77.056 ms"


def test_plan_reference_deployment(capsys):
    assert main(["plan", "--nodes", "4", "--app-period", "234"]) == 0
    out = capsys.readouterr().out
    assert "network plan" in out
    assert "collection factor (k)  4" in out
    assert "slots per frame (N)    90" in out
    assert "0.767 %" in out  # relay duty with m_0 = 3


def test_plan_capacity_infeasible(capsys):
    rc = main(["plan", "--nodes", "5", "--app-period", "234", "--k", "4"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("infeasible: capacity: n > k")


def test_plan_refuses_a_schedule_simulate_rejects(capsys):
    # A JoinAccept carries each assigned slot in one byte, so simulate
    # refuses schedule.max_nodes above 85; the frame layout needs 3n+2 slots.
    assert main(["plan", "--nodes", "90", "--app-period", "100000", "--max-slots", "300"]) == 3
    assert capsys.readouterr().err.startswith("infeasible: capacity: schedule.max_nodes: 90 exceeds 85")
    assert main(["plan", "--nodes", "85", "--app-period", "100000", "--max-slots", "300"]) == 0
    capsys.readouterr()
    layout = ["plan", "--nodes", "5", "--app-period", "234", "--k", "5", "--duty-limit", "0.1"]
    assert main([*layout, "--slots", "16"]) == 3
    assert capsys.readouterr().err.startswith("infeasible: capacity: 16 slots cannot hold 5 nodes")
    assert main([*layout, "--slots", "17"]) == 0


def test_plan_duty_infeasible(capsys):
    rc = main(["plan", "--nodes", "4", "--app-period", "234", "--duty-limit", "0.005"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("infeasible: duty-cycle:")


def test_plan_refuses_a_slot_too_short_for_the_anatomy(capsys):
    # simulate rejects this slot at SF10; a slot sized for SF10 is planned.
    assert main(["plan", "--nodes", "4", "--app-period", "3600", "--sf", "10"]) == 3
    assert "infeasible: slot: slot anatomy needs 0.985216 s" in capsys.readouterr().err
    assert main(["plan", "--nodes", "4", "--app-period", "3600", "--sf", "10", "--ticks-per-slot", "36000"]) == 0


def _shortest_slot_ticks(timing: SlotTiming, tick_rate: int) -> int:
    """The fewest ticks per slot that ``timing`` accepts, by bisection."""

    def fits(ticks: int) -> bool:
        try:
            timing.validate_for(ticks / tick_rate)
        except ValueError:
            return False
        return True

    ticks = bisect.bisect_left(range(1 << 20), True, key=fits)
    assert fits(ticks)
    return ticks


@pytest.mark.parametrize("sf", range(6, 13))
def test_plan_and_simulate_accept_the_same_slots(sf, capsys):
    # SF6 has no explicit header, and symbols past 16 ms (SF11, SF12) need
    # low data rate optimization; the join slot is sized by the radio alone.
    radio = {"spreading_factor": sf}
    flags = ["--sf", str(sf)]
    if sf == 6:
        radio["explicit_header"] = False
        flags.append("--implicit-header")
    if sf >= 11:
        radio["low_data_rate_opt"] = True
        flags.append("--ldro")
    doc = read_scenario_doc(LINE4)
    assert "join" not in doc
    doc["radio"] = radio
    ticks = _shortest_slot_ticks(SlotTiming(RadioParams(**radio)), doc["schedule"]["tick_rate_hz"])
    doc["schedule"]["ticks_per_slot"] = ticks
    parse_scenario(doc)
    plan = ["plan", "--nodes", "4", "--app-period", "3600", "--duty-limit", "1", *flags]
    assert main([*plan, "--ticks-per-slot", str(ticks)]) == 0
    doc["schedule"]["ticks_per_slot"] = ticks - 1
    with pytest.raises(ScenarioError, match=r"^scenario\.schedule: (join )?slot anatomy needs "):
        parse_scenario(doc)
    capsys.readouterr()
    assert main([*plan, "--ticks-per-slot", str(ticks - 1)]) == 3
    assert capsys.readouterr().err.startswith("infeasible: slot: ")


_POWER_FLAGS = ["--p-sleep", "1e-5", "--p-rx", "0.036", "--p-tx", "0.120"]


@pytest.mark.parametrize(
    "flags, flag",
    [
        (["--tick-rate", "0"], "--tick-rate"),
        (["--tick-rate", "-5"], "--tick-rate"),
        (["--app-period", "2000", "--payload-bytes", "100"], "--payload-bytes"),
        (["--app-period", "2000", "--payload-bytes", "-1"], "--payload-bytes"),
        ([*_POWER_FLAGS, "--drift-ppm", "-10"], "--drift-ppm"),
        (["--ticks-per-slot", "0"], "--ticks-per-slot"),
        (["--channels", "0"], "--channels"),
        (["--k", "0"], "--k"),
        (["--nodes", "0"], "--nodes"),
        (["--max-slots", "0"], "--max-slots"),
        (["--k", "4", "--slots", "0"], "--slots"),
        (["--slots", "-3"], "--slots"),
        (["--app-period", "inf"], "--app-period"),
        (["--app-period", "nan"], "--app-period"),
        (["--app-period", "0"], "--app-period"),
        (["--app-period", "-5"], "--app-period"),
        (["--app-period", "-5", "--k", "4", "--slots", "90"], "--app-period"),
        (["--duty-limit", "nan"], "--duty-limit"),
        (["--duty-limit", "2"], "--duty-limit"),
        (["--duty-limit", "-1"], "--duty-limit"),
        (["--duty-limit", "0"], "--duty-limit"),
        (["--drift-ppm", "nan"], "--drift-ppm"),
        (["--p-sleep", "nan", "--p-rx", "0.036", "--p-tx", "0.120"], "--p-sleep"),
        (["--p-sleep", "1e-5", "--p-rx", "inf", "--p-tx", "0.120"], "--p-rx"),
        (["--p-sleep", "1e-5", "--p-rx", "0.036", "--p-tx", "inf"], "--p-tx"),
        ([*_POWER_FLAGS, "--p-app", "nan"], "--p-app"),
        ([*_POWER_FLAGS, "--tau-app", "inf"], "--tau-app"),
        (["--p-sleep", "-1", "--p-rx", "1", "--p-tx", "1"], "--p-sleep"),
        (["--p-sleep", "1e-5", "--p-rx", "1e-6", "--p-tx", "0.120"], "--p-rx"),
        (["--p-sleep", "1e-5", "--p-rx", "0.036", "--p-tx", "1e-6"], "--p-tx"),
        (["--p-sleep", "1e-5", "--p-rx", "0.036", "--p-tx", "1e308"], "--p-tx"),
        ([*_POWER_FLAGS, "--p-app", "-1", "--tau-app", "30"], "--p-app"),
        ([*_POWER_FLAGS, "--tau-app", "-1"], "--tau-app"),
        (["--bw", "nan"], "--bw"),
        (["--bw", "inf"], "--bw"),
        (["--bw", "0"], "--bw"),
        (["--sf", "13"], "--sf"),
        (["--sf", "5"], "--sf"),
        (["--cr", "9"], "--cr"),
        (["--preamble", "0"], "--preamble"),
        (["--sf", "6"], "--implicit-header"),
        (["--sf", "12"], "--ldro"),
    ],
    ids=[
        "tick_rate_0", "tick_rate_negative", "payload_100", "payload_negative", "drift_negative",
        "ticks_per_slot_0", "channels_0", "k_0", "nodes_0", "max_slots_0", "k_4_slots_0",
        "slots_negative", "app_period_inf", "app_period_nan", "app_period_0",
        "app_period_negative", "app_period_negative_k_slots", "duty_limit_nan", "duty_limit_2",
        "duty_limit_negative", "duty_limit_0", "drift_nan", "p_sleep_nan", "p_rx_inf", "p_tx_inf",
        "p_app_nan", "tau_app_inf", "p_sleep_negative", "p_rx_below_sleep", "p_tx_below_sleep",
        "p_tx_1e308", "p_app_negative", "tau_app_negative", "bw_nan", "bw_inf", "bw_0", "sf_13",
        "sf_5", "cr_9", "preamble_0", "sf6_explicit_header", "sf12_without_ldro",
    ],
)
def test_plan_refuses_a_flag_simulate_would_refuse(flags, flag, capsys):
    # simulate holds a scenario to tick_rate_hz >= 1, schedule.ticks_per_slot
    # >= 1 and app_payload_bytes 0..59; the planner's guard model takes the
    # drift as a magnitude, each count is at least 1, every float is finite,
    # the application period is positive and the duty-cycle limit is a
    # fraction in (0, 1].
    assert main(["plan", "--nodes", "4", "--app-period", "234", *flags]) == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err.startswith(f"error: {flag}: "), got.err


def test_plan_slots_alone_sets_k(capsys):
    # T_app = k * N * T_SL: 234 s over 14 slots of 0.649 s rounds to k = 26.
    base = ["plan", "--nodes", "4", "--app-period", "234", "--duty-limit", "0.05"]
    assert main([*base, "--slots", "14"]) == 0
    out = capsys.readouterr().out
    assert "collection factor (k)  26\n" in out
    assert "slots per frame (N)    14\n" in out
    assert main([*base, "--slots", "14", "--k", "26"]) == 0
    assert capsys.readouterr().out == out


def test_plan_slots_alone_refuses_a_k_below_one_or_n(capsys):
    # 234 s is under half a frame of 1000 slots; over 90 slots k rounds to 4 < 5 nodes.
    assert main(["plan", "--nodes", "4", "--app-period", "234", "--slots", "1000"]) == 3
    assert capsys.readouterr().err.startswith("infeasible: period: T_app = 234.0 s rounds to k = 0")
    assert main(["plan", "--nodes", "5", "--app-period", "234", "--slots", "90"]) == 3
    assert capsys.readouterr().err.startswith("infeasible: capacity: n > k: 5 nodes")


def test_plan_k_alone_holds_the_computed_slots_to_max_slots(capsys):
    # 2340 s at k = 4 rounds to N = 901 slots of 0.649 s; 1e300 s to a
    # 300-digit N. Each is refused against --max-slots before N is built.
    base = ["plan", "--nodes", "4", "--k", "4"]
    for period in ("2340", "1e300"):
        assert main([*base, "--app-period", period]) == 3
        err = capsys.readouterr().err
        assert err.startswith("infeasible: capacity: T_app = "), err
        assert "needs more than --max-slots = 90 slots per frame" in err
    assert main([*base, "--app-period", "2340", "--max-slots", "900"]) == 3
    assert "--max-slots = 900" in capsys.readouterr().err
    assert main([*base, "--app-period", "2340", "--max-slots", "901"]) == 0
    assert "slots per frame (N)    901\n" in capsys.readouterr().out
    # An explicit --slots stays as given, above --max-slots too.
    assert main([*base, "--app-period", "2340", "--slots", "901"]) == 0
    assert "slots per frame (N)    901\n" in capsys.readouterr().out


# 1.7e308 s over SF7 slots of 0.24 s: k * N is past the float range, and
# with N = 1 so is k itself.
_HUGE_PERIOD = [
    "--nodes", "4", "--app-period", "1.7e308", "--sf", "7",
    "--tick-rate", "1000000", "--ticks-per-slot", "240000",
]


@pytest.mark.parametrize(
    "extra", [[], ["--slots", "90"], ["--slots", "1"]], ids=["alone", "slots_90", "slots_1"]
)
def test_plan_refuses_a_period_past_the_float_range(extra, capsys):
    assert main(["plan", *_HUGE_PERIOD, *extra]) == 3
    assert capsys.readouterr() == (
        "",
        "infeasible: period: T_app = 1.7e+308 s in slots of 0.240000 s "
        "puts k * N * T_SL past the float range\n",
    )


_BIG = 10**400  # an int past the float range


@pytest.mark.parametrize(
    "argv, refusal",
    [
        pytest.param(
            ["plan", "--nodes", "4", "--app-period", "234", "--ticks-per-slot", str(_BIG)],
            "--ticks-per-slot: the slot, ticks per slot over --tick-rate, lies past the float range",
            id="plan_ticks_per_slot",
        ),
        pytest.param(
            ["simulate", STAR, "--frames", "2", "--set", f"schedule.ticks_per_slot={_BIG}"],
            "star4.json.schedule.ticks_per_slot: the slot, ticks_per_slot / tick_rate_hz, "
            "lies past the float range",
            id="simulate_ticks_per_slot",
        ),
        pytest.param(
            ["simulate", STAR, "--frames", str(_BIG)],
            "star4.json.frames: the run end, frames * T_F in nanoseconds, lies past the float range",
            id="simulate_frames",
        ),
        pytest.param(
            ["simulate", STAR, "--frames", str(10**299)],
            "star4.json.frames: the run end, frames * T_F in nanoseconds, lies past the float range",
            id="simulate_frames_in_nanoseconds",
        ),
        pytest.param(
            ["plan", "--nodes", "4", "--app-period", "234", "--channels", str(_BIG)],
            "--channels: the channel count lies past the float range",
            id="plan_channels",
        ),
    ],
)
def test_an_int_past_the_float_range_is_refused_as_bad_input(argv, refusal, tmp_path, capsys):
    out = ["--out", str(tmp_path / "out")] if argv[0] == "simulate" else []
    assert main([*argv, *out]) == 2
    assert capsys.readouterr() == ("", f"error: {refusal}\n")


# A printed number: an int, a fixed or exponent float, or a word Python's float() reads.
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+(?:\.\d+)?(?:e[-+]?\d+)?|inf(?:inity)?|nan)(?![\w.])", re.I)
_COUNT_FLAGS = ["--nodes", "--k", "--slots", "--max-slots", "--ticks-per-slot", "--tick-rate", "--channels"]


def _count(low: int, high: int) -> st.SearchStrategy[int]:
    """A count mostly in ``low..high``, otherwise anywhere up to 2**64."""
    typical = st.integers(low, high)
    return st.one_of(typical, typical, st.integers(1, 2**64))


def _plan(argv: list[str]) -> tuple[int, str, str]:
    """Run ``lorahop plan`` in-process: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(["plan", *argv])
        except SystemExit as e:  # argparse's own refusals
            rc = e.code
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=600, deadline=None, derandomize=True)
@given(
    app_period=st.one_of(
        st.sampled_from([0.0, -0.0, -1.0, 5e-324, 2.2e-308, 0.5, 234.0, 1e300, 1.7e308]),
        st.floats(1.0, 1e5),
        st.floats(1.0, 1e308),
        st.floats(),
    ),
    nodes=_count(1, 20),
    k=st.none() | _count(1, 100),
    slots=st.none() | _count(1, 1000),
    max_slots=st.none() | _count(1, 1000),
    ticks_per_slot=st.none() | st.none() | _count(10_000, 10**6),
    tick_rate=st.none() | st.none() | _count(10_000, 10**6),
    sf=st.sampled_from([None, 7]),
    duty_limit=st.sampled_from([None, 1.0]),
    below_one=st.none() | st.none() | st.none() | st.tuples(
        st.sampled_from(_COUNT_FLAGS), st.integers(-(2**64), 0)
    ),
    channels=st.none() | _count(1, 16),
    drift_ppm=st.none() | st.sampled_from([0.0, -1.0, 5e-324, 10.0, 1000.0, 1000.001, 1e6, 1e300]) | st.floats(),
)
@example(1.7e308, 4, None, None, None, 240000, 1000000, 7, None, None, None, None)
@example(1.7e308, 4, None, 90, None, 240000, 1000000, 7, None, None, None, None)
@example(1.7e308, 4, None, 1, None, 240000, 1000000, 7, None, None, None, None)
@example(234.0, _BIG, None, None, None, None, None, None, None, None, None, None)
@example(234.0, 4, _BIG, None, None, None, None, None, None, None, None, None)
@example(234.0, 4, None, _BIG, None, None, None, None, None, None, None, None)
@example(234.0, 4, None, None, _BIG, None, None, None, None, None, None, None)
@example(234.0, 4, None, None, None, _BIG, None, None, None, None, None, None)
@example(234.0, 4, None, None, None, None, _BIG, None, None, None, None, None)
@example(234.0, 4, None, None, None, None, None, None, None, None, _BIG, None)
@example(234.0, 4, None, None, None, None, None, None, None, None, None, 1e6)
@example(234.0, 4, None, None, None, None, None, None, None, None, None, 1e300)
def test_plan_frame_flags_exit_0_2_or_3_with_finite_figures(
    app_period, nodes, k, slots, max_slots, ticks_per_slot, tick_rate, sf, duty_limit, below_one,
    channels, drift_ppm,
):
    # Every frame flag, --channels and --drift-ppm drawn from its type,
    # extremes included, and at most one count below 1: the plan is printed
    # with finite figures, or refused as bad input or infeasible, and never
    # fails at run time. A drift comes with the power flags, so the mean
    # leaf power is printed, and it stays at most p_tx, the largest draw; a
    # drift past two crystals at the clock model's bound is bad input.
    flags = {
        "--nodes": nodes, "--app-period": app_period, "--k": k, "--slots": slots,
        "--max-slots": max_slots, "--ticks-per-slot": ticks_per_slot,
        "--tick-rate": tick_rate, "--sf": sf, "--duty-limit": duty_limit, "--channels": channels,
    }
    if below_one is not None:
        flags.update([below_one])
    power = [] if drift_ppm is None else [*_POWER_FLAGS, f"--drift-ppm={drift_ppm!r}"]
    rc, out, err = _plan([f"{flag}={value!r}" for flag, value in flags.items() if value is not None] + power)
    assert rc in (0, 2, 3), err
    if drift_ppm is not None and not 0 <= drift_ppm <= MAX_RELATIVE_DRIFT_PPM:
        assert rc == 2, out
    if rc == 0:
        numbers = _NUMBER.findall(out)
        assert len(numbers) >= 10, out
        assert all(math.isfinite(float(x)) for x in numbers), out
        if drift_ppm is not None:
            mean_mw = float(re.search(r"mean leaf power +(\S+) mW", out).group(1))
            assert mean_mw <= 120.0, out
    else:
        assert out == "" and "Traceback" not in err, err
        assert ("--" in err) if rc == 2 else err.startswith("infeasible: "), err


@pytest.mark.parametrize(
    "argv, flag",
    [
        pytest.param(
            ["plan", "--nodes", "4", "--app-period", "234", *_POWER_FLAGS, "--p-app", "0.03",
             "--tau-app", "1000"],
            "--tau-app", id="plan",
        ),
        pytest.param(["simulate", STAR, "--set", "power.tau_app=1000"], "star4.json.power.tau_app", id="simulate"),
    ],
)
def test_an_application_run_longer_than_its_sampling_period_is_refused(argv, flag, tmp_path, capsys):
    # Both sample every 4 frames of 90 slots, 233.8 s apart.
    out = ["--out", str(tmp_path / "out")] if argv[0] == "simulate" else []
    assert main([*argv, *out]) == 2
    assert capsys.readouterr() == (
        "",
        f"error: {flag}: the application runs 1000.0 s, longer than its sampling period "
        f"k * T_F = 233.800049 s, so the next sample starts while the last run goes on\n",
    )


@pytest.mark.parametrize("drift", ["1000.001", "1e6", "1e300"])
def test_plan_refuses_a_relative_drift_past_two_crystals_at_the_clock_bound(drift, capsys):
    # Two crystals within +/-500 ppm differ by at most 1000 ppm; at 1e300 the
    # plan once printed a 300-digit mean leaf power.
    assert main(["plan", "--nodes", "4", "--app-period", "234", *_POWER_FLAGS, "--drift-ppm", drift]) == 2
    assert capsys.readouterr() == (
        "",
        f"error: --drift-ppm: relative drift of {float(drift):g} ppm is above 1000 ppm, "
        f"the most two crystals within +/-500 ppm differ by\n",
    )
    assert main(["plan", "--nodes", "4", "--app-period", "234", *_POWER_FLAGS, "--drift-ppm", "1000"]) == 0


def test_plan_accepts_the_limits_themselves(capsys):
    base = ["plan", "--nodes", "4", "--app-period", "2000"]
    assert main([*base, "--payload-bytes", "59"]) == 0
    assert main([*base, "--payload-bytes", "0", *_POWER_FLAGS, "--drift-ppm", "0"]) == 0
    assert "mean leaf power" in capsys.readouterr().out


def test_plan_has_no_m0_flag(capsys):
    # The relay forwards the traffic of all n - 1 other nodes in every tree.
    with pytest.raises(SystemExit) as e:
        main(["plan", "--nodes", "4", "--app-period", "234", "--m0", "2"])
    assert e.value.code == 2
    assert "unrecognized arguments: --m0 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, unknown",
    [
        ("guard.widen_factor=2.0", "guard: unknown key 'widen_factor'"),
        ("guard.max_misses=4", "guard: unknown key 'max_misses'"),
        ("join.backoff_slots=3", "join: unknown key 'backoff_slots'"),
        ("join.retry_frames=3", "join: unknown key 'retry_frames'"),
        ("join.backoff_step=0.13", "join: unknown key 'backoff_step'"),
        ("slot_timing.t_offset=0.03", "unknown key 'slot_timing'"),
        ("slot_timing.t_guard=0.01", "unknown key 'slot_timing'"),
        ("slot_timing={}", "unknown key 'slot_timing'"),
        ("network_id=1", "unknown key 'network_id'"),
    ],
)
def test_simulate_refuses_a_protocol_constant_as_a_key(key, unknown, tmp_path, capsys):
    # The beacon-miss policy, the join backoff and retry counts, the slot
    # offsets and the network id are protocol constants, not scenario keys;
    # the backoff step follows from the radio.
    assert main(["simulate", LINE4, "--out", str(tmp_path), "--set", key]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line4.json") and unknown in err, err


def test_plan_power_needs_full_profile(capsys):
    rc = main(["plan", "--nodes", "4", "--app-period", "234", "--p-rx", "0.036"])
    assert rc == 2
    capsys.readouterr()


def test_plan_with_power(capsys):
    rc = main(
        [
            "plan", "--nodes", "4", "--app-period", "234",
            "--p-sleep", "1e-5", "--p-rx", "0.036", "--p-tx", "0.120",
            "--p-app", "0.030", "--tau-app", "1.0",
        ]
    )
    assert rc == 0
    assert "mean leaf power        0.414990 mW" in capsys.readouterr().out


def test_plan_csv_dump(tmp_path, capsys):
    out = tmp_path / "plan.csv"
    rc = main(["plan", "--nodes", "4", "--app-period", "234", "--csv", str(out)])
    assert rc == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].split(",")[0] == "n"


@pytest.mark.parametrize(
    ("csv", "refusal"),
    [(".", "exists and is a directory"), ("afile/plan.csv", "afile is not a directory")],
    ids=["directory", "under_a_file"],
)
def test_plan_refuses_a_csv_path_before_printing(csv, refusal, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").touch()
    rc = main(["plan", "--nodes", "4", "--app-period", "234", "--csv", csv])
    assert rc == 2
    assert capsys.readouterr() == ("", f"error: --csv {csv}: {refusal}\n")


def test_simulate_star(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["simulate", STAR, "--out", str(out), "--frames", "10"])
    assert rc == 0
    text = capsys.readouterr().out
    assert text.count("wrote ") == 4
    assert "scenario star4: 4 nodes, 10 frames, seed 21" in text
    assert "node 0: relay, synchronized" in text
    assert "sync 0 -> 1: max |epsilon|" in text
    for name in ("radio_states", "packet_events", "sync_samples", "summary"):
        assert (out / f"{name}.csv").exists()


def test_simulate_seed_and_set_overrides(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(
        [
            "simulate", STAR, "--out", str(out),
            "--frames", "6", "--seed", "99", "--set", "k=2",
        ]
    )
    assert rc == 0
    assert "6 frames, seed 99" in capsys.readouterr().out


def test_simulate_leaves_no_cyclic_garbage(tmp_path, capsys):
    # simulate pauses the cycle collector for the whole job, so reference
    # counting alone must free what a job leaves. The tight, cap1 and star
    # documents take the desync, rejoin, queue-drop and join-contention paths.
    paths = [tmp_path / f"{name}.json" for name in ("star4", "line4", *GENERATED)]
    for path in paths:
        path.write_text(json.dumps(CORPUS[path.stem]()))
    gc.disable()
    try:
        # The first call in a process builds the parser and its one-time garbage.
        assert main(["simulate", str(paths[0]), "--out", str(tmp_path / "out")]) == 0
        gc.collect()
        for path in paths:
            assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 0
            assert gc.collect() == 0, path.stem
    finally:
        gc.enable()
    capsys.readouterr()


def test_no_collector_pass_runs_during_a_job(tmp_path, capsys):
    argv = ["simulate", LINE4, "--frames", "400", "--out", str(tmp_path)]
    assert main(argv) == 0  # builds the parser
    gc.collect()
    passes = []

    def seen(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(seen)
    try:
        assert main(argv) == 0
    finally:
        gc.callbacks.remove(seen)
    capsys.readouterr()
    assert passes == []


def test_simulate_leaves_the_collector_as_it_found_it(tmp_path, capsys):
    # A directory where the export writes its first CSV fails after the run.
    blocked = tmp_path / "blocked"
    (blocked / "radio_states.csv").mkdir(parents=True)
    run = ["simulate", LINE4, "--frames", "4", "--out"]
    for argv, rc, err in [
        ([*run, str(tmp_path / "run")], 0, ""),
        ([*run, str(tmp_path / "run"), "--set", "radio.spreading_factor=10"], 2, "error: "),
        ([*run, str(blocked)], 4, "runtime error: "),
    ]:
        assert main(argv) == rc
        got = capsys.readouterr().err
        assert got.startswith(err) and ("Is a directory" in got) == (rc == 4), got
        assert gc.isenabled(), argv
    gc.disable()
    try:
        assert main([*run, str(tmp_path / "run")]) == 0
        assert not gc.isenabled()
    finally:
        gc.enable()
    capsys.readouterr()


def test_set_overrides_are_not_shared_between_calls(tmp_path, capsys):
    parse = lorahop.cli.build_parser().parse_args
    for k in ("2", "3"):
        assert main(["simulate", STAR, "--out", str(tmp_path), "--frames", "2", "--set", f"k={k}"]) == 0
        assert parse(["simulate", STAR, "--set", f"k={k}"]).overrides == [f"k={k}"]
    assert parse(["simulate", STAR]).overrides == []
    capsys.readouterr()


def test_simulate_missing_file(capsys):
    rc = main(["simulate", "nowhere.json", "--out", "/tmp/x"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    ("out", "refusal"),
    [("afile", "exists and is not a directory"), ("afile/sub", "afile is not a directory")],
    ids=["a_file", "under_a_file"],
)
def test_simulate_refuses_an_out_path_before_the_run(out, refusal, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").touch()
    monkeypatch.setattr(lorahop.cli, "run", lambda scenario: pytest.fail("the run started"))
    rc = main(["simulate", STAR, "--out", out])
    assert rc == 2
    assert capsys.readouterr() == ("", f"error: --out {out}: {refusal}\n")


@pytest.mark.parametrize(
    ("content", "refusal"),
    [
        (None, "cannot read scenario file: Is a directory"),
        (b'{"name": "\xff"}', "not UTF-8 text: invalid start byte at byte 10"),
        (b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply"),
    ],
    ids=["directory", "not_utf8", "nested_too_deeply"],
)
def test_simulate_refuses_a_path_it_cannot_read_as_json_text(tmp_path, capsys, content, refusal):
    path = tmp_path / "scenario.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    rc = main(["simulate", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {path}: {refusal}\n"


def test_simulate_refuses_a_negative_application_power(tmp_path, capsys):
    # The models add p_app - p_sleep while the application runs; a negative
    # draw gave a negative mean power.
    rc = main(["simulate", STAR, "--frames", "4", "--set", "power.p_app=-3", "--out", str(tmp_path)])
    assert rc == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err.endswith(".power: p_app: application power cannot be negative\n"), got.err


def test_simulate_refuses_a_draw_above_the_physical_bound(tmp_path, capsys):
    # At 1e308 W the run printed "avg power inf mW" for nodes 0 and 1.
    argv = ["simulate", LINE4, "--frames", "3", "--set", "power.p_tx=1e308", "--out", str(tmp_path)]
    assert main(argv) == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err.endswith(".power: p_tx: 1e+308 W is above the 10 W a LoRa sensor node draws at most\n"), got.err


def test_simulate_refuses_a_join_listen_limit_before_the_first_frame(tmp_path, capsys):
    # The relay never listened in the join slot, so every node stayed joining.
    argv = ["simulate", STAR, "--set", "join.listen_until_frame=-1", "--out", str(tmp_path)]
    assert main(argv) == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err.endswith(".join: listen_until_frame: -1 is before the first frame, so no node could join\n"), got.err


def test_simulate_never_builds_the_flat_interval_list(tmp_path, capsys, monkeypatch):
    # The CSV writer and the measures read each node's own timeline; the
    # node-major list of every interval is a view that simulate never asks for.
    traces = []

    def kept(scenario):
        traces.append(lorahop.engine.run(scenario))
        return traces[-1]

    monkeypatch.setattr(lorahop.cli, "run", kept)
    assert main(["simulate", STAR, "--frames", "10", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    [trace] = traces
    assert trace.intervals_by_node
    assert "radio_intervals" not in vars(trace)


def test_simulate_bad_set(capsys):
    rc = main(["simulate", STAR, "--set", "noequalsign"])
    assert rc == 2
    capsys.readouterr()


def test_simulate_invalid_override_value(tmp_path, capsys):
    rc = main(["simulate", STAR, "--out", str(tmp_path), "--set", "k=0"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_writes_identical_csvs_for_same_seed(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", STAR, "--out", str(a), "--frames", "8"]) == 0
    assert main(["simulate", STAR, "--out", str(b), "--frames", "8"]) == 0
    capsys.readouterr()
    for name in ("radio_states", "packet_events", "sync_samples", "summary"):
        assert (a / f"{name}.csv").read_bytes() == (b / f"{name}.csv").read_bytes()


def test_default_out_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = json.loads((REPO / "scenarios" / "star4.json").read_text())
    doc["frames"] = 4
    (tmp_path / "tiny.json").write_text(json.dumps(doc))
    rc = main(["simulate", "tiny.json"])
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "runs" / "tiny" / "summary.csv").exists()


def test_simulate_scans_no_timeline_after_run(tmp_path, capsys, monkeypatch):
    # The finalize step sums each node's duty cycle and energy as it builds
    # the timeline, so summary.csv and the per-node lines rescan nothing.
    calls = Counter()
    for name in ("_state_time", "measure_duty_cycle", "measure_avg_power"):

        def counted(*args, _fn=getattr(lorahop.engine, name), _name=name, **kw):
            calls[_name] += 1
            return _fn(*args, **kw)

        for module in (lorahop.engine, lorahop.cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    doc = GENERATED["tree16"]()
    path = tmp_path / "tree16.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path), "--out", str(tmp_path / "run")]) == 0
    assert "avg power" in capsys.readouterr().out
    assert calls == Counter()


@pytest.mark.parametrize(
    "flags, rc, out",
    [
        (["--sf", "12"], 2, ""),
        (["--sf", "6"], 2, ""),
        (["--sf", "12", "--ldro"], 0, "1482.752 ms\n"),
        (["--sf", "6", "--implicit-header"], 0, "30.848 ms\n"),
    ],
    ids=["sf12_without_ldro", "sf6_explicit_header", "sf12_with_ldro", "sf6_implicit_header"],
)
def test_toa_applies_the_modem_rules(flags, rc, out, capsys):
    # The rules a scenario's radio must meet: SF6 needs an implicit header,
    # a symbol past 16 ms needs low data rate optimization.
    assert main(["toa", "--payload", "24", *flags]) == rc
    got = capsys.readouterr()
    assert got.out == out
    assert got.err.startswith("error:") == (rc == 2)


@pytest.mark.parametrize("bw", ["nan", "inf"])
def test_toa_refuses_a_bandwidth_that_is_not_finite(bw, capsys):
    # RadioParams holds the rule, so toa, plan and the library share it.
    assert main(["toa", "--payload", "5", "--bw", bw]) == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err == "error: --bw: bandwidth must be finite and positive\n"


@pytest.mark.parametrize(
    "flags, refusal",
    [
        (["--sf", "13"], "--sf: "),
        (["--sf", "5"], "--sf: "),
        (["--bw", "0"], "--bw: "),
        (["--cr", "9"], "--cr: "),
        (["--cr", "4"], "--cr: "),
        (["--preamble", "0"], "--preamble: "),
        (["--payload", "256"], "--payload: "),
        (["--payload", "-1"], "--payload: "),
        # The size the flag set, and the framing added to it.
        (
            ["--payload", "244", "--lorawan"],
            "--payload: payload of 244 B plus 12 B of LoRaWAN framing exceeds the 255 B modem limit\n",
        ),
        (["--payload", "-1", "--lorawan"], "--payload: payload size cannot be negative\n"),
        (["--sf", "6"], "--implicit-header: "),
        (["--sf", "11"], "--ldro: "),
    ],
    ids=[
        "sf_13", "sf_5", "bw_0", "cr_9", "cr_4", "preamble_0", "payload_256", "payload_negative",
        "lorawan_payload_244", "lorawan_payload_negative", "sf6_explicit_header", "sf11_without_ldro",
    ],
)
def test_toa_names_the_flag_it_refuses(flags, refusal, capsys):
    # The last --payload wins, so each case can replace the valid one.
    assert main(["toa", "--payload", "5", *flags]) == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err.startswith(f"error: {refusal}"), got.err


# Every float key of a scenario: the float fields of each section's class,
# and a node's drift and a link's PER and RSSI.
_SECTIONS = {
    "radio": RadioParams, "guard": GuardConfig, "join": JoinConfig, "power": PowerProfile,
}
FLOAT_KEYS = [
    f"{section}.{key}"
    for section, cls in _SECTIONS.items()
    for key, kind, _required in _schema(cls)
    if kind is float
] + ["nodes.1.drift_ppm", "links.0.per", "links.0.rssi"]


@pytest.mark.parametrize(
    "value", ["NaN", "Infinity", "1" + "0" * 400], ids=["NaN", "Infinity", "1e400_int"]
)
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_simulate_rejects_a_non_finite_float_by_its_key(key, value, tmp_path, capsys):
    line4 = str(REPO / "scenarios" / "line4.json")
    assert main(["simulate", line4, "--out", str(tmp_path), "--set", f"{key}={value}"]) == 2
    err = capsys.readouterr().err
    where = re.sub(r"\.(\d+)", r"[\1]", key)  # nodes.1.drift_ppm -> nodes[1].drift_ppm
    assert err.startswith(f"error: line4.json.{where}: "), err
    assert "finite" in err


# Every key `simulate --set` can set, by its type: each section's keys, the
# schedule's, the top-level scalars, and a node's and a link's (their index
# is drawn, one past the end included).
_SET_KEYS = {
    **{f"{section}.{key}": kind for section, cls in _SECTIONS.items() for key, kind, _req in _schema(cls)},
    **dict.fromkeys(("schedule.max_nodes", "schedule.slots_per_frame", "schedule.ticks_per_slot",
                     "schedule.tick_rate_hz", "schema_version"), int),
    # tick_rate_hz is a Scenario field read from the schedule section.
    **{key: kind for key, kind, _req in _schema(Scenario) if kind in (int, str) and key != "tick_rate_hz"},
    "nodes.{}.id": int, "nodes.{}.relay": bool, "nodes.{}.drift_ppm": float,
    "links.{}.from": int, "links.{}.to": int, "links.{}.per": float, "links.{}.rssi": float,
    "links.{}.bidir": bool,
}
_INTS = st.one_of(st.sampled_from([0, -1, 1, 2**64, -(2**64)]), st.integers(0, 100), st.integers(-(2**64), 2**64))
# No digit, and no "i" or "n", so no drawn name prints as a number, inf or nan.
_STRINGS = st.text(alphabet="abcdefxyz _-", max_size=8)
_VALUES_BY_TYPE = {
    int: _INTS,
    float: st.one_of(st.sampled_from([0.0, -0.0, -1.0, 5e-324, 1e300, 1.7e308, -1.7e308]), st.floats()),
    bool: st.booleans(),
    str: _STRINGS,
    int | None: st.none() | _INTS,
}
# A rule across two sections may name the other: a radio whose slot anatomy
# outgrows the slot is refused under the schedule.
_ALSO_NAMED = {"radio": "schedule"}
# Any key may also get a value of another type.
_ANY_VALUE = st.one_of(
    st.sampled_from([None, True, False, 0, -1, 5e-324, 1e300, 1.7e308, 2**64, [], {}]), _STRINGS
)


@st.composite
def _set_overrides(draw) -> tuple[str, object]:
    key = draw(st.sampled_from(sorted(_SET_KEYS)))
    value = draw(_VALUES_BY_TYPE[_SET_KEYS[key]] | _ANY_VALUE)
    return key.format(draw(st.integers(0, 4))), value


def _finite_csv_fields(out_dir: Path) -> bool:
    """Whether every field of every CSV in ``out_dir`` that reads as a number is finite."""
    for csv in out_dir.glob("*.csv"):
        for field in re.split(r"[,\n]", csv.read_text()):
            try:
                number = float(field)
            except ValueError:
                continue
            if not math.isfinite(number):
                return False
    return True


@settings(max_examples=800, deadline=None, derandomize=True)
@given(override=_set_overrides())
@example(override=("schedule.max_nodes", 0))
@example(override=("nodes.1.id", 0))
@example(override=("radio.bandwidth_hz", 1e300))
@example(override=("schedule.slots_per_frame", 2**64))
def test_simulate_set_exits_0_or_2_with_finite_figures_or_the_key_named(override):
    # One --set of any settable key on star4, its value drawn from the key's
    # type with extremes, or of another type: the run prints finite figures
    # and writes finite CSV fields, or is refused as bad input naming the
    # key by its section or its field, and never fails at run time. The
    # named examples were refused naming neither, the last two by a
    # transmission that ended at its start.
    key, value = override
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        out_dir = Path(tmp) / "out"
        rc = main(["simulate", STAR, "--frames", "2", "--set", f"{key}={json.dumps(value)}",
                   "--out", str(out_dir)])
        finite_csvs = rc != 0 or _finite_csv_fields(out_dir)
    out, err = out.getvalue(), err.getvalue()
    assert rc in (0, 2, 3) and "Traceback" not in err, err
    if rc == 0:
        assert all(math.isfinite(float(x)) for x in _NUMBER.findall(out)), out
        assert finite_csvs
    else:
        parts = key.split(".")
        names = "|".join({parts[0], parts[-1], _ALSO_NAMED.get(parts[0], parts[0])})
        assert out == "" and re.search(rf"\b({names})\b", err), err


def test_cli_defaults_are_the_dataclass_defaults():
    parse = lorahop.cli.build_parser().parse_args
    assert _radio_from_args(parse(["toa", "--payload", "1"])) == RadioParams()
    plan = parse(["plan", "--nodes", "4", "--app-period", "234"])
    assert _radio_from_args(plan) == RadioParams()
    defaults = {f.name: f.default for f in dataclasses.fields(Scenario)}
    assert plan.payload_bytes == defaults["app_payload_bytes"]
