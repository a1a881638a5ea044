"""Command line behavior: output contracts and exit codes."""

from __future__ import annotations

import dataclasses
import gc
import json
import re
from collections import Counter
from pathlib import Path

import pytest

import lorahop.cli
import lorahop.engine
from lorahop import GuardConfig, PowerProfile, RadioParams, Scenario
from lorahop.cli import _radio_from_args, main
from lorahop.scenario import JoinConfig, _schema
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
        "slots_negative", "app_period_inf", "app_period_nan", "duty_limit_nan", "duty_limit_2",
        "duty_limit_negative", "duty_limit_0", "drift_nan", "p_sleep_nan", "p_rx_inf", "p_tx_inf",
        "p_app_nan", "tau_app_inf", "bw_nan", "bw_inf", "bw_0", "sf_13", "sf_5", "cr_9",
        "preamble_0", "sf6_explicit_header", "sf12_without_ldro",
    ],
)
def test_plan_refuses_a_flag_simulate_would_refuse(flags, flag, capsys):
    # simulate holds a scenario to tick_rate_hz >= 1, schedule.ticks_per_slot
    # >= 1 and app_payload_bytes 0..59; the planner's guard model takes the
    # drift as a magnitude, each count is at least 1, every float is finite
    # and the duty-cycle limit is a fraction in (0, 1].
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
        ("slot_timing.t_offset=0.03", "unknown key 'slot_timing'"),
        ("slot_timing.t_guard=0.01", "unknown key 'slot_timing'"),
        ("slot_timing={}", "unknown key 'slot_timing'"),
        ("network_id=1", "unknown key 'network_id'"),
    ],
)
def test_simulate_refuses_a_protocol_constant_as_a_key(key, unknown, tmp_path, capsys):
    # The beacon-miss policy, the join backoff and retry counts, the slot
    # offsets and the network id are protocol constants, not scenario keys.
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
    blocker = tmp_path / "file"
    blocker.write_text("")
    run = ["simulate", LINE4, "--frames", "4", "--out"]
    for argv, rc, err in [
        ([*run, str(tmp_path / "run")], 0, ""),
        ([*run, str(tmp_path / "run"), "--set", "radio.spreading_factor=10"], 2, "error: "),
        ([*run, str(blocker / "run")], 4, "runtime error: "),
    ]:
        assert main(argv) == rc
        got = capsys.readouterr().err
        assert got.startswith(err) and ("Not a directory" in got) == (rc == 4), got
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


def test_simulate_measures_each_node_once(tmp_path, capsys, monkeypatch):
    # summary.csv and the per-node lines read the same numbers, so a node's
    # duty cycle and mean power are each measured once per run.
    calls: dict[str, Counter] = {}
    for name in ("measure_duty_cycle", "measure_avg_power"):
        counter = calls[name] = Counter()

        def counted(trace, node_id, *args, _fn=getattr(lorahop.engine, name), _counter=counter, **kw):
            _counter[node_id] += 1
            return _fn(trace, node_id, *args, **kw)

        for module in (lorahop.engine, lorahop.cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    doc = GENERATED["tree16"]()
    path = tmp_path / "tree16.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path), "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    once = dict.fromkeys(range(len(doc["nodes"])), 1)
    assert calls == {"measure_duty_cycle": once, "measure_avg_power": once}


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
    "flags, flag",
    [
        (["--sf", "13"], "--sf"),
        (["--sf", "5"], "--sf"),
        (["--bw", "0"], "--bw"),
        (["--cr", "9"], "--cr"),
        (["--cr", "4"], "--cr"),
        (["--preamble", "0"], "--preamble"),
        (["--payload", "256"], "--payload"),
        (["--payload", "-1"], "--payload"),
        (["--payload", "244", "--lorawan"], "--payload"),
        (["--sf", "6"], "--implicit-header"),
        (["--sf", "11"], "--ldro"),
    ],
    ids=[
        "sf_13", "sf_5", "bw_0", "cr_9", "cr_4", "preamble_0", "payload_256", "payload_negative",
        "lorawan_payload_244", "sf6_explicit_header", "sf11_without_ldro",
    ],
)
def test_toa_names_the_flag_it_refuses(flags, flag, capsys):
    # The last --payload wins, so each case can replace the valid one.
    assert main(["toa", "--payload", "5", *flags]) == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err.startswith(f"error: {flag}: "), got.err


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


def test_cli_defaults_are_the_dataclass_defaults():
    parse = lorahop.cli.build_parser().parse_args
    assert _radio_from_args(parse(["toa", "--payload", "1"])) == RadioParams()
    plan = parse(["plan", "--nodes", "4", "--app-period", "234"])
    assert _radio_from_args(plan) == RadioParams()
    defaults = {f.name: f.default for f in dataclasses.fields(Scenario)}
    assert plan.payload_bytes == defaults["app_payload_bytes"]
