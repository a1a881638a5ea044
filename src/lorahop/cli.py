"""Command-line front end: airtime math, dimensioning, simulation runs.

Exit codes: 0 success, 2 bad input (usage, schema, radio params),
3 infeasible plan, 4 runtime failure during a simulation or export.
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import sys
from pathlib import Path

from .engine import measure_sync_error, run, sync_pairs, write_trace_csvs

# Unused here; the benchmark's traced run wraps them under these names.
from .engine import measure_avg_power, measure_duty_cycle  # noqa: F401
from .phy import LORAWAN_OVERHEAD_BYTES, RadioParams, check_modem, lorawan_time_on_air, time_on_air
from .planner import PlanError, app_period, duty_cycle_estimate, mean_power, recommend_frame
from .protocol import MAC_HEADER_BYTES
from .scenario import SCHEMA_VERSION, Scenario, ScenarioError, apply_override, parse_scenario, read_scenario_doc
from .timebase import DEFAULT_TICK_RATE_HZ, check_relative_drift

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_RUNTIME = 4


# The scenario key each flag of toa and plan sets. The key is the flag's
# argparse dest, and a flag left out leaves the key to its default; a
# refusal of the key is named by the flag.
_FLAGS = {
    "schedule.max_nodes": "--nodes", "schedule.slots_per_frame": "--slots",
    "schedule.ticks_per_slot": "--ticks-per-slot", "schedule.tick_rate_hz": "--tick-rate",
    "k": "--k", "app_payload_bytes": "--payload-bytes",
    "radio.spreading_factor": "--sf", "radio.bandwidth_hz": "--bw",
    "radio.coding_rate_denominator": "--cr", "radio.preamble_symbols": "--preamble",
    "radio.explicit_header": "--implicit-header", "radio.crc_on": "--no-crc",
    "radio.low_data_rate_opt": "--ldro",
    "power.p_sleep": "--p-sleep", "power.p_rx": "--p-rx", "power.p_tx": "--p-tx",
    "power.p_app": "--p-app", "power.tau_app": "--tau-app",
}


def _given(args: argparse.Namespace) -> dict[str, object]:
    """The scenario key of each flag given, with its value."""
    return {key: value for key, value in vars(args).items() if key in _FLAGS and value is not None}


def _by_flag(key: str, reason: str) -> ScenarioError:
    """A refusal of scenario ``key``, named by its flag. A section's class
    names the refused field first."""
    field, sep, rest = reason.partition(": ")
    if sep and f"{key}.{field}" in _FLAGS:
        key, reason = f"{key}.{field}", rest
    return ScenarioError(f"{_FLAGS[key]}: {reason}")


def _plan_scenario(n: int, keys: dict[str, object]) -> Scenario:
    """Parse the one-frame star of ``n`` nodes around the relay, node 0,
    that ``keys`` (dotted key: value) set. The frame rules raise their own
    ``PlanError``; a refusal of a key names its flag."""
    doc: dict = {
        "schema_version": SCHEMA_VERSION, "frames": 1,
        "nodes": [{"id": i, "relay": i == 0} for i in range(n)],
        "links": [{"from": i, "to": 0} for i in range(1, n)],
    }
    for key, value in keys.items():
        section, _, field = key.rpartition(".")
        (doc.setdefault(section, {}) if section else doc)[field] = value
    try:
        return parse_scenario(doc, source="plan")
    except ScenarioError as e:
        if isinstance(e.__cause__, PlanError):
            raise e.__cause__ from None
        key, _, reason = str(e).removeprefix("plan.").partition(": ")
        if key == "frames":  # the one key no flag sets, 1 here: the frame is too long
            sched = doc["schedule"]
            t_frame = sched["slots_per_frame"] * (sched["ticks_per_slot"] / sched.get("tick_rate_hz", DEFAULT_TICK_RATE_HZ))
            frame = f"of T_F = {t_frame:g} s" if math.isfinite(t_frame) else "past the float range"
            raise PlanError("period", f"a frame {frame} is too long to simulate in float seconds") from None
        raise _by_flag(key, reason) from None


def _check_output_path(flag: str, path: Path, is_dir: bool) -> None:
    """Refuse, before any work, an output path that existing files make
    unwritable: one of the wrong kind (``is_dir`` says which it must be),
    or one under a file."""
    if path.exists() and path.is_dir() != is_dir:
        raise ScenarioError(f"{flag} {path}: exists and is {'not ' if is_dir else ''}a directory")
    for parent in path.parents:
        if parent.exists():
            if not parent.is_dir():
                raise ScenarioError(f"{flag} {path}: {parent} is not a directory")
            return


def cmd_toa(args: argparse.Namespace) -> int:
    try:
        radio = RadioParams(**{key.removeprefix("radio."): value for key, value in _given(args).items()})
        check_modem(radio)
    except ValueError as e:
        raise _by_flag("radio", str(e)) from None
    toa = lorawan_time_on_air if args.lorawan else time_on_air
    try:
        seconds = toa(args.payload, radio)
    except ValueError as e:
        raise ScenarioError(f"--payload: {e}") from None
    print(f"{seconds * 1e3:.3f} ms")
    return EXIT_OK


def cmd_plan(args: argparse.Namespace) -> int:
    keys = _given(args)
    # plan's own flags; parse_scenario holds every flag that sets a key.
    # recommend_frame reads --slots before a scenario holds it.
    for flag, count in (
        ("--slots", keys.get("schedule.slots_per_frame")),
        ("--max-slots", args.max_slots),
        ("--channels", args.channels),
    ):
        if count is not None and count < 1:
            raise ScenarioError(f"{flag}: {count}, must be at least 1")
    for dest, value in vars(args).items():  # a float flag is finite, as a scenario float is
        if type(value) is float and dest not in _FLAGS and not math.isfinite(value):
            raise ScenarioError(f"--{dest.replace('_', '-')}: {value}, must be a finite number")
    if args.app_period <= 0:
        raise ScenarioError(f"--app-period: {args.app_period}, must be positive")
    if not 0 < args.duty_limit <= 1:
        raise ScenarioError(f"--duty-limit: {args.duty_limit}, must be in (0, 1]")
    try:
        check_relative_drift(args.drift_ppm)
    except ValueError as e:
        raise ScenarioError(f"--drift-ppm: {e}") from None
    if args.csv is not None:
        _check_output_path("--csv", Path(args.csv), is_dir=False)
    power = {key for key in keys if key.startswith("power.")}
    if power and not {"power.p_sleep", "power.p_rx", "power.p_tx"} <= power:
        raise ScenarioError("power model needs --p-sleep, --p-rx and --p-tx together")

    # The relay alone on the fewest slots that hold n nodes gives the slot
    # that (k, N) are chosen for; the star on that frame is the plan.
    n = keys["schedule.max_nodes"]
    frame = {key: value for key, value in keys.items() if key not in power}
    relay = _plan_scenario(1, {**frame, "schedule.slots_per_frame": 3 * n + 2})
    k, slots = recommend_frame(
        args.app_period, n, relay.slot_seconds, args.max_slots, keys.get("k"), keys.get("schedule.slots_per_frame")
    )
    plan = _plan_scenario(n, {**keys, "k": k, "schedule.slots_per_frame": slots})

    slot_seconds, t_frame = plan.slot_seconds, plan.frame_seconds
    t_app = app_period(k, slots, slot_seconds)
    t_bcn, t_ack = plan.timing.t_bcn, plan.timing.t_ack
    t_data_hop = time_on_air(MAC_HEADER_BYTES + plan.app_payload_bytes, plan.radio)
    t_data_lorawan = lorawan_time_on_air(plan.app_payload_bytes, plan.radio)

    m0 = n - 1  # in every tree this MAC builds, the relay forwards all other nodes' traffic
    try:
        duty_relay = duty_cycle_estimate(m0, k, args.channels, t_app, t_ack, t_data_lorawan, t_bcn)
        duty_leaf = duty_cycle_estimate(0, k, args.channels, t_app, t_ack, t_data_hop, t_bcn)
    except OverflowError:  # T_app * c; every other product is held finite by the plan
        raise ScenarioError("--channels: the channel count lies past the float range") from None
    if duty_relay > args.duty_limit:
        raise PlanError(
            "duty-cycle",
            f"relay duty cycle {duty_relay * 100:.3f} % exceeds the "
            f"{args.duty_limit * 100:.3f} % limit (m_0 = {m0}, T_app = {t_app:.1f} s)",
        )

    power_w = None
    if plan.power is not None:
        power_w = mean_power(plan.power, t_bcn, slot_seconds, slots, k, args.drift_ppm)

    rows = [
        ("nodes (n)", f"{n}"),
        ("collection factor (k)", f"{k}"),
        ("slots per frame (N)", f"{slots}"),
        ("channels (c)", f"{args.channels}"),
        ("slot length", f"{slot_seconds:.6f} s"),
        ("frame length (T_F)", f"{t_frame:.6f} s"),
        ("app period (T_app)", f"{t_app:.6f} s"),
        ("payload", f"{plan.app_payload_bytes} B"),
        ("relay duty cycle", f"{duty_relay * 100:.3f} %  (m_0 = {m0})"),
        ("leaf duty cycle", f"{duty_leaf * 100:.3f} %"),
    ]
    if power_w is not None:
        rows.append(("mean leaf power", f"{power_w * 1e3:.6f} mW"))
    width = max(len(label) for label, _ in rows)
    print("network plan")
    for label, value in rows:
        print(f"  {label:<{width}}  {value}")

    if args.csv is not None:
        path = Path(args.csv)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as f:
            f.write(
                "n,k,slots_per_frame,channels,slot_seconds,frame_seconds,"
                "app_period_seconds,duty_relay,duty_leaf,mean_power_w\n"
            )
            mp = f"{power_w:.9e}" if power_w is not None else ""
            f.write(
                f"{n},{k},{slots},{args.channels},{slot_seconds:.9f},{t_frame:.9f},"
                f"{t_app:.9f},{duty_relay:.9f},{duty_leaf:.9f},{mp}\n"
            )
        print(f"wrote {path}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    # The trace's records are tuple subclasses, which the cycle collector
    # keeps tracking, so each of its passes during a job would walk all of
    # them and free nothing: a job makes no reference cycles (run() clears
    # its heap and waiting services on return, and the parser is built
    # once). The pause spans the export too; ending it after run() would
    # leave one pass over every record for the first allocation after it.
    enabled = gc.isenabled()
    gc.disable()
    try:
        path = Path(args.scenario)
        out_dir = Path(args.out) if args.out is not None else Path("runs") / path.stem
        _check_output_path("--out", out_dir, is_dir=True)
        doc = read_scenario_doc(path)
        for item in args.overrides:
            if "=" not in item:
                raise ScenarioError(f"--set {item}: expected key=value")
            key, _, value = item.partition("=")
            apply_override(doc, key, value)
        if args.seed is not None:
            doc["seed"] = args.seed
        if args.frames is not None:
            doc["frames"] = args.frames
        scenario = parse_scenario(doc, source=path.name)

        trace = run(scenario)
        written = write_trace_csvs(trace, out_dir)
        for p in written:
            print(f"wrote {p}")

        print(
            f"scenario {scenario.name}: {len(scenario.nodes)} nodes, "
            f"{scenario.frames} frames, seed {scenario.seed}"
        )
        for cfg in scenario.nodes:
            nid = cfg.node_id
            duty, avg = trace.node_measures[nid]
            line = (
                f"node {nid}: {'relay, ' if cfg.is_relay else ''}"
                f"{trace.final_modes[nid]}, duty {duty * 100:.6f} %"
            )
            if avg is not None:
                line += f", avg power {avg * 1e3:.6f} mW"
            print(line)
        for parent_id, child_id in sync_pairs(trace):
            eps = measure_sync_error(trace, parent_id, child_id)
            if eps:
                worst = max(abs(e) for e in eps) * 1e6
                print(
                    f"sync {parent_id} -> {child_id}: max |epsilon| {worst:.3f} us "
                    f"over {len(eps)} frames"
                )
        return EXIT_OK
    finally:
        if enabled:
            gc.enable()


# Built once per process: each parser is a web of reference cycles that
# only the cycle collector could free.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorahop",
        description="TDMA multi-hop LoRa MAC: airtime, dimensioning, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_key(p: argparse.ArgumentParser, key: str, **kwargs) -> None:
        p.add_argument(_FLAGS[key], dest=key, **kwargs)

    def add_radio(p: argparse.ArgumentParser) -> None:
        add_key(p, "radio.spreading_factor", type=int, metavar="SF", help="spreading factor")
        add_key(p, "radio.bandwidth_hz", type=float, metavar="BW", help="bandwidth in Hz")
        add_key(p, "radio.coding_rate_denominator", type=int, metavar="CR", help="coding rate denominator 4/x")
        add_key(p, "radio.preamble_symbols", type=int, metavar="PREAMBLE", help="preamble symbols")
        add_key(p, "radio.explicit_header", action="store_false", default=None)
        add_key(p, "radio.crc_on", action="store_false", default=None)
        add_key(p, "radio.low_data_rate_opt", action="store_true", default=None, help="low data rate optimization")

    t = sub.add_parser("toa", help="time on air for one payload")
    t.add_argument("--payload", type=int, required=True, metavar="BYTES")
    t.add_argument(
        "--lorawan", action="store_true",
        help=f"add the {LORAWAN_OVERHEAD_BYTES} B LoRaWAN framing overhead",
    )
    add_radio(t)
    t.set_defaults(fn=cmd_toa)

    p = sub.add_parser("plan", help="dimension a deployment")
    add_key(p, "schedule.max_nodes", type=int, required=True, metavar="NODES", help="total nodes n incl. relay")
    p.add_argument("--app-period", type=float, required=True, metavar="SECONDS")
    add_key(p, "k", type=int, metavar="K", help="force the collection factor")
    add_key(p, "schedule.slots_per_frame", type=int, metavar="SLOTS", help="force slots per frame N")
    add_key(p, "schedule.ticks_per_slot", type=int, default=21281, metavar="TICKS_PER_SLOT")
    add_key(p, "schedule.tick_rate_hz", type=int, metavar="TICK_RATE", help="crystal ticks per second")
    p.add_argument("--max-slots", type=int, default=90, help="largest N to consider")
    add_key(p, "app_payload_bytes", type=int, metavar="PAYLOAD_BYTES")
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--duty-limit", type=float, default=0.01, help="fraction, default 0.01")
    add_key(p, "power.p_sleep", type=float, metavar="W")
    add_key(p, "power.p_rx", type=float, metavar="W")
    add_key(p, "power.p_tx", type=float, metavar="W")
    add_key(p, "power.p_app", type=float, metavar="W")
    add_key(p, "power.tau_app", type=float, metavar="S")
    p.add_argument("--drift-ppm", type=float, default=10.0, help="worst relative drift")
    p.add_argument("--csv", type=str, default=None, metavar="PATH")
    add_radio(p)
    p.set_defaults(fn=cmd_plan)

    s = sub.add_parser("simulate", help="run a scenario and export CSV traces")
    s.add_argument("scenario", help="scenario JSON path")
    s.add_argument("--out", type=str, default=None, help="output directory")
    s.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    s.add_argument("--frames", type=int, default=None, help="override the frame count")
    s.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override any scenario key (dotted path, JSON value)",
    )
    s.set_defaults(fn=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except PlanError as e:
        print(f"infeasible: {e.constraint}: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ScenarioError, ValueError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
