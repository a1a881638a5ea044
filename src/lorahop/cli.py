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
from .planner import (
    PlanError,
    PowerProfile,
    app_period,
    duty_cycle_estimate,
    mean_power,
    recommend_frame,
)
from .protocol import MAC_HEADER_BYTES, MAX_DATA_PAYLOAD_BYTES, SlotTiming, build_schedule
from .scenario import Scenario, ScenarioError, apply_override, parse_scenario, read_scenario_doc
from .timebase import DEFAULT_TICK_RATE_HZ, check_relative_drift

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_RUNTIME = 4


# The RadioParams field each radio value flag sets.
_RADIO_FLAGS = {
    "--sf": "spreading_factor",
    "--bw": "bandwidth_hz",
    "--cr": "coding_rate_denominator",
    "--preamble": "preamble_symbols",
}
# The flag that satisfies each modem rule, by the setting check_modem names first.
_MODEM_FLAGS = {"explicit_header": "--implicit-header", "low_data_rate_opt": "--ldro"}


def _radio_from_args(args: argparse.Namespace) -> RadioParams:
    values = {field: getattr(args, flag[2:]) for flag, field in _RADIO_FLAGS.items()}
    # RadioParams holds each limit; tried one field at a time, its error names the flag.
    for flag, field in _RADIO_FLAGS.items():
        try:
            RadioParams(**{field: values[field]})
        except ValueError as e:
            raise ScenarioError(f"{flag}: {e}") from None
    radio = RadioParams(
        **values,
        explicit_header=not args.implicit_header,
        crc_on=not args.no_crc,
        low_data_rate_opt=args.ldro,
    )
    try:
        check_modem(radio)
    except ValueError as e:
        raise ScenarioError(f"{_MODEM_FLAGS[str(e).partition(':')[0]]}: {e}") from None
    return radio


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
    radio = _radio_from_args(args)
    toa = lorawan_time_on_air if args.lorawan else time_on_air
    try:
        seconds = toa(args.payload, radio)
    except ValueError as e:
        raise ScenarioError(f"--payload: {e}") from None
    print(f"{seconds * 1e3:.3f} ms")
    return EXIT_OK


def cmd_plan(args: argparse.Namespace) -> int:
    # The limits simulate holds a scenario to, named by flag.
    for flag, count in (
        ("--nodes", args.nodes),
        ("--k", args.k),
        ("--slots", args.slots),
        ("--ticks-per-slot", args.ticks_per_slot),
        ("--tick-rate", args.tick_rate),
        ("--max-slots", args.max_slots),
        ("--channels", args.channels),
    ):
        if count is not None and count < 1:
            raise ScenarioError(f"{flag}: {count}, must be at least 1")
    for dest, value in vars(args).items():  # a float flag is finite, as a scenario float is
        if type(value) is float and not math.isfinite(value):
            raise ScenarioError(f"--{dest.replace('_', '-')}: {value}, must be a finite number")
    if args.app_period <= 0:
        raise ScenarioError(f"--app-period: {args.app_period}, must be positive")
    if not 0 < args.duty_limit <= 1:
        raise ScenarioError(f"--duty-limit: {args.duty_limit}, must be in (0, 1]")
    if not 0 <= args.payload_bytes <= MAX_DATA_PAYLOAD_BYTES:
        raise ScenarioError(
            f"--payload-bytes: {args.payload_bytes} B, must be 0..{MAX_DATA_PAYLOAD_BYTES}"
        )
    try:
        check_relative_drift(args.drift_ppm)
    except ValueError as e:
        raise ScenarioError(f"--drift-ppm: {e}") from None
    if args.csv is not None:
        _check_output_path("--csv", Path(args.csv), is_dir=False)
    radio = _radio_from_args(args)
    try:
        slot_seconds = args.ticks_per_slot / args.tick_rate
    except OverflowError:
        raise ScenarioError(
            "--ticks-per-slot: the slot, ticks per slot over --tick-rate, lies past the float range"
        ) from None
    timing = SlotTiming(radio)
    try:
        timing.validate_for(slot_seconds)
    except ValueError as e:
        raise PlanError("slot", str(e)) from None
    n = args.nodes
    k, slots = recommend_frame(args.app_period, n, slot_seconds, args.max_slots, args.k, args.slots)

    try:
        build_schedule(n, slots, args.ticks_per_slot)
    except ValueError as e:
        raise PlanError("capacity", str(e)) from None

    t_app = app_period(k, slots, slot_seconds)
    t_frame = slots * slot_seconds
    t_bcn, t_ack = timing.t_bcn, timing.t_ack
    t_data_hop = time_on_air(MAC_HEADER_BYTES + args.payload_bytes, radio)
    t_data_lorawan = lorawan_time_on_air(args.payload_bytes, radio)

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
    if args.p_rx is not None or args.p_tx is not None or args.p_sleep is not None:
        if None in (args.p_rx, args.p_tx, args.p_sleep):
            raise ScenarioError(
                "power model needs --p-sleep, --p-rx and --p-tx together"
            )
        try:
            profile = PowerProfile(
                p_sleep=args.p_sleep,
                p_rx=args.p_rx,
                p_tx=args.p_tx,
                p_app=args.p_app,
                tau_app=args.tau_app,
            )
            profile.check_period(k, t_frame)
        except ValueError as e:  # PowerProfile names the field first; its flag is --field
            field, _, reason = str(e).partition(": ")
            raise ScenarioError(f"--{field.replace('_', '-')}: {reason}") from None
        power_w = mean_power(profile, t_bcn, slot_seconds, slots, k, args.drift_ppm)

    rows = [
        ("nodes (n)", f"{n}"),
        ("collection factor (k)", f"{k}"),
        ("slots per frame (N)", f"{slots}"),
        ("channels (c)", f"{args.channels}"),
        ("slot length", f"{slot_seconds:.6f} s"),
        ("frame length (T_F)", f"{t_frame:.6f} s"),
        ("app period (T_app)", f"{t_app:.6f} s"),
        ("payload", f"{args.payload_bytes} B"),
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

    radio = RadioParams()

    def add_radio(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--sf", type=int, default=radio.spreading_factor, help="spreading factor (default %(default)s)"
        )
        p.add_argument("--bw", type=float, default=radio.bandwidth_hz, help="bandwidth in Hz")
        p.add_argument(
            "--cr", type=int, default=radio.coding_rate_denominator, help="coding rate denominator 4/x"
        )
        p.add_argument("--preamble", type=int, default=radio.preamble_symbols, help="preamble symbols")
        p.add_argument("--implicit-header", action="store_true")
        p.add_argument("--no-crc", action="store_true")
        p.add_argument("--ldro", action="store_true", help="low data rate optimization")

    t = sub.add_parser("toa", help="time on air for one payload")
    t.add_argument("--payload", type=int, required=True, metavar="BYTES")
    t.add_argument(
        "--lorawan", action="store_true",
        help=f"add the {LORAWAN_OVERHEAD_BYTES} B LoRaWAN framing overhead",
    )
    add_radio(t)
    t.set_defaults(fn=cmd_toa)

    p = sub.add_parser("plan", help="dimension a deployment")
    p.add_argument("--nodes", type=int, required=True, help="total nodes n incl. relay")
    p.add_argument("--app-period", type=float, required=True, metavar="SECONDS")
    p.add_argument("--k", type=int, default=None, help="force the collection factor")
    p.add_argument("--slots", type=int, default=None, help="force slots per frame N")
    p.add_argument("--ticks-per-slot", type=int, default=21281)
    p.add_argument("--tick-rate", type=int, default=DEFAULT_TICK_RATE_HZ, help="crystal ticks per second")
    p.add_argument("--max-slots", type=int, default=90, help="largest N to consider")
    p.add_argument("--payload-bytes", type=int, default=Scenario.app_payload_bytes)
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--duty-limit", type=float, default=0.01, help="fraction, default 0.01")
    p.add_argument("--p-sleep", type=float, default=None, metavar="W")
    p.add_argument("--p-rx", type=float, default=None, metavar="W")
    p.add_argument("--p-tx", type=float, default=None, metavar="W")
    p.add_argument("--p-app", type=float, default=0.0, metavar="W")
    p.add_argument("--tau-app", type=float, default=0.0, metavar="S")
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
