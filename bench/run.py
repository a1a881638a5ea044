"""Benchmark of ``lorahop simulate``: end-to-end metrics, or per-layer ones when traced.

Run from the root of a source checkout:

    python3 bench/run.py --workload tree64 --seed 1 --seconds 30 --trace 0

Each job calls ``lorahop.cli.main(["simulate", <scenario file>, ...])`` in
this one process, as a user's ``lorahop simulate`` would run, and writes
its CSVs under ``.bench_out/``. Jobs use seeds derived from ``--seed``
(``seed * 1000 + j`` for the j-th job), so one run covers several inputs
and reports medians over them. Jobs start while one more is expected to
end within ``--seconds``, at least ``MIN_JOBS`` of them (two job cycles
when traced).

``--trace 0`` reports the end-to-end metrics; the timed jobs run with
nothing patched. Their times, and the set-up times, are scaled to a
reference host speed measured by a probe around and during each timed
block (see ``hostspeed.py``), because the shared host's speed drifts by
up to 3.5x over minutes. ``--trace 1`` is the separate traced run: it alternates
untraced and traced jobs, records spans around the program's public
functions (see ``spans.py``) and reports per-layer metrics, the tracing
overhead and how job time scales with frames.

Both modes start with one untimed job, which warms the process up and
measures memory: peak RSS growth in ``--trace 0``, per-layer
``tracemalloc`` peaks in ``--trace 1``. Its seed is the first timed job's,
whose CSV digest must match it. Every job's output is checked: exit code
0, a gapless radio timeline per node, one summary row per node. A job
that fails a check counts in ``failed``. The last line of standard output
is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

from checks import OutputError, read_output
from hostspeed import Probe, sampled
from spans import Tracer, patched, self_times
from workloads import FRAMES, Job, make_job

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
MIN_JOBS = 3
SETUP_REPS = 60

# Units that do not follow from a metric's name suffix (see unit()).
UNITS = {
    "rows_per_s": "rows/s",
    "peak_bytes_per_row": "B/row",
    "engine.us_per_record": "us",
    "export.bytes": "B",
}

# Program functions wrapped in the traced run: (module, attribute, span name).
CLI_SPANS = [
    ("parse_scenario", "scenario.parse"),
    ("run", "engine.run"),
    ("write_trace_csvs", "export.write"),
    ("measure_duty_cycle", "summary.measure"),
    ("measure_avg_power", "summary.measure"),
    ("measure_sync_error", "summary.measure"),
]
ENGINE_SPANS = [
    ("handle_rx", "protocol.handle_rx"),
    ("forwarding_step", "protocol.forwarding_step"),
    ("join_procedure", "protocol.join_procedure"),
    ("make_beacon", "protocol.make_beacon"),
    ("resync", "timebase.resync"),
    ("time_on_air", "phy.toa"),
    ("lorawan_time_on_air", "phy.toa"),
    ("measure_duty_cycle", "export.measure"),
    ("measure_avg_power", "export.measure"),
]
LOSSES = ("lost_collision", "lost_window", "lost_per")
# Per-layer self times that together cover a traced job's cli.simulate span.
SELF_TIMES = (
    "cli.self_s", "scenario.parse_s", "engine.init_s", "engine.run_self_s",
    "protocol.handle_rx_s", "protocol.forwarding_step_s", "protocol.join_procedure_s",
    "protocol.make_beacon_s", "timebase.resync_s", "phy.toa_s",
    "export.write_s", "export.measure_s", "summary.measure_s",
)


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, lorahop) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.cli = lorahop.cli
        self.engine = lorahop.engine
        self.parse_scenario = lorahop.scenario.parse_scenario
        self.workdir = OUT / f"{workload}-{seed}"
        self.attempted = 0
        self.failed = 0
        self.digests: dict[tuple[int, int], str] = {}
        self.unscaled: list[float] = []
        self._jobs = 0

    def job(self, j: int, frames: int | None = None) -> Job:
        return make_job(self.workload, self.seed * 1000 + j, ROOT, frames)

    def simulate(self, job: Job, main=None, probe: Probe | None = None):
        """Run one job through the CLI; return (seconds, checked output) or None.

        The seconds are wall seconds, or given a ``probe`` wall seconds at the
        reference host speed (see ``hostspeed.py``); then the unscaled wall
        time goes to ``self.unscaled``.
        """
        self._jobs += 1
        job_dir = self.workdir / f"job{self._jobs}"
        job_dir.mkdir(parents=True)
        scenario = job_dir / f"{job.workload}.json"
        scenario.write_text(job.text)
        argv = ["simulate", str(scenario), "--out", str(job_dir / "out"), *job.args]
        main = main or self.cli.main
        gc.collect()
        self.attempted += 1
        with sampled(probe) if probe is not None else contextlib.nullcontext() as block:
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = main(argv)
            except Exception as e:  # a crash is a failed job, not a failed benchmark
                rc = f"{type(e).__name__}: {e}"
            wall = time.perf_counter() - start
        if block is not None:
            self.unscaled.append(wall)
            wall = block.scaled
        try:
            if rc != 0:
                raise OutputError(f"simulate exited with {rc}")
            out = read_output(job_dir / "out", job)
            first = self.digests.setdefault((job.seed, job.frames), out.digest)
            if out.digest != first:
                raise OutputError(f"CSV digest {out.digest} differs from earlier {first}")
        except (OutputError, OSError, ValueError, KeyError) as e:
            self.failed += 1
            print(f"FAILED job seed {job.seed} frames {job.frames}: {e}")
            return None
        finally:
            shutil.rmtree(job_dir, ignore_errors=True)
        return wall, out

    def repeat(self, step, minimum: int) -> None:
        """Call step(0), step(1), ...: at least ``minimum`` times, and more while
        another call, as long as the calls so far took on average, ends within --seconds."""
        start = time.perf_counter()
        i = 0
        while i < minimum or (time.perf_counter() - start) * (i + 1) / i <= self.seconds:
            step(i)
            i += 1

    def rss_pass(self, job: Job) -> float | None:
        """Peak resident bytes per CSV row that one job adds to a fresh process.

        Must be the run's first job: ru_maxrss is the process high-water mark.
        The job is untimed, so it also warms the process up for the timed jobs.
        """
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        res = self.simulate(job)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return None if res is None else (after - before) * 1024 / res[1].rows

    def tracemalloc_pass(self, job: Job) -> dict[str, float] | None:
        """One untimed job under tracemalloc: what run() and write_trace_csvs() add at peak, in MB."""
        layer_mb: dict[str, float] = {}

        def peak_of(name):
            def make(fn):
                def measured(*args, **kwargs):
                    base = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        layer_mb[name] = (tracemalloc.get_traced_memory()[1] - base) / 1e6
                return measured
            return make

        targets = [
            (self.cli, "run", peak_of("mem.run_peak_mb")),
            (self.cli, "write_trace_csvs", peak_of("mem.export_peak_mb")),
        ]
        tracemalloc.start()
        try:
            with patched(targets):
                res = self.simulate(job)
        finally:
            tracemalloc.stop()
        return None if res is None else layer_mb

    def setup_times(self, job: Job, probe: Probe) -> list[float]:
        """Times of parse_scenario plus Simulator construction, repeated on one
        input, at the reference host speed."""
        times = []
        gc.collect()
        with sampled(probe, periodic=False) as block:
            for _ in range(SETUP_REPS):
                doc = json.loads(job.text)
                doc.update(seed=job.seed, frames=job.frames)  # what simulate's --seed/--frames do
                start = time.perf_counter()
                self.engine.Simulator(self.parse_scenario(doc, source=f"{job.workload}.json"))
                times.append(time.perf_counter() - start)
        return [t * block.factor for t in times]

    # ------------------------------------------------------------ end to end

    def end_to_end(self) -> dict[str, float] | None:
        done, setup = [], []

        def one(j):
            job = self.job(j)
            res = self.simulate(job, probe=probe)
            if res is not None:
                done.append(res)
            # Set-up is timed between jobs, so its samples span the run like the jobs do.
            setup.extend(self.setup_times(job, probe))

        peak_per_row = self.rss_pass(self.job(0))
        probe = Probe()  # after the RSS pass, whose baseline it would raise
        self.repeat(one, MIN_JOBS)
        if not done or peak_per_row is None:
            return None
        walls = self.unscaled
        print(f"{self.workload}: {len(done)} timed jobs, unscaled wall s median "
              f"{statistics.median(walls):.4f} min {min(walls):.4f} max {max(walls):.4f}, "
              f"at reference speed median {statistics.median(s for s, _ in done):.4f}")
        return {
            "rows_per_s": statistics.median(out.rows / s for s, out in done),
            "setup_s": statistics.median(setup),
            "peak_bytes_per_row": peak_per_row,
            "synced_ratio": statistics.median(out.synced_ratio for _, out in done),
        }

    # ------------------------------------------------------------ traced

    def traced_targets(self, tracer: Tracer, traces: list) -> list:
        """Span wrappers for the traced job; ``traces`` receives the run's SimulationTrace."""
        def keep(fn):
            def run(scenario):
                traces.append(fn(scenario))
                return traces[-1]
            return run

        targets = [(self.cli, attr, lambda fn, n=name: tracer.wrap(n, fn)) for attr, name in CLI_SPANS]
        targets += [(self.engine, attr, lambda fn, n=name: tracer.wrap(n, fn)) for attr, name in ENGINE_SPANS]
        targets.append((self.engine.Simulator, "__init__", lambda fn: tracer.wrap("engine.init", fn)))
        # Outside the engine.run span, so only the list append lands in cli.self_s.
        targets.append((self.cli, "run", keep))
        return targets

    def layer_metrics(self, spans, trace, out) -> dict[str, float]:
        agg = self_times(spans)
        events = Counter(pe.event for pe in trace.packet_events)
        proto = Counter(pe.event for pe in trace.protocol_events)
        counts = {
            "radio_intervals": len(trace.radio_intervals),
            "packet_events": len(trace.packet_events),
            "sync_samples": len(trace.sync_samples),
            "queue_samples": len(trace.queue_samples),
            "protocol_events": len(trace.protocol_events),
            "join_requests": proto["join_request"],
            "joined": proto["synchronized"],
            **{e: events[e] for e in ("rx", "queue_drop", *LOSSES)},
        }

        def total(name):
            return agg.get(name, (0, 0.0, 0.0))[1]

        def own(name):
            return agg.get(name, (0, 0.0, 0.0))[2]

        def calls(name):
            return agg.get(name, (0, 0.0, 0.0))[0]

        records = sum(counts[k] for k in (
            "radio_intervals", "packet_events", "sync_samples", "queue_samples", "protocol_events"))
        heard = counts["rx"] + sum(counts[k] for k in LOSSES)
        m = {
            "cli.simulate_s": total("cli.simulate"),
            "cli.self_s": own("cli.simulate"),
            "scenario.parse_s": total("scenario.parse"),
            "engine.init_s": own("engine.init"),
            "engine.run_s": total("engine.run"),
            "engine.run_self_s": own("engine.run"),
            "engine.us_per_record": total("engine.run") * 1e6 / records,
            "engine.rx_ratio": counts["rx"] / heard if heard else 0.0,
        }
        for k in ("radio_intervals", "packet_events", "sync_samples", "protocol_events",
                  "rx", *LOSSES, "queue_drop"):
            m[f"engine.{k}"] = counts[k]
        for fn in ("handle_rx", "forwarding_step", "join_procedure", "make_beacon"):
            m[f"protocol.{fn}.calls"] = calls(f"protocol.{fn}")
            m[f"protocol.{fn}_s"] = total(f"protocol.{fn}")
        m["protocol.join_requests"] = counts["join_requests"]
        m["protocol.join_yield"] = counts["joined"] / counts["join_requests"] if counts["join_requests"] else 0.0
        m["timebase.resync.calls"] = calls("timebase.resync")
        m["timebase.resync_s"] = total("timebase.resync")
        m["timebase.max_eps_us"] = out.max_eps_us or 0.0
        m["phy.toa.calls"] = calls("phy.toa")
        m["phy.toa_s"] = total("phy.toa")
        m["export.write_s"] = own("export.write")
        m["export.measure_s"] = total("export.measure")
        m["export.rows"] = out.rows
        m["export.bytes"] = out.bytes
        m["summary.measure_s"] = total("summary.measure")
        return m

    def per_layer(self) -> dict[str, float] | None:
        tracer = Tracer()
        full, half = FRAMES[self.workload], FRAMES[self.workload] // 2
        untraced, halves, layers = [], [], []

        def cycle(j):
            job = self.job(j)
            res = self.simulate(job)
            if res is not None:
                untraced.append(res[0])
            traces: list = []
            tracer.job = j
            with patched(self.traced_targets(tracer, traces)):
                res = self.simulate(job, main=tracer.wrap("cli.simulate", self.cli.main))
            if res is not None:
                layers.append(self.layer_metrics(tracer.job_spans(j), traces[0], res[1]))
            res = self.simulate(self.job(j, half))
            if res is not None:
                halves.append(res[0])

        # Each cycle runs one job untraced, the same job traced, and a half-length job.
        mem = self.tracemalloc_pass(self.job(0))
        self.repeat(cycle, 2)
        tracer.write(OUT / f"spans-{self.workload}.csv")
        if not (untraced and halves and layers) or mem is None:
            return None
        m = {name: statistics.median(l[name] for l in layers) for name in layers[0]}
        m.update(mem)
        m["trace.untraced_simulate_s"] = statistics.median(untraced)
        m["trace.overhead"] = m["cli.simulate_s"] / m["trace.untraced_simulate_s"] - 1.0
        m["scale.frames_exp"] = math.log(m["trace.untraced_simulate_s"] / statistics.median(halves)) / math.log(full / half)
        unaccounted = max(abs(l["cli.simulate_s"] - sum(l[k] for k in SELF_TIMES)) for l in layers)
        print(f"{self.workload}: {len(layers)} traced jobs; layer self times cover each traced "
              f"cli.simulate_s to within {unaccounted:.2e} s; median traced "
              f"{m['cli.simulate_s']:.4f} s against untraced {m['trace.untraced_simulate_s']:.4f} s "
              f"(tracing overhead {m['trace.overhead']:+.2%})")
        return m


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(FRAMES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "lorahop" / "cli.py").is_file():
        print(f"error: no lorahop sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import lorahop.cli
    import lorahop.engine
    import lorahop.scenario

    bench = Bench(args.workload, args.seed, args.seconds, lorahop)
    try:
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)
    first = bench.job(0)
    print(f"{args.workload}: CSV digest seed {first.seed}: {bench.digests.get((first.seed, first.frames))}")
    print(f"{args.workload}: fail_ratio {bench.failed}/{bench.attempted}")
    if metrics is None:
        print("error: no job completed its checks", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"{args.workload}: {name} = {value:.6g} {unit(name)}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": v, "unit": unit(name)} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    for suffix, u in (("_s", "s"), ("_mb", "MB"), ("_us", "us"), ("_ratio", "ratio"),
                      ("_yield", "ratio"), ("_exp", "ratio"), ("overhead", "ratio")):
        if name.endswith(suffix):
            return u
    return "count"


if __name__ == "__main__":
    sys.exit(main())
