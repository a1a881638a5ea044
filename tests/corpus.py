"""The scenario corpus the invariant tests share, its audit, and its digests.

``CORPUS`` names every document once (650 in all). ``Audit(name, doc)``
runs one through ``lorahop simulate`` under one set of wrappers, around
``heapq``, the queue admission calls and the CLI's ``run``: that one run
gives both what the wrappers saw and the document's digest line.
``tests/conftest.py`` audits the corpus once per session.

A digest line is a name and one SHA-256 over the CSVs and the stdout,
``wrote`` lines left out, of ``lorahop simulate``. ``tests/corpus_digests.txt``
holds 655 of them, one per corpus document and then one per short bench
job, and tier-1 checks each line. When outputs move on purpose, regenerate
the file with ``PYTHONPATH=src python tests/corpus.py > tests/corpus_digests.txt``
and record each moved line, old -> new, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import heapq
import io
import json
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

import lorahop.cli
import lorahop.engine
import lorahop.protocol
from lorahop.engine import Simulator, measure_avg_power, measure_duty_cycle
from lorahop.protocol import DESYNCHRONIZED, JOINING, SYNCHRONIZED, UNJOINED
from lorahop.scenario import read_scenario_doc

REPO = Path(__file__).resolve().parent.parent


def generated_doc(name: str, edges: list[tuple[int, int]], frames: int, seed: int, power: bool) -> dict:
    """A scenario whose relay is node 0, with the given bidirectional links.

    Every other node drifts by a seeded draw in +-20 ppm; the frame holds
    3n + 2 slots of the committed SF9 length, and k = n.
    """
    n = len(edges) + 1
    rng = random.Random(seed)
    drifts = [0.0] + [round(rng.uniform(-20.0, 20.0), 3) for _ in range(n - 1)]
    doc = {
        "schema_version": 1,
        "name": name,
        "frames": frames,
        "seed": seed,
        "k": n,
        "app_payload_bytes": 24,
        "schedule": {
            "max_nodes": n,
            "slots_per_frame": 3 * n + 2,
            "ticks_per_slot": 21281,
            "tick_rate_hz": 32768,
        },
        "guard": {"base_guard": 0.010},
        "nodes": [{"id": i, "relay": i == 0, "drift_ppm": d} for i, d in enumerate(drifts)],
        "links": [{"from": a, "to": b} for a, b in edges],
    }
    if power:
        doc["power"] = {"p_sleep": 1e-5, "p_rx": 0.036, "p_tx": 0.120, "p_app": 0.030, "tau_app": 1.0}
    return doc


def committed_doc(name: str) -> dict:
    return read_scenario_doc(REPO / "scenarios" / f"{name}.json")


def reversed_doc(name: str) -> dict:
    """A committed scenario with its nodes listed last to first: the
    per-node stdout lines follow the file's order."""
    doc = committed_doc(name)
    doc["nodes"].reverse()
    return doc


def tight_doc(name: str) -> dict:
    """A committed scenario with a 0.4 ms base guard, run for 60 frames.

    The guard is below what the drifts need, so beacons are missed, nodes
    desynchronize and join again: the paths a clean run never takes.
    """
    doc = committed_doc(name)
    doc["guard"]["base_guard"] = 0.0004
    doc["frames"] = 60
    return doc


# Generated scenarios: a 16-node binary tree (node i hangs under (i - 1) // 2)
# with a power profile, and 16 or 31 leaves joining one relay from cold, whose
# JoinRequests collide. In star32 every relay beacon reaches 31 listeners.
# The tight variants miss beacons and desynchronize (star4_tight: 141 misses,
# 34 desyncs; line4_tight: 60 and 14, and it forwards JoinRequests).
# tree16_cap1 is tree16 with room for one packet per queue: forwarders drop
# UpData, JoinRequests and a JoinAccept, and the relay drops an UpData.
# tree16_tight is tree16 with a 0.4 ms guard over 60 frames: 199 beacon
# misses, 14 desyncs, 27 syncs and 71 lost_window, with parents that wake
# several children's downlink services and flywheel beacon windows four
# hops deep.
GENERATED = {
    "tree16": lambda: generated_doc("tree16", [((i - 1) // 2, i) for i in range(1, 16)], 40, 16, True),
    "star16": lambda: generated_doc("star16", [(0, i) for i in range(1, 17)], 60, 20, False),
    "star32": lambda: generated_doc("star32", [(0, i) for i in range(1, 32)], 150, 32, False),
    "star4_tight": lambda: tight_doc("star4"),
    "line4_tight": lambda: tight_doc("line4"),
    "tree16_cap1": lambda: {**GENERATED["tree16"](), "queue_capacity": 1},
    "tree16_tight": lambda: {**GENERATED["tree16"](), "guard": {"base_guard": 0.0004}, "frames": 60},
}


def _random_doc(seed: int) -> dict:
    """A random scenario: 2-12 nodes on a random tree plus extra links, PER
    up to 0.5 on about half the links, drifts in +-60 ppm, a 0.5-50 ms base
    guard and 10-60 frames."""
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(range(n), 2)
        if (b, a) not in edges:
            edges.add((a, b))
    links = []
    for a, b in sorted(edges):
        link = {"from": a, "to": b}
        if rng.random() < 0.5:
            link["per"] = round(rng.uniform(0.0, 0.5), 3)
        links.append(link)
    drifts = [0.0] + [round(rng.uniform(-60.0, 60.0), 3) for _ in range(n - 1)]
    return {
        "schema_version": 1,
        "name": f"random{seed}",
        "frames": rng.randint(10, 60),
        "seed": seed,
        "k": n,
        "app_payload_bytes": 24,
        "schedule": {"max_nodes": n, "slots_per_frame": 3 * n + 2, "ticks_per_slot": 21281},
        "guard": {"base_guard": round(rng.uniform(0.0005, 0.05), 4)},
        "nodes": [{"id": i, "relay": i == 0, "drift_ppm": d} for i, d in enumerate(drifts)],
        "links": links,
    }


def _tight_random_doc(seed: int) -> dict:
    """``_random_doc(seed)`` with a 0.4 ms guard, run for 80 frames."""
    doc = _random_doc(seed)
    doc["guard"]["base_guard"] = 0.0004
    doc["frames"] = 80
    return doc


# Every document by name, each made fresh by its function. The "_cap1"
# documents have room for one packet per queue: relays and forwarders drop
# samples, child data, JoinRequests and JoinAccepts.
CORPUS = {
    "star4": functools.partial(committed_doc, "star4"),
    "line4": functools.partial(committed_doc, "line4"),
    "star4_reversed": functools.partial(reversed_doc, "star4"),
    **GENERATED,
    **{f"random{seed}": functools.partial(_random_doc, seed) for seed in range(300)},
    **{f"random{seed}_tight": functools.partial(_tight_random_doc, seed) for seed in range(300)},
    **{f"random{seed}_cap1": lambda seed=seed: {**_random_doc(seed), "queue_capacity": 1} for seed in range(40)},
}

# Each slot service by handler name, and whether its node has work for it.
_SERVICE_WORK = {
    "_ev_own_uplink": lambda rt, frame, slot, t: bool(rt.st.uplink_queue),
    "_ev_lorawan": lambda rt, frame, t: bool(rt.st.uplink_queue),
    "_ev_child_downlink": lambda rt, frame, slot, t: any(s == slot for _p, s in rt.st.downlink_queue),
}


def mode_fault(rt) -> str | None:
    """The first fact of the node's runtime ``rt`` that disagrees with its
    mode, or None. A synchronized node holds an address, and one that is
    not the relay a parent; a joining node holds the parent it asked; a
    node that is not synchronized listens."""
    st = rt.st
    if st.mode is SYNCHRONIZED:
        if st.address is None:
            return "synchronized without an address"
        if st.parent_id is None and not st.is_relay:
            return "synchronized without a parent"
        return None
    if st.mode is JOINING and st.parent_id is None:
        return "joining without a parent"
    if rt.listen_from is None:
        return f"{st.mode.value} and not listening"
    return None


# The queue admission calls, under each module that calls them by name.
ENQUEUES = [(m, name) for m in (lorahop.protocol, lorahop.engine) for name in ("enqueue_up", "enqueue_down")]


class Audit:
    """One run of a corpus document through ``lorahop simulate``, under one
    set of wrappers around ``heapq``, the queue admission calls and the
    CLI's ``run``, and what they saw.

    ``digest``: the document's digest line, from ``stdout`` (without the
    ``wrote`` lines, whose file names are ``wrote``) and ``csv_hashes``, the
    SHA-256 of each CSV by file name. ``wide_sync_rows``: the
    ``sync_samples.csv`` rows whose |epsilon| reaches 40 us, as (frame,
    parent, child, epsilon in us). ``parent_from``: per node, the parent
    address it tracks from the frame of each of its synchronized events,
    and None from that of each desynchronized one, as (frame, address), in
    the order of the events. ``idle_pops``: slot-service pops
    up to the end that found no work, of ``service_pops``. ``early_pushes``:
    slot services keyed before the event being handled. ``out_of_order``:
    pops keyed before the previous pop, as (handler, node address, parent
    address). ``attempt_pops``: join-attempt pops; ``idle_attempts``: those
    whose node is not unjoined or desynchronized, or holds no candidate, as
    (time, node, mode). ``double_attempts``: join-attempt pushes for a node
    that has one pending, as (time, node). ``refused``: refusals by each
    node's queues; ``drops``: queue_drop rows as (node, kind). ``gapped``:
    nodes whose timeline has a gap or stops short of the end.
    ``intervals``: radio intervals other than sleep. ``measure_mismatches``:
    nodes whose ``trace.node_measures`` are not the full-run
    ``measure_duty_cycle`` and ``measure_avg_power``. ``mode_pops``: every
    pop, each checked against its node's mode; ``mode_faults``: those
    whose node's facts disagree with it (see ``mode_fault``), as
    (handler, time, node, fault). What it wraps is restored even if the
    run raises.
    """

    def __init__(self, name: str, doc: dict) -> None:
        self.service_pops = self.pushes = self.attempt_pops = self.mode_pops = 0
        self.idle_pops, self.early_pushes, self.out_of_order = [], [], []
        self.mode_faults = []
        self.idle_attempts, self.double_attempts = [], []
        attempting = set()  # nodes with a join attempt on the heap
        self.refused = Counter()
        end_ns = 0
        current = (-1,)  # the entry being handled: keys below it are in the past
        pop, push = heapq.heappop, heapq.heappush

        def watched_pop(heap):
            nonlocal current
            entry = pop(heap)
            t_ns, _prio, nid, _seq, fn, args = entry
            if entry[:3] < current[:3]:
                self.out_of_order.append((fn.__name__, args[0].st.address, args[0].st.parent_id))
            current = entry
            self.mode_pops += 1
            fault = mode_fault(args[0])
            if fault is not None:
                self.mode_faults.append((fn.__name__, t_ns, nid, fault))
            if fn.__name__ == "_ev_join_attempt":
                self.attempt_pops += 1
                attempting.discard(nid)
                st = args[0].st
                if st.mode not in (UNJOINED, DESYNCHRONIZED) or not args[0].candidates:
                    self.idle_attempts.append((t_ns, nid, st.mode.value))
            work = _SERVICE_WORK.get(fn.__name__)
            if work is not None and t_ns <= end_ns:
                self.service_pops += 1
                if not work(*args):
                    self.idle_pops.append((fn.__name__, t_ns, nid))
            return entry

        def watched_push(heap, entry):
            self.pushes += 1
            if entry[4].__name__ == "_ev_join_attempt":
                if entry[2] in attempting:
                    self.double_attempts.append((entry[0], entry[2]))
                attempting.add(entry[2])
            if entry[4].__name__ in _SERVICE_WORK and entry[:3] < current[:3]:
                self.early_pushes.append((entry[4].__name__, entry[:3], current[:3]))
            push(heap, entry)

        def counting(enqueue):
            def wrapped(node, *args):
                queued = enqueue(node, *args)
                if not queued:
                    self.refused[node.node_id] += 1
                return queued

            return wrapped

        def audited_run(scenario):
            nonlocal end_ns
            sim = Simulator(scenario)
            self.nodes, self.frames, self.relay = len(sim.nodes), sim.sc.frames, sim.relay_id
            end_ns = round(sim.end_time * 1e9)
            trace = sim.run()
            self._read(trace)
            return trace

        wraps = [
            (heapq, "heappop", watched_pop),
            (heapq, "heappush", watched_push),
            (lorahop.cli, "run", audited_run),
            *((m, attr, counting(getattr(m, attr))) for m, attr in ENQUEUES),
        ]
        saved = [(m, attr, getattr(m, attr)) for m, attr, _wrapper in wraps]
        try:
            for m, attr, wrapper in wraps:
                setattr(m, attr, wrapper)
            self.stdout, csvs, self.wrote = simulate(json.dumps(doc))
            self.csv_hashes = csv_hashes(csvs)
            self.digest = digest_line(name, self.stdout, self.csv_hashes)
            rows = (line.split(",") for line in csvs["sync_samples.csv"].decode().splitlines()[1:])
            self.wide_sync_rows = [
                (int(frame), int(parent), int(child), float(eps))
                for frame, parent, child, eps in rows
                if abs(float(eps)) >= 40.0
            ]
        finally:
            for m, attr, original in saved:
                setattr(m, attr, original)

    def _read(self, trace) -> None:
        end = trace.end_time
        cursor = dict.fromkeys(trace.final_modes, 0.0)
        gapped = set()
        for n, _state, s, e in trace.radio_intervals:
            if abs(s - cursor[n]) > 1e-9:
                gapped.add(n)
            cursor[n] = e
        self.gapped = sorted(gapped.union(n for n, c in cursor.items() if abs(c - end) > 1e-6 * end))
        self.intervals = sum(state != "sleep" for _n, state, _s, _e in trace.radio_intervals)
        self.drops = [(ev.node, ev.kind) for ev in trace.packet_events if ev.event == "queue_drop"]
        self.packet_events = len(trace.packet_events)
        self.desyncs = sum(ev.event == "desynchronized" for ev in trace.protocol_events)
        self.parent_from = {}
        for ev in trace.protocol_events:
            if ev.event in ("synchronized", "desynchronized"):
                fields = dict(field.split("=") for field in ev.detail.split())
                parent = int(fields["parent"]) if "parent" in fields else None
                self.parent_from.setdefault(ev.node, []).append((int(fields["frame"]), parent))
        power = trace.scenario.power
        self.measure_mismatches = [
            nid
            for nid, measures in trace.node_measures.items()
            if measures
            != (
                measure_duty_cycle(trace, nid, end),
                measure_avg_power(trace, nid, power) if power else None,
            )
        ]


def audit_corpus() -> dict[str, Audit]:
    """Each corpus document's audit by name; a run that fails names its document."""
    audits = {}
    for name, make in CORPUS.items():
        try:
            audits[name] = Audit(name, make())
        except Exception as exc:
            raise RuntimeError(f"corpus document {name}") from exc
    return audits


def simulate(text: str, args: tuple[str, ...] = ()) -> tuple[str, dict[str, bytes], list[str]]:
    """``lorahop simulate`` on scenario ``text``: its stdout without the
    ``wrote`` lines, each CSV's bytes by file name, and the file names the
    ``wrote`` lines give."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out_dir = Path(tmp) / "scenario.json", Path(tmp) / "out"
        path.write_text(text)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = lorahop.cli.main(["simulate", str(path), *args, "--out", str(out_dir)])
        if rc != 0:
            raise RuntimeError(f"simulate exited {rc}: {stderr.getvalue().strip()}")
        csvs = {csv.name: csv.read_bytes() for csv in out_dir.glob("*.csv")}
    lines = stdout.getvalue().splitlines(keepends=True)
    wrote = [Path(line[len("wrote ") :].rstrip("\n")).name for line in lines if line.startswith("wrote ")]
    return "".join(line for line in lines if not line.startswith("wrote ")), csvs, wrote


def csv_hashes(csvs: dict[str, bytes]) -> dict[str, str]:
    """Each CSV's SHA-256 by file name."""
    return {csv_name: hashlib.sha256(data).hexdigest() for csv_name, data in csvs.items()}


def digest_line(name: str, stdout: str, csv_hashes: dict[str, str]) -> str:
    """``name`` and one SHA-256 over the CSV hashes and the stdout that
    ``simulate`` returns."""
    h = hashlib.sha256()
    for csv_name, csv_hash in sorted(csv_hashes.items()):
        h.update(f"{csv_name} {csv_hash}\n".encode())
    h.update(stdout.encode())
    return f"{name} {h.hexdigest()}"


def digest(name: str, text: str, args: tuple[str, ...] = ()) -> str:
    """The digest line of ``lorahop simulate`` on scenario ``text``."""
    stdout, csvs, _wrote = simulate(text, args)
    return digest_line(name, stdout, csv_hashes(csvs))


# Short bench jobs by digest name: (workload, seed, frames; None for the full length).
BENCH_JOBS = {
    f"{workload}_{seed}": (workload, seed, frames)
    for workload, seed, frames in [
        ("tree64", 1000, None),
        ("tree64", 7, None),
        ("line4_long", 1000, 800),
        ("star32_contend", 1000, 400),
        ("star32_contend", 84000, 400),
    ]
}


def bench_digest(name: str) -> str:
    """The digest line of the short bench job ``name``."""
    if str(REPO / "bench") not in sys.path:
        sys.path.append(str(REPO / "bench"))
    from workloads import make_job

    workload, seed, frames = BENCH_JOBS[name]
    job = make_job(workload, seed, REPO, frames)
    return digest(name, job.text, job.args)


def main() -> None:
    for name, make in CORPUS.items():
        print(digest(name, json.dumps(make())), flush=True)
    for name in BENCH_JOBS:
        print(bench_digest(name), flush=True)


if __name__ == "__main__":
    main()
