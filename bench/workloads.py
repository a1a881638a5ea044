"""Scenario files for the benchmark workloads, made from a seed.

A workload turns a job seed into the scenario text that ``lorahop
simulate`` receives, the extra ``simulate`` arguments, and what the
output checks need to know: the node count, the simulated end time and
the tree edges. The same seed always gives the same job.

Why each workload:

- ``tree64``: many nodes, so per-node rescans of the whole trace dominate
  (the engine's finalize step, the summary in ``write_trace_csvs`` and the
  CLI's summary measures). An indexing fix must show here.
- ``line4_long``: four nodes over a long horizon, so per-event work
  dominates (heap, frame scheduling, packet logging, ``handle_rx``,
  ``resync``). An indexing fix should not move it; an event-loop change
  should.
- ``star32_contend``: 31 leaves join from cold through one contention
  slot, so delivery mostly resolves collisions and nodes keep retrying
  join, where the other two run in clean TDMA steady state.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# Slot length and tick rate of the committed scenarios (SF9, 0.649 s slots).
TICKS_PER_SLOT = 21281
TICK_RATE_HZ = 32768
DRIFT_PPM = 20.0
POWER = {"p_sleep": 1e-5, "p_rx": 0.036, "p_tx": 0.120, "p_app": 0.030, "tau_app": 1.0}

FRAMES = {"tree64": 150, "line4_long": 3200, "star32_contend": 1500}


@dataclass(frozen=True)
class Job:
    """One ``simulate`` job: the scenario file text and its CLI arguments."""

    workload: str
    seed: int
    frames: int
    text: str
    args: tuple[str, ...]
    nodes: int
    end_s: float
    edges: frozenset[tuple[int, int]]


def _end_s(doc: dict, frames: int) -> float:
    sched = doc["schedule"]
    frame_ticks = sched["slots_per_frame"] * sched["ticks_per_slot"]
    return frames * (frame_ticks / sched.get("tick_rate_hz", TICK_RATE_HZ))


def _generated(workload: str, seed: int, frames: int, edges, power: bool) -> Job:
    n = len(edges) + 1
    rng = random.Random(seed)
    # The relay is the time reference; every other crystal drifts.
    drifts = [0.0] + [round(rng.uniform(-DRIFT_PPM, DRIFT_PPM), 3) for _ in range(n - 1)]
    doc = {
        "schema_version": 1,
        "name": workload,
        "frames": frames,
        "seed": seed,
        # k = n: every node's packet fits in one collection period (n <= k).
        "k": n,
        "app_payload_bytes": 24,
        "schedule": {
            "max_nodes": n,
            "slots_per_frame": 3 * n + 2,
            "ticks_per_slot": TICKS_PER_SLOT,
            "tick_rate_hz": TICK_RATE_HZ,
        },
        "guard": {"base_guard": 0.010},
        "nodes": [{"id": i, "relay": i == 0, "drift_ppm": d} for i, d in enumerate(drifts)],
        "links": [{"from": a, "to": b} for a, b in edges],
    }
    if power:
        doc["power"] = dict(POWER)
    return Job(workload, seed, frames, json.dumps(doc, indent=1), (), n,
               _end_s(doc, frames), frozenset(edges))


def make_job(workload: str, seed: int, root: Path, frames: int | None = None) -> Job:
    """The job of one workload for one seed, at its full length unless ``frames`` is given."""
    frames = FRAMES[workload] if frames is None else frames
    if workload == "tree64":
        # Node i hangs under (i-1)//2 and hears only its tree neighbours.
        return _generated(workload, seed, frames, [((i - 1) // 2, i) for i in range(1, 64)], True)
    if workload == "star32_contend":
        return _generated(workload, seed, frames, [(0, i) for i in range(1, 32)], False)
    if workload == "line4_long":
        text = (root / "scenarios" / "line4.json").read_text()
        doc = json.loads(text)
        edges = frozenset((link["from"], link["to"]) for link in doc["links"])
        args = ("--seed", str(seed), "--frames", str(frames))
        return Job(workload, seed, frames, text, args, len(doc["nodes"]),
                   _end_s(doc, frames), edges)
    raise KeyError(workload)
