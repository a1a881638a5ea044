"""Checks on the CSV files one ``simulate`` job wrote, and what they read from them."""

from __future__ import annotations

import csv
import hashlib
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from workloads import Job

CSV_FILES = ("radio_states.csv", "packet_events.csv", "sync_samples.csv", "summary.csv")
# Times are written with nine decimals, so neighbours may differ by rounding.
TIME_TOL = 2e-9


class OutputError(Exception):
    """A job's output breaks one of the invariants the benchmark checks."""


@dataclass(frozen=True)
class Output:
    digest: str
    rows: int
    bytes: int
    synced_ratio: float
    max_eps_us: float | None


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


def _check_partition(rows: list[dict[str, str]], job: Job) -> None:
    """Each node's radio states must tile [0, end] without gaps or overlaps."""
    by_node: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for r in rows:
        by_node[int(r["node"])].append((float(r["start_s"]), float(r["end_s"])))
    if sorted(by_node) != list(range(job.nodes)):
        raise OutputError(f"radio_states.csv covers nodes {sorted(by_node)}")
    for node, spans in by_node.items():
        cursor = 0.0
        for start, end in spans:
            if abs(start - cursor) > TIME_TOL or end <= start:
                raise OutputError(
                    f"radio_states.csv: node {node} has [{start}, {end}] after {cursor}"
                )
            cursor = end
        if abs(cursor - job.end_s) > 1e-6:
            raise OutputError(f"radio_states.csv: node {node} ends at {cursor}, not {job.end_s}")


def read_output(out_dir: Path, job: Job) -> Output:
    """Check one job's CSVs and read the figures the benchmark reports from them."""
    paths = [out_dir / name for name in CSV_FILES]
    digest = hashlib.sha256()
    rows = size = 0
    for p in paths:
        data = p.read_bytes()
        digest.update(p.name.encode() + b"\0" + data)
        size += len(data)
        rows += data.count(b"\n") - 1
    _check_partition(_rows(paths[0]), job)
    summary = _rows(paths[3])
    ids = sorted(int(r["node"]) for r in summary)
    if ids != list(range(job.nodes)):
        raise OutputError(f"summary.csv has rows for nodes {ids}, want one per node")
    synced = sum(r["final_mode"] == "synchronized" for r in summary)
    eps = [
        abs(float(r["epsilon_us"]))
        for r in _rows(paths[2])
        if (int(r["parent"]), int(r["child"])) in job.edges
    ]
    return Output(digest.hexdigest(), rows, size, synced / job.nodes, max(eps, default=None))
