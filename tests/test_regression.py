"""Regression pins: exact CSV bytes of the shipped scenarios, and the names
the traced benchmark run wraps."""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

import pytest

import lorahop.cli
import lorahop.engine
from lorahop import load_scenario, run, write_trace_csvs

REPO = Path(__file__).resolve().parent.parent

# SHA-256 of each CSV at the scenario's committed seed and frame count.
# A change that moves any output byte must update these on purpose.
PINNED = {
    "star4": {
        "packet_events.csv": "dd3e450752c51306cec7bb61f0f340534966965a76b57fce6c6cdf639684eca5",
        "radio_states.csv": "b19c32bd12ad9d541edfb870912ff744d3d5e712e881fc14060cdc77e763d317",
        "summary.csv": "c2fc30ad5b491d668f5c04e7e602e1bfbd950de73e450d7f24e2e4f2b608316d",
        "sync_samples.csv": "7ba91422e674743b6c7c32029bd21657e04521d20604ab50cd6ca31aa53954b6",
    },
    "line4": {
        "packet_events.csv": "a64cd44ad2fae998cfb0f69bf91b8386d05a6087350eb1d3ae229219cd591fb3",
        "radio_states.csv": "bffd693bbe7d3af2aac59d578c32e99dcf20213228c6421a21e3903c263a08f7",
        "summary.csv": "a767826177a9285124bbdb0e5a884a2dbb07a65e35d10aba351b1478417fc88c",
        "sync_samples.csv": "87e2c11b841935328f65c2d7a943c788fa9458631ae392ca12193aca9419a660",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_csv_bytes_pinned(name, tmp_path):
    paths = write_trace_csvs(run(load_scenario(REPO / "scenarios" / f"{name}.json")), tmp_path)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    assert got == PINNED[name]


def test_bench_span_targets_resolve(monkeypatch):
    # The traced benchmark run patches these attributes by name; a rename
    # would otherwise only break that run.
    bench = REPO / "bench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("bench_run", bench / "run.py")
    bench_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_run)
    for module, spans in ((lorahop.cli, bench_run.CLI_SPANS), (lorahop.engine, bench_run.ENGINE_SPANS)):
        for attr, _span in spans:
            assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    assert "__init__" in vars(lorahop.engine.Simulator)
