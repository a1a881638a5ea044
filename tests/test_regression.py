"""Regression pins: exact CSV bytes of the shipped scenarios, of tight-guard
variants of them and of generated multi-node ones, the digest command's
repeatability, and the names the traced benchmark run wraps."""

from __future__ import annotations

import hashlib
import importlib.util
import json

import pytest

import lorahop.cli
import lorahop.engine
from lorahop import run, write_trace_csvs
from lorahop.scenario import parse_scenario
from corpus import CORPUS, REPO, digest, simulate

# SHA-256 of each CSV at the scenario's committed seed and frame count
# (the generated scenarios are in corpus.GENERATED).
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
    "star16": {
        "packet_events.csv": "bcd920002181d27781da71196dc9b30c935c30ef390a315454b2ce8199fd8393",
        "radio_states.csv": "46918d34f834aa79654ce9fb74ee9a8f232e6b7ac831fc690c00bb76727e8988",
        "summary.csv": "91cdffeb1868feaa81e779b9096ab2c610b661394ea34dd4d150fb1546fd9a32",
        "sync_samples.csv": "be27bb282f6a6a310832e29af3c5f77ca6047ecd34e32560dfdcbc745131eaed",
    },
    "tree16": {
        "packet_events.csv": "32cd4e9ad2adcb0f95703f56008141991e2c7711e205ad70d0d3b602545d7749",
        "radio_states.csv": "c28cfa10c1cd1b2ee174b2bd7b1405dccc438f8fbc2f4c7f73fdbd5c34b263fd",
        "summary.csv": "b01453a7edbf802e12d148d2e2677669f625f220aa6712e6343829b71ed90103",
        "sync_samples.csv": "4c490ab88291694e049ce8e195672f763653c496f9a8fc10c0beae8a6aebd94e",
    },
    "star32": {
        "packet_events.csv": "89f595d6246b73f5a6de90ff9940c30e52c469cd6b7c40bc7c876897070ecf4b",
        "radio_states.csv": "eafc1105940ac66f7346907f55c1086ea8c33a774a22c013c2f5f82d31f306ca",
        "summary.csv": "200a95c7625d38337115ad66a00129ea9e4a5011e80e2381c6862a6760364670",
        "sync_samples.csv": "bbc36402bca77067eb38466e11f2cd5e4f8cee9454eed9c5148c646f9c48ac2f",
    },
    "star4_tight": {
        "packet_events.csv": "4e5a3253341c0b381e4bd01dc16e071789cac691336c67a4d2d88b068df384a2",
        "radio_states.csv": "a04e48ed6e74007d769f8c39bcdf325581794c7828c87d0dbacde74bc2426a98",
        "summary.csv": "b27a66fb45cf5a44d907adab95e0cf4a2f229cdb615a3f902a36c64c0ae997fb",
        "sync_samples.csv": "e67d4932e71bd2555d9b0303a6c4cdcc0c452d5cfb9f816d76cafcd1f1d1c78e",
    },
    "line4_tight": {
        "packet_events.csv": "6bfb174a576172c68675b8c449927dd6d70792640fa9eb73bf47c5ce5b6aa4cb",
        "radio_states.csv": "69ffd0daed61b780e31029b6a573b9eb653887f29dc659a9ba70f5ff894a7765",
        "summary.csv": "d8e4148db0fb44f63664e4698bd21cf60a8d029ee19e28f77742a481f68a15be",
        "sync_samples.csv": "e03f16253f1cb18004c0dd5e58a7532908e399795893251ebed4acaa9684daf5",
    },
    "tree16_cap1": {
        "packet_events.csv": "674e0d7cc32bd672988d50d708cc0d0e780874d1dc19d0103ef83053da8a5162",
        "radio_states.csv": "2e1882687365b496d2a3de086c70b09aaee9e436d8cb0319e3591555a1013334",
        "summary.csv": "ce6e08a08eb122f9e40b92a389528c647b6457c44b27fa1f1a1b89b819a528d6",
        "sync_samples.csv": "b890139feb86b9975d9c0fb4caf2d7d505d49d05b797c7ebfb4e36003ca646f6",
    },
    "tree16_tight": {
        "packet_events.csv": "9d4c51fc1c92fdd9d32bc4ec7076f6d1e6318baa819d8722eee8141c31d52315",
        "radio_states.csv": "6a7e198aca91d870be069fd1e6d56631434c77aa9cefe1ed03ec80db66a5e7cc",
        "summary.csv": "ca9b574d7b8c8b4e8974ed30af13100087bca80f39f72cc674064259612b9451",
        "sync_samples.csv": "e29f99981b0a3204bc42bbb22d3414ad5dfba31ca419ad683ee4bf375e00a1e4",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_csv_bytes_pinned(name, tmp_path):
    paths = write_trace_csvs(run(parse_scenario(CORPUS[name]())), tmp_path)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    assert got == PINNED[name]


# SHA-256 of ``lorahop simulate``'s standard output without its ``wrote``
# lines, at the committed seed and frame count. ``star4_reversed`` lists
# star4's nodes last to first: the per-node lines follow the file's order.
PINNED_STDOUT = {
    "star4": "676f91016425ee8f30a330d63a31c493dea2e63bb3455fabc9bbb06a76e20fbb",
    "line4": "af3025f895d559991285e16672ebf300583505190a6249629bd55aa128868b0e",
    "tree16": "cc4bfc045cbb19dc04b631ce467f6c2592b9dd33a8976fb32e02b79fade6c619",
    "star4_reversed": "98fc2ed1e7a9e7bff354367b8adb8f0ecd2b607c3c0bd40f05082704f7cbe75e",
    "star4_tight": "40b3b69cb6238ecb79b8ed099eca1c0ba7875ed760f24ee686fc1e32340ca026",
    "line4_tight": "f80fd7b4288a170f79803d2a03f9eec7ad24eb8bd63df7613d6bac593751f309",
    "tree16_cap1": "57b167023a204bf309d22a3e70348d5dd8ad63e147470c1d93892cce4f434b61",
    "tree16_tight": "a7b20656712d632a4cd3603246303024f7689db3f9fbcc80f27126137eefcae8",
}


def _stdout_doc(name: str) -> dict:
    doc = CORPUS[name.removesuffix("_reversed")]()
    if name.endswith("_reversed"):
        doc["nodes"].reverse()
    return doc


@pytest.mark.parametrize("name", sorted(PINNED_STDOUT))
def test_simulate_stdout_pinned(name):
    stdout, _csvs = simulate(json.dumps(_stdout_doc(name)))
    assert hashlib.sha256(stdout.encode()).hexdigest() == PINNED_STDOUT[name]


def test_digest_of_a_document_is_the_same_twice():
    # The digest command is how a change shows that no output byte moved;
    # it must not differ between two runs of the same code.
    for name in ("star4", "line4"):
        text = json.dumps(CORPUS[name]())
        first = digest(name, text)
        assert first.startswith(f"{name} ")
        assert digest(name, text) == first


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


def test_bench_workload_documents_still_run(monkeypatch, tmp_path, capsys):
    # The benchmark simulates these documents; a schema change that refuses
    # one would otherwise only show as failed benchmark jobs.
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")
    for workload in workloads.FRAMES:
        job = workloads.make_job(workload, 1000, REPO, 3)
        scenario = tmp_path / f"{workload}.json"
        scenario.write_text(job.text)
        out = tmp_path / workload
        assert lorahop.cli.main(["simulate", str(scenario), "--out", str(out), *job.args]) == 0, workload
        capsys.readouterr()
        assert checks.read_output(out, job).rows > 0
