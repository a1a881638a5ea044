"""Regression checks: every line of the committed corpus digests, the
names in that file, the CSVs of the library API and the stdout of
``lorahop simulate`` on the named scenarios, the digest's repeatability,
and the names the traced benchmark run wraps."""

from __future__ import annotations

import hashlib
import importlib.util
import json

import pytest

import lorahop.cli
import lorahop.engine
from lorahop import run, write_trace_csvs
from lorahop.scenario import parse_scenario
from corpus import BENCH_JOBS, CORPUS, GENERATED, REPO, bench_digest, digest

# Corpus documents in ``CORPUS`` order, then bench jobs.
DIGEST_LINES = (REPO / "tests" / "corpus_digests.txt").read_text().splitlines()
DIGEST_NAMES = [line.partition(" ")[0] for line in DIGEST_LINES]
COMMITTED = dict(zip(DIGEST_NAMES, DIGEST_LINES))
REGENERATE = "PYTHONPATH=src python tests/corpus.py > tests/corpus_digests.txt"
MOVED = f"If on purpose, regenerate with `{REGENERATE}` and record old -> new in CHANGES.md"
# The committed scenarios and the generated ones (corpus.GENERATED).
NAMED = ["star4", "line4", *GENERATED]


@pytest.mark.parametrize(("name", "line"), zip(DIGEST_NAMES, DIGEST_LINES), ids=DIGEST_NAMES)
def test_output_bytes_unmoved(name, line, audits):
    # Each corpus document's digest comes from the run that audits it;
    # the bench jobs are digested here, unaudited.
    got = bench_digest(name) if name in BENCH_JOBS else audits[name].digest
    assert got == line, f"{name}: the CSVs or stdout of lorahop simulate moved. {MOVED}"


@pytest.mark.parametrize("name", sorted(NAMED))
def test_csv_bytes_pinned(name, tmp_path, audits):
    # The library API writes the CSV bytes that lorahop simulate wrote in
    # the audited run, whose committed digest line pins them.
    paths = write_trace_csvs(run(parse_scenario(CORPUS[name]())), tmp_path)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    assert got == audits[name].csv_hashes
    assert audits[name].digest == COMMITTED[name], f"{name}: the CSVs or stdout moved. {MOVED}"


@pytest.mark.parametrize("name", sorted(["star4_reversed", *NAMED]))
def test_simulate_stdout_pinned(name, audits):
    # The committed digest line pins the audited run's stdout; the lines it
    # leaves out are one ``wrote`` line per CSV, and the per-node lines
    # follow the file's node order (star4_reversed lists star4's last to first).
    audit = audits[name]
    assert sorted(audit.wrote) == sorted(audit.csv_hashes)
    node_lines = [line for line in audit.stdout.splitlines() if line.startswith("node ")]
    node_ids = [int(line.split(":")[0].removeprefix("node ")) for line in node_lines]
    assert node_ids == [node["id"] for node in CORPUS[name]()["nodes"]]
    assert audit.digest == COMMITTED[name], f"{name}: the CSVs or stdout moved. {MOVED}"


def test_digest_of_a_document_is_the_same_twice(audits):
    # Run again in the same process, after the whole corpus, a document
    # gives the audited run's digest line: no state carries between runs.
    for name in ("star4", "line4"):
        again = digest(name, json.dumps(CORPUS[name]()))
        assert again.startswith(f"{name} ")
        assert again == audits[name].digest


def test_digest_file_names_each_document_and_bench_job_once():
    # A document without a line, or a stale line, fails here by name.
    assert DIGEST_NAMES == [*CORPUS, *BENCH_JOBS], f"regenerate with `{REGENERATE}`"


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
