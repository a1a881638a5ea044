"""The model's open gaps as gates (ROADMAP items 1, 2 and 3).

Each test asserts what the paper's model promises, and is marked
``xfail(strict=True)`` with today's figure in its reason: the change that
closes a gap makes its test pass, and strict turns that pass into a
failure until the same change removes the marker. No test pins today's
figure, so none can hold a defect in place.
"""

from __future__ import annotations

import pytest

from lorahop import run
from lorahop.scenario import parse_scenario
from corpus import CORPUS, generated_doc

# The three seeds of the binary-tree join gate.
TREE64_SEEDS = (1, 2, 3)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: star32 ends with 1 of 32 nodes synchronized (every JoinRequest "
    "collides); tree64 ends with 64, 64 and 63 of 64 on seeds 1-3",
)
def test_join_synchronizes_every_node_of_a_star_and_a_deep_tree():
    # Join in lock-step retries over three backoff positions never leaves a
    # request of 31 contenders alone, and at depth the accept's round trip
    # outlasts the retry timeout.
    docs = {"star32": CORPUS["star32"]()}
    for seed in TREE64_SEEDS:
        edges = [((i - 1) // 2, i) for i in range(1, 64)]
        docs[f"tree64 seed {seed}"] = generated_doc("tree64", edges, 150, seed, False)
    synced = {}
    for name, doc in docs.items():
        modes = run(parse_scenario(doc)).final_modes.values()
        synced[name] = (sum(mode == "synchronized" for mode in modes), len(modes))
    assert all(count == n for count, n in synced.values()), synced


def _tracked_parent(audit, child: int, frame: int) -> int | None:
    """The address of the parent ``child`` tracked in ``frame``: that of its
    last synchronized event up to the frame, None after a desynchronized one."""
    parent = None
    for first, address in audit.parent_from.get(child, ()):
        if first <= frame:
            parent = address
    return parent


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: 15 of the 300 plain _random_doc runs and 49 of the 300 tight ones "
    "report a parent-child row with |epsilon| >= 40 us (worst: seed 116 3762 us, tight seed 226 2690 us)",
)
def test_every_parent_child_sync_row_is_within_40_us(audits):
    # The paper's |epsilon| < 40 us holds between a child and the parent it
    # tracks. A relay row of a child whose parent in that frame is not the
    # relay (address 0) adds up several hops, so it is the one row exempt.
    wide = {}
    for seed in range(300):
        for name in (f"random{seed}", f"random{seed}_tight"):
            audit = audits[name]
            rows = [
                row
                for row in audit.wide_sync_rows
                if not (row[1] == audit.relay and _tracked_parent(audit, row[2], row[0]) != 0)
            ]
            if rows:
                wide[name] = max(abs(row[3]) for row in rows)
    assert not wide, f"{len(wide)} runs, max |epsilon| in us by run: {wide}"


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 3: 93 of the 650 corpus documents pop an event before the previous one, "
    "1403 pops in all",
)
def test_no_corpus_document_pops_an_event_before_the_previous_one(audits):
    # A node that rejoins under a new parent keeps its old address, which
    # may lie below the parent's: its beacon is then scheduled in the past.
    late = {name: len(audit.out_of_order) for name, audit in audits.items() if audit.out_of_order}
    assert not late, f"{len(late)} documents, {sum(late.values())} pops: {late}"
