"""Replay the frozen containment corpus through every LP solver path.

Every entry of ``containment_corpus.json`` is a pair with a known verdict
(paper examples plus deterministic batch-workload seeds).  The replay runs
each pair through the sequential driver and the batch service across
``lp_method`` (dense / rowgen) *and* ``lp_backend`` (scipy / native
highspy) — any future solver change that flips a verdict fails loudly with
the pair's name.  ``dense`` on ``scipy`` is one LP per decision with no
cutting-plane loop; ``rowgen`` runs the loop every backend shares.  The
batch replays also run ``rowgen`` on the test-only ``scipy-drop``, which
deletes slack rows from the first round (see ``tests/conftest.py``), and
run once more on a thread pool.  The ``highs`` column is skipped cleanly
when ``highspy`` is not installed and replays the full corpus through the
warm-started backend when it is.  Finally every entry is replayed as a
renamed copy that the plan cache, and a restarted service's durable store,
must answer with the frozen verdict and evidence in the requester's names.

Regenerate (only for deliberate corpus extensions) with::

    PYTHONPATH=src python tests/regression/generate_corpus.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.containment import decide_containment
from repro.core.witness import verify_witness
from repro.cq.parser import parse_query
from repro.cq.query import ConjunctiveQuery
from repro.cq.reductions import to_boolean_pair
from repro.lp.backends import highs_available
from repro.service import BatchOptions, ContainmentService, decide_containment_many

CORPUS_PATH = Path(__file__).with_name("containment_corpus.json")
CORPUS = json.loads(CORPUS_PATH.read_text())["pairs"]

needs_highspy = pytest.mark.skipif(
    not highs_available(), reason="highspy is not installed"
)

#: Every (lp_method, lp_backend) path the replay covers.
SOLVER_PATHS = [
    ("dense", "scipy"),
    ("rowgen", "scipy"),
    pytest.param("dense", "highs", marks=needs_highspy),
    pytest.param("rowgen", "highs", marks=needs_highspy),
]
#: The batch replays add ``rowgen`` on ``scipy-drop``.  Slack rows only
#: appear in multi-round loops, which most single entries never reach but
#: the batch's stacked loops do; deletion happens nowhere outside the loop.
BATCH_SOLVER_PATHS = SOLVER_PATHS[:2] + [("rowgen", "scipy-drop")] + SOLVER_PATHS[2:]


def deserialize_query(record) -> ConjunctiveQuery:
    parsed = parse_query(record["body"], name=record["name"])
    if record["head"]:
        return ConjunctiveQuery(
            atoms=parsed.atoms, head=tuple(record["head"]), name=record["name"]
        )
    return parsed


def load_pair(entry):
    return deserialize_query(entry["q1"]), deserialize_query(entry["q2"])


def test_corpus_is_intact():
    assert len(CORPUS) >= 20
    statuses = {entry["status"] for entry in CORPUS}
    # A corpus of *known* verdicts: both outcomes represented, no unknowns.
    assert statuses == {"contained", "not_contained"}


def mismatched_verdicts(results):
    return [
        (entry["name"], entry["status"], result.status.value)
        for entry, result in zip(CORPUS, results)
        if entry["status"] != result.status.value
    ]


@pytest.mark.parametrize("lp_method,lp_backend", SOLVER_PATHS)
@pytest.mark.parametrize("entry", CORPUS, ids=[e["name"] for e in CORPUS])
def test_sequential_replay_matches_frozen_verdict(entry, lp_method, lp_backend):
    q1, q2 = load_pair(entry)
    result = decide_containment(q1, q2, lp_method=lp_method, lp_backend=lp_backend)
    assert result.status.value == entry["status"], (
        f"{entry['name']}: frozen {entry['status']!r} but {lp_method}/{lp_backend} "
        f"path returned {result.status.value!r}"
    )


@pytest.mark.parametrize("lp_method,lp_backend", BATCH_SOLVER_PATHS)
@pytest.mark.parametrize("chunk_size", [1, 32])
def test_batch_replay_matches_frozen_verdicts(
    chunk_size, lp_method, lp_backend, lp_backend_knob
):
    pairs = [load_pair(entry) for entry in CORPUS]
    with lp_backend_knob(lp_backend) as knob:
        results = decide_containment_many(
            pairs, lp_method=lp_method, chunk_size=chunk_size, lp_backend=knob
        )
    mismatches = mismatched_verdicts(results)
    assert not mismatches, f"verdict flips: {mismatches}"


@pytest.mark.parametrize("lp_method,lp_backend", BATCH_SOLVER_PATHS)
@pytest.mark.parametrize("chunk_size", [1, 7, 32])
def test_threaded_batch_replay_matches_frozen_verdicts(
    chunk_size, lp_method, lp_backend, lp_backend_knob
):
    """Two pool threads; chunk size 7 leaves a short last chunk."""
    pairs = [load_pair(entry) for entry in CORPUS]
    with lp_backend_knob(lp_backend) as knob:
        results = decide_containment_many(
            pairs,
            lp_method=lp_method,
            chunk_size=chunk_size,
            max_workers=2,
            lp_backend=knob,
        )
    mismatches = mismatched_verdicts(results)
    assert not mismatches, f"verdict flips: {mismatches}"


@pytest.mark.parametrize("tier", ["plan-cache", "store"])
@pytest.mark.parametrize("entry", CORPUS, ids=[e["name"] for e in CORPUS])
def test_renamed_replay_is_a_cache_hit_with_the_frozen_verdict(entry, tier, tmp_path):
    """A renamed copy of a solved entry is answered without a new solve.

    ``plan-cache`` asks the service that solved the entry; ``store`` asks a
    fresh service over the durable verdict store it wrote, so the evidence
    also round-trips through serialization.  The hit carries the frozen
    verdict, and its evidence is the requester's: a refuting witness
    recounts on the renamed Boolean pair, and an Eq. (8) inequality (or,
    from the store, its Shannon certificate) ranges over the renamed
    variables.
    """
    q1, q2 = load_pair(entry)
    renamed = (q1.with_fresh_variables("_r"), q2.with_fresh_variables("_r"))
    options = BatchOptions(store_path=str(tmp_path / "verdicts.sqlite"))
    service = ContainmentService(options)
    try:
        (solved,) = service.run([(q1, q2)]).outcomes
        if tier == "store":
            service.close()
            service = ContainmentService(options)
        (hit,) = service.run([renamed]).outcomes
    finally:
        service.close()
    assert solved.source == "solved"
    assert hit.source == tier
    assert hit.result.status.value == entry["status"]
    boolean_q1, boolean_q2 = to_boolean_pair(*renamed)
    if entry["status"] == "not_contained":
        witness = hit.result.witness
        recounted = verify_witness(boolean_q1, boolean_q2, witness.database)
        assert recounted is not None
        assert (recounted.hom_q1, recounted.hom_q2) == (
            witness.hom_q1,
            witness.hom_q2,
        )
    elif tier == "plan-cache":
        inequality = hit.result.inequality
        assert set(inequality.ground) <= set(boolean_q1.variables)
        for branch in inequality.branches:
            assert set(branch.homomorphism) <= set(boolean_q2.variables)
            assert set(branch.homomorphism.values()) <= set(boolean_q1.variables)
    else:
        # The store keeps a Shannon certificate in place of the inequality.
        certificate = hit.result.verdict.certificate
        assert set(certificate.ground) <= set(boolean_q1.variables)
