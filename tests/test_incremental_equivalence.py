"""Differential harness: incremental extraction == full recompute.

The incremental pipeline's output contract is *byte-for-byte* equality
with a from-scratch :meth:`FacetExtractor.run` on the union corpus,
after any sequence of appends.  This module certifies it across:

* batch schedules with k ∈ {1, 2, 5} appends, including an empty batch
  and single-document batches, plus a seeded randomized split;
* worker counts {1, 4} — the execution modes of the batch pipeline
  (the 4-worker run also starts the resource prefetcher);
* serialization round trips — the state that continues appending after
  a snapshot/restore must land on the same bytes.

"Byte-for-byte" is enforced literally: facet terms (scores as IEEE-754
hex, so not even a ULP of drift passes) and fully-populated hierarchies
are serialized through the canonical-JSON writer and compared as bytes.
"""

from __future__ import annotations

import random

import pytest

from repro.builder import FacetPipelineBuilder
from repro.config import ParallelConfig, ReproConfig
from repro.corpus import build_snyt
from repro.core.export import to_dict
from repro.incremental import IncrementalExtractor, IncrementalState, canonical_json
from repro.text.interning import SentenceColumns
from repro.text.tokenizer import sentences

SCALE = 0.05


@pytest.fixture(scope="module")
def inc_config() -> ReproConfig:
    return ReproConfig(scale=SCALE)


@pytest.fixture(scope="module")
def inc_builder(inc_config: ReproConfig) -> FacetPipelineBuilder:
    return FacetPipelineBuilder(inc_config)


@pytest.fixture(scope="module")
def docs(inc_config: ReproConfig):
    return build_snyt(inc_config).documents


def result_bytes(result) -> bytes:
    """Canonical bytes of (facet terms, hierarchies) — the output contract."""
    payload = {
        "facet_terms": [
            [
                c.term,
                c.df_original,
                c.df_contextualized,
                c.shift_f,
                c.shift_r,
                c.score.hex(),
            ]
            for c in result.facet_terms
        ],
        "hierarchies": to_dict(result.hierarchies, include_docs=True),
    }
    return canonical_json(payload).encode("utf-8")


def full_state(result) -> dict:
    """Every intermediate database, for equality beyond the contract."""
    return {
        "important": result.annotated.important_terms,
        "term_sets": result.annotated.term_sets,
        "context": result.contextualized.context_terms,
        "expanded": result.contextualized.expanded_sets,
    }


@pytest.fixture(scope="module")
def baseline(inc_builder: FacetPipelineBuilder, docs):
    result = inc_builder.build().run(docs)
    return result_bytes(result), full_state(result)


def schedule(key: int, docs: list) -> list[list]:
    """Deterministic batch splits; k=5 exercises empty + single-doc."""
    if key == 1:
        return [docs]
    if key == 2:
        return [docs[:1], docs[1:]]  # single-doc first batch
    if key == 5:
        return [docs[:7], [], docs[7:8], docs[8:30], docs[30:]]
    raise AssertionError(key)


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("batches", [1, 2, 5])
    def test_every_schedule_and_mode_matches_full_recompute(
        self, inc_builder, docs, baseline, batches, workers
    ):
        inc_builder.with_parallel(ParallelConfig(workers=workers))
        extractor = inc_builder.build_incremental()
        for batch in schedule(batches, docs):
            extractor.append(batch)
        snapshot = extractor.snapshot_result()
        expected_bytes, expected_state = baseline
        assert result_bytes(snapshot) == expected_bytes
        assert full_state(snapshot) == expected_state

    def test_randomized_seeded_split_matches_full_recompute(
        self, inc_builder, docs, baseline
    ):
        rng = random.Random(20080407)
        cuts = sorted(rng.sample(range(1, len(docs)), 3))
        bounds = [0, *cuts, len(docs)]
        batches = [docs[a:b] for a, b in zip(bounds, bounds[1:])]
        inc_builder.with_parallel(ParallelConfig(workers=1))
        extractor = inc_builder.build_incremental()
        for batch in batches:
            extractor.append(batch)
        assert result_bytes(extractor.snapshot_result()) == baseline[0]

    def test_state_payload_roundtrip_then_append_matches(
        self, inc_builder, docs, baseline
    ):
        """Serialize mid-stream, rebuild, keep appending — same bytes."""
        inc_builder.with_parallel(ParallelConfig(workers=1))
        extractor = inc_builder.build_incremental()
        extractor.append(docs[:20])
        restored_state = IncrementalState.from_payload(
            extractor.state.to_payload()
        )
        resumed = IncrementalExtractor(
            inc_builder.build(), state=restored_state
        )
        resumed.append(docs[20:])
        assert result_bytes(resumed.snapshot_result()) == baseline[0]


class TestAppendSemantics:
    def test_duplicate_doc_id_rejected_across_and_within_batches(
        self, inc_builder, docs
    ):
        inc_builder.with_parallel(ParallelConfig(workers=1))
        extractor = inc_builder.build_incremental()
        extractor.append(docs[:2])
        with pytest.raises(ValueError, match="duplicate document id"):
            extractor.append([docs[1]])
        with pytest.raises(ValueError, match="duplicate document id"):
            extractor.append([docs[5], docs[5]])
        # The failed appends must not have half-ingested anything.
        assert extractor.document_count == 2

    def test_batch_report_accounts_for_the_batch(self, inc_builder, docs):
        inc_builder.with_parallel(ParallelConfig(workers=1))
        extractor = inc_builder.build_incremental()
        first = extractor.append(docs[:10], batch_id="first")
        assert first.batch_id == "first"
        assert first.documents == 10
        assert first.dirty_documents == 0  # nothing older to invalidate
        assert first.facet_terms == len(extractor.facet_terms)
        second = extractor.append(docs[10:20])
        assert second.batch_id == "batch-000001"
        assert second.documents == 10
        assert extractor.batches_done == ["first", "batch-000001"]

    def test_serial_append_tokenizes_each_sentence_once(
        self, inc_builder, docs, monkeypatch
    ):
        # The statistics and extraction passes share one text memo, as
        # in annotate_database: every distinct sentence of the batch is
        # split into columns exactly once.
        built = []
        original = SentenceColumns.__init__

        def counting_init(self, sentence):
            built.append(sentence)
            original(self, sentence)

        inc_builder.with_parallel(ParallelConfig(workers=1))
        extractor = inc_builder.build_incremental()
        batch = docs[:20]
        monkeypatch.setattr(SentenceColumns, "__init__", counting_init)
        extractor.append(batch)
        distinct = {s for document in batch for s in sentences(document.text)}
        assert len(built) == len(distinct)

    def test_empty_batch_is_a_no_op_for_results(self, inc_builder, docs):
        inc_builder.with_parallel(ParallelConfig(workers=1))
        extractor = inc_builder.build_incremental()
        extractor.append(docs[:15])
        before = result_bytes(extractor.snapshot_result())
        report = extractor.append([])
        assert report.documents == 0
        assert report.touched_terms == 0
        assert result_bytes(extractor.snapshot_result()) == before

    def test_snapshot_result_is_isolated_from_live_state(
        self, inc_builder, docs
    ):
        inc_builder.with_parallel(ParallelConfig(workers=1))
        extractor = inc_builder.build_incremental()
        extractor.append(docs[:10])
        snapshot = extractor.snapshot_result()
        # Vandalize every mutable surface of the snapshot ...
        snapshot.annotated.vocabulary.add_document(["vandal", "terms"])
        snapshot.contextualized.vocabulary.add_document(["vandal"])
        for expanded in snapshot.contextualized.expanded_sets.values():
            expanded.add("vandal")
        # ... and the live extractor must be unaffected.
        extractor.append(docs[10:12])
        fresh = inc_builder.build_incremental()
        fresh.append(docs[:10])
        fresh.append(docs[10:12])
        assert result_bytes(extractor.snapshot_result()) == result_bytes(
            fresh.snapshot_result()
        )

    def test_incremental_config_plumbs_through_repro_config(self, tmp_path):
        config = ReproConfig(scale=SCALE)
        assert config.incremental.checkpoint_dir is None
        custom = ReproConfig(
            scale=SCALE,
            incremental=type(config.incremental)(
                checkpoint_dir=str(tmp_path), checkpoint_every=2
            ),
        )
        assert custom.incremental.checkpoint_every == 2
