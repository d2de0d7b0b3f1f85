"""Golden outputs: every execution mode lands on the same pinned bytes.

Steps 1-3 have one implementation, the columnar data plane
(:mod:`repro.core.columnar`): interned id columns, memoized text
functions, shared-memory background segments and the vectorized
selection pretest.  What may vary is only how that implementation is
scheduled, and none of it may move an output byte.  This module pins
the certified output of SNYT at scale 0.05 (seed 20080407) as a sha256
digest and checks it across:

* worker counts {1, 4} on the thread backend — the 4-worker run also
  starts the resource prefetcher, the serial one does not;
* the process backend (which exercises the shared-memory background
  segment end to end, pickle fallback included);
* incremental appends (the text memo also runs under the incremental
  extractor's chunk workers);
* the serving artifact: the SQLite payload compiled from a pooled run
  must carry the pinned content checksum.

Scores are compared as IEEE-754 hex so not even a ULP of drift passes;
hierarchies are serialized with their full document populations.  An
intended change of the output updates the digests here and says why in
CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.builder import FacetPipelineBuilder
from repro.config import ParallelConfig, ReproConfig
from repro.core.export import to_dict
from repro.incremental import canonical_json
from repro.observability import Observability
from repro.serving.artifact import FacetIndex

SCALE = 0.05

#: sha256 of :func:`result_bytes` for SNYT at ``SCALE``, seed 20080407.
GOLDEN_DIGEST = "34f655edbea0c8cef3433c1bb19d220adaa14e208ecec47b33b8ef952b6cc61a"

#: Content checksum of the serving artifact compiled from that result.
GOLDEN_ARTIFACT_CHECKSUM = (
    "3aba12131da3d066f514a6f232578ede74f02c1f3e8fd5fb5d015bd5640ec353"
)


def result_bytes(result) -> bytes:
    """Canonical bytes of every certified output surface."""
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
        "important": result.annotated.important_terms,
        "term_sets": {
            doc_id: sorted(terms)
            for doc_id, terms in result.annotated.term_sets.items()
        },
        "context": result.contextualized.context_terms,
        "expanded": {
            doc_id: sorted(terms)
            for doc_id, terms in result.contextualized.expanded_sets.items()
        },
    }
    return canonical_json(payload).encode("utf-8")


def result_digest(result) -> str:
    return hashlib.sha256(result_bytes(result)).hexdigest()


@pytest.fixture(scope="module")
def col_config() -> ReproConfig:
    return ReproConfig(scale=SCALE)


@pytest.fixture(scope="module")
def col_builder(col_config: ReproConfig) -> FacetPipelineBuilder:
    return FacetPipelineBuilder(col_config)


@pytest.fixture(scope="module")
def docs(col_config: ReproConfig):
    from repro.corpus import build_snyt

    return build_snyt(col_config).documents


class TestColumnarDifferential:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_columnar_matches_across_workers_and_query_modes(
        self, col_builder, docs, workers
    ):
        """Query modes: the 4-thread run resolves terms ahead of Step 2
        through the prefetcher, the serial run only inside Step 2."""
        col_builder.with_parallel(ParallelConfig(workers=workers))
        pipeline = col_builder.build()
        pipeline.observability = Observability.enabled()
        result = pipeline.run(docs)
        # The prefetcher runs exactly when the pool is a thread pool with
        # more than one worker; both sides must land on the same bytes.
        batches = pipeline.observability.metrics.counters.get("prefetch.batches", 0)
        assert (batches > 0) == (workers > 1)
        assert result_digest(result) == GOLDEN_DIGEST
        # The run must actually have produced the id columns.
        assert result.annotated.columns is not None
        assert len(result.annotated.columns) == len(docs)

    def test_columnar_process_backend_matches(self, col_builder, docs):
        """Exercises the shared-memory background segment end to end."""
        col_builder.with_parallel(ParallelConfig(workers=2, backend="process"))
        assert result_digest(col_builder.build().run(docs)) == GOLDEN_DIGEST

    def test_incremental_append_matches(self, col_builder, docs):
        col_builder.with_parallel(ParallelConfig(workers=2))
        extractor = col_builder.build_incremental()
        extractor.append(docs[:17])
        extractor.append(docs[17:])
        assert result_digest(extractor.snapshot_result()) == GOLDEN_DIGEST

    def test_serving_artifact_checksum_matches(self, col_builder, docs, tmp_path):
        """The compiled serving payload is pinned, byte for byte."""
        col_builder.with_parallel(ParallelConfig(workers=4))
        result = col_builder.build().run(docs)
        with FacetIndex.build(result, path=str(tmp_path / "index.db")) as index:
            assert index.checksum == GOLDEN_ARTIFACT_CHECKSUM
