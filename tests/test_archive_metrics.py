"""Tests for incremental archives and hierarchy metrics."""

from __future__ import annotations

import pytest

from repro.core.export import to_dict
from repro.core.hierarchy import FacetHierarchy, FacetNode
from repro.core.pipeline import FacetExtractor
from repro.eval.hierarchy_metrics import hierarchy_metrics
from repro.incremental import IncrementalExtractor


@pytest.fixture()
def archive(builder):
    """A growing news archive over the default pipeline."""
    return IncrementalExtractor(builder.build())


class TestFacetArchive:
    """The Section V-D archive loop: documents arrive in batches, only
    the new batch is annotated and expanded, and the facets stay current
    (:class:`~repro.incremental.IncrementalExtractor`)."""

    def test_empty_archive(self, archive):
        assert archive.document_count == 0
        assert archive.facet_terms == []
        assert archive.hierarchies == []

    def test_batched_ingestion(self, archive, snyt):
        docs = list(snyt)
        archive.append(docs[:30])
        assert archive.document_count == 30
        archive.append(docs[30:60])
        assert archive.document_count == 60

    def test_duplicate_rejected(self, archive, snyt):
        archive.append(list(snyt)[:5])
        with pytest.raises(ValueError):
            archive.append([snyt[0]])
        assert archive.document_count == 5

    def test_facets_refresh_with_content(self, archive, snyt):
        docs = list(snyt)
        archive.append(docs[:30])
        first = archive.facet_term_strings()[:50]
        archive.append(docs[30:90])
        second = archive.facet_term_strings()[:50]
        assert first != second

    def test_incremental_equals_batch(self, builder, snyt):
        """Appending in batches equals one-shot processing with every
        extractor, the Yahoo stand-in included: its background statistics
        grow with the archive instead of covering only the newest batch."""
        docs = list(snyt)[:40]
        archive = IncrementalExtractor(builder.build())
        archive.append(docs[:20])
        archive.append(docs[20:])
        batch = builder.build().run(docs)
        assert archive.facet_terms == batch.facet_terms
        assert to_dict(archive.hierarchies, include_docs=True) == to_dict(
            batch.hierarchies, include_docs=True
        )

    def test_validation(self, builder):
        with pytest.raises(ValueError):
            IncrementalExtractor(builder.build(), checkpoint_every=0)
        with pytest.raises(ValueError):
            FacetExtractor([], builder.build().resources)


def node(term, doc_ids, children=()):
    n = FacetNode(term=term, doc_ids=set(doc_ids))
    for child in children:
        n.children.append(child)
        n.doc_ids.update(child.doc_ids)
    return n


class TestHierarchyMetrics:
    def test_simple_forest(self):
        france = node("france", {"a", "b"})
        europe = node("europe", {"c"}, [france])
        asia = node("asia", {"d", "e"})
        metrics = hierarchy_metrics(
            [FacetHierarchy(root=europe), FacetHierarchy(root=asia)],
            collection_size=10,
        )
        assert metrics.facets == 2
        assert metrics.nodes == 3
        assert metrics.max_depth == 1
        assert metrics.branching_facets == 1
        assert metrics.mean_branching_factor == 1.0
        assert metrics.coverage == 0.5
        assert metrics.mean_narrowing == pytest.approx(2 / 3)

    def test_empty_forest(self):
        metrics = hierarchy_metrics([], collection_size=5)
        assert metrics.facets == 0
        assert metrics.coverage == 0.0

    def test_invalid_collection_size(self):
        with pytest.raises(ValueError):
            hierarchy_metrics([], collection_size=-1)

    def test_on_real_pipeline_output(self, pipeline_result):
        metrics = hierarchy_metrics(
            pipeline_result.hierarchies, len(pipeline_result.documents)
        )
        assert metrics.facets > 5
        assert metrics.coverage > 0.5
        assert 0 < metrics.mean_narrowing <= 1.0 or metrics.mean_narrowing == 0
        assert "coverage" in metrics.format_summary()
