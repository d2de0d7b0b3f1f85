"""Tests for the one-shot ``repro.run`` API and result/interface reuse."""

from __future__ import annotations

import pytest

import repro
from repro.config import ParallelConfig, ReproConfig
from repro.corpus import build_snyt
from repro.corpus.document import Document
from repro.db.store import DocumentStore


@pytest.fixture(scope="module")
def small_config() -> ReproConfig:
    return ReproConfig(scale=0.05)


@pytest.fixture(scope="module")
def small_corpus(small_config):
    return build_snyt(small_config)


class TestRunInputs:
    def test_corpus_input_carries_store(self, small_config, small_corpus):
        result = repro.run(small_corpus, config=small_config)
        assert result.facet_terms
        assert result.store is not None
        assert len(result.store) == len(small_corpus)

    def test_document_list_input(self, small_config, small_corpus):
        result = repro.run(list(small_corpus.documents), config=small_config)
        assert result.facet_terms
        assert result.store is None

    def test_string_list_input(self):
        texts = [
            "The senator visited Paris and met the president of France.",
            "A new museum opened in Berlin near the river.",
            "The election results surprised analysts in Washington.",
        ]
        result = repro.run(texts, scale=0.05, build_hierarchies=False)
        assert [d.doc_id for d in result.documents] == [
            "doc-000000",
            "doc-000001",
            "doc-000002",
        ]
        assert all(isinstance(d, Document) for d in result.documents)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one document"):
            repro.run([])

    def test_mixed_input_rejected(self, small_corpus):
        with pytest.raises(TypeError, match="mixed/unsupported"):
            repro.run([small_corpus.documents[0], "raw text"])


class TestRunConfigRouting:
    def test_flat_kwargs_build_config(self, small_corpus):
        documents = list(small_corpus.documents)
        result = repro.run(
            documents, scale=0.05, seed=7, workers=2, build_hierarchies=False
        )
        assert result.facet_terms

    def test_flat_kwargs_match_explicit_config(self, small_corpus):
        documents = list(small_corpus.documents)
        explicit = repro.run(
            documents,
            config=ReproConfig(scale=0.05, parallel=ParallelConfig(workers=2)),
            build_hierarchies=False,
        )
        flat = repro.run(
            documents, scale=0.05, workers=2, build_hierarchies=False
        )
        assert flat.facet_term_strings() == explicit.facet_term_strings()

    def test_unknown_kwarg_rejected(self, small_corpus):
        with pytest.raises(TypeError, match="nope"):
            repro.run(small_corpus, nope=1)

    def test_config_and_kwargs_conflict(self, small_config, small_corpus):
        with pytest.raises(TypeError, match="not both"):
            repro.run(small_corpus, config=small_config, scale=0.2)

    def test_parallel_and_flat_conflict(self, small_corpus):
        with pytest.raises(TypeError, match="not both"):
            repro.run(
                small_corpus,
                parallel=ParallelConfig(workers=2),
                workers=2,
            )

    def test_builder_knobs(self, small_config, small_corpus):
        result = repro.run(
            small_corpus,
            config=small_config,
            extractors=["NE"],
            resources=["WordNet Hypernyms"],
            top_k=10,
            build_hierarchies=False,
        )
        assert len(result.facet_terms) <= 10
        assert result.hierarchies == []

    def test_observability_kwarg(self, small_config, small_corpus):
        obs = repro.Observability.enabled()
        result = repro.run(
            small_corpus, config=small_config, observability=obs
        )
        assert result.facet_terms
        assert [s.name for s in obs.tracer.roots] == ["pipeline"]
        assert obs.metrics.counter_value("annotate.documents") == len(
            small_corpus
        )


class TestInterfaceReuse:
    def test_interface_reuses_run_store(self, small_config, small_corpus):
        result = repro.run(small_corpus, config=small_config)
        interface = repro.FacetedInterface.from_result(result)
        assert interface._store is result.store

    def test_interface_caches_built_store(self, small_config, small_corpus):
        result = repro.run(
            list(small_corpus.documents), config=small_config
        )
        first = repro.FacetedInterface.from_result(result)
        second = repro.FacetedInterface.from_result(result)
        assert first._store is second._store
        assert first._store is not None

    def test_interface_explicit_store_wins(self, small_config, small_corpus):
        result = repro.run(small_corpus, config=small_config)
        mine = DocumentStore(list(small_corpus.documents))
        interface = repro.FacetedInterface.from_result(result, store=mine)
        assert interface._store is mine

    def test_interface_index_cached_across_calls(
        self, small_config, small_corpus
    ):
        result = repro.run(small_corpus, config=small_config)
        repro.FacetedInterface.from_result(result)
        index = result._built_index
        assert index is not None
        repro.FacetedInterface.from_result(result)
        assert result._built_index is index


class TestPublicSurface:
    def test_exports(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.3.0"
