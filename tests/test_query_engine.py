"""Batched single-flight query engine: coalescing, bulk I/O, prefetch.

Covers the engine added around the resource layer:

* single-flight coalescing — N threads racing on one fresh term issue
  exactly one backend query; a failed leader wakes its waiters so one of
  them retries;
* batched persistent-cache I/O — ``get_many``/``put_many`` round-trip,
  respect namespace isolation, chunk large key sets under SQLite's
  parameter limit, and upsert on conflict;
* ``context_terms_many`` answers exactly like per-term
  ``context_terms``, and batched contextualization lands on a pinned
  digest, equal to a per-term reference expansion, at any worker count;
* the vectorized selection tables (``ShiftTables``,
  ``LikelihoodTables``) reproduce the scalar reference bit for bit;
* prefetch only warms caches — pipeline output is the pinned one
  whether the prefetcher runs or not, and a failing prefetch degrades
  to a logged counter.
"""

from __future__ import annotations

import hashlib
import random
import sys
import threading
import time
from types import SimpleNamespace

from repro.config import ParallelConfig, ReproConfig
from repro.core.contextualize import contextualize
from repro.core.likelihood import (
    LikelihoodTables,
    chi_square_statistic,
    log_likelihood_ratio,
)
from repro.core.shifts import ShiftTables, frequency_shift, rank_shift
from repro.corpus import build_corpus
from repro.corpus.datasets import DatasetName
from repro.db.resource_cache import PersistentResourceCache
from repro.errors import ResourceError
from repro.incremental import canonical_json
from repro.observability import MetricsRegistry, Observability
from repro.parallel import map_chunks
from repro.resources import ResourcePrefetcher, SingleFlight
from repro.resources.base import ExternalResource, ResourceName
from repro.resources.resilience import SimulatedLatencyResource
from repro.text.tokenizer import normalize_term
from repro.text.vocabulary import Vocabulary


class SlowResource(ExternalResource):
    """Counts backend queries; optionally blocks to force contention."""

    name = ResourceName.GOOGLE

    def __init__(self, delay: float = 0.0):
        super().__init__()
        self.backend_queries = 0
        self.batch_calls = 0
        self._delay = delay
        self._count_lock = threading.Lock()

    def _query(self, term):
        with self._count_lock:
            self.backend_queries += 1
        if self._delay:
            time.sleep(self._delay)
        return [f"ctx {term.lower()}", f"more {term.lower()}"]


class BatchingResource(SlowResource):
    """Overrides the bulk path so batch routing is observable."""

    def query_many(self, terms):
        with self._count_lock:
            self.batch_calls += 1
        return [self._query(term) for term in terms]


class FailOnceResource(ExternalResource):
    """First backend query raises; later ones succeed."""

    name = ResourceName.GOOGLE

    def __init__(self):
        super().__init__()
        self.attempts = 0
        self._lock = threading.Lock()

    def _query(self, term):
        with self._lock:
            self.attempts += 1
            if self.attempts == 1:
                raise ResourceError("first query fails")
        return [f"ok {term}"]


#: sha256 of :func:`expansion_digest` for the NE-annotated SNYT corpus
#: at scale 0.02 expanded with Wikipedia Graph + WordNet.
GOLDEN_EXPANSION_DIGEST = (
    "f0ac26d7f72a08cc724532c68d7d58e33e7c162ba4a923d65b0dc05cd3a686b7"
)

#: sha256 of :func:`facet_digest` for the default pipeline's facet terms
#: on SNYT at scale 0.02, seed 20080407.
GOLDEN_FACET_DIGEST = (
    "23e50bcffd604d67f5f3dc6029d8be1b9125cec32c09b815893e26693bcd7b87"
)


def expansion_digest(contextualized) -> str:
    payload = {
        "context": contextualized.context_terms,
        "expanded": {
            doc_id: sorted(terms)
            for doc_id, terms in contextualized.expanded_sets.items()
        },
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def facet_digest(facet_terms) -> str:
    rows = [
        [c.term, c.df_original, c.df_contextualized, c.shift_f, c.shift_r, c.score.hex()]
        for c in facet_terms
    ]
    return hashlib.sha256(canonical_json(rows).encode("utf-8")).hexdigest()


def per_term_expansion(annotated, resources):
    """Reference Step 2: one ``context_terms`` call per (term, resource)
    pair, merged per document in first-seen order of the normalized key."""
    context_terms: dict[str, list[str]] = {}
    expanded_sets: dict[str, set[str]] = {}
    for document in annotated.documents:
        merged: list[str] = []
        seen: set[str] = set()
        for term in annotated.important(document.doc_id):
            for resource in resources:
                for context_term in resource.context_terms(term):
                    key = normalize_term(context_term)
                    if key and key not in seen:
                        seen.add(key)
                        merged.append(context_term)
        context_terms[document.doc_id] = merged
        expanded_sets[document.doc_id] = (
            set(annotated.term_sets.get(document.doc_id, set())) | seen
        )
    return SimpleNamespace(context_terms=context_terms, expanded_sets=expanded_sets)


class TestSingleFlight:
    def test_contention_issues_exactly_one_query(self):
        resource = SlowResource(delay=0.05)
        threads = 8
        barrier = threading.Barrier(threads)
        answers: list[list[str]] = [None] * threads  # type: ignore[list-item]

        def worker(index: int) -> None:
            barrier.wait()
            answers[index] = resource.context_terms("Shared Term")

        pool = [
            threading.Thread(target=worker, args=(i,)) for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()

        assert resource.backend_queries == 1
        assert all(answer == answers[0] for answer in answers)
        stats = resource.cache_stats
        assert stats.misses == 1
        # Everyone else either coalesced on the flight or hit the LRU
        # the leader populated; nobody re-queried the backend.
        assert stats.coalesced_hits + stats.memory_hits == threads - 1

    def test_failed_leader_wakes_waiters_and_one_retries(self):
        resource = FailOnceResource()
        threads = 4
        barrier = threading.Barrier(threads)
        results: list[object] = [None] * threads

        def worker(index: int) -> None:
            barrier.wait()
            try:
                results[index] = resource.context_terms("flaky")
            except ResourceError as exc:
                results[index] = exc

        pool = [
            threading.Thread(target=worker, args=(i,)) for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()

        # The failed leader surfaced its error; every other thread
        # retried (or read the retry's cached answer) and succeeded.
        errors = [r for r in results if isinstance(r, ResourceError)]
        successes = [r for r in results if isinstance(r, list)]
        assert len(errors) == 1
        assert len(successes) == threads - 1
        assert all(answer == ["ok flaky"] for answer in successes)

    def test_key_resolved_between_lru_check_and_claim_is_not_requeried(
        self, monkeypatch
    ):
        # Another thread resolves two of the keys after this caller's LRU
        # check but before its claim: the claimed keys must be answered
        # from the LRU, not queried a second time.
        resource = SlowResource()
        flights = resource._single_flight
        original_claim = flights.claim
        raced = {"alpha", "gamma"}

        def claim_after_a_rival(key):
            if key in raced:
                raced.discard(key)
                rival = threading.Thread(
                    target=resource.context_terms_many, args=([key],)
                )
                rival.start()
                rival.join()
            return original_claim(key)

        monkeypatch.setattr(flights, "claim", claim_after_a_rival)
        answers = resource.context_terms_many(["Alpha", "Beta", "Gamma", "alpha"])
        assert answers == [
            ["ctx alpha", "more alpha"],
            ["ctx beta", "more beta"],
            ["ctx gamma", "more gamma"],
            ["ctx alpha", "more alpha"],
        ]
        stats = resource.cache_stats
        assert stats.misses == 3
        assert resource.backend_queries == 3
        assert stats.memory_hits == 2
        assert flights.in_flight == 0

    def test_overlapping_batches_under_contention_query_each_key_once(self):
        resource = SlowResource()
        keys = [f"term {i}" for i in range(300)]

        def worker(seed: int) -> None:
            order = keys[:]
            random.Random(seed).shuffle(order)
            for start in range(0, len(order), 7):
                resource.context_terms_many(order[start : start + 7])

        pool = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert resource.backend_queries == len(keys)
        assert resource.cache_stats.misses == len(keys)

    def test_primitive_claim_resolve_abandon(self):
        flights = SingleFlight()
        flight, leader = flights.claim("k")
        assert leader
        again, second_leader = flights.claim("k")
        assert again is flight and not second_leader
        flights.resolve("k", flight, ("a",))
        assert flight.event.is_set() and flight.result == ("a",)
        assert flights.in_flight == 0
        fresh, leader = flights.claim("k")
        assert leader and fresh is not flight
        flights.abandon("k", fresh)
        assert fresh.event.is_set() and fresh.result is None


class TestBatchedCacheIO:
    def test_get_many_put_many_round_trip(self, tmp_path):
        cache = PersistentResourceCache(str(tmp_path / "cache.db"))
        cache.put_many("ns", {"a": ("x",), "b": ("y", "z")})
        found = cache.get_many("ns", ["a", "b", "missing"])
        assert found == {"a": ("x",), "b": ("y", "z")}
        assert cache.batch_writes == 1
        assert cache.batch_reads == 1

    def test_namespace_isolation(self, tmp_path):
        cache = PersistentResourceCache(str(tmp_path / "cache.db"))
        cache.put_many("ns1", {"term": ("one",)})
        cache.put_many("ns2", {"term": ("two",)})
        assert cache.get_many("ns1", ["term"]) == {"term": ("one",)}
        assert cache.get_many("ns2", ["term"]) == {"term": ("two",)}

    def test_get_many_chunks_large_key_sets(self, tmp_path):
        cache = PersistentResourceCache(str(tmp_path / "cache.db"))
        entries = {f"t{i}": (f"v{i}",) for i in range(1_200)}
        cache.put_many("ns", entries)
        found = cache.get_many("ns", list(entries))
        assert found == entries

    def test_put_upserts_in_place(self, tmp_path):
        cache = PersistentResourceCache(str(tmp_path / "cache.db"))
        cache.put("ns", "term", ("old",))
        cache.put("ns", "term", ("new",))
        assert cache.get("ns", "term") == ("new",)

    def test_wal_enabled_on_file_store(self, tmp_path):
        cache = PersistentResourceCache(str(tmp_path / "cache.db"))
        assert cache.wal_enabled

    def test_memory_store_still_works_without_wal(self):
        cache = PersistentResourceCache(":memory:")
        cache.put_many("ns", {"term": ("v",)})
        assert cache.get_many("ns", ["term"]) == {"term": ("v",)}


class TestContextTermsMany:
    def test_matches_per_term_path(self):
        batched = BatchingResource()
        per_term = SlowResource()
        terms = ["Paris", "  PARIS ", "", "Tokyo", "Lyon", "tokyo"]
        bulk = batched.context_terms_many(terms)
        single = [per_term.context_terms(term) for term in terms]
        assert bulk == single
        assert batched.batch_calls == 1  # one deduplicated bulk call
        assert batched.backend_queries == 3  # paris, tokyo, lyon

    def test_persistent_tier_served_in_bulk(self, tmp_path):
        cache = PersistentResourceCache(str(tmp_path / "cache.db"))
        warm = SlowResource()
        warm.attach_cache(cache)
        warm.context_terms_many(["a", "b", "c"])
        fresh = SlowResource()
        fresh.attach_cache(cache)
        answers = fresh.context_terms_many(["a", "b", "c"])
        assert answers == [["ctx a", "more a"], ["ctx b", "more b"], ["ctx c", "more c"]]
        assert fresh.backend_queries == 0
        assert fresh.cache_stats.persistent_hits == 3

    def test_simulated_latency_batch_is_one_round_trip(self):
        remote = SimulatedLatencyResource(SlowResource(), latency_seconds=0.0)
        remote.context_terms_many(["a", "b", "c", "d"])
        assert remote.simulated_calls == 1


class TestBatchedContextualization:
    def _pipeline_pieces(self):
        config = ReproConfig(scale=0.02)
        corpus = build_corpus(DatasetName.SNYT, config)
        from repro.core.annotate import annotate_database
        from repro.extractors.registry import build_extractors
        from repro.extractors.base import ExtractorName
        from repro.builder import FacetPipelineBuilder

        builder = FacetPipelineBuilder(config)
        extractors = build_extractors(
            [ExtractorName.NAMED_ENTITIES], wikipedia=builder.substrates.wikipedia
        )
        annotated = annotate_database(corpus.documents, extractors)
        return config, builder, annotated

    def test_batched_equals_per_term_at_any_worker_count(self):
        config, builder, annotated = self._pipeline_pieces()
        from repro.resources.registry import build_resources

        def resources():
            return build_resources(
                [ResourceName.WIKI_GRAPH, ResourceName.WORDNET],
                builder.substrates,
                config,
            )

        reference = per_term_expansion(annotated, resources())
        for workers in (1, 4):
            expanded = contextualize(
                annotated, resources(), ParallelConfig(workers=workers)
            )
            assert expansion_digest(expanded) == GOLDEN_EXPANSION_DIGEST
            assert expanded.context_terms == reference.context_terms
            assert expanded.expanded_sets == reference.expanded_sets


class TestVectorizedSelection:
    def test_likelihood_tables_match_scalar_reference(self):
        rng = random.Random(20080407)
        for n in (1, 7, 400):
            tables = LikelihoodTables(n)
            for _ in range(300):
                df = rng.randint(0, n)
                df_c = rng.randint(0, n)
                assert tables.log_likelihood_ratio(df, df_c) == log_likelihood_ratio(
                    df, df_c, n
                )
                assert tables.chi_square(df, df_c) == chi_square_statistic(
                    df, df_c, n
                )

    def test_shift_tables_match_scalar_reference(self):
        rng = random.Random(7)
        original, contextualized = Vocabulary(), Vocabulary()
        words = [f"w{i}" for i in range(150)]
        extra = [f"c{i}" for i in range(40)]
        for _ in range(80):
            original.add_document(rng.sample(words, rng.randint(1, 25)))
            contextualized.add_document(
                rng.sample(words + extra, rng.randint(1, 50))
            )
        tables = ShiftTables(original, contextualized)
        for term in [*words, *extra, "absent"]:
            assert tables.frequency_shift(term) == frequency_shift(
                term, original, contextualized
            )
            assert tables.rank_shift(term) == rank_shift(
                term, original, contextualized
            )


class TestPrefetch:
    def test_pipeline_output_identical_with_prefetch_on_and_off(self):
        """The prefetcher runs only on a thread pool with workers > 1; the
        facet terms are the pinned ones either way."""
        from repro.builder import FacetPipelineBuilder

        config = ReproConfig(scale=0.02)
        documents = build_corpus(DatasetName.SNYT, config).documents
        for workers, backend, prefetches in (
            (4, "thread", True),
            (1, "thread", False),
            (2, "process", False),
        ):
            builder = FacetPipelineBuilder(ReproConfig(scale=0.02))
            builder.with_parallel(ParallelConfig(workers=workers, backend=backend))
            pipeline = builder.build()
            pipeline.observability = Observability.enabled()
            result = pipeline.run(documents)
            batches = pipeline.observability.metrics.counters.get(
                "prefetch.batches", 0
            )
            assert (batches > 0) == prefetches
            assert facet_digest(result.facet_terms) == GOLDEN_FACET_DIGEST

    def test_prefetcher_warms_cache_and_merges_metrics_once(self):
        resource = SlowResource()
        prefetcher = ResourcePrefetcher(
            lambda terms: resource.context_terms_many(list(terms))
        )
        prefetcher.submit(["alpha", "beta"])
        registry = MetricsRegistry()
        prefetcher.drain(into=registry)
        prefetcher.drain(into=registry)  # second drain is a no-op
        assert resource.backend_queries == 2
        assert registry.counters.get("prefetch.batches") == 1
        assert registry.counters.get("prefetch.terms") == 2
        # The warm-up means the main path is now a pure cache hit.
        resource.context_terms("alpha")
        assert resource.backend_queries == 2

    def test_prefetch_errors_degrade_to_counter(self):
        def boom(terms):
            raise RuntimeError("warm-up failed")

        prefetcher = ResourcePrefetcher(boom)
        prefetcher.submit(["x"])
        registry = MetricsRegistry()
        prefetcher.drain(into=registry)
        assert prefetcher.errors == 1
        assert registry.counters.get("prefetch.errors") == 1

    def test_submit_after_drain_is_noop(self):
        prefetcher = ResourcePrefetcher(lambda terms: None)
        prefetcher.drain()
        prefetcher.submit(["late"])
        assert prefetcher.batches_submitted == 0


class TestCompletionHook:
    def test_on_result_fires_per_chunk_serial_and_pooled(self):
        chunks = [[1, 2], [3], [4, 5]]
        for workers in (1, 3):
            seen: list[int] = []
            lock = threading.Lock()

            def on_result(result: int) -> None:
                with lock:
                    seen.append(result)

            totals = map_chunks(
                sum,
                chunks,
                ParallelConfig(workers=workers),
                on_result=on_result,
            )
            assert totals == [3, 3, 9]
            assert sorted(seen) == [3, 3, 9]
