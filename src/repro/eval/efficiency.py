"""The efficiency study (Section V-D).

The paper reports, per document:

* term extraction at 2-3 seconds when the Yahoo web service is in the
  loop, ~100 documents/second without it;
* expansion at ~1 second with Google, >100 documents/second with the
  local resources (Wikipedia, WordNet);
* facet-term selection in milliseconds; hierarchy construction in 1-2
  seconds.

We measure the local implementations directly and *model* the remote
round trips (the stand-ins carry the paper's measured latencies), then
report both, so the benchmark regenerates the same qualitative account:
web-service extraction dominates, local resources are orders of
magnitude faster, selection is nearly free.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..builder import FacetPipelineBuilder
from ..config import ParallelConfig, ReproConfig
from ..corpus.document import Document
from ..core.annotate import annotate_database
from ..core.contextualize import contextualize
from ..core.hierarchy import build_facet_hierarchies
from ..core.pipeline import STAGES
from ..core.selection import select_facet_terms
from ..db.resource_cache import PersistentResourceCache
from ..extractors.base import ExtractorName
from ..extractors.registry import build_extractors
from ..extractors.significant_terms import SIMULATED_LATENCY_SECONDS
from ..observability import Observability
from ..resources.base import ResourceName
from ..resources.registry import build_resource, build_resources
from ..resources.resilience import SimulatedLatencyResource

#: Modeled per-document latency of Google expansion (Section V-D: ~1 s).
GOOGLE_LATENCY_SECONDS = 1.0

#: Round trip used by the cold- vs warm-cache comparison; kept small so
#: the benchmark finishes quickly — the *ratio* between the cold and the
#: warm wall-clock is what matters, not the absolute latency.
COMPARISON_LATENCY_SECONDS = 0.01


@dataclass
class EfficiencyReport:
    """Per-stage throughput, measured and modeled."""

    documents: int
    extraction_local_s_per_doc: float
    extraction_with_yahoo_s_per_doc: float
    expansion_local_s_per_doc: float
    expansion_with_google_s_per_doc: float
    selection_s: float
    hierarchy_s: float

    @property
    def extraction_local_docs_per_s(self) -> float:
        return 1.0 / max(self.extraction_local_s_per_doc, 1e-9)

    @property
    def expansion_local_docs_per_s(self) -> float:
        return 1.0 / max(self.expansion_local_s_per_doc, 1e-9)

    def format_summary(self) -> str:
        return "\n".join(
            [
                f"Efficiency over {self.documents} documents:",
                "  term extraction (local NE+Wikipedia): "
                f"{self.extraction_local_docs_per_s:,.0f} docs/s "
                f"({self.extraction_local_s_per_doc * 1000:.2f} ms/doc)",
                "  term extraction (with Yahoo web service, modeled): "
                f"{self.extraction_with_yahoo_s_per_doc:.2f} s/doc",
                "  expansion (local Wikipedia+WordNet): "
                f"{self.expansion_local_docs_per_s:,.0f} docs/s "
                f"({self.expansion_local_s_per_doc * 1000:.2f} ms/doc)",
                "  expansion (with Google, modeled): "
                f"{self.expansion_with_google_s_per_doc:.2f} s/doc",
                f"  facet-term selection: {self.selection_s * 1000:.1f} ms",
                f"  hierarchy construction: {self.hierarchy_s:.2f} s",
            ]
        )


@dataclass
class ParallelEfficiencyReport:
    """Cold- vs warm-cache contextualization over a remote resource.

    Both runs use the same worker pool.  ``cold_s`` starts from empty
    caches and populates a persistent store; ``warm_s`` re-runs with a
    fresh resource instance over that store, so its hits come entirely
    from the SQLite tier — the "extract offline" lever of Section V-D.
    """

    documents: int
    workers: int
    latency_seconds: float
    cold_s: float
    warm_s: float
    cold_round_trips: int
    warm_round_trips: int
    warm_persistent_hits: int
    warm_queries: int

    @property
    def warm_speedup(self) -> float:
        return self.cold_s / max(self.warm_s, 1e-9)

    def format_summary(self) -> str:
        return "\n".join(
            [
                f"Cold vs warm persistent cache over {self.documents} documents "
                f"({self.workers} workers, remote resource, "
                f"{self.latency_seconds * 1000:.0f} ms/round trip):",
                f"  cold cache: {self.cold_s:.2f} s "
                f"({self.cold_round_trips} remote round trips)",
                f"  warm cache: {self.warm_s:.2f} s "
                f"({self.warm_round_trips} remote round trips; "
                f"{self.warm_persistent_hits} distinct terms answered from "
                f"SQLite across {self.warm_queries} lookups) — "
                f"{self.warm_speedup:.1f}x speedup",
            ]
        )


@dataclass
class InstrumentedEfficiencyReport:
    """Per-stage / per-resource breakdown sourced from the metrics registry.

    Unlike :class:`EfficiencyReport`, which hand-times each stage with
    ``perf_counter`` around explicit calls, this report runs the real
    pipeline once under :class:`~repro.observability.Observability` and
    reads everything back out of the registry the instrumentation
    populated — the same numbers ``extract --metrics`` prints.
    """

    documents: int
    workers: int
    stage_seconds: dict[str, float]
    resource_counters: dict[str, int]
    cache_counters: dict[str, int]

    @property
    def total_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    def as_dict(self) -> dict[str, object]:
        return {
            "documents": self.documents,
            "workers": self.workers,
            "stage_seconds": dict(self.stage_seconds),
            "resource_counters": dict(self.resource_counters),
            "cache_counters": dict(self.cache_counters),
        }

    def format_summary(self) -> str:
        lines = [
            f"Instrumented pipeline over {self.documents} documents "
            f"({self.workers} workers), from the metrics registry:"
        ]
        for stage in STAGES:
            seconds = self.stage_seconds.get(stage, 0.0)
            share = seconds / max(self.total_seconds, 1e-9)
            lines.append(f"  stage {stage:<18} {seconds:8.3f} s  ({share:5.1%})")
        if self.resource_counters:
            lines.append("  per-resource cache traffic:")
            for name, value in sorted(self.resource_counters.items()):
                lines.append(f"    {name:<40} {value:>8}")
        if self.cache_counters:
            lines.append("  persistent cache:")
            for name, value in sorted(self.cache_counters.items()):
                lines.append(f"    {name:<40} {value:>8}")
        return "\n".join(lines)


class EfficiencyStudy:
    """Time every stage on a document sample."""

    def __init__(
        self,
        config: ReproConfig | None = None,
        builder: FacetPipelineBuilder | None = None,
    ) -> None:
        self.config = config or ReproConfig()
        self.builder = builder or FacetPipelineBuilder(self.config)

    def run(self, documents: list[Document]) -> EfficiencyReport:
        n = max(len(documents), 1)
        substrates = self.builder.substrates

        # Local extraction: NE + Wikipedia titles (no web service).
        local_extractors = build_extractors(
            [ExtractorName.NAMED_ENTITIES, ExtractorName.WIKIPEDIA],
            wikipedia=substrates.wikipedia,
        )
        start = time.perf_counter()
        annotated_local = annotate_database(documents, local_extractors)
        extraction_local = (time.perf_counter() - start) / n

        # With Yahoo: measure the local tf-idf cost, add the modeled
        # web-service latency the paper observed.
        yahoo = build_extractors(
            [ExtractorName.YAHOO], wikipedia=substrates.wikipedia
        )
        start = time.perf_counter()
        annotate_database(documents, yahoo)
        yahoo_local = (time.perf_counter() - start) / n
        extraction_with_yahoo = (
            extraction_local + yahoo_local + SIMULATED_LATENCY_SECONDS
        )

        # Local expansion: Wikipedia Graph + Synonyms + WordNet.
        local_resources = build_resources(
            [
                ResourceName.WIKI_GRAPH,
                ResourceName.WIKI_SYNONYMS,
                ResourceName.WORDNET,
            ],
            substrates,
            self.config,
        )
        start = time.perf_counter()
        contextualized = contextualize(annotated_local, local_resources)
        expansion_local = (time.perf_counter() - start) / n

        # With Google: measure the simulated engine, add modeled latency.
        google = build_resources([ResourceName.GOOGLE], substrates, self.config)
        start = time.perf_counter()
        contextualize(annotated_local, google)
        google_local = (time.perf_counter() - start) / n
        expansion_with_google = (
            expansion_local + google_local + GOOGLE_LATENCY_SECONDS
        )

        start = time.perf_counter()
        candidates = select_facet_terms(contextualized)
        selection_s = time.perf_counter() - start

        start = time.perf_counter()
        build_facet_hierarchies(candidates, contextualized)
        hierarchy_s = time.perf_counter() - start

        return EfficiencyReport(
            documents=len(documents),
            extraction_local_s_per_doc=extraction_local,
            extraction_with_yahoo_s_per_doc=extraction_with_yahoo,
            expansion_local_s_per_doc=expansion_local,
            expansion_with_google_s_per_doc=expansion_with_google,
            selection_s=selection_s,
            hierarchy_s=hierarchy_s,
        )

    def run_instrumented(
        self,
        documents: list[Document],
        workers: int = 1,
    ) -> InstrumentedEfficiencyReport:
        """Run the full pipeline once, instrumented, and report from the registry.

        Stage wall-clock comes from the ``stage.<name>.seconds`` timers
        and cache traffic from the ``resource.*`` / ``cache.persistent.*``
        counters that the pipeline's own instrumentation records — no
        hand-rolled timers around individual stages.
        """
        obs = Observability.enabled()
        previous_parallel = self.builder._parallel
        try:
            self.builder.with_parallel(
                ParallelConfig(workers=workers)
            ).with_observability(obs)
            self.builder.build().run(documents)
        finally:
            self.builder.with_parallel(previous_parallel)
            self.builder.with_observability(None)

        stage_seconds: dict[str, float] = {}
        for stage in STAGES:
            timer = obs.metrics.timer_value(f"stage.{stage}.seconds")
            stage_seconds[stage] = timer.total if timer is not None else 0.0
        counters = obs.metrics.counters
        resource_counters = {
            name: int(value)
            for name, value in counters.items()
            if name.startswith("resource.")
        }
        cache_counters = {
            name: int(value)
            for name, value in counters.items()
            if name.startswith("cache.persistent.")
        }
        return InstrumentedEfficiencyReport(
            documents=len(documents),
            workers=workers,
            stage_seconds=stage_seconds,
            resource_counters=resource_counters,
            cache_counters=cache_counters,
        )

    def run_parallel_comparison(
        self,
        documents: list[Document],
        workers: int = 4,
        latency_seconds: float = COMPARISON_LATENCY_SECONDS,
        cache_path: str = ":memory:",
    ) -> ParallelEfficiencyReport:
        """Measure contextualization from a cold vs a warm persistent cache.

        Expansion over a remote resource is latency-bound: each batch of
        uncached terms costs one (simulated) round trip.  A warm
        persistent cache — expansion performed offline, ahead of the
        run — removes the round trips entirely.
        """
        substrates = self.builder.substrates
        extractors = build_extractors(
            [ExtractorName.NAMED_ENTITIES, ExtractorName.WIKIPEDIA],
            wikipedia=substrates.wikipedia,
        )
        annotated = annotate_database(documents, extractors)
        parallel = ParallelConfig(workers=workers)
        store = PersistentResourceCache(cache_path)

        def timed_run() -> tuple[SimulatedLatencyResource, float]:
            resource = SimulatedLatencyResource(
                build_resource(ResourceName.GOOGLE, substrates, self.config),
                latency_seconds=latency_seconds,
            )
            resource.attach_cache(store)
            start = time.perf_counter()
            contextualize(annotated, [resource], parallel)
            return resource, time.perf_counter() - start

        try:
            # Cold: empty caches; populates the shared persistent store.
            cold, cold_s = timed_run()
            # Warm: a *fresh* resource instance over the now-populated
            # store, so every distinct term is a persistent hit.
            warm, warm_s = timed_run()
        finally:
            store.close()
        warm_stats = warm.cache_stats
        return ParallelEfficiencyReport(
            documents=len(documents),
            workers=workers,
            latency_seconds=latency_seconds,
            cold_s=cold_s,
            warm_s=warm_s,
            cold_round_trips=cold.simulated_calls,
            warm_round_trips=warm.simulated_calls,
            warm_persistent_hits=warm_stats.persistent_hits,
            warm_queries=warm_stats.queries,
        )
