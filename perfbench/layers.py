"""Which public calls a traced run wraps, and the per-layer metrics.

The layer names follow the program's modules: ``text`` + ``core.columnar``
(the part of ``annotate`` outside the extractors), ``extractors``,
``resources`` (the query engine around each substrate), the substrates
``websim`` / ``wordnet`` / ``wikipedia``, ``core`` (annotate,
contextualize, selection, hierarchy), ``parallel``, ``incremental`` and
``serving``.
"""

from __future__ import annotations

import importlib
import os

from spans import EXTRACTOR_NAMES, RESOURCE_NAMES, SpanRecorder, SpanSummary

MEMBERS = ("google", "wordnet", "wiki_graph", "wiki_synonyms")
EXTRACTORS = ("ne", "yahoo", "wikipedia")
STAGES = ("annotate", "contextualize", "selection", "hierarchy")
INDEX_METHODS = (
    "top_level_counts",
    "depth",
    "breadcrumb",
    "children",
    "dice",
    "search_with_facets",
    "facet_counts_for",
    "document",
)
ROUTES = (
    "roots",
    "children",
    "drilldown",
    "drilldown_multi",
    "drilldown_keyword",
    "document",
    "revalidate",
)

#: Every per-layer metric, its unit, in output order.
PER_LAYER: list[tuple[str, str]] = []
for _member in MEMBERS:
    PER_LAYER += [
        (f"resources.{_member}.substrate_s", "s"),
        (f"resources.{_member}.engine_s", "s"),
        (f"resources.{_member}.queries", "count"),
    ]
PER_LAYER += [
    ("resources.composite.engine_s", "s"),
    ("resources.composite.hit_ratio", "ratio"),
    ("resources.composite.coalesced_hits", "count"),
    ("resources.composite.coalesce_wait_s", "s"),
]
for _extractor in EXTRACTORS:
    PER_LAYER += [
        (f"extractors.{_extractor}.s", "s"),
        (f"extractors.{_extractor}.terms", "count"),
    ]
PER_LAYER += [
    ("annotate.s", "s"),
    ("annotate.other_s", "s"),
    ("contextualize.s", "s"),
    ("contextualize.other_s", "s"),
    ("selection.s", "s"),
    ("selection.facet_terms", "count"),
    ("hierarchy.s", "s"),
    ("hierarchy.nodes", "count"),
    ("parallel.busy_share", "ratio"),
    ("parallel.speedup", "ratio"),
    ("cpu_s", "s"),
    ("incremental.append_s", "s"),
    ("incremental.checkpoint_save_s", "s"),
    ("incremental.checkpoint_bytes", "bytes"),
    ("incremental.dirty_docs", "count"),
    ("incremental.touched_terms", "count"),
    ("incremental.restore_s", "s"),
    ("incremental.restore_load_s", "s"),
    ("incremental.restore_rebuild_s", "s"),
    ("serving.artifact_build_s", "s"),
    ("serving.artifact_bytes", "bytes"),
]
PER_LAYER += [(f"serving.index.{_m}_ms", "ms") for _m in INDEX_METHODS]
PER_LAYER += [("serving.render_ms", "ms")]
PER_LAYER += [(f"serving.route.{_r}_p50_ms", "ms") for _r in ROUTES]
PER_LAYER += [
    ("serving.not_modified_share", "ratio"),
    ("serving.generator_lag_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
]


def _node_count(hierarchies) -> float:
    return float(sum(h.size for h in hierarchies))


def instrument_pipeline(recorder: SpanRecorder) -> None:
    """Wrap the extraction layers: stages, extractors, engine, substrates,
    pool hand-off, incremental append/checkpoint/restore."""
    annotate = importlib.import_module("repro.core.annotate")
    contextualize = importlib.import_module("repro.core.contextualize")
    pipeline = importlib.import_module("repro.core.pipeline")
    from repro.extractors.named_entities import NamedEntityExtractor
    from repro.extractors.significant_terms import SignificantTermsExtractor
    from repro.extractors.wiki_titles import WikipediaTitleExtractor
    from repro.incremental import extractor as incremental
    from repro.incremental.checkpoint import CheckpointStore
    from repro.incremental.state import IncrementalState
    from repro.resources.base import ExternalResource
    from repro.websim.engine import SearchEngineSim
    from repro.wikipedia.graph import WikipediaGraph
    from repro.wikipedia.synonyms import SynonymFinder
    from repro.wordnet.hypernyms import HypernymLookup

    def size(_args, result) -> float:
        return float(len(result))

    recorder.wrap(pipeline, "annotate_database", "annotate")
    recorder.wrap(pipeline, "contextualize", "contextualize")
    recorder.wrap(pipeline, "select_facet_terms", "selection", count=size)
    recorder.wrap(
        pipeline,
        "build_facet_hierarchies",
        "hierarchy",
        count=lambda _a, result: _node_count(result),
    )
    # The incremental engine runs its stages as methods of its own; the
    # benchmark wraps those so both paths report the same stage names.
    recorder.wrap(incremental.IncrementalExtractor, "_ingest", "annotate")
    recorder.wrap(incremental.IncrementalExtractor, "_rescore", "annotate")
    recorder.wrap(incremental.IncrementalExtractor, "_expand", "contextualize")
    recorder.wrap(incremental.IncrementalExtractor, "_select_and_build", "selection")
    recorder.wrap(
        incremental,
        "build_hierarchies_from_doc_sets",
        "hierarchy",
        count=lambda _a, result: _node_count(result),
    )
    recorder.wrap(incremental.IncrementalExtractor, "append", "incremental.append")
    for module in (annotate, contextualize, incremental):
        recorder.wrap_pool(module)

    for cls in (NamedEntityExtractor, SignificantTermsExtractor, WikipediaTitleExtractor):
        label = f"extractors.{EXTRACTOR_NAMES[cls.name.value]}"
        recorder.wrap(cls, "extract", label, count=size)
    recorder.wrap(
        SignificantTermsExtractor, "candidate_counts", "extractors.yahoo"
    )
    recorder.wrap(
        SignificantTermsExtractor, "score_candidates", "extractors.yahoo", count=size
    )

    def engine_name(args) -> str:
        return f"resources.{RESOURCE_NAMES[args[0].metric_label()]}.engine"

    recorder.wrap(
        ExternalResource,
        "context_terms_many",
        engine_name,
        count=lambda args, _r: float(len(args[1])),
    )
    recorder.wrap(
        ExternalResource, "context_terms", engine_name, count=lambda _a, _r: 1.0
    )

    def one(_args, _result) -> float:
        return 1.0

    def batch(args, _result) -> float:
        return float(len(args[1]))

    # The calls the resources' batched query path makes.  Single-term
    # lookups are left alone: the engine does not use them, and the
    # hierarchy's edge check makes tens of thousands of them.
    recorder.wrap(
        SearchEngineSim, "frequent_snippet_terms", "resources.google.substrate", count=one
    )
    for cls, many, member in (
        (HypernymLookup, "hypernyms_many", "wordnet"),
        (WikipediaGraph, "neighbours_many", "wiki_graph"),
        (SynonymFinder, "synonyms_many", "wiki_synonyms"),
    ):
        recorder.wrap(cls, many, f"resources.{member}.substrate", count=batch)

    recorder.wrap(
        CheckpointStore,
        "save",
        "incremental.checkpoint_save",
        count=lambda _a, path: float(os.path.getsize(path)),
    )
    recorder.wrap(CheckpointStore, "load_latest", "incremental.restore_load")
    recorder.wrap(IncrementalState, "from_payload", "incremental.restore_rebuild")


def instrument_artifact_build(recorder: SpanRecorder) -> None:
    from repro.serving.artifact import FacetIndex

    recorder.wrap(
        FacetIndex,
        "build",
        "serving.artifact_build",
        count=lambda _a, index: float(os.path.getsize(index.path)),
    )


def instrument_serving(recorder: SpanRecorder) -> None:
    """Wrap the artifact's public queries and the response renderers."""
    from repro.serving import renderers
    from repro.serving.artifact import FacetIndex

    for method in INDEX_METHODS:
        recorder.wrap(FacetIndex, method, f"serving.index.{method}")
    for builder in (
        "facets_payload",
        "children_payload",
        "drilldown_payload",
        "document_payload",
        "canonical_json",
    ):
        recorder.wrap(renderers, builder, "serving.render")


def _member_metrics(summary: SpanSummary, metrics: dict[str, float]) -> None:
    """Split each resource's time into substrate and engine.

    Substrate calls count for a resource only when a resource engine
    call is on their stack; the same lookups made elsewhere (hierarchy
    edge checks) belong to the stage that made them.
    """
    def is_engine(name: str) -> bool:
        return name.startswith("resources.") and name.endswith(".engine")

    for member in MEMBERS:
        substrate = f"resources.{member}.substrate"
        seconds = 0.0
        queries = 0.0
        for span in summary.outermost(substrate):
            if summary.ancestor_name(span, is_engine) is not None:
                seconds += span[4] - span[3]
                queries += span[5]
        metrics[f"resources.{member}.substrate_s"] = seconds
        metrics[f"resources.{member}.queries"] = queries
        engine = f"resources.{member}.engine"
        metrics[f"resources.{member}.engine_s"] = summary.self_time(engine)
    metrics["resources.composite.engine_s"] = summary.self_time(
        "resources.composite.engine"
    )


def pipeline_layer_metrics(summary: SpanSummary) -> dict[str, float]:
    """Per-layer figures of the extraction workloads' traced unit."""
    metrics: dict[str, float] = {}
    _member_metrics(summary, metrics)
    for extractor in EXTRACTORS:
        name = f"extractors.{extractor}"
        metrics[f"{name}.s"] = summary.total(name)
        metrics[f"{name}.terms"] = summary.amount(name)
    for stage in STAGES:
        metrics[f"{stage}.s"] = summary.total(stage)
    metrics["annotate.other_s"] = summary.self_time("annotate")
    metrics["contextualize.other_s"] = summary.self_time("contextualize")
    # The incremental selection span encloses its hierarchy rebuild.
    metrics["selection.s"] = summary.self_time("selection")
    metrics["selection.facet_terms"] = summary.amount("selection")
    metrics["hierarchy.nodes"] = summary.amount("hierarchy")
    busy = sum(summary.total(f"extractors.{x}") for x in EXTRACTORS)
    busy += summary.total("resources.composite.engine")
    metrics["_busy_s"] = busy
    metrics["incremental.append_s"] = summary.total("incremental.append")
    metrics["incremental.checkpoint_save_s"] = summary.total(
        "incremental.checkpoint_save"
    )
    metrics["incremental.checkpoint_bytes"] = summary.amount(
        "incremental.checkpoint_save"
    )
    metrics["incremental.restore_load_s"] = summary.total("incremental.restore_load")
    metrics["incremental.restore_rebuild_s"] = summary.total(
        "incremental.restore_rebuild"
    )
    metrics["trace.spans"] = float(len(summary.spans))
    return metrics
