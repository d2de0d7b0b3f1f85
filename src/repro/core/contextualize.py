"""Step 2: expand documents with context terms (Figure 2).

Each important term of each document is sent to every external resource;
the union of returned context terms ``C(d)`` augments the document.  The
contextualized database keeps, per document, the original terms plus the
context terms — the input to the comparative analysis of Step 3.

The expansion runs on the columnar data plane: the run's distinct
important terms are resolved once (one batch per resource per term
shard), every answer is normalized and interned once, and the
per-document merges become integer set operations over precomputed
``(surface, key-id)`` contribution lists.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

from ..config import ParallelConfig
from ..observability import Observability
from ..observability.context import current_metrics
from ..parallel import chunked, map_chunks
from ..resources.base import ExternalResource
from ..text.interning import MemoizedChunk, install_worker_memo, normalize_term
from ..text.vocabulary import TermInterner, Vocabulary
from .annotate import AnnotatedDatabase
from .columnar import ColumnarVocabulary, DocumentColumns


@dataclass
class ContextualizedDatabase:
    """The expanded database ``C(D)``."""

    annotated: AnnotatedDatabase
    context_terms: dict[str, list[str]]  # doc_id -> C(d) (surface forms)
    expanded_sets: dict[str, set[str]] = field(default_factory=dict)
    """doc_id -> normalized original + context terms."""
    vocabulary: Vocabulary = field(default_factory=Vocabulary)
    """Term statistics of the contextualized database."""
    columns: DocumentColumns | None = None
    """Per-document expanded term ids (None when rebuilt from incremental
    state)."""

    def context(self, doc_id: str) -> list[str]:
        """Context terms ``C(d)`` of one document."""
        return self.context_terms.get(doc_id, [])


def expand_items(
    resources: list[ExternalResource],
    items: list[tuple[str, list[str]]],
) -> list[tuple[str, list[str], list[str]]]:
    """Expand ``(doc_id, I(d))`` work items into
    ``(doc_id, C(d) surface forms, normalized keys in first-seen order)``.

    The incremental pipeline expands only new/dirty documents through
    this entry point.  The items' distinct important terms (first-seen
    surface form per normalized key) are answered with a single
    :meth:`~repro.resources.base.ExternalResource.context_terms_many`
    call per resource — bulk backend lookups, batched persistent-cache
    I/O, and single-flight coalescing across concurrent chunks — then
    merged per document in the same order as the batch pipeline's
    columnar plan, so both produce identical payloads.
    """
    ordered_terms: list[str] = []
    known_keys: set[str] = set()
    for _doc_id, important in items:
        for term in important:
            key = normalize_term(term)
            if key and key not in known_keys:
                known_keys.add(key)
                ordered_terms.append(term)
    answer_tables: list[dict[str, list[str]]] = []
    for resource in resources:
        batch = resource.context_terms_many(ordered_terms)
        answer_tables.append(
            {
                normalize_term(term): answer
                for term, answer in zip(ordered_terms, batch)
            }
        )
    out: list[tuple[str, list[str], list[str]]] = []
    for doc_id, important in items:
        merged: list[str] = []
        seen_keys: list[str] = []
        seen: set[str] = set()
        for term in important:
            key = normalize_term(term)
            for table in answer_tables:
                for context_term in table.get(key, []):
                    context_key = normalize_term(context_term)
                    if context_key and context_key not in seen:
                        seen.add(context_key)
                        seen_keys.append(context_key)
                        merged.append(context_term)
        out.append((doc_id, merged, seen_keys))
    return out


def _resolve_chunk(
    resources: list[ExternalResource], terms: list[str]
) -> list[list[list[str]]]:
    """Phase-A worker: per-resource batched answers for a shard
    of the run's distinct important terms."""
    return [resource.context_terms_many(terms) for resource in resources]


#: Shared empty contribution list for keys no resource answered.
_NO_PAIRS: tuple[tuple[str, int], ...] = ()


def contextualize(
    annotated: AnnotatedDatabase,
    resources: list[ExternalResource],
    parallel: ParallelConfig | None = None,
    obs: Observability | None = None,
) -> ContextualizedDatabase:
    """Run Step 2: query every resource with every important term.

    Resources memoize per-term answers, so cost scales with the number
    of *distinct* important terms, not with corpus size — this is what
    makes the offline-expansion deployment of Section V-D practical.

    The run's distinct important terms are resolved once, in shards of
    one deduplicated batch per resource (sharded over a worker pool when
    ``parallel.workers > 1``); then every document merges its answers
    with integer set operations.  Resource answers are keyed by
    normalized term, so sharding cannot change them; contribution lists
    preserve resource order and answer order, and the per-document
    filter keeps the first-seen surface of each key — the same merge
    :func:`expand_items` runs over strings.  The contextualized database
    is bit-for-bit identical at every worker count.
    """
    settings = parallel or ParallelConfig(workers=1)
    work: list[tuple[str, list[str]]] = [
        (document.doc_id, annotated.important(document.doc_id))
        for document in annotated.documents
    ]
    interner = (
        annotated.columns.interner
        if annotated.columns is not None
        else TermInterner()
    )
    # Phase A: the run's distinct important terms, first surface per key.
    # Per-document key-id lists are kept (dropping empty normalizations)
    # so phase B never re-probes the surface → id table.
    ordered_terms: list[str] = []
    key_ids: list[int] = []
    known: set[int] = set()
    kids_per_doc: list[list[int]] = []
    for _doc_id, important in work:
        doc_kids: list[int] = []
        for term, kid in zip(important, interner.normalized_ids(important)):
            if kid < 0:
                continue
            doc_kids.append(kid)
            if kid not in known:
                known.add(kid)
                ordered_terms.append(term)
                key_ids.append(kid)
        kids_per_doc.append(doc_kids)
    term_chunks = (
        chunked(
            ordered_terms,
            max(1, settings.resolve_chunk_size(len(ordered_terms))),
        )
        if ordered_terms
        else []
    )
    resolve: Callable[[list[str]], list[list[list[str]]]] = MemoizedChunk(
        partial(_resolve_chunk, resources)
    )
    per_resource: list[list[list[str]]] = [[] for _ in resources]
    for chunk_answers in map_chunks(
        resolve,
        term_chunks,
        parallel,
        obs=obs,
        initializer=install_worker_memo if settings.enabled else None,
    ):
        for r_index, answers in enumerate(chunk_answers):
            per_resource[r_index].extend(answers)
    # Contribution lists: per key id, the (surface, key id) pairs its
    # answers add, in resource order then answer order — each answer
    # term normalized and interned exactly once per run.
    pairs: dict[int, list[tuple[str, int]]] = {}
    for position, kid in enumerate(key_ids):
        contributions: list[tuple[str, int]] = []
        for answers in per_resource:
            answer = answers[position]
            contributions.extend(
                (context_term, context_kid)
                for context_term, context_kid in zip(
                    answer, interner.normalized_ids(answer)
                )
                if context_kid >= 0
            )
        if contributions:
            pairs[kid] = contributions
    # Phase B: per-document merges (first-seen over ids) and statistics.
    terms_by_id = interner.terms()
    context_terms: dict[str, list[str]] = {}
    expanded_sets: dict[str, set[str]] = {}
    vocabulary = ColumnarVocabulary(interner)
    columns = DocumentColumns(interner)
    annotated_columns = annotated.columns
    for doc_index, (doc_id, _important) in enumerate(work):
        merged: list[str] = []
        seen: set[int] = set()
        seen_order: list[int] = []
        for kid in kids_per_doc[doc_index]:
            for context_term, context_kid in pairs.get(kid, _NO_PAIRS):
                if context_kid not in seen:
                    seen.add(context_kid)
                    seen_order.append(context_kid)
                    merged.append(context_term)
        context_terms[doc_id] = merged
        if (
            annotated_columns is not None
            and doc_index < len(annotated_columns)
            and annotated_columns.doc_ids[doc_index] == doc_id
        ):
            expanded_ids = set(annotated_columns.ids_of(doc_index))
        else:
            expanded_ids = {
                interner.intern(term)
                for term in annotated.term_sets.get(doc_id, set())
            }
        expanded_ids.update(seen_order)
        expanded_sets[doc_id] = {terms_by_id[i] for i in expanded_ids}
        vocabulary.add_document_distinct_ids(expanded_ids)
        columns.add_document_ids(doc_id, sorted(expanded_ids))
    metrics = current_metrics()
    if metrics is not None:
        metrics.increment("contextualize.documents", len(work))
        metrics.increment(
            "contextualize.context_terms",
            # order: summing ints is order-insensitive
            sum(len(terms) for terms in context_terms.values()),
        )
        metrics.gauge("contextualize.vocabulary_size", len(vocabulary))
    return ContextualizedDatabase(
        annotated=annotated,
        context_terms=context_terms,
        expanded_sets=expanded_sets,
        vocabulary=vocabulary,
        columns=columns,
    )
