"""Step 1: identify important terms within each document (Figure 1).

For every document, each configured extractor contributes its important
terms ``E_i(d)``; their union is the document annotation ``I(d)``.  The
pass also records the original database's term statistics, which Step 3
compares against the contextualized database.

The pass runs on the columnar data plane (:mod:`repro.core.columnar`):
chunk workers run under a :class:`~repro.text.interning.TextMemo` that
memoizes the pure text functions, the statistics fold into an id-indexed
:class:`~repro.core.columnar.ColumnarVocabulary` plus per-document id
columns, and process-pool extraction reads the background statistics
from a shared read-only memory segment.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial

from ..config import ParallelConfig
from ..corpus.document import Document
from ..extractors.base import TermExtractor
from ..observability import Observability
from ..observability import names as obs_names
from ..observability.context import current_metrics
from ..parallel import chunked, map_chunks
from ..text.interning import (
    MemoizedChunk,
    TextMemo,
    active_memo,
    install_worker_memo,
    normalize_term,
    use_text_memo,
)
from ..text.phrases import countable_terms
from ..text.vocabulary import TermInterner, Vocabulary
from .columnar import (
    ColumnarVocabulary,
    DocumentColumns,
    SharedVocabularyView,
    attach_segment,
    pack_vocabulary,
)


@dataclass
class AnnotatedDatabase:
    """The original database plus per-document important terms."""

    documents: list[Document]
    important_terms: dict[str, list[str]]  # doc_id -> I(d)
    vocabulary: Vocabulary = field(default_factory=Vocabulary)
    term_sets: dict[str, set[str]] = field(default_factory=dict)
    """doc_id -> normalized original terms (for df computations)."""
    columns: DocumentColumns | None = None
    """Per-document normalized term ids (None when rebuilt from incremental
    state)."""

    def important(self, doc_id: str) -> list[str]:
        """Important terms ``I(d)`` of one document."""
        return self.important_terms.get(doc_id, [])


def countable_terms_chunk(
    documents: list[Document],
) -> list[tuple[str, list[str]]]:
    """Statistics worker: each document's countable terms, in order.

    This is the "Extract all terms from d" of Figure 1; the same
    extraction feeds the original and the contextualized database, so
    their statistics are comparable.  Shared by the batch annotation
    pass and the incremental pipeline, whose checkpoints store these
    lists verbatim.

    :func:`~repro.text.phrases.countable_terms` reads the memoized
    sentence columns of the active :class:`~repro.text.interning.TextMemo`
    (or a throwaway one) and emits lower-cased single tokens and
    space-joined lower-cased token n-grams — every one a fixed point of
    :func:`~repro.text.tokenizer.normalize_term`, because each token is
    a full match of the tokenizer's word regex (pinned by
    ``tests/test_columnar.py``) — so no per-occurrence normalization is
    needed.
    """
    memo = active_memo() or TextMemo()
    return [
        (document.doc_id, countable_terms(document.text, memo))
        for document in documents
    ]


def merge_important(outputs: Iterable[list[str]]) -> list[str]:
    """Union per-extractor term lists into ``I(d)``, first-seen order.

    Deduplication is on the normalized form; the first surface form
    wins.  Shared by the batch annotation pass and the incremental
    pipeline (which re-merges cached per-extractor outputs), so the two
    paths cannot diverge.  Normalization routes through the interning
    layer: with an active memo each distinct surface normalizes once
    per chunk.
    """
    merged: list[str] = []
    seen: set[str] = set()
    for terms in outputs:
        for term in terms:
            key = normalize_term(term)
            if key and key not in seen:
                seen.add(key)
                merged.append(term)
    return merged


def _segment_worker_init(segment_name: str) -> None:
    """Pool initializer of a shared-segment extraction pass.

    Arms the worker's persistent text memo and pre-attaches the segment
    holding the background vocabulary, so the first chunk does not pay
    the attach.
    """
    install_worker_memo()
    attach_segment(segment_name)


def _extract_chunk(
    extractors: list[TermExtractor], documents: list[Document]
) -> list[tuple[str, list[str]]]:
    """Per-chunk worker for the extraction pass: ``I(d)`` per doc."""
    out: list[tuple[str, list[str]]] = []
    for document in documents:
        merged = merge_important(
            extractor.extract(document) for extractor in extractors
        )
        out.append((document.doc_id, merged))
    return out


def annotate_database(
    documents: list[Document],
    extractors: list[TermExtractor],
    parallel: ParallelConfig | None = None,
    obs: Observability | None = None,
    on_important: Callable[[list[tuple[str, list[str]]]], None] | None = None,
) -> AnnotatedDatabase:
    """Run Step 1 over a document collection.

    Every document is scanned once per extractor; the union of extractor
    outputs (deduplicated on normalized form) becomes ``I(d)``.

    With ``parallel.workers > 1`` both passes are sharded over a worker
    pool; each document is processed by the same per-chunk code the
    serial path uses and the results are folded in document order, so
    the output is bit-for-bit identical at every worker count.  A
    process-backed extraction pass reads the background statistics from
    a shared read-only segment (falling back to pickling when shared
    memory is unavailable).

    An active ``obs`` bundle records a chunk span per shard and
    per-chunk worker-local metrics (see :func:`repro.parallel.map_chunks`);
    instrumentation never touches the data path.

    ``on_important`` fires with each extraction chunk's
    ``(doc_id, I(d))`` list as the chunk completes (possibly on a worker
    thread) — the hook the pipeline uses to start prefetching resource
    answers for a chunk's terms while later chunks are still being
    tagged.  It must be side-effect-only; the returned database never
    depends on it.
    """
    settings = parallel or ParallelConfig(workers=1)
    chunk_size = settings.resolve_chunk_size(len(documents))
    chunks = chunked(documents, max(1, chunk_size))
    # First pass: corpus statistics, so that background-scored extractors
    # (the Yahoo stand-in) have idf available during extraction.
    interner = TermInterner()
    vocabulary = ColumnarVocabulary(interner)
    columns = DocumentColumns(interner)
    # Memo placement: an inline run shares one memo across both passes
    # (a document tokenized for statistics is still cached during
    # extraction) and normalizes through the *vocabulary* interner, so
    # every surface form the extractors resolve is already memoized when
    # contextualization probes the same table.  A pooled run arms one
    # persistent memo per worker via the pool initializer instead.
    run_memo = (
        nullcontext() if settings.enabled else use_text_memo(TextMemo(interner))
    )
    pool_initializer = install_worker_memo if settings.enabled else None
    term_sets: dict[str, set[str]] = {}
    with run_memo:
        for chunk_result in map_chunks(
            countable_terms_chunk,
            chunks,
            parallel,
            obs=obs,
            initializer=pool_initializer,
        ):
            for doc_id, terms in chunk_result:
                vocabulary.add_document_ids(columns.add_document(doc_id, terms))
                term_sets[doc_id] = set(terms)
        for extractor in extractors:
            extractor.use_background(vocabulary)
        important = _extract_pass(
            extractors,
            vocabulary,
            chunks,
            settings,
            parallel,
            obs,
            on_important,
            pool_initializer,
        )
    metrics = current_metrics()
    if metrics is not None:
        metrics.increment("annotate.documents", len(documents))
        metrics.increment(
            "annotate.important_terms",
            # order: summing ints is order-insensitive
            sum(len(terms) for terms in important.values()),
        )
        metrics.gauge("annotate.vocabulary_size", len(vocabulary))
        metrics.gauge(obs_names.COLUMNAR_INTERNED_TERMS, len(interner))
    return AnnotatedDatabase(
        documents=list(documents),
        important_terms=important,
        vocabulary=vocabulary,
        term_sets=term_sets,
        columns=columns,
    )


def _extract_pass(
    extractors: list[TermExtractor],
    vocabulary: Vocabulary,
    chunks: list[list[Document]],
    settings: ParallelConfig,
    parallel: ParallelConfig | None,
    obs: Observability | None,
    on_important: Callable[[list[tuple[str, list[str]]]], None] | None,
    pool_initializer: Callable[[], None] | None,
) -> dict[str, list[str]]:
    """The second annotation pass: important-term extraction."""
    # A process-backed run publishes the statistics as a shared
    # read-only segment and rebinds adopted backgrounds to a view of it,
    # so workers attach instead of unpickling the term table; the real
    # vocabulary is restored afterwards.
    metrics = current_metrics()
    segment = None
    initializer = pool_initializer
    if settings.backend == "process" and settings.enabled and len(chunks) > 1:
        segment = pack_vocabulary(vocabulary)
        if segment is not None:
            view = SharedVocabularyView(segment.name)
            for extractor in extractors:
                extractor.rebind_background(view)
            initializer = partial(_segment_worker_init, segment.name)
            if metrics is not None:
                metrics.increment(obs_names.COLUMNAR_SHARED_SEGMENTS)
                metrics.increment(
                    obs_names.COLUMNAR_SHARED_SEGMENT_BYTES, segment.size
                )
        elif metrics is not None:
            metrics.increment(obs_names.COLUMNAR_PICKLE_FALLBACKS)
    important: dict[str, list[str]] = {}
    try:
        for chunk_result in map_chunks(
            MemoizedChunk(partial(_extract_chunk, extractors)),
            chunks,
            parallel,
            obs=obs,
            on_result=on_important,
            initializer=initializer,
        ):
            for doc_id, merged in chunk_result:
                important[doc_id] = merged
    finally:
        if segment is not None:
            for extractor in extractors:
                extractor.rebind_background(vocabulary)
            segment.unlink()
    return important
