"""Step 1: identify important terms within each document (Figure 1).

For every document, each configured extractor contributes its important
terms ``E_i(d)``; their union is the document annotation ``I(d)``.  The
pass also records the original database's term statistics, which Step 3
compares against the contextualized database.

With ``ParallelConfig.columnar`` (the default) the pass runs on the
columnar data plane (:mod:`repro.core.columnar`): chunk workers memoize
the pure text functions, the statistics fold into an id-indexed
:class:`~repro.core.columnar.ColumnarVocabulary` plus per-document id
columns, and process-pool extraction reads the background statistics
from a shared read-only memory segment.  Output is byte-identical with
the plane on or off.
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
    sentences,
    tokenize,
    use_text_memo,
)
from ..text.phrases import countable_terms, phrases_from_words
from ..text.stopwords import is_stopword
from ..text.vocabulary import TermInterner, Vocabulary
from .columnar import (
    ColumnarVocabulary,
    DocumentColumns,
    SharedVocabularyView,
    attach_segment,
    pack_vocabulary,
)


def document_terms(document: Document) -> list[str]:
    """All countable terms of a document: words plus 2-3-word phrases.

    This is the "Extract all terms from d" of Figure 1; the same
    extraction is used on both the original and the contextualized
    database so their statistics are comparable.

    The text is tokenized exactly once: the per-sentence token streams
    feed both the word list and the phrase n-grams.  (Sentence splitting
    only ever cuts at whitespace, which no token spans, so the
    concatenated per-sentence streams equal the whole-text stream.)
    """
    sentence_words = [
        [token.lower for token in tokenize(sentence)]
        for sentence in sentences(document.text)
    ]
    words = [
        word
        for sentence in sentence_words
        for word in sentence
        if not is_stopword(word)
    ]
    phrases: list[str] = []
    for sentence in sentence_words:
        phrases.extend(
            phrases_from_words(sentence, max_words=3, include_unigrams=False)
        )
    return words + phrases


@dataclass
class AnnotatedDatabase:
    """The original database plus per-document important terms."""

    documents: list[Document]
    important_terms: dict[str, list[str]]  # doc_id -> I(d)
    vocabulary: Vocabulary = field(default_factory=Vocabulary)
    term_sets: dict[str, set[str]] = field(default_factory=dict)
    """doc_id -> normalized original terms (for df computations)."""
    columns: DocumentColumns | None = None
    """Columnar view of per-document normalized term ids (columnar runs)."""

    def important(self, doc_id: str) -> list[str]:
        """Important terms ``I(d)`` of one document."""
        return self.important_terms.get(doc_id, [])


def _stats_chunk(documents: list[Document]) -> list[tuple[str, list[str]]]:
    """Per-chunk worker for the statistics pass: normalized terms per doc.

    Normalization routes through :mod:`repro.text.interning`, so under
    an active memo each distinct surface form pays the regex once per
    chunk.
    """
    out: list[tuple[str, list[str]]] = []
    for document in documents:
        terms = document_terms(document)
        normalized = [t for t in (normalize_term(t) for t in terms) if t]
        out.append((document.doc_id, normalized))
    return out


def _columnar_stats_chunk(
    documents: list[Document],
) -> list[tuple[str, list[str]]]:
    """Statistics worker of the columnar plane: no normalization pass.

    :func:`document_terms` emits lower-cased single tokens and
    space-joined lower-cased token n-grams — every one a fixed point of
    :func:`~repro.text.tokenizer.normalize_term`, because each token is
    a full match of the tokenizer's word regex (pinned by
    ``tests/test_columnar.py``).  Skipping the per-occurrence regex is
    the single biggest win of the columnar statistics pass; reading the
    tokens through :meth:`~repro.text.interning.TextMemo.sentence_columns`
    removes the per-token property churn on top.
    """
    memo = active_memo()
    if memo is None:  # pragma: no cover - workers always run under a memo
        return [
            (document.doc_id, document_terms(document))
            for document in documents
        ]
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


def _columnar_worker_init(segment_name: str | None = None) -> None:
    """Pool initializer for columnar runs: memo + optional segment.

    Arms the worker's persistent text memo and, when the extraction pass
    published the background vocabulary as a shared segment, pre-attaches
    it so the first chunk does not pay the attach.
    """
    install_worker_memo()
    if segment_name is not None:
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
    the output is bit-for-bit identical at every worker count.

    With ``parallel.columnar`` the statistics fold into an id-indexed
    columnar vocabulary plus per-document id columns, chunk workers
    memoize the pure text functions, and a process-backed extraction
    pass reads the background statistics from a shared read-only
    segment (falling back to pickling when shared memory is
    unavailable).  All of it is representation only — the returned
    database is byte-identical to the dict-of-strings path.

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
    use_columnar = settings.columnar
    # First pass: corpus statistics, so that background-scored extractors
    # (the Yahoo stand-in) have idf available during extraction.
    columns: DocumentColumns | None = None
    columnar_vocabulary: ColumnarVocabulary | None = None
    if use_columnar:
        interner = TermInterner()
        columnar_vocabulary = ColumnarVocabulary(interner)
        columns = DocumentColumns(interner)
        vocabulary: Vocabulary = columnar_vocabulary
        stats_worker: Callable[
            [list[Document]], list[tuple[str, list[str]]]
        ] = MemoizedChunk(_columnar_stats_chunk)
    else:
        vocabulary = Vocabulary()
        stats_worker = _stats_chunk
    # Memo placement: an inline run shares one memo across both passes
    # (a document tokenized for statistics is still cached during
    # extraction) and normalizes through the *vocabulary* interner, so
    # every surface form the extractors resolve is already memoized when
    # contextualization probes the same table.  A pooled run arms one
    # persistent memo per worker via the pool initializer instead.
    run_memo = (
        use_text_memo(TextMemo(interner))
        if use_columnar and not settings.enabled
        else nullcontext()
    )
    pool_initializer = (
        install_worker_memo if use_columnar and settings.enabled else None
    )
    term_sets: dict[str, set[str]] = {}
    with run_memo:
        for chunk_result in map_chunks(
            stats_worker, chunks, parallel, obs=obs, initializer=pool_initializer
        ):
            for doc_id, normalized in chunk_result:
                if columnar_vocabulary is not None and columns is not None:
                    ids = columns.add_document(doc_id, normalized)
                    columnar_vocabulary.add_document_ids(ids)
                else:
                    vocabulary.add_document(normalized)
                term_sets[doc_id] = set(normalized)
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
            use_columnar,
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
        if use_columnar and columns is not None:
            metrics.gauge(
                obs_names.COLUMNAR_INTERNED_TERMS, len(columns.interner)
            )
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
    use_columnar: bool,
    pool_initializer: Callable[[], None] | None,
) -> dict[str, list[str]]:
    """The second annotation pass: important-term extraction."""
    # Second pass: important-term extraction.  A columnar process-backed
    # run publishes the statistics as a shared read-only segment and
    # rebinds adopted backgrounds to a view of it, so workers attach
    # instead of unpickling the term table; the real vocabulary is
    # restored afterwards.
    metrics = current_metrics()
    segment = None
    initializer = pool_initializer
    if (
        use_columnar
        and settings.backend == "process"
        and settings.enabled
        and len(chunks) > 1
    ):
        segment = pack_vocabulary(vocabulary)
        if segment is not None:
            view = SharedVocabularyView(segment.name)
            for extractor in extractors:
                extractor.rebind_background(view)
            initializer = partial(_columnar_worker_init, segment.name)
            if metrics is not None:
                metrics.increment(obs_names.COLUMNAR_SHARED_SEGMENTS)
                metrics.increment(
                    obs_names.COLUMNAR_SHARED_SEGMENT_BYTES, segment.size
                )
        elif metrics is not None:
            metrics.increment(obs_names.COLUMNAR_PICKLE_FALLBACKS)
    important: dict[str, list[str]] = {}
    extract = partial(_extract_chunk, extractors)
    if use_columnar:
        extract = MemoizedChunk(extract)
    try:
        for chunk_result in map_chunks(
            extract,
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
