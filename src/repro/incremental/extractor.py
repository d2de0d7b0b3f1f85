"""The incremental (append-only) facet extraction engine.

:class:`IncrementalExtractor` wraps a configured
:class:`~repro.core.pipeline.FacetExtractor` and maintains its result
across batches of appended documents.  The output contract is strict:
after any sequence of :meth:`~IncrementalExtractor.append` calls, the
selected facet terms and hierarchies are **byte-for-byte identical** to
a from-scratch :meth:`FacetExtractor.run` on the union corpus.  The
differential harness in ``tests/test_incremental_equivalence.py``
enforces this across batch schedules and worker counts.

The contract is met by construction, not by luck — every stage reuses
the exact code the batch pipeline runs:

* Step 1 statistics use the same memoized
  :func:`~repro.core.annotate.countable_terms_chunk` worker and update
  the shared :class:`~repro.text.vocabulary.Vocabulary` in place, which
  keeps the background the Yahoo extractor adopted permanently current.
* Because that background changes with every batch, *every* cached
  document's tf·idf scores can shift.  Re-tokenizing the corpus would
  defeat the point, so the extractor caches each document's candidate
  ``(term, tf)`` pairs and re-runs only
  :meth:`~repro.extractors.significant_terms.SignificantTermsExtractor.score_candidates`
  against the updated statistics (idf memoized per distinct df).
  Documents whose merged ``I(d)`` actually changed become *dirty*.
* Step 2 re-expands only new + dirty documents through
  :func:`~repro.core.contextualize.expand_items` (resource answers are
  corpus-independent and memoized); the contextualized vocabulary is
  repaired with :meth:`Vocabulary.remove_document` / ``add_document``.
* Step 3 keeps a *pre-test set* — the terms with ``df_C > df``, the
  only possible shift candidates — maintained from per-batch df deltas,
  and recomputes shift and likelihood statistics for those terms only
  (per-batch :class:`~repro.core.shifts.ShiftTables` +
  :class:`~repro.core.likelihood.LikelihoodTables`).  The final sort
  key ``(-score, term)`` is total, so iterating the pre-test set in
  sorted order yields exactly the batch pipeline's ranking.
* Hierarchy construction reads per-term document sets from the
  maintained postings index (no corpus scan) and runs the shared
  :func:`~repro.core.hierarchy.build_hierarchies_from_doc_sets`, the
  batch pipeline's one co-occurrence path.

Checkpointing is delegated to a
:class:`~repro.incremental.checkpoint.CheckpointStore`; a snapshot is
written after every ``checkpoint_every`` batches and
:meth:`IncrementalExtractor.restore` resumes from the newest valid one.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Iterable
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

from ..core.annotate import (
    AnnotatedDatabase,
    countable_terms_chunk,
    merge_important,
)
from ..core.contextualize import ContextualizedDatabase, expand_items
from ..core.hierarchy import FacetHierarchy, build_hierarchies_from_doc_sets
from ..core.likelihood import LikelihoodTables
from ..core.pipeline import FacetExtractionResult, FacetExtractor
from ..core.selection import FacetTermCandidate
from ..core.shifts import ShiftTables
from ..corpus.document import Document
from ..extractors.base import TermExtractor
from ..extractors.significant_terms import SignificantTermsExtractor
from ..observability import Observability
from ..observability import names as obs_names
from ..observability.logging import get_logger
from ..parallel import chunked, map_chunks
from ..text.interning import (
    MemoizedChunk,
    TextMemo,
    install_worker_memo,
    use_text_memo,
)
from ..text.tokenizer import normalize_term
from .checkpoint import CheckpointStore
from .state import DocumentState, IncrementalState

log = get_logger(__name__)

#: Extractor classification: output never depends on corpus statistics.
MODE_STATIC = "static"
#: Corpus-dependent via tf·idf — cached candidates are re-scored.
MODE_RESCORE = "rescore"
#: Unknown background consumer — conservatively re-extracted per batch.
MODE_REEXTRACT = "reextract"

@dataclass(frozen=True)
class IncrementalBatchReport:
    """What one :meth:`IncrementalExtractor.append` call did."""

    batch_id: str
    documents: int
    dirty_documents: int
    touched_terms: int
    pretest_changes: int
    facet_terms: int
    facets: int
    checkpointed: bool
    seconds: float


def _annotate_chunk(
    extractors: list[TermExtractor],
    modes: list[str],
    documents: list[Document],
) -> list[tuple[str, list[list[str]], dict[int, list[tuple[str, int]]]]]:
    """Per-chunk Step 1 worker for *new* documents.

    Returns, per document, the per-extractor outputs plus the cached
    scoring candidates of every re-scorable extractor (the expensive
    tokenization half, kept so later batches never redo it).
    """
    out: list[tuple[str, list[list[str]], dict[int, list[tuple[str, int]]]]] = []
    for document in documents:
        outputs: list[list[str]] = []
        candidates: dict[int, list[tuple[str, int]]] = {}
        for index, (extractor, mode) in enumerate(zip(extractors, modes)):
            if mode == MODE_RESCORE:
                assert isinstance(extractor, SignificantTermsExtractor)
                pairs = extractor.candidate_counts(document)
                candidates[index] = pairs
                outputs.append(extractor.score_candidates(pairs))
            else:
                outputs.append(extractor.extract(document))
        out.append((document.doc_id, outputs, candidates))
    return out


class IncrementalExtractor:
    """Append-only facet extraction with the batch pipeline's results.

    Parameters
    ----------
    pipeline:
        A configured (ideally freshly built) batch pipeline; its
        extractors, resources, selection settings and parallel/
        observability configuration are all honoured.
    checkpoint:
        Optional checkpoint store; when given, a snapshot is written
        after every ``checkpoint_every``-th batch.
    checkpoint_every:
        Checkpoint cadence in batches.
    state:
        A restored :class:`IncrementalState` (used by :meth:`restore`);
        None starts from an empty corpus.
    """

    def __init__(
        self,
        pipeline: FacetExtractor,
        checkpoint: CheckpointStore | None = None,
        checkpoint_every: int = 1,
        state: IncrementalState | None = None,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if pipeline.statistic not in ("log-likelihood", "chi-square"):
            raise ValueError(f"unknown statistic: {pipeline.statistic!r}")
        self._pipeline = pipeline
        self._checkpoint = checkpoint
        self._checkpoint_every = checkpoint_every
        self._state = state if state is not None else IncrementalState()
        self._facet_terms: list[FacetTermCandidate] = []
        self._hierarchies: list[FacetHierarchy] = []
        self._modes = self._bind_extractors()
        if self._state.document_count:
            obs = self._pipeline.observability
            with obs.collect():
                self._select_and_build(obs)

    # -- wiring --------------------------------------------------------------

    def _bind_extractors(self) -> list[str]:
        """Attach the live vocabulary as background and classify extractors."""
        vocabulary = self._state.original_vocabulary
        modes: list[str] = []
        for extractor in self._pipeline.extractors:
            extractor.use_background(vocabulary)
            if isinstance(extractor, SignificantTermsExtractor):
                if extractor.background_adopted:
                    if extractor.background is not vocabulary:
                        raise ValueError(
                            "pipeline extractor already adopted a different "
                            "background corpus; build a fresh pipeline for "
                            "incremental use"
                        )
                    modes.append(MODE_RESCORE)
                else:
                    # Explicit fixed background: corpus-independent.
                    modes.append(MODE_STATIC)
            elif type(extractor).use_background is TermExtractor.use_background:
                modes.append(MODE_STATIC)
            else:
                modes.append(MODE_REEXTRACT)
        return modes

    # -- public surface ------------------------------------------------------

    @property
    def state(self) -> IncrementalState:
        return self._state

    @property
    def document_count(self) -> int:
        return self._state.document_count

    @property
    def batches_done(self) -> list[str]:
        return list(self._state.batches_done)

    @property
    def facet_terms(self) -> list[FacetTermCandidate]:
        """Current selection, ranked exactly as the batch pipeline ranks."""
        return list(self._facet_terms)

    @property
    def hierarchies(self) -> list[FacetHierarchy]:
        return list(self._hierarchies)

    def facet_term_strings(self) -> list[str]:
        return [candidate.term for candidate in self._facet_terms]

    @classmethod
    def restore(
        cls,
        pipeline: FacetExtractor,
        checkpoint: CheckpointStore,
        checkpoint_every: int = 1,
    ) -> "IncrementalExtractor":
        """Resume from the newest valid snapshot (empty state when none)."""
        loaded = checkpoint.load_latest()
        state: IncrementalState | None = None
        if loaded is not None:
            sequence, payload = loaded
            state = IncrementalState.from_payload(payload)
            log.info(
                "incremental.restored",
                sequence=sequence,
                documents=state.document_count,
                batches=len(state.batches_done),
            )
        return cls(
            pipeline,
            checkpoint=checkpoint,
            checkpoint_every=checkpoint_every,
            state=state,
        )

    def append(
        self,
        documents: Iterable[Document],
        batch_id: str | None = None,
    ) -> IncrementalBatchReport:
        """Ingest one batch and bring the extraction result up to date.

        Raises :class:`ValueError` on a document id already ingested (or
        repeated within the batch) — silently re-counting a document
        would corrupt every downstream statistic.
        """
        docs = list(documents)
        state = self._state
        new_ids: set[str] = set()
        for document in docs:
            if state.has_document(document.doc_id) or document.doc_id in new_ids:
                raise ValueError(f"duplicate document id: {document.doc_id!r}")
            new_ids.add(document.doc_id)
        obs = self._pipeline.observability
        batch_index = len(state.batches_done)
        label = batch_id if batch_id is not None else f"batch-{batch_index:06d}"
        start = time.perf_counter()
        with obs.collect(), obs.tracer.span(
            obs_names.SPAN_INCREMENTAL_BATCH, batch=label, documents=len(docs)
        ) as batch_span:
            dirty: list[str] = []
            flips = 0
            touched: set[str] = set()
            if docs:
                touched = self._ingest(docs, obs)
                dirty = self._rescore(new_ids, obs)
                touched |= self._expand(new_ids, dirty, obs)
                flips = state.update_pretest(touched)
                self._select_and_build(obs)
            # An empty batch changes no statistic: the current result is
            # already the union result, only the ledger advances.
            state.batches_done.append(label)
            checkpointed = self._maybe_checkpoint(obs)
            batch_span.add("dirty_documents", len(dirty))
            batch_span.add("touched_terms", len(touched))
            if obs.metrics is not None:
                metrics = obs.metrics
                metrics.increment(obs_names.INCREMENTAL_BATCHES)
                metrics.increment(obs_names.INCREMENTAL_DOCUMENTS, len(docs))
                metrics.increment(obs_names.INCREMENTAL_DIRTY_DOCUMENTS, len(dirty))
                metrics.increment(obs_names.INCREMENTAL_TOUCHED_TERMS, len(touched))
                metrics.increment(obs_names.INCREMENTAL_PRETEST_CHANGES, flips)
                metrics.gauge(obs_names.INCREMENTAL_CORPUS_SIZE, state.document_count)
                metrics.gauge(obs_names.INCREMENTAL_PRETEST_SIZE, len(state.pretest))
        seconds = time.perf_counter() - start
        log.info(
            "incremental.batch_done",
            batch=label,
            documents=len(docs),
            corpus=state.document_count,
            dirty=len(dirty),
            facet_terms=len(self._facet_terms),
            seconds=round(seconds, 3),
        )
        return IncrementalBatchReport(
            batch_id=label,
            documents=len(docs),
            dirty_documents=len(dirty),
            touched_terms=len(touched),
            pretest_changes=flips,
            facet_terms=len(self._facet_terms),
            facets=len(self._hierarchies),
            checkpointed=checkpointed,
            seconds=seconds,
        )

    def checkpoint_now(self) -> bool:
        """Force a snapshot regardless of cadence (False without a store)."""
        if self._checkpoint is None:
            return False
        sequence = len(self._state.batches_done)
        self._checkpoint.save(self._state.to_payload(), sequence)
        return True

    def snapshot_result(self) -> FacetExtractionResult:
        """Materialize the current state as a batch-pipeline result.

        Databases are rebuilt in ingestion order with copied
        vocabularies/sets, so the snapshot compares equal — byte for
        byte under canonical serialization — to ``FacetExtractor.run``
        on the union corpus, and mutating it never corrupts the live
        state.
        """
        state = self._state
        annotated = AnnotatedDatabase(
            documents=list(state.documents),
            important_terms={
                doc_id: list(doc_state.important)
                for doc_id, doc_state in state.doc_states.items()
            },
            vocabulary=state.original_vocabulary.copy(),
            term_sets={
                doc_id: set(terms) for doc_id, terms in state.term_sets.items()
            },
        )
        contextualized = ContextualizedDatabase(
            annotated=annotated,
            context_terms={
                doc_id: list(doc_state.context_terms)
                for doc_id, doc_state in state.doc_states.items()
            },
            expanded_sets={
                doc_id: set(expanded)
                for doc_id, expanded in state.expanded_sets.items()
            },
            vocabulary=state.contextualized_vocabulary.copy(),
        )
        return FacetExtractionResult(
            documents=list(state.documents),
            annotated=annotated,
            contextualized=contextualized,
            facet_terms=list(self._facet_terms),
            hierarchies=list(self._hierarchies),
            resource_stats={
                resource.cache_namespace(): resource.cache_stats
                for resource in self._pipeline.resources
            },
        )

    # -- stages --------------------------------------------------------------

    def _ingest(self, docs: list[Document], obs: Observability) -> set[str]:
        """Step 1 for the new documents: statistics, then extraction.

        Statistics land first so the shared background vocabulary is the
        full union *before* any extractor scores a document — the exact
        two-pass order of :func:`repro.core.annotate.annotate_database`.
        """
        state = self._state
        parallel = self._pipeline.parallel
        touched: set[str] = set()
        # As in annotate_database: an inline run shares one memo across
        # both passes, a pooled run arms one memo per worker.
        run_memo = (
            nullcontext() if parallel.enabled else use_text_memo(TextMemo())
        )
        initializer = install_worker_memo if parallel.enabled else None
        with obs.tracer.span(
            obs_names.SPAN_INCREMENTAL_ANNOTATION, documents=len(docs)
        ), run_memo:
            chunks = chunked(docs, max(1, parallel.resolve_chunk_size(len(docs))))
            # The batch pipeline's statistics worker: each document's
            # ordered term list is stored verbatim in checkpoints.
            stats: dict[str, list[str]] = {}
            for chunk_result in map_chunks(
                countable_terms_chunk,
                chunks,
                parallel,
                obs=obs,
                initializer=initializer,
            ):
                for doc_id, normalized in chunk_result:
                    stats[doc_id] = normalized
            for document in docs:
                normalized = stats[document.doc_id]
                state.documents.append(document)
                state.doc_states[document.doc_id] = DocumentState(
                    stats_terms=normalized, outputs=[]
                )
                state.term_sets[document.doc_id] = set(normalized)
                state.original_vocabulary.add_document(normalized)
                touched.update(normalized)
            extract = MemoizedChunk(
                partial(_annotate_chunk, self._pipeline.extractors, self._modes)
            )
            for chunk_result in map_chunks(
                extract, chunks, parallel, obs=obs, initializer=initializer
            ):
                for doc_id, outputs, candidates in chunk_result:
                    doc_state = state.doc_states[doc_id]
                    doc_state.outputs = outputs
                    doc_state.candidates = candidates
                    doc_state.important = merge_important(outputs)
        return touched

    def _rescore(self, new_ids: set[str], obs: Observability) -> list[str]:
        """Refresh corpus-dependent outputs of previously ingested docs.

        Returns the *dirty* document ids — those whose merged ``I(d)``
        changed and therefore need re-expansion.  Documents whose
        re-scored outputs merge to the same ``I(d)`` keep their cached
        context untouched.
        """
        state = self._state
        extractors = self._pipeline.extractors
        rescore = [i for i, mode in enumerate(self._modes) if mode == MODE_RESCORE]
        reextract = [
            i for i, mode in enumerate(self._modes) if mode == MODE_REEXTRACT
        ]
        dirty: list[str] = []
        if not (rescore or reextract) or state.document_count == len(new_ids):
            return dirty
        with obs.tracer.span(obs_names.SPAN_INCREMENTAL_RESCORE) as span:
            idf = self._memoized_idf()
            rescored = 0
            for document in state.documents:
                doc_id = document.doc_id
                if doc_id in new_ids:
                    continue
                doc_state = state.doc_states[doc_id]
                changed = False
                for index in rescore:
                    extractor = extractors[index]
                    assert isinstance(extractor, SignificantTermsExtractor)
                    pairs = doc_state.candidates.get(index, [])
                    rescored += len(pairs)
                    output = extractor.score_candidates(pairs, idf)
                    if output != doc_state.outputs[index]:
                        doc_state.outputs[index] = output
                        changed = True
                for index in reextract:
                    output = extractors[index].extract(document)
                    if output != doc_state.outputs[index]:
                        doc_state.outputs[index] = output
                        changed = True
                if changed:
                    important = merge_important(doc_state.outputs)
                    if important != doc_state.important:
                        doc_state.important = important
                        dirty.append(doc_id)
            span.add("dirty_documents", len(dirty))
            if obs.metrics is not None:
                obs.metrics.increment(
                    obs_names.INCREMENTAL_RESCORED_CANDIDATES, rescored
                )
        return dirty

    def _memoized_idf(self) -> Callable[[str], float]:
        """The Yahoo idf against the live background, memoized per df.

        Same expression as
        :meth:`SignificantTermsExtractor._idf` — re-scoring a whole
        corpus hits only as many log evaluations as there are distinct
        document frequencies.
        """
        vocabulary = self._state.original_vocabulary
        n = vocabulary.document_count
        if n == 0:
            return lambda term: 1.0
        by_df: dict[int, float] = {}

        def idf(term: str) -> float:
            df = vocabulary.df(term)
            value = by_df.get(df)
            if value is None:
                value = by_df[df] = math.log((n + 1) / (df + 1)) + 1.0
            return value

        return idf

    def _expand(
        self, new_ids: set[str], dirty: list[str], obs: Observability
    ) -> set[str]:
        """Step 2 for new + dirty documents; repairs df statistics.

        Returns the terms whose contextualized df changed (posting set
        edits), i.e. the candidates for pre-test membership flips.
        """
        state = self._state
        parallel = self._pipeline.parallel
        pending = new_ids | set(dirty)
        touched: set[str] = set()
        if not pending:
            return touched
        items = [
            (document.doc_id, state.doc_states[document.doc_id].important)
            for document in state.documents
            if document.doc_id in pending
        ]
        with obs.tracer.span(
            obs_names.SPAN_INCREMENTAL_CONTEXTUALIZATION, documents=len(items)
        ):
            expand = MemoizedChunk(partial(expand_items, self._pipeline.resources))
            chunks = chunked(items, max(1, parallel.resolve_chunk_size(len(items))))
            for chunk_result in map_chunks(expand, chunks, parallel, obs=obs):
                for doc_id, merged, seen_keys in chunk_result:
                    doc_state = state.doc_states[doc_id]
                    doc_state.context_terms = merged
                    doc_state.seen_keys = seen_keys
                    expanded = doc_state.expanded_set(state.term_sets[doc_id])
                    previous = state.expanded_sets.get(doc_id)
                    if previous is None:
                        state.contextualized_vocabulary.add_document(expanded)
                        for term in expanded:
                            state.add_posting(term, doc_id)
                        touched.update(expanded)
                    elif previous != expanded:
                        state.contextualized_vocabulary.remove_document(previous)
                        state.contextualized_vocabulary.add_document(expanded)
                        for term in previous - expanded:
                            state.remove_posting(term, doc_id)
                        for term in expanded - previous:
                            state.add_posting(term, doc_id)
                        touched.update(previous ^ expanded)
                    state.expanded_sets[doc_id] = expanded
        return touched

    def _select_and_build(self, obs: Observability) -> None:
        """Step 3 + hierarchy over the pre-test set only."""
        state = self._state
        pipeline = self._pipeline
        with obs.tracer.span(obs_names.SPAN_INCREMENTAL_SELECTION) as span:
            n = max(state.document_count, 1)
            shifts = ShiftTables(
                state.original_vocabulary, state.contextualized_vocabulary
            )
            tables = LikelihoodTables(n)
            score_of = (
                tables.log_likelihood_ratio
                if pipeline.statistic == "log-likelihood"
                else tables.chi_square
            )
            candidates: list[FacetTermCandidate] = []
            for term in sorted(state.pretest):
                df = shifts.df_original(term)
                df_c = shifts.df_contextualized(term)
                shift_f = df_c - df
                if shift_f <= 0:
                    continue
                shift_r = shifts.rank_shift(term)
                if pipeline.require_both_shifts and shift_r <= 0:
                    continue
                candidates.append(
                    FacetTermCandidate(
                        term=term,
                        df_original=df,
                        df_contextualized=df_c,
                        shift_f=shift_f,
                        shift_r=shift_r,
                        score=score_of(df, df_c),
                    )
                )
            candidates.sort(key=lambda c: (-c.score, c.term))
            top_k = pipeline.top_k
            self._facet_terms = candidates if top_k is None else candidates[:top_k]
            span.add("pretest_terms", len(state.pretest))
            span.add("selected", len(self._facet_terms))
            if obs.metrics is not None:
                obs.metrics.increment(
                    obs_names.INCREMENTAL_SCORED_TERMS, len(candidates)
                )
        self._hierarchies = []
        if pipeline.build_hierarchies:
            with obs.tracer.span(obs_names.SPAN_INCREMENTAL_HIERARCHY) as span:
                terms = [normalize_term(c.term) for c in self._facet_terms]
                doc_sets: dict[str, set[str]] = {}
                for term in terms:
                    docs = state.postings.get(term)
                    if docs:
                        doc_sets[term] = docs
                self._hierarchies = build_hierarchies_from_doc_sets(
                    terms,
                    doc_sets,
                    state.document_count,
                    threshold=pipeline.subsumption_threshold,
                    edge_validator=pipeline.edge_validator,
                )
                span.add("facets", len(self._hierarchies))

    # -- checkpointing -------------------------------------------------------

    def _maybe_checkpoint(self, obs: Observability) -> bool:
        if self._checkpoint is None:
            return False
        if len(self._state.batches_done) % self._checkpoint_every != 0:
            return False
        with obs.tracer.span(obs_names.SPAN_INCREMENTAL_CHECKPOINT) as span:
            sequence = len(self._state.batches_done)
            path = self._checkpoint.save(self._state.to_payload(), sequence)
            span.add("sequence", sequence)
            # A path is a tag, not a counter: Span.add sums floats and
            # raises on strings once tracing is actually enabled.
            span.set(path=str(path))
        return True
