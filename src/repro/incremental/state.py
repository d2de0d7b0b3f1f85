"""In-memory state of the incremental pipeline, and its snapshot form.

:class:`IncrementalState` owns everything the append path maintains
between batches:

* the document list and per-document caches (stats terms, per-extractor
  outputs, Yahoo candidate counts, merged ``I(d)``, context terms);
* the two live :class:`~repro.text.vocabulary.Vocabulary` objects
  (original and contextualized) updated in place;
* the postings index ``term -> {doc_id}`` over the expanded term sets
  (what the hierarchy stage reads instead of scanning every document);
* the selection pre-test set (terms with ``df_C > df`` — the only
  possible shift candidates) maintained from per-batch df deltas.

Serialization is deliberately minimal: only the document payloads and
per-document caches are written (sets sorted, canonical JSON upstream);
vocabularies, postings, and the pre-test set are derived data and are
rebuilt on load.  That keeps snapshots byte-deterministic and makes it
impossible for a checkpoint to carry internally inconsistent statistics.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field

from ..corpus.document import Document, GoldAnnotation
from ..errors import StorageError
from ..text.vocabulary import Vocabulary

#: Schema tag of the serialized state section (inside the checkpoint).
STATE_SCHEMA = "repro.incremental-state/1"


@dataclass
class DocumentState:
    """Everything cached for one ingested document."""

    stats_terms: list[str]
    """Normalized countable terms (ordered, with duplicates) — the
    document's contribution to the original vocabulary."""
    outputs: list[list[str]]
    """Per-extractor important-term outputs, extractor order."""
    candidates: dict[int, list[tuple[str, int]]] = field(default_factory=dict)
    """Extractor index -> cached ``(term, tf)`` scoring candidates (only
    for background-dependent extractors)."""
    important: list[str] = field(default_factory=list)
    """Merged ``I(d)``."""
    context_terms: list[str] = field(default_factory=list)
    """``C(d)`` surface forms."""
    seen_keys: list[str] = field(default_factory=list)
    """Normalized context keys in first-seen order."""

    def expanded_set(self, term_set: set[str]) -> set[str]:
        """The document's expanded term set (original ∪ context keys)."""
        expanded = set(term_set)
        expanded.update(self.seen_keys)
        return expanded


class IncrementalState:
    """Mutable corpus state shared by the incremental extractor."""

    def __init__(self) -> None:
        self.documents: list[Document] = []
        self.doc_states: dict[str, DocumentState] = {}
        self.term_sets: dict[str, set[str]] = {}
        self.expanded_sets: dict[str, set[str]] = {}
        self.original_vocabulary = Vocabulary()
        self.contextualized_vocabulary = Vocabulary()
        self.postings: dict[str, set[str]] = {}
        self.pretest: set[str] = set()
        self.batches_done: list[str] = []

    # -- bookkeeping ---------------------------------------------------------

    @property
    def document_count(self) -> int:
        return len(self.documents)

    def has_document(self, doc_id: str) -> bool:
        return doc_id in self.doc_states

    def add_posting(self, term: str, doc_id: str) -> None:
        docs = self.postings.get(term)
        if docs is None:
            docs = self.postings[term] = set()
        docs.add(doc_id)

    def remove_posting(self, term: str, doc_id: str) -> None:
        docs = self.postings.get(term)
        if docs is None:
            return
        docs.discard(doc_id)
        if not docs:
            del self.postings[term]

    def update_pretest(self, touched: set[str]) -> int:
        """Re-test ``df_C > df`` membership for the touched terms only.

        Returns the number of membership flips — the per-batch
        ``incremental.pretest_changes`` counter.
        """
        original = self.original_vocabulary
        contextualized = self.contextualized_vocabulary
        flips = 0
        for term in touched:
            member = contextualized.df(term) > original.df(term)
            if member:
                if term not in self.pretest:
                    self.pretest.add(term)
                    flips += 1
            elif term in self.pretest:
                self.pretest.discard(term)
                flips += 1
        return flips

    # -- serialization -------------------------------------------------------

    def to_payload(self) -> dict:
        """Snapshot the state as a JSON-safe, byte-deterministic dict.

        Only source-of-truth data is written; every set is sorted here
        (and every dict is sorted by the canonical-JSON writer), so two
        equal states always serialize to identical bytes.
        """
        docs_payload: dict[str, dict] = {}
        for doc_id, doc_state in self.doc_states.items():
            docs_payload[doc_id] = {
                "stats_terms": list(doc_state.stats_terms),
                "outputs": [list(terms) for terms in doc_state.outputs],
                "candidates": {
                    str(index): [[term, tf] for term, tf in pairs]
                    for index, pairs in doc_state.candidates.items()
                },
                "important": list(doc_state.important),
                "context_terms": list(doc_state.context_terms),
                "seen_keys": list(doc_state.seen_keys),
            }
        return {
            "schema": STATE_SCHEMA,
            "documents": [document_payload(doc) for doc in self.documents],
            "docs": docs_payload,
            "batches_done": list(self.batches_done),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "IncrementalState":
        """Rebuild the full state (vocabularies, postings, pre-test set)
        from a snapshot's source-of-truth data."""
        schema = payload.get("schema")
        if schema != STATE_SCHEMA:
            raise StorageError(
                f"incremental state schema {schema!r} != {STATE_SCHEMA!r}"
            )
        state = cls()
        state.batches_done = [str(b) for b in payload.get("batches_done", [])]
        docs_payload = payload.get("docs", {})
        for doc_payload in payload.get("documents", []):
            document = document_from_payload(doc_payload)
            cached = docs_payload.get(document.doc_id)
            if cached is None:
                raise StorageError(
                    f"snapshot missing cache for document {document.doc_id!r}"
                )
            doc_state = DocumentState(
                stats_terms=[str(t) for t in cached["stats_terms"]],
                outputs=[[str(t) for t in terms] for terms in cached["outputs"]],
                candidates={
                    int(index): [(str(term), int(tf)) for term, tf in pairs]
                    for index, pairs in cached.get("candidates", {}).items()
                },
                important=[str(t) for t in cached["important"]],
                context_terms=[str(t) for t in cached["context_terms"]],
                seen_keys=[str(t) for t in cached["seen_keys"]],
            )
            state.ingest_restored(document, doc_state)
        state.rebuild_pretest()
        return state

    def ingest_restored(self, document: Document, doc_state: DocumentState) -> None:
        """Attach one restored document and derive its statistics."""
        doc_id = document.doc_id
        if doc_id in self.doc_states:
            raise StorageError(f"duplicate document in snapshot: {doc_id!r}")
        self.documents.append(document)
        self.doc_states[doc_id] = doc_state
        term_set = set(doc_state.stats_terms)
        self.term_sets[doc_id] = term_set
        self.original_vocabulary.add_document(doc_state.stats_terms)
        expanded = doc_state.expanded_set(term_set)
        self.expanded_sets[doc_id] = expanded
        self.contextualized_vocabulary.add_document(expanded)
        for term in expanded:
            self.add_posting(term, doc_id)

    def rebuild_pretest(self) -> None:
        """Derive the pre-test set from scratch (used after a restore)."""
        original = self.original_vocabulary
        self.pretest = {
            term
            for term, df_c in self.contextualized_vocabulary.df_map().items()
            if df_c > original.df(term)
        }


def document_payload(document: Document) -> dict:
    """JSON-safe form of one :class:`Document` (checkpoints, batch files)."""
    payload: dict = {
        "doc_id": document.doc_id,
        "title": document.title,
        "body": document.body,
        "source": document.source,
        "published": document.published.isoformat(),
    }
    if document.gold is not None:
        payload["gold"] = {
            "topic": document.gold.topic,
            "entity_names": list(document.gold.entity_names),
            "facet_terms": list(document.gold.facet_terms),
            "leaked_terms": list(document.gold.leaked_terms),
        }
    return payload


def document_from_payload(payload: dict) -> Document:
    """Inverse of :func:`document_payload`."""
    gold_payload = payload.get("gold")
    gold = None
    if gold_payload is not None:
        gold = GoldAnnotation(
            topic=str(gold_payload["topic"]),
            entity_names=tuple(gold_payload.get("entity_names", [])),
            facet_terms=tuple(gold_payload.get("facet_terms", [])),
            leaked_terms=tuple(gold_payload.get("leaked_terms", [])),
        )
    return Document(
        doc_id=str(payload["doc_id"]),
        title=str(payload["title"]),
        body=str(payload["body"]),
        source=str(payload.get("source", "The New York Times")),
        published=datetime.date.fromisoformat(payload["published"]),
        gold=gold,
    )
