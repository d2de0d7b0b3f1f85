"""The columnar data plane for Steps 1-3.

A dict-of-strings pipeline spends most of its time hashing and
re-normalizing the same term strings.  This module keeps the string ↔ id
boundary at the edges (extractor outputs in, facet rendering out) and
moves everything in between onto flat integer columns:

* every normalized term gets a stable ``int32`` id in first-seen order
  (:class:`~repro.text.vocabulary.TermInterner`);
* per-document term lists and postings live in offset/id arrays
  (:class:`DocumentColumns`);
* df/tf/rank statistics live in id-indexed vectors
  (:class:`ColumnarVocabulary`), exposed to the existing
  ``ShiftTables``/``LikelihoodTables`` consumers through zero-copy
  :class:`~collections.abc.Mapping` views (:class:`ColumnarCountMap`,
  :class:`ColumnarRankMap`);
* process-pool workers receive the background vocabulary as a read-only
  ``multiprocessing.shared_memory`` segment
  (:class:`SharedVocabularyView`) instead of a pickled dict — with a
  graceful fallback to plain pickling when shared memory is unavailable.

A numpy fast path accelerates the whole-vocabulary scans when numpy is
importable (and ``REPRO_NO_NUMPY`` is unset); the pure-stdlib ``array``
fallback produces identical results — both operate on the same integer
columns and all floats are derived from the same integers.

Everything here is a *representation*: each structure answers exactly
what its dict-of-strings counterpart (:class:`~repro.text.vocabulary.Vocabulary`)
answers, certified piece by piece in ``tests/test_columnar.py``; the
emitted facets, hierarchies and serving payloads are pinned by the
golden digests in ``tests/test_columnar_equivalence.py``.
"""

from __future__ import annotations

import json
import os
from array import array
from collections.abc import Iterator, Mapping

from ..text.vocabulary import TermInterner, Vocabulary

try:  # pragma: no cover - exercised via the no-numpy CI leg
    if os.environ.get("REPRO_NO_NUMPY"):
        _np = None
    else:
        import numpy as _np  # type: ignore[no-redef]
except ImportError:  # pragma: no cover - environment-dependent
    _np = None

#: True when the numpy fast path is active for whole-vocabulary scans.
HAVE_NUMPY = _np is not None


class IntVector:
    """A growable ``int32`` column over ``array('i')``.

    The stdlib ``array`` stores machine ints contiguously, supports the
    buffer protocol (zero-copy :meth:`memoryview` / numpy views), and
    pickles compactly — everything the data plane needs without a hard
    numpy dependency.
    """

    __slots__ = ("_data", "_view")

    def __init__(self, size: int = 0) -> None:
        self._data = array("i", bytes(4 * size)) if size else array("i")
        self._view = None

    @classmethod
    def from_iterable(cls, values) -> "IntVector":
        vector = cls()
        vector._data.extend(values)
        return vector

    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, index):
        return self._data[index]

    def __setitem__(self, index: int, value: int) -> None:
        self._data[index] = value

    def __iter__(self) -> Iterator[int]:
        return iter(self._data)

    def append(self, value: int) -> None:
        self._view = None
        self._data.append(value)

    def extend(self, values) -> None:
        self._view = None
        self._data.extend(values)

    def grow_to(self, size: int) -> None:
        """Zero-extend the column to at least ``size`` entries."""
        missing = size - len(self._data)
        if missing > 0:
            # Drop the cached numpy view first: resizing an array while
            # a buffer export is alive raises BufferError.
            self._view = None
            self._data.frombytes(bytes(4 * missing))

    def memoryview(self) -> memoryview:
        """Zero-copy read view of the underlying int32 storage."""
        return memoryview(self._data)

    def tobytes(self) -> bytes:
        return self._data.tobytes()

    def copy(self) -> "IntVector":
        clone = IntVector()
        clone._data = array("i", self._data)
        return clone

    def __getstate__(self):
        return self._data

    def __setstate__(self, state) -> None:
        self._data = state
        self._view = None

    def to_numpy(self):
        """Zero-copy numpy view (requires :data:`HAVE_NUMPY`).

        The view is cached between resizes — per-document folds call
        this on every document, and rebuilding the buffer export
        dominates the cost of the fancy-indexed updates themselves.
        Writes through ``__setitem__`` stay coherent (shared memory);
        any resize drops the cache.
        """
        if _np is None:  # pragma: no cover - guarded by callers
            raise RuntimeError("numpy fast path is unavailable")
        view = self._view
        if view is None:
            if not len(self._data):
                return _np.zeros(0, dtype=_np.int32)
            view = self._view = _np.frombuffer(self._data, dtype=_np.int32)
        return view


class ColumnarCountMap(Mapping[str, int]):
    """Zero-copy term → count view over an id-indexed column.

    Duck-type compatible with ``Vocabulary.df_map()``: iterating yields
    the terms with a nonzero count (id order = first-seen order, same as
    ``Counter`` insertion order for an append-only vocabulary), and
    ``.get(term, default)`` is a dict probe plus an array read — the
    exact access pattern ``ShiftTables`` relies on.
    """

    __slots__ = ("_interner", "_counts", "_nonzero")

    def __init__(
        self, interner: TermInterner, counts: IntVector, nonzero: int
    ) -> None:
        self._interner = interner
        self._counts = counts
        self._nonzero = nonzero

    def __getitem__(self, term: str) -> int:
        term_id = self._interner.id_of(term)
        if term_id is None or term_id >= len(self._counts):
            raise KeyError(term)
        count = self._counts[term_id]
        if count == 0:
            raise KeyError(term)
        return count

    def get(self, term: str, default: int | None = None):
        term_id = self._interner.id_of(term)
        if term_id is None or term_id >= len(self._counts):
            return default
        count = self._counts[term_id]
        return count if count else default

    def __iter__(self) -> Iterator[str]:
        terms = self._interner.terms()
        counts = self._counts
        for term_id in range(len(counts)):
            if counts[term_id]:
                yield terms[term_id]

    def __contains__(self, term: object) -> bool:
        return isinstance(term, str) and self.get(term) is not None

    def __len__(self) -> int:
        return self._nonzero


class ColumnarRankMap(Mapping[str, int]):
    """Term → 1-based rank snapshot over an id-indexed rank column.

    Mirrors ``Vocabulary.rank_map()``: contains exactly the nonzero-df
    terms, with ranks assigned by decreasing df and ties broken
    alphabetically.  Absent terms miss (callers supply the
    ``term_count + 1`` default themselves, as ``ShiftTables`` does).
    """

    __slots__ = ("_interner", "_ranks", "_nonzero")

    def __init__(
        self, interner: TermInterner, ranks: IntVector, nonzero: int
    ) -> None:
        self._interner = interner
        self._ranks = ranks  # 0 marks "no rank" (df == 0)
        self._nonzero = nonzero

    def __getitem__(self, term: str) -> int:
        term_id = self._interner.id_of(term)
        if term_id is None or term_id >= len(self._ranks):
            raise KeyError(term)
        rank = self._ranks[term_id]
        if rank == 0:
            raise KeyError(term)
        return rank

    def get(self, term: str, default: int | None = None):
        term_id = self._interner.id_of(term)
        if term_id is None or term_id >= len(self._ranks):
            return default
        rank = self._ranks[term_id]
        return rank if rank else default

    def __iter__(self) -> Iterator[str]:
        terms = self._interner.terms()
        ranks = self._ranks
        for term_id in range(len(ranks)):
            if ranks[term_id]:
                yield terms[term_id]

    def __contains__(self, term: object) -> bool:
        return isinstance(term, str) and self.get(term) is not None

    def __len__(self) -> int:
        return self._nonzero


class ColumnarVocabulary(Vocabulary):
    """Array-backed :class:`~repro.text.vocabulary.Vocabulary`.

    Statistics live in id-indexed ``int32`` columns over a shared
    :class:`~repro.text.vocabulary.TermInterner` instead of string-keyed
    counters.  Every public accessor returns exactly what the dict-backed
    base class returns for the same document sequence (the equivalence
    is pinned by ``tests/test_columnar.py``); ``df_map``/``rank_map``
    hand zero-copy column views to ``ShiftTables``.

    One documented divergence: after a term's df drops to zero via
    :meth:`remove_document` and the term is later re-added, ``terms()``
    yields it at its original first-seen position rather than at the
    end (ids are stable; ``Counter`` re-inserts).  Term *order* is never
    part of any certified output — selection sorts on a total key — and
    the batch pipeline never removes documents.
    """

    def __init__(self, interner: TermInterner | None = None) -> None:
        self.interner = interner if interner is not None else TermInterner()
        self._df_ids = IntVector()
        self._tf_ids = IntVector()
        self._nonzero = 0
        self._documents = 0
        self._rank_ids: IntVector | None = None

    # -- construction --------------------------------------------------------

    def add_document(self, terms) -> None:
        self.add_document_ids(
            self.interner.intern_many(term for term in terms if term)
        )

    def add_document_ids(self, term_ids) -> None:
        """Register one document given its (possibly repeated) term ids."""
        ids = list(term_ids)
        self._documents += 1
        self._rank_ids = None
        if not ids:
            return
        if _np is not None and len(ids) >= 32:
            self._add_document_ids_numpy(ids)
            return
        self._grow(max(ids) + 1)
        tf = self._tf_ids
        df = self._df_ids
        for term_id in ids:
            tf[term_id] += 1
        # order: incrementing per-id counters is order-insensitive
        for term_id in set(ids):
            if df[term_id] == 0:
                self._nonzero += 1
            df[term_id] += 1

    def _add_document_ids_numpy(self, ids: list) -> None:
        """Vectorized fold of one document's term ids into tf/df.

        ``unique`` gives the document's distinct ids with their
        occurrence counts in work proportional to the *document*, not to
        the vocabulary (a per-document ``bincount`` would scan an array
        as long as the highest id).  Adding integer counts to integer
        columns is the same arithmetic the scalar loop does, in a
        different (irrelevant) order.
        """
        distinct, counts = _np.unique(
            _np.asarray(ids, dtype=_np.int64), return_counts=True
        )
        self._grow(int(distinct[-1]) + 1)
        tf = self._tf_ids.to_numpy()
        df = self._df_ids.to_numpy()
        tf[distinct] += counts.astype(_np.int32)
        self._nonzero += int((df[distinct] == 0).sum())
        df[distinct] += 1

    def add_document_distinct_ids(self, term_ids) -> None:
        """Register one document given its *distinct* term ids.

        Contract: no id repeats (the caller folds a set).  Each id then
        contributes exactly +1 to both tf and df, so the fold skips the
        per-document ``bincount`` of :meth:`add_document_ids`.
        """
        ids = list(term_ids)
        self._documents += 1
        self._rank_ids = None
        if not ids:
            return
        if _np is not None and len(ids) >= 32:
            index = _np.asarray(ids, dtype=_np.int64)
            self._grow(int(index.max()) + 1)
            tf = self._tf_ids.to_numpy()
            df = self._df_ids.to_numpy()
            tf[index] += 1
            self._nonzero += int((df[index] == 0).sum())
            df[index] += 1
            return
        self._grow(max(ids) + 1)
        tf = self._tf_ids
        df = self._df_ids
        # order: incrementing per-id counters is order-insensitive
        for term_id in ids:
            tf[term_id] += 1
            if df[term_id] == 0:
                self._nonzero += 1
            df[term_id] += 1

    def remove_document(self, terms) -> None:
        term_list = [term for term in terms if term]
        if self._documents < 1:
            raise ValueError("remove_document on an empty vocabulary")
        counts: dict[str, int] = {}
        for term in term_list:
            counts[term] = counts.get(term, 0) + 1
        resolved: list[tuple[int, int]] = []
        for term, count in counts.items():
            term_id = self.interner.id_of(term)
            in_range = term_id is not None and term_id < len(self._df_ids)
            if (
                not in_range
                or self._df_ids[term_id] < 1
                or self._tf_ids[term_id] < count
            ):
                raise ValueError(
                    f"remove_document: term {term!r} was never added "
                    "with these frequencies"
                )
            resolved.append((term_id, count))
        self._documents -= 1
        for term_id, count in resolved:
            self._tf_ids[term_id] -= count
            self._df_ids[term_id] -= 1
            if self._df_ids[term_id] == 0:
                self._nonzero -= 1
        self._rank_ids = None

    def copy(self) -> "ColumnarVocabulary":
        clone = ColumnarVocabulary(self.interner)
        clone._df_ids = self._df_ids.copy()
        clone._tf_ids = self._tf_ids.copy()
        clone._nonzero = self._nonzero
        clone._documents = self._documents
        return clone

    def _grow(self, size: int) -> None:
        self._df_ids.grow_to(size)
        self._tf_ids.grow_to(size)

    # -- size accessors -------------------------------------------------------

    @property
    def term_count(self) -> int:
        return self._nonzero

    def __contains__(self, term: str) -> bool:
        return self.df(term) > 0

    def __len__(self) -> int:
        return self._nonzero

    def terms(self) -> list[str]:
        all_terms = self._interner_terms()
        df = self._df_ids
        return [all_terms[i] for i in range(len(df)) if df[i]]

    def _interner_terms(self) -> list[str]:
        return self.interner.terms()

    # -- frequency accessors ----------------------------------------------------

    def _count_by_id(self, column: IntVector, term: str) -> int:
        term_id = self.interner.id_of(term)
        if term_id is None or term_id >= len(column):
            return 0
        return column[term_id]

    def tf(self, term: str) -> int:
        return self._count_by_id(self._tf_ids, term)

    def df(self, term: str) -> int:
        return self._count_by_id(self._df_ids, term)

    def df_by_id(self, term_id: int) -> int:
        """``df`` addressed by interned id (columnar fast paths)."""
        return self._df_ids[term_id] if term_id < len(self._df_ids) else 0

    def df_column(self, size: int | None = None) -> IntVector:
        """The id-indexed df column, zero-padded to ``size`` entries.

        Padding mutates the live column (appending zeros never changes
        any count), so the return is a zero-copy view, not a copy.
        """
        if size is not None:
            self._grow(size)
        return self._df_ids

    def rank_column(self, size: int | None = None) -> IntVector:
        """Id-indexed 1-based ranks; 0 marks absent (df == 0) terms."""
        ranks = self._rank_column()
        if size is not None and len(ranks) < size:
            ranks.grow_to(size)
        return ranks

    def _rank_column(self) -> IntVector:
        if self._rank_ids is None:
            df = self._df_ids
            all_terms = self._interner_terms()
            present = [i for i in range(len(df)) if df[i]]
            present.sort(key=lambda i: (-df[i], all_terms[i]))
            ranks = IntVector(len(df))
            for position, term_id in enumerate(present):
                ranks[term_id] = position + 1
            self._rank_ids = ranks
        return self._rank_ids

    def rank(self, term: str) -> int:
        term_id = self.interner.id_of(term)
        ranks = self._rank_column()
        if term_id is None or term_id >= len(ranks) or ranks[term_id] == 0:
            return self._nonzero + 1
        return ranks[term_id]

    def df_map(self) -> Mapping[str, int]:
        return ColumnarCountMap(self.interner, self._df_ids, self._nonzero)

    def rank_map(self) -> Mapping[str, int]:
        # Snapshot semantics, like the base class: hand out a private
        # copy so later adds cannot mutate what ShiftTables captured.
        return ColumnarRankMap(
            self.interner, self._rank_column().copy(), self._nonzero
        )

    def most_common(self, n: int | None = None) -> list[tuple[str, int]]:
        df = self._df_ids
        all_terms = self._interner_terms()
        ordered = sorted(
            (
                (all_terms[i], df[i])
                for i in range(len(df))
                if df[i]
            ),
            key=lambda item: (-item[1], item[0]),
        )
        return ordered if n is None else ordered[:n]


class DocumentColumns:
    """Per-document term-id lists as offset/id arrays (CSR layout).

    ``term_ids[offsets[i]:offsets[i + 1]]`` are the interned term ids of
    document ``i`` (in emission order, repeats preserved).  Built by the
    annotation statistics pass and by contextualization (expanded sets);
    :meth:`postings` inverts the layout for the hierarchy stage.
    """

    __slots__ = ("interner", "doc_ids", "offsets", "term_ids", "_doc_index")

    def __init__(self, interner: TermInterner) -> None:
        self.interner = interner
        self.doc_ids: list[str] = []
        self.offsets = IntVector.from_iterable([0])
        self.term_ids = IntVector()
        self._doc_index: dict[str, int] | None = None

    def __len__(self) -> int:
        return len(self.doc_ids)

    def add_document(self, doc_id: str, terms) -> list[int]:
        """Append one document's terms; returns their interned ids."""
        ids = self.interner.intern_many(term for term in terms if term)
        self.doc_ids.append(doc_id)
        self.term_ids.extend(ids)
        self.offsets.append(len(self.term_ids))
        self._doc_index = None
        return ids

    def add_document_ids(self, doc_id: str, term_ids) -> None:
        """Append one document given already-interned term ids."""
        self.doc_ids.append(doc_id)
        self.term_ids.extend(term_ids)
        self.offsets.append(len(self.term_ids))
        self._doc_index = None

    def ids_of(self, index: int) -> memoryview:
        """Zero-copy id slice of document ``index``."""
        return self.term_ids.memoryview()[
            self.offsets[index] : self.offsets[index + 1]
        ]

    def terms_of(self, index: int) -> list[str]:
        terms = self.interner.terms()
        return [terms[term_id] for term_id in self.ids_of(index)]

    def index_of(self, doc_id: str) -> int | None:
        if self._doc_index is None:
            self._doc_index = {
                doc_id: i for i, doc_id in enumerate(self.doc_ids)
            }
        return self._doc_index.get(doc_id)

    def postings(self, term_ids=None) -> dict[int, IntVector]:
        """term id → ascending document positions (distinct per doc).

        ``term_ids`` restricts the inversion to the given ids (the
        hierarchy stage inverts only the selected facet terms); None
        inverts everything.  Either way this is one pass over the flat
        id column.
        """
        wanted = None if term_ids is None else set(term_ids)
        inverted: dict[int, IntVector] = {}
        for index in range(len(self.doc_ids)):
            row = set(self.ids_of(index))
            if wanted is not None:
                row &= wanted
            for term_id in sorted(row):
                posting = inverted.get(term_id)
                if posting is None:
                    posting = inverted[term_id] = IntVector()
                posting.append(index)
        return inverted


# -- shared read-only segments ------------------------------------------------

#: Process-local cache of attached segments, keyed by segment name, so
#: every chunk a worker runs reuses one attachment.
_ATTACHED: dict[str, "SharedSegment"] = {}

#: Process-local cache of decoded vocabulary views, keyed by segment
#: name (see :meth:`SharedVocabularyView._load`).
_LOADED_VIEWS: dict[str, tuple[dict[str, int], "array", "array", int]] = {}


class SharedSegment:
    """One read-only shared-memory block of named byte sections.

    Layout: ``8-byte little-endian index length | JSON index
    {name: [offset, length]} | payload bytes``.  The creating process
    owns the segment and must call :meth:`unlink`; attaching processes
    get zero-copy :class:`memoryview` sections.
    """

    __slots__ = ("name", "_shm", "_index", "_payload_start")

    def __init__(self, shm, index: dict[str, list[int]], start: int) -> None:
        self.name: str = shm.name
        self._shm = shm
        self._index = index
        self._payload_start = start

    @classmethod
    def create(cls, sections: dict[str, bytes]) -> "SharedSegment | None":
        """Publish ``sections``; None when shared memory is unavailable."""
        index: dict[str, list[int]] = {}
        offset = 0
        for name, payload in sections.items():
            index[name] = [offset, len(payload)]
            offset += len(payload)
        header = json.dumps(index, sort_keys=True).encode("utf-8")
        total = 8 + len(header) + offset
        try:
            from multiprocessing import shared_memory

            shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
        except (ImportError, OSError, ValueError):
            return None
        buffer = shm.buf
        buffer[0:8] = len(header).to_bytes(8, "little")
        buffer[8 : 8 + len(header)] = header
        start = 8 + len(header)
        for name, payload in sections.items():
            begin = start + index[name][0]
            buffer[begin : begin + len(payload)] = payload
        return cls(shm, index, start)

    @classmethod
    def attach(cls, name: str) -> "SharedSegment":
        """Attach to an existing segment (cached per process)."""
        cached = _ATTACHED.get(name)
        if cached is not None:
            return cached
        from multiprocessing import shared_memory

        # The creator owns the segment's lifetime, so the attachment
        # must not be resource-tracked: under fork every process shares
        # one tracker whose name cache is a set, and a register +
        # unregister pair from any worker would erase the creator's own
        # registration (KeyError at unlink); under spawn a tracked
        # attachment makes the worker's tracker unlink the segment when
        # the worker exits.  Python 3.13+ supports track=False; older
        # versions need register suppressed for the attach call.
        try:
            shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # pragma: no cover - Python < 3.13
            from multiprocessing import resource_tracker

            original_register = resource_tracker.register

            def _skip_shared_memory(resource_name: str, rtype: str) -> None:
                if rtype != "shared_memory":
                    original_register(resource_name, rtype)

            resource_tracker.register = _skip_shared_memory
            try:
                shm = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original_register
        header_len = int.from_bytes(bytes(shm.buf[0:8]), "little")
        index = json.loads(bytes(shm.buf[8 : 8 + header_len]).decode("utf-8"))
        segment = cls(shm, index, 8 + header_len)
        _ATTACHED[name] = segment
        return segment

    @property
    def size(self) -> int:
        """Total bytes allocated for the segment."""
        return self._shm.size

    def section(self, name: str) -> memoryview:
        """Zero-copy view of one named section."""
        offset, length = self._index[name]
        begin = self._payload_start + offset
        return self._shm.buf[begin : begin + length]

    def close(self) -> None:
        _ATTACHED.pop(self.name, None)
        _LOADED_VIEWS.pop(self.name, None)
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - lingering exported views
            pass

    def unlink(self) -> None:
        """Destroy the segment (creator only); safe to call once."""
        self.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def pack_vocabulary(vocabulary: Vocabulary) -> SharedSegment | None:
    """Publish a vocabulary's statistics as a shared read-only segment.

    Sections: the newline-joined term blob, the id-indexed df/tf
    columns, and a small JSON meta section (document count).  Returns
    None — callers fall back to pickling the vocabulary itself — when
    shared memory is unavailable on the platform.
    """
    if isinstance(vocabulary, ColumnarVocabulary):
        terms = vocabulary.interner.terms()
        size = len(terms)
        df = vocabulary.df_column(size).tobytes()
        tf_column = IntVector(size)
        for term_id, term in enumerate(terms):
            tf_column[term_id] = vocabulary.tf(term)
        tf = tf_column.tobytes()
    else:
        terms = vocabulary.terms()
        df_column = IntVector(len(terms))
        tf_column = IntVector(len(terms))
        for term_id, term in enumerate(terms):
            df_column[term_id] = vocabulary.df(term)
            tf_column[term_id] = vocabulary.tf(term)
        df = df_column.tobytes()
        tf = tf_column.tobytes()
    meta = json.dumps(
        {"documents": vocabulary.document_count, "terms": len(terms)}
    ).encode("utf-8")
    return SharedSegment.create(
        {
            "terms": "\n".join(terms).encode("utf-8"),
            "df": df,
            "tf": tf,
            "meta": meta,
        }
    )


class SharedVocabularyView:
    """Read-only vocabulary facade over a :class:`SharedSegment`.

    Pickles as just the segment name: process-pool workers attach the
    segment on first use instead of deserializing the full term table —
    that is the "workers receive read-only index segments" half of the
    columnar plane.  Implements the accessors extraction needs
    (``df``/``tf``/``document_count``/containment); it is a *background*
    statistics view, never the pipeline's authoritative vocabulary.
    """

    __slots__ = ("_segment_name", "_ids", "_df", "_tf", "_documents")

    def __init__(self, segment_name: str) -> None:
        self._segment_name = segment_name
        self._ids: dict[str, int] | None = None
        self._df: array | None = None
        self._tf: array | None = None
        self._documents = 0

    def __getstate__(self) -> str:
        return self._segment_name

    def __setstate__(self, state: str) -> None:
        self._segment_name = state
        self._ids = None
        self._df = None
        self._tf = None
        self._documents = 0

    def _load(self) -> dict[str, int]:
        if self._ids is None:
            # Decode once per process, not once per chunk: every chunk
            # job re-pickles the extractors (and so this view), but the
            # decoded tables are immutable and keyed by segment name.
            cached = _LOADED_VIEWS.get(self._segment_name)
            if cached is None:
                segment = SharedSegment.attach(self._segment_name)
                blob = bytes(segment.section("terms")).decode("utf-8")
                terms = blob.split("\n") if blob else []
                ids = {term: i for i, term in enumerate(terms)}
                df = array("i", bytes(segment.section("df")))
                tf = array("i", bytes(segment.section("tf")))
                meta = json.loads(
                    bytes(segment.section("meta")).decode("utf-8")
                )
                cached = (ids, df, tf, meta["documents"])
                _LOADED_VIEWS[self._segment_name] = cached
            self._ids, self._df, self._tf, self._documents = cached
        return self._ids

    @property
    def document_count(self) -> int:
        self._load()
        return self._documents

    @property
    def term_count(self) -> int:
        return len(self)

    def __len__(self) -> int:
        self._load()
        assert self._df is not None
        return sum(1 for count in self._df if count)

    def __contains__(self, term: str) -> bool:
        return self.df(term) > 0

    def terms(self) -> list[str]:
        ids = self._load()
        assert self._df is not None
        df = self._df
        return [term for term, term_id in ids.items() if df[term_id]]

    def df(self, term: str) -> int:
        term_id = self._load().get(term)
        assert self._df is not None
        return self._df[term_id] if term_id is not None else 0

    def tf(self, term: str) -> int:
        term_id = self._load().get(term)
        assert self._tf is not None
        return self._tf[term_id] if term_id is not None else 0


def attach_segment(name: str) -> None:
    """Pool initializer: pre-attach a shared segment in a fresh worker."""
    try:
        SharedSegment.attach(name)
    except FileNotFoundError:  # pragma: no cover - creator already gone
        pass


# -- whole-vocabulary fast paths ---------------------------------------------


def columnar_candidate_ids(
    original: ColumnarVocabulary,
    contextualized: ColumnarVocabulary,
    require_both_shifts: bool,
    bins_original,
    bins_contextualized,
) -> list[int] | None:
    """Vectorized Figure 3 shift pretest over the shared id space.

    Returns the ascending term ids passing the shift test(s) — exactly
    the terms the scalar selection loop would keep, in the same order it
    visits them (``terms()`` yields id order) — or None when the numpy
    fast path is unavailable and the caller should run the scalar loop.
    All quantities are integers; no float enters the comparison, so the
    two paths agree bit for bit.
    """
    if _np is None or original.interner is not contextualized.interner:
        return None
    size = len(original.interner)
    if size == 0:
        return []
    df_o = original.df_column(size).to_numpy()
    df_c = contextualized.df_column(size).to_numpy()
    mask = df_c > df_o
    if require_both_shifts:
        unknown_o = len(original) + 1
        unknown_c = len(contextualized) + 1
        ranks_o = original.rank_column(size).to_numpy().copy()
        ranks_c = contextualized.rank_column(size).to_numpy().copy()
        ranks_o[ranks_o == 0] = unknown_o
        ranks_c[ranks_c == 0] = unknown_c
        table_o = _np.asarray(bins_original, dtype=_np.int64)
        table_c = _np.asarray(bins_contextualized, dtype=_np.int64)
        shift_r = table_o[ranks_o] - table_c[ranks_c]
        mask &= shift_r > 0
    # Selection only ever scores terms present in the contextualized
    # database (it iterates contextualized.terms()).
    mask &= df_c > 0
    return [int(term_id) for term_id in _np.nonzero(mask)[0]]
