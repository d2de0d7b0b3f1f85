"""Unit certification of the columnar data plane.

The plane's contract is *representation only*: every columnar structure
must answer exactly what its dict-of-strings counterpart answers.  This
module pins the contract piece by piece — interner id stability, the
columnar vocabulary against the Counter-backed reference, the zero-copy
df/rank map views, shared-memory round trips (including worker-crash
cleanup), the numpy/stdlib selection pretest agreement, and the two
text-layer lemmas the fast paths rely on (normalize fixed points and
the memo's output neutrality).  The end-to-end byte-identity matrix
lives in ``tests/test_columnar_equivalence.py``.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.core.columnar import (
    HAVE_NUMPY,
    ColumnarCountMap,
    ColumnarRankMap,
    ColumnarVocabulary,
    DocumentColumns,
    IntVector,
    SharedSegment,
    SharedVocabularyView,
    columnar_candidate_ids,
    pack_vocabulary,
)
from repro.core.shifts import ShiftTables
from repro.corpus.document import Document
from repro.text.interning import TextMemo, use_text_memo
from repro.text.phrases import countable_terms
from repro.text.tokenizer import normalize_term as raw_normalize_term
from repro.text.tokenizer import sentences as raw_sentences
from repro.text.tokenizer import tokenize as raw_tokenize
from repro.text.vocabulary import TermInterner, Vocabulary

WORDS = [
    "election",
    "storm",
    "clinton",
    "senate",
    "hurricane",
    "budget",
    "treaty",
    "verdict",
    "strike",
    "summit",
]


def random_documents(seed: int, count: int = 40) -> list[list[str]]:
    rng = random.Random(seed)
    return [
        [rng.choice(WORDS) for _ in range(rng.randint(0, 12))]
        for _ in range(count)
    ]


class TestTermInterner:
    def test_ids_are_first_seen_order_and_stable(self):
        interner = TermInterner()
        assert interner.intern("storm") == 0
        assert interner.intern("election") == 1
        assert interner.intern("storm") == 0  # repeat: same id
        assert interner.intern("senate") == 2
        assert interner.term(1) == "election"
        assert interner.terms() == ["storm", "election", "senate"]
        assert len(interner) == 3
        assert "storm" in interner
        assert "hurricane" not in interner
        assert interner.id_of("hurricane") is None

    def test_ids_survive_interleaved_growth(self):
        """Structures keyed by id stay valid as the table grows."""
        interner = TermInterner()
        first = {term: interner.intern(term) for term in WORDS[:5]}
        for term in WORDS:  # grow with new + old terms interleaved
            interner.intern(term)
        for term, term_id in first.items():
            assert interner.intern(term) == term_id
            assert interner.term(term_id) == term

    def test_normalized_id_memoizes_per_surface(self):
        interner = TermInterner()
        a = interner.normalized_id("Hillary  Clinton")
        b = interner.normalized_id("hillary clinton")
        assert a == b == interner.id_of("hillary clinton")
        assert interner.normalize("Hillary  Clinton") == "hillary clinton"

    def test_empty_normalization_gets_the_sentinel(self):
        interner = TermInterner()
        assert interner.normalized_id("   ") == TermInterner.EMPTY
        assert interner.normalize("   ") == ""
        assert len(interner) == 0  # the sentinel never enters the table


class TestIntVector:
    def test_grow_to_zero_extends(self):
        vector = IntVector.from_iterable([3, 1])
        vector.grow_to(5)
        assert list(vector) == [3, 1, 0, 0, 0]
        vector.grow_to(2)  # never shrinks
        assert len(vector) == 5

    def test_copy_is_independent(self):
        vector = IntVector.from_iterable([1, 2])
        clone = vector.copy()
        clone[0] = 9
        assert vector[0] == 1

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable")
    def test_to_numpy_is_zero_copy(self):
        vector = IntVector.from_iterable([4, 5, 6])
        view = vector.to_numpy()
        assert list(view) == [4, 5, 6]
        vector[1] = 50  # mutation shows through the view: shared buffer
        assert view[1] == 50


class TestColumnarVocabularyEquivalence:
    """ColumnarVocabulary answers exactly what Vocabulary answers."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_accessor_matches_the_reference(self, seed):
        reference = Vocabulary()
        columnar = ColumnarVocabulary()
        for doc in random_documents(seed):
            reference.add_document(doc)
            columnar.add_document(doc)
        assert columnar.document_count == reference.document_count
        assert columnar.term_count == reference.term_count
        assert len(columnar) == len(reference)
        assert sorted(columnar.terms()) == sorted(reference.terms())
        assert columnar.most_common() == reference.most_common()
        assert columnar.most_common(3) == reference.most_common(3)
        for term in [*WORDS, "never-seen"]:
            assert columnar.tf(term) == reference.tf(term)
            assert columnar.df(term) == reference.df(term)
            assert columnar.rank(term) == reference.rank(term)
            assert (term in columnar) == (term in reference)
            assert columnar.stats(term) == reference.stats(term)

    def test_df_and_rank_maps_match_the_reference_maps(self):
        reference = Vocabulary()
        columnar = ColumnarVocabulary()
        for doc in random_documents(7):
            reference.add_document(doc)
            columnar.add_document(doc)
        assert dict(columnar.df_map()) == dict(reference.df_map())
        assert dict(columnar.rank_map()) == dict(reference.rank_map())
        df_view = columnar.df_map()
        rank_view = columnar.rank_map()
        assert isinstance(df_view, ColumnarCountMap)
        assert isinstance(rank_view, ColumnarRankMap)
        assert len(df_view) == len(reference.df_map())
        assert len(rank_view) == len(reference.rank_map())
        for term in WORDS:
            assert df_view.get(term, 0) == reference.df_map().get(term, 0)
            assert rank_view.get(term, -1) == reference.rank_map().get(term, -1)
        assert df_view.get("never-seen") is None
        with pytest.raises(KeyError):
            df_view["never-seen"]
        with pytest.raises(KeyError):
            rank_view["never-seen"]

    def test_rank_map_is_a_snapshot(self):
        """Adds after rank_map() must not mutate the captured ranks."""
        columnar = ColumnarVocabulary()
        columnar.add_document(["storm", "election"])
        snapshot = columnar.rank_map()
        before = dict(snapshot)
        for _ in range(5):
            columnar.add_document(["election"])
        assert dict(snapshot) == before
        assert columnar.rank("election") == 1  # the live table did move

    def test_remove_document_matches_reference_including_errors(self):
        reference = Vocabulary()
        columnar = ColumnarVocabulary()
        docs = random_documents(11, count=10)
        for doc in docs:
            reference.add_document(doc)
            columnar.add_document(doc)
        for doc in docs[:5]:
            reference.remove_document(doc)
            columnar.remove_document(doc)
        assert columnar.document_count == reference.document_count
        assert sorted(columnar.terms()) == sorted(reference.terms())
        for term in WORDS:
            assert columnar.df(term) == reference.df(term)
            assert columnar.tf(term) == reference.tf(term)
            assert columnar.rank(term) == reference.rank(term)
        with pytest.raises(ValueError, match="never added"):
            columnar.remove_document(["never-seen"])
        empty = ColumnarVocabulary()
        with pytest.raises(ValueError, match="empty vocabulary"):
            empty.remove_document(["storm"])
        # Failed removals must not have touched any statistic.
        assert columnar.document_count == reference.document_count

    def test_copy_is_independent_but_shares_the_interner(self):
        columnar = ColumnarVocabulary()
        columnar.add_document(["storm", "election"])
        clone = columnar.copy()
        assert clone.interner is columnar.interner
        clone.add_document(["storm"])
        assert columnar.df("storm") == 1
        assert clone.df("storm") == 2


class TestDocumentColumns:
    def test_round_trip_and_postings(self):
        columns = DocumentColumns(TermInterner())
        columns.add_document("d1", ["storm", "election", "storm"])
        columns.add_document("d2", [])
        columns.add_document("d3", ["election", "senate"])
        assert len(columns) == 3
        assert columns.terms_of(0) == ["storm", "election", "storm"]
        assert columns.terms_of(1) == []
        assert columns.terms_of(2) == ["election", "senate"]
        assert columns.index_of("d3") == 2
        assert columns.index_of("nope") is None
        postings = columns.postings()
        election = columns.interner.id_of("election")
        storm = columns.interner.id_of("storm")
        assert list(postings[election]) == [0, 2]
        assert list(postings[storm]) == [0]  # distinct per doc
        restricted = columns.postings({storm})
        assert set(restricted) == {storm}


class TestSharedSegments:
    def test_vocabulary_view_round_trips_through_pickle(self):
        vocabulary = ColumnarVocabulary()
        for doc in random_documents(5, count=15):
            vocabulary.add_document(doc)
        segment = pack_vocabulary(vocabulary)
        if segment is None:
            pytest.skip("shared memory unavailable on this platform")
        try:
            view = SharedVocabularyView(segment.name)
            # Workers receive the view pickled; only the name travels.
            assert len(pickle.dumps(view)) < 200
            remote = pickle.loads(pickle.dumps(view))
            assert remote.document_count == vocabulary.document_count
            assert remote.term_count == vocabulary.term_count
            assert sorted(remote.terms()) == sorted(vocabulary.terms())
            for term in [*WORDS, "never-seen"]:
                assert remote.df(term) == vocabulary.df(term)
                assert remote.tf(term) == vocabulary.tf(term)
                assert (term in remote) == (term in vocabulary)
        finally:
            segment.unlink()

    def test_pack_plain_vocabulary_matches_too(self):
        vocabulary = Vocabulary()
        for doc in random_documents(6, count=10):
            vocabulary.add_document(doc)
        segment = pack_vocabulary(vocabulary)
        if segment is None:
            pytest.skip("shared memory unavailable on this platform")
        try:
            view = SharedVocabularyView(segment.name)
            for term in WORDS:
                assert view.df(term) == vocabulary.df(term)
                assert view.tf(term) == vocabulary.tf(term)
            assert view.document_count == vocabulary.document_count
        finally:
            segment.unlink()

    def test_creator_cleanup_survives_a_crashed_consumer(self):
        """A worker dying mid-read must not leak the segment."""
        vocabulary = ColumnarVocabulary()
        vocabulary.add_document(["storm"])
        segment = pack_vocabulary(vocabulary)
        if segment is None:
            pytest.skip("shared memory unavailable on this platform")
        name = segment.name
        view = SharedVocabularyView(name)
        with pytest.raises(RuntimeError, match="simulated worker crash"):
            # The consumer attaches (holding views into the buffer) and
            # dies without any cleanup of its own.
            view.df("storm")
            raise RuntimeError("simulated worker crash")
        segment.unlink()  # creator-side cleanup must still succeed
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
        segment.unlink()  # idempotent

    def test_attach_is_cached_per_process(self):
        segment = SharedSegment.create({"blob": b"payload"})
        if segment is None:
            pytest.skip("shared memory unavailable on this platform")
        try:
            first = SharedSegment.attach(segment.name)
            second = SharedSegment.attach(segment.name)
            assert first is second
            assert bytes(first.section("blob")) == b"payload"
            first.close()
        finally:
            segment.unlink()


class TestSelectionPretest:
    """The vectorized shift pretest equals the scalar Figure 3 test."""

    def build_pair(self, seed: int):
        interner = TermInterner()
        original = ColumnarVocabulary(interner)
        contextualized = ColumnarVocabulary(interner)
        rng = random.Random(seed)
        for doc in random_documents(seed, count=30):
            original.add_document(doc)
            expanded = doc + [rng.choice(WORDS) for _ in range(rng.randint(0, 4))]
            contextualized.add_document(set(expanded))
        return original, contextualized

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable")
    @pytest.mark.parametrize("require_both", [True, False])
    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_candidates_equal_the_scalar_shift_test(self, seed, require_both):
        original, contextualized = self.build_pair(seed)
        shifts = ShiftTables(original, contextualized)
        candidates = columnar_candidate_ids(
            original,
            contextualized,
            require_both,
            shifts.bins_original,
            shifts.bins_contextualized,
        )
        assert candidates is not None
        terms = original.interner.terms()
        scalar = [
            term_id
            for term_id in range(len(terms))
            if contextualized.df_by_id(term_id) > 0
            and shifts.frequency_shift(terms[term_id]) > 0
            and (not require_both or shifts.rank_shift(terms[term_id]) > 0)
        ]
        assert candidates == scalar
        assert candidates == sorted(candidates)  # scalar visit order

    def test_distinct_interners_fall_back_to_the_scalar_loop(self):
        original = ColumnarVocabulary()
        contextualized = ColumnarVocabulary()
        original.add_document(["storm"])
        contextualized.add_document(["storm", "election"])
        shifts = ShiftTables(original, contextualized)
        assert (
            columnar_candidate_ids(
                original,
                contextualized,
                True,
                shifts.bins_original,
                shifts.bins_contextualized,
            )
            is None
        )


DOC = Document(
    doc_id="pin",
    title="Senate Passes Budget as Hurricane Season Begins",
    body=(
        'The U.S. Senate passed the budget on Tuesday. "Hurricane season '
        'begins," said Dr. Smith — and 3,000 people left New Orleans. '
        "Storm-related costs rose 12.5 percent."
    ),
)


class TestTextLayerLemmas:
    """The two equivalences the columnar fast paths are built on."""

    def test_document_terms_are_normalize_fixed_points(self):
        """The statistics worker may skip normalization entirely."""
        terms = countable_terms(DOC.text, TextMemo())
        assert terms  # non-trivial input
        for term in terms:
            assert raw_normalize_term(term) == term

    def test_sentence_token_streams_concatenate_to_the_full_stream(self):
        """Reading the words per sentence cannot change them."""
        per_sentence = [
            token.lower
            for sentence in raw_sentences(DOC.text)
            for token in raw_tokenize(sentence)
        ]
        whole = [token.lower for token in raw_tokenize(DOC.text)]
        assert per_sentence == whole

    def test_text_memo_is_output_neutral(self):
        with use_text_memo(TextMemo()):
            from repro.text.interning import (
                normalize_term,
                sentences,
                tokenize,
            )

            assert tokenize(DOC.text) == raw_tokenize(DOC.text)
            assert sentences(DOC.text) == raw_sentences(DOC.text)
            for surface in ("U.S. Senate", "Hurricane  Season", "3,000"):
                assert normalize_term(surface) == raw_normalize_term(surface)

    def test_title_matcher_fast_scan_is_output_neutral(self, wikipedia):
        from repro.wikipedia.titles import TitleMatcher

        from .test_extractor_oracles import reference_title_matches

        matcher = TitleMatcher(wikipedia)
        plain = reference_title_matches(matcher, DOC.text)
        assert matcher.matches(DOC.text) == plain
        with use_text_memo(TextMemo()):
            fast = matcher.matches(DOC.text)
        assert fast == plain
