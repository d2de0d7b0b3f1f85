"""Reference oracles for the Step 1 text paths.

The named-entity chunker, the Wikipedia title scan and the statistics
worker each have one implementation, which reads memoized sentence
columns (:class:`repro.text.interning.SentenceColumns`).  This module
keeps the Token-object versions they replaced as scalar references:
the plain NE chunker (with its headline test), the plain
longest-match title scan, and the ``document_terms`` + per-occurrence
``normalize_term`` statistics worker.  Hypothesis then compares the
production paths against them on random text full of headlines,
particles ("of", "van"), numbers, hyphens, apostrophes and non-ASCII
letters — once with no text memo active (the extractor makes its own)
and once inside an outer memo, as a pooled or inline pipeline run has.

The references read the raw tokenizer functions, never the memo.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ReproConfig
from repro.corpus import build_snyt
from repro.corpus.document import Document
from repro.extractors.named_entities import NamedEntityExtractor
from repro.text.interning import TextMemo, active_memo, use_text_memo
from repro.text.phrases import capitalized_spans, countable_terms, join_span, phrases_from_words
from repro.text.stopwords import is_common_opener, is_stopword
from repro.text.tokenizer import normalize_term, sentences, tokenize
from repro.wikipedia.titles import MAX_TITLE_WORDS, TitleMatch, TitleMatcher

# -- references ----------------------------------------------------------------

HEADLINE_CAP_RATIO = 0.7
MAX_SPAN_TOKENS = 6


def _is_headline(sentence: str) -> bool:
    tokens = [t for t in tokenize(sentence) if not t.is_numeric]
    if len(tokens) < 4:
        return False
    capitalized = sum(1 for t in tokens if t.is_capitalized)
    return capitalized / len(tokens) >= HEADLINE_CAP_RATIO


def reference_named_entities(document: Document) -> list[str]:
    """The plain Token-object NE chunker."""
    text = document.text
    body_sentences = [s for s in sentences(text) if not _is_headline(s)]
    # Count capitalized occurrences to vet sentence-initial singletons.
    cap_counts: Counter[str] = Counter()
    for sentence in body_sentences:
        for token in tokenize(sentence):
            if token.is_capitalized:
                cap_counts[token.text] += 1

    entities: list[str] = []
    seen: set[str] = set()
    for sentence in body_sentences:
        for span in capitalized_spans(sentence):
            if len(span) > MAX_SPAN_TOKENS:
                continue
            surface = join_span(span)
            if len(span) == 1:
                token = span[0]
                if is_stopword(token.text) or len(token.text) <= 2:
                    continue
                if is_common_opener(token.text):
                    continue
                at_sentence_start = token.start == 0
                if at_sentence_start and cap_counts[token.text] < 2:
                    continue
            key = surface.lower()
            if key not in seen:
                seen.add(key)
                entities.append(surface)
    return entities


def reference_title_matches(matcher: TitleMatcher, text: str) -> list[TitleMatch]:
    """The plain longest-match scan: ``normalize_term`` per candidate."""
    tokens = tokenize(text)
    words = [token.text for token in tokens]
    matches: list[TitleMatch] = []
    i = 0
    while i < len(words):
        found = None
        # Longest candidate first: "pick the longest title".
        for n in range(min(MAX_TITLE_WORDS, len(words) - i), 0, -1):
            surface = " ".join(words[i : i + n])
            key = normalize_term(surface)
            if key in matcher._surfaces:
                # A single generic lower-case word ("people", "war")
                # matching an entry title is almost never a mention of
                # that entry; require a proper-noun surface for
                # single-word matches.
                if n == 1 and (
                    not words[i][0].isupper() or is_common_opener(words[i])
                ):
                    continue
                title = matcher._db.resolve(surface)
                if title is not None:
                    found = TitleMatch(surface, title, i, i + n)
                    break
        if found is not None:
            matches.append(found)
            i = found.end_token
        else:
            i += 1
    return matches


def reference_document_terms(document: Document) -> list[str]:
    """All countable terms of a document: words plus 2-3-word phrases."""
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


def reference_stats_chunk(documents: list[Document]) -> list[tuple[str, list[str]]]:
    """The statistics worker that normalized every occurrence."""
    out: list[tuple[str, list[str]]] = []
    for document in documents:
        terms = reference_document_terms(document)
        normalized = [t for t in (normalize_term(t) for t in terms) if t]
        out.append((document.doc_id, normalized))
    return out


# -- random text ---------------------------------------------------------------

_WORDS = [
    # names, headline words, openers
    "Paris", "Jacques", "Chirac", "Bureau", "Commerce", "New", "York",
    "Smith", "People", "The", "In", "Yesterday", "Storm", "Clouds",
    "Gather", "Over", "Capital", "PARIS", "NATO", "Senate", "Budget",
    # particles
    "of", "de", "la", "van", "von", "al", "bin", "the", "Van", "Of",
    # lower-case words and stopwords
    "market", "said", "election", "met", "and", "a", "to", "in", "with",
    # numbers
    "1,000", "3.14", "2005", "12", "7th",
    # hyphens and apostrophes
    "well-known", "Anglo-French", "Jean-Luc", "don't", "O'Brien",
    "People's", "rock-'n'-roll", "-", "'",
    # non-ASCII letters
    "café", "Zürich", "Élysée", "São", "İstanbul", "straße", "Ünited",
    "naïve", "Łódź",
    # punctuation, abbreviations and sentence breaks
    ".", "!", "?", ",", "—", "\n", '"', "Mr.", "U.S.", "Dr.", "Corp.",
]

_SENTENCE = st.lists(st.sampled_from(_WORDS), max_size=14).map(" ".join)
_HEADLINE = st.lists(
    st.sampled_from([w for w in _WORDS if w[:1].isupper()]), min_size=4, max_size=9
).map(" ".join)


def _end_sentence(sentence: str) -> str:
    return sentence + "." if sentence and sentence[-1] not in ".!?" else sentence


_TEXT = st.lists(
    st.one_of(_SENTENCE, _HEADLINE).map(_end_sentence), max_size=6
).map(" ".join)


def under(outer_memo: bool, fn, *args):
    """Run ``fn`` with no memo active, or inside an outer memo."""
    if not outer_memo:
        assert active_memo() is None
        return fn(*args)
    with use_text_memo(TextMemo()):
        return fn(*args)


# -- properties ----------------------------------------------------------------


class TestNamedEntityOracle:
    @settings(max_examples=150, deadline=None)
    @given(title=st.one_of(_HEADLINE, _SENTENCE), body=_TEXT, outer_memo=st.booleans())
    def test_matches_plain_chunker(self, title, body, outer_memo):
        document = Document(doc_id="p", title=title, body=body)
        got = under(outer_memo, NamedEntityExtractor().extract, document)
        assert got == reference_named_entities(document)

    @pytest.mark.parametrize("outer_memo", [False, True])
    def test_headline_particles_and_numbers(self, outer_memo):
        document = Document(
            doc_id="h",
            title="Storm Clouds Gather Over The Capital Region",
            body=(
                "He said the Bureau of Commerce met Ludwig van Beethoven "
                "in 2005. O'Brien and Jean-Luc Picard visited Zürich. "
                "O'Brien left. The U.S. Senate passed 1,000 bills."
            ),
        )
        got = under(outer_memo, NamedEntityExtractor().extract, document)
        assert got == reference_named_entities(document)
        assert "Bureau of Commerce" in got
        assert "Storm Clouds Gather Over The Capital Region" not in got


class TestTitleMatcherOracle:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), outer_memo=st.booleans())
    def test_matches_plain_scan(self, wikipedia, data, outer_memo):
        matcher = TitleMatcher(wikipedia)
        title_words = sorted(
            {word for title in wikipedia.titles()[:300] for word in title.split()}
        )
        tokens = data.draw(
            st.lists(st.sampled_from(title_words + _WORDS), max_size=40)
        )
        text = " ".join(tokens)
        got = under(outer_memo, matcher.matches, text)
        assert got == reference_title_matches(matcher, text)

    @pytest.mark.parametrize("use_redirects", [True, False])
    def test_snyt_documents_match_plain_scan(self, wikipedia, snyt, use_redirects):
        matcher = TitleMatcher(wikipedia, use_redirects=use_redirects)
        found = 0
        for document in list(snyt)[:40]:
            got = matcher.matches(document.text)
            assert got == reference_title_matches(matcher, document.text)
            found += len(got)
        assert found > 0


class TestStatisticsOracle:
    @settings(max_examples=150, deadline=None)
    @given(title=st.one_of(_HEADLINE, _SENTENCE), body=_TEXT, outer_memo=st.booleans())
    def test_countable_terms_match_normalized_document_terms(
        self, title, body, outer_memo
    ):
        document = Document(doc_id="s", title=title, body=body)

        def production() -> list[str]:
            return countable_terms(document.text, active_memo() or TextMemo())

        [(_, expected)] = reference_stats_chunk([document])
        assert under(outer_memo, production) == expected

    def test_incremental_checkpoint_terms_match_the_reference(self, builder):
        """``DocumentState.stats_terms`` is checkpoint format: the ordered,
        repeated term list must be exactly the reference worker's."""
        documents = build_snyt(ReproConfig(scale=0.05)).documents
        extractor = builder.build_incremental()
        extractor.append(documents)
        expected = dict(reference_stats_chunk(documents))
        for document in documents:
            state = extractor.state.doc_states[document.doc_id]
            assert state.stats_terms == expected[document.doc_id]
