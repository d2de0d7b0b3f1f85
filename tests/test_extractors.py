"""Tests for the three term extractors and the registry."""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ReproConfig
from repro.corpus import build_snb
from repro.corpus.document import Document
from repro.errors import ExtractionError
from repro.extractors.base import ExtractorName
from repro.extractors.named_entities import NamedEntityExtractor
from repro.extractors.registry import build_extractor, build_extractors
from repro.extractors.significant_terms import SignificantTermsExtractor
from repro.extractors.wiki_titles import WikipediaTitleExtractor
from repro.text.interning import TextMemo, use_text_memo
from repro.text.phrases import phrases_from_words
from repro.text.stopwords import is_stopword
from repro.text.tokenizer import sentences, tokenize
from repro.text.vocabulary import Vocabulary


def doc(text: str, title: str = "Untitled Report") -> Document:
    return Document(doc_id="t", title=title, body=text)


class TestNamedEntityExtractor:
    def test_finds_multiword_names(self):
        extractor = NamedEntityExtractor()
        terms = extractor.extract(
            doc("He met Jacques Chirac in the capital yesterday.")
        )
        assert "Jacques Chirac" in terms

    def test_skips_common_nouns(self):
        extractor = NamedEntityExtractor()
        terms = extractor.extract(
            doc("The election results surprised many voters this year.")
        )
        assert "election" not in [t.lower() for t in terms]

    def test_skips_headline_case_sentences(self):
        extractor = NamedEntityExtractor()
        terms = extractor.extract(
            Document(
                doc_id="t",
                title="Storm Clouds Gather Over The Capital Region",
                body="Nothing notable happened afterwards.",
            )
        )
        assert "Storm Clouds Gather Over The Capital Region" not in terms

    def test_common_openers_rejected(self):
        extractor = NamedEntityExtractor()
        terms = extractor.extract(
            doc("People familiar with the deal said so. People agreed.")
        )
        assert "People" not in terms

    def test_sentence_initial_singleton_needs_repetition(self):
        extractor = NamedEntityExtractor()
        # "Paris" opens a sentence once and never recurs capitalized.
        terms_once = extractor.extract(doc("Paris wants the deal done."))
        assert "Paris" not in terms_once
        # When it recurs, it counts.
        terms_twice = extractor.extract(
            doc("Paris wants the deal done. Officials in Paris agreed.")
        )
        assert "Paris" in terms_twice

    def test_mid_sentence_singleton_accepted(self):
        extractor = NamedEntityExtractor()
        terms = extractor.extract(doc("Talks continued in Geneva overnight."))
        assert "Geneva" in terms

    def test_deduplication(self):
        extractor = NamedEntityExtractor()
        terms = extractor.extract(
            doc(
                "He quietly met Anna Keller at the border station. "
                "The talks with Anna Keller continued into the night."
            )
        )
        assert terms.count("Anna Keller") == 1

    def test_name_dense_sentence_treated_as_headline(self):
        extractor = NamedEntityExtractor()
        # Mostly-capitalized short sentences look like headlines and are
        # skipped wholesale.
        terms = extractor.extract(doc("Later Anna Keller Spoke Again."))
        assert "Anna Keller" not in terms

    def test_dateline_not_merged(self):
        extractor = NamedEntityExtractor()
        terms = extractor.extract(doc("PARIS — Delegates met Anna Keller here."))
        assert not any("PARIS Delegates" in t for t in terms)


class TestSignificantTermsExtractor:
    def test_returns_top_terms(self):
        extractor = SignificantTermsExtractor(max_terms=5)
        terms = extractor.extract(
            doc(
                "The vaccine trial results showed the vaccine reduced "
                "infection. The vaccine will ship soon."
            )
        )
        assert len(terms) <= 5
        assert "vaccine" in terms

    def test_background_idf_demotes_ubiquitous_terms(self):
        # "report" and "year" blanket the background corpus; "vaccine"
        # is rare.  Rank by tf*idf must put vaccine above them even
        # though report has higher tf in the document.
        background = Vocabulary()
        text = "The report this year covered the vaccine and the report."
        from repro.text.phrases import countable_terms

        doc_obj = doc(text)
        for _ in range(50):
            background.add_document(countable_terms(doc(  # noqa: B023
                "The report this year covered the budget and the report."
            ).text, TextMemo()))
        background.add_document(countable_terms(doc_obj.text, TextMemo()))
        extractor = SignificantTermsExtractor(background=background, max_terms=4)
        terms = extractor.extract(doc_obj)
        assert "vaccine" in terms
        if "report" in terms:
            assert terms.index("vaccine") < terms.index("report")

    def test_use_background_only_fills_empty(self):
        explicit = Vocabulary()
        explicit.add_document(["keep"])
        extractor = SignificantTermsExtractor(background=explicit)
        other = Vocabulary()
        extractor.use_background(other)
        assert extractor._background is explicit

    def test_phrases_preferred(self):
        extractor = SignificantTermsExtractor(max_terms=8)
        terms = extractor.extract(
            doc("Stock market gains. Stock market news. Stock market data.")
        )
        assert "stock market" in terms

    def test_invalid_max_terms(self):
        with pytest.raises(ValueError):
            SignificantTermsExtractor(max_terms=0)

    def test_latency_simulation(self):
        extractor = SignificantTermsExtractor(
            simulate_latency=True, latency_seconds=0.01
        )
        import time

        start = time.perf_counter()
        extractor.extract(doc("Quick latency check."))
        assert time.perf_counter() - start >= 0.01


def _reference_candidate_counts(text: str) -> list[tuple[str, int]]:
    """Token-object candidate counting, the scalar reference.

    Whole-text unigrams first, then each sentence's bigrams and
    trigrams, in first-occurrence order: the list order is part of the
    incremental checkpoint format.
    """
    counts: dict[str, int] = {}
    for token in tokenize(text):
        if not is_stopword(token.lower):
            counts[token.lower] = counts.get(token.lower, 0) + 1
    for sentence in sentences(text):
        words = [token.lower for token in tokenize(sentence)]
        for phrase in phrases_from_words(words, max_words=3, include_unigrams=False):
            counts[phrase] = counts.get(phrase, 0) + 1
    return list(counts.items())


#: sha256 of the canonical JSON of ``candidate_counts`` over the first
#: 120 SNB documents at scale 0.05 (the benchmark's corpus).
_SNB_CANDIDATES_GOLDEN = "045e69e7787605bf106d0dd0a623ed0e1a093302c17229f0522fbb9e3a104486"

_SENTENCE_TEXT = st.lists(
    st.sampled_from(
        ["The", "the", "of", "Paris", "market", "Mr.", "U.S.", "1,000", "3.14",
         "well-known", "don't", "café", ".", "!", "?", "—", ",", "\n", '"Go']
    ),
    max_size=40,
).map(" ".join)


class TestCandidateCountsPinned:
    @pytest.fixture(scope="class")
    def snb_documents(self):
        return list(build_snb(ReproConfig(scale=0.05)))[:120]

    @pytest.mark.parametrize("memo", [False, True], ids=["plain", "memo"])
    def test_snb_golden(self, snb_documents, memo):
        extractor = SignificantTermsExtractor()
        if memo:
            with use_text_memo(TextMemo()):
                outputs = [extractor.candidate_counts(d) for d in snb_documents]
        else:
            outputs = [extractor.candidate_counts(d) for d in snb_documents]
        assert outputs[0] == _reference_candidate_counts(snb_documents[0].text)
        payload = json.dumps(outputs, separators=(",", ":"))
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        assert digest == _SNB_CANDIDATES_GOLDEN

    @settings(max_examples=100, deadline=None)
    @given(_SENTENCE_TEXT, st.booleans())
    def test_matches_reference(self, text, memo):
        extractor = SignificantTermsExtractor()
        if memo:
            with use_text_memo(TextMemo()):
                got = extractor.candidate_counts(doc(text))
        else:
            got = extractor.candidate_counts(doc(text))
        assert got == _reference_candidate_counts(doc(text).text)


class TestWikipediaTitleExtractor:
    def test_returns_surfaces(self, wikipedia):
        extractor = WikipediaTitleExtractor(wikipedia)
        terms = extractor.extract(doc("Hillary Clinton visited France."))
        assert "Hillary Clinton" in terms  # the surface, not the title
        assert "France" in terms

    def test_deduplicates_surfaces(self, wikipedia):
        extractor = WikipediaTitleExtractor(wikipedia)
        terms = extractor.extract(doc("France said France would act."))
        assert terms.count("France") == 1


class TestRegistry:
    def test_build_each_by_enum(self, wikipedia):
        for name in ExtractorName:
            extractor = build_extractor(name, wikipedia=wikipedia)
            assert extractor.name == name

    def test_build_by_string(self, wikipedia):
        assert build_extractor("NE").name == ExtractorName.NAMED_ENTITIES
        assert build_extractor("Yahoo").name == ExtractorName.YAHOO

    def test_unknown_name(self):
        with pytest.raises(ExtractionError):
            build_extractor("Bing")

    def test_wikipedia_extractor_requires_snapshot(self):
        with pytest.raises(ExtractionError):
            build_extractor(ExtractorName.WIKIPEDIA)

    def test_build_many(self, wikipedia):
        extractors = build_extractors(["NE", "Wikipedia"], wikipedia=wikipedia)
        assert len(extractors) == 2
