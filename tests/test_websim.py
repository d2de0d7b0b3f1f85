"""Tests for the simulated web and search engine."""

from __future__ import annotations

import hashlib
import json
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.text.stopwords import is_stopword
from repro.text.tokenizer import normalize_term, word_tokens
from repro.websim.engine import SNIPPET_WINDOW, SearchEngineSim, Snippet
from repro.websim.pages import BOILERPLATE, WebPage, build_web_corpus

#: sha256 of the canonical JSON of the conftest world's mining outputs.
_WORLD_GOLDEN = "3e353cdf3e6a5d9c9ec3191da669ab06b7b88cd1c36ebb0ebe5d8da60ebcf8f4"


@pytest.fixture(scope="module")
def web(world, config):
    return build_web_corpus(world, config)


@pytest.fixture(scope="module")
def engine(web):
    return SearchEngineSim(web)


class TestWebCorpus:
    def test_pages_per_entity(self, world, web):
        entity_pages = [p for p in web if p.url.startswith("web://entity/")]
        assert len(entity_pages) == 3 * len(world.entities)

    def test_facet_pages_exist(self, world, web):
        facet_pages = [p for p in web if p.url.startswith("web://facet/")]
        assert len(facet_pages) == len(world.taxonomy)

    def test_entity_pages_mention_facet_terms(self, world, web):
        chirac_pages = [p for p in web if "Jacques Chirac" in p.text]
        assert chirac_pages
        assert any("Political Leaders" in p.text for p in chirac_pages)

    def test_deterministic(self, world, config):
        again = build_web_corpus(world, config)
        assert [p.url for p in again][:20] == [
            p.url for p in build_web_corpus(world, config)
        ][:20]


class TestSearch:
    def test_entity_query_finds_entity_pages(self, engine):
        snippets = engine.search("Jacques Chirac", limit=5)
        assert snippets
        assert any("Chirac" in s.title or "Chirac" in s.text for s in snippets)

    def test_title_match_boost(self, engine):
        snippets = engine.search("People", limit=3)
        assert snippets
        assert "people" in snippets[0].title.lower()

    def test_empty_query(self, engine):
        assert engine.search("") == []
        assert engine.search("the of and") == []

    def test_unknown_query(self, engine):
        assert engine.search("xyzzyqwertyzzz") == []

    def test_limit_respected(self, engine):
        assert len(engine.search("Chirac", limit=2)) <= 2

    def test_zero_limit(self, engine):
        assert engine.search("Chirac", limit=0) == []

    def test_negative_limit_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.search("Chirac", limit=-1)


class TestContextMining:
    def test_facet_terms_in_context(self, engine):
        terms = engine.frequent_snippet_terms("Jacques Chirac", limit=30)
        joined = " ".join(terms)
        assert "political" in joined or "france" in joined or "leaders" in joined

    def test_query_words_excluded(self, engine):
        terms = engine.frequent_snippet_terms("Jacques Chirac", limit=30)
        assert "jacques" not in terms
        assert "chirac" not in terms

    def test_limit(self, engine):
        assert len(engine.frequent_snippet_terms("France", limit=5)) <= 5

    def test_zero_limit(self, engine):
        assert engine.frequent_snippet_terms("France", limit=0) == []
        assert engine.frequent_snippet_terms("France", result_count=0) == []

    @pytest.mark.parametrize(
        "kwargs", [{"limit": -1}, {"result_count": -1}, {"limit": 0, "result_count": -1}]
    )
    def test_negative_counts_rejected(self, engine, kwargs):
        with pytest.raises(ValueError):
            engine.frequent_snippet_terms("France", **kwargs)

    def test_fragment_suppression(self):
        # "united" occurs only inside "united states" -> suppressed.
        pages = [
            WebPage(f"u{i}", "United States", "United States . United States")
            for i in range(3)
        ]
        engine = SearchEngineSim(pages)
        terms = engine.frequent_snippet_terms("america usa united", limit=20)
        # Query words excluded; remaining mined phrases should prefer
        # the full phrase over the fragment "states".
        if "states" in terms and "united states" in terms:
            assert terms.index("united states") < terms.index("states")

    def test_some_noise_present(self, engine):
        """Google context should contain SOME boilerplate (the paper's
        precision-drop mechanism) across a range of queries."""
        noise = 0
        for query in ("Jacques Chirac", "France", "Federal Reserve"):
            terms = engine.frequent_snippet_terms(query, limit=30)
            noise += sum(1 for t in terms if t in BOILERPLATE)
        assert noise >= 1


# ---------------------------------------------------------------------------
# Scalar reference for snippet mining.
#
# ``_ReferenceEngine`` is the engine as it was before context mining
# moved onto the page token streams: every hit is rendered into a
# ``Snippet``, re-tokenized, and its n-grams are counted as joined
# strings.  It is kept verbatim as the oracle the production engine is
# checked against, on random small webs and on the conftest world.
# ---------------------------------------------------------------------------


class _ReferenceEngine:
    """The string-based snippet miner, kept as a test oracle."""

    def __init__(self, pages: list[WebPage]) -> None:
        self._pages = pages
        self._postings: dict[str, dict[int, int]] = defaultdict(dict)
        self._page_words: list[list[str]] = []
        self._title_words: list[set[str]] = []
        for index, page in enumerate(pages):
            words = word_tokens(f"{page.title} {page.text}")
            self._page_words.append(words)
            self._title_words.append(set(word_tokens(page.title)))
            for word in words:
                entry = self._postings[word]
                entry[index] = entry.get(index, 0) + 1

    def search(self, query: str, limit: int = 10) -> list[Snippet]:
        """Top pages for ``query``, with snippets around the match."""
        terms = [w for w in word_tokens(query) if not is_stopword(w)]
        if not terms:
            return []
        scores: Counter[int] = Counter()
        for term in terms:
            for page_index, tf in self._postings.get(term, {}).items():
                scores[page_index] += tf
        # Title boost: pages whose title contains every query term rank
        # first, as on a real engine — Google("People") should return
        # pages *about* people, not pages that merely mention the word.
        for page_index in list(scores):
            if all(term in self._title_words[page_index] for term in terms):
                scores[page_index] += 25
        phrase = normalize_term(query)
        results: list[Snippet] = []
        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        for page_index, _ in ranked[:limit]:
            page = self._pages[page_index]
            results.append(
                Snippet(
                    url=page.url,
                    title=page.title,
                    text=self._snippet(page_index, terms, phrase),
                )
            )
        return results

    def _snippet(self, page_index: int, terms: list[str], phrase: str) -> str:
        words = self._page_words[page_index]
        anchor = 0
        for position, word in enumerate(words):
            if word in terms:
                anchor = position
                break
        start = max(0, anchor - SNIPPET_WINDOW // 2)
        return " ".join(words[start : start + SNIPPET_WINDOW])

    def frequent_snippet_terms(
        self, query: str, limit: int = 10, result_count: int = 10
    ) -> list[str]:
        """Most frequent non-query words/bigrams in the result snippets.

        This is the context-term extraction the paper performs on Google
        results: only titles and snippets are mined, never full pages.
        """
        snippets = self.search(query, limit=result_count)
        query_words = set(word_tokens(query))
        counts: Counter[str] = Counter()
        for snippet in snippets:
            words = [
                w
                for w in word_tokens(f"{snippet.title} {snippet.text}")
                if not is_stopword(w) and w not in query_words
            ]
            counts.update(words)
            for i in range(len(words) - 1):
                counts[f"{words[i]} {words[i + 1]}"] += 1
            for i in range(len(words) - 2):
                counts[f"{words[i]} {words[i + 1]} {words[i + 2]}"] += 1
        # Subsumed-fragment suppression (as in C-value phrase mining):
        # a term that almost always occurs inside a longer counted
        # phrase ("united" inside "united states") is a fragment, not a
        # context term of its own.
        longer_by_word: Counter[str] = Counter()
        for term, count in counts.items():
            words_in_term = term.split()
            if len(words_in_term) > 1:
                for word in words_in_term:
                    longer_by_word[word] = max(longer_by_word[word], count)
                if len(words_in_term) == 2:
                    longer_by_word[term] = 0  # bigrams checked vs trigrams below
        for term, count in counts.items():
            if len(term.split()) == 3:
                for i in range(2):
                    bigram = " ".join(term.split()[i : i + 2])
                    longer_by_word[bigram] = max(longer_by_word[bigram], count)
        ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        results = []
        for term, count in ranked:
            if longer_by_word.get(term, 0) >= count * 0.8:
                continue
            results.append(term)
            if len(results) >= limit:
                break
        return results


# Surface forms that exercise every tokenizer branch: stopwords, case,
# hyphens, apostrophes, grouped and decimal numbers, non-ASCII letters
# (which split words), and the boilerplate the web pages carry.
_SURFACES = (
    "the", "of", "and", "in", "a", "Paris", "paris", "France", "united",
    "States", "well-known", "O'Neil", "don't", "1,000", "3.14", "42",
    "news", "official", "site", "café", "naïve", "x", "re-elected",
    "Chirac", "leaders",
)
_SEPARATORS = (" ", " ", " ", " . ", ", ", " — ", "-", "'", "\n", "; ")


def _texts(max_size: int) -> st.SearchStrategy[str]:
    return st.lists(
        st.tuples(st.sampled_from(_SURFACES), st.sampled_from(_SEPARATORS)),
        max_size=max_size,
    ).map(lambda parts: "".join(word + sep for word, sep in parts))


_PAGES = st.lists(
    st.tuples(_texts(5), _texts(60)).map(
        # Titles repeat their first word now and then, as entity titles
        # such as "Paris — Paris news" do.
        lambda pair: (pair[0] + " " + pair[0].split(" ")[0], pair[1])
    ),
    min_size=1,
    max_size=8,
)


def _web(pairs: list[tuple[str, str]]) -> list[WebPage]:
    return [
        WebPage(f"web://t/{index}", title, text)
        for index, (title, text) in enumerate(pairs)
    ]


class TestMiningMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(
        _PAGES,
        _texts(4),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=40),
    )
    def test_random_webs(self, pairs, query, limit, result_count):
        pages = _web(pairs)
        engine = SearchEngineSim(pages)
        reference = _ReferenceEngine(pages)
        assert engine.search(query, limit=result_count) == reference.search(
            query, limit=result_count
        )
        assert engine.frequent_snippet_terms(
            query, limit=limit, result_count=result_count
        ) == reference.frequent_snippet_terms(
            query, limit=limit, result_count=result_count
        )

    @pytest.mark.parametrize(
        "query", ["the of and", "Paris", "paris Paris", "well-known 1,000", "o'neil"]
    )
    def test_edge_queries(self, query):
        pages = _web(
            [
                ("Paris — Paris news", "Paris . the well-known 1,000 . O'Neil"),
                ("O'Neil", "the O'Neil 3.14 . Paris naïve café . united States"),
                ("the of", "and of the"),
            ]
        )
        engine = SearchEngineSim(pages)
        reference = _ReferenceEngine(pages)
        for limit in (1, 2, 5, 40):
            assert engine.frequent_snippet_terms(
                query, limit=limit
            ) == reference.frequent_snippet_terms(query, limit=limit)

    def test_world_queries_match_reference(self, world, web, engine):
        reference = _ReferenceEngine(web)
        for query in _world_queries(world)[::7]:
            assert engine.frequent_snippet_terms(
                query, limit=30
            ) == reference.frequent_snippet_terms(query, limit=30)

    def test_world_golden(self, world, engine):
        """Pinned mining output for every entity name and facet term.

        The limits are the Google resource's (30 context terms from 10
        result pages).  A change here changes every Google-backed
        facet hierarchy.
        """
        outputs = {
            query: engine.frequent_snippet_terms(query, limit=30, result_count=10)
            for query in _world_queries(world)
        }
        payload = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        assert digest == _WORLD_GOLDEN


def _world_queries(world) -> list[str]:
    names = [entity.name for entity in world.entities]
    return sorted(set(names) | set(world.taxonomy.terms()))
