"""The snippet search engine over the synthetic web."""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from ..text.stopwords import STOPWORDS
from ..text.tokenizer import word_tokens
from .pages import WebPage

#: Snippet length in words around the first query match.
SNIPPET_WINDOW = 30


@dataclass(frozen=True)
class Snippet:
    """A search hit: url, title, and the snippet text."""

    url: str
    title: str
    text: str


class SearchEngineSim:
    """tf-scored search with snippet generation (the Google stand-in).

    Each page is tokenized once, at construction, into the word stream
    ``word_tokens(f"{title} {text}")``.  A snippet is the space-joined
    window of that stream around the first query match, so its words
    are exactly that window: the tokenizer's matches never contain
    whitespace and each match is a full match on its own.  Context
    mining therefore reads the page's title words and the window slice
    straight from the stream and never renders or re-tokenizes a
    snippet.
    """

    def __init__(self, pages: list[WebPage]) -> None:
        self._pages = pages
        self._postings: dict[str, dict[int, int]] = defaultdict(dict)
        self._title_postings: dict[str, set[int]] = defaultdict(set)
        self._page_words: list[list[str]] = []
        self._title_lengths: list[int] = []
        for index, page in enumerate(pages):
            title_words = word_tokens(page.title)
            words = title_words + word_tokens(page.text)
            self._page_words.append(words)
            self._title_lengths.append(len(title_words))
            for word in title_words:
                self._title_postings[word].add(index)
            for word in words:
                entry = self._postings[word]
                entry[index] = entry.get(index, 0) + 1

    def _hits(self, query: str, limit: int) -> list[tuple[int, int]]:
        """``(page index, snippet start)`` of the top ``limit`` pages."""
        if limit < 0:
            raise ValueError(f"limit must be non-negative, got {limit}")
        terms = [w for w in word_tokens(query) if w not in STOPWORDS]
        if not terms or limit == 0:
            return []
        scores: Counter[int] = Counter()
        for term in terms:
            scores.update(self._postings.get(term, {}))
        # Title boost: pages whose title contains every query term rank
        # first, as on a real engine — Google("People") should return
        # pages *about* people, not pages that merely mention the word.
        # Such a page holds every term in its word stream, so it is
        # already scored.
        titled = set.intersection(
            *(self._title_postings.get(term, set()) for term in terms)
        )
        for page_index in titled:
            scores[page_index] += 25
        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        return [
            (page_index, self._window_start(page_index, terms))
            for page_index, _ in ranked[:limit]
        ]

    def _window_start(self, page_index: int, terms: list[str]) -> int:
        """Start of the snippet window around the first query match."""
        words = self._page_words[page_index]
        anchor = min(
            words.index(term)
            for term in terms
            if page_index in self._postings.get(term, ())
        )
        return max(0, anchor - SNIPPET_WINDOW // 2)

    def search(self, query: str, limit: int = 10) -> list[Snippet]:
        """Top pages for ``query``, with snippets around the match."""
        results: list[Snippet] = []
        for page_index, start in self._hits(query, limit):
            page = self._pages[page_index]
            window = self._page_words[page_index][start : start + SNIPPET_WINDOW]
            results.append(Snippet(url=page.url, title=page.title, text=" ".join(window)))
        return results

    def frequent_snippet_terms(
        self, query: str, limit: int = 10, result_count: int = 10
    ) -> list[str]:
        """Most frequent non-query words/bigrams in the result snippets.

        This is the context-term extraction the paper performs on Google
        results: only titles and snippets are mined, never full pages.
        """
        if limit < 0:
            raise ValueError(f"limit must be non-negative, got {limit}")
        if result_count < 0:
            raise ValueError(f"result_count must be non-negative, got {result_count}")
        if limit == 0:
            return []
        excluded = STOPWORDS.union(word_tokens(query))
        unigrams: list[str] = []
        bigrams: list[tuple[str, str]] = []
        trigrams: list[tuple[str, str, str]] = []
        for page_index, start in self._hits(query, result_count):
            page_words = self._page_words[page_index]
            # The snippet's words: the title's, then the window's.
            words = [
                w
                for w in chain(
                    page_words[: self._title_lengths[page_index]],
                    page_words[start : start + SNIPPET_WINDOW],
                )
                if w not in excluded
            ]
            unigrams += words
            bigrams += zip(words, words[1:])
            trigrams += zip(words, words[1:], words[2:])
        return _rank_context_terms(
            Counter(unigrams), Counter(bigrams), Counter(trigrams), limit
        )


def _rank_context_terms(
    unigrams: Counter[str],
    bigrams: Counter[tuple[str, str]],
    trigrams: Counter[tuple[str, str, str]],
    limit: int,
) -> list[str]:
    """The ``limit`` most frequent n-grams that are not fragments.

    Terms rank by count, ties alphabetically by their space-joined
    form.  A term counted ``c`` times is a fragment only of a gram
    counted at least ``0.8 * c`` times, so for ``c >= 2`` grams counted
    once never matter, and terms counted once rank below all others.
    Most queries fill ``limit`` from the terms counted at least twice;
    only the rest pay for the sweep over every gram.
    """
    ranked = _survivors(unigrams, bigrams, trigrams, min_count=2)
    if len(ranked) < limit:
        ranked = _survivors(unigrams, bigrams, trigrams, min_count=1)
    # Only terms counted at least as often as the limit-th survivor can
    # make the cut; join just those, then order them (count descending,
    # ties alphabetical) with two stable sorts.
    ranked.sort(key=itemgetter(1), reverse=True)
    if len(ranked) > limit:
        floor = ranked[limit - 1][1]
        ranked = [item for item in ranked if item[1] >= floor]
    terms = [(" ".join(gram), count) for gram, count in ranked]
    terms.sort(key=itemgetter(0))
    terms.sort(key=itemgetter(1), reverse=True)
    return [term for term, _ in terms[:limit]]


def _survivors(
    unigrams: dict[str, int],
    bigrams: dict[tuple[str, str], int],
    trigrams: dict[tuple[str, str, str], int],
    min_count: int,
) -> list[tuple[tuple[str, ...], int]]:
    """Non-fragment n-grams counted at least ``min_count`` times.

    Subsumed-fragment suppression (as in C-value phrase mining): a term
    that almost always occurs inside a longer counted phrase ("united"
    inside "united states") is a fragment, not a context term of its
    own.  A word is checked against every bigram and trigram holding
    it, a bigram against the trigrams it starts or ends; trigrams are
    never fragments.  Exact for ``min_count`` 1 and 2 only: above that,
    grams counted less than ``min_count`` times could still suppress.
    """
    if min_count > 1:
        unigrams = {gram: count for gram, count in unigrams.items() if count >= min_count}
        bigrams = {gram: count for gram, count in bigrams.items() if count >= min_count}
        trigrams = {gram: count for gram, count in trigrams.items() if count >= min_count}
    longer_word: dict[str, int] = {}
    longer_pair: dict[tuple[str, str], int] = {}
    word_max = longer_word.get
    pair_max = longer_pair.get
    for (first, second), count in bigrams.items():
        if word_max(first, 0) < count:
            longer_word[first] = count
        if word_max(second, 0) < count:
            longer_word[second] = count
    for (first, second, third), count in trigrams.items():
        for word in (first, second, third):
            if word_max(word, 0) < count:
                longer_word[word] = count
        for pair in ((first, second), (second, third)):
            if pair_max(pair, 0) < count:
                longer_pair[pair] = count
    ranked: list[tuple[tuple[str, ...], int]] = [
        ((word,), count)
        for word, count in unigrams.items()
        if word_max(word, 0) < count * 0.8
    ]
    ranked.extend(
        (pair, count) for pair, count in bigrams.items() if pair_max(pair, 0) < count * 0.8
    )
    ranked.extend(trigrams.items())
    return ranked
