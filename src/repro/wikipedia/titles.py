"""Longest-match title lookup: the Wikipedia term extractor's core.

Section IV-A of the paper: "Whenever a term in the document matches a
title of a Wikipedia entry, we mark the term as important.  If there are
multiple candidate titles, we pick the longest title" — with redirect
pages widening the match ("Hillary Clinton" matches even though the page
is "Hillary Rodham Clinton").
"""

from __future__ import annotations

from dataclasses import dataclass

from ..text.interning import TextMemo, active_memo
from ..text.stopwords import is_common_opener
from ..text.tokenizer import normalize_term
from .database import WikipediaDatabase

#: Longest title length considered, in words.
MAX_TITLE_WORDS = 6


@dataclass(frozen=True)
class TitleMatch:
    """A matched span: the surface text and the resolved page title."""

    surface: str
    title: str
    start_token: int
    end_token: int  # exclusive


class TitleMatcher:
    """Greedy longest-match scanning of document text against titles."""

    def __init__(
        self, database: WikipediaDatabase, use_redirects: bool = True
    ) -> None:
        self._db = database
        self._use_redirects = use_redirects
        self._surfaces: set[str] = set()
        for surface in database.all_known_surfaces():
            self._surfaces.add(surface)
        if not use_redirects:
            # Titles only: rebuild from page titles, ignoring redirects.
            self._surfaces = {normalize_term(t) for t in database.titles()}
        # First word of each surface key → the word counts (longest
        # first) of surfaces opening with it.  A position can only start
        # an n-word match when some n-word surface opens with its
        # lower-cased token, so the scan probes exactly the
        # (position, length) pairs that can match.
        by_first: dict[str, set[int]] = {}
        for surface in self._surfaces:
            words = surface.split(" ")
            by_first.setdefault(words[0], set()).add(len(words))
        self._lengths_by_first: dict[str, tuple[int, ...]] = {
            word: tuple(sorted(lengths, reverse=True))
            for word, lengths in by_first.items()
        }

    def matches(self, text: str) -> list[TitleMatch]:
        """All non-overlapping longest title matches in ``text``.

        Every token is a full match of the tokenizer's word regex, so
        ``normalize_term`` of a token is exactly its lower-case form and
        normalization commutes with space-joining — the candidate key of
        a span is the join of its tokens' lower-case forms.  The
        first-word/length index then prunes every (position, length)
        pair whose key cannot be in the surface table; the survivors are
        checked longest first ("pick the longest title").
        ``tests/test_extractor_oracles.py`` checks the result against a
        plain scan that normalizes every candidate.

        The token stream is assembled from the memoized per-sentence
        tokenizations of the active text memo (or a throwaway one)
        instead of re-tokenizing the full text: sentence splitting only
        cuts at whitespace, which no token spans, so the concatenated
        streams carry the same token texts in the same order.
        """
        memo = active_memo() or TextMemo()
        words: list[str] = []
        lows: list[str] = []
        for sentence in memo.sentences(text):
            columns = memo.sentence_columns(sentence)
            words.extend(columns.texts)
            lows.extend(columns.lowers)
        lengths_by_first = self._lengths_by_first
        surfaces = self._surfaces
        matches: list[TitleMatch] = []
        i = 0
        count = len(words)
        while i < count:
            lengths = lengths_by_first.get(lows[i])
            if lengths is None:
                i += 1
                continue
            found = None
            remaining = min(MAX_TITLE_WORDS, count - i)
            for n in lengths:
                if n > remaining:
                    continue
                key = lows[i] if n == 1 else " ".join(lows[i : i + n])
                if key in surfaces:
                    # A single generic lower-case word ("people", "war")
                    # matching an entry title is almost never a mention of
                    # that entry; require a proper-noun surface for
                    # single-word matches.
                    if n == 1 and (
                        not words[i][0].isupper() or is_common_opener(words[i])
                    ):
                        continue
                    # Surface keys are normalize_term fixed points, so
                    # resolving the key equals resolving the raw span.
                    title = self._db.resolve(key)
                    if title is not None:
                        found = TitleMatch(
                            " ".join(words[i : i + n]), title, i, i + n
                        )
                        break
            if found is not None:
                matches.append(found)
                i = found.end_token
            else:
                i += 1
        return matches

    def match_titles(self, text: str) -> list[str]:
        """Distinct resolved titles found in ``text`` (document order)."""
        return list(dict.fromkeys(match.title for match in self.matches(text)))
