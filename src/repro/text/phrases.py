"""N-gram and candidate-phrase extraction.

Facet terms in the paper are "single words and multi-word phrases"
(Section IV-A, footnote 2).  This module produces the candidate phrases
that the term extractors and frequency analysis operate on: contiguous
word n-grams that neither start nor end with a stopword.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .interning import TextMemo, sentences, tokenize
from .stopwords import is_stopword
from .tokenizer import Token


def ngrams(words: list[str], n: int) -> Iterator[tuple[str, ...]]:
    """Yield contiguous ``n``-grams of ``words``."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    for i in range(len(words) - n + 1):
        yield tuple(words[i : i + n])


def _valid_phrase(words: tuple[str, ...]) -> bool:
    """A candidate phrase may not start/end with a stopword or number."""
    first, last = words[0], words[-1]
    if is_stopword(first) or is_stopword(last):
        return False
    if first[0].isdigit() and len(words) == 1:
        return False
    return True


def phrases_from_words(
    words: list[str],
    max_words: int = 3,
    include_unigrams: bool = True,
) -> list[str]:
    """Candidate phrases of one sentence, given its lower-cased words.

    The n-gram half of :func:`candidate_phrases` — callers that already
    hold a sentence's token stream (the annotation statistics pass) use
    this directly instead of re-tokenizing the text.
    """
    if max_words <= 0:
        raise ValueError(f"max_words must be positive, got {max_words}")
    phrases: list[str] = []
    min_n = 1 if include_unigrams else 2
    for n in range(min_n, max_words + 1):
        for gram in ngrams(words, n):
            if _valid_phrase(gram):
                phrases.append(" ".join(gram))
    return phrases


def candidate_phrases(
    text: str,
    max_words: int = 3,
    include_unigrams: bool = True,
) -> list[str]:
    """Extract candidate phrases from ``text``.

    Phrases never cross sentence boundaries; each is lower-cased and
    space-joined.  Duplicates are preserved (callers count frequencies).
    """
    if max_words <= 0:
        raise ValueError(f"max_words must be positive, got {max_words}")
    phrases: list[str] = []
    for sentence in sentences(text):
        words = [token.lower for token in tokenize(sentence)]
        phrases.extend(
            phrases_from_words(
                words, max_words=max_words, include_unigrams=include_unigrams
            )
        )
    return phrases


def countable_terms(text: str, memo: TextMemo) -> list[str]:
    """Words and 2-3-word phrases of ``text``, from memoized columns.

    Emits every sentence's non-stopword lower-cased words (all sentences
    first), then every sentence's bigrams and trigrams whose first and
    last words are non-stopwords: the :func:`phrases_from_words` sweep
    with ``include_unigrams=False``, with the stopword predicate read
    from the precomputed column instead of re-evaluated per n-gram
    (``_valid_phrase``'s leading-digit rule only applies to unigrams,
    which the sweep never emits).  Sentence splitting only cuts at
    whitespace, which no token spans, so the words are exactly the
    whole text's non-stopword words.
    """
    words: list[str] = []
    phrases: list[str] = []
    append = phrases.append
    for sentence in memo.sentences(text):
        columns = memo.sentence_columns(sentence)
        lowers = columns.lowers
        stops = columns.stops
        words.extend(
            [lower for lower, stop in zip(lowers, stops) if not stop]
        )
        tail = lowers[1:]
        for a, b, stop_a, stop_b in zip(lowers, tail, stops, stops[1:]):
            if not stop_a and not stop_b:
                append(a + " " + b)
        for a, b, c, stop_a, stop_c in zip(
            lowers, tail, lowers[2:], stops, stops[2:]
        ):
            if not stop_a and not stop_c:
                append(a + " " + b + " " + c)
    return words + phrases


def capitalized_spans(text: str) -> list[list[Token]]:
    """Group consecutive capitalized tokens within each sentence.

    Used by the rule-based named-entity tagger: runs of capitalized words
    (optionally joined by particles like "of" and "de") are named-entity
    candidates.
    """
    particles = {"of", "de", "la", "van", "von", "al", "bin", "the"}
    spans: list[list[Token]] = []
    for sentence in sentences(text):
        tokens = tokenize(sentence)
        current: list[Token] = []
        for index, token in enumerate(tokens):
            # Punctuation between tokens (anything wider than one space)
            # breaks the span: "PARIS — Supporters" is two spans.
            adjacent = not current or token.start - current[-1].end <= 1
            if token.is_capitalized and not token.is_numeric and adjacent:
                current.append(token)
            elif (
                current
                and adjacent
                and token.lower in particles
                and index + 1 < len(tokens)
                and tokens[index + 1].is_capitalized
                and tokens[index + 1].start - token.end <= 1
            ):
                current.append(token)
            else:
                if current:
                    spans.append(current)
                current = []
                if token.is_capitalized and not token.is_numeric:
                    current.append(token)
        if current:
            spans.append(current)
    return spans


def join_span(span: Iterable[Token]) -> str:
    """Join a token span back into a surface phrase."""
    return " ".join(token.text for token in span)
