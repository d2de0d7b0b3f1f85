"""Rule-based named-entity extraction (the LingPipe stand-in).

Chunks runs of capitalized tokens into entity candidates, with newswire
conventions handled explicitly:

* headline-cased sentences (most words capitalized) are skipped;
* a single capitalized word at sentence start only counts when it
  reappears capitalized elsewhere in the document;
* spans of particles ("of", "van", "de") join adjacent capitalized runs
  ("Bureau of Commerce").

Like a real NE tagger — and this drives the shape of Tables II-IV —
the extractor finds **only named entities**: topical common nouns
("election", "storm") are never returned.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress

from ..corpus.document import Document
from ..text.interning import TextMemo, active_memo
from ..text.stopwords import is_common_opener
from .base import ExtractorName, TermExtractor

#: Sentences with at least this fraction of capitalized words are
#: treated as headlines and skipped.
HEADLINE_CAP_RATIO = 0.7

#: Maximum tokens in a named-entity span.
MAX_SPAN_TOKENS = 6

#: Lower-case particles that may join adjacent capitalized runs; must
#: stay equal to the set in :func:`~repro.text.phrases.capitalized_spans`.
_PARTICLES = frozenset({"of", "de", "la", "van", "von", "al", "bin", "the"})


class NamedEntityExtractor(TermExtractor):
    """Capitalization-based NE chunker."""

    name = ExtractorName.NAMED_ENTITIES

    def extract(self, document: Document) -> list[str]:
        """Entities of ``document`` in first-seen order.

        One fused sweep per sentence over the memoized sentence columns
        (the active text memo, or a throwaway one) runs the headline
        test, the capitalized-occurrence count and the span chunking;
        every predicate reads a precomputed column, and the dedup key is
        the join of the span's lower-cased tokens — ``surface.lower()``
        exactly, since lower-casing distributes over a space join.
        ``tests/test_extractor_oracles.py`` checks the result against a
        Token-object reference chunker.
        """
        memo = active_memo() or TextMemo()
        body: list = []
        cap_counts: Counter[str] = Counter()
        for sentence in memo.sentences(document.text):
            columns = memo.sentence_columns(sentence)
            caps = columns.caps
            word_count = len(columns.nums) - sum(columns.nums)
            if word_count >= 4 and sum(caps) / word_count >= HEADLINE_CAP_RATIO:
                continue
            body.append(columns)
            cap_counts.update(compress(columns.texts, caps))

        entities: list[str] = []
        seen: set[str] = set()
        for columns in body:
            texts = columns.texts
            lowers = columns.lowers
            starts = columns.starts
            ends = columns.ends
            caps = columns.caps
            nums = columns.nums
            count = len(texts)
            spans: list[list[int]] = []
            current: list[int] = []
            for index, cap in enumerate(caps):
                if not current:
                    # Empty run: the adjacency test is vacuously true and
                    # the particle branch cannot fire.
                    if cap and not nums[index]:
                        current.append(index)
                    continue
                adjacent = starts[index] - ends[current[-1]] <= 1
                if cap and not nums[index] and adjacent:
                    current.append(index)
                elif (
                    adjacent
                    and lowers[index] in _PARTICLES
                    and index + 1 < count
                    and caps[index + 1]
                    and starts[index + 1] - ends[index] <= 1
                ):
                    current.append(index)
                else:
                    spans.append(current)
                    current = []
                    if cap and not nums[index]:
                        current.append(index)
            if current:
                spans.append(current)
            for span in spans:
                if len(span) > MAX_SPAN_TOKENS:
                    continue
                if len(span) == 1:
                    index = span[0]
                    if columns.stops[index] or len(texts[index]) <= 2:
                        continue
                    if is_common_opener(lowers[index]):
                        continue
                    if starts[index] == 0 and cap_counts[texts[index]] < 2:
                        continue
                key = " ".join(lowers[index] for index in span)
                if key not in seen:
                    seen.add(key)
                    entities.append(" ".join(texts[index] for index in span))
        return entities
