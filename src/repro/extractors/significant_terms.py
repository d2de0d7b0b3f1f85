"""Significant-term extraction (the "Yahoo Term Extraction" stand-in).

The real service takes a document and returns "a list of significant
words or phrases"; its internals are undocumented (footnote 5 of the
paper).  We implement the standard approach such services use: tf·idf
scoring of candidate words and phrases against a background corpus,
returning the top ``max_terms``.

The paper measures the service at 2-3 seconds per document, which made
it the bottleneck of term extraction (Section V-D); the stand-in carries
that figure as :attr:`SIMULATED_LATENCY_SECONDS` so the efficiency
benchmark can model a deployment that calls the real web service.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from collections.abc import Callable

from ..corpus.document import Document
from ..text.interning import TextMemo, active_memo
from ..text.phrases import countable_terms
from ..text.vocabulary import Vocabulary
from .base import ExtractorName, TermExtractor

#: The per-document latency the paper measured for the real web service.
SIMULATED_LATENCY_SECONDS = 2.5

#: Terms returned per document.
DEFAULT_MAX_TERMS = 10


class SignificantTermsExtractor(TermExtractor):
    """tf·idf key-word/key-phrase extraction against a background corpus.

    Parameters
    ----------
    background:
        Corpus statistics for idf.  When None, idf defaults to 1 and the
        extractor degrades to pure term frequency.
    max_terms:
        Number of terms returned per document.
    simulate_latency:
        When True, ``extract`` sleeps for ``latency_seconds`` to emulate
        the remote web service (used only by the efficiency study).
    """

    name = ExtractorName.YAHOO

    def __init__(
        self,
        background: Vocabulary | None = None,
        max_terms: int = DEFAULT_MAX_TERMS,
        simulate_latency: bool = False,
        latency_seconds: float = SIMULATED_LATENCY_SECONDS,
    ) -> None:
        if max_terms <= 0:
            raise ValueError(f"max_terms must be positive, got {max_terms}")
        self._background = background
        self._adopted_background = False
        self._max_terms = max_terms
        self._simulate_latency = simulate_latency
        self._latency_seconds = latency_seconds

    def use_background(self, vocabulary: Vocabulary) -> None:
        """Adopt corpus statistics unless an explicit background was set."""
        if self._background is None:
            self._background = vocabulary
            self._adopted_background = True

    def rebind_background(self, vocabulary) -> None:
        """Swap an adopted background for an equivalent statistics view.

        Only adopted backgrounds move (an explicit one is caller-owned
        configuration); the replacement must answer ``df`` and
        ``document_count`` identically, which the columnar plane's
        shared-memory view does by construction.
        """
        if self._adopted_background:
            self._background = vocabulary

    @property
    def background(self) -> Vocabulary | None:
        """The background corpus currently scoring idf (None = flat idf)."""
        return self._background

    @property
    def background_adopted(self) -> bool:
        """True when the background came from the annotated corpus itself.

        An adopted background makes extraction corpus-dependent: adding
        documents changes idf, which can reorder every document's
        terms.  The incremental pipeline checks this flag to decide
        whether cached outputs stay valid across appends.
        """
        return self._adopted_background

    def _idf(self, term: str) -> float:
        if self._background is None or self._background.document_count == 0:
            return 1.0
        df = self._background.df(term)
        n = self._background.document_count
        return math.log((n + 1) / (df + 1)) + 1.0

    def candidate_counts(self, document: Document) -> list[tuple[str, int]]:
        """Candidate ``(term, tf)`` pairs of one document, scoring input.

        This is the tokenization half of :meth:`extract` — pure in the
        document, so callers (the incremental pipeline) may cache it and
        re-run only :meth:`score_candidates` when the background corpus
        statistics change.

        Candidates are the document's
        :func:`~repro.text.phrases.countable_terms` — its non-stopword
        words, then each sentence's bigrams and trigrams that neither
        start nor end with a stopword — read from the active memo's
        sentence columns (a throwaway memo when none is active).  The
        list keeps first-occurrence order, words before phrases: it is
        stored as is in incremental checkpoints.
        """
        memo = active_memo() or TextMemo()
        return list(Counter(countable_terms(document.text, memo)).items())

    def score_candidates(
        self,
        candidates: list[tuple[str, int]],
        idf: "Callable[[str], float] | None" = None,
    ) -> list[str]:
        """Rank candidate counts by tf·idf and return the top terms.

        The scoring half of :meth:`extract`; ``idf`` defaults to the
        extractor's own background statistics.  Both halves together are
        exactly :meth:`extract`, so re-scoring cached candidates against
        an updated background reproduces a fresh extraction bit for bit.
        """
        idf_of = self._idf if idf is None else idf
        scored = [
            # Weight phrases up slightly: services like Yahoo's favour
            # multi-word key phrases over bare words.
            (term, tf * idf_of(term) * (1.3 if " " in term else 1.0))
            for term, tf in candidates
            if len(term) > 2
        ]
        scored.sort(key=lambda item: (-item[1], item[0]))
        return [term for term, _ in scored[: self._max_terms]]

    def extract(self, document: Document) -> list[str]:
        if self._simulate_latency:
            time.sleep(self._latency_seconds)
        return self.score_candidates(self.candidate_counts(document))
