"""Tests for repro.text.tokenizer."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.text.tokenizer import normalize_term, sentences, tokenize, word_tokens


class TestTokenize:
    def test_simple_words(self):
        tokens = tokenize("The quick brown fox")
        assert [t.text for t in tokens] == ["The", "quick", "brown", "fox"]

    def test_offsets(self):
        tokens = tokenize("ab cd")
        assert (tokens[0].start, tokens[0].end) == (0, 2)
        assert (tokens[1].start, tokens[1].end) == (3, 5)

    def test_apostrophes_kept_inside_words(self):
        assert [t.text for t in tokenize("don't stop")] == ["don't", "stop"]

    def test_hyphenated_word_is_one_token(self):
        assert [t.text for t in tokenize("well-known fact")][0] == "well-known"

    def test_numbers(self):
        tokens = tokenize("1,000 deaths and 3.14 ratio")
        assert tokens[0].text == "1,000"
        assert tokens[0].is_numeric

    def test_punctuation_skipped(self):
        assert word_tokens("Hello, world!") == ["hello", "world"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_capitalization_flag(self):
        tokens = tokenize("Paris in spring")
        assert tokens[0].is_capitalized
        assert not tokens[1].is_capitalized

    def test_lower_property(self):
        assert tokenize("HELLO")[0].lower == "hello"

    @given(st.text(max_size=200))
    def test_never_raises(self, text):
        for token in tokenize(text):
            assert token.text
            assert 0 <= token.start < token.end <= len(text)

    @given(
        st.text(
            alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ",
            min_size=1,
            max_size=30,
        )
    )
    def test_pure_ascii_letters_single_token(self, text):
        tokens = tokenize(text)
        assert len(tokens) == 1
        assert tokens[0].text == text


class TestSentences:
    def test_basic_split(self):
        assert sentences("One sentence. Another one.") == [
            "One sentence.",
            "Another one.",
        ]

    def test_abbreviation_not_split(self):
        result = sentences("Mr. Smith arrived. He sat down.")
        assert len(result) == 2
        assert result[0] == "Mr. Smith arrived."

    def test_corp_abbreviation_never_splits(self):
        # "Corp." is ambiguous (could end the sentence); the splitter
        # deliberately keeps it attached rather than over-splitting.
        result = sentences("He joined Acme Corp. of Delaware last year.")
        assert len(result) == 1

    def test_question_and_exclamation(self):
        result = sentences("Really? Yes! Fine.")
        assert len(result) == 3

    def test_empty(self):
        assert sentences("") == []
        assert sentences("   ") == []

    def test_single_sentence_no_terminator(self):
        assert sentences("no terminator here") == ["no terminator here"]

    def test_quote_after_period(self):
        result = sentences('He said stop. "Go on," she replied.')
        assert len(result) == 2


class TestNormalizeTerm:
    def test_lowercases(self):
        assert normalize_term("Jacques Chirac") == "jacques chirac"

    def test_strips_punctuation(self):
        assert normalize_term("U.S.") == "u s"

    def test_collapses_whitespace(self):
        assert normalize_term("  New   York  ") == "new york"

    def test_comma_form(self):
        assert normalize_term("Clinton, Hillary Rodham") == "clinton hillary rodham"

    def test_empty(self):
        assert normalize_term("") == ""
        assert normalize_term("...") == ""

    @given(st.text(max_size=100))
    def test_idempotent(self, text):
        once = normalize_term(text)
        assert normalize_term(once) == once


# Text built from the characters the word pattern treats specially:
# letters of both cases, non-ASCII letters (word breakers), digits with
# grouping/decimal marks, hyphens, apostrophes and assorted punctuation.
_TRICKY_TEXT = st.lists(
    st.sampled_from(list("aZqé ßΩ09-'.,;—\t\n!?\"") + ["1,000", "3.14"]),
    max_size=80,
).map("".join)


class TestTokenStreamConcatenation:
    @given(_TRICKY_TEXT, _TRICKY_TEXT, st.data())
    def test_space_joined_slice_retokenizes_to_itself(self, text, source, data):
        """Re-tokenizing ``text`` plus a space-joined slice of a token
        stream gives ``text``'s tokens followed by the slice unchanged.

        The search engine's snippet miner relies on this: a snippet is
        the page title plus a space-joined window of the page's tokens,
        so its words are the title's words followed by that window.
        """
        words = word_tokens(source)
        start = data.draw(st.integers(min_value=0, max_value=len(words)))
        stop = data.draw(st.integers(min_value=start, max_value=len(words)))
        window = words[start:stop]
        joined = f"{text} {' '.join(window)}"
        assert word_tokens(joined) == word_tokens(text) + window
