"""Reference oracle for Sanderson-Croft subsumption.

:func:`reference_subsumption` is the hierarchy builder's pair loop as it
stood before the bitset rewrite, kept verbatim: co-occurrence by set
intersection, and the edge validator asked about every pair that passes
the df caps, before the ``P(x | y)`` test.  Hypothesis compares the
production :func:`~repro.core.subsumption.build_subsumption_hierarchy`
against it on random document sets, thresholds, df caps and seeded pure
validators, and checks that production asks the validator only about
pairs that pass every arithmetic test.
"""

from __future__ import annotations

import hashlib

from hypothesis import given, settings, strategies as st

from repro.core.subsumption import SubsumptionHierarchy, build_subsumption_hierarchy

NAMES = ["animal", "canine", "dog", "cat", "pet", "wolf", "fox", "zoo", "vet"]


def reference_subsumption(
    terms, doc_sets, threshold, max_df_ratio, max_parent_df, edge_validator
):
    present = [t for t in terms if doc_sets.get(t)]
    hierarchy = SubsumptionHierarchy(
        parents={t: None for t in present},
        children={t: [] for t in present},
    )
    for y in present:
        docs_y = doc_sets[y]
        best_parent = None
        best_df = None
        for x in present:
            if x == y:
                continue
            docs_x = doc_sets[x]
            if max_parent_df is not None and len(docs_x) > max_parent_df:
                continue
            shared = len(doc_sets[x] & doc_sets[y])
            p_x_given_y = shared / len(docs_y)
            p_y_given_x = shared / len(docs_x)
            if max_df_ratio is not None and len(docs_x) > max_df_ratio * len(docs_y):
                continue
            if edge_validator is not None and not edge_validator(y, x):
                continue
            if p_x_given_y >= threshold and p_y_given_x < 1.0:
                if best_df is None or len(docs_x) < best_df:
                    best_parent = x
                    best_df = len(docs_x)
        if best_parent is not None and not _creates_cycle(
            hierarchy.parents, y, best_parent
        ):
            hierarchy.parents[y] = best_parent
            hierarchy.children[best_parent].append(y)
    for kids in hierarchy.children.values():
        kids.sort()
    return hierarchy


def _creates_cycle(parents, child, candidate_parent):
    current = candidate_parent
    while current is not None:
        if current == child:
            return True
        current = parents.get(current)
    return False


def seeded_validator(seed):
    """A pure edge validator: a fixed pseudo-random verdict per pair."""
    if seed is None:
        return None

    def validator(child, parent):
        digest = hashlib.sha256(f"{seed}:{child}:{parent}".encode()).digest()
        return digest[0] % 3 != 0

    return validator


@st.composite
def corpora(draw):
    """Terms and doc sets; a small pool of sets makes identical sets common."""
    terms = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=8, unique=True))
    pool = draw(
        st.lists(
            st.frozensets(st.integers(0, 11), max_size=12), min_size=1, max_size=6
        )
    )
    doc_sets = {}
    for term in terms:
        choice = draw(st.one_of(st.none(), st.sampled_from(pool)))
        if choice is not None:  # None: the term has no doc-set entry at all
            doc_sets[term] = set(choice)
    return terms, doc_sets


thresholds = st.one_of(
    st.sampled_from([0.5, 2 / 3, 0.75, 0.8, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)
ratios = st.one_of(st.none(), st.sampled_from([1.0, 1.5, 2.0, 3.0, 30.0]))
parent_caps = st.one_of(st.none(), st.integers(0, 12))
seeds = st.one_of(st.none(), st.integers(0, 1_000))


@settings(max_examples=300, deadline=None)
@given(corpora(), thresholds, ratios, parent_caps, seeds)
def test_production_matches_the_reference(
    corpus, threshold, max_df_ratio, max_parent_df, seed
):
    terms, doc_sets = corpus
    validator = seeded_validator(seed)
    expected = reference_subsumption(
        terms, doc_sets, threshold, max_df_ratio, max_parent_df, validator
    )
    actual = build_subsumption_hierarchy(
        terms,
        doc_sets,
        threshold=threshold,
        max_df_ratio=max_df_ratio,
        max_parent_df=max_parent_df,
        edge_validator=validator,
    )
    assert actual.parents == expected.parents
    assert actual.children == expected.children


@settings(max_examples=300, deadline=None)
@given(corpora(), thresholds, ratios, parent_caps, st.integers(0, 1_000))
def test_validator_is_asked_only_about_passing_pairs(
    corpus, threshold, max_df_ratio, max_parent_df, seed
):
    terms, doc_sets = corpus
    verdict = seeded_validator(seed)
    asked = []

    def recording(child, parent):
        asked.append((child, parent))
        return verdict(child, parent)

    build_subsumption_hierarchy(
        terms,
        doc_sets,
        threshold=threshold,
        max_df_ratio=max_df_ratio,
        max_parent_df=max_parent_df,
        edge_validator=recording,
    )
    for child, parent in asked:
        docs_y, docs_x = doc_sets[child], doc_sets[parent]
        shared = len(docs_x & docs_y)
        assert child != parent
        assert shared / len(docs_y) >= threshold
        assert shared / len(docs_x) < 1.0
        assert max_parent_df is None or len(docs_x) <= max_parent_df
        assert max_df_ratio is None or len(docs_x) <= max_df_ratio * len(docs_y)
