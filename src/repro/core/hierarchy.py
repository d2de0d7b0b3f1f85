"""Facet hierarchy construction over the selected facet terms.

The selected terms are organized with Sanderson-Croft subsumption over
co-occurrence in the *contextualized* database; each root of the
resulting forest becomes one browsing facet, and every node is populated
with the documents whose expanded term set contains the node's term —
the OLAP-style structure the user study browses.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from ..errors import HierarchyError
from ..observability.context import current_metrics
from ..text.tokenizer import normalize_term
from .contextualize import ContextualizedDatabase
from .selection import FacetTermCandidate
from .subsumption import SubsumptionHierarchy, build_subsumption_hierarchy


@dataclass
class FacetNode:
    """One node of a facet hierarchy."""

    term: str
    children: list["FacetNode"] = field(default_factory=list)
    doc_ids: set[str] = field(default_factory=set)

    @property
    def count(self) -> int:
        """Number of documents at this node (inclusive of descendants)."""
        return len(self.doc_ids)

    def walk(self):
        """Pre-order traversal."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, term: str) -> "FacetNode | None":
        """Locate a descendant node by (normalized) term."""
        key = normalize_term(term)
        for node in self.walk():
            if normalize_term(node.term) == key:
                return node
        return None


@dataclass
class FacetHierarchy:
    """One facet: a named root plus its tree."""

    root: FacetNode

    @property
    def name(self) -> str:
        return self.root.term

    @property
    def size(self) -> int:
        """Number of nodes in the facet tree."""
        return sum(1 for _ in self.root.walk())

    def terms(self) -> list[str]:
        return [node.term for node in self.root.walk()]


#: Default parent/child coverage ratio cap for facet trees (see
#: :func:`repro.core.subsumption.build_subsumption_hierarchy`).
DEFAULT_MAX_DF_RATIO = 30.0

#: Terms covering more than this fraction of the collection cannot act
#: as hierarchy *parents*: a facet node matching nearly every document
#: would trivially adopt every orphan term under subsumption,
#: collapsing the forest into one tree.  Such terms stay in the forest
#: as stand-alone roots.
DEFAULT_MAX_COVERAGE = 0.75


def build_facet_hierarchies(
    candidates: list[FacetTermCandidate],
    database: ContextualizedDatabase,
    threshold: float = 0.8,
    min_docs: int = 1,
    max_df_ratio: float | None = DEFAULT_MAX_DF_RATIO,
    max_coverage: float = DEFAULT_MAX_COVERAGE,
    edge_validator: Callable[[str, str], bool] | None = None,
) -> list[FacetHierarchy]:
    """Group facet terms into per-facet trees and populate them.

    Parameters
    ----------
    candidates:
        Output of :func:`repro.core.selection.select_facet_terms`.
    database:
        The contextualized database (co-occurrence source and document
        population).
    threshold:
        Subsumption threshold.
    min_docs:
        Nodes covering fewer documents are dropped.
    """
    if min_docs < 1:
        raise HierarchyError(f"min_docs must be >= 1, got {min_docs}")
    terms = [normalize_term(c.term) for c in candidates]
    doc_sets: dict[str, set[str]] = {}
    columns = database.columns
    if columns is not None and len(columns) == len(database.expanded_sets):
        # Columnar fast path: invert the expanded id columns for just
        # the candidate ids (one pass) instead of scanning every
        # document's string set once per candidate.  The id rows hold
        # exactly the expanded_sets members, so the doc sets are equal.
        id_of = columns.interner.id_of
        candidate_ids = {
            term_id
            # order: building a set from a set is order-insensitive
            for term_id in (id_of(term) for term in set(terms))
            if term_id is not None
        }
        postings = columns.postings(candidate_ids)
        doc_ids = columns.doc_ids
        for term in terms:
            term_id = id_of(term)
            posting = postings.get(term_id) if term_id is not None else None
            docs = (
                {doc_ids[index] for index in posting}
                if posting is not None
                else set()
            )
            if len(docs) >= min_docs:
                doc_sets[term] = docs
    else:
        for term in terms:
            docs = {
                doc_id
                for doc_id, expanded in database.expanded_sets.items()
                if term in expanded
            }
            if len(docs) >= min_docs:
                doc_sets[term] = docs
    return build_hierarchies_from_doc_sets(
        terms,
        doc_sets,
        len(database.annotated.documents),
        threshold=threshold,
        max_df_ratio=max_df_ratio,
        max_coverage=max_coverage,
        edge_validator=edge_validator,
    )


def build_hierarchies_from_doc_sets(
    terms: list[str],
    doc_sets: dict[str, set[str]],
    document_count: int,
    threshold: float = 0.8,
    max_df_ratio: float | None = DEFAULT_MAX_DF_RATIO,
    max_coverage: float = DEFAULT_MAX_COVERAGE,
    edge_validator: Callable[[str, str], bool] | None = None,
) -> list[FacetHierarchy]:
    """Build facet trees from precomputed per-term document sets.

    The shared back half of :func:`build_facet_hierarchies`: the batch
    pipeline scans ``expanded_sets`` to produce ``doc_sets``, while the
    incremental pipeline reads them straight from its postings index —
    both then run this exact code, so the trees cannot diverge.
    """
    if not 0 < max_coverage <= 1:
        raise HierarchyError(f"max_coverage must be in (0, 1], got {max_coverage}")
    max_parent_df = int(max_coverage * max(document_count, 1))
    usable = [t for t in terms if t in doc_sets]
    subsumption = build_subsumption_hierarchy(
        usable,
        doc_sets,
        threshold=threshold,
        max_df_ratio=max_df_ratio,
        max_parent_df=max_parent_df,
        edge_validator=edge_validator,
    )
    hierarchies = hierarchies_from_subsumption(subsumption, doc_sets)
    metrics = current_metrics()
    if metrics is not None:
        metrics.increment("hierarchy.candidate_terms", len(terms))
        metrics.increment("hierarchy.usable_terms", len(usable))
        metrics.increment("hierarchy.facets", len(hierarchies))
        metrics.increment(
            "hierarchy.nodes", sum(facet.size for facet in hierarchies)
        )
    return hierarchies


def hierarchies_from_subsumption(
    subsumption: SubsumptionHierarchy,
    doc_sets: dict[str, set[str]],
) -> list[FacetHierarchy]:
    """Materialize :class:`FacetHierarchy` trees from a subsumption forest."""

    def build_node(term: str) -> FacetNode:
        node = FacetNode(term=term, doc_ids=set(doc_sets.get(term, set())))
        for child_term in subsumption.children_of(term):
            child = build_node(child_term)
            node.children.append(child)
            node.doc_ids.update(child.doc_ids)
        node.children.sort(key=lambda n: (-n.count, n.term))
        return node

    facets = [FacetHierarchy(root=build_node(root)) for root in subsumption.roots]
    facets.sort(key=lambda f: (-f.root.count, f.name))
    return facets
