"""The paper's core contribution: unsupervised facet-term extraction.

Pipeline (Section IV):

1. :mod:`repro.core.annotate` — identify important terms per document
   with one or more extractors (Figure 1);
2. :mod:`repro.core.contextualize` — expand each document with context
   terms from external resources (Figure 2);
3. :mod:`repro.core.selection` — compare term distributions between the
   original and contextualized databases with the shift functions
   (:mod:`repro.core.shifts`) and Dunning's log-likelihood statistic
   (:mod:`repro.core.likelihood`) to select facet terms (Figure 3);
4. :mod:`repro.core.subsumption` + :mod:`repro.core.hierarchy` — build
   per-facet hierarchies with Sanderson–Croft subsumption;
5. :mod:`repro.core.interface` — the OLAP-style faceted browsing layer.

:class:`repro.core.pipeline.FacetExtractor` ties the steps together.
"""

from .annotate import AnnotatedDatabase, annotate_database
from .contextualize import ContextualizedDatabase, contextualize
from .distributional import divergence_scores, kl_divergence, skew_divergence
from .dynamic import DynamicFaceter
from .export import from_dict, to_dict, to_flat_rows, to_json, to_text_tree
from .persistence import load_expansions, save_expansions
from .evidence import LinkEvidence
from .shifts import frequency_shift, rank_shift
from .likelihood import log_likelihood_ratio
from .selection import FacetTermCandidate, select_facet_terms
from .subsumption import SubsumptionHierarchy, build_subsumption_hierarchy
from .hierarchy import FacetHierarchy, FacetNode, build_facet_hierarchies
from .pipeline import FacetExtractionResult, FacetExtractor
from .interface import FacetedInterface

__all__ = [
    "AnnotatedDatabase",
    "annotate_database",
    "ContextualizedDatabase",
    "contextualize",
    "divergence_scores",
    "DynamicFaceter",
    "to_dict",
    "to_json",
    "to_text_tree",
    "to_flat_rows",
    "from_dict",
    "save_expansions",
    "load_expansions",
    "kl_divergence",
    "skew_divergence",
    "LinkEvidence",
    "frequency_shift",
    "rank_shift",
    "log_likelihood_ratio",
    "FacetTermCandidate",
    "select_facet_terms",
    "SubsumptionHierarchy",
    "build_subsumption_hierarchy",
    "FacetHierarchy",
    "FacetNode",
    "build_facet_hierarchies",
    "FacetExtractionResult",
    "FacetExtractor",
    "FacetedInterface",
]
