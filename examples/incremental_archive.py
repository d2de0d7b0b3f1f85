"""Incremental archive maintenance (the Section V-D deployment loop).

A news archive ingests a new day of stories at a time; term and context
extraction run only on the new batch (resources memoize per-term
answers), and the facet hierarchies refresh from the accumulated
statistics — identical to a from-scratch run over the whole archive.

Run:  python examples/incremental_archive.py
"""

from __future__ import annotations

from repro import FacetPipelineBuilder
from repro.config import ReproConfig
from repro.corpus import build_snyt


def main() -> None:
    config = ReproConfig(scale=0.3)
    builder = FacetPipelineBuilder(config)
    corpus = build_snyt(config)
    days = [corpus.documents[i::3] for i in range(3)]  # three "days"

    archive = builder.build_incremental()
    for day, batch in enumerate(days, start=1):
        report = archive.append(batch, batch_id=f"day-{day}")
        print(
            f"day {day}: +{report.documents} stories in {report.seconds:.2f}s "
            f"({report.dirty_documents} older stories re-expanded); "
            f"archive={archive.document_count}"
        )
        print("  top facets:", ", ".join(archive.facet_term_strings()[:8]))


if __name__ == "__main__":
    main()
