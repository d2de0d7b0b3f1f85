"""EXP-EFF — Section V-D: per-stage throughput, cold vs warm cache.

Paper account: >= 100 docs/s for local term extraction, the Yahoo web
service at 2-3 s/doc is the bottleneck; expansion with local resources
>= 100 docs/s vs ~1 s/doc for Google; selection takes milliseconds and
hierarchy construction a couple of seconds.

On top of the paper's numbers, the second half of the benchmark measures
the paper's "perform term and context extraction offline"
recommendation: contextualization over a remote (simulated-latency)
resource on a 4-worker thread pool, from a cold cache and then replayed
against the warm persistent SQLite cache the cold run filled.  The warm
run must answer from SQLite and finish faster.  An instrumented run
reports the per-stage breakdown from the metrics registry.

Output identity across execution modes is pinned by the golden digests
in ``tests/test_columnar_equivalence.py``, not here.

Besides the human-readable table, the benchmark writes a
machine-readable payload to ``benchmarks/results/efficiency.json`` and
mirrors it to ``BENCH_efficiency.json`` at the repo root
(schema ``repro.bench_efficiency/3``, validated in CI by
``benchmarks/check_bench_json.py efficiency``).
"""

import dataclasses
import pathlib

from repro.corpus.datasets import DatasetName
from repro.corpus import build_corpus
from repro.eval.efficiency import EfficiencyStudy

#: Documents used by the cold- vs warm-cache comparison and the
#: instrumented run (smaller than the per-stage sample).
PARALLEL_SAMPLE = 60

#: Schema tag of the machine-readable payload (bump on layout changes).
JSON_SCHEMA = "repro.bench_efficiency/3"

#: Repo-root mirror of the efficiency payload.
ROOT_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_efficiency.json"


def test_efficiency(benchmark, config, builder, save_result, save_json):
    corpus = build_corpus(DatasetName.SNYT, config)
    sample = corpus.documents[: min(200, len(corpus))]
    study = EfficiencyStudy(config, builder)
    report = benchmark.pedantic(lambda: study.run(sample), rounds=1, iterations=1)

    parallel_sample = corpus.documents[: min(PARALLEL_SAMPLE, len(corpus))]
    parallel_report = study.run_parallel_comparison(parallel_sample, workers=4)
    instrumented = study.run_instrumented(parallel_sample, workers=4)
    save_result(
        "efficiency",
        report.format_summary()
        + "\n\n"
        + parallel_report.format_summary()
        + "\n\n"
        + instrumented.format_summary(),
    )
    save_json(
        "efficiency",
        {
            "schema": JSON_SCHEMA,
            "scale": config.scale,
            "per_stage": dataclasses.asdict(report),
            "parallel": {
                **dataclasses.asdict(parallel_report),
                "warm_speedup": parallel_report.warm_speedup,
            },
            "instrumented": instrumented.as_dict(),
        },
        extra_path=ROOT_JSON,
    )

    assert report.extraction_local_docs_per_s > 100
    assert report.extraction_with_yahoo_s_per_doc > 2.0
    assert report.expansion_local_docs_per_s > 100
    assert report.expansion_with_google_s_per_doc >= 1.0
    assert report.selection_s < 2.0
    assert report.hierarchy_s < 5.0

    # Offline expansion: a warm persistent cache must answer the
    # distinct terms from SQLite and beat the cold run's wall-clock.
    assert parallel_report.warm_persistent_hits > 0
    assert parallel_report.warm_round_trips == 0
    assert parallel_report.warm_s < parallel_report.cold_s

    # The instrumented run sources its breakdown from the metrics
    # registry: every stage timer must be present and the resources must
    # have recorded their cache traffic.
    assert set(instrumented.stage_seconds) == {
        "annotation",
        "contextualization",
        "selection",
        "hierarchy",
    }
    assert all(s > 0 for s in instrumented.stage_seconds.values())
    assert instrumented.resource_counters
    assert any(
        name.endswith(".misses") or name.endswith(".memory_hits")
        for name in instrumented.resource_counters
    )
