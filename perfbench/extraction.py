"""The extraction workloads: snb-batch and snb-stream.

Each measured unit starts from freshly built substrates and a freshly
built pipeline, so the in-process resource caches are cold and no
persistent cache is attached: the unit pays for every resource query,
as the paper's Section V-D efficiency study does.
"""

from __future__ import annotations

import shutil
import tempfile

from common import (
    OUTPUT_DIR,
    Outcome,
    cpu_seconds,
    digest_key,
    log,
    median,
    now,
    peak_rss_mb,
    result_digest,
    tail,
)
from layers import (
    EXTRACTORS,
    MEMBERS,
    PER_LAYER,
    instrument_pipeline,
    pipeline_layer_metrics,
)
from spans import SpanRecorder, check_wrapped

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: A run measures ``max(1, seconds // unit_s)`` whole units, so the number
#: of units depends on ``--seconds`` only, never on how fast the machine
#: happened to be.  A snb-batch unit takes 5-15 s on a shared 2-CPU
#: machine, depending on its speed, so a 30 s run measures three and
#: reports their median; a snb-stream cycle (six appends and a restore)
#: takes 6-20 s.
#:
#: ``parallel_workers``: the traced snb-batch run repeats its traced unit
#: on a thread pool of this many workers, for the ``parallel`` layer.
PARAMS = {
    "snb-batch": {
        "dataset": "SNB",
        "scale": 0.05,
        "workers": 1,
        "parallel_workers": 2,
        "unit_s": 10,
    },
    "snb-stream": {
        "dataset": "SNB",
        "scale": 0.05,
        "workers": 1,
        "archive_docs": 450,
        "batch_docs": 50,
        "batches": 6,
        "unit_s": 30,
    },
}

#: The self-test's shrunken inputs (same code paths, seconds not minutes).
TINY_PARAMS = {
    "snb-batch": {
        "dataset": "SNB",
        "scale": 0.01,
        "workers": 1,
        "parallel_workers": 2,
        "unit_s": 0.5,
    },
    "snb-stream": {
        "dataset": "SNB",
        "scale": 0.01,
        "workers": 1,
        "archive_docs": 90,
        "batch_docs": 10,
        "batches": 6,
        "unit_s": 1,
    },
}


def unit_count(seconds: float, params: dict) -> int:
    return max(1, int(seconds // params["unit_s"]))


def _config(seed: int, params: dict):
    from repro.config import ParallelConfig, ReproConfig

    return ReproConfig(
        seed=seed,
        scale=params["scale"],
        parallel=ParallelConfig(workers=params["workers"]),
    )


def _generate(seed: int, params: dict):
    """World, substrates and corpus, generated from the seed.

    The program memoizes worlds and corpora per process; both memos are
    emptied first so that every set-up pays the full generation cost.
    """
    from repro.builder import FacetPipelineBuilder
    from repro.corpus import build_corpus, datasets
    from repro.kb import world as world_module

    for memo in (getattr(world_module, "_WORLD_CACHE", None), getattr(datasets, "_CACHE", None)):
        if memo is not None:
            memo.clear()
    config = _config(seed, params)
    builder = FacetPipelineBuilder(config)
    corpus = build_corpus(params["dataset"], config, world=builder.world)
    return config, builder.world, list(corpus.documents)


def _fresh_pipeline(config, world):
    """A pipeline over new substrates: every cache starts empty."""
    from repro.builder import FacetPipelineBuilder

    return FacetPipelineBuilder(config, world=world).build()


def _check_pinned(outcome: Outcome, digests: dict, key: str, digest: str) -> None:
    pinned = digests.get(key)
    if pinned is not None:
        outcome.check(digest == pinned, f"{key}: digest {digest} != pinned {pinned}")


def _vd_table(layer: dict[str, float], documents: int) -> list[str]:
    """The Section V-D breakdown: seconds per document per component."""
    lines = ["Section V-D shape (seconds per document, traced unit):"]
    for extractor in EXTRACTORS:
        per_doc = layer[f"extractors.{extractor}.s"] / documents
        lines.append(f"  extractor {extractor:<14} {per_doc:.6f} s/doc")
    lines.append(f"  {'resource':<24} {'substrate':>12} {'engine':>12}")
    for member in MEMBERS:
        substrate = layer[f"resources.{member}.substrate_s"] / documents
        engine = layer[f"resources.{member}.engine_s"] / documents
        lines.append(f"  {member:<24} {substrate:>12.6f} {engine:>12.6f}")
    composite = layer["resources.composite.engine_s"] / documents
    lines.append(f"  {'composite (union)':<24} {'':>12} {composite:>12.6f}")
    # Covered = the part of the stage wall during which at least one
    # child call was running (worker threads overlap, so it can be less
    # than the children's summed time in the table above).
    extract = layer["annotate.s"] - layer["annotate.other_s"]
    resources = layer["contextualize.s"] - layer["contextualize.other_s"]
    lines += [
        "Stage walls (s) = covered by traced child calls + remainder:",
        f"  annotate      {layer['annotate.s']:.4f} = extractors {extract:.4f}"
        f" + other {layer['annotate.other_s']:.4f}",
        f"  contextualize {layer['contextualize.s']:.4f} = resources {resources:.4f}"
        f" + other {layer['contextualize.other_s']:.4f}",
        f"  selection     {layer['selection.s']:.4f}",
        f"  hierarchy     {layer['hierarchy.s']:.4f}",
    ]
    return lines


def _busy_share(layer: dict[str, float], workers: int) -> float:
    """Extractor and resource busy time / (stage walls x workers)."""
    stage_wall = layer["annotate.s"] + layer["contextualize.s"]
    # Time a resource call spent waiting on another thread's identical
    # query is not work.
    busy = layer["_busy_s"] - layer.get("resources.composite.coalesce_wait_s", 0.0)
    return busy / (stage_wall * workers) if stage_wall else 0.0


def _set_layer_metrics(
    outcome: Outcome, layer: dict[str, float], workers: int, cpu: float
) -> None:
    layer.setdefault("parallel.busy_share", _busy_share(layer, workers))
    del layer["_busy_s"]
    layer["cpu_s"] = cpu
    units = dict(PER_LAYER)
    for name, value in layer.items():
        outcome.metric(name, value, units[name])


def _resource_stats(layer: dict[str, float], after, before=None) -> None:
    """Composite engine counters (``ResourceStats``) over the traced unit."""
    hits = after.hits - (before.hits if before else 0)
    queries = after.queries - (before.queries if before else 0)
    layer["resources.composite.hit_ratio"] = hits / queries if queries else 0.0
    layer["resources.composite.coalesced_hits"] = float(
        after.coalesced_hits - (before.coalesced_hits if before else 0)
    )
    layer["resources.composite.coalesce_wait_s"] = after.coalesce_wait_seconds - (
        before.coalesce_wait_seconds if before else 0.0
    )


def _parallel_layer(outcome: Outcome, layer: dict[str, float], name: str,
                    seed: int, params: dict, world, documents,
                    serial_wall: float, serial_digest: str) -> None:
    """The traced unit again on a thread pool: ``parallel.*`` and the
    composite engine's coalescing, which only a pool exercises.

    The pool must give the serial digest.
    """
    workers = params["parallel_workers"]
    config = _config(seed, dict(params, workers=workers))
    pipeline = _fresh_pipeline(config, world)
    recorder = SpanRecorder(f"{name}-{seed}-parallel")
    instrument_pipeline(recorder)
    try:
        start = now()
        result = pipeline.run(documents)
        wall = now() - start
    finally:
        recorder.restore()
    digest = result_digest(result.facet_terms, result.hierarchies)
    outcome.check(
        digest == serial_digest,
        f"{name}: {workers}-worker digest {digest} != serial digest {serial_digest}",
    )
    pooled = pipeline_layer_metrics(recorder.summary())
    (stats,) = result.resource_stats.values()
    _resource_stats(pooled, stats)
    layer["parallel.busy_share"] = _busy_share(pooled, workers)
    layer["parallel.speedup"] = serial_wall / wall
    for key in ("coalesced_hits", "coalesce_wait_s"):
        layer[f"resources.composite.{key}"] = pooled[f"resources.composite.{key}"]
    outcome.report_lines.append(
        f"{workers}-worker thread pool: traced unit {wall:.2f}s against "
        f"{serial_wall:.2f}s serial; busy share {layer['parallel.busy_share']:.3f}"
    )


def run_extract(name: str, seed: int, seconds: float, trace: bool,
                params: dict, digests: dict) -> Outcome:
    """snb-batch: serial runs of the full pipeline over the corpus.

    The traced run also repeats its traced unit on a thread pool
    (:func:`_parallel_layer`).
    """
    outcome = Outcome()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = now()
        config, world, documents = _generate(seed, params)
        setup_times.append(now() - start)
    log(f"{name}: {len(documents)} docs, setup {median(setup_times):.2f}s")

    def unit():
        pipeline = _fresh_pipeline(config, world)
        cpu0 = cpu_seconds()
        start = now()
        result = pipeline.run(documents)
        return result, now() - start, cpu_seconds() - cpu0

    walls: list[float] = []
    digests_seen: list[str] = []
    if trace:
        base, base_wall, base_cpu = unit()
        digests_seen.append(result_digest(base.facet_terms, base.hierarchies))
        recorder = SpanRecorder(f"{name}-{seed}")
        instrument_pipeline(recorder)
        try:
            result, wall, _cpu = unit()
        finally:
            recorder.restore()
        walls.append(wall)
        digests_seen.append(result_digest(result.facet_terms, result.hierarchies))
        layer = pipeline_layer_metrics(recorder.summary())
        (stats,) = result.resource_stats.values()
        _resource_stats(layer, stats)
        layer["trace.overhead_share"] = wall / base_wall - 1.0
        outcome.report_lines += _vd_table(layer, len(documents))
        check_wrapped(outcome, recorder)
        spans = recorder.records()
        _parallel_layer(outcome, layer, name, seed, params, world, documents,
                        wall, digests_seen[-1])
        _set_layer_metrics(outcome, layer, params["workers"], base_cpu)
        outcome.notes["spans"] = spans
        outcome.notes["untraced_wall_s"] = base_wall
    else:
        for _ in range(unit_count(seconds, params)):
            result, wall, _cpu = unit()
            walls.append(wall)
            digests_seen.append(result_digest(result.facet_terms, result.hierarchies))
            log(f"{name}: unit {len(walls)} {wall:.2f}s")
    rss = peak_rss_mb()

    digest = digests_seen[0]
    for other in digests_seen[1:]:
        outcome.check(other == digest, f"{name}: repeated unit digest {other} != {digest}")
    outcome.check(
        bool(result.facet_terms) and bool(result.hierarchies),
        f"{name}: empty facet result",
    )
    _check_pinned(outcome, digests, digest_key("batch", params, seed), digest)
    outcome.notes.update(digest=digest, unit_walls_s=walls, setup_s=setup_times)

    if not trace:
        outcome.metric("setup_s", median(setup_times), "s")
        outcome.metric("peak_rss_mb", rss, "MiB")
        outcome.metric("throughput_per_s", len(documents) / median(walls), "1/s")
        outcome.metric("latency_p50_ms", median(walls) * 1000.0, "ms")
        label, value = tail(walls)
        outcome.notes["tail"] = f"{label} of {len(walls)} pipeline runs: {value * 1000.0:.1f} ms"
    return outcome


def _stream_setup(seed: int, params: dict, directory: str):
    """Generate the corpus and ingest the archive into a live stream
    extractor that checkpoints every batch into ``directory``."""
    from repro.incremental import CheckpointStore, IncrementalExtractor

    config, world, documents = _generate(seed, params)
    pipeline = _fresh_pipeline(config, world)
    extractor = IncrementalExtractor(pipeline, checkpoint=CheckpointStore(directory))
    extractor.append(documents[: params["archive_docs"]], batch_id="archive")
    return config, world, documents, pipeline, extractor


def run_stream(name: str, seed: int, seconds: float, trace: bool,
               params: dict, digests: dict) -> Outcome:
    """snb-stream: append daily batches to a live archive, then restore.

    Every cycle sets up its own archive (the appends change the state),
    so ``setup_s`` is the median over the run's cycles.
    """
    from repro.incremental import CheckpointStore, IncrementalExtractor

    outcome = Outcome()
    OUTPUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="stream-", dir=OUTPUT_DIR)
    archive = params["archive_docs"]
    size = params["batch_docs"]
    appended = size * params["batches"]
    setup_times: list[float] = []

    def cycle(index: int, recorder: SpanRecorder | None):
        run_dir = f"{scratch}/run-{index}"
        start = now()
        config, world, documents, pipeline, live = _stream_setup(seed, params, run_dir)
        (resource,) = pipeline.resources
        stats_before = resource.cache_stats
        setup_times.append(now() - start)
        batches = [
            documents[archive + i * size: archive + (i + 1) * size]
            for i in range(params["batches"])
        ]
        fresh = _fresh_pipeline(config, world)
        if recorder is not None:
            instrument_pipeline(recorder)
        try:
            cpu0 = cpu_seconds()
            times, reports = [], []
            for number, batch in enumerate(batches):
                start = now()
                reports.append(live.append(batch, batch_id=f"day-{number}"))
                times.append(now() - start)
            start = now()
            restored = IncrementalExtractor.restore(fresh, CheckpointStore(run_dir))
            restore_s = now() - start
            cpu = cpu_seconds() - cpu0
            stats = (stats_before, resource.cache_stats)
        finally:
            if recorder is not None:
                recorder.restore()
        log(f"{name}: cycle {index} appends {sum(times):.2f}s restore {restore_s:.2f}s")
        return {
            "live": live, "restored": restored, "times": times,
            "restore_s": restore_s, "reports": reports, "cpu": cpu, "stats": stats,
            "config": config, "world": world, "documents": documents,
        }

    try:
        results = []
        if trace:
            results.append(cycle(1, None))
            recorder = SpanRecorder(f"{name}-{seed}")
            results.append(cycle(2, recorder))
        else:
            for index in range(unit_count(seconds, params)):
                results.append(cycle(index + 1, None))
        rss = peak_rss_mb()

        last = results[-1]
        digest = result_digest(last["live"].facet_terms, last["live"].hierarchies)
        for result in results:
            for role in ("live", "restored"):
                state = result[role]
                outcome.check(
                    result_digest(state.facet_terms, state.hierarchies) == digest,
                    f"{name}: {role} state of a cycle differs from the final state",
                )
        union = last["documents"][: archive + appended]
        reference = _fresh_pipeline(last["config"], last["world"]).run(union)
        expected = result_digest(reference.facet_terms, reference.hierarchies)
        outcome.check(
            digest == expected,
            f"{name}: stream digest {digest} != full-run digest {expected}",
        )
        _check_pinned(outcome, digests, digest_key("stream", params, seed), digest)
        outcome.notes.update(digest=digest, setup_s=setup_times)

        if trace:
            base, traced = results
            base_wall = sum(base["times"]) + base["restore_s"]
            traced_wall = sum(traced["times"]) + traced["restore_s"]
            layer = pipeline_layer_metrics(recorder.summary())
            layer["selection.facet_terms"] = float(len(traced["live"].facet_terms))
            layer["incremental.restore_s"] = traced["restore_s"]
            layer["incremental.dirty_docs"] = float(
                sum(r.dirty_documents for r in traced["reports"])
            )
            layer["incremental.touched_terms"] = float(
                sum(r.touched_terms for r in traced["reports"])
            )
            before, after = traced["stats"]
            _resource_stats(layer, after, before)
            layer["trace.overhead_share"] = traced_wall / base_wall - 1.0
            _set_layer_metrics(outcome, layer, params["workers"], base["cpu"])
            outcome.report_lines += _vd_table(layer, appended)
            check_wrapped(outcome, recorder)
            outcome.notes["spans"] = recorder.records()
        else:
            appends = [t for result in results for t in result["times"]]
            phase = sum(sum(r["times"]) + r["restore_s"] for r in results)
            outcome.metric("setup_s", median(setup_times), "s")
            outcome.metric("peak_rss_mb", rss, "MiB")
            outcome.metric("throughput_per_s", appended * len(results) / phase, "1/s")
            outcome.metric("latency_p50_ms", median(appends) * 1000.0, "ms")
            label, value = tail(appends)
            outcome.notes["tail"] = (
                f"{label} of {len(appends)} append+checkpoint calls: {value * 1000.0:.1f} ms"
            )
            outcome.notes["restore_s"] = [r["restore_s"] for r in results]
        return outcome
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
