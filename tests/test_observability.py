"""Tests for repro.observability: tracing, metrics, logging, integration."""

from __future__ import annotations

import io
import json
import logging
import pickle
import threading

import pytest

from repro.observability import (
    DISABLED,
    NULL_SPAN,
    NULL_TRACER,
    MetricsRegistry,
    Observability,
    ResourceStats,
    Span,
    SpanTimings,
    Tracer,
    configure_logging,
    context,
    get_logger,
    load_trace,
    render_spans,
    trace_jsonl_lines,
)
from repro.observability.metrics import Histogram, TimerStat


class TestSpan:
    def test_duration_and_counters(self):
        span = Span(name="work", start=10.0, end=10.5)
        assert span.duration == pytest.approx(0.5)
        span.add("items")
        span.add("items", 2)
        assert span.counters == {"items": 3.0}

    def test_duration_never_negative(self):
        assert Span(name="x", start=5.0, end=4.0).duration == 0.0

    def test_set_tags_chains(self):
        span = Span(name="x")
        assert span.set(a=1).set(b=2) is span
        assert span.tags == {"a": 1, "b": 2}

    def test_walk_preorder(self):
        root = Span(name="root")
        a, b = Span(name="a"), Span(name="b")
        a.children.append(Span(name="a1"))
        root.children.extend([a, b])
        assert [s.name for s in root.walk()] == ["root", "a", "a1", "b"]


class TestTracer:
    def test_nesting_via_context(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            assert tracer.current() is outer
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
        assert tracer.current() is None
        assert [s.name for s in tracer.roots] == ["outer"]
        assert [s.name for s in tracer.roots[0].children] == ["inner"]

    def test_error_status_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("nope")
        span = tracer.roots[0]
        assert span.status == "error"
        assert span.end >= span.start

    def test_attach_explicit_parent(self):
        tracer = Tracer()
        parent = Span(name="parent")
        tracer.attach(parent)
        child = Span(name="child")
        tracer.attach(child, parent=parent)
        assert parent.children == [child]
        assert tracer.roots == [parent]

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("pipeline", documents=3) as pipeline:
            pipeline.add("facets", 2)
            with tracer.span("stage:annotation"):
                pass
            with tracer.span("stage:selection"):
                pass
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(path))

        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        records = [json.loads(line) for line in lines]
        assert records[0]["parent"] is None
        assert all(r["parent"] == records[0]["id"] for r in records[1:])

        roots = load_trace(str(path))
        assert len(roots) == 1
        assert roots[0].name == "pipeline"
        assert roots[0].tags == {"documents": 3}
        assert roots[0].counters == {"facets": 2.0}
        assert [c.name for c in roots[0].children] == [
            "stage:annotation",
            "stage:selection",
        ]

    def test_render_tree(self):
        root = Span(name="root", start=0.0, end=1.0)
        root.children = [Span(name=f"child-{i}") for i in range(4)]
        rendered = render_spans([root])
        assert "root" in rendered
        assert "├─ child-0" in rendered
        assert "└─ child-3" in rendered

    def test_render_truncates_children(self):
        root = Span(name="root")
        root.children = [Span(name=f"child-{i}") for i in range(10)]
        rendered = render_spans([root], max_children=2)
        assert "child-1" in rendered
        assert "child-5" not in rendered
        assert "8 more span(s)" in rendered

    def test_jsonl_lines_empty_forest(self):
        assert list(trace_jsonl_lines([])) == []


class TestNullTracer:
    def test_all_noops(self, tmp_path):
        with NULL_TRACER.span("anything", tag=1) as span:
            assert span is NULL_SPAN
            assert span.set(a=1) is NULL_SPAN
            span.add("counter")
        assert NULL_TRACER.current() is None
        assert NULL_TRACER.roots == []
        assert NULL_TRACER.render() == ""
        path = tmp_path / "never.jsonl"
        NULL_TRACER.write_jsonl(str(path))
        assert not path.exists()
        assert not NULL_TRACER.enabled


class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        registry = MetricsRegistry()
        registry.increment("hits")
        registry.increment("hits", 4)
        registry.gauge("vocab", 100)
        registry.gauge("vocab", 250)
        assert registry.counter_value("hits") == 5.0
        assert registry.counter_value("absent") == 0.0
        assert registry.gauges == {"vocab": 250.0}

    def test_timers(self):
        registry = MetricsRegistry()
        registry.record_time("work", 0.5)
        registry.record_time("work", 1.5)
        timer = registry.timer_value("work")
        assert timer.count == 2
        assert timer.total == pytest.approx(2.0)
        assert timer.mean == pytest.approx(1.0)
        assert timer.min == pytest.approx(0.5)
        assert timer.max == pytest.approx(1.5)
        assert registry.timer_value("absent") is None

    def test_time_context_manager(self):
        registry = MetricsRegistry()
        with registry.time("block"):
            pass
        timer = registry.timer_value("block")
        assert timer is not None and timer.count == 1

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        registry.observe("lat", 0.0005)
        registry.observe("lat", 100.0)
        histogram = registry.histograms["lat"]
        assert histogram.count == 2
        assert histogram.buckets[0] == 1  # below the first bound
        assert histogram.buckets[-1] == 1  # overflow bucket

    def test_merge_is_deterministic_and_commutative_for_counters(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.increment("n", 2)
        b.increment("n", 3)
        a.record_time("t", 1.0)
        b.record_time("t", 3.0)
        a.merge(b)
        assert a.counter_value("n") == 5.0
        timer = a.timer_value("t")
        assert timer.count == 2 and timer.total == pytest.approx(4.0)

    def test_merge_gauges_last_write_wins(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g", 1)
        b.gauge("g", 2)
        a.merge(b)
        assert a.gauges == {"g": 2.0}

    def test_pickle_round_trip(self):
        registry = MetricsRegistry()
        registry.increment("n", 7)
        registry.record_time("t", 0.25)
        registry.observe("h", 0.1)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.counter_value("n") == 7.0
        assert clone.timer_value("t").count == 1
        clone.increment("n")  # lock restored: still usable
        assert clone.counter_value("n") == 8.0

    def test_as_dict_and_format_table(self):
        registry = MetricsRegistry()
        registry.increment("resource.google.misses", 3)
        registry.record_time("stage.selection.seconds", 0.01)
        dump = registry.as_dict()
        assert dump["counters"] == {"resource.google.misses": 3.0}
        table = registry.format_table()
        assert "resource.google.misses" in table
        assert "stage.selection.seconds" in table

    def test_timer_stat_combine(self):
        a = TimerStat()
        a.record(1.0)
        b = TimerStat()
        b.record(3.0)
        a.combine(b)
        assert a.count == 2
        assert a.min == pytest.approx(1.0)
        assert a.max == pytest.approx(3.0)

    def test_histogram_combine(self):
        a = Histogram.empty([1.0, 2.0])
        a.observe(0.5)
        b = Histogram.empty([1.0, 2.0])
        b.observe(5.0)
        a.combine(b)
        assert a.count == 2
        assert a.buckets == [1, 0, 1]

    def test_histogram_combine_mismatched_bounds(self):
        a = Histogram.empty([1.0, 2.0])
        b = Histogram.empty([0.5])
        b.observe(0.1)
        b.observe(9.0)
        a.combine(b)
        assert a.count == 2
        assert sum(a.buckets) == 2


class TestContext:
    def test_metrics_scoped_to_thread(self):
        registry = MetricsRegistry()
        seen_in_thread = []

        def probe():
            seen_in_thread.append(context.current_metrics())

        with context.use_metrics(registry):
            assert context.current_metrics() is registry
            worker = threading.Thread(target=probe)
            worker.start()
            worker.join()
        assert context.current_metrics() is None
        assert seen_in_thread == [None]

    def test_use_metrics_none_is_passthrough(self):
        with context.use_metrics(None):
            assert context.current_metrics() is None

    def test_span_stack(self):
        outer, inner = Span(name="outer"), Span(name="inner")
        with context.use_span(outer):
            with context.use_span(inner):
                assert context.current_span() is inner
            assert context.current_span() is outer
        assert context.current_span() is None


class TestLogging:
    def test_json_format_parses(self):
        stream = io.StringIO()
        configure_logging(log_format="json", level="INFO", stream=stream)
        try:
            get_logger("repro.test").info("unit.event", items=3, name="x")
            record = json.loads(stream.getvalue().strip())
            assert record["event"] == "unit.event"
            assert record["items"] == 3
            assert record["logger"] == "repro.test"
            assert record["level"] == "INFO"
        finally:
            configure_logging()  # restore default stderr/WARNING handler

    def test_text_format_key_values(self):
        stream = io.StringIO()
        configure_logging(log_format="text", level="INFO", stream=stream)
        try:
            get_logger("repro.test").info("unit.event", items=3)
            line = stream.getvalue()
            assert "unit.event" in line
            assert "items=3" in line
        finally:
            configure_logging()

    def test_default_level_is_warning(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOG_LEVEL", raising=False)
        stream = io.StringIO()
        configure_logging(log_format="text", stream=stream)
        try:
            log = get_logger("repro.test")
            log.info("hidden.event")
            log.warning("visible.event")
            output = stream.getvalue()
            assert "hidden.event" not in output
            assert "visible.event" in output
        finally:
            configure_logging()

    def test_env_level(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_LEVEL", "DEBUG")
        stream = io.StringIO()
        configure_logging(log_format="text", stream=stream)
        try:
            get_logger("repro.test").debug("deep.event")
            assert "deep.event" in stream.getvalue()
        finally:
            monkeypatch.delenv("REPRO_LOG_LEVEL")
            configure_logging()

    def test_rejects_unknown_format_and_level(self):
        with pytest.raises(ValueError):
            configure_logging(log_format="xml")
        with pytest.raises(ValueError):
            configure_logging(level="LOUD")

    def test_get_logger_namespaces_under_repro(self):
        assert get_logger("mymodule").raw.name == "repro.mymodule"
        assert get_logger("repro.core").raw.name == "repro.core"

    def test_configure_is_idempotent(self):
        configure_logging()
        configure_logging()
        root = logging.getLogger("repro")
        assert len(root.handlers) == 1


class TestObservabilityBundle:
    def test_disabled_bundle(self):
        assert DISABLED.tracer is NULL_TRACER
        assert DISABLED.metrics is None
        assert not DISABLED.active
        with DISABLED.collect():
            assert context.current_metrics() is None

    def test_enabled_bundle(self):
        obs = Observability.enabled()
        assert obs.active
        assert isinstance(obs.tracer, Tracer)
        assert isinstance(obs.metrics, MetricsRegistry)
        with obs.collect():
            assert context.current_metrics() is obs.metrics


class TestStatsTypes:
    def test_resource_stats_derived_values(self):
        stats = ResourceStats(memory_hits=3, persistent_hits=1, misses=4)
        assert stats.hits == 4
        assert stats.queries == 8
        assert stats.hit_rate == pytest.approx(0.5)
        assert ResourceStats().hit_rate == 0.0

    def test_span_timings_from_spans(self):
        root = Span(name="pipeline", start=0.0, end=4.0)
        for name, dur in [("annotation", 1.0), ("selection", 0.5)]:
            child = Span(name=f"stage:{name}", start=0.0, end=dur)
            root.children.append(child)
        timings = SpanTimings.from_spans([root])
        assert timings.annotation == pytest.approx(1.0)
        assert timings.selection == pytest.approx(0.5)
        assert timings.contextualization == 0.0
        assert timings.total == pytest.approx(1.5)


@pytest.fixture(scope="module")
def instrumented_run(builder, snyt):
    """One instrumented pipeline run shared by the integration tests."""
    obs = Observability.enabled()
    try:
        builder.with_observability(obs)
        result = builder.build().run(snyt.documents[:40])
    finally:
        builder.with_observability(None)
    return obs, result


class TestPipelineIntegration:
    def test_all_four_stage_spans(self, instrumented_run):
        obs, _ = instrumented_run
        assert len(obs.tracer.roots) == 1
        pipeline = obs.tracer.roots[0]
        assert pipeline.name == "pipeline"
        stage_names = [c.name for c in pipeline.children]
        assert stage_names == [
            "stage:annotation",
            "stage:contextualization",
            "stage:selection",
            "stage:hierarchy",
        ]

    def test_chunk_and_resource_spans_nest(self, instrumented_run):
        obs, _ = instrumented_run
        pipeline = obs.tracer.roots[0]
        contextualization = pipeline.children[1]
        chunks = [c for c in contextualization.children if c.name == "chunk"]
        assert chunks
        resource_spans = [
            s
            for chunk in chunks
            for s in chunk.walk()
            if s.name.startswith("resource:")
        ]
        assert resource_spans

    def test_registry_has_stage_timers_and_resource_counters(
        self, instrumented_run
    ):
        obs, _ = instrumented_run
        for stage in ("annotation", "contextualization", "selection", "hierarchy"):
            timer = obs.metrics.timer_value(f"stage.{stage}.seconds")
            assert timer is not None and timer.total > 0
        counters = obs.metrics.counters
        assert any(name.startswith("resource.") for name in counters)
        assert obs.metrics.counter_value("annotate.documents") == 40

    def test_result_timings_and_resource_stats(self, instrumented_run):
        _, result = instrumented_run
        assert result.timings.total > 0
        assert result.resource_stats
        for stats in result.resource_stats.values():
            assert isinstance(stats, ResourceStats)

    def test_trace_matches_result_timings(self, instrumented_run):
        obs, result = instrumented_run
        recovered = SpanTimings.from_spans(obs.tracer.roots)
        # Span clocks are epoch-based, stage timings perf_counter-based;
        # they agree to within scheduling noise.
        assert recovered.annotation == pytest.approx(
            result.timings.annotation, abs=0.25
        )

    def test_parallel_matches_serial_with_observability(self, builder, snyt):
        from repro.config import ParallelConfig

        documents = snyt.documents[:30]
        serial = builder.build().run(documents)
        obs = Observability.enabled()
        try:
            builder.with_parallel(ParallelConfig(workers=3))
            builder.with_observability(obs)
            parallel = builder.build().run(documents)
        finally:
            builder.with_parallel(ParallelConfig(workers=1))
            builder.with_observability(None)
        assert parallel.facet_term_strings() == serial.facet_term_strings()
        chunk_spans = [
            s
            for root in obs.tracer.roots
            for s in root.walk()
            if s.name == "chunk"
        ]
        assert len(chunk_spans) > 1  # genuinely sharded
        # Contextualization is a single map pass: its chunk spans must
        # be attached in submission order, whatever the scheduling.
        indices = [
            s.tags["index"]
            for s in obs.tracer.roots[0].children[1].children
            if s.name == "chunk"
        ]
        assert indices == sorted(indices)


class TestDeprecationShims:
    """The deprecated aliases are gone; their old names now fail plainly."""

    def test_removed_aliases_are_gone(self, instrumented_run):
        from repro.core import pipeline
        from repro import resources

        _, result = instrumented_run
        for owner, name in (
            (pipeline, "StageTimings"),
            (pipeline, "CacheStats"),
            (resources, "CacheStats"),
            (result, "cache_stats"),
            (result, "interface"),
        ):
            assert not hasattr(owner, name), name

    def test_unknown_attribute_still_raises(self):
        from repro.core import pipeline

        with pytest.raises(AttributeError):
            pipeline.NoSuchThing


class TestKeywordOnlyConfigs:
    def test_repro_config_rejects_positional(self):
        from repro.config import ReproConfig

        with pytest.raises(TypeError):
            ReproConfig(42)

    def test_parallel_config_rejects_positional(self):
        from repro.config import ParallelConfig

        with pytest.raises(TypeError):
            ParallelConfig(4)
