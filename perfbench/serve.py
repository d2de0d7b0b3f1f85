"""The snyt-serve workload: browsing requests against the serving layer.

Set-up runs the default pipeline over SNYT and compiles the serving
artifact.  The measured phase sends a browsing mix straight into
``FacetApp`` in this process, one request after another (the ASGI call
``repro serve`` makes per request, without the HTTP bridge), and checks
every reply.  The traced run mounts the same application behind the
HTTP bridge in a thread and drives it with an open loop at a fixed
rate, so the index and render calls can be wrapped.

The route shares come from the Section V-E browsing simulation
(``repro.eval.user_study``); see :func:`derive_mix`.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import os
import random
import shutil
import tempfile
from urllib.parse import quote, unquote, urlencode

from common import (
    DEFAULT_SEED,
    OUTPUT_DIR,
    Outcome,
    cpu_seconds,
    digest_key,
    log,
    median,
    now,
    peak_rss_mb,
    percentile,
    sha256_hex,
    tail,
)
from http_load import Connection, Request, StepResult, run_asgi, run_step
from layers import (
    INDEX_METHODS,
    PER_LAYER,
    ROUTES,
    instrument_artifact_build,
    instrument_serving,
)
from spans import SpanRecorder, check_wrapped

PARAMS = {
    "dataset": "SNYT",
    "scale": 0.2,
    "connections": 2,
    "revalidate_share": 0.2,
    "paths_per_route": 48,
    "fixed_rate": 100.0,
    "traced_share": 0.25,
    "requests_per_run_s": 400,
    "block_requests": 500,
    "limit_ms": 50.0,
}

TINY_PARAMS = dict(
    PARAMS,
    scale=0.05,
    paths_per_route=4,
    fixed_rate=50.0,
    requests_per_run_s=100,
    block_requests=25,
)

#: Seeds whose Section V-E sessions the request mix is counted over.
MIX_SEEDS = (DEFAULT_SEED, 1, 2, 3, 4)

#: Request mix: route kind -> requests in the Section V-E sessions of
#: ``MIX_SEEDS`` (``derive_mix()``; the self-test re-derives it).  Used as
#: weights; revalidations are drawn on top of it.
MIX = {
    "roots": 125,
    "children": 197,
    "drilldown": 99,
    "drilldown_multi": 98,
    "drilldown_keyword": 550,
    "document": 428,
}

SETUP_REPEATS = 2


def _pipeline_result(seed: int, params: dict):
    """The default pipeline's result over the workload's corpus."""
    from extraction import _config, _fresh_pipeline, _generate

    settings = dict(params, workers=1)
    config, world, documents = _generate(seed, settings)
    return config, world, _fresh_pipeline(_config(seed, settings), world).run(documents)


def derive_mix(seeds=MIX_SEEDS, scale: float = PARAMS["scale"]) -> dict[str, int]:
    """Requests per route in the Section V-E browsing simulation.

    ``repro.eval.user_study`` replays five users times five sessions of
    keyword searches and facet clicks against the interface over the
    served pipeline result.  Each session becomes the requests a browser
    front end would send: it opens on the top-level facets (one roots
    request); every keyword search is a keyword drilldown; a session's
    first facet click is a single-facet drilldown and every later click
    adds a facet (a multi-facet drilldown); each click lists the clicked
    node's children; a completed session opens the stories it found
    (``TARGET_ON_TOPIC`` document fetches).
    """
    from repro.core.interface import FacetedInterface
    from repro.eval.user_study import TARGET_ON_TOPIC, UserStudy

    counts = dict.fromkeys(MIX, 0)
    for seed in seeds:
        config, world, result = _pipeline_result(seed, dict(PARAMS, scale=scale))
        study = UserStudy(FacetedInterface.from_result(result), world, config).run()
        for session in study.sessions:
            counts["roots"] += 1
            counts["drilldown_keyword"] += session.searches
            counts["drilldown"] += min(1, session.facet_clicks)
            counts["drilldown_multi"] += max(0, session.facet_clicks - 1)
            counts["children"] += session.facet_clicks
            counts["document"] += TARGET_ON_TOPIC if session.completed else 0
    return counts


def _build_artifact(seed: int, params: dict, path: str):
    from repro.serving import FacetIndex

    _config, _world, result = _pipeline_result(seed, params)
    return FacetIndex.build(result, path=path)


def _targets(index, per_route: int) -> dict[str, list[str]]:
    """Request targets per route, spread over the artifact's facet sizes.

    Candidates are ordered by the documents they cover, which is what a
    drilldown's cost follows, and taken at evenly spaced ranks: every
    seed's pool then runs from the largest facet to the smallest, where
    a random draw could miss the heavy end and move the tail.
    """
    roots = index.top_level_counts()
    nodes = []
    pairs = []
    keywords = []
    for root in roots:
        nodes.append((root.count, root.term))
        for child in index.children(root.term):
            nodes.append((child.count, child.term))
            pairs.append((child.count, root.term, child.term))
        for document in index.slice(root.term)[:3]:
            words = [
                w for w in document.title.lower().split() if w.isalpha() and len(w) > 3
            ]
            if words:
                keywords.append((root.count, root.term, words[0]))
    documents = sorted({d.doc_id for d in index.slice(roots[0].term)}) if roots else []

    def spread(pool: list, count: int) -> list:
        ordered = sorted(pool, key=lambda item: (-item[0], item[1:]))
        if not ordered:
            return []
        last = len(ordered) - 1
        return [ordered[round(i * last / max(1, count - 1))] for i in range(count)]

    return {
        "roots": ["/facets", "/"],
        "children": [
            f"/facets/{quote(term, safe='')}/children"
            for _count, term in spread(nodes, per_route)
        ],
        "drilldown": [
            "/drilldown?" + urlencode({"facet": term})
            for _count, term in spread(nodes, per_route)
        ],
        "drilldown_multi": [
            "/drilldown?" + urlencode([("facet", a), ("facet", b)])
            for _count, a, b in spread(pairs, per_route)
        ],
        "drilldown_keyword": [
            "/drilldown?" + urlencode([("facet", root), ("q", word)])
            for _count, root, word in spread(keywords, per_route)
        ],
        "document": [
            f"/documents/{quote(d)}"
            for _index, d in spread(list(enumerate(documents)), per_route)
        ],
    }


def _expected(index, targets: dict[str, list[str]]):
    """Every target's correct body and its ETag, from the application
    run in-process."""
    from repro.serving import AsgiClient, FacetApp

    bodies: dict[str, bytes] = {}
    etags: dict[str, str] = {}
    with FacetApp(index) as app:
        client = AsgiClient(app)
        for target in sorted({t for pool in targets.values() for t in pool}):
            path, _, query = target.partition("?")
            url = unquote(path) + ("?" + query if query else "")
            response = client.get(url)
            if response.status != 200 or response.header("etag") is None:
                raise RuntimeError(f"{target}: in-process status {response.status}")
            bodies[target] = response.body
            etags[target] = response.header("etag")
    return bodies, etags


def _schedule(
    targets: dict[str, list[str]],
    etags: dict[str, str],
    expected: dict[str, str],
    count: int,
    rng: random.Random,
    revalidate_share: float,
) -> list[Request]:
    kinds = [kind for kind in MIX if targets[kind]]
    weights = [MIX[kind] for kind in kinds]
    requests = []
    for _ in range(count):
        kind = rng.choices(kinds, weights)[0]
        target = rng.choice(targets[kind])
        etag = etags.get(target) if rng.random() < revalidate_share else None
        requests.append(Request(kind, target, etag, expected[target]))
    return requests


async def _drive(host, port, connections, steps):
    """Run ``(rate, requests)`` steps back to back over shared connections."""
    pool = [Connection(host, port) for _ in range(connections)]
    results = []
    try:
        for rate, requests in steps:
            results.append(await run_step(pool, requests, rate, sha256_hex))
    finally:
        for connection in pool:
            await connection.close()
    return results


@contextlib.contextmanager
def _settled_heap():
    """Measure serving on a heap that holds what a server holds.

    Set-up leaves the world and corpus the program memoizes on this
    process's heap; they are dropped, and what survives a collection is
    frozen, so collections during the measured steps scan only the
    serving path's own objects instead of pausing on set-up leftovers.
    """
    from repro.corpus import datasets
    from repro.kb import world as world_module

    for memo in (getattr(world_module, "_WORLD_CACHE", None), getattr(datasets, "_CACHE", None)):
        if memo is not None:
            memo.clear()
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


@contextlib.contextmanager
def one_cpu():
    """Run the workload on one CPU.

    Requests go one after another, and each hops from the event loop to
    the application's executor thread.  Across two CPUs that hop is a
    cross-CPU wake-up whose cost follows whatever else the machine runs
    on the other CPU.  In three alternating pairs on a shared 2-vCPU VM
    the median request took 0.52-0.78 ms unpinned and 0.36-0.40 ms
    pinned.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(before)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def _run_inprocess(index, requests: list[Request]) -> StepResult:
    """The request stream through ``FacetApp`` in this process."""
    from repro.serving import FacetApp

    with FacetApp(index) as app:
        return asyncio.run(run_asgi(app, requests, sha256_hex))


def _block_rates(step: StepResult, size: int) -> list[float]:
    """Requests per second over each run of ``size`` consecutive requests.

    Their median is the throughput: a pause that stalls a few blocks
    (a collection, another tenant on the machine) moves it less than it
    moves the mean over the whole step.
    """
    rates = []
    previous = 0.0
    for end in range(size, len(step.finished_s) + 1, size):
        finished = step.finished_s[end - 1]
        rates.append(size / (finished - previous))
        previous = finished
    return rates or [step.rate]


def _mix_p50(step: StepResult) -> float:
    """Each route's median latency, averaged with the route's share of
    the requests.

    The plain median of the mix sits where the cheap routes (document
    fetches, children, revalidations: just over half the requests) end
    and the drilldowns begin, so it reads the cheap routes' own tail and
    jumps between them and the drilldowns from run to run; each route's
    median sits inside its own cluster.
    """
    total = sum(len(ms) for ms in step.by_kind_ms.values())
    return sum(len(ms) * median(ms) for ms in step.by_kind_ms.values()) / total


def _step_passes(step: StepResult, limit_ms: float) -> bool:
    """Tail within the limit, nothing missed, no growing backlog."""
    _label, value = tail(step.latencies_ms)
    return (
        step.missed == 0
        and value <= limit_ms
        and not step.aborted
        and not step.backlog_growing()
    )


def _open_loop_line(step: StepResult, limit_ms: float) -> str:
    """Whether an open-loop step met the latency limit, and how late the
    generator ran."""
    label, value = tail(step.latencies_ms)
    verdict = "passes" if _step_passes(step, limit_ms) else "FAILS"
    return (
        f"HTTP open loop at {step.rate:g} req/s ({step.attempted} requests, "
        f"{step.missed} missed, untraced): {verdict} the {limit_ms:g} ms limit "
        f"(p50 {percentile(step.latencies_ms, 50.0):.2f} ms, {label} {value:.2f} ms, "
        f"backlog {'growing' if step.backlog_growing() else 'steady'}, generator "
        f"late by {percentile(step.lag_ms, 50.0):.2f} ms at the median, "
        f"{max(step.lag_ms):.2f} ms at most)"
    )


def _count(outcome: Outcome, steps: list[StepResult]) -> None:
    for step in steps:
        outcome.attempted += step.attempted
        outcome.failed += step.missed
        if step.missed:
            outcome.problems.append(
                f"rate {step.rate:g}/s: {step.missed} of {step.attempted} requests "
                f"failed (statuses {step.statuses}, wrong {step.wrong}, "
                f"timeouts {step.timeouts}, refused {step.refused})"
            )


def run_serve(name: str, seed: int, seconds: float, trace: bool,
              params: dict, digests: dict) -> Outcome:
    outcome = Outcome()
    OUTPUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="serve-", dir=OUTPUT_DIR)
    recorder = SpanRecorder(f"{name}-{seed}") if trace else None
    try:
        setup_times = []
        if recorder is not None:
            instrument_artifact_build(recorder)
        try:
            for repeat in range(SETUP_REPEATS):
                start = now()
                index = _build_artifact(seed, params, f"{scratch}/snyt-{repeat}.idx")
                setup_times.append(now() - start)
                if repeat < SETUP_REPEATS - 1:
                    index.close()
        finally:
            if recorder is not None:
                recorder.restore()

        targets = _targets(index, params["paths_per_route"])
        bodies, etags = _expected(index, targets)
        expected = {target: sha256_hex(body) for target, body in bodies.items()}
        served_digest = sha256_hex(
            "\n".join(f"{t} {expected[t]}" for t in sorted(expected)).encode()
        )
        pinned = digests.get(digest_key("serve", params, seed))
        if pinned is not None:
            outcome.check(
                served_digest == pinned,
                f"{name}: body digest {served_digest} != pinned {pinned}",
            )
        rng = random.Random(f"{seed}:perfbench-serve-schedule")
        outcome.notes.update(digest=served_digest, setup_s=setup_times)
        log(f"{name}: {len(bodies)} targets, setup {median(setup_times):.2f}s")

        if trace:
            build = recorder.summary()
            layer = _run_traced(outcome, recorder, index, params, targets,
                                etags, expected, rng, seconds)
            layer["serving.artifact_build_s"] = (
                build.total("serving.artifact_build") / SETUP_REPEATS
            )
            layer["serving.artifact_bytes"] = (
                build.amount("serving.artifact_build") / SETUP_REPEATS
            )
            units = dict(PER_LAYER)
            for metric, value in layer.items():
                outcome.metric(metric, value, units[metric])
            check_wrapped(outcome, recorder)
            outcome.notes["spans"] = recorder.records()
            index.close()
            return outcome

        count = max(params["block_requests"], int(params["requests_per_run_s"] * seconds))
        requests = _schedule(
            targets, etags, expected, count, rng, params["revalidate_share"],
        )
        with _settled_heap():
            inprocess = _run_inprocess(index, requests)
        index.close()
        _count(outcome, [inprocess])

        label, p_tail = tail(inprocess.latencies_ms)
        route_p50 = {kind: median(ms) for kind, ms in inprocess.by_kind_ms.items()}
        outcome.metric("setup_s", median(setup_times), "s")
        outcome.metric("peak_rss_mb", peak_rss_mb(), "MiB")
        rates = _block_rates(inprocess, params["block_requests"])
        outcome.metric("throughput_per_s", median(rates), "1/s")
        outcome.metric("latency_p50_ms", _mix_p50(inprocess), "ms")
        outcome.notes.update(
            tail=f"{label} of {inprocess.attempted} in-process requests: {p_tail:.3f} ms",
            route_p50_ms=route_p50,
            block_rates=rates,
            inprocess=_step_note(inprocess),
        )
        return outcome
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _step_note(step: StepResult) -> dict:
    label, value = tail(step.latencies_ms)
    return {
        "rate": step.rate,
        "requests": step.attempted,
        "p50_ms": percentile(step.latencies_ms, 50.0),
        "tail": label,
        "tail_ms": value,
        "generator_lag_p50_ms": percentile(step.lag_ms, 50.0) if step.lag_ms else None,
        "generator_lag_max_ms": max(step.lag_ms, default=None),
        "backlog_growing": step.backlog_growing(),
        "aborted": step.aborted,
        "missed": step.missed,
        "statuses": step.statuses,
        "wall_s": step.wall_s,
    }


def _run_traced(outcome, recorder, index, params, targets, etags,
                expected, rng, seconds) -> dict[str, float]:
    """Mount the application behind the HTTP bridge in a thread and drive
    the same open-loop schedule untraced, then traced, at the fixed rate."""
    from repro.serving import FacetApp, run_in_thread

    with FacetApp(index) as app, run_in_thread(app) as (host, port):
        requests = _schedule(
            targets, etags, expected,
            max(1, int(params["fixed_rate"] * seconds * params["traced_share"])),
            rng, params["revalidate_share"],
        )
        step = [(params["fixed_rate"], requests)]
        with _settled_heap():
            cpu0 = cpu_seconds()
            (base,) = asyncio.run(_drive(host, port, params["connections"], step))
            cpu = cpu_seconds() - cpu0
            instrument_serving(recorder)
            try:
                (traced,) = asyncio.run(_drive(host, port, params["connections"], step))
            finally:
                recorder.restore()
    _count(outcome, [base, traced])
    outcome.report_lines.append(_open_loop_line(base, params["limit_ms"]))
    outcome.notes.update(open_loop=_step_note(base), open_loop_traced=_step_note(traced))
    summary = recorder.summary()
    layer: dict[str, float] = {}
    for method in INDEX_METHODS:
        name = f"serving.index.{method}"
        calls = summary.calls(name)
        layer[f"{name}_ms"] = summary.total(name) / calls * 1000.0 if calls else 0.0
    rendered = traced.statuses.get(200, 0)
    layer["serving.render_ms"] = (
        summary.self_time("serving.render") / rendered * 1000.0 if rendered else 0.0
    )
    for route in ROUTES:
        samples = traced.by_kind_ms.get(route, [])
        layer[f"serving.route.{route}_p50_ms"] = median(samples)
    layer["serving.not_modified_share"] = traced.statuses.get(304, 0) / traced.attempted
    layer["serving.generator_lag_ms"] = percentile(traced.lag_ms, 50.0)
    layer["trace.overhead_share"] = (
        percentile(traced.latencies_ms, 50.0) / percentile(base.latencies_ms, 50.0)
        - 1.0
    )
    layer["trace.spans"] = float(len(summary.spans))
    layer["cpu_s"] = cpu
    return layer
