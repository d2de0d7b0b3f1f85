"""Benchmark of the default facet pipeline, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload snb-batch --seed 20080407 --seconds 30 --trace 0

Workloads: ``snb-batch``, ``snb-stream``, ``snyt-serve``
(see ``perfbench/README.md``).  With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` it wraps the program's public
calls in spans and prints the per-layer metrics instead.  Every run
checks its outputs; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--tiny`` shrinks every input (used by the self-test); ``--pin`` stores
this run's digests as the reference for its seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import (
    DEFAULT_SEED,
    DIGEST_FILE,
    ROOT,
    load_digests,
    log,
    provenance,
    write_result,
)

#: End-to-end metrics, every workload, in output order.
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
]

WORKLOADS = ("snb-batch", "snb-stream", "snyt-serve")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--pin", action="store_true")
    return parser.parse_args(argv)


def _dispatch(args: argparse.Namespace):
    """Returns ``(kind, params, outcome)`` for the chosen workload."""
    import extraction
    import serve

    digests = load_digests()
    trace = bool(args.trace)
    if args.workload == "snyt-serve":
        params = serve.TINY_PARAMS if args.tiny else serve.PARAMS
        with serve.one_cpu():
            return "serve", params, serve.run_serve(
                args.workload, args.seed, args.seconds, trace, params, digests
            )
    table = extraction.TINY_PARAMS if args.tiny else extraction.PARAMS
    params = table[args.workload]
    if args.workload == "snb-stream":
        return "stream", params, extraction.run_stream(
            args.workload, args.seed, args.seconds, trace, params, digests
        )
    return "batch", params, extraction.run_extract(
        args.workload, args.seed, args.seconds, trace, params, digests
    )


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))

    from layers import PER_LAYER

    kind, params, outcome = _dispatch(args)
    expected = PER_LAYER if args.trace else END_TO_END
    for name, unit in expected:
        if name not in outcome.metrics:
            if not args.trace:
                outcome.check(False, f"metric {name} was not measured")
                continue
            # A layer the workload never calls reports zero work.
            outcome.metric(name, 0.0, unit)
    spans = outcome.notes.pop("spans", None)
    stamp = provenance(args.workload, args.seed, params, bool(args.trace))
    path = write_result(outcome, stamp, spans)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"params={stamp['params_hash']} nproc={stamp['nproc']} "
          f"python={stamp['python']} numpy={stamp['numpy']} "
          f"git={stamp['git_describe']}")
    for line in outcome.report_lines:
        print(line)
    for name, unit in expected:
        value, _unit = outcome.metrics[name]
        print(f"{name:<40} {value:>16.6f} {unit}")
    if "tail" in outcome.notes:
        print(f"tail (not gated) = {outcome.notes['tail']}")
    for problem in outcome.problems:
        print(f"FAILED: {problem}")
    print(f"error_rate {outcome.failed}/{outcome.attempted}; full result in "
          f"{path.relative_to(ROOT)}")

    if args.pin and outcome.failed == 0 and "digest" in outcome.notes:
        from common import digest_key

        digests = load_digests()
        digests[digest_key(kind, params, args.seed)] = outcome.notes["digest"]
        DIGEST_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        log(f"pinned {digest_key(kind, params, args.seed)}")

    result = {
        "correct": outcome.failed == 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name][0], "unit": unit}
            for name, unit in expected
            if name in outcome.metrics
        },
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
