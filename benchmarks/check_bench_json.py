"""Validate the machine-readable benchmark payloads against their contracts.

One gate for all three benchmark JSON artifacts.  CI's bench-smoke job
runs ``bench_efficiency.py`` / ``bench_incremental.py`` /
``bench_serving.py`` on a tiny corpus and then calls this script on the
``BENCH_<name>.json`` each wrote::

    python benchmarks/check_bench_json.py efficiency
    python benchmarks/check_bench_json.py incremental --min-speedup 3.0
    python benchmarks/check_bench_json.py serving     --min-rps 20

Two layers of validation:

* **Contract layer** (shared, derived — never hand-maintained): the
  devtools contract extractor (:mod:`repro.devtools.contracts`) parses
  the benchmark script that *wrote* the payload, harvests its
  schema-tagged writer dict, and this script checks that the payload
  carries the expected schema id and every statically-declared writer
  key.  Renaming a key in the benchmark without bumping the schema now
  fails the gate even before any threshold is looked at.
* **Semantic layer** (per bench): the numeric floors and
  cross-field invariants the old per-bench scripts enforced — minimum
  speedup / RPS, zero failed requests, byte-identical output flags,
  percentile ordering.  Thresholds stay CLI arguments so the smoke job
  can relax the reference-scale floors.

Keeping the gate in a script (not inside the benchmarks) means any
consumer of the JSON — CI, a regression dashboard, a local run —
applies the same contract.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.devtools.contracts import extract_contracts  # noqa: E402
from repro.devtools.project import ProjectModel  # noqa: E402


class BenchSpec:
    """One benchmark's artifact contract: schema, writer script, checks."""

    def __init__(self, name: str, schema: str, writer: str, semantic) -> None:
        self.name = name
        self.schema = schema
        self.writer = _REPO_ROOT / "benchmarks" / writer
        self.default_path = f"BENCH_{name}.json"
        self.semantic = semantic


def _collect_keys(value, out: set[str]) -> None:
    """Every mapping key anywhere in a decoded JSON payload."""
    if isinstance(value, dict):
        for key, child in value.items():
            out.add(key)
            _collect_keys(child, out)
    elif isinstance(value, list):
        for child in value:
            _collect_keys(child, out)


def contract_problems(spec: BenchSpec, payload: dict) -> list[str]:
    """Schema-id and writer-key drift between payload and bench script."""
    problems: list[str] = []
    if payload.get("schema") != spec.schema:
        problems.append(
            f"schema is {payload.get('schema')!r}, expected {spec.schema!r}"
        )
    contracts = extract_contracts(ProjectModel.from_paths([spec.writer]))
    writers = [
        site
        for site in contracts.payload_sites
        if site.role == "writer" and site.schema_id == spec.schema
    ]
    if not writers:
        problems.append(
            f"{spec.writer.name} declares no writer of schema {spec.schema!r} "
            "(contract extraction found nothing to check against)"
        )
        return problems
    declared: set[str] = set()
    for site in writers:
        declared.update(site.keys)
    present: set[str] = set()
    _collect_keys(payload, present)
    for key in sorted(declared - present):
        problems.append(
            f"payload is missing key {key!r} declared by the writer in "
            f"{spec.writer.name}"
        )
    return problems


def _numeric(payload: dict, dotted: str) -> "float | None":
    """The numeric value at a dotted path, or None when absent/non-numeric."""
    value = payload
    for part in dotted.split("."):
        if not isinstance(value, dict):
            return None
        value = value.get(part)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def _require_numeric(payload: dict, keys: tuple[str, ...]) -> list[str]:
    return [
        f"{key} missing or non-numeric"
        for key in keys
        if _numeric(payload, key) is None
    ]


# -- efficiency ---------------------------------------------------------------

_EFFICIENCY_NUMERIC = (
    "per_stage.documents",
    "per_stage.extraction_local_s_per_doc",
    "per_stage.expansion_local_s_per_doc",
    "per_stage.selection_s",
    "per_stage.hierarchy_s",
    "parallel.cold_s",
    "parallel.warm_s",
    "parallel.warm_speedup",
    "parallel.warm_persistent_hits",
    "instrumented.documents",
    "instrumented.workers",
)


def check_efficiency(payload: dict, options) -> list[str]:
    problems = _require_numeric(payload, _EFFICIENCY_NUMERIC)
    hits = _numeric(payload, "parallel.warm_persistent_hits")
    if hits is not None and hits <= 0:
        problems.append("parallel.warm_persistent_hits is not positive")
    cold = _numeric(payload, "parallel.cold_s")
    warm = _numeric(payload, "parallel.warm_s")
    if cold is not None and warm is not None and warm >= cold:
        problems.append(
            f"parallel.warm_s {warm:.2f} not below parallel.cold_s {cold:.2f}"
        )
    return problems


def summarize_efficiency(path: pathlib.Path, payload: dict) -> str:
    parallel = payload["parallel"]
    return (
        f"OK: {path} matches {payload['schema']}; warm persistent cache "
        f"{parallel['warm_speedup']:.1f}x over cold "
        f"({parallel['warm_persistent_hits']} distinct terms from SQLite, "
        f"{parallel['cold_round_trips']} cold round trips)"
    )


# -- incremental --------------------------------------------------------------

_INCREMENTAL_NUMERIC = (
    "scale",
    "base_documents",
    "appended_documents",
    "incremental_s",
    "full_s",
    "speedup",
    "checkpoint_save_s",
    "checkpoint_restore_s",
    "facet_terms",
)


def check_incremental(payload: dict, options) -> list[str]:
    problems = _require_numeric(payload, _INCREMENTAL_NUMERIC)
    if payload.get("identical_output") is not True:
        problems.append("identical_output is not true")
    speedup = _numeric(payload, "speedup")
    if speedup is not None and speedup < options.min_speedup:
        problems.append(
            f"speedup {speedup:.2f} below minimum {options.min_speedup:.2f}"
        )
    appended = _numeric(payload, "appended_documents")
    if appended is not None and appended < 1:
        problems.append("appended_documents must be >= 1")
    return problems


def summarize_incremental(path: pathlib.Path, payload: dict) -> str:
    return (
        f"OK: {path} matches {payload['schema']}; append of "
        f"{payload['appended_documents']} docs onto "
        f"{payload['base_documents']} ran {payload['speedup']:.1f}x faster "
        "than full recompute, output byte-identical"
    )


# -- serving ------------------------------------------------------------------

#: The acceptance floor on simulated concurrent clients.
MIN_CLIENTS = 8

_SERVING_NUMERIC = (
    "clients",
    "requests",
    "errors",
    "p50_ms",
    "p99_ms",
    "rps",
    "elapsed_s",
    "artifact.documents",
    "artifact.facets",
    "artifact.nodes",
)


def check_serving(payload: dict, options) -> list[str]:
    problems = _require_numeric(payload, _SERVING_NUMERIC)
    artifact = payload.get("artifact")
    if isinstance(artifact, dict) and not isinstance(
        artifact.get("checksum"), str
    ):
        problems.append("artifact.checksum missing or not a string")
    if problems:
        return problems
    if payload["clients"] < MIN_CLIENTS:
        problems.append(
            f"clients {payload['clients']} below minimum {MIN_CLIENTS}"
        )
    if payload["errors"] != 0:
        problems.append(f"{payload['errors']} requests failed")
    if payload["requests"] < payload["clients"]:
        problems.append("fewer requests than clients — load loop did not run")
    if payload["p99_ms"] < payload["p50_ms"]:
        problems.append(
            f"p99 {payload['p99_ms']:.1f} ms below p50 "
            f"{payload['p50_ms']:.1f} ms — percentiles are inconsistent"
        )
    if payload["rps"] < options.min_rps:
        problems.append(
            f"rps {payload['rps']:.1f} below minimum {options.min_rps:.1f}"
        )
    return problems


def summarize_serving(path: pathlib.Path, payload: dict) -> str:
    return (
        f"OK: {path} matches {payload['schema']}; {payload['clients']} "
        f"clients, {payload['requests']} requests, "
        f"p50 {payload['p50_ms']:.1f} ms, p99 {payload['p99_ms']:.1f} ms, "
        f"{payload['rps']:.0f} req/s"
    )


BENCHES = {
    "efficiency": BenchSpec(
        "efficiency",
        "repro.bench_efficiency/3",
        "bench_efficiency.py",
        check_efficiency,
    ),
    "incremental": BenchSpec(
        "incremental",
        "repro.bench_incremental/1",
        "bench_incremental.py",
        check_incremental,
    ),
    "serving": BenchSpec(
        "serving",
        "repro.bench_serving/1",
        "bench_serving.py",
        check_serving,
    ),
}

_SUMMARIES = {
    "efficiency": summarize_efficiency,
    "incremental": summarize_incremental,
    "serving": summarize_serving,
}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="Validate a benchmark JSON payload against its contract."
    )
    parser.add_argument(
        "bench",
        choices=sorted(BENCHES),
        help="which benchmark artifact to validate",
    )
    parser.add_argument(
        "path",
        nargs="?",
        default=None,
        help="payload to validate (default: BENCH_<bench>.json)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help="minimum speedup for incremental (default: %(default)s)",
    )
    parser.add_argument(
        "--min-rps",
        type=float,
        default=20.0,
        help="minimum aggregate requests/second for serving "
        "(default: %(default)s)",
    )
    options = parser.parse_args(argv)
    spec = BENCHES[options.bench]
    path = pathlib.Path(options.path or spec.default_path)
    if not path.is_file():
        print(f"FAIL: {path} does not exist", file=sys.stderr)
        return 1
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        print(f"FAIL: {path} is not valid JSON: {exc}", file=sys.stderr)
        return 1
    problems = contract_problems(spec, payload)
    problems.extend(spec.semantic(payload, options))
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    print(_SUMMARIES[options.bench](path, payload))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
