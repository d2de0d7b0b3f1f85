"""Shared helpers: statistics, digests, provenance and result output.

Nothing here imports the program under test at module level, so
``run.py`` can report a missing source tree before touching it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Root of the checkout the benchmark runs in (the parent of this folder).
ROOT = Path(__file__).resolve().parent.parent

#: Where runs leave result files, span dumps and scratch artifacts.
OUTPUT_DIR = ROOT / ".perfbench"

#: Pinned correctness digests (see ``reference_digests.json``).
DIGEST_FILE = Path(__file__).resolve().parent / "reference_digests.json"

#: The paper's default world seed; the benchmark's default ``--seed``.
DEFAULT_SEED = 20080407

#: A second seed whose digests are pinned too, never used while tuning.
HELD_OUT_SEED = 1155

#: Percentiles considered for a tail figure, highest first.
_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def now() -> float:
    return time.perf_counter()


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (which must be non-empty)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(label, value)``; with fewer than 20 samples no percentile
    qualifies and the slowest sample is reported as ``max``.
    """
    n = len(values)
    for p in _TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10.0:
            return f"p{p:g}", percentile(values, p)
    return "max", max(values)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def result_digest(facet_terms, hierarchies) -> str:
    """Digest of a facet result: terms with IEEE-754 hex scores + forest.

    The same bytes for a batch run, an incremental state and a restored
    state mean the three agree exactly.
    """
    from repro.core.export import to_dict
    from repro.incremental import canonical_json

    payload = {
        "facet_terms": [
            [c.term, c.df_original, c.df_contextualized, c.score.hex()]
            for c in facet_terms
        ],
        "hierarchies": to_dict(hierarchies, include_docs=True),
    }
    return sha256_hex(canonical_json(payload).encode("utf-8"))


def params_hash(params: dict) -> str:
    blob = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return sha256_hex(blob.encode("utf-8"))[:16]


def digest_key(kind: str, params: dict, seed: int) -> str:
    return f"{kind}:{params['dataset']}@{params['scale']}:seed={seed}"


def load_digests() -> dict[str, str]:
    if not DIGEST_FILE.is_file():
        return {}
    return json.loads(DIGEST_FILE.read_text(encoding="utf-8"))


def _git_describe() -> str:
    # The ceiling keeps git from describing a repository that merely
    # contains this checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(workload: str, seed: int, params: dict, trace: bool) -> dict:
    """Where and how a result was measured."""
    from repro.core.columnar import HAVE_NUMPY

    affinity = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    )
    return {
        "workload": workload,
        "seed": seed,
        "params_hash": params_hash(params),
        "params": params,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "nproc": affinity,
        "python": platform.python_version(),
        "numpy": HAVE_NUMPY,
        "REPRO_NO_NUMPY": os.environ.get("REPRO_NO_NUMPY", ""),
        "git_describe": _git_describe(),
        "platform": platform.platform(),
    }


class Outcome:
    """What a workload hands back to ``run.py``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.notes: dict[str, object] = {}
        self.report_lines: list[str] = []

    def check(self, ok: bool, problem: str) -> bool:
        """Count one checked operation; record ``problem`` when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def write_result(
    outcome: Outcome, stamp: dict, spans: list[dict] | None
) -> Path:
    """Write the run's full result (and span dump) under ``.perfbench``."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    stem = (
        f"{stamp['workload']}-seed{stamp['seed']}-trace{int(stamp['trace'])}"
        f"-{os.getpid()}"
    )
    path = OUTPUT_DIR / f"{stem}.json"
    payload = {
        "provenance": stamp,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(outcome.metrics.items())
        },
        "notes": outcome.notes,
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    if spans is not None:
        span_path = OUTPUT_DIR / f"{stem}.spans.jsonl"
        with span_path.open("w", encoding="utf-8") as handle:
            for record in spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def log(message: str) -> None:
    """Progress line on stderr (stdout ends with the result object)."""
    print(message, file=sys.stderr, flush=True)
