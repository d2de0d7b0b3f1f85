"""Self-test of the benchmark at tiny scale.

Runs every workload once untraced and once traced with ``--tiny`` and
checks the result line against ``BENCHMARK.json``: every declared metric
is present with its unit, and the correctness gate passed (the tiny
default-seed digests are pinned, so the gate compares against them).
Run it with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def _run(directory: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=directory,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload: str, trace: int) -> None:
    done = _run(
        ROOT, "--workload", workload, "--seed", "20080407", "--seconds", "1",
        "--trace", str(trace), "--tiny",
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout[-2000:]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
        if not trace:
            assert reported["value"] > 0, metric["name"]


def test_default_and_held_out_seeds_are_pinned() -> None:
    sys.path.insert(0, str(HERE))
    try:
        from common import DEFAULT_SEED, HELD_OUT_SEED, digest_key, load_digests
        import extraction
        import serve
    finally:
        sys.path.remove(str(HERE))
    pinned = load_digests()
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        for kind, params in (
            ("batch", extraction.PARAMS["snb-batch"]),
            ("stream", extraction.PARAMS["snb-stream"]),
            ("serve", serve.PARAMS),
        ):
            assert digest_key(kind, params, seed) in pinned


def test_pinned_digest_mismatch_fails_the_gate() -> None:
    sys.path.insert(0, str(HERE))
    try:
        from common import Outcome
        from extraction import _check_pinned
    finally:
        sys.path.remove(str(HERE))
    outcome = Outcome()
    _check_pinned(outcome, {"key": "a" * 64}, "key", "b" * 64)
    _check_pinned(outcome, {}, "unpinned", "b" * 64)
    assert (outcome.attempted, outcome.failed) == (1, 1)


def test_missing_wrap_target_fails_the_run() -> None:
    sys.path.insert(0, str(HERE))
    try:
        from common import Outcome
        from spans import SpanRecorder, check_wrapped
    finally:
        sys.path.remove(str(HERE))

    class Program:
        def present(self) -> int:
            return 1

    recorder = SpanRecorder("self-test")
    recorder.wrap(Program, "present", "layer.present")
    recorder.wrap(Program, "renamed_away", "layer.gone")
    assert Program().present() == 1
    recorder.restore()
    outcome = Outcome()
    check_wrapped(outcome, recorder)
    assert (outcome.attempted, outcome.failed) == (2, 1)
    assert "renamed_away" in outcome.problems[0]


def test_serve_mix_is_the_user_study_mix() -> None:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import serve

        derived = serve.derive_mix()
    finally:
        sys.path.remove(str(HERE))
        sys.path.remove(str(ROOT / "src"))
    assert derived == serve.MIX


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
