"""Crash/resume certification for the streaming supervisor.

Faults are injected at the three checkpoint stages ("pre-checkpoint",
"mid-write", "post-write"); after each simulated kill a fresh
:class:`StreamSupervisor` over the same run directory must recover and
land on output byte-identical to a from-scratch run of the full corpus.
The atomic-write contract (temp file + ``os.replace``; the target is
never half-written) and the recovery policy (scan beats manifest,
damaged snapshots are skipped, orphan temp files are removed) are each
pinned individually.
"""

from __future__ import annotations

import filecmp

import pytest

from repro.builder import FacetPipelineBuilder
from repro.config import ParallelConfig, ReproConfig
from repro.corpus import build_snyt
from repro.core.export import to_dict
from repro.errors import StorageError
from repro.incremental import (
    CheckpointError,
    CheckpointStore,
    CrashInjected,
    FaultInjector,
    StreamSupervisor,
    atomic_write_text,
    canonical_json,
    make_batch_files,
    read_batch_file,
    split_into_batches,
)
from repro.incremental.checkpoint import MANIFEST_NAME

SCALE = 0.05
BATCHES = 5


@pytest.fixture(scope="module")
def inc_config() -> ReproConfig:
    return ReproConfig(scale=SCALE)


@pytest.fixture(scope="module")
def docs(inc_config: ReproConfig):
    return build_snyt(inc_config).documents


def build_pipeline(inc_config: ReproConfig):
    """A fresh pipeline per extractor — backgrounds bind on first use."""
    builder = FacetPipelineBuilder(inc_config)
    builder.with_parallel(ParallelConfig(workers=1))
    return builder.build()


def result_bytes(result) -> bytes:
    payload = {
        "facet_terms": [
            [c.term, c.df_original, c.df_contextualized, c.score.hex()]
            for c in result.facet_terms
        ],
        "hierarchies": to_dict(result.hierarchies, include_docs=True),
    }
    return canonical_json(payload).encode("utf-8")


@pytest.fixture(scope="module")
def baseline_bytes(inc_config: ReproConfig, docs) -> bytes:
    return result_bytes(build_pipeline(inc_config).run(docs))


@pytest.fixture()
def input_dir(tmp_path, docs):
    directory = tmp_path / "input"
    make_batch_files(directory, docs, BATCHES)
    return directory


class TestCrashAndResume:
    @pytest.mark.parametrize("stage", FaultInjector.STAGES)
    def test_resume_after_injected_crash_is_byte_identical(
        self, inc_config, docs, baseline_bytes, input_dir, tmp_path, stage
    ):
        run_dir = tmp_path / "run"
        injector = FaultInjector(stage, occurrence=3)
        crashed = StreamSupervisor(
            build_pipeline(inc_config), run_dir, fault_hook=injector
        )
        with pytest.raises(CrashInjected):
            crashed.run(input_dir)
        assert injector.fired
        # The kill must leave no torn file and no stray temp file.
        assert not list(run_dir.glob("*.tmp"))

        resumed = StreamSupervisor(build_pipeline(inc_config), run_dir)
        # post-write crashes after the snapshot landed, so batch 3 is
        # already durable; the earlier stages lose it and replay it.
        surviving = 3 if stage == "post-write" else 2
        assert len(resumed.extractor.batches_done) == surviving
        report = resumed.run(input_dir)
        assert report.resumed_at is not None
        assert sorted(report.skipped) == [
            f"batch-{i:06d}.jsonl" for i in range(surviving)
        ]
        assert len(report.ingested) == BATCHES - surviving
        assert result_bytes(resumed.extractor.snapshot_result()) == (
            baseline_bytes
        )
        assert "resumed with" in report.format_summary()

    def test_post_write_crash_outruns_the_manifest(
        self, inc_config, input_dir, tmp_path
    ):
        """The scan must trust directory contents over MANIFEST.json."""
        import json

        run_dir = tmp_path / "run"
        supervisor = StreamSupervisor(
            build_pipeline(inc_config),
            run_dir,
            fault_hook=FaultInjector("post-write", occurrence=3),
        )
        with pytest.raises(CrashInjected):
            supervisor.run(input_dir)
        manifest = json.loads((run_dir / MANIFEST_NAME).read_text())
        assert manifest["sequence"] == 2  # stale: snapshot 3 exists
        latest = supervisor.store.load_latest()
        assert latest is not None and latest[0] == 3

    def test_fresh_run_dir_is_a_cold_start(
        self, inc_config, baseline_bytes, input_dir, tmp_path
    ):
        supervisor = StreamSupervisor(
            build_pipeline(inc_config), tmp_path / "run"
        )
        report = supervisor.run(input_dir)
        assert report.resumed_at is None
        assert len(report.ingested) == BATCHES
        assert not report.skipped
        assert result_bytes(supervisor.extractor.snapshot_result()) == (
            baseline_bytes
        )
        assert "cold start" in report.format_summary()


class TestAtomicWrite:
    def test_failed_replace_leaves_target_untouched(self, tmp_path, monkeypatch):
        import repro.incremental.checkpoint as checkpoint_module

        target = tmp_path / "file.json"
        atomic_write_text(target, "original\n")
        real_replace = checkpoint_module.os.replace

        def failing_replace(src, dst, *args, **kwargs):
            if str(dst) == str(target):
                raise OSError("injected replace failure")
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(checkpoint_module.os, "replace", failing_replace)
        with pytest.raises(OSError, match="injected replace failure"):
            atomic_write_text(target, "new contents\n")
        assert target.read_text() == "original\n"
        assert not list(tmp_path.glob("*.tmp"))

    def test_orphan_tmp_files_removed_on_store_open(self, tmp_path):
        orphan = tmp_path / "checkpoint-000007.json.tmp"
        orphan.write_text("half-written")
        manifest_orphan = tmp_path / (MANIFEST_NAME + ".tmp")
        manifest_orphan.write_text("{")
        CheckpointStore(tmp_path)
        assert not orphan.exists()
        assert not manifest_orphan.exists()

    def test_same_state_saves_identical_bytes(self, tmp_path):
        state = {"b": [3, 1], "a": {"nested": True}, "n": None}
        first = CheckpointStore(tmp_path / "one").save(state, sequence=4)
        second = CheckpointStore(tmp_path / "two").save(state, sequence=4)
        assert filecmp.cmp(first, second, shallow=False)

    def test_snapshot_bytes_are_canonical_json_of_the_payload(self, tmp_path):
        from repro.incremental.checkpoint import CHECKPOINT_SCHEMA, payload_checksum

        state = {
            "title": "Zürich — 東京 ☃",
            "empty_list": [],
            "empty_dict": {},
            "docs": {"é": {"terms": ["naïve", ""], "tf": 2.5}},
            "n": None,
        }
        store = CheckpointStore(tmp_path)
        path = store.save(state, sequence=12)
        payload = {
            "schema": CHECKPOINT_SCHEMA,
            "sequence": 12,
            "checksum": payload_checksum(state),
            "state": state,
        }
        assert path.read_bytes() == canonical_json(payload).encode("utf-8")
        assert store.load(12) == state
        empty = store.save({}, sequence=13)
        assert empty.read_bytes() == canonical_json(
            {**payload, "sequence": 13, "checksum": payload_checksum({}), "state": {}}
        ).encode("utf-8")


class TestRecoveryPolicy:
    def _store_with_snapshots(self, tmp_path) -> CheckpointStore:
        store = CheckpointStore(tmp_path / "run")
        store.save({"documents": 10}, sequence=1)
        store.save({"documents": 20}, sequence=2)
        return store

    def test_damaged_newest_snapshot_falls_back(self, tmp_path):
        store = self._store_with_snapshots(tmp_path)
        store.snapshot_path(2).write_text("{ not json")
        latest = store.load_latest()
        assert latest == (1, {"documents": 10})

    def test_checksum_mismatch_is_damage(self, tmp_path):
        import json

        store = self._store_with_snapshots(tmp_path)
        path = store.snapshot_path(2)
        payload = json.loads(path.read_text())
        payload["state"]["documents"] = 999  # bit-flip the state
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            store.load(2)
        assert store.load_latest() == (1, {"documents": 10})

    def test_every_snapshot_damaged_means_cold_start(self, tmp_path):
        store = self._store_with_snapshots(tmp_path)
        store.snapshot_path(1).write_text("")
        store.snapshot_path(2).write_text("")
        assert store.load_latest() is None

    def test_prune_respects_keep_snapshots(self, tmp_path):
        store = CheckpointStore(tmp_path / "run", keep_snapshots=2)
        for sequence in range(1, 6):
            store.save({"documents": sequence}, sequence=sequence)
        assert store.sequences() == [4, 5]


class TestFaultInjector:
    def test_rejects_unknown_stage_and_bad_occurrence(self):
        with pytest.raises(ValueError, match="unknown fault stage"):
            FaultInjector("between-writes")
        with pytest.raises(ValueError, match="occurrence must be >= 1"):
            FaultInjector("mid-write", occurrence=0)

    def test_fires_on_nth_occurrence_then_disarms(self):
        injector = FaultInjector("mid-write", occurrence=2)
        injector("mid-write")  # first: armed, no fire
        injector("post-write")  # other stages never count
        with pytest.raises(CrashInjected):
            injector("mid-write")
        assert injector.fired
        injector("mid-write")  # disarmed: a resumed run completes


class TestBatchFiles:
    def test_round_trip_and_split_shapes(self, tmp_path, docs):
        paths = make_batch_files(tmp_path, docs, BATCHES)
        assert [p.name for p in paths] == [
            f"batch-{i:06d}.jsonl" for i in range(BATCHES)
        ]
        recovered = [doc for path in paths for doc in read_batch_file(path)]
        assert [d.doc_id for d in recovered] == [d.doc_id for d in docs]
        sizes = [len(part) for part in split_into_batches(docs, BATCHES)]
        assert sum(sizes) == len(docs)
        assert max(sizes) - min(sizes) <= 1

    def test_bad_batch_lines_raise_storage_error(self, tmp_path):
        bad = tmp_path / "batch-000000.jsonl"
        bad.write_text('{"doc_id": "x"}\nnot json\n')
        with pytest.raises(StorageError, match="bad document"):
            read_batch_file(bad)
        with pytest.raises(StorageError, match="unreadable batch file"):
            read_batch_file(tmp_path / "missing.jsonl")

    def test_split_rejects_nonpositive_batch_count(self, docs):
        with pytest.raises(ValueError, match="batches must be >= 1"):
            split_into_batches(docs, 0)
