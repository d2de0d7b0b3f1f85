"""Crash-safe checkpoint storage for the incremental pipeline.

Snapshots are versioned JSON files (``checkpoint-000042.json``, schema
``repro.checkpoint/1``) inside a run directory.  Every write goes
through :func:`atomic_write_text`: the payload lands in a temp file that
is fsynced and then :func:`os.replace`-d over the target, so a reader
never observes a half-written checkpoint — a crash leaves either the
old file, the new file, or a stray ``*.tmp`` that the store removes on
open.  The lint rule CKPT001 enforces that no other module under
:mod:`repro.incremental` opens checkpoint files for writing directly.

Recovery scans the run directory for the highest-sequence snapshot whose
schema and content checksum validate, falling back to earlier snapshots
if the newest is damaged; the ``MANIFEST.json`` pointer is a
convenience for humans and tooling, never trusted over the scan.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from collections.abc import Callable
from pathlib import Path

from ..errors import StorageError
from ..observability.logging import get_logger

log = get_logger(__name__)

#: Schema tag carried by every snapshot (bump on layout changes).
CHECKPOINT_SCHEMA = "repro.checkpoint/1"

#: Schema tag of the manifest pointer file.
MANIFEST_SCHEMA = "repro.checkpoint-manifest/1"

#: File name of the manifest pointer.
MANIFEST_NAME = "MANIFEST.json"

_SNAPSHOT_RE = re.compile(r"^checkpoint-(\d{6})\.json$")


class CheckpointError(StorageError):
    """A checkpoint could not be written or validated."""


def canonical_json(payload: dict) -> str:
    """Deterministic JSON: sorted keys, fixed separators, trailing \\n.

    Every on-disk artifact of the incremental pipeline is serialized
    through this function so equal states produce equal bytes (the
    DET002 invariant, extended to files).
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def payload_checksum(state: dict) -> str:
    """sha256 over the canonical form of a snapshot's ``state`` section."""
    return hashlib.sha256(canonical_json(state).encode("utf-8")).hexdigest()


def atomic_write_text(
    path: Path,
    text: str,
    before_replace: Callable[[], None] | None = None,
) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lives next to the target (same filesystem, so the
    rename is atomic) under a deterministic ``<name>.tmp`` suffix and is
    fsynced before the rename; a crash at any point leaves the previous
    target intact.  ``before_replace`` is a test-only fault-injection
    hook fired between the temp write and the rename.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        if before_replace is not None:
            before_replace()
        os.replace(tmp, path)
    except BaseException:
        # Leave no ambiguity behind: the target is untouched and the
        # temp file is removed so a resume never reads it.
        try:
            os.unlink(tmp)
        except OSError:
            log.warning("checkpoint.tmp_unlink_failed", path=str(tmp))
        raise
    _fsync_directory(path.parent)


def atomic_write_json(
    path: Path,
    payload: dict,
    before_replace: Callable[[], None] | None = None,
) -> None:
    """Canonical-JSON variant of :func:`atomic_write_text`."""
    atomic_write_text(path, canonical_json(payload), before_replace=before_replace)


def _fsync_directory(directory: Path) -> None:
    """Best-effort directory fsync so the rename itself is durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        log.warning("checkpoint.dir_fsync_failed", path=str(directory))
    finally:
        os.close(fd)


class CheckpointStore:
    """Versioned snapshots of incremental state under one run directory.

    Parameters
    ----------
    directory:
        The run directory; created on first use.  Stray ``*.tmp`` files
        from an earlier crash are removed when the store opens.
    keep_snapshots:
        Snapshots retained after each successful save (older sequences
        are pruned).
    fault_hook:
        Test-only crash-injection callback, fired with stage names
        (``"pre-checkpoint"``, ``"mid-write"``, ``"post-write"``) at
        the matching points of :meth:`save`.
    """

    def __init__(
        self,
        directory: str | Path,
        keep_snapshots: int = 3,
        fault_hook: Callable[[str], None] | None = None,
    ) -> None:
        if keep_snapshots < 1:
            raise CheckpointError(
                f"keep_snapshots must be >= 1, got {keep_snapshots}"
            )
        self.directory = Path(directory)
        self.keep_snapshots = keep_snapshots
        self._fault_hook = fault_hook
        self.directory.mkdir(parents=True, exist_ok=True)
        self.clean_orphans()

    # -- helpers -------------------------------------------------------------

    def _fire(self, stage: str) -> None:
        if self._fault_hook is not None:
            self._fault_hook(stage)

    def snapshot_path(self, sequence: int) -> Path:
        return self.directory / f"checkpoint-{sequence:06d}.json"

    def sequences(self) -> list[int]:
        """Snapshot sequences present on disk, ascending."""
        found: list[int] = []
        for entry in self.directory.iterdir():
            match = _SNAPSHOT_RE.match(entry.name)
            if match is not None:
                found.append(int(match.group(1)))
        return sorted(found)

    def clean_orphans(self) -> int:
        """Remove ``*.tmp`` leftovers from interrupted writes."""
        removed = 0
        for entry in self.directory.glob("*.tmp"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                log.warning("checkpoint.orphan_unlink_failed", path=str(entry))
        if removed:
            log.info("checkpoint.orphans_removed", count=removed)
        return removed

    # -- save ----------------------------------------------------------------

    def save(self, state: dict, sequence: int) -> Path:
        """Write snapshot ``sequence`` and update the manifest pointer.

        The snapshot carries the schema tag, the sequence, and a
        checksum over the canonical state; the write order (snapshot
        first, manifest second, both atomic) guarantees that whatever
        the crash point, recovery finds a consistent prefix of history.
        """
        if sequence < 0:
            raise CheckpointError(f"sequence must be >= 0, got {sequence}")
        self._fire("pre-checkpoint")
        # The state is encoded once: its text is hashed, then spliced in
        # for the envelope's "state" placeholder, the last value since
        # the keys sort checksum < schema < sequence < state.
        state_text = canonical_json(state)
        envelope = canonical_json(
            {
                "schema": CHECKPOINT_SCHEMA,
                "sequence": sequence,
                "checksum": hashlib.sha256(state_text.encode("utf-8")).hexdigest(),
                "state": None,
            }
        )
        path = self.snapshot_path(sequence)
        atomic_write_text(
            path,
            envelope[: -len("null}\n")] + state_text[:-1] + "}\n",
            before_replace=lambda: self._fire("mid-write"),
        )
        self._fire("post-write")
        atomic_write_json(
            self.directory / MANIFEST_NAME,
            {
                "schema": MANIFEST_SCHEMA,
                "latest": path.name,
                "sequence": sequence,
            },
        )
        self.prune()
        log.info("checkpoint.saved", sequence=sequence, path=str(path))
        return path

    def prune(self) -> None:
        """Drop snapshots beyond the newest ``keep_snapshots``."""
        sequences = self.sequences()
        for sequence in sequences[: -self.keep_snapshots]:
            try:
                self.snapshot_path(sequence).unlink()
            except OSError:
                log.warning("checkpoint.prune_failed", sequence=sequence)

    # -- load ----------------------------------------------------------------

    def load(self, sequence: int) -> dict:
        """Load and validate one snapshot's state section."""
        path = self.snapshot_path(sequence)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
        if payload.get("schema") != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"{path}: schema {payload.get('schema')!r} != {CHECKPOINT_SCHEMA!r}"
            )
        if payload.get("sequence") != sequence:
            # A snapshot renamed or copied over another one: the file
            # name and its embedded sequence must agree.
            raise CheckpointError(
                f"{path}: embedded sequence {payload.get('sequence')!r} "
                f"does not match file name sequence {sequence}"
            )
        state = payload.get("state")
        if not isinstance(state, dict):
            raise CheckpointError(f"{path}: missing state section")
        if payload.get("checksum") != payload_checksum(state):
            raise CheckpointError(f"{path}: checksum mismatch")
        return state

    def load_latest(self) -> tuple[int, dict] | None:
        """The newest snapshot that validates, or None when none do.

        Damaged snapshots are skipped (with a log line) rather than
        aborting recovery — the supervisor then replays the batches the
        lost snapshots covered, which by the equivalence contract
        reproduces the exact same state.
        """
        for sequence in reversed(self.sequences()):
            try:
                return sequence, self.load(sequence)
            except CheckpointError as exc:
                log.warning(
                    "checkpoint.skipping_damaged",
                    sequence=sequence,
                    error=str(exc),
                )
        return None
