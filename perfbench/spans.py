"""In-memory spans around the program's public calls (traced runs only).

:class:`SpanRecorder` replaces chosen functions and methods of the
program with wrappers that record one span per call — name, start, end,
parent span and run id — and restores the originals afterwards.  Nothing
under ``src/`` changes; an untraced run never installs a wrapper.

Spans started on a worker thread of the program's pool inherit the span
that submitted the work, so a stage's children include the extractor
and resource calls its workers made.  A layer's self time is its span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from collections.abc import Callable

#: Resource labels as the program names them -> the benchmark's names.
RESOURCE_NAMES = {
    "google": "google",
    "wordnet_hypernyms": "wordnet",
    "wikipedia_graph": "wiki_graph",
    "wikipedia_synonyms": "wiki_synonyms",
    "composite": "composite",
}

EXTRACTOR_NAMES = {"NE": "ne", "Yahoo": "yahoo", "Wikipedia": "wikipedia"}


class SpanRecorder:
    """Collects spans in memory; :meth:`records` writes them out."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self._spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.targets: list[str] = []
        self.missing: list[str] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def _traced(
        self,
        fn: Callable,
        name: str | Callable[[tuple], str],
        count: Callable[[tuple, object], float] | None,
    ) -> Callable:
        spans = self._spans
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else 0
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            amount = 0.0
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    amount = count(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                label = name if isinstance(name, str) else name(args)
                spans.append((span_id, label, parent, start, end, amount))

        return wrapper

    # -- patching --------------------------------------------------------------

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Replace ``owner.attr`` (function, method or classmethod) with a
        span-recording wrapper.

        A name the program no longer has is listed in :attr:`missing`;
        :func:`check_wrapped` then fails the run, so the layer's time
        cannot silently read as zero.
        """
        target = f"{getattr(owner, '__name__', owner)}.{attr}"
        self.targets.append(target)
        namespace = owner.__dict__ if isinstance(owner, type) else vars(owner)
        raw = namespace.get(attr)
        if raw is None:
            self.missing.append(target)
            return
        if isinstance(raw, classmethod):
            replacement = classmethod(self._traced(raw.__func__, name, count))
        else:
            replacement = self._traced(raw, name, count)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def wrap_pool(self, owner, attr: str = "map_chunks") -> None:
        """Make chunks run on pool threads inherit the submitting span."""
        target = f"{owner.__name__}.{attr}"
        self.targets.append(target)
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(target)
            return
        recorder = self

        @functools.wraps(original)
        def map_chunks(fn, chunks, config=None, *args, **kwargs):
            if config is not None and config.backend == "process":
                return original(fn, chunks, config, *args, **kwargs)
            parent = recorder.current()

            def inherit(chunk):
                stack = recorder._stack()
                if stack:
                    return fn(chunk)
                stack.append(parent)
                try:
                    return fn(chunk)
                finally:
                    stack.pop()

            return original(inherit, chunks, config, *args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, map_chunks)

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis --------------------------------------------------------------

    def records(self) -> list[dict]:
        return [
            {
                "run": self.run_id,
                "id": span_id,
                "name": name,
                "parent": parent,
                "start": start,
                "end": end,
                "count": amount,
            }
            for span_id, name, parent, start, end, amount in self._spans
        ]

    def summary(self) -> "SpanSummary":
        return SpanSummary(list(self._spans))


def check_wrapped(outcome, recorder: SpanRecorder) -> None:
    """One correctness check per call the traced run meant to wrap.

    A wrap target the program no longer has (renamed or moved) fails the
    run: otherwise its layer would report no time and read as a gain.
    """
    for target in recorder.targets:
        outcome.check(
            target not in recorder.missing,
            f"traced call {target} is no longer in the program",
        )


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


class SpanSummary:
    """Totals, self times and attribution over a list of spans."""

    def __init__(self, spans: list[tuple]) -> None:
        self.spans = spans
        self.by_id = {span[0]: span for span in spans}
        self.children: dict[int, list[tuple]] = defaultdict(list)
        for span in spans:
            self.children[span[2]].append(span)

    def _has_ancestor(self, span: tuple, test: Callable[[str], bool]) -> bool:
        parent = self.by_id.get(span[2])
        while parent is not None:
            if test(parent[1]):
                return True
            parent = self.by_id.get(parent[2])
        return False

    def ancestor_name(self, span: tuple, test: Callable[[str], bool]) -> str | None:
        parent = self.by_id.get(span[2])
        while parent is not None:
            if test(parent[1]):
                return parent[1]
            parent = self.by_id.get(parent[2])
        return None

    def outermost(self, name: str) -> list[tuple]:
        """Spans called ``name`` that are not nested in another such span."""
        return [
            span
            for span in self.spans
            if span[1] == name and not self._has_ancestor(span, name.__eq__)
        ]

    def total(self, name: str) -> float:
        return sum(span[4] - span[3] for span in self.outermost(name))

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[1] == name)

    def amount(self, name: str) -> float:
        return sum(span[5] for span in self.outermost(name))

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus what children cover."""
        total = 0.0
        for span in self.outermost(name):
            intervals = [(c[3], c[4]) for c in self.children.get(span[0], [])]
            total += (span[4] - span[3]) - _covered(intervals, span[3], span[4])
        return total
