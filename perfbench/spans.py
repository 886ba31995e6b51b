"""Benchmark-side tracing: spans recorded around calls into each layer.

Nothing here edits the program.  Spans come from

* a forwarding proxy around each shard backend's ``query`` (layer
  ``sieve``, ``genomics`` or ``cluster`` by backend kind),
* the subarray simulator's public ``match_all`` / ``load_query_batch``,
  replaced on the class for the traced pass only,
* instance-level wrappers of ``SeedExtender.extend`` and
  ``SeedIndex.candidates``,
* the benchmark's own calls to ``submit`` / ``submit_mapping`` and its
  load-generator ticks,
* the service's public observer seam (:mod:`repro.service.hooks`):
  admission and batch-execution events give queue wait and a
  ``service.batch`` span from batch launch to its last answer,
* a selector wrapper on the benchmark's event loop (``loop.idle``).

The service runs on one thread with ``executor_threads=0`` and no span
is open across an ``await``, so spans nest as a call stack.  A span's
self time is its duration minus its direct children's durations.
"""

from __future__ import annotations

import bisect
import json
import selectors
import time
from typing import Any, Dict, List, Optional, Tuple

_NOW = time.perf_counter_ns

#: Backend layer name per ``capabilities().kind``.
BACKEND_LAYER = {
    "sieve": "sieve",
    "host-sorted-array": "genomics",
    "host-sorted-array-mmap": "genomics",
    "multiprocess-consistent-hash": "cluster",
}


class SpanRecorder:
    """In-memory span list: (name, start_ns, end_ns, parent, req_id, units)."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        self.active = False

    def begin(self, name: str, req_id: Optional[int] = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, _NOW(), 0, parent, req_id, 0])
        self._stack.append(index)
        return index

    def end(self, index: int, units: int = 0) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(
                f"span {self.spans[index][0]!r} closed out of order"
            )
        self._stack.pop()
        span = self.spans[index]
        span[2] = _NOW()
        span[5] = units

    def open_spans(self) -> List[str]:
        return [self.spans[i][0] for i in self._stack]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, req_id, units in self.spans:
                out.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "req_id": req_id,
                            "units": units,
                        }
                    )
                    + "\n"
                )


def _spin_until(deadline_ns: int) -> None:
    while _NOW() < deadline_ns:
        pass


class LayerProxy:
    """Forwarding proxy for a shard backend.

    ``query`` is timed (when a recorder is active) and optionally
    stretched by ``slow`` (a known-factor slowdown of ``sieve`` for the
    instrument self-test); every other attribute — ``capabilities``,
    ``perf_counters``, ``batch_cost``, ``stats``, ``cluster_stats`` —
    is the wrapped backend's own, unchanged.
    """

    def __init__(
        self, inner: Any, recorder: Optional[SpanRecorder], slow: float
    ) -> None:
        self._inner = inner
        self._recorder = recorder
        self._slow = slow
        self._span = BACKEND_LAYER[inner.capabilities().kind] + ".query"

    def query(self, kmers, **kwargs):
        rec = self._recorder
        index = rec.begin(self._span) if rec is not None and rec.active else None
        start = _NOW()
        try:
            return self._inner.query(kmers, **kwargs)
        finally:
            if self._slow != 1.0:
                _spin_until(start + int((_NOW() - start) * self._slow))
            if index is not None:
                rec.end(index, len(kmers))

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


def _timed(recorder: SpanRecorder, name: str, fn, units_of):
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        index = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        recorder.spans[index][5] = units_of(args, result)
        return result

    return wrapper


class TracedPass:
    """Context manager installing every span source for one pass."""

    def __init__(self, recorder: SpanRecorder, extender: Any = None) -> None:
        self.recorder = recorder
        self.extender = extender
        self.observer = ServiceObserver(recorder)
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "TracedPass":
        from repro.service import hooks
        from repro.sieve.functional import SieveSubarraySim

        if hooks.get_observer() is not None:
            raise RuntimeError("another service observer is installed")
        rec = self.recorder
        for attr, units in (
            ("match_all", lambda args, result: len(result)),
            ("load_query_batch", lambda args, result: len(args[1])),
        ):
            original = getattr(SieveSubarraySim, attr)
            self._saved.append((SieveSubarraySim, attr, original))
            setattr(
                SieveSubarraySim, attr, _timed(rec, "sieve." + attr, original, units)
            )
        if self.extender is not None:
            ext = self.extender
            ext.extend = _timed(
                rec, "mapping.extend", ext.extend, lambda args, result: 1
            )
            index = ext.seed_index
            index.candidates = _timed(
                rec,
                "mapping.candidates",
                index.candidates,
                lambda args, result: len(result),
            )
        hooks.install(self.observer)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        from repro.service import hooks

        hooks.uninstall()
        for owner, attr, original in self._saved:
            setattr(owner, attr, original)
        self._saved.clear()
        if self.extender is not None:
            del self.extender.extend
            del self.extender.seed_index.candidates


class ServiceObserver:
    """Subscribes to :mod:`repro.service.hooks` for queue wait and
    ``service.batch`` spans (launch to last answer of a batch)."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.admitted_ns: Dict[Tuple[int, int], int] = {}
        self.queue_wait_ns: List[int] = []
        self._batch: Optional[int] = None
        self._outstanding = 0

    def on_request_admitted(self, scope, shard_id, req_id, num_kmers) -> None:
        self.admitted_ns[(id(scope), req_id)] = _NOW()

    def on_batch_executed(self, scope, shard_id, index, req_ids, total) -> None:
        now = _NOW()
        key = id(scope)
        for rid in req_ids:
            self.queue_wait_ns.append(now - self.admitted_ns.pop((key, rid)))
        if self.recorder.active:
            self._batch = self.recorder.begin("service.batch")
            self._outstanding = len(req_ids)

    def on_request_completed(self, scope, shard_id, req_id, num_kmers) -> None:
        if self._batch is None:
            return
        self._outstanding -= 1
        if self._outstanding == 0:
            self.recorder.end(self._batch)
            self._batch = None

    # The seam calls these unconditionally; the benchmark needs none.
    def on_batch_coalesced(self, *args) -> None:
        pass

    def on_request_expired(self, *args) -> None:
        pass

    def on_request_failed(self, *args) -> None:
        pass

    def on_requests_orphaned(self, *args) -> None:
        pass

    def on_service_quiesce(self, *args) -> None:
        pass


class IdleSelector(selectors.DefaultSelector):
    """Event-loop selector whose waits are recorded as ``loop.idle``."""

    recorder: Optional[SpanRecorder] = None

    def select(self, timeout=None):
        rec = self.recorder
        if rec is None or not rec.active:
            return super().select(timeout)
        index = rec.begin("loop.idle")
        try:
            return super().select(timeout)
        finally:
            rec.end(index)


def self_times(spans: List[List[Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: count, total duration, self time (ns) and units."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: Dict[str, Dict[str, float]] = {}
    for i, (name, start, end, parent, _, units) in enumerate(spans):
        row = out.setdefault(
            name, {"count": 0, "total_ns": 0, "self_ns": 0, "units": 0}
        )
        row["count"] += 1
        row["total_ns"] += end - start
        row["self_ns"] += end - start - child_ns[i]
        row["units"] += units
    return out


def top_level_ns(spans: List[List[Any]]) -> int:
    """Summed duration of parentless spans."""
    return sum(end - start for _, start, end, parent, _, _ in spans if parent < 0)


def accounting_errors(
    spans: List[List[Any]], windows: List[Tuple[int, int]], limit: int = 5
) -> List[str]:
    """Ways the spans fail to tile the measured time (at most ``limit``).

    A parentless span must lie inside one measured window and overlap
    no other parentless span; a child must lie inside its parent.  When
    none fails, self times plus the unattributed remainder (window time
    no parentless span covers, never negative) add up to the windows'
    total exactly.
    """
    errors: List[str] = []
    ordered = sorted(windows)
    window_starts = [start for start, _ in ordered]
    roots = sorted(
        (start, end, name)
        for name, start, end, parent, _, _ in spans if parent < 0
    )
    previous_end = None
    for start, end, name in roots:
        w = bisect.bisect_right(window_starts, start) - 1
        if w < 0 or end > ordered[w][1]:
            errors.append(f"{name} [{start}, {end}] lies outside every measured window")
        if previous_end is not None and start < previous_end:
            errors.append(f"{name} [{start}, {end}] overlaps the span before it")
        previous_end = end if previous_end is None else max(previous_end, end)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0 and not spans[parent][1] <= start <= end <= spans[parent][2]:
            errors.append(f"{name} [{start}, {end}] reaches outside its parent")
    return errors[:limit]
