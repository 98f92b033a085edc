"""Dynamic micro-batching: coalesce concurrent requests into one matmul.

A single-example CSR product pays fixed per-call overhead (Python dispatch,
scipy setup) that dwarfs the arithmetic at request size 1; stacking the
examples of concurrent requests into one ``(B, features)`` batch amortizes
that overhead across B requests, which is where the serving-side speedup of
sparse inference actually comes from (see ``benchmarks/bench_serve.py``).

:class:`BatchingQueue` implements the standard two-knob policy: a flush is
triggered by whichever comes first of ``max_batch`` pending requests or the
oldest request reaching ``max_latency_ms``.  Requests are dispatched in
strict FIFO submission order, results are delivered through per-request
futures, and a failing batch propagates its exception to exactly the
requests that were in it.

The default window, :data:`DEFAULT_MAX_LATENCY_MS`, is zero: the flusher
takes whatever queued while the previous batch ran, so coalescing under
load is unchanged and an idle server adds no wait.  A multi-example
request enters through :meth:`BatchingQueue.submit_many`, which appends its
rows contiguously under one lock, so a zero window never splits it behind
another request's rows.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout  # builtin alias only on 3.11+
from dataclasses import dataclass, field

import numpy as np

__all__ = ["DEFAULT_MAX_LATENCY_MS", "BatchingQueue", "BatchingStats"]

# The serving default of every entrypoint (Server, ModelRouter, the serve CLI).
DEFAULT_MAX_LATENCY_MS = 0.0


@dataclass
class BatchingStats:
    """Counters and latency percentiles of one queue (snapshot via ``stats``).

    ``timeouts`` counts callers that gave up waiting (``predict`` /
    ``predict_one`` timeouts cancel their future); ``shed`` counts entries
    whose future was already cancelled when the flusher reached them — the
    abandoned rows that were skipped instead of computed and copied.
    """

    requests: int = 0
    batches: int = 0
    max_observed_batch: int = 0
    timeouts: int = 0
    shed: int = 0
    latencies_ms: list = field(default_factory=list, repr=False)

    @property
    def mean_batch_size(self) -> float:
        return self.requests / self.batches if self.batches else 0.0

    def percentile(self, q: float) -> float:
        """Latency percentile (ms) over the retained window, 0.0 when empty."""
        if not self.latencies_ms:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies_ms), q))

    def snapshot(self) -> dict:
        return {
            "requests": self.requests,
            "batches": self.batches,
            "mean_batch_size": round(self.mean_batch_size, 3),
            "max_observed_batch": self.max_observed_batch,
            "timeouts": self.timeouts,
            "shed": self.shed,
            "latency_ms_p50": round(self.percentile(50), 4),
            "latency_ms_p99": round(self.percentile(99), 4),
        }


class _Pending:
    __slots__ = ("payload", "future", "submitted_at")

    def __init__(self, payload, future, submitted_at):
        self.payload = payload
        self.future = future
        self.submitted_at = submitted_at


class BatchingQueue:
    """Coalesce concurrent single-example requests into batched calls.

    Parameters
    ----------
    batch_fn:
        ``(np.ndarray of shape (B, ...)) -> array-like of leading dim B``.
        Called on the flusher thread with examples stacked in submission
        order; row ``i`` of the result resolves the ``i``-th request of the
        batch.
    max_batch:
        Flush as soon as this many requests are pending.
    max_latency_ms:
        Flush when the oldest pending request has waited this long, even if
        the batch is not full.  Above zero it only helps bursts that arrive
        while the flusher is idle; at zero a batch holds whatever queued
        while the previous one ran.
    latency_window:
        Number of most-recent per-request latencies retained for the
        p50/p99 statistics.
    """

    def __init__(
        self,
        batch_fn,
        max_batch: int = 32,
        max_latency_ms: float = DEFAULT_MAX_LATENCY_MS,
        latency_window: int = 4096,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_latency_ms < 0:
            raise ValueError(f"max_latency_ms must be >= 0, got {max_latency_ms}")
        self._batch_fn = batch_fn
        self.max_batch = int(max_batch)
        self.max_latency_s = float(max_latency_ms) / 1e3
        self._pending: deque[_Pending] = deque()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._closed = False
        self._force_flush = False
        self._stats = BatchingStats()
        self._latency_window = int(latency_window)
        self._thread = threading.Thread(target=self._run, name="repro-batching", daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def submit(self, example) -> Future:
        """Enqueue one example; the future resolves to its output row."""
        return self.submit_many([example])[0]

    def submit_many(self, examples) -> list[Future]:
        """Enqueue a request's examples contiguously, in order, under one lock.

        One future per example; the flusher is woken once.
        """
        submitted_at = time.perf_counter()
        entries = [_Pending(example, Future(), submitted_at) for example in examples]
        with self._wakeup:
            if self._closed:
                raise RuntimeError("BatchingQueue is closed")
            self._pending.extend(entries)
            self._wakeup.notify()
        return [entry.future for entry in entries]

    def predict(self, example, timeout: float | None = None):
        """Blocking convenience wrapper around :meth:`submit`.

        On timeout the future is cancelled before re-raising: the flusher
        skips cancelled entries at dispatch, so an abandoned request's row
        is never computed and copied for a caller that already left.
        """
        future = self.submit(example)
        try:
            return future.result(timeout=timeout)
        except FutureTimeout:
            if future.cancel():
                with self._lock:
                    self._stats.timeouts += 1
            raise

    def flush(self) -> None:
        """Dispatch whatever is pending without waiting for the batch window."""
        with self._wakeup:
            self._force_flush = True
            self._wakeup.notify_all()

    def close(self) -> None:
        """Stop accepting requests; pending ones are still served."""
        with self._wakeup:
            if self._closed:
                return
            self._closed = True
            self._wakeup.notify_all()
        self._thread.join()

    def __enter__(self) -> "BatchingQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> dict:
        with self._lock:
            return self._stats.snapshot()

    # ------------------------------------------------------------------
    # flusher thread
    # ------------------------------------------------------------------
    def _take_batch(self) -> list[_Pending]:
        """Block until a flush condition holds, then pop up to max_batch."""
        with self._wakeup:
            while True:
                if self._pending:
                    full = len(self._pending) >= self.max_batch
                    if full or self._closed or self._force_flush:
                        break
                    deadline = self._pending[0].submitted_at + self.max_latency_s
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    self._wakeup.wait(timeout=remaining)
                else:
                    self._force_flush = False
                    if self._closed:
                        return []
                    self._wakeup.wait()
            if len(self._pending) <= self.max_batch:
                self._force_flush = False
            taken = [
                self._pending.popleft()
                for _ in range(min(self.max_batch, len(self._pending)))
            ]
            return taken

    def _dispatch(self, taken: list[_Pending]) -> None:
        """Run one homogeneous batch and resolve (or fail) its futures.

        Entries whose future was cancelled while queued (caller timed out
        and left) are shed here, *before* stacking: their rows are neither
        computed nor copied.  ``set_running_or_notify_cancel`` atomically
        claims the survivors, closing the race against a late ``cancel``.
        """
        live = [entry for entry in taken if entry.future.set_running_or_notify_cancel()]
        if len(live) != len(taken):
            with self._lock:
                self._stats.shed += len(taken) - len(live)
        if not live:
            return
        taken = live
        try:
            batch = np.stack([np.asarray(entry.payload) for entry in taken])
            outputs = np.asarray(self._batch_fn(batch))
            if outputs.shape[0] != len(taken):
                raise RuntimeError(
                    f"batch_fn returned {outputs.shape[0]} rows for a "
                    f"batch of {len(taken)} requests"
                )
        except BaseException as exc:  # propagate to exactly this batch
            for entry in taken:
                entry.future.set_exception(exc)
            return
        done = time.perf_counter()
        # Stats first: a client that waits on its future and immediately
        # reads stats() must see the batch that served it.
        with self._lock:
            stats = self._stats
            stats.requests += len(taken)
            stats.batches += 1
            stats.max_observed_batch = max(stats.max_observed_batch, len(taken))
            stats.latencies_ms.extend((done - entry.submitted_at) * 1e3 for entry in taken)
            if len(stats.latencies_ms) > self._latency_window:
                del stats.latencies_ms[: -self._latency_window]
        for index, entry in enumerate(taken):
            entry.future.set_result(np.array(outputs[index], copy=True))

    def _run(self) -> None:
        while True:
            taken = self._take_batch()
            if not taken:
                return
            # One malformed example must not fail the innocent requests it
            # happened to coalesce with: split by example shape, so each
            # homogeneous sub-batch succeeds or fails on its own.
            by_shape: dict[tuple, list[_Pending]] = {}
            for entry in taken:
                by_shape.setdefault(np.asarray(entry.payload).shape, []).append(entry)
            for group in by_shape.values():
                self._dispatch(group)
