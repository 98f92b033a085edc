"""Admission control: bounded queues and deadline-aware load shedding.

Past saturation an unbounded serving queue converts overload into
unbounded latency: every admitted request waits behind the whole backlog,
so p99 grows without limit while throughput stays pinned at capacity.  The
production fix is to *reject early* — keep the queue depth bounded so the
requests that are admitted see bounded wait, and tell the rest to come
back later (HTTP 429/503 + ``Retry-After``) while the queue is still
cheap to check.

:class:`AdmissionController` implements two rejection rules, evaluated at
submit time before any work is queued:

* **queue bound** — at most ``max_pending`` admitted-but-unfinished
  requests.  The bound caps the wait of the *last* admitted request at
  roughly ``max_pending × service_time``, which is what keeps served p99
  flat past saturation (see the trace section of
  ``benchmarks/bench_serve.py``).
* **deadline check** — a request that arrives with a deadline it cannot
  meet given the current backlog (estimated from an EMA of recent service
  times) is rejected immediately instead of being served a guaranteed
  timeout.

Rejections raise :class:`AdmissionRejected` carrying a ``retry_after``
hint (seconds until the backlog has plausibly drained) that the HTTP
frontend maps to a ``Retry-After`` header and
:class:`~repro.serve.client.RetryingClient` honors.
"""

from __future__ import annotations

import threading
import time

__all__ = ["AdmissionController", "AdmissionRejected"]


class AdmissionRejected(RuntimeError):
    """A request was shed at admission time (queue full / hopeless deadline).

    ``reason`` is ``"queue_full"`` or ``"deadline"``; ``retry_after`` is
    the suggested client backoff in seconds.  The HTTP layer maps
    ``queue_full`` to 429 and ``deadline`` to 503.
    """

    def __init__(self, reason: str, retry_after: float, detail: str):
        super().__init__(detail)
        self.reason = reason
        self.retry_after = float(retry_after)


class AdmissionController:
    """Bounded-depth, deadline-aware admission gate for a serving queue.

    Parameters
    ----------
    max_pending:
        Maximum admitted-but-unfinished requests.  The (max_pending + 1)-th
        concurrent request is rejected with ``reason="queue_full"``.
    ema_alpha:
        Smoothing factor of the per-request service-time EMA used for the
        deadline check and the ``retry_after`` hint.
    min_retry_after / max_retry_after:
        Clamp on the ``retry_after`` hint, so a cold controller never tells
        clients to hammer (0 s) or give up (minutes).

    Usage: ``acquire()`` before enqueueing (raises :class:`AdmissionRejected`
    or returns an admission time), ``release(admitted_at)`` exactly once when
    the request finishes — success, failure, and timeout all count, since
    all of them free a queue slot.
    """

    def __init__(
        self,
        max_pending: int = 256,
        *,
        ema_alpha: float = 0.1,
        min_retry_after: float = 0.05,
        max_retry_after: float = 5.0,
    ):
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if not 0.0 < ema_alpha <= 1.0:
            raise ValueError(f"ema_alpha must be in (0, 1], got {ema_alpha}")
        self.max_pending = int(max_pending)
        self._ema_alpha = float(ema_alpha)
        self._min_retry = float(min_retry_after)
        self._max_retry = float(max_retry_after)
        self._lock = threading.Lock()
        self._pending = 0
        self._ema_service_s = 0.0
        self._admitted = 0
        self._rejected_full = 0
        self._rejected_deadline = 0
        self._completed = 0

    # ------------------------------------------------------------------
    # admission decision
    # ------------------------------------------------------------------
    def _retry_after_locked(self) -> float:
        """Seconds until the current backlog has plausibly drained."""
        estimate = self._pending * self._ema_service_s
        return min(self._max_retry, max(self._min_retry, estimate))

    def _expected_wait_locked(self) -> float:
        """Estimated queueing delay a request admitted now would see."""
        return self._pending * self._ema_service_s

    def acquire(self, deadline_s: float | None = None, n: int = 1) -> float:
        """Admit ``n`` requests at once or raise :class:`AdmissionRejected`.

        ``deadline_s`` is the request's *remaining* time budget in seconds
        (``None`` = no deadline).  Admission is all-or-nothing: the rules
        are checked for the last of the ``n`` slots, so a rejection takes
        no slot.  Returns the admission timestamp to pass back to
        :meth:`release`, once per admitted slot.
        """
        with self._lock:
            if self._pending + n > self.max_pending:
                self._rejected_full += 1
                raise AdmissionRejected(
                    "queue_full",
                    self._retry_after_locked(),
                    f"admission queue full ({self._pending}/{self.max_pending} pending)",
                )
            if deadline_s is not None and self._ema_service_s > 0.0:
                expected = self._expected_wait_locked() + n * self._ema_service_s
                if expected > deadline_s:
                    self._rejected_deadline += 1
                    raise AdmissionRejected(
                        "deadline",
                        self._retry_after_locked(),
                        f"deadline {deadline_s * 1e3:.0f} ms cannot be met "
                        f"(estimated {expected * 1e3:.0f} ms behind "
                        f"{self._pending} pending requests)",
                    )
            self._pending += n
            self._admitted += n
        return time.perf_counter()

    def release(self, admitted_at: float) -> None:
        """Mark one admitted request finished and fold in its service time."""
        elapsed = max(0.0, time.perf_counter() - admitted_at)
        with self._lock:
            self._pending = max(0, self._pending - 1)
            self._completed += 1
            if self._ema_service_s == 0.0:
                self._ema_service_s = elapsed
            else:
                alpha = self._ema_alpha
                self._ema_service_s += alpha * (elapsed - self._ema_service_s)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        with self._lock:
            return self._pending

    def retry_after(self) -> float:
        """Current client backoff hint in seconds."""
        with self._lock:
            return self._retry_after_locked()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "max_pending": self.max_pending,
                "pending": self._pending,
                "admitted": self._admitted,
                "completed": self._completed,
                "rejected_queue_full": self._rejected_full,
                "rejected_deadline": self._rejected_deadline,
                "ema_service_ms": round(self._ema_service_s * 1e3, 4),
                "retry_after_s": round(self._retry_after_locked(), 4),
            }
