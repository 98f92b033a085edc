"""AdmissionController: bounded queue, deadline rejection, retry hints."""

import time

import pytest

from repro.serve import AdmissionController, AdmissionRejected


class TestQueueBound:
    def test_admits_up_to_max_pending(self):
        ctl = AdmissionController(max_pending=3)
        tokens = [ctl.acquire() for _ in range(3)]
        assert ctl.pending == 3
        with pytest.raises(AdmissionRejected) as info:
            ctl.acquire()
        assert info.value.reason == "queue_full"
        assert info.value.retry_after > 0
        for token in tokens:
            ctl.release(token)
        assert ctl.pending == 0
        ctl.acquire()  # slots freed, admits again

    def test_rejection_does_not_leak_slots(self):
        ctl = AdmissionController(max_pending=1)
        token = ctl.acquire()
        for _ in range(5):
            with pytest.raises(AdmissionRejected):
                ctl.acquire()
        ctl.release(token)
        assert ctl.pending == 0

    def test_multi_slot_acquire_is_all_or_nothing(self):
        ctl = AdmissionController(max_pending=3)
        token = ctl.acquire()
        with pytest.raises(AdmissionRejected) as info:
            ctl.acquire(n=3)  # two slots free: takes none of them
        assert info.value.reason == "queue_full"
        assert ctl.pending == 1
        batch = ctl.acquire(n=2)
        assert ctl.pending == 3
        for at in (token, batch, batch):
            ctl.release(at)
        snap = ctl.snapshot()
        assert (snap["pending"], snap["admitted"], snap["completed"]) == (0, 3, 3)
        assert snap["rejected_queue_full"] == 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="max_pending"):
            AdmissionController(max_pending=0)
        with pytest.raises(ValueError, match="ema_alpha"):
            AdmissionController(ema_alpha=0.0)


class TestDeadline:
    def test_hopeless_deadline_rejected_once_ema_warm(self):
        ctl = AdmissionController(max_pending=100, ema_alpha=1.0)
        # Warm the EMA with a ~20 ms service time.
        token = ctl.acquire()
        time.sleep(0.02)
        ctl.release(token)
        # Build a backlog so expected wait dwarfs a 1 ms deadline.
        backlog = [ctl.acquire() for _ in range(10)]
        with pytest.raises(AdmissionRejected) as info:
            ctl.acquire(deadline_s=0.001)
        assert info.value.reason == "deadline"
        # A generous deadline is still admitted.
        ctl.release(ctl.acquire(deadline_s=60.0))
        for token in backlog:
            ctl.release(token)

    def test_cold_controller_never_deadline_rejects(self):
        ctl = AdmissionController(max_pending=4)
        # No completed request yet -> no EMA -> no basis to reject.
        ctl.release(ctl.acquire(deadline_s=1e-9))


class TestIntrospection:
    def test_snapshot_counts(self):
        ctl = AdmissionController(max_pending=2, min_retry_after=0.01)
        first = ctl.acquire()
        second = ctl.acquire()
        with pytest.raises(AdmissionRejected):
            ctl.acquire()
        ctl.release(first)
        ctl.release(second)
        snap = ctl.snapshot()
        assert snap["admitted"] == 2
        assert snap["completed"] == 2
        assert snap["rejected_queue_full"] == 1
        assert snap["rejected_deadline"] == 0
        assert snap["pending"] == 0
        assert snap["ema_service_ms"] >= 0
        assert snap["retry_after_s"] >= 0.01

    def test_retry_after_clamped(self):
        ctl = AdmissionController(max_pending=1, min_retry_after=0.2, max_retry_after=0.5)
        assert 0.2 <= ctl.retry_after() <= 0.5
