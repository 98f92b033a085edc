"""BatchingQueue: coalescing, FIFO ordering, flush policy, failure paths."""

import sys
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeout

import numpy as np
import pytest

from repro.serve import BatchingQueue


def identity_batch(batch):
    return batch


class TestBasics:
    def test_single_request_round_trips(self):
        with BatchingQueue(identity_batch, max_batch=4, max_latency_ms=1.0) as queue:
            out = queue.predict(np.array([1.0, 2.0], dtype=np.float32), timeout=5)
        assert np.array_equal(out, [1.0, 2.0])

    def test_each_request_gets_its_own_row(self):
        with BatchingQueue(identity_batch, max_batch=8, max_latency_ms=50.0) as queue:
            futures = [queue.submit(np.full(3, i, dtype=np.float32)) for i in range(8)]
            results = [future.result(timeout=5) for future in futures]
        for i, row in enumerate(results):
            assert np.array_equal(row, np.full(3, i, dtype=np.float32))

    def test_full_batch_flushes_without_waiting(self):
        seen = []

        def record(batch):
            seen.append(batch.shape[0])
            return batch

        with BatchingQueue(record, max_batch=4, max_latency_ms=10_000.0) as queue:
            futures = [queue.submit(np.zeros(2, np.float32)) for _ in range(4)]
            for future in futures:
                future.result(timeout=5)  # must flush on count, not latency
        assert seen == [4]

    def test_latency_deadline_flushes_partial_batch(self):
        with BatchingQueue(identity_batch, max_batch=64, max_latency_ms=5.0) as queue:
            start = time.perf_counter()
            out = queue.submit(np.ones(2, np.float32)).result(timeout=5)
            elapsed = time.perf_counter() - start
        assert np.array_equal(out, [1.0, 1.0])
        assert elapsed < 2.0  # flushed by the 5ms deadline, not by max_batch

    def test_oversized_wave_splits_into_max_batch_chunks(self):
        sizes = []

        def record(batch):
            sizes.append(batch.shape[0])
            return batch

        queue = BatchingQueue(record, max_batch=4, max_latency_ms=10_000.0)
        try:
            futures = [queue.submit(np.zeros(1, np.float32)) for _ in range(10)]
            queue.flush()
            for future in futures:
                future.result(timeout=5)
        finally:
            queue.close()
        assert sum(sizes) == 10
        assert all(size <= 4 for size in sizes)


class TestConcurrentOrdering:
    def test_flush_ordering_under_concurrent_clients(self):
        """Rows map back to their submitters, FIFO within every batch."""
        batches: list[np.ndarray] = []

        def tag_rows(batch):
            batches.append(batch.copy())
            return batch * 2.0

        n_clients, per_client = 8, 25
        results: dict[int, list] = {i: [] for i in range(n_clients)}
        errors: list[BaseException] = []
        with BatchingQueue(tag_rows, max_batch=16, max_latency_ms=1.0) as queue:
            barrier = threading.Barrier(n_clients)

            def client(client_id: int) -> None:
                try:
                    barrier.wait(timeout=10)
                    for i in range(per_client):
                        value = float(client_id * 1000 + i)
                        out = queue.predict(
                            np.array([value], dtype=np.float32), timeout=10
                        )
                        results[client_id].append(float(out[0]))
                except BaseException as exc:  # surface in the main thread
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(n_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert not errors
        for client_id, outs in results.items():
            expected = [float(client_id * 1000 + i) * 2.0 for i in range(per_client)]
            assert outs == expected
        # Per-client submission order is preserved inside the coalesced
        # batches: within any batch, each client's values appear ascending.
        for batch in batches:
            values = batch.reshape(-1)
            per_client_seen: dict[int, float] = {}
            for value in values:
                owner = int(value // 1000)
                assert per_client_seen.get(owner, -1.0) < value
                per_client_seen[owner] = value

    def test_mixed_shape_requests_do_not_poison_each_other(self):
        """A malformed example fails alone; coalesced neighbors still answer."""
        queue = BatchingQueue(identity_batch, max_batch=8, max_latency_ms=10_000.0)
        try:
            good = [queue.submit(np.full(3, i, dtype=np.float32)) for i in range(3)]
            odd = queue.submit(np.zeros(5, np.float32))  # different shape
            queue.flush()
            for i, future in enumerate(good):
                assert np.array_equal(future.result(timeout=5), np.full(3, i, np.float32))
            assert np.array_equal(odd.result(timeout=5), np.zeros(5, np.float32))
        finally:
            queue.close()

    def test_concurrent_clients_are_coalesced(self):
        sizes = []

        def record(batch):
            sizes.append(batch.shape[0])
            time.sleep(0.002)  # give the next wave time to queue up
            return batch

        with BatchingQueue(record, max_batch=32, max_latency_ms=1.0) as queue:
            futures = [queue.submit(np.zeros(1, np.float32)) for _ in range(64)]
            for future in futures:
                future.result(timeout=10)
        assert max(sizes) > 1  # at least some requests shared a matmul


class TestSubmitMany:
    def test_request_rows_arrive_in_one_batch_contiguous_and_in_order(self):
        """A zero window cannot interleave or split a request's rows."""
        batches: list[np.ndarray] = []
        running = threading.Event()
        gate = threading.Event()

        def gated(batch):
            running.set()
            gate.wait(timeout=10)
            batches.append(batch.reshape(-1).copy())
            return batch

        with BatchingQueue(gated, max_batch=32, max_latency_ms=0.0) as queue:
            first = queue.submit(np.array([-1.0], np.float32))
            assert running.wait(timeout=10)  # flusher busy: the rest queue up
            before = queue.submit(np.array([100.0], np.float32))
            rows = [np.array([float(i)], np.float32) for i in range(5)]
            futures = queue.submit_many(rows)
            after = queue.submit(np.array([200.0], np.float32))
            gate.set()
            for future in [first, before, *futures, after]:
                future.result(timeout=10)

        assert [b.tolist() for b in batches] == [[-1.0], [100.0, 0, 1, 2, 3, 4, 200.0]]
        for i, future in enumerate(futures):
            assert np.array_equal(future.result(), [float(i)])

    def test_concurrent_requests_stay_contiguous(self):
        batches: list[np.ndarray] = []

        def record(batch):
            batches.append(batch.reshape(-1).copy())
            return batch

        n_clients, per_client, rows = 6, 10, 4
        errors: list[BaseException] = []
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # provoke interleaving inside submit_many
        try:
            with BatchingQueue(record, max_batch=64, max_latency_ms=0.0) as queue:

                def client(client_id: int) -> None:
                    try:
                        for request in range(per_client):
                            base = client_id * 1000 + request * 10
                            examples = [np.array([base + i], np.float32) for i in range(rows)]
                            for i, future in enumerate(queue.submit_many(examples)):
                                assert future.result(timeout=10)[0] == base + i
                    except BaseException as exc:  # surface in the main thread
                        errors.append(exc)

                threads = [
                    threading.Thread(target=client, args=(i,)) for i in range(n_clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch_interval)

        assert not errors
        seen = 0
        for batch in batches:
            assert len(batch) % rows == 0
            for start in range(0, len(batch), rows):
                request = batch[start:start + rows]
                assert request.tolist() == [request[0] + i for i in range(rows)]
            seen += len(batch)
        assert seen == n_clients * per_client * rows

    def test_submit_is_submit_many_of_one(self):
        def affine(batch):
            return batch * 3.0 + 1.0

        x = np.array([0.5, -2.0], np.float32)
        with BatchingQueue(affine, max_batch=4, max_latency_ms=0.0) as queue:
            single = queue.submit(x).result(timeout=5)
            (many,) = queue.submit_many([x])
            many = many.result(timeout=5)
            stats = queue.stats()
        assert np.array_equal(single, affine(x[None])[0])
        assert np.array_equal(many, single)
        assert stats["requests"] == 2

    def test_submit_many_on_closed_queue_enqueues_nothing(self):
        queue = BatchingQueue(identity_batch, max_latency_ms=0.0)
        queue.close()
        with pytest.raises(RuntimeError, match="closed"):
            queue.submit_many([np.zeros(1, np.float32)] * 3)
        assert queue.stats()["requests"] == 0


class TestLifecycleAndErrors:
    def test_batch_fn_error_propagates_to_batch_members(self):
        def explode(batch):
            raise ValueError("bad batch")

        with BatchingQueue(explode, max_batch=2, max_latency_ms=1.0) as queue:
            futures = [queue.submit(np.zeros(1, np.float32)) for _ in range(2)]
            for future in futures:
                with pytest.raises(ValueError, match="bad batch"):
                    future.result(timeout=5)

    def test_queue_survives_a_failing_batch(self):
        calls = {"n": 0}

        def flaky(batch):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("first batch dies")
            return batch

        with BatchingQueue(flaky, max_batch=1, max_latency_ms=0.0) as queue:
            with pytest.raises(RuntimeError):
                queue.predict(np.zeros(1, np.float32), timeout=5)
            out = queue.predict(np.ones(1, np.float32), timeout=5)
        assert np.array_equal(out, [1.0])

    def test_wrong_row_count_is_an_error(self):
        with BatchingQueue(lambda batch: batch[:-1], max_batch=2,
                           max_latency_ms=1.0) as queue:
            futures = [queue.submit(np.zeros(1, np.float32)) for _ in range(2)]
            with pytest.raises(RuntimeError, match="rows"):
                futures[0].result(timeout=5)

    def test_close_serves_pending_then_rejects_new(self):
        release = threading.Event()

        def slow(batch):
            release.wait(timeout=5)
            return batch

        queue = BatchingQueue(slow, max_batch=1, max_latency_ms=0.0)
        future = queue.submit(np.ones(1, np.float32))
        closer = threading.Thread(target=queue.close)
        closer.start()
        release.set()
        closer.join(timeout=5)
        assert np.array_equal(future.result(timeout=5), [1.0])
        with pytest.raises(RuntimeError, match="closed"):
            queue.submit(np.zeros(1, np.float32))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="max_batch"):
            BatchingQueue(identity_batch, max_batch=0)
        with pytest.raises(ValueError, match="max_latency_ms"):
            BatchingQueue(identity_batch, max_latency_ms=-1.0)

    def test_stats_counts_requests_and_batches(self):
        with BatchingQueue(identity_batch, max_batch=4, max_latency_ms=1.0) as queue:
            futures = [queue.submit(np.zeros(1, np.float32)) for _ in range(4)]
            for future in futures:
                future.result(timeout=5)
            stats = queue.stats()
        assert stats["requests"] == 4
        assert stats["batches"] >= 1
        assert stats["latency_ms_p99"] >= stats["latency_ms_p50"] >= 0.0


class TestSheddingAndTimeouts:
    def test_abandoned_future_is_skipped_at_dispatch(self):
        """A cancelled entry's row is never computed: batch_fn sees only
        the surviving requests, and the shed counter records the skip."""
        seen_rows = []

        def record(batch):
            seen_rows.append(len(batch))
            return batch

        # The latency window is far longer than this test: the flusher
        # dispatches only when the batch is FULL, i.e. after the third
        # submit — so the cancel in between is guaranteed to precede it.
        with BatchingQueue(record, max_batch=3, max_latency_ms=2000.0) as queue:
            keep_a = queue.submit(np.ones(1, np.float32))
            gone = queue.submit(np.full(1, 2.0, np.float32))
            assert gone.cancel()
            keep_b = queue.submit(np.full(1, 3.0, np.float32))
            assert np.array_equal(keep_a.result(timeout=5), [1.0])
            assert np.array_equal(keep_b.result(timeout=5), [3.0])
            stats = queue.stats()
        assert seen_rows == [2]  # the cancelled row was dropped pre-stack
        assert stats["shed"] == 1
        assert stats["requests"] == 2

    def test_predict_timeout_counts_and_cancels(self):
        release = threading.Event()
        entered = threading.Event()

        def stuck(batch):
            entered.set()
            release.wait(timeout=5)
            return batch

        queue = BatchingQueue(stuck, max_batch=8, max_latency_ms=0.0)
        try:
            # One request occupies the flusher; a second queues behind it,
            # is abandoned by its caller, and must be shed at dispatch.
            first = queue.submit(np.zeros(1, np.float32))
            assert entered.wait(timeout=5)  # flusher holds a 1-row batch
            with pytest.raises(FutureTimeout):
                queue.predict(np.zeros(1, np.float32), timeout=0.05)
            assert queue.stats()["timeouts"] == 1
            release.set()
            first.result(timeout=5)
        finally:
            release.set()
            queue.close()
        stats = queue.stats()
        assert stats["timeouts"] == 1
        assert stats["shed"] == 1
        assert stats["requests"] == 1

    def test_fully_cancelled_batch_runs_nothing(self):
        calls = []
        release = threading.Event()

        def gated(batch):
            release.wait(timeout=5)
            calls.append(len(batch))
            return batch

        with BatchingQueue(gated, max_batch=1, max_latency_ms=0.0) as queue:
            blocker = queue.submit(np.zeros(1, np.float32))
            doomed = queue.submit(np.zeros(1, np.float32))
            assert doomed.cancel()
            release.set()
            blocker.result(timeout=5)
            stats = queue.stats()
        assert calls == [1]  # only the blocker's batch ever ran
        assert stats["shed"] == 1
