"""ServingPool: shared weight arena, worker equality, failure isolation."""

import numpy as np
import pytest

from repro.models import MLP
from repro.parallel import fork_available
from repro.serve import ServingPool, export_model, load_model, share_model_weights
from repro.sparse import MaskedModel
from repro.sparse.inference import SparseLinear, compile_sparse_model

RNG = np.random.default_rng(3)

needs_fork = pytest.mark.skipif(not fork_available(), reason="requires os.fork")


@pytest.fixture
def artifact_path(tmp_path):
    model = MLP(30, (48, 48), 6, seed=0)
    masked = MaskedModel(model, 0.95, distribution="uniform",
                         rng=np.random.default_rng(1))
    compiled = compile_sparse_model(masked)
    path = tmp_path / "model.npz"
    export_model(
        compiled, path,
        model_config={
            "builder": "mlp",
            "kwargs": {"in_features": 30, "hidden": [48, 48],
                       "num_classes": 6, "seed": 0},
        },
        preprocessing={"input_shape": [30]},
    )
    return path


class TestArena:
    def test_views_are_read_only_and_preserve_values(self, artifact_path):
        loaded = load_model(artifact_path)
        x = RNG.standard_normal((4, 30)).astype(np.float32)
        before = loaded.predict(x)
        arena = share_model_weights(loaded.model)
        assert arena is not None
        try:
            layer = next(
                m for m in loaded.model.modules() if isinstance(m, SparseLinear)
            )
            for key in ("data", "indices", "indptr"):
                assert not getattr(layer.matmul, key).flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                layer.matmul.data[0] = 42.0
            assert np.array_equal(loaded.predict(x), before)
        finally:
            arena.close()

    def test_dense_model_has_no_arena(self):
        arena = share_model_weights(MLP(8, (8,), 2, seed=0))
        assert arena is None


class TestPool:
    @needs_fork
    def test_workers_match_in_process_predictions(self, artifact_path):
        loaded = load_model(artifact_path)
        x = RNG.standard_normal((8, 30)).astype(np.float32)
        expected = loaded.predict(x)
        with ServingPool(artifact_path, n_workers=2) as pool:
            assert np.array_equal(pool.predict(x, timeout=30), expected)

    @needs_fork
    def test_many_concurrent_requests(self, artifact_path):
        loaded = load_model(artifact_path)
        batches = [RNG.standard_normal((3, 30)).astype(np.float32) for _ in range(12)]
        expected = [loaded.predict(batch) for batch in batches]
        with ServingPool(artifact_path, n_workers=2) as pool:
            futures = [pool.submit(batch) for batch in batches]
            results = [future.result(timeout=30) for future in futures]
        for got, want in zip(results, expected):
            assert np.array_equal(got, want)

    @needs_fork
    def test_bad_request_fails_only_itself(self, artifact_path):
        with ServingPool(artifact_path, n_workers=2) as pool:
            bad = pool.submit(np.zeros((2, 7), np.float32))  # wrong shape
            good = pool.submit(np.zeros((2, 30), np.float32))
            with pytest.raises(RuntimeError, match="serving worker failed"):
                bad.result(timeout=30)
            assert good.result(timeout=30).shape == (2, 6)

    def test_in_process_fallback(self, artifact_path):
        loaded = load_model(artifact_path)
        x = RNG.standard_normal((5, 30)).astype(np.float32)
        with ServingPool(artifact_path, n_workers=0) as pool:
            assert np.array_equal(pool.predict(x), loaded.predict(x))

    def test_negative_workers_rejected(self, artifact_path):
        with pytest.raises(ValueError, match="n_workers"):
            ServingPool(artifact_path, n_workers=-1)

    @needs_fork
    def test_closed_pool_rejects_requests(self, artifact_path):
        pool = ServingPool(artifact_path, n_workers=1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(np.zeros((1, 30), np.float32))

    @needs_fork
    def test_caller_model_survives_pool_close(self, artifact_path):
        """close() must un-share the weights, not leave dangling arena views."""
        loaded = load_model(artifact_path)
        x = RNG.standard_normal((4, 30)).astype(np.float32)
        before = loaded.predict(x)
        with ServingPool(loaded, n_workers=2) as pool:
            pool.predict(x, timeout=30)
        # The arena is unmapped now; the caller's model must still work and
        # still produce identical predictions from private copies.
        assert np.array_equal(loaded.predict(x), before)
        layer = next(m for m in loaded.model.modules() if isinstance(m, SparseLinear))
        assert layer.matmul.data.flags.writeable  # private again, not a view

class TestSupervision:
    """Worker deaths are survived, not propagated: restart, re-dispatch, degrade."""

    @needs_fork
    def test_sigkill_restores_full_capacity(self, artifact_path):
        import os
        import signal
        import time

        with ServingPool(artifact_path, n_workers=2) as pool:
            pool.predict(np.zeros((1, 30), np.float32), timeout=30)  # warm
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            deadline = time.monotonic() + 10
            snap = pool.snapshot()
            while time.monotonic() < deadline and not (
                snap["restarts"] == 1 and snap["live_workers"] == 2
            ):
                time.sleep(0.02)
                snap = pool.snapshot()
            assert snap["live_workers"] == 2, snap
            assert snap["deaths"] == 1 and snap["restarts"] == 1, snap
            # The restarted worker serves from the same read-only arena.
            out = pool.predict(np.zeros((1, 30), np.float32), timeout=30)
            assert out.shape == (1, 6)

    @needs_fork
    def test_sigkill_mid_request_results_bitwise_equal(self, artifact_path):
        """Requests held by a SIGKILLed worker are re-dispatched and must
        produce exactly the bytes a fault-free run produces."""
        import os
        import signal

        loaded = load_model(artifact_path)
        rng = np.random.default_rng(7)
        batches = [rng.standard_normal((3, 30)).astype(np.float32) for _ in range(24)]
        expected = [loaded.predict(batch) for batch in batches]
        with ServingPool(artifact_path, n_workers=2) as pool:
            victim = pool.worker_pids()[0]
            futures = [pool.submit(batch) for batch in batches]
            os.kill(victim, signal.SIGKILL)  # dies holding in-flight requests
            results = [future.result(timeout=30) for future in futures]
        for got, want in zip(results, expected):
            assert np.array_equal(got, want)

    @needs_fork
    def test_exhausted_restart_budget_degrades_to_in_process(self, artifact_path):
        import os
        import signal
        import time

        loaded = load_model(artifact_path)
        x = np.zeros((2, 30), np.float32)
        with ServingPool(artifact_path, n_workers=1, max_restarts=0) as pool:
            pool.predict(x, timeout=30)  # warm
            with pytest.warns(RuntimeWarning, match="degrading to in-process"):
                os.kill(pool.worker_pids()[0], signal.SIGKILL)
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline and not pool.degraded:
                    time.sleep(0.02)
            assert pool.degraded
            # Traffic keeps flowing on the caller's thread, same answers.
            assert np.array_equal(pool.predict(x, timeout=30), loaded.predict(x))
            assert pool.snapshot()["restarts"] == 0

    @needs_fork
    def test_garbage_on_response_pipe_is_a_worker_death(self, artifact_path):
        """A SIGKILL can land mid-``send``, so the parent's recv sees a
        complete frame holding truncated pickle bytes — UnpicklingError,
        not EOFError.  The supervisor must declare that worker dead (the
        stream's framing is unrecoverable) instead of crashing its
        receive loop and stranding every later response."""
        import multiprocessing
        import time

        from repro.serve.pool import _WorkerHandle

        class _StubProcess:
            pid = -1

            def join(self, timeout=None):
                pass

            def is_alive(self):
                return False

            def kill(self):
                pass

        loaded = load_model(artifact_path)
        x = RNG.standard_normal((3, 30)).astype(np.float32)
        with ServingPool(artifact_path, n_workers=1) as pool:
            pool.predict(x, timeout=30)  # warm: supervisor loop is live
            recv_r, recv_w = multiprocessing.Pipe(duplex=False)
            send_r, send_w = multiprocessing.Pipe(duplex=False)
            fake = _WorkerHandle(99, _StubProcess(), send_w, recv_r)
            with pool._lock:
                pool._workers.append(fake)
            recv_w.send_bytes(b"\x00\x00 not a pickle")  # framed garbage
            pool._wake_w.send_bytes(b"x")  # re-poll with the fake included
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and fake.alive:
                time.sleep(0.02)
            assert not fake.alive, "garbage message must count as a death"
            assert pool.snapshot()["deaths"] >= 1
            # The receive loop survived: the real worker still answers.
            assert np.array_equal(pool.predict(x, timeout=30), loaded.predict(x))
            for conn in (recv_w, send_r):
                conn.close()
