"""ModelRouter: named deployments, hot-swap protocol, automatic rollback."""

import http.client
import json
import threading

import numpy as np
import pytest

from repro.models import MLP
from repro.serve import (
    HotSwapError,
    ModelRouter,
    corrupt_artifact,
    export_model,
    load_model,
    make_http_server,
)
from repro.sparse import MaskedModel
from repro.sparse.inference import compile_sparse_model

RNG = np.random.default_rng(11)


def _export(tmp_path, name: str, seed: int):
    model = MLP(20, (24,), 5, seed=seed)
    masked = MaskedModel(model, 0.9, distribution="uniform",
                         rng=np.random.default_rng(seed + 1))
    compiled = compile_sparse_model(masked)
    path = tmp_path / f"{name}.npz"
    export_model(
        compiled, path,
        model_config={
            "builder": "mlp",
            "kwargs": {"in_features": 20, "hidden": [24],
                       "num_classes": 5, "seed": seed},
        },
        preprocessing={"input_shape": [20]},
        metadata={"seed": seed},
    )
    return path


@pytest.fixture
def artifacts(tmp_path):
    return _export(tmp_path, "v1", seed=0), _export(tmp_path, "v2", seed=1)


class TestRouting:
    def test_deploy_and_predict_default(self, artifacts):
        v1, _ = artifacts
        loaded = load_model(v1)
        x = RNG.standard_normal(20).astype(np.float32)
        with ModelRouter(max_latency_ms=0.5) as router:
            report = router.deploy("clf", v1)
            assert report["generation"] == 1
            out = router.predict_one(x, timeout=30)
        assert np.array_equal(out, loaded.predict(x[None])[0])

    def test_named_routing_and_models_listing(self, artifacts):
        v1, v2 = artifacts
        with ModelRouter(max_latency_ms=0.5) as router:
            router.deploy("a", v1)
            router.deploy("b", v2)
            rows = router.models()
            assert [row["name"] for row in rows] == ["a", "b"]
            assert rows[0]["default"] and not rows[1]["default"]
            fp_a = router.resolve("a").fingerprint
            fp_b = router.resolve("b").fingerprint
            assert fp_a != fp_b
            _, deployment = router.submit(np.zeros(20, np.float32), model="b")
            assert deployment.fingerprint == fp_b

    def test_unknown_model_raises_keyerror(self, artifacts):
        v1, _ = artifacts
        with ModelRouter() as router:
            router.deploy("clf", v1)
            with pytest.raises(KeyError, match="nope"):
                router.resolve("nope")

    def test_duplicate_deploy_rejected(self, artifacts):
        v1, v2 = artifacts
        with ModelRouter() as router:
            router.deploy("clf", v1)
            with pytest.raises(ValueError, match="hot_swap"):
                router.deploy("clf", v2)


class TestHotSwap:
    def test_swap_flips_fingerprint_and_serves_new_weights(self, artifacts):
        v1, v2 = artifacts
        new_loaded = load_model(v2)
        x = RNG.standard_normal(20).astype(np.float32)
        canary = RNG.standard_normal((4, 20)).astype(np.float32)
        with ModelRouter(max_latency_ms=0.5) as router:
            router.deploy("clf", v1)
            old_fp = router.resolve("clf").fingerprint
            report = router.hot_swap("clf", v2, canary=canary)
            assert report["old_fingerprint"] == old_fp
            assert report["new_fingerprint"] == new_loaded.fingerprint
            assert router.resolve("clf").fingerprint == new_loaded.fingerprint
            out = router.predict_one(x, timeout=30)
            assert np.array_equal(out, new_loaded.predict(x[None])[0])
            assert router.stats()["swaps"] == 1

    def test_corrupt_artifact_rolls_back(self, artifacts, tmp_path):
        v1, v2 = artifacts
        bad = corrupt_artifact(v2, tmp_path / "bad.npz", seed=2)
        with ModelRouter(max_latency_ms=0.5) as router:
            router.deploy("clf", v1)
            old_fp = router.resolve("clf").fingerprint
            with pytest.raises(HotSwapError, match="old model kept"):
                router.hot_swap("clf", bad)
            # Old deployment never stopped serving.
            assert router.resolve("clf").fingerprint == old_fp
            assert router.predict_one(np.zeros(20, np.float32), timeout=30).shape == (5,)
            assert router.stats()["rollbacks"] == 1

    def test_failed_canary_rolls_back(self, artifacts):
        v1, v2 = artifacts
        canary = RNG.standard_normal((4, 20)).astype(np.float32)
        wrong_reference = np.full((4, 5), 123.0, np.float32)
        with ModelRouter(max_latency_ms=0.5) as router:
            router.deploy("clf", v1)
            old_fp = router.resolve("clf").fingerprint
            with pytest.raises(HotSwapError, match="rolled back at canary"):
                router.hot_swap("clf", v2, canary=canary,
                                canary_reference=wrong_reference)
            assert router.resolve("clf").fingerprint == old_fp
            assert router.stats()["rollbacks"] == 1

    def test_swap_of_unknown_name_is_keyerror(self, artifacts):
        v1, _ = artifacts
        with ModelRouter() as router:
            with pytest.raises(KeyError, match="deploy first"):
                router.hot_swap("clf", v1)

    def test_no_request_dropped_across_swap(self, artifacts):
        """Zero-downtime: concurrent traffic during a swap all succeeds, and
        every response matches one of the two fingerprints exactly."""
        v1, v2 = artifacts
        old_loaded, new_loaded = load_model(v1), load_model(v2)
        x = RNG.standard_normal(20).astype(np.float32)
        want_old = old_loaded.predict(x[None])[0]
        want_new = new_loaded.predict(x[None])[0]
        results: list = []
        errors: list = []
        stop = threading.Event()

        with ModelRouter(max_latency_ms=0.2) as router:
            router.deploy("clf", v1)

            def hammer():
                while not stop.is_set():
                    try:
                        future, deployment = router.submit(x)
                        results.append((deployment.fingerprint, future.result(timeout=30)))
                    except BaseException as exc:  # any drop fails the test
                        errors.append(exc)
                        return

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            router.hot_swap("clf", v2)
            stop.set()
            for thread in threads:
                thread.join()
            # Post-swap traffic must land on the new weights.
            assert np.array_equal(router.predict_one(x, timeout=30), want_new)

        assert not errors
        assert results
        for fingerprint, out in results:
            if fingerprint == old_loaded.fingerprint:
                assert np.array_equal(out, want_old)
            else:
                assert fingerprint == new_loaded.fingerprint
                assert np.array_equal(out, want_new)


class TestRequestAtomicity:
    def test_swap_between_rows_serves_the_request_from_one_version(self, artifacts):
        """A hot-swap that lands while a request's rows are being enqueued
        must not mix old and new weights under one reported fingerprint."""
        v1, v2 = artifacts
        by_fingerprint = {loaded.fingerprint: loaded for loaded in map(load_model, (v1, v2))}
        x = RNG.standard_normal((3, 20)).astype(np.float32)
        with ModelRouter() as router:
            router.deploy("clf", v1)
            old_server = router.resolve("clf").server
            preprocess = old_server.preprocessor
            calls = []

            def swap_after_first_row(batch):
                calls.append(batch)
                if len(calls) == 2:
                    router.hot_swap("clf", v2)
                return preprocess(batch)

            old_server.preprocessor = swap_after_first_row
            httpd = make_http_server(router, port=0)
            thread = threading.Thread(target=httpd.serve_forever, daemon=True)
            thread.start()
            conn = http.client.HTTPConnection("127.0.0.1", httpd.server_address[1], timeout=30)
            try:
                conn.request("POST", "/predict", json.dumps({"inputs": x.tolist()}),
                             {"Content-Type": "application/json"})
                response = conn.getresponse()
                payload = json.loads(response.read())
            finally:
                conn.close()
                httpd.shutdown()
                httpd.server_close()
        assert response.status == 200
        assert len(calls) >= 2  # the swap fired mid-request
        served = by_fingerprint[payload["fingerprint"]]
        got = np.asarray(payload["outputs"], dtype=np.float32)
        assert np.array_equal(got, served.predict(x))
