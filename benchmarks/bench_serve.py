"""Serving benchmark: latency/throughput of the compiled sparse serve path.

Measures, per sparsity, on an exported-then-reloaded artifact (so the
numbers include the real deployment path, not an in-memory shortcut):

* **unbatched** — sequential single-request ``predict`` calls: requests/sec
  plus per-request latency p50/p99.  This is the naive serving baseline.
* **batched** — the same request stream issued by concurrent client
  threads through the :class:`~repro.serve.BatchingQueue`
  (``max_batch``/``max_latency_ms`` coalescing): requests/sec and queue
  latency percentiles.  The batched/unbatched ratio is the headline
  serving win — batching amortizes the fixed per-call overhead (layer
  dispatch, one ``csr_matvecs`` call per layer).
* **direct_batch** — whole-batch ``predict`` at several batch sizes: the
  upper bound batching converges to as batches fill.
* **artifact** — export/load wall time and on-disk size.
* **pool** — multi-process :class:`~repro.serve.ServingPool` A/B against
  in-process serving (honest numbers: on a single-core container the pool
  adds IPC overhead without adding cores; set ``REPRO_SERVE_POOL=0`` to
  skip).
* **trace** — a heavy-tailed request trace against the resilient fleet
  (:class:`~repro.serve.ModelRouter` + admission control + supervised
  pool): seeded Poisson arrivals with hot-key skew, replayed at 1× and 2×
  the measured saturation rate, with a mid-run hot-swap and one worker
  SIGKILL injected.  Reports availability (served / (served + failed),
  clean sheds excluded) and the served p50/p99 — the gate asserts
  availability stays ≥ 99.9% under the fault schedule and that admission
  control keeps served p99 at 2× saturation within 1.5× of p99 at
  saturation (bounded queue ⇒ flat tail past the knee).  Set
  ``REPRO_SERVE_TRACE=0`` to skip.

Machine-readable JSON goes to ``BENCH_serve.json`` at the repo root; the
committed smoke baseline lives in
``benchmarks/results/BENCH_serve_smoke_baseline.json`` and is what
``scripts/check_bench_regression.py`` gates CI against.

Run with::

    PYTHONPATH=src REPRO_SCALE=medium python benchmarks/bench_serve.py
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import tempfile
import threading
import time
from concurrent.futures import wait as futures_wait

import numpy as np

from repro.experiments.configs import get_scale
from repro.models import MLP
from repro.parallel import fork_available
from repro.serve import (
    AdmissionController,
    AdmissionRejected,
    ModelRouter,
    Server,
    ServingPool,
    export_model,
    load_model,
)
from repro.sparse import MaskedModel
from repro.sparse.inference import compile_sparse_model, sparse_storage_bytes

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_serve.json"

SPARSITIES = (0.9, 0.95, 0.98)

# Model and request-volume grid per REPRO_SCALE.  The batching knobs are
# fixed (max_batch=32, max_latency_ms=2) — production-shaped defaults.
_CONFIGS = {
    "small": dict(
        in_features=256,
        hidden=(256, 256),
        num_classes=10,
        unbatched_requests=40,
        clients=8,
        per_client=25,
        batch_sizes=(8, 32),
        direct_iters=6,
        trace_requests=240,
    ),
    "medium": dict(
        in_features=784,
        hidden=(512, 512),
        num_classes=10,
        unbatched_requests=100,
        clients=8,
        per_client=50,
        batch_sizes=(8, 32),
        direct_iters=10,
        trace_requests=400,
    ),
    "full": dict(
        in_features=784,
        hidden=(1024, 1024),
        num_classes=10,
        unbatched_requests=150,
        clients=16,
        per_client=50,
        batch_sizes=(8, 32, 64),
        direct_iters=10,
        trace_requests=600,
    ),
}

MAX_BATCH = 32
MAX_LATENCY_MS = 2.0
# Throughputs are the best of ROUNDS rounds: one round lasts ~5-10 ms,
# about one or two of the interpreter's 5 ms thread switch intervals, and
# shared-box noise only ever slows a round down.
ROUNDS = 10

# Trace-section knobs: one sparsity point, a tight admission bound (about
# one coalesced batch of backlog), and a 90/10 hot/cold key split.
TRACE_SPARSITY = 0.95
TRACE_MAX_PENDING = 32
TRACE_HOT_KEYS = 4
TRACE_COLD_KEYS = 32
TRACE_HOT_FRACTION = 0.9


def build_artifact(
    config: dict, sparsity: float, directory: pathlib.Path, seed: int = 0
) -> dict:
    """Compile + export one model; return artifact info and the path."""
    model = MLP(config["in_features"], config["hidden"], config["num_classes"], seed=seed)
    masked = MaskedModel(
        model, sparsity, distribution="uniform", rng=np.random.default_rng(seed + 1)
    )
    compiled = compile_sparse_model(masked)
    csr_bytes, dense_bytes = sparse_storage_bytes(compiled)
    path = directory / f"model_{sparsity:g}_seed{seed}.npz"
    start = time.perf_counter()
    export_model(
        compiled,
        path,
        model_config={
            "builder": "mlp",
            "kwargs": {
                "in_features": config["in_features"],
                "hidden": list(config["hidden"]),
                "num_classes": config["num_classes"],
                "seed": seed,
            },
        },
        preprocessing={"input_shape": [config["in_features"]]},
        metadata={"sparsity": sparsity, "bench": True, "seed": seed},
    )
    export_ms = (time.perf_counter() - start) * 1e3
    start = time.perf_counter()
    loaded = load_model(path)
    load_ms = (time.perf_counter() - start) * 1e3
    return {
        "path": path,
        "loaded": loaded,
        "info": {
            "file_kib": round(path.stat().st_size / 1024, 1),
            "csr_kib": round(csr_bytes / 1024, 1),
            "dense_kib": round(dense_bytes / 1024, 1),
            "export_ms": round(export_ms, 2),
            "load_ms": round(load_ms, 2),
        },
    }


def _example(config: dict, seed: int = 2) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(config["in_features"]).astype(np.float32)


def bench_unbatched(loaded, config: dict) -> dict:
    """Sequential request-at-a-time serving (no queue)."""
    server = Server(loaded, batching=False)
    example = _example(config)
    requests = config["unbatched_requests"]
    for _ in range(5):
        server.predict_one(example)
    best = float("inf")
    latencies: list[float] = []
    for _ in range(ROUNDS):
        chunk: list[float] = []
        start = time.perf_counter()
        for _ in range(requests):
            t0 = time.perf_counter()
            server.predict_one(example)
            chunk.append((time.perf_counter() - t0) * 1e3)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best, latencies = elapsed, chunk
    server.close()
    return {
        "requests_per_sec": round(requests / best, 2),
        "latency_ms_p50": round(float(np.percentile(latencies, 50)), 4),
        "latency_ms_p99": round(float(np.percentile(latencies, 99)), 4),
    }


def bench_batched(loaded, config: dict, closed_loop: bool) -> dict:
    """Concurrent clients through the micro-batching queue.

    ``closed_loop=False`` (the headline number) models heavy traffic:
    every client keeps its requests in flight and collects the responses
    afterwards, so the queue coalesces full batches.  ``closed_loop=True``
    models request-response clients that wait for each answer before
    sending the next — with few clients the queue can only ever coalesce
    ``clients`` requests, so this is the batching worst case.
    """
    server = Server(loaded, max_batch=MAX_BATCH, max_latency_ms=MAX_LATENCY_MS)
    example = _example(config)
    clients = config["clients"]
    per_client = config["per_client"]
    errors: list[BaseException] = []

    def client(barrier: threading.Barrier) -> None:
        try:
            barrier.wait(timeout=30)
            if closed_loop:
                for _ in range(per_client):
                    server.predict_one(example, timeout=30)
            else:
                futures = [server.submit(example) for _ in range(per_client)]
                for future in futures:
                    future.result(timeout=30)
        except BaseException as exc:
            errors.append(exc)

    best = float("inf")
    for _ in range(ROUNDS):
        barrier = threading.Barrier(clients + 1)
        threads = [threading.Thread(target=client, args=(barrier,)) for _ in range(clients)]
        for thread in threads:
            thread.start()
        barrier.wait(timeout=30)
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        best = min(best, time.perf_counter() - start)
    stats = server.stats()
    server.close()
    if errors:
        raise errors[0]
    total = clients * per_client
    return {
        "clients": clients,
        "closed_loop": closed_loop,
        "requests_per_sec": round(total / best, 2),
        "mean_batch_size": stats["mean_batch_size"],
        "latency_ms_p50": stats["latency_ms_p50"],
        "latency_ms_p99": stats["latency_ms_p99"],
    }


def bench_direct_batches(loaded, config: dict) -> dict:
    """Whole-batch predict at fixed batch sizes (the amortization ceiling)."""
    server = Server(loaded, batching=False)
    section: dict[str, float] = {}
    rng = np.random.default_rng(4)
    for batch_size in config["batch_sizes"]:
        batch = rng.standard_normal((batch_size, config["in_features"])).astype(np.float32)
        server.predict(batch)  # warmup
        best = float("inf")
        for _ in range(config["direct_iters"]):
            start = time.perf_counter()
            server.predict(batch)
            best = min(best, time.perf_counter() - start)
        section[str(batch_size)] = round(batch_size / best, 2)
    server.close()
    return section


def bench_pool(path, config: dict) -> dict | None:
    """ServingPool(2 workers) vs in-process, batch-32 request stream."""
    if os.environ.get("REPRO_SERVE_POOL", "1") == "0" or not fork_available():
        return None
    rng = np.random.default_rng(5)
    batch = rng.standard_normal((32, config["in_features"])).astype(np.float32)
    requests = 12

    def timed(pool: ServingPool) -> float:
        pool.predict(batch)  # warmup + worker spin-up
        start = time.perf_counter()
        futures = [pool.submit(batch) for _ in range(requests)]
        for future in futures:
            future.result(timeout=60)
        return time.perf_counter() - start

    with ServingPool(path, n_workers=0) as inproc:
        serial_seconds = timed(inproc)
    with ServingPool(path, n_workers=2) as pool:
        pool_seconds = timed(pool)
        arena_kib = pool.arena.nbytes / 1024 if pool.arena is not None else 0.0
    return {
        "n_workers": 2,
        "inprocess_seconds": round(serial_seconds, 4),
        "pool_seconds": round(pool_seconds, 4),
        "speedup": round(serial_seconds / pool_seconds, 3),
        "arena_kib": round(arena_kib, 1),
        "cores": os.cpu_count(),
    }


def _trace_examples(config: dict, seed: int = 6) -> tuple[np.ndarray, np.ndarray]:
    """(hot, cold) request payload pools for the skewed trace."""
    rng = np.random.default_rng(seed)
    hot = rng.standard_normal((TRACE_HOT_KEYS, config["in_features"])).astype(np.float32)
    cold = rng.standard_normal((TRACE_COLD_KEYS, config["in_features"])).astype(np.float32)
    return hot, cold


def _measure_saturation(router: ModelRouter, example: np.ndarray, n: int = 160) -> float:
    """Flood throughput of the serving path (requests/sec at capacity).

    The flood runs in waves of half the admission bound so the probe
    itself is never shed — it measures capacity, not the rejection path.
    """
    for _ in range(8):
        router.predict_one(example, timeout=30)
    wave = max(1, TRACE_MAX_PENDING // 2)
    start = time.perf_counter()
    done = 0
    while done < n:
        futures = [router.submit(example)[0] for _ in range(min(wave, n - done))]
        for future in futures:
            future.result(timeout=60)
        done += len(futures)
    return n / (time.perf_counter() - start)


def _replay_trace(
    router: ModelRouter,
    config: dict,
    *,
    rate: float,
    seed: int,
    swap_to: pathlib.Path | None,
    kill_worker: bool,
) -> dict:
    """Replay one seeded Poisson/hot-key trace at ``rate`` requests/sec.

    A hot-swap is started 40% through the trace and one pool worker is
    SIGKILLed 60% through (where forked workers exist) — the faults land
    while the arrival process keeps running, exactly like production.
    """
    n = config["trace_requests"]
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, size=n)
    hot, cold = _trace_examples(config)
    hot_draw = rng.random(n)
    hot_index = rng.integers(0, len(hot), size=n)
    cold_index = rng.integers(0, len(cold), size=n)
    swap_at = int(n * 0.4) if swap_to is not None else -1
    kill_at = int(n * 0.6) if kill_worker else -1

    lock = threading.Lock()
    served_latencies: list[float] = []
    failed = [0]
    shed = 0
    futures = []
    swap_thread = None
    killed = False

    start = time.perf_counter()
    target = start
    for i in range(n):
        target += gaps[i]
        delay = target - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        if i == swap_at:
            swap_thread = threading.Thread(target=router.hot_swap, args=("trace", swap_to))
            swap_thread.start()
        if i == kill_at:
            pool = router.resolve("trace").pool
            pids = pool.worker_pids() if pool is not None else []
            if pids:
                os.kill(pids[0], signal.SIGKILL)
                killed = True
        if hot_draw[i] < TRACE_HOT_FRACTION:
            example = hot[hot_index[i]]
        else:
            example = cold[cold_index[i]]
        t_submit = time.perf_counter()
        try:
            future, _ = router.submit(example)
        except AdmissionRejected:
            shed += 1
            continue

        def _on_done(f, t0=t_submit):
            t1 = time.perf_counter()
            with lock:
                if f.cancelled() or f.exception() is not None:
                    failed[0] += 1
                else:
                    served_latencies.append((t1 - t0) * 1e3)

        future.add_done_callback(_on_done)
        futures.append(future)
    futures_wait(futures, timeout=60)
    elapsed = time.perf_counter() - start
    if swap_thread is not None:
        swap_thread.join(timeout=60)
    with lock:
        served = len(served_latencies)
        n_failed = failed[0]
        latencies = np.asarray(served_latencies, dtype=np.float64)
    answered = served + n_failed
    availability = served / answered if answered else 1.0
    return {
        "offered": n,
        "served": served,
        "shed": shed,
        "failed": n_failed,
        "availability": round(availability, 6),
        "target_rps": round(rate, 1),
        "achieved_rps": round(answered / elapsed, 1) if elapsed > 0 else 0.0,
        "served_p50_ms": round(float(np.percentile(latencies, 50)), 3) if served else 0.0,
        "served_p99_ms": round(float(np.percentile(latencies, 99)), 3) if served else 0.0,
        "hot_swapped": swap_at >= 0,
        "worker_killed": killed,
    }


def bench_trace(directory: pathlib.Path, config: dict) -> dict | None:
    """Heavy-tailed trace vs the resilient fleet, at 1× and 2× saturation."""
    if os.environ.get("REPRO_SERVE_TRACE", "1") == "0":
        return None
    v1 = build_artifact(config, TRACE_SPARSITY, directory, seed=0)
    v2 = build_artifact(config, TRACE_SPARSITY, directory, seed=1)
    pool_workers = 2 if fork_available() else 0
    admission = AdmissionController(max_pending=TRACE_MAX_PENDING)
    router = ModelRouter(
        max_batch=MAX_BATCH,
        max_latency_ms=MAX_LATENCY_MS,
        pool_workers=pool_workers,
        admission=admission,
    )
    try:
        router.deploy("trace", v1["path"])
        hot, _ = _trace_examples(config)
        saturation = _measure_saturation(router, hot[0])
        # 1× at the knee (swap v1→v2 mid-run), 2× past it (swap back).
        run_1x = _replay_trace(
            router,
            config,
            rate=saturation,
            seed=8,
            swap_to=v2["path"],
            kill_worker=True,
        )
        run_2x = _replay_trace(
            router,
            config,
            rate=2.0 * saturation,
            seed=9,
            swap_to=v1["path"],
            kill_worker=True,
        )
    finally:
        router.close()
    p99_floor = max(run_1x["served_p99_ms"], 1e-3)
    return {
        "sparsity": f"{TRACE_SPARSITY:g}",
        "pool_workers": pool_workers,
        "max_pending": TRACE_MAX_PENDING,
        "hot_fraction": TRACE_HOT_FRACTION,
        "saturation_rps": round(saturation, 1),
        "runs": {"1x": run_1x, "2x": run_2x},
        "availability_min": min(run_1x["availability"], run_2x["availability"]),
        "p99_ratio_2x_vs_1x": round(run_2x["served_p99_ms"] / p99_floor, 3),
        "admission": admission.snapshot(),
    }


def run() -> dict:
    scale = get_scale()
    config = _CONFIGS[scale.name]
    result: dict = {
        "schema": 1,
        "scale": scale.name,
        "cores": os.cpu_count(),
        "model": {
            "in_features": config["in_features"],
            "hidden": list(config["hidden"]),
            "num_classes": config["num_classes"],
        },
        "max_batch": MAX_BATCH,
        "max_latency_ms": MAX_LATENCY_MS,
        "sparsities": [f"{s:g}" for s in SPARSITIES],
        "artifact": {},
        "unbatched": {},
        "batched": {},
        "batched_closed_loop": {},
        "direct_batch": {},
        "speedup_batched_vs_unbatched": {},
        "pool": {},
        "trace": None,
    }
    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        for sparsity in SPARSITIES:
            key = f"{sparsity:g}"
            built = build_artifact(config, sparsity, directory)
            result["artifact"][key] = built["info"]
            loaded = built["loaded"]

            unbatched = bench_unbatched(loaded, config)
            result["unbatched"][key] = unbatched
            print(
                f"[unbatched] s={key}: {unbatched['requests_per_sec']:.0f} req/s "
                f"(p50 {unbatched['latency_ms_p50']:.2f} ms, "
                f"p99 {unbatched['latency_ms_p99']:.2f} ms)"
            )

            batched = bench_batched(loaded, config, closed_loop=False)
            result["batched"][key] = batched
            speedup = batched["requests_per_sec"] / unbatched["requests_per_sec"]
            result["speedup_batched_vs_unbatched"][key] = round(speedup, 3)
            print(
                f"[batched  ] s={key}: {batched['requests_per_sec']:.0f} req/s "
                f"({speedup:.2f}x unbatched, mean batch "
                f"{batched['mean_batch_size']:.1f}, p99 "
                f"{batched['latency_ms_p99']:.2f} ms)"
            )

            closed = bench_batched(loaded, config, closed_loop=True)
            result["batched_closed_loop"][key] = closed
            print(
                f"[closed   ] s={key}: {closed['requests_per_sec']:.0f} req/s "
                f"(mean batch {closed['mean_batch_size']:.1f})"
            )

            direct = bench_direct_batches(loaded, config)
            result["direct_batch"][key] = direct
            print(f"[direct   ] s={key}: " + json.dumps(direct) + " examples/s")

            pool = bench_pool(built["path"], config)
            if pool is not None:
                result["pool"][key] = pool
                print(
                    f"[pool     ] s={key}: {pool['speedup']:.2f}x vs in-process "
                    f"({pool['n_workers']} workers, {pool['cores']} cores, "
                    f"arena {pool['arena_kib']:.0f} KiB)"
                )

        trace = bench_trace(directory, config)
        if trace is not None:
            result["trace"] = trace
            for label, run_info in trace["runs"].items():
                print(
                    f"[trace {label}] avail {run_info['availability']:.4f} "
                    f"({run_info['served']} served, {run_info['shed']} shed, "
                    f"{run_info['failed']} failed) p99 "
                    f"{run_info['served_p99_ms']:.2f} ms @ "
                    f"{run_info['achieved_rps']:.0f} req/s"
                )
            print(
                f"[trace    ] saturation {trace['saturation_rps']:.0f} req/s, "
                f"availability_min {trace['availability_min']:.4f}, "
                f"p99 2x/1x ratio {trace['p99_ratio_2x_vs_1x']:.2f}"
            )

    OUTPUT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print(f"[written to {OUTPUT_PATH}]")
    return result


if __name__ == "__main__":
    run()
