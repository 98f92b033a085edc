"""Serving workload: an exported 95% MLP behind the ``serve`` CLI over HTTP.

The benchmark exports a 784-512-512-10 MLP at 95% sparsity, starts
``python -m repro.experiments.cli serve`` in a child process with its
default batching and admission settings, and drives it open-loop: seeded
Poisson arrivals at a few fixed absolute rates, sent over two persistent
HTTP/1.1 connections (the box has two cores) by the standard library's
``http.client`` with its default settings, as an ordinary client would.
A request that finds both connections busy waits in the generator, and its
latency is timed from the moment it was due, so a stall shows in every
request behind it.

Under keep-alive the server currently writes each reply's headers and body
in two sends with Nagle's algorithm on, so the body waits for the client's
delayed ACK (about 40 ms on Linux) and a connection completes only about
20 requests a second.  The benchmark measures that as it is: it sets the
latency and the capacity this workload reports, and a fix will show there.

The mix is seeded: most requests carry one example, a fixed share carry
32.  Every answer is checked after its phase: a 200 must carry the
artifact's fingerprint and outputs bitwise equal to
``load_model(path).predict`` on the same inputs; any other status, and
any timeout, is a failure.
"""

from __future__ import annotations

import http.client
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench.checks import check_served

from repro.models.mlp import MLP
from repro.serve import export_model, load_model
from repro.sparse import MaskedModel

__all__ = ["RATES", "measure"]

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Fixed absolute arrival rates (requests/s), never fractions of a measured
# capacity, with the share of the run's seconds each phase gets.  Over two
# keep-alive connections the server completes about 42 req/s on a 2-core
# box (each request waits about 40 ms for a delayed ACK, see above).
# Latency is reported at the middle rate, 10 req/s, a quarter of that
# capacity, so queueing in the generator barely touches the median, and
# requests on one connection are far enough apart that only 5-10% of them
# meet the stall (it shows in the p99, not the p50).  It
# runs first, so the server's /stats window describes it alone.  The last
# rate overloads the server by far, also once the stall is fixed (the knee
# without it is 250-300 req/s): the completions per second it achieves are
# the workload's throughput.
PHASES = ((10, 0.55), (5, 0.15), (1000, 0.15))
MIDDLE_RATE = 10
OVERLOAD_RATE = 1000
RATES = tuple(sorted(rate for rate, _ in PHASES))
# The share of 32-example requests is above 1%, so the latency p99 falls
# among them and describes the large-request path (JSON parsing and
# serialisation), while the p50 stays on the single-example path and the
# large requests add little load.
BIG_SHARE = 0.02
BIG_SIZE = 32
CONNECTIONS = 2
# A rate is sustained when its p99 (timed from due time) meets this limit,
# every request was sent on time and none failed.
P99_LIMIT_MS = 200.0
REQUEST_TIMEOUT_S = 10.0
SERVER_STARTS = 5
SERVER_CPU = 1
CLIENT_CPU = 0
IN_FEATURES = 784
HIDDEN = (512, 512)


@dataclass
class Request:
    due: float
    size: int
    payload: int
    sent: float = 0.0
    done: float = 0.0
    status: int | None = None
    raw: bytes = b""
    failure: str | None = None
    server_ms: float = float("nan")

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def lag_ms(self) -> float:
        return (self.sent - self.due) * 1e3


@dataclass
class Phase:
    rate: int
    requests: list[Request]
    unsent: int = 0
    start: float = 0.0
    stats: dict = field(default_factory=dict)

    @property
    def sent(self) -> list[Request]:
        return [r for r in self.requests if r.sent]

    def latencies(self, size: int | None = None) -> list[float]:
        return [r.latency_ms for r in self.sent if size is None or r.size == size]

    def p99_ms(self) -> float:
        return float(np.percentile(self.latencies(), 99))

    def completions_per_s(self) -> float:
        """Correct answers per second from the phase's start to its last answer."""
        done = [r.done for r in self.sent if not r.failure]
        return len(done) / (max(done) - self.start) if done else 0.0

    def sustained(self) -> bool:
        sent = self.sent
        if self.unsent or any(r.failure for r in sent):
            return False
        tail = sent[-max(1, len(sent) // 4):]
        backlog = statistics.median(r.lag_ms for r in tail)
        return self.p99_ms() <= P99_LIMIT_MS and backlog <= P99_LIMIT_MS


# ----------------------------------------------------------------------
# artifact and server
# ----------------------------------------------------------------------
def export_artifact(directory: pathlib.Path) -> pathlib.Path:
    """Export the served model: a fixed-seed MLP with a 95% sparse mask."""
    model = MLP(IN_FEATURES, HIDDEN, 10, seed=0)
    masked = MaskedModel(model, 0.95, distribution="uniform", rng=np.random.default_rng(1))
    return export_model(
        masked,
        directory / "mlp95.npz",
        model_config={
            "builder": "mlp",
            "kwargs": {"in_features": IN_FEATURES, "hidden": list(HIDDEN),
                       "num_classes": 10, "seed": 0},
        },
        preprocessing={"input_shape": [IN_FEATURES]},
        metadata={"sparsity": 0.95},
    )


def _pin(pid: int, cpu: int) -> None:
    """Pin a process (0: the calling thread and the threads it starts) to one CPU.

    The server and the load generator each get a core of their own.  Left
    to the scheduler, a run's median latency read either about 7 ms or
    about 11 ms, depending on where the processes landed.
    """
    if (os.cpu_count() or 1) >= 2:
        os.sched_setaffinity(pid, {cpu})


class ServerProcess:
    """The ``serve`` CLI in a child process on an ephemeral port."""

    def __init__(self, artifact: pathlib.Path):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED="1")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.cli", "serve",
             "--artifact", str(artifact), "--port", "0"],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            _pin(self.proc.pid, SERVER_CPU)
            self.port = self._read_port()
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        for line in self.proc.stdout:
            if line.startswith("serving on http://"):
                return int(line.split()[2].rsplit(":", 1)[1])
        raise RuntimeError(f"server exited with {self.proc.wait()} before listening")

    def _wait_healthy(self) -> None:
        deadline = time.perf_counter() + 30.0
        while True:
            try:
                status, _ = get_json(self.port, "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("server did not become healthy")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def get_json(port: int, path: str) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------
@dataclass
class Payloads:
    """Seeded request bodies and their reference outputs.

    The first ``singles`` carry one example each, the rest BIG_SIZE.
    """

    bodies: list[bytes]
    references: list[np.ndarray]
    singles: int


def make_payloads(rng: np.random.Generator, loaded, singles: int = 64, bigs: int = 8) -> Payloads:
    inputs = [rng.standard_normal((1, IN_FEATURES)).astype(np.float32) for _ in range(singles)]
    inputs += [rng.standard_normal((BIG_SIZE, IN_FEATURES)).astype(np.float32)
               for _ in range(bigs)]
    bodies = [json.dumps({"inputs": x.tolist()}).encode() for x in inputs]
    references = [loaded.predict(x) for x in inputs]
    return Payloads(bodies, references, singles)


def schedule(rng: np.random.Generator, rate: int, seconds: float, payloads: Payloads):
    """Poisson arrival offsets with a seeded size mix.

    Exactly BIG_SHARE of the requests (at least one) carry BIG_SIZE
    examples, at seeded positions, so every phase measures both sizes.
    """
    dues = []
    due = rng.exponential(1.0 / rate)
    while due < seconds:
        dues.append(due)
        due += rng.exponential(1.0 / rate)
    big = set(rng.choice(len(dues), max(1, round(BIG_SHARE * len(dues))), replace=False).tolist())
    requests = []
    for position, due in enumerate(dues):
        if position in big:
            index = payloads.singles + int(rng.integers(len(payloads.bodies) - payloads.singles))
        else:
            index = int(rng.integers(payloads.singles))
        requests.append(Request(due=due, size=BIG_SIZE if position in big else 1, payload=index))
    return requests


def post(conn: http.client.HTTPConnection, body: bytes) -> tuple[int, bytes]:
    """POST one request on a persistent connection; return status and body."""
    conn.request("POST", "/predict", body, {"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def drive(port: int, phase: Phase, payloads: Payloads, seconds: float) -> float:
    """Send the phase's requests on time, at most CONNECTIONS at once.

    Each sender keeps one keep-alive connection for the whole phase
    (``http.client`` opens it again after an error or a server close).
    Requests still unsent well after the phase should have ended are left
    unsent (the rate then counts as not sustained) so overload cannot
    stretch the run; under the overload rate sending stops when the
    phase's seconds are up.  Returns the phase's start time.
    """
    start = time.perf_counter() + 0.02
    grace = 0.0 if phase.rate == OVERLOAD_RATE else seconds * 0.5 + 1.0
    cutoff = start + seconds + grace
    for request in phase.requests:
        request.due += start
    cursor = iter(phase.requests)
    lock = threading.Lock()
    unsent = [0]

    def worker():
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
        try:
            while True:
                with lock:
                    request = next(cursor, None)
                if request is None:
                    return
                now = time.perf_counter()
                if now > cutoff:
                    with lock:
                        unsent[0] += 1
                    continue
                if request.due > now:
                    time.sleep(request.due - now)
                request.sent = time.perf_counter()
                try:
                    request.status, request.raw = post(conn, payloads.bodies[request.payload])
                except (OSError, http.client.HTTPException):
                    request.status = None
                    conn.close()
                request.done = time.perf_counter()
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.unsent = unsent[0]
    return start


def check_phase(phase: Phase, payloads: Payloads, fingerprint: str) -> None:
    """Mark every sent request with why it failed (None when correct)."""
    for request in phase.sent:
        raw, request.raw = request.raw, b""
        body = None
        if request.status == 200:
            try:
                body = json.loads(raw)
                request.server_ms = float(body["latency_ms"])
            except (ValueError, KeyError, TypeError):
                request.failure = "malformed 200 body"
                continue
        request.failure = check_served(
            request.status, body, fingerprint, payloads.references[request.payload]
        )


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def _start_servers(artifact: pathlib.Path) -> tuple[ServerProcess, list[float]]:
    """Start the server SERVER_STARTS times; keep the last one running."""
    times = []
    server = None
    for _ in range(SERVER_STARTS):
        if server is not None:
            server.stop()
        began = time.perf_counter()
        server = ServerProcess(artifact)
        times.append(time.perf_counter() - began)
    return server, times


def _timed_predict(loaded, x: np.ndarray, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        began = time.perf_counter()
        loaded.predict(x)
        times.append(time.perf_counter() - began)
    return statistics.median(times) * 1e3


def measure(seed: int, seconds: float, trace: bool) -> tuple[dict, list[str], int, int]:
    """Run every rate phase.

    Returns the end-to-end metrics (per-layer ones with ``trace``), the
    check failures, and the number of requests attempted and failed.
    """
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    server = None
    try:
        export_began = time.perf_counter()
        artifact = export_artifact(workdir)
        export_s = time.perf_counter() - export_began
        loaded = load_model(artifact)
        rng = np.random.default_rng(seed)
        payloads = make_payloads(rng, loaded)
        _pin(0, CLIENT_CPU)
        server, start_times = _start_servers(artifact)
        warm = Phase(0, schedule(rng, 20, 0.5, payloads))
        drive(server.port, warm, payloads, 0.5)
        phases = []
        for rate, share in PHASES:
            phase = Phase(rate, schedule(rng, rate, seconds * share, payloads))
            phase.start = drive(server.port, phase, payloads, seconds * share)
            if rate == MIDDLE_RATE:
                phase.stats = get_json(server.port, "/stats")[1]
            phases.append(phase)
        peak_rss_mb = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    for phase in [warm, *phases]:
        check_phase(phase, payloads, loaded.fingerprint)
    failures = [
        f"rate {phase.rate}: request due at {r.due:.3f} failed: {r.failure}"
        for phase in [warm, *phases] for r in phase.sent if r.failure
    ]
    by_rate = {phase.rate: phase for phase in phases}
    middle = by_rate[MIDDLE_RATE]
    attempted = sum(len(phase.sent) for phase in phases)
    correct = sum(1 for phase in phases for r in phase.sent if not r.failure)
    attempted_all = attempted + len(warm.sent)
    _describe(phases, start_times, export_s)
    if trace:
        metrics = layer_metrics(phases, middle, loaded, rng)
    else:
        metrics = {
            "throughput_per_s": by_rate[OVERLOAD_RATE].completions_per_s(),
            "latency_p50_ms": float(np.percentile(middle.latencies(), 50)),
            "correct_share": correct / attempted,
            "setup_s": export_s + statistics.median(start_times),
            "peak_rss_mb": peak_rss_mb,
        }
    return metrics, failures, attempted_all, len(failures)


def _status_counts(phase: Phase) -> dict:
    counts: dict[str, int] = {}
    for request in phase.sent:
        key = "timeout" if request.status is None else str(request.status)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _describe(phases: list[Phase], start_times: list[float], export_s: float) -> None:
    print(f"serve-http: export {export_s:.3f} s, server starts "
          f"{[round(t, 3) for t in start_times]} s")
    for phase in phases:
        sent = phase.sent
        lags = [r.lag_ms for r in sent]
        print(
            f"  rate {phase.rate}/s: attempted {len(sent)}, unsent {phase.unsent}, "
            f"statuses {_status_counts(phase)}, failed {sum(bool(r.failure) for r in sent)}, "
            f"p50 {np.percentile(phase.latencies(), 50):.2f} ms, p99 {phase.p99_ms():.2f} ms, "
            f"generator lag p99 {np.percentile(lags, 99):.2f} ms, "
            f"completions {phase.completions_per_s():.2f}/s, sustained {phase.sustained()}"
        )


def _http_overhead_ms(phase: Phase, size: int) -> float:
    """Median client time beyond the server's own ``latency_ms``, per request size."""
    return statistics.median(
        (r.done - r.sent) * 1e3 - r.server_ms
        for r in phase.sent if r.status == 200 and r.size == size
    )


def layer_metrics(phases: list[Phase], middle: Phase, loaded, rng) -> dict:
    """Per-stage numbers of the serving path.

    The HTTP overhead under overload, where every connection is reused at
    once, is where the delayed-ACK stall of keep-alive replies shows whole.
    """
    overload = next(phase for phase in phases if phase.rate == OVERLOAD_RATE)
    stats = middle.stats
    admission = stats.get("admission") or {}
    single = rng.standard_normal((1, IN_FEATURES)).astype(np.float32)
    batch = rng.standard_normal((BIG_SIZE, IN_FEATURES)).astype(np.float32)
    metrics = {
        "serve.http.overhead_1_ms": _http_overhead_ms(middle, 1),
        "serve.http.overhead_32_ms": _http_overhead_ms(middle, BIG_SIZE),
        "serve.http.overhead_overload_ms": _http_overhead_ms(overload, 1),
        "serve.batching.mean_batch_size": stats["mean_batch_size"],
        "serve.batching.queue_p50_ms": stats["latency_ms_p50"],
        "serve.batching.queue_p99_ms": stats["latency_ms_p99"],
        "serve.batching.shed": stats["shed"],
        "serve.batching.timeouts": stats["timeouts"],
        "serve.admission.rejected": (
            admission.get("rejected_queue_full", 0) + admission.get("rejected_deadline", 0)),
        "sparse.inference.forward_1_ms": _timed_predict(loaded, single, 200),
        "sparse.inference.forward_32_ms": _timed_predict(loaded, batch, 50),
        "serve.generator_lag_ms": float(np.percentile([r.lag_ms for r in middle.sent], 99)),
        "serve.latency_p99_ms": middle.p99_ms(),
        "serve.max_rate_rps": float(
            max((phase.rate for phase in phases if phase.sustained()), default=0)),
    }
    for phase in phases:
        sent = phase.sent
        failed = sum(bool(r.failure) for r in sent)
        prefix = f"serve.rate_{phase.rate}"
        metrics[f"{prefix}.attempted"] = len(sent)
        metrics[f"{prefix}.succeeded"] = len(sent) - failed
        metrics[f"{prefix}.failed"] = failed
        metrics[f"{prefix}.lag_p99_ms"] = float(np.percentile([r.lag_ms for r in sent], 99))
    return metrics
