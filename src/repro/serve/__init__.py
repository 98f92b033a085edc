"""Sparse inference serving: artifacts, micro-batching, worker pools, HTTP.

The deployment half of the reproduction (ROADMAP north star: serve the
compiled sparse models, not just train them).  The pipeline is::

    train (MaskedModel + DST-EE)
      -> compile_sparse_model            # repro.sparse.inference, sparse kernels
      -> export_model(...)               # versioned, fingerprinted artifact
      -> load_model / Server             # in-process predict + micro-batching
      -> ServingPool / make_http_server  # multi-process + JSON frontend
      -> ModelRouter                     # named models, zero-downtime hot-swap

Resilience layers (see ``docs/serving.md`` -> Resilience):
:class:`AdmissionController` sheds overload at the door,
:class:`ServingPool` supervises and restarts dead workers,
:class:`RetryingClient` retries shed/failed requests with backoff, and
:mod:`repro.serve.faults` injects deterministic faults for the chaos
harness (``scripts/chaos_smoke.py``).
"""

from repro.serve.admission import AdmissionController, AdmissionRejected
from repro.serve.artifact import (
    ARTIFACT_VERSION,
    ArtifactError,
    LoadedModel,
    export_model,
    load_model,
    read_manifest,
)
from repro.serve.batching import BatchingQueue, BatchingStats
from repro.serve.client import DeadlineExceeded, RetryingClient, ServerError
from repro.serve.faults import (
    FaultInjector,
    FaultSchedule,
    corrupt_artifact,
    malformed_payloads,
)
from repro.serve.http import make_http_server, serve_forever
from repro.serve.pool import ServingPool, share_model_weights, unshare_model_weights
from repro.serve.preprocess import Preprocessor
from repro.serve.router import HotSwapError, ModelRouter, RouterDeployment
from repro.serve.server import Server

__all__ = [
    "ARTIFACT_VERSION",
    "AdmissionController",
    "AdmissionRejected",
    "ArtifactError",
    "BatchingQueue",
    "BatchingStats",
    "DeadlineExceeded",
    "FaultInjector",
    "FaultSchedule",
    "HotSwapError",
    "LoadedModel",
    "ModelRouter",
    "Preprocessor",
    "RetryingClient",
    "RouterDeployment",
    "Server",
    "ServerError",
    "ServingPool",
    "corrupt_artifact",
    "export_model",
    "load_model",
    "make_http_server",
    "malformed_payloads",
    "read_manifest",
    "serve_forever",
    "share_model_weights",
    "unshare_model_weights",
]
