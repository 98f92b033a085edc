"""Tests of the benchmark itself: names, output checks and seed isolation.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the root.
"""

from __future__ import annotations

import json
import pathlib
import re
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import checks, serving, training
from perfbench.trace import Tracer

from repro.data.synthetic import make_image_classification
from repro.experiments import lm as lm_entry
from repro.experiments import runner as image_entry
from repro.models.mlp import MLP

ROOT = pathlib.Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_metric_and_workload_name_is_plain():
    manifest = _manifest()
    names = [w["name"] for w in manifest["workloads"]]
    names += [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names), names
    assert len(names) == len(set(names))
    assert [w["name"] for w in manifest["workloads"]] == [
        *training.TRAIN_WORKLOADS, "serve-http"
    ]
    rate_metrics = {m["name"] for m in manifest["per_layer"] if m["name"].startswith("serve.rate_")}
    assert rate_metrics == {
        f"serve.rate_{rate}.{field}"
        for rate in serving.RATES
        for field in ("attempted", "succeeded", "failed", "lag_p99_ms")
    }


# ----------------------------------------------------------------------
# planted bad outputs
# ----------------------------------------------------------------------
FINGERPRINT = "sha256:abc"


def _answer(outputs, fingerprint=FINGERPRINT) -> dict:
    return {"outputs": np.asarray(outputs).tolist(), "fingerprint": fingerprint}


def test_served_check_accepts_the_reference_answer():
    reference = np.random.default_rng(0).standard_normal((2, 10)).astype(np.float32)
    assert checks.check_served(200, _answer(reference), FINGERPRINT, reference) is None


def test_served_check_catches_a_mismatched_logit():
    reference = np.random.default_rng(0).standard_normal((2, 10)).astype(np.float32)
    planted = reference.copy()
    planted[1, 3] = np.nextafter(planted[1, 3], np.float32(np.inf))
    assert "differ" in checks.check_served(200, _answer(planted), FINGERPRINT, reference)


def test_served_check_catches_a_wrong_fingerprint():
    reference = np.zeros((1, 10), dtype=np.float32)
    failure = checks.check_served(200, _answer(reference, "sha256:other"), FINGERPRINT, reference)
    assert "fingerprint" in failure


@pytest.mark.parametrize("status", [None, 429, 500, 504])
def test_served_check_fails_every_non_200_and_timeout(status):
    reference = np.zeros((1, 10), dtype=np.float32)
    assert checks.check_served(status, None, FINGERPRINT, reference) is not None


def test_budget_check_catches_an_active_count_off_by_one():
    good = SimpleNamespace(total_active=100, budget=SimpleNamespace(total=100))
    bad = SimpleNamespace(total_active=101, budget=SimpleNamespace(total=100))
    assert checks.check_budget(good) == []
    assert checks.check_budget(bad)


def test_quality_check_catches_non_finite_and_ceiling():
    assert checks.check_quality(0.8, 9.0, 14.0) == []
    assert checks.check_quality(float("nan"))
    assert checks.check_quality(0.8, float("inf"), 14.0)
    assert checks.check_quality(0.8, 14.5, 14.0)


def test_repeat_check_catches_a_drifting_repeat():
    assert checks.check_repeat_matches((1.0, 0.5), (1.0, 0.5)) == []
    assert checks.check_repeat_matches((1.0, 0.51), (1.0, 0.5))


def _tiny_run(backend: str, block_size: int | None, classes: int = 4):
    data = make_image_classification(
        n_classes=4, n_train=64, n_test=32, image_size=8, noise=0.6, seed=3
    )
    patcher = Tracer()
    with patcher:
        calls = training.count_kernel_calls(patcher)
        result = image_entry.run_image_classification(
            "dst_ee",
            lambda seed: MLP(3 * 8 * 8, (64,), classes, seed=seed),
            data,
            sparsity=0.9,
            epochs=1,
            batch_size=32,
            delta_t=1,
            block_size=block_size,
            sparse_backend=backend,
            keep_model=True,
        )
    return result.masked, calls


@pytest.mark.parametrize("label,block_size", [("csr", 1), ("bsr", 4)])
def test_label_check_passes_when_the_kernel_ran(label, block_size):
    masked, calls = _tiny_run(label, block_size)
    assert checks.check_backend_label(masked, calls, label, block_size) == []
    assert checks.check_budget(masked) == []


@pytest.mark.parametrize("label,block_size", [("csr", 1), ("bsr", 4)])
def test_label_check_fails_a_sparse_workload_forced_to_dense(label, block_size):
    masked, calls = _tiny_run("dense", block_size)
    assert checks.check_backend_label(masked, calls, label, block_size)


def test_label_check_fails_the_wrong_sparse_kernel():
    masked, calls = _tiny_run("csr", None)
    assert checks.check_backend_label(masked, calls, "bsr", 4)


def test_bsr_label_fails_a_tiling_layer_without_its_block_mask():
    masked, calls = _tiny_run("bsr", None)
    failures = checks.check_backend_label(masked, calls, "bsr", 4)
    assert any("trains a mask of block size 1" in f for f in failures)


def test_bsr_label_exempts_exactly_the_layers_that_do_not_tile():
    # A 6-way classifier (6 x 64) does not tile into 4x4 blocks.
    masked, calls = _tiny_run("bsr", 4, classes=6)
    exempt = [t.name for t in masked.targets if not checks.tiles(t.param.shape, 4)]
    assert exempt == masked.block_fallbacks and len(exempt) == 1
    assert checks.check_backend_label(masked, calls, "bsr", 4) == []


# ----------------------------------------------------------------------
# the seed changes the inputs and nothing else
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", list(training.TRAIN_WORKLOADS))
def test_seed_changes_training_inputs_only(name, monkeypatch):
    workload = training.TRAIN_WORKLOADS[name]
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))

    monkeypatch.setattr(image_entry, "run_image_classification", record)
    monkeypatch.setattr(lm_entry, "run_lm", record)
    inputs = []
    for seed in (1, 2, 1):
        data = workload.make_data(seed)
        inputs.append(data.train.inputs)
        workload.train(workload, data, [])
    assert not np.array_equal(inputs[0], inputs[1])
    assert np.array_equal(inputs[0], inputs[2])

    def config(call):
        args, kwargs = call
        return [a for a in args if not callable(a) and not hasattr(a, "train")], {
            k: v for k, v in kwargs.items() if k != "data"
        }

    assert config(calls[0]) == config(calls[1])


def test_seed_changes_served_requests_only(tmp_path):
    first = serving.export_artifact(tmp_path / "a")
    second = serving.export_artifact(tmp_path / "b")
    assert first.read_bytes() == second.read_bytes()
    loaded = serving.load_model(first)
    plans = []
    for seed in (1, 2, 1):
        rng = np.random.default_rng(seed)
        payloads = serving.make_payloads(rng, loaded, singles=4, bigs=1)
        requests = serving.schedule(rng, 100, 0.5, payloads)
        plans.append((payloads.bodies, [(r.due, r.size, r.payload) for r in requests]))
    assert plans[0] != plans[1]
    assert plans[0] == plans[2]


# ----------------------------------------------------------------------
# tracer arithmetic
# ----------------------------------------------------------------------
def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.record("step", 0, 100, -1)
    tracer.record("child", 10, 40, 0)
    tracer.record("other child", 50, 60, 0)
    tracer.record("grandchild", 20, 30, 1)
    assert tracer.self_ns() == [60, 20, 10, 10]


def test_patches_are_restored():
    class Owner:
        def method(self):
            return 1

    class Child(Owner):
        pass

    with Tracer() as tracer:
        tracer.patch(Child, "method", "span")
        assert Child().method() == 1
        assert tracer.spans[0].name == "span"
    assert "method" not in vars(Child)
    assert Child.method is Owner.method
