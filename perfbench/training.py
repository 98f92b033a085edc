"""Training workloads: VGG-11 on BSR, a wide MLP on CSR, and char-GPT.

Each workload builds its inputs from the benchmark seed only (synthetic
images or the Markov-prose corpus), then trains through the repo's public
entrypoint (``run_image_classification`` or ``run_lm``) with a fixed
program seed, so two runs with one seed do identical work and a change of
seed changes nothing but the data.

An untraced run repeats the whole training call until its time is spent
and reports medians across repeats.  A traced run makes a traced repeat
between two untraced ones; the traced one wraps the public calls of every
layer (see :func:`instrument`) and turns the spans into per-layer numbers.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from perfbench.checks import (
    check_backend_label,
    check_budget,
    check_quality,
    check_repeat_matches,
    layer_backends,
)
from perfbench.trace import Tracer

from repro.autograd.conv import ConvWorkspace
from repro.autograd.tensor import Tensor
from repro.data.loader import DataLoader
from repro.data.synthetic import make_image_classification
from repro.data.text import make_char_lm_data
from repro.experiments import lm as lm_entry
from repro.experiments import runner as image_entry
from repro.models.mlp import MLP
from repro.models.vgg import vgg11
from repro.nn.module import Module
from repro.optim import SGD, Adam
from repro.sparse.engine import DynamicSparseEngine
from repro.sparse.kernels import BsrMatmul, Conv2dKernel, CsrMatmul, LinearKernel
from repro.train import trainer as trainer_module
from repro.train.callbacks import Callback

__all__ = ["TRAIN_WORKLOADS", "TrainWorkload", "measure", "measure_traced"]

# Every run trains with this seed (init, masks, data order); the benchmark
# seed only drives input generation.
PROGRAM_SEED = 0

# Tail step time, over the untraced repeats of a traced run.  On the image
# workloads the drop-and-grow steps are 7% of all steps and land there.
TAIL_PERCENTILE = 95

# Images: 16x16 at noise 5.0.  At the generator's cifar10_like noise (1.2)
# even 12x12 images reach val_accuracy 0.98-1.0 after one epoch, which
# leaves a numerics regression no room to show; at 5.0 both image
# workloads end between 0.75 and 0.9.
IMAGE_SIZE = 16
IMAGE_NOISE = 5.0

# Each training call is short (2-5 seconds) so that a run holds several
# repeats: this box's speed wanders by 10-30% over a few seconds, and a
# median over many short repeats rides that out.  VGG trains six epochs,
# the others three: after three its accuracy still moves by 10% with the
# seed, after six by 3%.  A run makes at least three repeats, so every
# figure is a median, and more while its seconds last; three keep a run of
# the slowest workload under 40 s even in the box's slow spells.
MIN_REPEATS = 3

# Perplexity ceiling for the LM check.  A unigram model scores about 16 on
# this corpus and the trained model about 11, so a model that stopped
# learning context fails it.
LM_PPL_CEILING = 14.0


@dataclass(frozen=True)
class TrainWorkload:
    """One training workload: its inputs, its entrypoint call and its label."""

    name: str
    make_data: Callable[[int], object]
    # ``train(workload, data, callbacks)`` makes the entrypoint call.
    train: Callable[["TrainWorkload", object, list], object]
    batch_size: int
    items_per_example: int
    # Kernel every sparsifiable layer must run, or None to record only.
    label: str | None
    epochs: int
    block_size: int = 1


def _image_data(n_train: int, seed: int):
    return make_image_classification(
        n_classes=10,
        n_train=n_train,
        n_test=512,
        image_size=IMAGE_SIZE,
        noise=IMAGE_NOISE,
        seed=seed,
        name="cifar10-like",
    )


def _train_vgg(workload, data, callbacks):
    return image_entry.run_image_classification(
        "dst_ee",
        lambda seed: vgg11(10, width_mult=0.25, input_size=IMAGE_SIZE, seed=seed),
        data,
        sparsity=0.95,
        epochs=workload.epochs,
        batch_size=workload.batch_size,
        delta_t=10,
        block_size=workload.block_size,
        sparse_backend="bsr",
        seed=PROGRAM_SEED,
        eval_every=workload.epochs,
        n_workers=0,
        callbacks=callbacks,
        keep_model=True,
    )


def _train_mlp(workload, data, callbacks):
    in_features = 3 * IMAGE_SIZE * IMAGE_SIZE
    return image_entry.run_image_classification(
        "dst_ee",
        lambda seed: MLP(in_features, (1024, 1024), 10, seed=seed),
        data,
        sparsity=0.95,
        epochs=workload.epochs,
        batch_size=workload.batch_size,
        delta_t=10,
        sparse_backend="csr",
        seed=PROGRAM_SEED,
        eval_every=workload.epochs,
        n_workers=0,
        callbacks=callbacks,
        keep_model=True,
    )


def _lm_data(seed: int):
    # 14k training characters (14 steps per epoch) and a 6k-character
    # validation split, large enough that next-token accuracy is steady.
    return make_char_lm_data(n_chars=20480, block_len=32, val_fraction=0.3, seed=seed)


def _train_lm(workload, data, callbacks):
    # sparse_backend is left to the entrypoint's default on purpose.  Adam at
    # run_lm's default lr (1e-3) needs more than three epochs to beat a
    # unigram model; at 6e-3 three epochs reach perplexity about 10.
    return lm_entry.run_lm(
        "dst_ee",
        data=data,
        sparsity=0.95,
        epochs=workload.epochs,
        batch_size=workload.batch_size,
        lr=6e-3,
        delta_t=10,
        seed=PROGRAM_SEED,
        n_workers=0,
        callbacks=callbacks,
        keep_model=True,
    )


TRAIN_WORKLOADS = {
    "train-vgg-bsr": TrainWorkload(
        "train-vgg-bsr", lambda seed: _image_data(1024, seed), _train_vgg, 64, 1, "bsr", 6,
        block_size=4,
    ),
    "train-mlp-csr": TrainWorkload(
        "train-mlp-csr", lambda seed: _image_data(2048, seed), _train_mlp, 64, 1, "csr", 3
    ),
    "train-lm": TrainWorkload("train-lm", _lm_data, _train_lm, 32, 32, None, 3),
}


# ----------------------------------------------------------------------
# one repeat
# ----------------------------------------------------------------------
class StepClock(Callback):
    """Timestamps the end of every training step (and closes traced steps)."""

    def __init__(self, tracer: Tracer | None = None):
        self.ends: list[float] = []
        self._tracer = tracer

    def on_step_end(self, step: int) -> None:
        self.ends.append(time.perf_counter())
        tracer = self._tracer
        if tracer is not None and tracer.current_name() == "train.step":
            tracer.close(tracer.current)


@dataclass
class Repeat:
    """What one training call produced, how long its parts took, and its checks.

    The trained model is not kept, so peak memory does not grow with the
    number of repeats.
    """

    setup_s: float
    generate_s: float
    step_s: list[float]
    throughput: float
    accuracy: float
    perplexity: float | None
    exploration: float | None
    # The numbers that must repeat bit for bit under one seed.
    outcome: tuple
    backends: dict[str, str]
    kernel_calls: dict
    failures: list[str]


def _batch_sizes(n: int, batch: int, epochs: int) -> list[int]:
    per_epoch = [batch] * (n // batch) + ([n % batch] if n % batch else [])
    return per_epoch * epochs


def count_kernel_calls(tracer: Tracer) -> dict[str, list[int]]:
    """Count, per layer, kernel calls that ran sparse and ones that declined.

    This is how the label checks see which kernel actually ran; it stays
    on in untraced runs (one dict update per layer call).
    """
    calls: dict[str, list[int]] = {}
    for kernel_cls in (LinearKernel, Conv2dKernel):
        original = kernel_cls.__call__

        def counted(kernel, x, _original=original):
            out = _original(kernel, x)
            entry = calls.setdefault(kernel.target.name, [0, 0])
            entry[0 if out is not None else 1] += 1
            return out

        tracer.replace(kernel_cls, "__call__", counted)
    return calls


def run_repeat(workload: TrainWorkload, seed: int, tracer: Tracer | None = None) -> Repeat:
    """Generate the inputs and make one training call; time its parts."""
    clock = StepClock(tracer)
    patcher = tracer if tracer is not None else Tracer()
    with patcher:
        kernel_calls = count_kernel_calls(patcher)
        if tracer is not None:
            instrument(tracer)
        start = time.perf_counter()
        data = workload.make_data(seed)
        generated = time.perf_counter()
        result = workload.train(workload, data, [clock])
    ends = clock.ends
    sizes = _batch_sizes(len(data.train), workload.batch_size, workload.epochs)
    if len(ends) != len(sizes):
        raise RuntimeError(f"{workload.name}: {len(ends)} steps ran, {len(sizes)} expected")
    # Step 1 builds the lazy sparse structures, so it counts as set-up.
    items = sum(sizes[1:]) * workload.items_per_example
    accuracy = getattr(result, "val_next_token_accuracy", None)
    accuracy = result.final_accuracy if accuracy is None else accuracy
    perplexity = getattr(result, "val_perplexity", None)
    masked = result.masked
    failures = check_budget(masked) + check_quality(
        accuracy, perplexity, LM_PPL_CEILING if perplexity is not None else None
    )
    if workload.label is not None:
        failures += check_backend_label(masked, kernel_calls, workload.label, workload.block_size)
    return Repeat(
        setup_s=ends[0] - start,
        generate_s=generated - start,
        step_s=list(np.diff(ends)),
        throughput=items / (ends[-1] - ends[0]),
        accuracy=accuracy,
        perplexity=perplexity,
        exploration=result.exploration_rate,
        outcome=(result.train_loss, accuracy, perplexity, masked.total_active),
        backends=layer_backends(masked),
        kernel_calls=kernel_calls,
        failures=failures,
    )


def _checks(repeats: list[Repeat]) -> tuple[list[str], int]:
    """Collect every repeat's failures; return them and how many repeats failed."""
    failures = []
    failed = 0
    for index, repeat in enumerate(repeats):
        found = repeat.failures + check_repeat_matches(repeat.outcome, repeats[0].outcome)
        failures += [f"repeat {index}: {message}" for message in found]
        failed += bool(found)
    return failures, failed


# ----------------------------------------------------------------------
# untraced measurement
# ----------------------------------------------------------------------
def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def measure(name: str, seed: int, seconds: float) -> tuple[dict, list[str], int, int]:
    """Repeat the training call for ``seconds``.

    Returns the end-to-end metrics, the check failures, and the number of
    repeats attempted and failed.
    """
    workload = TRAIN_WORKLOADS[name]
    repeats: list[Repeat] = []
    began = time.perf_counter()
    while True:
        repeats.append(run_repeat(workload, seed))
        gc.collect()
        elapsed = time.perf_counter() - began
        # Stop once another repeat of average length would overrun.
        if len(repeats) >= MIN_REPEATS and elapsed * (len(repeats) + 1) / len(repeats) > seconds:
            break
    steps = [s for r in repeats for s in r.step_s]
    first = repeats[0]
    metrics = {
        "throughput_per_s": statistics.median(r.throughput for r in repeats),
        "latency_p50_ms": _percentile(steps, 50) * 1e3,
        "correct_share": first.accuracy,
        "setup_s": statistics.median(r.setup_s for r in repeats),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    _describe(workload, repeats, len(steps))
    failures, failed = _checks(repeats)
    return metrics, failures, len(repeats), failed


def _describe(workload: TrainWorkload, repeats: list[Repeat], n_steps: int) -> None:
    first = repeats[0]
    print(f"{workload.name}: {len(repeats)} repeats, {n_steps} timed steps")
    print(f"  throughput per repeat: {[round(r.throughput, 1) for r in repeats]}")
    print(f"  val accuracy {first.accuracy:.4f}"
          + (f", val ppl {first.perplexity:.4f}" if first.perplexity is not None else ""))
    print(f"  layer backends: {first.backends}")
    print(f"  kernel calls [sparse, declined]: {first.kernel_calls}")


# ----------------------------------------------------------------------
# traced measurement
# ----------------------------------------------------------------------
def _module_name(args) -> str:
    return "mod." + type(args[0]).__name__


def instrument(tracer: Tracer) -> None:
    """Wrap the public calls of every training layer with spans."""
    tracer.patch(Module, "__call__", _module_name)
    tracer.patch(Tensor, "backward", "autograd.backward")
    tracer.patch(SGD, "step", "optim.step")
    tracer.patch(Adam, "step", "optim.step")
    for hook in ("before_backward", "on_backward", "after_step"):
        tracer.patch(DynamicSparseEngine, hook, "sparse.engine.hook")
    tracer.patch(image_entry, "cross_entropy", "nn.loss")
    tracer.patch(lm_entry, "lm_cross_entropy", "nn.loss")
    tracer.patch(trainer_module, "evaluate_classifier", "train.eval")
    tracer.patch(lm_entry, "evaluate_lm", "train.eval")
    tracer.patch(ConvWorkspace, "get", "autograd.conv_workspace")
    tracer.patch(ConvWorkspace, "zeros", "autograd.conv_workspace")
    tracer.patch(LinearKernel, "__call__", "sparse.kernels.forward")
    tracer.patch(Conv2dKernel, "__call__", "sparse.kernels.forward")
    _patch_structure_syncs(tracer)
    _patch_mask_update(tracer)
    _patch_loader(tracer)


def _patch_structure_syncs(tracer: Tracer) -> None:
    """Count kernel structure rebuilds through the public ``structure_version``."""
    for matmul_cls in (CsrMatmul, BsrMatmul):
        original = matmul_cls.sync

        def sync(matmul, *args, _original=original):
            before = matmul.structure_version
            _original(matmul, *args)
            if matmul.structure_version != before:
                now = time.perf_counter_ns()
                tracer.record("sparse.kernels.rebuild", now, now, tracer.current)

        tracer.replace(matmul_cls, "sync", sync)


def _patch_mask_update(tracer: Tracer) -> None:
    """Time each ΔT round and count its growth into never-active weights.

    The public coverage counters give that growth without touching the
    masks: a weight enters the ever-active set exactly when it is grown
    for the first time, so the rise in the ever-active count across the
    round is the number of never-active weights it grew.
    """
    original = DynamicSparseEngine.mask_update

    def mask_update(engine, step):
        before = engine.coverage.exploration_rate()
        index = tracer.open("sparse.engine.mask_update")
        try:
            record = original(engine, step)
        finally:
            tracer.close(index)
        size = sum(t.size for t in engine.masked.targets)
        never_active = round((record.exploration_rate - before) * size)
        tracer.spans[index].info = (record, never_active)
        return record

    tracer.replace(DynamicSparseEngine, "mask_update", mask_update)


def _patch_loader(tracer: Tracer) -> None:
    """Open a ``train.step`` span at each training batch fetch.

    The step closes at the trainer's ``on_step_end`` (see StepClock), so a
    step span covers fetch, forward, loss, backward, controller hooks and
    optimizer.  Loader iteration inside evaluation opens no step.
    """
    original = DataLoader.__iter__

    def steps(inner):
        while True:
            start = time.perf_counter_ns()
            try:
                item = next(inner)
            except StopIteration:
                return
            fetched = time.perf_counter_ns()
            step = tracer.open("train.step", start=start)
            tracer.record("data.next_batch", start, fetched, step)
            yield item

    def iterate(loader):
        inner = original(loader)
        if tracer.current_name() == "train.eval":
            return inner
        return steps(inner)

    tracer.replace(DataLoader, "__iter__", iterate)


# Forward self time by module class, reported per training step.
FORWARD_CLASSES = {
    "Linear": "nn.linear_forward_ms",
    "Conv2d": "nn.conv2d_forward_ms",
    "CausalSelfAttention": "nn.attention_forward_ms",
    "LayerNorm": "nn.layernorm_forward_ms",
    "GELU": "nn.gelu_forward_ms",
    "Embedding": "nn.embedding_forward_ms",
}

STEP_CHILDREN = {
    "data.next_batch": "data.next_batch_ms",
    "nn.loss": "nn.loss_ms",
    "autograd.backward": "autograd.backward_ms",
    "optim.step": "optim.step_ms",
}


def layer_metrics(tracer: Tracer, repeat: Repeat) -> dict:
    """Turn one traced repeat's spans into per-layer numbers."""
    spans = tracer.spans
    duration = [span.duration_ns for span in spans]
    own = tracer.self_ns()
    # A module's forward self time keeps its kernel call and excludes only
    # its child modules.
    module_own = [duration[i] if s.name.startswith("mod.") else 0 for i, s in enumerate(spans)]
    for i, span in enumerate(spans):
        if span.name.startswith("mod.") and span.parent >= 0:
            module_own[span.parent] -= duration[i]
    step_ids = [i for i, s in enumerate(spans) if s.name == "train.step"]
    n_steps = len(step_ids)
    step_of = [tracer.ancestor_named(i, "train.step") for i in range(len(spans))]
    ms = 1e-6 / n_steps  # ns summed over steps -> ms per step

    totals = dict.fromkeys(
        [*STEP_CHILDREN.values(), *FORWARD_CLASSES.values(), "models.forward_ms",
         "sparse.kernels.forward_ms"], 0.0)
    workspace_calls = 0
    hook_ns_by_step: dict[int, int] = {}
    update_steps: set[int] = set()
    rounds = []
    for i, span in enumerate(spans):
        step = step_of[i]
        if span.name == "sparse.engine.mask_update":
            rounds.append((duration[i], span.info))
            update_steps.add(step)
        if step < 0:
            continue
        direct = span.parent == step
        if direct and span.name in STEP_CHILDREN:
            totals[STEP_CHILDREN[span.name]] += duration[i] * ms
        elif direct and span.name.startswith("mod."):
            totals["models.forward_ms"] += duration[i] * ms
        elif direct and span.name == "sparse.engine.hook":
            hook_ns_by_step[step] = hook_ns_by_step.get(step, 0) + duration[i]
        if span.name.startswith("mod.") and span.name[4:] in FORWARD_CLASSES:
            totals[FORWARD_CLASSES[span.name[4:]]] += module_own[i] * ms
        elif span.name == "sparse.kernels.forward":
            totals["sparse.kernels.forward_ms"] += duration[i] * ms
        elif span.name == "autograd.conv_workspace":
            workspace_calls += 1

    step_ns = sum(duration[i] for i in step_ids)
    step_self_ns = sum(own[i] for i in step_ids)
    ordinary = [ns for step, ns in hook_ns_by_step.items() if step not in update_steps]
    evals = [duration[i] for i, s in enumerate(spans) if s.name == "train.eval"]
    backends = repeat.backends.values()
    update_ns = sum(ns for ns, _ in rounds)
    records = [info[0] for _, info in rounds]
    grown = sum(r.total_grown for r in records)
    return {
        **totals,
        "data.generate_ms": repeat.generate_s * 1e3,
        "autograd.conv_workspace_calls": workspace_calls / n_steps,
        "sparse.engine.hooks_ms": (statistics.mean(ordinary) * 1e-6) if ordinary else 0.0,
        "sparse.engine.mask_update_ms": (update_ns / len(rounds) * 1e-6) if rounds else 0.0,
        "sparse.engine.mask_update_rounds": len(rounds),
        "sparse.engine.mask_update_share": update_ns / step_ns,
        "sparse.engine.grown": statistics.mean(r.total_grown for r in records) if rounds else 0,
        "sparse.engine.dropped": statistics.mean(r.total_dropped for r in records) if rounds else 0,
        "sparse.engine.grown_never_active_share": (
            sum(info[1] for _, info in rounds) / grown if grown else 0.0),
        "sparse.engine.exploration_degree": repeat.exploration,
        "sparse.kernels.sparse_layers": sum(b != "dense" for b in backends),
        "sparse.kernels.dense_layers": sum(b == "dense" for b in backends),
        "sparse.kernels.structure_rebuilds": sum(
            s.name == "sparse.kernels.rebuild" for s in spans),
        "train.step_ms": step_ns * 1e-6 / n_steps,
        "train.self_ms": step_self_ns * ms,
        "train.uncovered_share": step_self_ns / step_ns,
        "train.eval_ms": statistics.mean(evals) * 1e-6 if evals else 0.0,
    }


def measure_traced(name: str, seed: int) -> tuple[dict, list[str], int, int]:
    """A traced repeat between two untraced ones; results shaped like :func:`measure`.

    The tracing overhead compares the traced throughput with the mean of
    the untraced repeats on either side, so a drift in machine speed does
    not read as overhead.
    """
    workload = TRAIN_WORKLOADS[name]
    tracer = Tracer()
    before = run_repeat(workload, seed)
    traced = run_repeat(workload, seed, tracer)
    after = run_repeat(workload, seed)
    repeats = [before, traced, after]
    metrics = layer_metrics(tracer, traced)
    untraced = (before.throughput + after.throughput) / 2
    metrics["trace.overhead_share"] = 1.0 - traced.throughput / untraced
    metrics["train.step_p95_ms"] = (
        _percentile(before.step_s + after.step_s, TAIL_PERCENTILE) * 1e3)
    _describe(workload, repeats, sum(len(r.step_s) for r in repeats))
    failures, failed = _checks(repeats)
    return metrics, failures, len(repeats), failed
