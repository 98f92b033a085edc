"""Output checks: each returns a list of failure messages (empty = pass).

The benchmark counts a run as correct only when every check passes, so a
faster program that trains the wrong mask, runs the wrong kernel or serves
the wrong numbers cannot post a result.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "check_budget",
    "check_backend_label",
    "check_quality",
    "check_repeat_matches",
    "check_served",
    "layer_backends",
    "tiles",
]


def check_budget(masked) -> list[str]:
    """The final active count must equal the density budget's total exactly."""
    active, total = masked.total_active, masked.budget.total
    if active != total:
        return [f"final active count {active} != budget total {total}"]
    return []


def layer_backends(masked) -> dict[str, str]:
    """Backend each sparsifiable layer's kernel resolves to at the end of a run.

    A layer without an installed kernel runs the dense path.
    """
    by_param = {id(t.param): t.name for t in masked.targets}
    resolved = {name: "dense" for name in by_param.values()}
    for module in masked.model.modules():
        weight = getattr(module, "weight", None)
        name = by_param.get(id(weight))
        backend = getattr(module, "forward_backend", None)
        if name is not None and backend is not None:
            resolved[name] = backend.backend()
    return resolved


def tiles(shape: tuple[int, ...], block_size: int) -> bool:
    """Whether a weight's 2-D view (rows x the rest) splits into whole blocks."""
    rows = int(shape[0])
    cols = int(np.prod(shape)) // rows
    return rows % block_size == 0 and cols % block_size == 0


def check_backend_label(
    masked, kernel_calls: dict[str, list[int]], expected: str, block_size: int = 1
) -> list[str]:
    """Every layer the label covers must have run the ``expected`` kernel.

    ``kernel_calls`` maps a layer name to ``[sparse_runs, declined]``, as
    counted around the kernels' ``__call__``.  For ``bsr`` the label covers
    exactly the layers whose weight tiles into ``block_size`` blocks, and
    each of them must also train a block mask of that size; the layers
    that do not tile (on VGG the first conv and the classifier) train an
    unstructured mask and are exempt.  For ``csr`` it covers every
    sparsifiable layer.
    """
    if expected == "bsr":
        covered = [t for t in masked.targets if tiles(t.param.shape, block_size)]
    else:
        covered = list(masked.targets)
    if not covered:
        return [f"no layer is eligible for the {expected!r} label"]
    resolved = layer_backends(masked)
    failures = []
    for target in covered:
        name = target.name
        if expected == "bsr" and target.block_size != block_size:
            failures.append(
                f"layer {name} tiles into {block_size}x{block_size} blocks but trains "
                f"a mask of block size {target.block_size}"
            )
        runs, declined = kernel_calls.get(name, (0, 0))
        if resolved[name] != expected or runs == 0 or declined:
            failures.append(
                f"layer {name} resolved {resolved[name]!r} with {runs} sparse runs and "
                f"{declined} dense fallbacks; label {expected!r} requires every forward sparse"
            )
    return failures


def check_quality(
    accuracy: float, perplexity: float | None = None, ceiling: float | None = None
) -> list[str]:
    """Quality must be finite, and perplexity must stay below ``ceiling``."""
    failures = []
    if not math.isfinite(accuracy) or not 0.0 <= accuracy <= 1.0:
        failures.append(f"accuracy {accuracy} is not a finite share")
    if perplexity is not None:
        if not math.isfinite(perplexity):
            failures.append(f"perplexity {perplexity} is not finite")
        elif ceiling is not None and perplexity >= ceiling:
            failures.append(f"perplexity {perplexity:.4f} is not below the ceiling {ceiling}")
    return failures


def check_repeat_matches(outcome: tuple, first: tuple) -> list[str]:
    """A repeat of one seeded configuration must match the first bit for bit."""
    if outcome != first:
        return [f"gave {outcome}, the first repeat gave {first}"]
    return []


def check_served(
    status: int | None, body: dict | None, fingerprint: str, reference: np.ndarray
) -> str | None:
    """Check one HTTP answer; return why it failed, or None if it is correct.

    A non-200 status or a timeout (``status=None``) is a failure.  A 200
    must carry the exported artifact's fingerprint, and its outputs must
    equal ``load_model(path).predict`` on the same inputs bit for bit.
    """
    if status is None:
        return "timeout"
    if status != 200:
        return f"status {status}"
    if body.get("fingerprint") != fingerprint:
        return f"fingerprint {body.get('fingerprint')!r} != artifact {fingerprint!r}"
    outputs = np.asarray(body.get("outputs"), dtype=np.float32)
    if outputs.shape != reference.shape or not np.array_equal(outputs, reference):
        return "outputs differ from load_model(path).predict"
    return None
