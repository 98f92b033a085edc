"""GaP — scheduled grow-and-prune (Ma et al., ICLR'22), from related work.

The paper's §II discusses GaP as the coverage-maximizing alternative:
partition the network's layers, cyclically *grow one partition to dense*
while the previous dense partition is *pruned back to sparse*, so that over
a full cycle every weight gets training time.  Its drawback — motivating
DST-EE — is cost: one partition always trains dense.

This controller implements that schedule on top of :class:`MaskedModel`:

* layers are split into ``n_partitions`` round-robin groups;
* every ``period`` steps the active partition advances: the new one's masks
  are set to all-ones (grow to dense; revived weights start at zero), and
  the outgoing one is magnitude-pruned back to its per-layer target density;
* gradients outside the masks are zeroed, exactly as in the drop-and-grow
  engine.

Because one partition is dense at all times, the training-FLOPs multiplier
sits well above the fixed-budget dynamic methods — the comparison the
benches surface.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.budget import DensityBudget
from repro.sparse.engine import SparsityController
from repro.sparse.masked import MaskedModel
from repro.sparse.schedule import TrainingSchedule

__all__ = ["GaPController"]


class GaPController(SparsityController):
    """Cyclic grow-and-prune over layer partitions.

    Unified form (see docs/controllers.md)::

        GaPController(masked, schedule, budget, n_partitions=..., period=...)

    ``budget`` holds the *sparse-phase* per-layer allocations each partition
    is pruned back to after its dense excursion; it defaults to
    ``masked.budget`` (the construction-time split).

    Parameters
    ----------
    masked:
        A :class:`MaskedModel` built at the *target* sparsity; the budget's
        densities define what each partition is pruned back to.
    n_partitions:
        Number of round-robin layer groups (the paper's GaP uses a handful).
    period:
        Steps between partition rotations (default: an equal share of the
        first ``stop_fraction`` of training, leaving the tail fully sparse).
    """

    # The rotation geometry and the sparse-phase targets are fixed at
    # construction; only masks/partition pointer/history evolve.
    CHECKPOINT_EXEMPT = {"budget", "schedule"}

    def __init__(
        self,
        masked: MaskedModel,
        schedule: TrainingSchedule,
        budget: DensityBudget | None = None,
        n_partitions: int = 4,
        period: int | None = None,
    ):
        if n_partitions < 1:
            raise ValueError(f"need >= 1 partition, got {n_partitions}")
        self.masked = masked
        self.schedule = schedule
        self.budget = budget if budget is not None else masked.budget
        self.n_partitions = min(int(n_partitions), len(masked.targets))
        self.total_steps = schedule.total_steps
        rotations = 2 * self.n_partitions  # two full cycles by default
        self.stop_step = int(schedule.stop_fraction * self.total_steps)
        default_period = max(1, self.stop_step // max(rotations, 1))
        self.period = int(period) if period is not None else default_period
        self._partitions: list[list[int]] = [
            list(range(start, len(masked.targets), self.n_partitions))
            for start in range(self.n_partitions)
        ]
        self._dense_partition: int | None = None
        # Sparse-phase targets come from the budget, not the live masks: a
        # partition mid-excursion is dense, but it returns to its allocation.
        self._target_densities = [
            self.budget.density(t.name) if t.name in self.budget else t.target_density
            for t in masked.targets
        ]
        self.history: list[tuple[int, int]] = []
        # Grow the first partition immediately so training starts mid-cycle.
        self._rotate(step=0)

    # ------------------------------------------------------------------
    def on_backward(self, step: int) -> bool:
        if step > 0 and step % self.period == 0 and step < self.stop_step:
            self._rotate(step)
        elif step >= self.stop_step and self._dense_partition is not None:
            # Final rotation: prune the last dense partition, go fully sparse.
            self._prune_partition(self._dense_partition)
            self._dense_partition = None
        self.masked.mask_gradients()
        return False

    def after_step(self, step: int) -> None:
        self.masked.apply_masks()

    # ------------------------------------------------------------------
    def _rotate(self, step: int) -> None:
        next_partition = (
            0 if self._dense_partition is None
            else (self._dense_partition + 1) % self.n_partitions
        )
        if self._dense_partition is not None:
            self._prune_partition(self._dense_partition)
        self._grow_partition(next_partition)
        self._dense_partition = next_partition
        self.history.append((step, next_partition))

    def _grow_partition(self, partition: int) -> None:
        """Set every layer in the partition to dense (revivals start at 0)."""
        for layer_index in self._partitions[partition]:
            target = self.masked.targets[layer_index]
            revived = ~target.mask
            target.param.data.reshape(-1)[revived.reshape(-1)] = 0.0
            target.mask = np.ones_like(target.mask)

    def _prune_partition(self, partition: int) -> None:
        """Magnitude-prune the partition back to its per-layer densities."""
        for layer_index in self._partitions[partition]:
            target = self.masked.targets[layer_index]
            density = self._target_densities[layer_index]
            k = max(1, int(round(density * target.size)))
            flat = np.abs(target.param.data.reshape(-1))
            keep = np.argpartition(-flat, k - 1)[:k]
            mask = np.zeros(target.size, dtype=bool)
            mask[keep] = True
            target.mask = mask.reshape(target.mask.shape)
            target.apply()

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        state = super().state_dict()
        state["dense_partition"] = self._dense_partition
        state["history"] = [tuple(item) for item in self.history]
        return state

    def load_state_dict(self, state: dict) -> None:
        # The constructor already ran _rotate(0); restoring masks (base) plus
        # the dense-partition pointer and rotation history makes the resumed
        # controller bitwise-match the one that was saved.
        super().load_state_dict(state)
        if "dense_partition" in state:
            raw = state["dense_partition"]
            self._dense_partition = None if raw is None else int(raw)
        if "history" in state:
            self.history = [(int(step), int(part)) for step, part in state["history"]]

    # ------------------------------------------------------------------
    def dense_fraction(self) -> float:
        """Fraction of sparsifiable weights currently in the dense partition."""
        if self._dense_partition is None:
            return 0.0
        dense_size = sum(
            self.masked.targets[i].size
            for i in self._partitions[self._dense_partition]
        )
        return dense_size / self.masked.total_size
