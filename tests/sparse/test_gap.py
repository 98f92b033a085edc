"""GaP grow-and-prune controller (related-work baseline)."""

import numpy as np
import pytest

from repro.models import MLP
from repro.sparse import MaskedModel, TrainingSchedule
from repro.sparse.gap import GaPController


def make(sparsity=0.8, n_partitions=2, total_steps=100, period=10, seed=0):
    model = MLP(in_features=12, hidden=(16, 12), num_classes=4, seed=seed)
    masked = MaskedModel(model, sparsity, rng=np.random.default_rng(seed))
    schedule = TrainingSchedule(total_steps=total_steps, delta_t=period, stop_fraction=0.75)
    controller = GaPController(masked, schedule, n_partitions=n_partitions, period=period)
    return model, masked, controller


def set_gradients(masked, rng):
    for target in masked.targets:
        target.param.grad = rng.standard_normal(target.param.shape).astype(np.float32)


class TestGaP:
    def test_one_partition_dense_at_start(self):
        model, masked, controller = make()
        assert controller.dense_fraction() > 0.0
        dense_layers = [
            t for t in masked.targets if t.density == pytest.approx(1.0)
        ]
        assert dense_layers  # the grown partition is fully dense

    def test_rotation_moves_dense_partition(self):
        model, masked, controller = make(period=10)
        first = controller._dense_partition
        rng = np.random.default_rng(0)
        set_gradients(masked, rng)
        controller.on_backward(10)
        assert controller._dense_partition != first
        assert len(controller.history) == 2  # initial grow + one rotation

    def test_pruned_partition_returns_to_target_density(self):
        model, masked, controller = make(sparsity=0.8, period=10)
        rng = np.random.default_rng(0)
        for target in masked.targets:
            target.param.data = rng.standard_normal(target.param.shape).astype(np.float32)
            target.apply()
        first = controller._dense_partition
        set_gradients(masked, rng)
        controller.on_backward(10)
        for layer_index in controller._partitions[first]:
            target = masked.targets[layer_index]
            expected = controller._target_densities[layer_index]
            assert target.density == pytest.approx(expected, abs=0.05)

    def test_prune_keeps_largest_magnitudes(self):
        model, masked, controller = make(sparsity=0.5, period=10)
        rng = np.random.default_rng(1)
        first = controller._dense_partition
        for layer_index in controller._partitions[first]:
            target = masked.targets[layer_index]
            target.param.data = rng.standard_normal(target.param.shape).astype(np.float32)
        set_gradients(masked, rng)
        controller.on_backward(10)
        for layer_index in controller._partitions[first]:
            target = masked.targets[layer_index]
            kept = np.abs(target.param.data[target.mask])
            pruned_positions = ~target.mask
            if kept.size and pruned_positions.any():
                assert kept.min() >= 0.0  # pruned entries were zeroed

    def test_fully_sparse_after_stop(self):
        model, masked, controller = make(sparsity=0.8, total_steps=100, period=10)
        rng = np.random.default_rng(0)
        for step in range(1, 100):
            set_gradients(masked, rng)
            controller.on_backward(step)
            controller.after_step(step)
        assert controller.dense_fraction() == 0.0
        assert masked.global_sparsity() == pytest.approx(0.8, abs=0.05)

    def test_revived_weights_start_at_zero(self):
        model, masked, controller = make(period=10)
        rng = np.random.default_rng(0)
        set_gradients(masked, rng)
        before_masks = {t.name: t.mask.copy() for t in masked.targets}
        controller.on_backward(10)
        grown_partition = controller._dense_partition
        for layer_index in controller._partitions[grown_partition]:
            target = masked.targets[layer_index]
            revived = ~before_masks[target.name] & target.mask
            assert np.all(target.param.data[revived] == 0.0)

    def test_gradients_masked(self):
        model, masked, controller = make()
        set_gradients(masked, np.random.default_rng(0))
        controller.on_backward(3)
        for target in masked.targets:
            assert np.all(target.param.grad[~target.mask] == 0.0)

    def test_invalid_partitions(self):
        model = MLP(in_features=12, hidden=(16,), num_classes=4, seed=0)
        masked = MaskedModel(model, 0.5, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            GaPController(masked, TrainingSchedule(total_steps=100), n_partitions=0)

    def test_partitions_cover_all_layers(self):
        model, masked, controller = make(n_partitions=2)
        covered = sorted(
            index for partition in controller._partitions for index in partition
        )
        assert covered == list(range(len(masked.targets)))
