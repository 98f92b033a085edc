"""DensityBudget: unit semantics, exact conservation, removed shims.

The redesign's contract (docs/controllers.md): the budget owns integer
per-layer allocations in drop/grow units, every mutation conserves or
hits its stated total *exactly*, and the engines converge the live masks
to the allocations at each ΔT — including asymmetric drop/grow rounds
that move density between layers.  These tests pin all three claims,
plus the removal of the one-release shims of the old keyword style.
"""

import warnings

import numpy as np
import pytest

from repro.models import MLP
from repro.optim import SGD
from repro.sparse import (
    DensityBalanceController,
    DensityBudget,
    DSTEEGrowth,
    DynamicSparseEngine,
    GMPController,
    GradientGrowth,
    MaskedModel,
    MomentumGrowth,
    RandomGrowth,
    STRController,
    TrainingSchedule,
)
from repro.train.checkpoint import load_training_checkpoint, save_training_checkpoint


def make_masked(sparsity=0.5, seed=0, block_size=None, hidden=(16,)):
    model = MLP(in_features=12, hidden=hidden, num_classes=4, seed=seed)
    masked = MaskedModel(
        model, sparsity, rng=np.random.default_rng(seed), block_size=block_size
    )
    return model, masked


def set_gradients(masked, rng):
    for target in masked.targets:
        target.param.grad = rng.standard_normal(target.param.shape).astype(np.float32)


def nudge_weights(masked, rng):
    for target in masked.targets:
        target.param.data += (
            0.01 * rng.standard_normal(target.param.shape).astype(np.float32)
        )
        target.param.data *= target.mask


class TestDensityBudgetUnit:
    def test_from_global_hits_exact_total(self):
        _, masked = make_masked(sparsity=0.5)
        for density in (0.07, 0.33, 0.5, 0.91):
            budget = DensityBudget.from_global(masked.targets, density)
            assert budget.total == round(density * budget.capacity)

    def test_rescale_exact_and_floor(self):
        _, masked = make_masked(sparsity=0.5)
        budget = masked.budget
        total = budget.total
        budget.rescale(total - 17)
        assert budget.total == total - 17
        assert sum(budget.allocations().values()) == total - 17
        # Every layer keeps at least one unit even at the floor.
        floor = sum(budget.unit(name) for name in budget.names)
        budget.rescale(floor)
        assert all(budget.allocation(name) >= budget.unit(name) for name in budget.names)
        with pytest.raises(ValueError):
            budget.rescale(floor - 1)
        with pytest.raises(ValueError):
            budget.rescale(budget.capacity + 1)

    def test_transfer_conserves_and_quantizes(self):
        _, masked = make_masked(sparsity=0.5)
        budget = masked.budget
        src, dst = budget.names[0], budget.names[1]
        total = budget.total
        before_src = budget.allocation(src)
        moved = budget.transfer(src, dst, 13)
        assert budget.total == total
        assert budget.allocation(src) == before_src - moved
        quantum = np.lcm(budget.unit(src), budget.unit(dst))
        assert moved % quantum == 0

    def test_set_allocation_is_loud(self):
        _, masked = make_masked(sparsity=0.5)
        budget = masked.budget
        name = budget.names[0]
        with pytest.raises(ValueError):
            budget.set_allocation(name, budget.capacity_of(name) + 1)
        with pytest.raises(ValueError):
            budget.set_allocation(name, -1)
        _, blocked = make_masked(sparsity=0.5, hidden=(16, 16), block_size=4)
        block_name = blocked.budget.names[0]
        with pytest.raises(ValueError):
            blocked.budget.set_allocation(block_name, blocked.budget.unit(block_name) + 1)

    def test_state_dict_round_trip(self):
        _, masked = make_masked(sparsity=0.5)
        budget = masked.budget
        src, dst = budget.names[0], budget.names[1]
        budget.transfer(src, dst, budget.unit(src))
        clone = masked.budget.copy()
        clone.load_state_dict(budget.state_dict())
        assert clone.allocations() == budget.allocations()

    def test_deltas_report_transfer(self):
        _, masked = make_masked(sparsity=0.5)
        budget = masked.budget
        src, dst = budget.names[0], budget.names[1]
        moved = budget.transfer(src, dst, budget.unit(src))
        deltas = budget.deltas(masked)
        assert deltas[src] == -moved
        assert deltas[dst] == +moved


GROWERS = {
    "random": RandomGrowth,
    "gradient": GradientGrowth,
    "dst_ee": lambda: DSTEEGrowth(c=1e-3),
    "momentum": MomentumGrowth,
}


def make_controller(kind, masked, optimizer, grower, seed):
    schedule = TrainingSchedule(total_steps=2000, delta_t=10, drop_fraction=0.3)
    if kind == "balanced":
        return DensityBalanceController(
            masked,
            schedule=schedule,
            growth_rule=grower,
            optimizer=optimizer,
            rng=np.random.default_rng(seed),
            max_shift=0.2,
        )
    return DynamicSparseEngine(
        masked,
        grower,
        schedule=schedule,
        optimizer=optimizer,
        rng=np.random.default_rng(seed),
    )


class TestConservationProperty:
    """Exact global conservation across 100 rebalancing ΔT rounds."""

    @pytest.mark.parametrize("grower_name", sorted(GROWERS))
    @pytest.mark.parametrize("kind", ["engine", "balanced"])
    def test_elements_conserved_100_rounds(self, kind, grower_name):
        model, masked = make_masked(sparsity=0.5, hidden=(16, 16))
        optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
        controller = make_controller(
            kind, masked, optimizer, GROWERS[grower_name](), seed=1
        )
        rng = np.random.default_rng(2)
        total = controller.budget.total
        names = controller.budget.names
        for round_index in range(1, 101):
            nudge_weights(masked, rng)
            set_gradients(masked, rng)
            if kind == "engine" and round_index % 7 == 0:
                # Out-of-band rebalance: the engine must realize it while
                # keeping the global element budget exact.
                src = names[round_index % len(names)]
                dst = names[(round_index + 1) % len(names)]
                controller.budget.transfer(src, dst, 4)
            controller.mask_update(10 * round_index)
            # The global element budget is exact every round; per-layer
            # realization is best-effort (clamping / candidate shortage may
            # defer part of a layer's delta to the deficit fill).
            assert controller.budget.total == total
            assert masked.total_active == total
            assert sum(controller.budget.allocations().values()) == total

    @pytest.mark.parametrize("kind", ["engine", "balanced"])
    def test_blocks_conserved_100_rounds(self, kind):
        model, masked = make_masked(sparsity=0.5, hidden=(16, 16), block_size=4)
        optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
        controller = make_controller(
            kind, masked, optimizer, GradientGrowth(), seed=3
        )
        rng = np.random.default_rng(4)
        total = controller.budget.total
        block_total = sum(t.active_block_count for t in masked.targets)
        names = controller.budget.names
        for round_index in range(1, 101):
            nudge_weights(masked, rng)
            set_gradients(masked, rng)
            if kind == "engine" and round_index % 9 == 0:
                src = names[round_index % len(names)]
                dst = names[(round_index + 1) % len(names)]
                controller.budget.transfer(src, dst, controller.budget.unit(src))
            controller.mask_update(10 * round_index)
            assert masked.total_active == controller.budget.total == total
            assert sum(t.active_block_count for t in masked.targets) == block_total
            for target in masked.targets:
                # Block masks stay block-aligned through rebalancing.
                assert target.active_count % (target.block_size**2) == 0


class TestBalanceResumeBitwise:
    def test_kill_and_resume_is_bitwise_exact(self, tmp_path):
        def build():
            model, masked = make_masked(sparsity=0.5, hidden=(16, 16), seed=11)
            optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
            controller = DensityBalanceController(
                masked,
                schedule=TrainingSchedule(total_steps=2000, delta_t=10, drop_fraction=0.3),
                optimizer=optimizer,
                rng=np.random.default_rng(12),
                max_shift=0.2,
            )
            return model, masked, controller

        def run_rounds(masked, controller, rng, first, last):
            for round_index in range(first, last + 1):
                nudge_weights(masked, rng)
                set_gradients(masked, rng)
                controller.mask_update(10 * round_index)

        # Reference: 10 uninterrupted rounds.
        model_a, masked_a, controller_a = build()
        run_rounds(masked_a, controller_a, np.random.default_rng(13), 1, 10)

        # Interrupted twin: checkpoint through the real npz codec at round 5.
        model_b, masked_b, controller_b = build()
        rng_b = np.random.default_rng(13)
        run_rounds(masked_b, controller_b, rng_b, 1, 5)
        path = tmp_path / "balance.npz"
        save_training_checkpoint(
            path,
            {
                "controller": controller_b.state_dict(),
                "params": {
                    name: param.data.copy() for name, param in model_b.named_parameters()
                },
                "data_rng": rng_b.bit_generator.state,
            },
        )

        model_c, masked_c, controller_c = build()
        state = load_training_checkpoint(path)
        by_name = dict(model_c.named_parameters())
        for name, data in state["params"].items():
            by_name[name].data = data.reshape(by_name[name].data.shape)
        controller_c.load_state_dict(state["controller"])
        rng_c = np.random.default_rng(13)
        rng_c.bit_generator.state = state["data_rng"]
        run_rounds(masked_c, controller_c, rng_c, 6, 10)

        assert controller_a.budget.allocations() == controller_c.budget.allocations()
        for target_a, target_c in zip(masked_a.targets, masked_c.targets):
            assert np.array_equal(target_a.mask, target_c.mask)
            assert np.array_equal(target_a.param.data, target_c.param.data)
        ema_a = controller_a.rebalancer._ema
        ema_c = controller_c.rebalancer._ema
        assert ema_a.keys() == ema_c.keys()
        for name in ema_a:
            assert ema_a[name] == ema_c[name]


class TestDeprecationShims:
    """The one-release shims are gone; the forms that replaced them stay silent."""

    def test_set_masks_requires_sync_budget(self):
        _, masked = make_masked(sparsity=0.8)
        target = masked.targets[0]
        with pytest.raises(TypeError):
            masked.set_masks({target.name: np.ones_like(target.mask)})

    def test_set_masks_explicit_forms_are_silent(self):
        _, masked = make_masked(sparsity=0.8)
        target = masked.targets[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            masked.set_masks({target.name: np.ones_like(target.mask)}, sync_budget=True)
            masked.set_masks(
                {target.name: target.mask.copy()}, sync_budget=False
            )
        assert target.target_density == pytest.approx(1.0)  # refreshed by the first call

    def test_unified_forms_are_silent(self):
        _, masked = make_masked(sparsity=0.0)
        schedule = TrainingSchedule(total_steps=100, delta_t=10)
        final = DensityBudget.from_global(masked.targets, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            GMPController(masked, schedule, final)
            STRController(masked, schedule, final)
