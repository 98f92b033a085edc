"""Sharded multi-seed runs and sweeps: parity with serial, crash isolation.

Every workload's seeds and sweep cells go through the one
``run_multi_seed`` and the one ``run_sweep``; :class:`TestEveryWorkload`
drives both with each entrypoint.
"""

import functools

import numpy as np
import pytest

from repro.data.synthetic import cifar10_like
from repro.experiments.cli import main
from repro.experiments.gan import run_gan
from repro.experiments.lm import run_lm
from repro.experiments.registry import WORKLOADS, SweepCell, enumerate_cells
from repro.experiments.rl import run_rl
from repro.experiments.runner import (
    CellOutcome,
    SweepReport,
    _config_fingerprint,
    cell_key,
    run_image_classification,
    run_multi_seed,
    run_sweep,
    score_summary,
)
from repro.models import MLP
from repro.parallel import fork_available

RUN_KWARGS = dict(sparsity=0.9, epochs=1, batch_size=32, lr=0.05, delta_t=5)


@pytest.fixture(scope="module")
def data():
    return cifar10_like(n_train=192, n_test=96, image_size=8, seed=5)


def factory(seed):
    return MLP(3 * 8 * 8, (48,), 10, seed=seed)


def image_cells(data, fail_seed=None):
    """A sweep ``run`` training the MLP on ``data``; ``fail_seed`` explodes."""

    def build(seed):
        if fail_seed is not None and seed == fail_seed:
            raise RuntimeError(f"seed {seed} exploded")
        return factory(seed)

    def run(cell, **kwargs):
        return run_image_classification(
            cell.method, build, data, sparsity=cell.sparsity, seed=cell.seed, **kwargs
        )

    return run


class TestEnumerateCells:
    def test_deterministic_order(self):
        cells = enumerate_cells(["set", "dst_ee"], ["mlp"], ["cifar10"],
                                [0.9, 0.95], seeds=(0, 1))
        assert len(cells) == 8
        assert cells[0] == SweepCell("set", "mlp", "cifar10", 0.9, 0)
        assert cells == enumerate_cells(["set", "dst_ee"], ["mlp"], ["cifar10"],
                                        [0.9, 0.95], seeds=(0, 1))

    def test_unknown_method_fails_fast(self):
        with pytest.raises(ValueError, match="unknown method"):
            enumerate_cells(["not_a_method"], ["mlp"], ["cifar10"], [0.9])

    def test_root_seed_derivation(self):
        a = enumerate_cells(["set"], ["mlp"], ["cifar10"], [0.9],
                            seeds=(0, 1, 2), root_seed=7)
        b = enumerate_cells(["set"], ["mlp"], ["cifar10"], [0.9],
                            seeds=(0, 1, 2), root_seed=7)
        assert a == b
        seeds = [cell.seed for cell in a]
        assert len(set(seeds)) == 3  # independent streams, not 0/1/2
        assert seeds != [0, 1, 2]


@pytest.mark.skipif(not fork_available(), reason="no fork support")
class TestRunMultiSeedParallel:
    def test_matches_serial_exactly(self, data):
        run = functools.partial(run_image_classification, "dst_ee", factory, data, **RUN_KWARGS)
        serial = run_multi_seed(run, seeds=(0, 1), n_proc=1)
        parallel = run_multi_seed(run, seeds=(0, 1), n_proc=2)
        assert serial[0] == parallel[0]  # mean
        assert serial[1] == parallel[1]  # std
        for sr, pr in zip(serial[2], parallel[2]):
            assert sr.final_accuracy == pr.final_accuracy
            assert sr.actual_sparsity == pr.actual_sparsity
            for name in sr.masks:
                np.testing.assert_array_equal(sr.masks[name], pr.masks[name])

    def test_nested_gradient_workers_fall_back_to_serial(self, data):
        # Seed sharding forks daemonic workers, which cannot start a
        # GradientWorkerPool; the trainer must fall back to in-process
        # gradients (identical results) instead of crashing.
        run = functools.partial(run_image_classification, "dst_ee", factory, data, **RUN_KWARGS)
        plain = run_multi_seed(run, seeds=(0, 1), n_proc=2)
        nested = run_multi_seed(functools.partial(run, n_workers=2), seeds=(0, 1), n_proc=2)
        assert plain[0] == nested[0]
        assert [r.final_accuracy for r in plain[2]] == [
            r.final_accuracy for r in nested[2]
        ]

    def test_failed_seed_raises(self, data):
        def bad_factory(seed):
            raise RuntimeError("factory exploded")

        run = functools.partial(
            run_image_classification, "dst_ee", bad_factory, data, **RUN_KWARGS
        )
        with pytest.raises(RuntimeError, match="factory exploded"):
            run_multi_seed(run, seeds=(0, 1), n_proc=2)


class TestRunSweep:
    SWEEP_KWARGS = {k: v for k, v in RUN_KWARGS.items() if k != "sparsity"}

    def test_aggregation_matches_multi_seed(self, data):
        cells = enumerate_cells(["dst_ee"], ["mlp"], ["cifar10"], [0.9],
                                seeds=(0, 1))
        report = run_sweep(cells, image_cells(data), n_proc=1, **self.SWEEP_KWARGS)
        run = functools.partial(run_image_classification, "dst_ee", factory, data, **RUN_KWARGS)
        mean, std, _ = run_multi_seed(run, seeds=(0, 1), n_proc=1)
        rows = report.aggregate()
        assert len(rows) == 1
        assert rows[0]["mean_accuracy"] == pytest.approx(mean)
        assert rows[0]["std_accuracy"] == pytest.approx(std)
        assert rows[0]["seeds_ok"] == 2 and rows[0]["seeds_failed"] == 0

    @pytest.mark.parametrize("n_proc", [1, 2])
    def test_failing_cell_does_not_kill_sweep(self, data, n_proc):
        if n_proc > 1 and not fork_available():
            pytest.skip("no fork support")
        cells = enumerate_cells(["dst_ee"], ["mlp"], ["cifar10"], [0.9],
                                seeds=(0, 1, 2))
        report = run_sweep(cells, image_cells(data, fail_seed=1), n_proc=n_proc,
                           **self.SWEEP_KWARGS)
        oks = [outcome.ok for outcome in report.outcomes]
        assert oks == [True, False, True]
        assert "seed 1 exploded" in report.failures[0].error
        row = report.aggregate()[0]
        assert row["seeds_ok"] == 2 and row["seeds_failed"] == 1
        assert row["mean_accuracy"] is not None

    def test_unknown_model_or_dataset_rejected(self):
        # The sweep subcommand looks the cell's model and dataset up; its
        # parser only offers the ones it can build.
        with pytest.raises(SystemExit):
            main(["sweep", "--models", "nope"])
        with pytest.raises(SystemExit):
            main(["sweep", "--dataset", "nope"])


class _Scored:
    def __init__(self, score):
        self.final_accuracy = score


class TestScoreSummary:
    def test_aggregate_skips_a_seed_without_a_score(self):
        """One RL seed that finishes no episode must not turn its row into NaN."""
        cells = [SweepCell("dst_ee", "dqn", "cartpole", 0.9, seed) for seed in (0, 1, 2)]
        report = SweepReport(
            outcomes=[
                CellOutcome(cells[0], _Scored(10.0)),
                CellOutcome(cells[1], _Scored(None)),
                CellOutcome(cells[2], _Scored(20.0)),
            ]
        )
        (row,) = report.aggregate()
        assert row["mean_accuracy"] == 15.0
        assert row["std_accuracy"] == 5.0
        assert row["seeds_ok"] == 3 and row["seeds_failed"] == 0

    def test_skips_none_and_nothing_else(self):
        assert score_summary([1.0, None, 3.0]) == (2.0, 1.0)
        assert score_summary([None, None]) == (None, None)
        assert score_summary([]) == (None, None)
        mean, std = score_summary([1.0, float("nan")])
        assert np.isnan(mean) and np.isnan(std)

    def test_multi_seed_uses_the_same_summary(self):
        scores = {0: 4.0, 1: None, 2: 8.0}
        mean, std, results = run_multi_seed(lambda seed: _Scored(scores[seed]), n_proc=1)
        assert (mean, std) == score_summary(scores.values()) == (6.0, 2.0)
        assert [r.final_accuracy for r in results] == [4.0, None, 8.0]


# Tiny configurations of the four workloads: (run(seed=...), sweep run, cells).
def _image_workload(tiny_data, tiny_mlp_factory):
    kwargs = dict(epochs=1, batch_size=32, delta_t=3)

    def cell_run(cell, **extra):
        return run_image_classification(
            cell.method, tiny_mlp_factory, tiny_data,
            sparsity=cell.sparsity, seed=cell.seed, **kwargs, **extra,
        )

    seed_run = functools.partial(
        run_image_classification, "dst_ee", tiny_mlp_factory, tiny_data, sparsity=0.8, **kwargs
    )
    cells = enumerate_cells(["set", "dst_ee"], ["mlp"], ["tiny"], [0.8], seeds=(0,))
    return seed_run, cell_run, cells


def _entrypoint_workload(workload, entrypoint, dataset, **kwargs):
    def cell_run(cell, **extra):
        return entrypoint(
            cell.method, cell.dataset, sparsity=cell.sparsity, seed=cell.seed, **kwargs, **extra
        )

    seed_run = functools.partial(entrypoint, "dst_ee", dataset, sparsity=0.8, **kwargs)
    (model,) = WORKLOADS[workload].models
    cells = enumerate_cells(
        ["set", "dst_ee"], [model], [dataset], [0.8], seeds=(0,), workload=workload
    )
    return seed_run, cell_run, cells


WORKLOAD_SETUPS = {
    "image": _image_workload,
    "rl": lambda *_: _entrypoint_workload(
        "rl", run_rl, "cartpole", total_steps=120, warmup_steps=32, hidden=(8, 8),
        batch_size=16, delta_t=10, target_sync_every=25,
    ),
    "gan": lambda *_: _entrypoint_workload(
        "gan", run_gan, "ring4", total_steps=40, hidden=(8, 8), latent_dim=4,
        batch_size=16, delta_t=10, n_eval_samples=100,
    ),
    "lm": lambda *_: _entrypoint_workload(
        "lm", run_lm, "markov-prose", n_chars=1024, block_len=8, n_layer=1, n_head=2,
        n_embd=8, epochs=1, batch_size=16, delta_t=4,
    ),
}


def _same_result(a, b):
    assert type(a) is type(b)
    assert a.final_accuracy == b.final_accuracy
    masks_a, masks_b = getattr(a, "masks", {}), getattr(b, "masks", {})
    assert masks_a.keys() == masks_b.keys()
    for name in masks_a:
        np.testing.assert_array_equal(masks_a[name], masks_b[name])


@pytest.mark.parametrize("workload", sorted(WORKLOAD_SETUPS))
class TestEveryWorkload:
    @pytest.mark.skipif(not fork_available(), reason="no fork support")
    def test_multi_seed_serial_equals_sharded(self, workload, tiny_data, tiny_mlp_factory):
        seed_run, _, _ = WORKLOAD_SETUPS[workload](tiny_data, tiny_mlp_factory)
        serial = run_multi_seed(seed_run, seeds=(0, 1), n_proc=1)
        sharded = run_multi_seed(seed_run, seeds=(0, 1), n_proc=2)
        assert serial[:2] == sharded[:2]
        for a, b in zip(serial[2], sharded[2]):
            _same_result(a, b)

    def test_sweep_rerun_serves_every_cell_cached(
        self, workload, tiny_data, tiny_mlp_factory, tmp_path
    ):
        _, cell_run, cells = WORKLOAD_SETUPS[workload](tiny_data, tiny_mlp_factory)
        assert len(cells) == 2
        first = run_sweep(cells, cell_run, n_proc=1, checkpoint_dir=tmp_path)
        assert not first.failures
        second = run_sweep(cells, cell_run, n_proc=1, checkpoint_dir=tmp_path, resume=True)
        assert [outcome.cached for outcome in second.outcomes] == [True, True]
        for a, b in zip(first.outcomes, second.outcomes):
            _same_result(a.result, b.result)
        assert second.aggregate() == first.aggregate()


class TestSweepDirectoryNames:
    """Sweep directories written by earlier versions must still resume."""

    def test_cell_keys_are_pinned(self):
        assert [
            cell_key(cell)
            for cell in (
                SweepCell("dst_ee", "vgg11", "cifar10", 0.9, 0),
                SweepCell("rigl", "dqn", "cartpole", 0.95, 1),
                SweepCell("set", "gan", "ring8", 0.8, 2),
                SweepCell("dense", "char_gpt", "markov-prose", 0.0, 3),
            )
        ] == [
            "dst_ee_vgg11_cifar10_s0.9_seed0",
            "rigl_dqn_cartpole_s0.95_seed1",
            "set_gan_ring8_s0.8_seed2",
            "dense_char_gpt_markov-prose_s0_seed3",
        ]

    def test_config_fingerprint_is_pinned(self):
        run_kwargs = {
            "epochs": 2,
            "batch_size": 64,
            "lr": 0.05,
            "delta_t": 6,
            "block_size": None,
            "sparse_backend": None,
            "n_workers": 0,
            "checkpoint_every_epochs": 1,
            "checkpoint_keep_last": None,
            "callbacks": [object()],
        }
        assert _config_fingerprint(run_kwargs) == (
            "0e4a6bf607fddd16b1da6c2515b4aa8f53306cfb36a5902e539d7eac2e2dd311"
        )

    def test_workload_rows_name_what_the_entrypoints_accept(self):
        from repro.experiments.gan import MIXTURES
        from repro.rl.envs import ENV_REGISTRY

        assert WORKLOADS["rl"].datasets == tuple(ENV_REGISTRY)
        assert WORKLOADS["gan"].datasets == tuple(MIXTURES)
        assert WORKLOADS["lm"].datasets == ("markov-prose",)
