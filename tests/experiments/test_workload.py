"""The unified WorkloadConfig API: precedence, sentinels, the knob table.

Precedence contract (docs/controllers.md): explicit kwarg > config field >
per-workload default from ``DEFAULTS``.
"""

import pickle

import numpy as np
import pytest

from repro.experiments import UNSET, WorkloadConfig, resolve_knob, run_lm
from repro.experiments.gan import run_gan
from repro.experiments.rl import run_rl
from repro.experiments.workload import DEFAULTS, _Unset

TINY_RL = dict(
    total_steps=260,
    warmup_steps=64,
    hidden=(16, 16),
    batch_size=16,
    delta_t=10,
    target_sync_every=25,
)

TINY_LM = dict(
    n_chars=2048,
    block_len=16,
    n_layer=1,
    n_head=2,
    n_embd=16,
    epochs=1,
    batch_size=16,
)


class TestSentinel:
    def test_unset_is_a_singleton_even_across_pickle(self):
        assert _Unset() is UNSET
        assert pickle.loads(pickle.dumps(UNSET)) is UNSET

    def test_repr(self):
        assert repr(UNSET) == "<unset>"


class TestResolveKnob:
    CFG = WorkloadConfig(sparsity=0.5, seed=3)

    def test_explicit_beats_config(self):
        assert resolve_knob("sparsity", 0.8, self.CFG, "rl") == 0.8

    def test_explicit_none_beats_config(self):
        # None is a meaningful value (e.g. checkpoint_every_epochs=None
        # disables epoch checkpoints), so it must not fall through.
        assert resolve_knob("sparsity", None, self.CFG, "rl") is None

    def test_config_beats_default(self):
        assert resolve_knob("sparsity", UNSET, self.CFG, "rl") == 0.5

    def test_unset_config_field_falls_to_default(self):
        assert resolve_knob("delta_t", UNSET, self.CFG, "rl") == 100
        assert resolve_knob("delta_t", UNSET, self.CFG, "image") == 20

    def test_no_config_falls_to_default(self):
        assert resolve_knob("lr", UNSET, None, "image") == DEFAULTS["image"]["lr"] == 0.1

    def test_knob_outside_the_workload_is_loud(self):
        # run_gan resolves no sparse backend; asking for one is a bug.
        with pytest.raises(KeyError):
            resolve_knob("sparse_backend", UNSET, None, "gan")


class TestWorkloadConfig:
    def test_kwargs_returns_only_set_fields(self):
        cfg = WorkloadConfig(method="dst_ee", delta_t=50)
        assert cfg.kwargs() == {"method": "dst_ee", "delta_t": 50}

    def test_frozen(self):
        with pytest.raises(AttributeError):
            WorkloadConfig().method = "dense"


class TestEntrypointIntegration:
    def test_run_lm_config_matches_explicit_kwargs(self):
        explicit = run_lm(method="dst_ee", sparsity=0.8, seed=0, **TINY_LM)
        cfg = WorkloadConfig(method="dst_ee", sparsity=0.8, seed=0)
        via_config = run_lm(config=cfg, **TINY_LM)
        assert via_config.val_loss == explicit.val_loss
        assert via_config.train_loss == explicit.train_loss
        for name in explicit.masks:
            np.testing.assert_array_equal(explicit.masks[name], via_config.masks[name])

    def test_run_lm_explicit_overrides_config(self):
        cfg = WorkloadConfig(method="dst_ee", sparsity=0.5, seed=0)
        result = run_lm(config=cfg, sparsity=0.8, **TINY_LM)
        assert result.sparsity == 0.8

    def test_run_rl_epsilon_via_config_matches_explicit(self):
        explicit = run_rl("dst_ee", "cartpole", seed=0, epsilon=0.5, **TINY_RL)
        cfg = WorkloadConfig(method="dst_ee", seed=0, epsilon=0.5)
        via_config = run_rl(config=cfg, **TINY_RL)
        assert via_config.final_avg_return == explicit.final_avg_return
        for name in explicit.masks:
            np.testing.assert_array_equal(explicit.masks[name], via_config.masks[name])

    @pytest.mark.parametrize(
        "entrypoint,alias",
        [
            (run_rl, "ee_epsilon"),
            (run_rl, "checkpoint_every_episodes"),
            (run_gan, "ee_epsilon"),
        ],
    )
    def test_removed_aliases_raise_type_error(self, entrypoint, alias):
        with pytest.raises(TypeError, match=alias):
            entrypoint("dst_ee", **{alias: 1})

    def test_run_rl_via_config(self):
        cfg = WorkloadConfig(method="dense", seed=0)
        result = run_rl(config=cfg, **TINY_RL)
        assert result.method == "dense"

    def test_missing_method_is_loud(self):
        with pytest.raises((TypeError, ValueError)):
            run_lm(**TINY_LM)
