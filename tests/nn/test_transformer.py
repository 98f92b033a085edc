"""Transformer primitives: causal masking, LayerNorm gradients, embedding
sparse-row gradients, and the left-pad serving contract of CharGPT."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, gradcheck, ops
from repro.models import CharGPT
from repro.nn.losses import cross_entropy, lm_cross_entropy

RNG = np.random.default_rng(0)


def _tiny_gpt(**overrides):
    kwargs = dict(
        vocab_size=16, block_len=8, n_layer=1, n_head=2, n_embd=8, seed=0
    )
    kwargs.update(overrides)
    return CharGPT(**kwargs)


class TestCausalMask:
    def test_future_tokens_cannot_influence_past_positions(self):
        """Perturbing token t must leave logits at positions < t bitwise
        unchanged: the additive -1e9 mask underflows to exactly zero
        attention weight, so a changed future value contributes 0.0 * v."""
        model = _tiny_gpt()
        idx = RNG.integers(1, 16, size=(2, 8))
        logits_a = model(idx).data.reshape(2, 8, 16)
        perturbed = idx.copy()
        perturbed[:, -1] = (perturbed[:, -1] % 15) + 1  # different final token
        assert not np.array_equal(perturbed[:, -1], idx[:, -1])
        logits_b = model(perturbed).data.reshape(2, 8, 16)
        np.testing.assert_array_equal(logits_a[:, :-1], logits_b[:, :-1])
        assert not np.array_equal(logits_a[:, -1], logits_b[:, -1])

    def test_mid_sequence_perturbation_localized_to_suffix(self):
        model = _tiny_gpt()
        idx = RNG.integers(1, 16, size=(1, 8))
        perturbed = idx.copy()
        perturbed[0, 3] = (perturbed[0, 3] % 15) + 1
        logits_a = model(idx).data.reshape(8, 16)
        logits_b = model(perturbed).data.reshape(8, 16)
        np.testing.assert_array_equal(logits_a[:3], logits_b[:3])
        assert not np.array_equal(logits_a[3:], logits_b[3:])

    def test_attention_rejects_overlong_sequence(self):
        attn = nn.CausalSelfAttention(8, 2, max_len=4)
        x = Tensor(RNG.standard_normal((10, 8)).astype(np.float32))
        with pytest.raises(ValueError, match="exceeds max_len"):
            attn(x, batch=2, seq=5)


class TestLayerNorm:
    def test_backward_matches_numerical_gradients(self):
        """Gradients flow through the mean/var statistics exactly."""
        layer = nn.LayerNorm(6)
        layer.weight.data = RNG.standard_normal(6) + 1.0
        layer.bias.data = RNG.standard_normal(6)
        x = Tensor(RNG.standard_normal((4, 6)), requires_grad=True)
        gradcheck(
            lambda inp, w, b: layer(inp),
            [x, layer.weight, layer.bias],
            atol=1e-5,
            rtol=1e-4,
        )

    def test_normalizes_per_example(self):
        layer = nn.LayerNorm(32)
        x = Tensor((RNG.standard_normal((5, 32)) * 3 + 7).astype(np.float32))
        out = layer(x).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_train_and_eval_identical(self):
        layer = nn.LayerNorm(8)
        x = Tensor(RNG.standard_normal((3, 8)).astype(np.float32))
        train_out = layer(x).data.copy()
        layer.eval()
        np.testing.assert_array_equal(layer(x).data, train_out)

    def test_trailing_dim_mismatch_raises(self):
        with pytest.raises(ValueError, match="trailing dim"):
            nn.LayerNorm(8)(Tensor(np.zeros((2, 4), np.float32)))


class TestEmbedding:
    def test_gradient_is_sparse_by_row(self):
        """Only rows the batch indexes receive gradient; repeats sum."""
        emb = nn.Embedding(10, 4, rng=np.random.default_rng(3))
        out = emb(np.array([1, 3, 3]))
        out.backward(np.ones_like(out.data))
        grad = emb.weight.grad
        np.testing.assert_array_equal(grad[1], np.ones(4, np.float32))
        np.testing.assert_array_equal(grad[3], 2 * np.ones(4, np.float32))
        untouched = np.delete(np.arange(10), [1, 3])
        assert not grad[untouched].any()

    def test_output_shape_follows_indices(self):
        emb = nn.Embedding(6, 3)
        assert emb(np.zeros((2, 5), np.int64)).shape == (2, 5, 3)

    def test_rejects_non_integer_and_out_of_range(self):
        emb = nn.Embedding(6, 3)
        with pytest.raises(TypeError, match="integers"):
            emb(np.zeros(3, np.float32))
        with pytest.raises(IndexError, match="embedding ids"):
            emb(np.array([0, 6]))


class TestLeftPadContract:
    def test_left_padded_prompt_matches_unpadded_argmax(self):
        """The serving preprocessor always left-pads to max_length; the
        padded forward must pick the same greedy next token."""
        model = _tiny_gpt(head="last", pad_id=0)
        prompt = RNG.integers(1, 16, size=(1, 5))
        padded = np.zeros((1, 8), dtype=np.int64)
        padded[:, 3:] = prompt
        unpadded_logits = model(prompt).data
        padded_logits = model(padded).data
        np.testing.assert_allclose(unpadded_logits, padded_logits, atol=1e-4)
        assert int(unpadded_logits.argmax()) == int(padded_logits.argmax())

    def test_pad_must_form_left_prefix(self):
        model = _tiny_gpt(head="last", pad_id=0)
        bad = RNG.integers(1, 16, size=(1, 8))
        bad[0, 4] = 0  # pad token in the middle of real tokens
        with pytest.raises(ValueError, match="left prefix"):
            model(bad)

    def test_last_head_returns_one_row_per_example(self):
        model = _tiny_gpt(head="last")
        assert model(RNG.integers(1, 16, size=(3, 8))).shape == (3, 16)

    def test_invalid_head_and_pad_id_rejected(self):
        with pytest.raises(ValueError, match="head"):
            _tiny_gpt(head="middle")
        with pytest.raises(ValueError, match="pad_id"):
            _tiny_gpt(pad_id=16)


class TestLMCrossEntropy:
    def test_ignore_index_excludes_positions(self):
        logits = Tensor(RNG.standard_normal((6, 5)).astype(np.float32))
        targets = np.array([1, -1, 2, -1, 0, 4])
        valid = targets != -1
        full = lm_cross_entropy(logits, targets)
        subset = cross_entropy(
            Tensor(logits.data[valid]), targets[valid]
        )
        np.testing.assert_allclose(float(full.data), float(subset.data), rtol=1e-6)

    def test_no_gradient_at_ignored_positions(self):
        logits = Tensor(
            RNG.standard_normal((4, 5)).astype(np.float32), requires_grad=True
        )
        loss = lm_cross_entropy(logits, np.array([1, -1, 2, -1]))
        loss.backward()
        assert not logits.grad[1].any()
        assert not logits.grad[3].any()
        assert logits.grad[0].any()

    def test_all_ignored_raises(self):
        logits = Tensor(np.zeros((2, 3), np.float32))
        with pytest.raises(ValueError, match="ignore_index"):
            lm_cross_entropy(logits, np.array([-1, -1]))


class TestGELU:
    def test_matches_tanh_approximation(self):
        x = np.linspace(-3, 3, 31, dtype=np.float32)
        out = nn.GELU()(Tensor(x)).data
        expected = (
            0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))
        )
        np.testing.assert_allclose(out, expected, atol=1e-5)

    def test_fused_node_matches_composed_graph(self):
        """Forward and input-gradient parity of the fused ``ops.gelu`` node
        with the pow/tanh/mul graph it replaced, at float32 tolerance."""
        x_np = np.concatenate(
            [RNG.standard_normal(256) * 3.0, [0.0, 4.0, -4.0, 8.0, -8.0]]
        ).astype(np.float32)
        upstream = RNG.standard_normal(x_np.shape).astype(np.float32)

        x_fused = Tensor(x_np.copy(), requires_grad=True)
        out_fused = nn.GELU()(x_fused)
        out_fused.backward(upstream)

        x_ref = Tensor(x_np.copy(), requires_grad=True)
        cubic = ops.add(x_ref, ops.mul(0.044715, ops.pow(x_ref, 3.0)))
        gate = ops.add(1.0, ops.tanh(ops.mul(0.7978845608028654, cubic)))
        out_ref = ops.mul(ops.mul(0.5, x_ref), gate)
        out_ref.backward(upstream)

        assert out_fused.data.dtype == np.float32
        np.testing.assert_allclose(out_fused.data, out_ref.data, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(x_fused.grad, x_ref.grad, rtol=1e-5, atol=1e-5)
