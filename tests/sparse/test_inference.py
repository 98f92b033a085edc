"""Compiled sparse inference: numerical parity with dense, storage savings."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, no_grad
from repro.models import MLP, vgg11
from repro.sparse import MaskedModel
from repro.sparse.inference import (
    SparseConv2d,
    SparseLinear,
    compile_sparse_model,
    sparse_storage_bytes,
)

RNG = np.random.default_rng(0)


class TestSparseLinear:
    def test_matches_dense_output(self):
        dense = nn.Linear(16, 8, rng=np.random.default_rng(1))
        dense.weight.data *= RNG.random((8, 16)) < 0.3  # sparsify
        sparse = SparseLinear(dense)
        sparse.eval()
        x = Tensor(RNG.standard_normal((4, 16)).astype(np.float32))
        dense.eval()
        with no_grad():
            expected = dense(x).data
        assert np.allclose(sparse(x).data, expected, atol=1e-5)

    def test_no_bias(self):
        dense = nn.Linear(6, 3, bias=False, rng=np.random.default_rng(1))
        sparse = SparseLinear(dense)
        sparse.eval()
        x = Tensor(np.ones((2, 6), dtype=np.float32))
        assert sparse(x).shape == (2, 3)

    def test_training_mode_raises(self):
        sparse = SparseLinear(nn.Linear(4, 2))
        sparse.train()
        with pytest.raises(RuntimeError, match="inference-only"):
            sparse(Tensor(np.zeros((1, 4), dtype=np.float32)))

    def test_nnz_matches_mask(self):
        dense = nn.Linear(10, 10, rng=np.random.default_rng(1))
        mask = RNG.random((10, 10)) < 0.2
        dense.weight.data = (dense.weight.data * mask).astype(np.float32)
        assert SparseLinear(dense).nnz == int((dense.weight.data != 0).sum())


class TestSparseConv2d:
    def test_matches_dense_output(self):
        dense = nn.Conv2d(3, 5, 3, stride=1, padding=1, rng=np.random.default_rng(2))
        dense.weight.data *= RNG.random(dense.weight.shape) < 0.3
        sparse = SparseConv2d(dense)
        sparse.eval()
        dense.eval()
        x = Tensor(RNG.standard_normal((2, 3, 6, 6)).astype(np.float32))
        with no_grad():
            expected = dense(x).data
        assert np.allclose(sparse(x).data, expected, atol=1e-4)

    def test_strided(self):
        dense = nn.Conv2d(2, 4, 3, stride=2, padding=1, rng=np.random.default_rng(2))
        sparse = SparseConv2d(dense)
        sparse.eval()
        dense.eval()
        x = Tensor(RNG.standard_normal((1, 2, 8, 8)).astype(np.float32))
        with no_grad():
            expected = dense(x).data
        out = sparse(x)
        assert out.shape == expected.shape
        assert np.allclose(out.data, expected, atol=1e-4)

    def test_training_mode_raises(self):
        sparse = SparseConv2d(nn.Conv2d(1, 1, 3))
        sparse.train()
        with pytest.raises(RuntimeError, match="inference-only"):
            sparse(Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32)))


def _compiled_linear(block_size=1):
    model = nn.Linear(16, 8, rng=np.random.default_rng(4))
    masked = MaskedModel(model, 0.5, distribution="uniform",
                         rng=np.random.default_rng(5), block_size=block_size)
    target = masked.targets[0]
    active_blocks = target.active_blocks if block_size > 1 else None
    layer = SparseLinear(model, block_size, active_blocks)
    layer.eval()
    return layer


class TestForwardGuards:
    """The inference forward calls csr_matvecs directly, so it checks first."""

    @pytest.mark.parametrize("block_size", [1, 4])
    def test_float64_input_is_cast_to_float32(self, block_size):
        layer = _compiled_linear(block_size)
        x = RNG.standard_normal((3, 16))
        out = layer(Tensor(x)).data
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, layer(Tensor(x.astype(np.float32))).data)

    def test_non_contiguous_input_matches_contiguous(self):
        layer = _compiled_linear()
        x = RNG.standard_normal((16, 3)).astype(np.float32).T  # F-ordered view
        expected = layer(Tensor(np.ascontiguousarray(x))).data
        np.testing.assert_array_equal(layer(Tensor(x)).data, expected)

    def test_wrong_width_raises_value_error(self):
        layer = _compiled_linear()
        with pytest.raises(ValueError, match="16 input features"):
            layer(Tensor(np.zeros((2, 15), dtype=np.float32)))

    def test_conv_wrong_channels_raises_value_error(self):
        layer = SparseConv2d(nn.Conv2d(3, 4, 3, rng=np.random.default_rng(1)))
        layer.eval()
        with pytest.raises(ValueError, match="expects"):
            layer(Tensor(np.zeros((1, 2, 5, 5), dtype=np.float32)))

    @pytest.mark.parametrize("block_size", [1, 4])
    def test_first_prediction_unchanged_after_second(self, block_size):
        layer = _compiled_linear(block_size)
        first = layer(Tensor(RNG.standard_normal((3, 16)).astype(np.float32))).data
        kept = first.copy()
        layer(Tensor(RNG.standard_normal((3, 16)).astype(np.float32)))
        np.testing.assert_array_equal(first, kept)

    def test_conv_first_prediction_unchanged_after_second(self):
        layer = SparseConv2d(nn.Conv2d(3, 4, 3, rng=np.random.default_rng(1)))
        layer.eval()
        first = layer(Tensor(RNG.standard_normal((1, 3, 5, 5)).astype(np.float32))).data
        kept = first.copy()
        layer(Tensor(RNG.standard_normal((1, 3, 5, 5)).astype(np.float32)))
        np.testing.assert_array_equal(first, kept)


class TestCompile:
    def test_compiled_model_matches_masked_dense(self):
        model = vgg11(num_classes=4, width_mult=0.1, input_size=8, seed=3)
        masked = MaskedModel(model, 0.9, rng=np.random.default_rng(3))
        x = Tensor(RNG.standard_normal((2, 3, 8, 8)).astype(np.float32))
        model.eval()
        with no_grad():
            expected = model(x).data
        compiled = compile_sparse_model(masked)
        with no_grad():
            got = compiled(x).data
        assert np.allclose(got, expected, atol=1e-3)

    def test_all_masked_layers_compiled(self):
        model = MLP(in_features=12, hidden=(16,), num_classes=3, seed=0)
        masked = MaskedModel(model, 0.8, rng=np.random.default_rng(0))
        compiled = compile_sparse_model(masked)
        sparse_layers = [
            m for m in compiled.modules() if isinstance(m, (SparseLinear, SparseConv2d))
        ]
        assert len(sparse_layers) == len(masked.targets)
        # No dense Linear with a masked weight remains.
        assert not any(isinstance(m, nn.Linear) for m in compiled.modules())

    def test_compiled_accuracy_preserved(self):
        from repro.data import make_image_classification, DataLoader
        from repro.train import evaluate_classifier

        data = make_image_classification(3, 96, 96, image_size=8, noise=0.6, seed=9)
        model = MLP(in_features=3 * 8 * 8, hidden=(32,), num_classes=3, seed=0)
        masked = MaskedModel(model, 0.7, rng=np.random.default_rng(0))
        loader = DataLoader(data.test, batch_size=48)
        before = evaluate_classifier(model, loader)
        compiled = compile_sparse_model(masked)
        after = evaluate_classifier(compiled, loader)
        assert after == pytest.approx(before, abs=1e-9)

    def test_storage_savings_at_high_sparsity(self):
        model = vgg11(num_classes=4, width_mult=0.2, input_size=8, seed=3)
        masked = MaskedModel(model, 0.95, rng=np.random.default_rng(3))
        compiled = compile_sparse_model(masked)
        csr_bytes, dense_bytes = sparse_storage_bytes(compiled)
        assert csr_bytes < 0.5 * dense_bytes  # big win at 95% sparsity

    def test_bias_free_layers_compile_and_match(self):
        """The serve path exports bias-free layers; compile must keep parity."""
        model = nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1, bias=False, rng=np.random.default_rng(5)),
            nn.ReLU(),
        )
        masked = MaskedModel(model, 0.7, rng=np.random.default_rng(5))
        x = Tensor(RNG.standard_normal((2, 3, 6, 6)).astype(np.float32))
        model.eval()
        with no_grad():
            expected = model(x).data
        compiled = compile_sparse_model(masked)
        layer = compiled[0]
        assert isinstance(layer, SparseConv2d)
        assert layer.bias_data is None
        with no_grad():
            assert np.allclose(compiled(x).data, expected, atol=1e-4)

    def test_bias_free_linear_compiles(self):
        model = nn.Sequential(nn.Linear(10, 6, bias=False, rng=np.random.default_rng(4)))
        masked = MaskedModel(model, 0.5, rng=np.random.default_rng(4))
        x = Tensor(RNG.standard_normal((3, 10)).astype(np.float32))
        model.eval()
        with no_grad():
            expected = model(x).data
        compiled = compile_sparse_model(masked)
        assert compiled[0].bias_data is None
        with no_grad():
            assert np.allclose(compiled(x).data, expected, atol=1e-5)

    def test_compiled_model_raises_if_put_back_in_training(self):
        model = MLP(in_features=12, hidden=(16,), num_classes=3, seed=0)
        masked = MaskedModel(model, 0.8, rng=np.random.default_rng(0))
        compiled = compile_sparse_model(masked)
        compiled.train()
        with pytest.raises(RuntimeError, match="inference-only"):
            compiled(Tensor(np.zeros((1, 12), dtype=np.float32)))

    def test_unmasked_layers_left_dense(self):
        model = MLP(in_features=12, hidden=(16,), num_classes=3, seed=0)
        linears = [m for m in model.modules() if isinstance(m, nn.Linear)]
        masked = MaskedModel(model, 0.8, include_modules=[linears[0]],
                             rng=np.random.default_rng(0))
        compiled = compile_sparse_model(masked)
        kinds = [type(m).__name__ for m in compiled.modules()]
        assert kinds.count("SparseLinear") == 1
        assert kinds.count("Linear") == 1  # the unmasked layer stays dense


class TestFromCsr:
    """Artifact round-trip hooks: layers rebuilt from raw CSR components."""

    def test_linear_from_csr_matches_original(self):
        dense = nn.Linear(14, 9, rng=np.random.default_rng(6))
        dense.weight.data *= RNG.random((9, 14)) < 0.25
        original = SparseLinear(dense)
        original.eval()
        rebuilt = SparseLinear.from_csr(
            14, 9,
            *original.stored_parts(),
            bias=original.bias_data,
        )
        x = Tensor(RNG.standard_normal((5, 14)).astype(np.float32))
        assert np.array_equal(rebuilt(x).data, original(x).data)
        assert rebuilt.nnz == original.nnz
        assert not rebuilt.training

    def test_conv_from_csr_matches_original(self):
        dense = nn.Conv2d(2, 5, 3, stride=2, padding=1, rng=np.random.default_rng(6))
        dense.weight.data *= RNG.random(dense.weight.shape) < 0.25
        original = SparseConv2d(dense)
        original.eval()
        rebuilt = SparseConv2d.from_csr(
            2, 5, (3, 3), (2, 2), (1, 1),
            *original.stored_parts(),
            bias=original.bias_data,
        )
        x = Tensor(RNG.standard_normal((2, 2, 8, 8)).astype(np.float32))
        assert np.array_equal(rebuilt(x).data, original(x).data)

    def test_from_csr_no_copy_aliases_caller_arrays(self):
        dense = nn.Linear(8, 4, bias=False, rng=np.random.default_rng(2))
        original = SparseLinear(dense)
        data, indices, indptr = (part.copy() for part in original.stored_parts())
        rebuilt = SparseLinear.from_csr(
            8, 4, data, indices, indptr,
            copy=False,
        )
        assert rebuilt.matmul.data is data

    def test_from_csr_copy_detaches_from_caller_arrays(self):
        dense = nn.Linear(8, 4, bias=False, rng=np.random.default_rng(2))
        original = SparseLinear(dense)
        data, indices, indptr = (part.copy() for part in original.stored_parts())
        rebuilt = SparseLinear.from_csr(
            8, 4, data, indices, indptr,
            copy=True,
        )
        assert rebuilt.matmul.data is not data
