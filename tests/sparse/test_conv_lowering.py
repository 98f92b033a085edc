"""The batch-innermost conv lowering shared by Conv2dKernel and SparseConv2d.

One geometry grid (padding, stride, kernel shape, H != W, 1x1 spatial
inputs, N = 1) at block sizes 1 and 4: the training kernel against dense
``conv2d``, the serving layer against the training kernel, the im2col /
col2im adjoint identity, and the workspace kill-switch.
"""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor
from repro.autograd import conv as conv_mod
from repro.autograd.conv import ConvWorkspace, _col2im_t, _im2col_t
from repro.sparse import MaskedModel, install_training_backends, remove_training_backends
from repro.sparse.inference import SparseConv2d

# (c_in, c_out, kernel, stride, padding, n, h, w)
GEOMETRIES = {
    "pad0": (4, 8, 3, 1, 0, 2, 6, 6),
    "pad1-h!=w": (4, 8, 3, 1, 1, 2, 5, 7),
    "pad2-stride2": (4, 8, 3, 2, 2, 3, 7, 6),
    "1x1": (8, 16, 1, 1, 0, 2, 4, 5),
    "1x1-stride2-pad1": (8, 16, 1, 2, 1, 2, 5, 5),
    "3x1": (4, 8, (3, 1), 1, 1, 2, 6, 4),
    "1x1-spatial-pad1": (8, 8, 3, 1, 1, 4, 1, 1),
    "n1-stride2": (4, 8, 3, 2, 1, 1, 6, 5),
}


def _layer(geometry, block_size):
    c_in, c_out, kernel, stride, padding, n, h, w = GEOMETRIES[geometry]
    rng = np.random.default_rng(7)
    layer = nn.Conv2d(c_in, c_out, kernel, stride=stride, padding=padding, rng=rng)
    masked = MaskedModel(
        layer,
        0.75,
        distribution="uniform",
        rng=np.random.default_rng(block_size),
        block_size=block_size,
    )
    x = rng.standard_normal((n, c_in, h, w)).astype(np.float32)
    return layer, masked, x


def _step(layer, x_data, upstream):
    layer.zero_grad()
    x = Tensor(x_data.copy(), requires_grad=True)
    out = layer(x)
    out.backward(upstream)
    return out.data.copy(), x.grad.copy(), layer.weight.grad.copy()


def _upstream(layer, x):
    shape = layer(Tensor(x)).shape
    return np.random.default_rng(11).standard_normal(shape).astype(np.float32)


def _sparse_step(layer, masked, x, upstream, dense_grads_required):
    label = "csr" if masked.targets[0].block_size == 1 else "bsr"
    report = install_training_backends(masked, mode=label, min_size=1)
    assert report[masked.targets[0].name] == label
    masked.targets[0].dense_grads_required = dense_grads_required
    result = _step(layer, x, upstream)
    remove_training_backends(layer)
    return result


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("block_size", [1, 4])
@pytest.mark.parametrize("dense_grads_required", [True, False])
def test_kernel_matches_dense_conv(geometry, block_size, dense_grads_required):
    layer, masked, x = _layer(geometry, block_size)
    upstream = _upstream(layer, x)
    out_d, gx_d, gw_d = _step(layer, x, upstream)
    out_s, gx_s, gw_s = _sparse_step(layer, masked, x, upstream, dense_grads_required)
    np.testing.assert_allclose(out_s, out_d, atol=1e-5)
    np.testing.assert_allclose(gx_s, gx_d, atol=1e-5)
    if dense_grads_required or block_size == 1:
        np.testing.assert_allclose(gw_s, gw_d, atol=1e-4)
    else:
        mask = masked.targets[0].mask
        np.testing.assert_allclose(gw_s, gw_d * mask, atol=1e-4)
        np.testing.assert_array_equal(gw_s[~mask], 0.0)


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("block_size", [1, 4])
def test_serving_layer_is_bitwise_the_training_forward(geometry, block_size):
    layer, masked, x = _layer(geometry, block_size)
    install_training_backends(masked, mode="csr" if block_size == 1 else "bsr", min_size=1)
    trained = layer(Tensor(x)).data.copy()
    target = masked.targets[0]
    served = SparseConv2d(layer, block_size, target.active_blocks if block_size > 1 else None)
    served.eval()
    np.testing.assert_array_equal(served(Tensor(x)).data, trained)


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_col2im_is_the_adjoint_of_im2col(geometry, monkeypatch):
    _, _, kernel, stride, padding, n, h, w = GEOMETRIES[geometry]
    c = 3
    kh, kw = kernel if isinstance(kernel, tuple) else (kernel, kernel)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((n, c, h, w)).astype(np.float32)
    cols_t, _, _ = _im2col_t(x, kh, kw, (stride, stride), (padding, padding))
    y = rng.standard_normal(cols_t.shape).astype(np.float32)
    back = _col2im_t(y, kh, kw, (stride, stride), (padding, padding), x.shape)
    lhs = np.dot(cols_t.ravel().astype(np.float64), y.ravel())
    rhs = np.dot(x.ravel().astype(np.float64), back.ravel())
    assert lhs == pytest.approx(rhs, rel=1e-5, abs=1e-4)
    # The slice-add fallback (no scipy internals) accumulates each image
    # position in the same order as the CSR scatter.
    monkeypatch.setattr(conv_mod, "_spt", None)
    fallback = _col2im_t(y, kh, kw, (stride, stride), (padding, padding), x.shape)
    np.testing.assert_array_equal(fallback, back)
    fallback_ws = _col2im_t(
        y, kh, kw, (stride, stride), (padding, padding), x.shape, ConvWorkspace()
    )
    np.testing.assert_array_equal(fallback_ws, back)


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("block_size", [1, 4])
def test_workspace_kill_switch_is_bitwise(geometry, block_size, monkeypatch):
    layer, masked, x = _layer(geometry, block_size)
    upstream = _upstream(layer, x)
    # Twice with the workspace: the second step runs on reused buffers.
    _sparse_step(layer, masked, x, upstream, False)
    cached = _sparse_step(layer, masked, x, upstream, False)
    monkeypatch.setenv("REPRO_CONV_WORKSPACE", "0")
    fresh = _sparse_step(layer, masked, x, upstream, False)
    for got, want in zip(fresh, cached):
        np.testing.assert_array_equal(got, want)
