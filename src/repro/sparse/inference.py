"""Compiled sparse inference: turn a trained MaskedModel into sparse kernels.

Table II reports inference FLOPs of the sparse models; this module makes
those savings *runnable*: after training, :func:`compile_sparse_model`
swaps every masked :class:`~repro.nn.Linear` / :class:`~repro.nn.Conv2d`
for an inference-only :class:`SparseLinear` / :class:`SparseConv2d` whose
weight lives in a frozen :class:`~repro.sparse.kernels.BsrMatmul` — the
same block-CSR kernel the training backends run, at the layer's trained
``block_size`` (1 for element masks).  The forward is one direct
``csr_matvecs`` call per layer (``W @ x.T``, sparse operand on the left),
so storage is ∝ non-zeros and no transposed copy of ``W`` is kept.

Serialized form (:mod:`repro.serve.artifact`): a block-size-1 layer stores
its CSR triplet ``(data, indices, indptr)`` exactly as the kernel reads
it; a block layer stores ``(nnzb, B, B)`` tiles with block
``indices``/``indptr`` and is expanded to the kernel's element-level CSR
at load.  The structure of a block layer comes from its trained mask, so
an active tile whose weights are all zero stays stored; a block-size-1
layer stores its non-zero values.

Compiled modules are inference-only: they raise if the model is in
training mode, and they do not participate in autograd.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.autograd.conv import _im2col
from repro.autograd.tensor import Tensor
from repro.nn.module import Module
from repro.sparse.blocks import expand_block_csr
from repro.sparse.kernels import BsrMatmul
from repro.sparse.masked import MaskedModel

__all__ = [
    "SparseLinear",
    "SparseConv2d",
    "compile_sparse_model",
    "sparse_storage_bytes",
]


def _compile_matmul(weight2d: np.ndarray, block_size: int, active_blocks=None) -> BsrMatmul:
    """Frozen kernel for a fixed (already masked) 2-D weight.

    Block layers keep every tile of ``active_blocks``; at block size 1 the
    structure is the weight's non-zeros.
    """
    rows, cols = weight2d.shape
    b = int(block_size)
    flat = np.ascontiguousarray(weight2d, dtype=np.float32).reshape(-1)
    active = np.flatnonzero(flat) if b == 1 else active_blocks
    indptr, indices, erows = expand_block_csr(active, rows // b, cols // b, b)
    return BsrMatmul.frozen((rows, cols), b, flat[erows * cols + indices], indices, indptr)


def _tile_slots(indptr: np.ndarray, brow: np.ndarray, first: np.ndarray, b: int) -> np.ndarray:
    """Element-CSR slot of every tile value, in ``(tile, row, col)`` order.

    ``brow`` is each tile's block row and ``first`` the slot offset of its
    top-left value within its first element row.
    """
    i = np.arange(b)
    starts = indptr[brow[:, None] * b + i[None, :]] + first[:, None]
    return (starts[:, :, None] + i[None, None, :]).reshape(-1)


def _load_matmul(shape2d, block_size: int, data, indices, indptr, copy: bool) -> BsrMatmul:
    """Frozen kernel from stored parts (CSR triplet, or tiles when ``B > 1``).

    At block size 1 with ``copy=False`` the kernel reads the caller's
    arrays (e.g. views into a shared-memory weight arena); block layers
    always expand into fresh element-level arrays.
    """
    b = int(block_size)
    data = np.asarray(data, dtype=np.float32)
    indices = np.asarray(indices, dtype=np.int32)
    indptr = np.asarray(indptr, dtype=np.int32)
    if b == 1:
        if copy:
            data, indices, indptr = data.copy(), indices.copy(), indptr.copy()
        return BsrMatmul.frozen(shape2d, 1, data, indices, indptr)
    block_rows, block_cols = shape2d[0] // b, shape2d[1] // b
    brow = np.repeat(np.arange(block_rows), np.diff(indptr))
    elem_indptr, elem_indices, _ = expand_block_csr(
        brow * block_cols + indices, block_rows, block_cols, b
    )
    rank = np.arange(brow.size) - indptr[brow]
    elem_data = np.empty(elem_indices.size, dtype=np.float32)
    elem_data[_tile_slots(elem_indptr, brow, rank * b, b)] = data.reshape(-1)
    return BsrMatmul.frozen(shape2d, b, elem_data, elem_indices, elem_indptr)


def _stored_parts(matmul: BsrMatmul) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`_load_matmul`: the parts an artifact stores."""
    b = matmul.block_size
    if b == 1:
        return matmul.data, matmul.indices, matmul.indptr
    rows = matmul.shape2d[0]
    indptr, indices = matmul.indptr, matmul.indices
    erows = np.repeat(np.arange(rows), np.diff(indptr))
    # A tile's top-left value sits at an element row and column that are
    # both multiples of B; in CSR order those slots come in block-id order.
    top = np.flatnonzero((erows % b == 0) & (indices % b == 0))
    brow = erows[top] // b
    tiles = matmul.data[_tile_slots(indptr, brow, top - indptr[erows[top]], b)]
    block_indptr = np.zeros(rows // b + 1, dtype=np.int32)
    np.cumsum(np.bincount(brow, minlength=rows // b), out=block_indptr[1:])
    return tiles.reshape(-1, b, b), indices[top] // b, block_indptr


class _CompiledLayer(Module):
    """Shared state of a compiled layer: a frozen kernel plus its bias."""

    matmul: BsrMatmul
    bias_data: np.ndarray | None

    @property
    def block_size(self) -> int:
        return self.matmul.block_size

    @property
    def nnz(self) -> int:
        return int(self.matmul.data.size)

    def stored_parts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(data, indices, indptr)`` as an artifact stores them: the CSR
        triplet at block size 1, ``(nnzb, B, B)`` tiles with block
        ``indices``/``indptr`` above it."""
        return _stored_parts(self.matmul)

    def _product(self, x_t: np.ndarray) -> np.ndarray:
        """``W @ x_t + bias`` into a fresh ``(rows, N)`` array.

        Fresh per call: serving holds results across calls, and several
        threads (a router canary and the batch thread) may share a model.
        """
        rows, cols = self.matmul.shape2d
        if x_t.shape[0] != cols:
            raise ValueError(
                f"{type(self).__name__} expects {cols} input features per column, "
                f"got {x_t.shape[0]}"
            )
        # csr_matvecs reads raw float32 memory, so cast and lay out first.
        x_t = np.ascontiguousarray(x_t, dtype=np.float32)
        out = np.empty((rows, x_t.shape[1]), dtype=np.float32)
        return self.matmul.matmul_wx(x_t, self.bias_data, out=out)

    def _check_eval(self) -> None:
        if self.training:
            raise RuntimeError(f"{type(self).__name__} is inference-only; call model.eval()")


def _bias(bias) -> np.ndarray | None:
    return None if bias is None else np.array(bias, dtype=np.float32, copy=True)


class SparseLinear(_CompiledLayer):
    """Inference-only linear layer over a frozen block-CSR weight."""

    def __init__(self, dense: nn.Linear, block_size: int = 1, active_blocks=None):
        super().__init__()
        self.in_features = dense.in_features
        self.out_features = dense.out_features
        self.matmul = _compile_matmul(dense.weight.data, block_size, active_blocks)
        self.bias_data = _bias(None if dense.bias is None else dense.bias.data)

    @classmethod
    def from_csr(
        cls,
        in_features: int,
        out_features: int,
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        bias: np.ndarray | None = None,
        copy: bool = True,
        block_size: int = 1,
    ) -> "SparseLinear":
        """Rebuild a compiled layer from its :meth:`stored_parts`.

        Serving-artifact round-trip hook: at block size 1 with
        ``copy=False`` the kernel reads the caller's arrays (e.g. read-only
        views into a shared-memory arena), so multiple serving workers
        share one copy.
        """
        layer = cls.__new__(cls)
        Module.__init__(layer)
        layer.in_features = int(in_features)
        layer.out_features = int(out_features)
        layer.matmul = _load_matmul(
            (layer.out_features, layer.in_features), block_size, data, indices, indptr, copy
        )
        layer.bias_data = _bias(bias)
        layer.eval()
        return layer

    def forward(self, x: Tensor) -> Tensor:
        self._check_eval()
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        if data.ndim != 2:
            raise ValueError(f"SparseLinear expects (N, features) input, got shape {data.shape}")
        # W @ x.T lands C-contiguous; its transpose is the (N, out) result.
        return Tensor(self._product(data.T).T)

    def __repr__(self) -> str:
        density = self.nnz / (self.in_features * self.out_features)
        return (
            f"SparseLinear(in={self.in_features}, out={self.out_features}, "
            f"block={self.block_size}, nnz={self.nnz}, density={density:.3f})"
        )


class SparseConv2d(_CompiledLayer):
    """Inference-only conv layer: im2col + block-CSR filter-matrix product."""

    def __init__(self, dense: nn.Conv2d, block_size: int = 1, active_blocks=None):
        super().__init__()
        self.in_channels = dense.in_channels
        self.out_channels = dense.out_channels
        self.kernel_size = dense.kernel_size
        self.stride = dense.stride
        self.padding = dense.padding
        kh, kw = self.kernel_size
        self.matmul = _compile_matmul(
            dense.weight.data.reshape(self.out_channels, self.in_channels * kh * kw),
            block_size,
            active_blocks,
        )
        self.bias_data = _bias(None if dense.bias is None else dense.bias.data)

    @classmethod
    def from_csr(
        cls,
        in_channels: int,
        out_channels: int,
        kernel_size: tuple[int, int],
        stride,
        padding,
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        bias: np.ndarray | None = None,
        copy: bool = True,
        block_size: int = 1,
    ) -> "SparseConv2d":
        """Rebuild a compiled conv layer from its :meth:`stored_parts`.

        See :meth:`SparseLinear.from_csr`; the matrix here is the
        ``(out_channels, in_channels * kh * kw)`` filter matrix.
        """
        layer = cls.__new__(cls)
        Module.__init__(layer)
        layer.in_channels = int(in_channels)
        layer.out_channels = int(out_channels)
        kh, kw = kernel_size
        layer.kernel_size = (int(kh), int(kw))
        layer.stride = tuple(stride) if isinstance(stride, (tuple, list)) else int(stride)
        layer.padding = tuple(padding) if isinstance(padding, (tuple, list)) else int(padding)
        layer.matmul = _load_matmul(
            (layer.out_channels, layer.in_channels * layer.kernel_size[0] * layer.kernel_size[1]),
            block_size,
            data,
            indices,
            indptr,
            copy,
        )
        layer.bias_data = _bias(bias)
        layer.eval()
        return layer

    def forward(self, x: Tensor) -> Tensor:
        self._check_eval()
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        if data.ndim != 4 or data.shape[1] != self.in_channels:
            raise ValueError(
                f"SparseConv2d expects (N, {self.in_channels}, H, W) input, got shape {data.shape}"
            )
        kh, kw = self.kernel_size
        stride = self.stride if isinstance(self.stride, tuple) else (self.stride, self.stride)
        padding = self.padding if isinstance(self.padding, tuple) else (self.padding, self.padding)
        cols, _, out_h, out_w = _im2col(data, kh, kw, stride, padding)
        n = data.shape[0]
        # (C*kh*kw, N*oh*ow) so the filter matrix multiplies from the left.
        cols_t = cols.transpose(3, 4, 5, 0, 1, 2).reshape(self.in_channels * kh * kw, -1)
        out_t = self._product(cols_t)
        out = out_t.reshape(self.out_channels, n, out_h, out_w).transpose(1, 0, 2, 3)
        return Tensor(np.ascontiguousarray(out))

    def __repr__(self) -> str:
        kh, kw = self.kernel_size
        size = self.out_channels * self.in_channels * kh * kw
        return (
            f"SparseConv2d({self.in_channels}, {self.out_channels}, "
            f"kernel={self.kernel_size}, block={self.block_size}, "
            f"nnz={self.nnz}, density={self.nnz / size:.3f})"
        )


def compile_sparse_model(masked: MaskedModel) -> Module:
    """Replace every masked Linear/Conv2d in the model with a sparse version.

    The masks are applied first, so the sparse structure matches the
    trained sparsity pattern exactly; each layer keeps its trained
    ``block_size``.  Returns the (mutated) model in eval mode.  The
    original :class:`MaskedModel` should not be trained afterwards.
    """
    masked.apply_masks()
    targets_by_param = {id(t.param): t for t in masked.targets}
    model = masked.model

    def compile_children(module: Module) -> None:
        for name, child in list(module._modules.items()):
            target = None
            if isinstance(child, (nn.Linear, nn.Conv2d)):
                target = targets_by_param.get(id(child.weight))
            if target is None:
                compile_children(child)
                continue
            layer_cls = SparseLinear if isinstance(child, nn.Linear) else SparseConv2d
            active_blocks = target.active_blocks if target.block_size > 1 else None
            module.add_module(name, layer_cls(child, target.block_size, active_blocks))

    compile_children(model)
    model.eval()
    return model


def sparse_storage_bytes(model: Module) -> tuple[int, int]:
    """(sparse bytes, equivalent dense bytes) over all compiled sparse layers."""
    sparse_bytes = 0
    dense_bytes = 0
    for module in model.modules():
        if isinstance(module, _CompiledLayer):
            sparse_bytes += sum(part.nbytes for part in module.stored_parts())
            dense_bytes += int(np.prod(module.matmul.shape2d)) * 4
    return sparse_bytes, dense_bytes
