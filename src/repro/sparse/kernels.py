"""The one sparse kernel for masked Linear/Conv2d layers, training and serving.

The drop-and-grow engine keeps masks as dense booleans, but at the paper's
90–98% sparsities the *compute* should exploit the sparse structure too
(RigL and the Graphcore dynamic-sparsity stack both make this point).  This
module provides that compute path:

* :class:`BsrMatmul` — block-CSR matmuls for one masked 2-D weight view.
  Element masks are block size 1; tile masks use the layer's ``B``.  Each
  structure rebuild expands the active set (``active_indices`` at block
  size 1, the engine's sorted ``active_blocks`` above it) to element-level
  CSR in ``O(nnz)`` and runs only when the owning layer's ``mask_version``
  changed.  Values are refreshed from the dense parameter by ``np.take``
  into preallocated arrays, and the products call scipy's ``csr_matvecs``
  directly on C-contiguous operands with the sparse operand on the left,
  bypassing scipy's per-call operator dispatch.  Serving uses the same
  class, frozen (:meth:`BsrMatmul.frozen`), through
  :mod:`repro.sparse.inference`.
* :class:`LinearKernel` / :class:`Conv2dKernel` — backend objects installed
  on ``module.forward_backend`` (see :mod:`repro.nn.linear` /
  :mod:`repro.nn.conv`).  They run the masked forward through the sparse
  matmul and register an autograd closure whose input gradient also uses
  the sparse structure.  Convolutions lower through the batch-innermost
  ``(C*kh*kw, oh*ow*N)`` window matrix of
  :func:`repro.autograd.conv._im2col_t`, which serving's
  :class:`~repro.sparse.inference.SparseConv2d` shares.  The **weight**
  gradient is the dense GEMM ``gradᵀ @ x``: growth rules (RigL, DST-EE,
  SNFS) score *inactive* weights by dense-gradient magnitude, so it is
  part of the algorithm, not overhead.  Between mask updates
  (``dense_grads_required`` False) layers with ``block_size > 1`` compute
  active tiles only (a block SDDMM); at block size 1 that per-element
  SDDMM measured 3.6× slower than the GEMM (docs/performance.md), so the
  GEMM always runs there.
* A dispatch layer: per layer, ``dense`` vs ``csr``/``bsr`` is
  auto-selected from the layer's density, size and mask granularity; the
  mode and thresholds are overridable per call or process-wide via
  environment variables.  ``csr`` and ``bsr`` name the same kernel at the
  mask's block size.

Environment overrides
---------------------
``REPRO_SPARSE_BACKEND``            ``auto`` (default) / ``dense`` / ``csr`` / ``bsr``
``REPRO_SPARSE_DENSITY_THRESHOLD``  density at/below which ``auto`` picks a sparse kernel
``REPRO_SPARSE_MIN_SIZE``           minimum weight size for a sparse kernel
"""

from __future__ import annotations

import os

import numpy as np
import scipy.sparse as sp

from repro import nn
from repro.autograd.conv import (
    _accumulate_grad_w,
    _col2im_t,
    _im2col_t,
    _input_grad_workspace,
    _pair,
)
from repro.autograd.tensor import Tensor, ensure_tensor
from repro.hotpath import hot_path
from repro.sparse.blocks import expand_block_csr
from repro.sparse.masked import MaskedModel, SparseParam

try:  # pragma: no cover - scipy always ships _sparsetools today
    from scipy.sparse import _sparsetools as _spt
except ImportError:  # pragma: no cover
    _spt = None

__all__ = [
    "BACKEND_ENV",
    "DENSITY_THRESHOLD_ENV",
    "MIN_SIZE_ENV",
    "DEFAULT_DENSITY_THRESHOLD",
    "DEFAULT_MIN_SIZE",
    "MODES",
    "CsrMatmul",
    "BsrMatmul",
    "LinearKernel",
    "Conv2dKernel",
    "resolve_mode",
    "select_backend",
    "install_training_backends",
    "remove_training_backends",
]

BACKEND_ENV = "REPRO_SPARSE_BACKEND"
DENSITY_THRESHOLD_ENV = "REPRO_SPARSE_DENSITY_THRESHOLD"
MIN_SIZE_ENV = "REPRO_SPARSE_MIN_SIZE"

# On this CPU the scipy CSR kernels run ~7x fewer effective FLOP/s than the
# dense BLAS GEMM, so CSR wins once it does ~7x less work; 0.12 leaves some
# margin (90/95/98% sparsity -> CSR, 80% -> dense).  See docs/performance.md.
DEFAULT_DENSITY_THRESHOLD = 0.12
# Below this weight size the per-call overhead dominates; stay dense.
DEFAULT_MIN_SIZE = 16384

# Every training backend mode; the CLI's --sparse-backend choices come from here.
MODES = ("auto", "csr", "bsr", "dense")


def resolve_mode(mode: str | None = None) -> str:
    """Explicit argument > ``REPRO_SPARSE_BACKEND`` env var > ``auto``."""
    resolved = mode if mode is not None else os.environ.get(BACKEND_ENV, "auto")
    resolved = resolved.lower()
    if resolved not in MODES:
        raise ValueError(f"unknown sparse backend {resolved!r}; choose from {MODES}")
    return resolved


def _float_env(name: str, default: float) -> float:
    raw = os.environ.get(name)
    return default if raw is None else float(raw)


def select_backend(
    density: float,
    size: int,
    mode: str = "auto",
    density_threshold: float | None = None,
    min_size: int | None = None,
    block_size: int = 1,
) -> str:
    """Pick ``"dense"``, ``"csr"`` or ``"bsr"`` for one layer.

    ``"bsr"`` requires a block-structured mask (``block_size > 1``): block
    layers are forced sparse under an explicit ``mode="bsr"``, while layers
    without a block mask — the per-layer non-divisible fallbacks — go
    through the auto density/size thresholds instead (an ERK-dense fallback
    layer forced onto CSR would pay the sparse overhead at density ~1).
    """
    if mode in ("dense", "csr"):
        return mode
    if mode == "bsr" and block_size > 1:
        return "bsr"
    if density_threshold is None:
        density_threshold = _float_env(DENSITY_THRESHOLD_ENV, DEFAULT_DENSITY_THRESHOLD)
    if min_size is None:
        min_size = int(_float_env(MIN_SIZE_ENV, DEFAULT_MIN_SIZE))
    if size >= min_size and density <= density_threshold:
        return "bsr" if block_size > 1 else "csr"
    return "dense"


# Floats per operand in one chunk of the tile weight-gradient gathers:
# 256 KiB, so a chunk's operands stay cache-resident for its matmul.
_TILE_CHUNK = 1 << 16


class BsrMatmul:
    """Block-CSR matmuls for a masked 2-D weight view; block size 1 is CSR.

    The *bookkeeping* is block-granular: a structure rebuild reads the
    layer's sorted active set — ``active_indices`` at block size 1, the
    engine's ``active_blocks`` above it — and expands it to element-level
    CSR in ``O(nnz)`` via :func:`repro.sparse.blocks.expand_block_csr`,
    never scanning the dense mask.  *Execution* calls scipy's
    ``csr_matvecs`` kernel directly on the expanded structure with
    C-contiguous operands and the sparse operand on the left; on this CPU
    that direct call beats the dense GEMM at the paper's densities, the
    ``dense @ sparse`` operator dispatch (which pays ~0.26 ms/call in
    wrapper objects) *and* scipy's own ``bsr_matvecs`` — see
    docs/performance.md.

    ``data``/``indices``/``indptr`` are the element-level CSR arrays of
    ``W`` (rows×cols) that :meth:`matmul_wx` reads.  Training also keeps
    ``W.T``; a sync refreshes ``W``'s values with one gather from the flat
    dense weight and ``W.T``'s with one permutation of those, with no
    per-step allocation.  ``csr_matvecs`` computes ``Y += A @ X``, so the
    bias folds into the output initialization for free.  Output buffers
    live in a small per-instance cache keyed by name (same step-lifetime
    contract as :class:`~repro.autograd.conv.ConvWorkspace`).
    """

    def __init__(self, shape2d: tuple[int, int], block_size: int):
        self.shape2d = (int(shape2d[0]), int(shape2d[1]))
        self.block_size = int(block_size)
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        rows, cols = self.shape2d
        if rows % self.block_size or cols % self.block_size:
            raise ValueError(
                f"matrix shape {self.shape2d} is not divisible by "
                f"block_size {self.block_size}"
            )
        self._version = -1
        self._buffers: dict[str, np.ndarray] = {}
        self.indptr: np.ndarray | None = None
        self.indices: np.ndarray | None = None
        self.data: np.ndarray | None = None
        self._gather: np.ndarray | None = None
        self._indptr_t: np.ndarray | None = None
        self._indices_t: np.ndarray | None = None
        self._data_t: np.ndarray | None = None
        self._perm_t: np.ndarray | None = None
        self._brows: np.ndarray | None = None
        self._bcols: np.ndarray | None = None
        self._scatter: np.ndarray | None = None
        self._grad_w_stale = False

    @classmethod
    def frozen(
        cls,
        shape2d: tuple[int, int],
        block_size: int,
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
    ) -> "BsrMatmul":
        """Inference kernel over fixed element-level CSR arrays of ``W``.

        The arrays are used as given, so they may be read-only views into
        a shared-memory arena.  Only :meth:`matmul_wx` is available: no
        ``W.T`` structure is built, and :meth:`sync` must not be called.
        """
        matmul = cls(shape2d, block_size)
        matmul.data, matmul.indices, matmul.indptr = data, indices, indptr
        matmul._version = 0
        return matmul

    @property
    def structure_version(self) -> int:
        """Mask version the current index structure was built from."""
        return self._version

    def buffer(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """Cached float32 buffer, reallocated only on shape change."""
        buf = self._buffers.get(name)
        if buf is None or buf.shape != shape:
            buf = np.empty(shape, dtype=np.float32)
            self._buffers[name] = buf
        return buf

    @hot_path
    def sync(self, flat_values: np.ndarray, target: SparseParam) -> None:
        """Refresh values (and structure, iff the mask moved) from ``target``."""
        if target.mask_version != self._version:
            self._rebuild(target.active_blocks if self.block_size > 1 else target.active_indices)
            self._version = target.mask_version
        np.take(flat_values, self._gather, out=self.data)
        # W.T's values are a permutation of the ones just gathered; permuting
        # the nnz-sized array stays cache-resident, unlike a second strided
        # gather from the full dense weight.
        np.take(self.data, self._perm_t, out=self._data_t)

    def _rebuild(self, active: np.ndarray) -> None:
        rows, cols = self.shape2d
        b = self.block_size
        self.indptr, self.indices, erows = expand_block_csr(active, rows // b, cols // b, b)
        self._gather = erows * cols + self.indices
        self.data = np.empty(self.indices.size, dtype=np.float32)

        # W.T holds the same values ordered by (column, row): one argsort of
        # that key gives its structure and the permutation sync applies.
        self._perm_t = np.argsort(self.indices.astype(np.int64) * rows + erows)
        self._indices_t = erows[self._perm_t].astype(np.int32)
        self._indptr_t = np.zeros(cols + 1, dtype=np.int32)
        np.cumsum(np.bincount(self.indices, minlength=cols), out=self._indptr_t[1:])
        self._data_t = np.empty(self.indices.size, dtype=np.float32)

        if b > 1:
            # Per-block coordinates and flat element scatter for the tile
            # weight-gradient path (active tiles only, sorted block-id order).
            self._brows, self._bcols = np.divmod(np.asarray(active, dtype=np.int64), cols // b)
            offsets = (np.arange(b)[:, None] * cols + np.arange(b)[None, :]).reshape(-1)
            top_left = self._brows * b * cols + self._bcols * b
            self._scatter = (top_left[:, None] + offsets[None, :]).reshape(-1)
            self._grad_w_stale = True

    def grad_w_buffer(self, shape: tuple[int, ...]) -> np.ndarray:
        """Dense weight-gradient buffer whose inactive coordinates are zero.

        :meth:`scatter_grad_w` overwrites the same ``_scatter`` positions
        every step, so between mask rebuilds the buffer only needs zeroing
        once — stale active-tile values are assigned over, everything else
        was zeroed when the structure last changed.
        """
        buf = self._buffers.get("grad_w_sparse")
        if buf is None or buf.shape != shape:
            buf = np.zeros(shape, dtype=np.float32)
            self._buffers["grad_w_sparse"] = buf
        elif self._grad_w_stale:
            buf.fill(0.0)
        self._grad_w_stale = False
        return buf

    # ------------------------------------------------------------------
    # products (sparse operand on the left; operands C-contiguous)
    # ------------------------------------------------------------------
    @hot_path
    def _matvecs(self, n_row, n_col, indptr, indices, data, x2d, out) -> None:
        if _spt is not None:
            _spt.csr_matvecs(
                n_row, n_col, x2d.shape[1], indptr, indices, data, x2d.ravel(), out.ravel()
            )
        else:  # pragma: no cover - exercised only without scipy internals
            csr = sp.csr_matrix((n_row, n_col), dtype=np.float32)
            csr.data, csr.indices, csr.indptr = data, indices, indptr
            csr.has_sorted_indices = True
            csr.has_canonical_format = True
            out += csr @ x2d

    @hot_path
    def matmul_wx(
        self, x_t: np.ndarray, bias: np.ndarray | None = None, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``W @ x_t`` (+ broadcast bias) for C-contiguous float32 ``x_t`` of
        shape ``(cols, N)``; returns a C-contiguous ``(rows, N)`` array.

        The result lands in ``out`` when given, else in a cached buffer
        that the next call overwrites.
        """
        rows, cols = self.shape2d
        if out is None:
            out = self.buffer("wx", (rows, x_t.shape[1]))
        if bias is not None:
            np.copyto(out, bias.reshape(rows, 1))
        else:
            out.fill(0.0)
        self._matvecs(rows, cols, self.indptr, self.indices, self.data, x_t, out)
        return out

    @hot_path
    def matmul_wtg(self, g_t: np.ndarray, reuse: bool = True) -> np.ndarray:
        """``W.T @ g_t`` for C-contiguous ``g_t`` of shape ``(rows, N)``;
        returns ``(cols, N)``.  ``reuse=False`` allocates a fresh output
        (for results the caller may hand to gradient accumulation while an
        earlier accumulation is still pending)."""
        rows, cols = self.shape2d
        if reuse:
            out = self.buffer("wtg", (cols, g_t.shape[1]))
            out.fill(0.0)
        else:
            # Fresh by contract: the caller hands this array to gradient
            # accumulation, so the cached buffer would alias across steps.
            # reprolint: disable-next=RPL005
            out = np.zeros((cols, g_t.shape[1]), dtype=np.float32)
        self._matvecs(cols, rows, self._indptr_t, self._indices_t, self._data_t, g_t, out)
        return out

    def scatter_grad_w(self, g_t: np.ndarray, x_t: np.ndarray, grad_w: np.ndarray) -> None:
        """Active-tile weight gradient, scattered into zeroed dense ``grad_w``.

        A sampled dense-dense matmul (SDDMM) at block granularity: tile
        ``(r, c)`` of the gradient is ``g_t[rB:(r+1)B] @ x_t[cB:(c+1)B].T``,
        batched over the active tiles only — ~``density``× the FLOPs of the
        full ``g_tᵀ``-style GEMM.  Only valid when the consumer never reads
        inactive-coordinate gradients (bound sparse optimizer, no growth
        scoring this step); callers gate on ``dense_grads_required``.
        Requires ``block_size > 1``.
        """
        b = self.block_size
        rows, cols = self.shape2d
        m = g_t.shape[1]
        g3 = g_t.reshape(rows // b, b, m)
        x3 = x_t.reshape(cols // b, b, m)
        tiles = self.buffer("tiles", (self._brows.size, b, b))
        # Gather the operand tiles chunk by chunk into a small cached
        # scratch.  Fresh gathers of the whole active set are a few MB per
        # layer per step, which the allocator may hand back to the OS and
        # page-fault in again on every call.  ``mode="clip"`` (the indices
        # are in range) because ``take`` buffers ``out`` under the default.
        step = max(1, _TILE_CHUNK // (b * m))
        scratch = self.buffer("tile_scratch", (2 * step * b * m,))
        for start in range(0, self._brows.size, step):
            stop = min(start + step, self._brows.size)
            size = (stop - start) * b * m
            g_tiles = scratch[:size].reshape(-1, b, m)
            x_tiles = scratch[size : 2 * size].reshape(-1, b, m)
            np.take(g3, self._brows[start:stop], axis=0, out=g_tiles, mode="clip")
            np.take(x3, self._bcols[start:stop], axis=0, out=x_tiles, mode="clip")
            np.matmul(g_tiles, x_tiles.transpose(0, 2, 1), out=tiles[start:stop])
        grad_w.reshape(-1)[self._scatter] = tiles.reshape(-1)


class CsrMatmul(BsrMatmul):
    """:class:`BsrMatmul` at block size 1, for element masks.

    A subclass rather than an alias: code that patches each class's own
    ``sync`` (the perfbench tracer patches both names) would otherwise wrap
    the one method twice.
    """

    def __init__(self, shape2d: tuple[int, int]):
        super().__init__(shape2d, 1)


class _KernelBase:
    """Shared dispatch logic: re-evaluate dense-vs-sparse when the mask moves."""

    def __init__(
        self,
        module,
        target: SparseParam,
        mode: str,
        density_threshold: float | None,
        min_size: int | None,
    ):
        self.module = module
        self.target = target
        self.mode = mode
        self.density_threshold = density_threshold
        self.min_size = min_size
        self._choice = "dense"
        self._choice_version = -1

    def backend(self) -> str:
        target = self.target
        if target.mask_version != self._choice_version:
            self._choice = select_backend(
                target.density,
                target.size,
                self.mode,
                self.density_threshold,
                self.min_size,
                block_size=target.block_size,
            )
            self._choice_version = target.mask_version
        return self._choice


def _zeroed_grad_w(weight, matmul: BsrMatmul) -> np.ndarray:
    """Zeroed dense weight-gradient buffer for the sparse scatter path.

    Uses the matmul's zero-once cache unless a previous accumulation is
    still pending — the cached buffer may already be adopted as
    ``weight.grad``, and overwriting it in place would corrupt the sum.
    """
    if weight.grad is None:
        return matmul.grad_w_buffer(weight.shape)
    return np.zeros(weight.shape, dtype=np.float32)


class LinearKernel(_KernelBase):
    """Sparse training forward for a masked :class:`~repro.nn.Linear`.

    Returns ``None`` (declining the call, so the module falls back to its
    dense path) when dispatch picks dense or the input is unsupported.
    """

    def __init__(self, module, target, mode="auto", density_threshold=None, min_size=None):
        super().__init__(module, target, mode, density_threshold, min_size)
        self.matmul = BsrMatmul(module.weight.shape, target.block_size)
        # Forwards so far, and the one whose input the cached ``xT`` holds.
        self._calls = 0
        self._staged_call = 0

    def __call__(self, x) -> Tensor | None:
        if self.backend() == "dense":
            return None
        x = ensure_tensor(x)
        data = x.data
        if data.ndim != 2 or data.dtype != np.float32:
            return None
        return self._forward(x, data)

    def _forward(self, x, data: np.ndarray) -> Tensor:
        weight = self.module.weight
        bias = self.module.bias
        matmul = self.matmul
        tile_grads = matmul.block_size > 1
        matmul.sync(weight.data.reshape(-1), self.target)
        n, in_features = data.shape

        # Sparse-left orientation: stage x.T C-contiguous once, then
        # out.T = W @ x.T lands C-contiguous and out is its free F view.
        x_t = matmul.buffer("xT", (in_features, n))
        np.copyto(x_t, data.T)
        self._calls += 1
        call = self._staged_call = self._calls
        # Fresh output, like the dense path: a layer called twice before
        # backward (e.g. one discriminator on real and fake batches) must
        # not see its first output, which downstream closures keep,
        # overwritten by the second.
        # reprolint: disable-next=RPL005
        out_t = np.empty((matmul.shape2d[0], n), dtype=np.float32)
        out = matmul.matmul_wx(x_t, None if bias is None else bias.data, out=out_t).T

        parents = (x, weight) if bias is None else (x, weight, bias)

        def backward(grad: np.ndarray) -> None:
            g_t = matmul.buffer("gT", (grad.shape[1], n))
            np.copyto(g_t, grad.T)
            if weight.requires_grad:
                if self.target.dense_grads_required or not tile_grads:
                    # Dense at update steps (growth scores inactive weights)
                    # and always at block size 1, where the GEMM wins.
                    weight._accumulate(grad.T @ data)
                else:
                    if self._staged_call != call:
                        # A later forward of this layer (one discriminator
                        # on real and fake batches) restaged ``xT``.
                        np.copyto(x_t, data.T)
                        self._staged_call = call
                    grad_w = _zeroed_grad_w(weight, matmul)
                    matmul.scatter_grad_w(g_t, x_t, grad_w)
                    weight._accumulate(grad_w)
            if x.requires_grad:
                # Fresh output when an accumulation is pending (the cached
                # buffer may already be adopted as x.grad).
                gx_t = matmul.matmul_wtg(g_t, reuse=x.grad is None)
                x._accumulate(gx_t.T)
            if bias is not None and bias.requires_grad:
                bias._accumulate(grad.sum(axis=0))

        return Tensor._make(out, parents, backward)


class Conv2dKernel(_KernelBase):
    """Sparse training forward for a masked :class:`~repro.nn.Conv2d`.

    Lowers to im2col exactly like :func:`repro.autograd.conv.conv2d`, but
    the filter-matrix products (forward and input-gradient) run on the
    mask-structured block-CSR matrices.
    """

    def __init__(self, module, target, mode="auto", density_threshold=None, min_size=None):
        super().__init__(module, target, mode, density_threshold, min_size)
        c_out, c_in, kh, kw = module.weight.shape
        self.matmul = BsrMatmul((c_out, c_in * kh * kw), target.block_size)

    def __call__(self, x) -> Tensor | None:
        if self.backend() == "dense":
            return None
        x = ensure_tensor(x)
        data = x.data
        if data.ndim != 4 or data.dtype != np.float32:
            return None
        c_in = self.module.weight.shape[1]
        if data.shape[1] != c_in:
            raise ValueError(
                f"conv2d channel mismatch: input has {data.shape[1]}, weight expects {c_in}"
            )
        return self._forward(x, data)

    def _forward(self, x, data: np.ndarray) -> Tensor:
        """Sparse im2col conv: every filter-matrix product keeps the sparse
        operand on the left over batch-innermost C-contiguous stagings.

        Only the transposed cols matrix ``(C*kh*kw, oh*ow*N)`` is staged
        (:func:`~repro.autograd.conv._im2col_t`) — the weight gradient GEMM
        consumes its F-contiguous transpose view directly (BLAS handles the
        flag), so the untransposed cols matrix is never materialized.  The
        output and the upstream gradient move between NCHW and the
        ``(C_out, oh*ow*N)`` product layout by batch-last transposes.
        """
        module = self.module
        weight = module.weight
        bias = module.bias
        matmul = self.matmul
        tile_grads = matmul.block_size > 1
        c_out, c_in, kh, kw = weight.shape
        stride = _pair(module.stride)
        padding = _pair(module.padding)
        workspace = getattr(module, "workspace", None)
        matmul.sync(weight.data.reshape(-1), self.target)

        cols_t, out_h, out_w = _im2col_t(data, kh, kw, stride, padding, workspace)
        n = data.shape[0]
        m = out_h * out_w * n
        out_t = matmul.matmul_wx(cols_t, None if bias is None else bias.data)
        src = out_t.reshape(c_out, out_h, out_w, n).transpose(3, 0, 1, 2)
        if workspace is not None:
            out_data = workspace.get("out", (n, c_out, out_h, out_w), np.float32)
            np.copyto(out_data, src)
        else:
            out_data = np.ascontiguousarray(src)

        parents = (x, weight) if bias is None else (x, weight, bias)

        def backward(grad: np.ndarray) -> None:
            grad_mat_t = matmul.buffer("gradT", (c_out, m))
            np.copyto(grad_mat_t.reshape(c_out, out_h, out_w, n), grad.transpose(1, 2, 3, 0))
            if weight.requires_grad:
                if self.target.dense_grads_required or not tile_grads:
                    # Dense at update steps (growth scores inactive weights)
                    # and always at block size 1, where the GEMM wins.
                    _accumulate_grad_w(weight, grad_mat_t.T, cols_t.T, workspace)
                else:
                    grad_w = _zeroed_grad_w(weight, matmul)
                    matmul.scatter_grad_w(grad_mat_t, cols_t, grad_w)
                    weight._accumulate(grad_w)
            if x.requires_grad:
                grad_cols_t = matmul.matmul_wtg(grad_mat_t)  # (C*kh*kw, oh*ow*N)
                x_workspace = _input_grad_workspace(x, workspace)
                x._accumulate(_col2im_t(grad_cols_t, kh, kw, stride, padding, x.shape, x_workspace))
            if bias is not None and bias.requires_grad:
                bias._accumulate(grad.sum(axis=(0, 2, 3)))

        return Tensor._make(out_data, parents, backward)


def install_training_backends(
    masked: MaskedModel,
    mode: str | None = None,
    density_threshold: float | None = None,
    min_size: int | None = None,
) -> dict[str, str]:
    """Attach kernel backends to every masked Linear/Conv2d of ``masked``.

    Returns the per-layer backend choice at install time (dispatch is
    re-evaluated automatically whenever a layer's mask changes).  With
    ``mode="dense"`` any previously installed backends are removed.
    """
    resolved = resolve_mode(mode)
    by_param = {id(t.param): t for t in masked.targets}
    report: dict[str, str] = {}
    for _, module in masked.model.named_modules():
        if not isinstance(module, (nn.Linear, nn.Conv2d)):
            continue
        target = by_param.get(id(module.weight))
        if target is None:
            continue
        if resolved == "dense":
            module.forward_backend = None
            report[target.name] = "dense"
            continue
        kernel_cls = LinearKernel if isinstance(module, nn.Linear) else Conv2dKernel
        module.forward_backend = kernel_cls(module, target, resolved, density_threshold, min_size)
        report[target.name] = module.forward_backend.backend()
    return report


def remove_training_backends(model) -> None:
    """Detach any kernel backends installed on ``model``'s layers."""
    for module in model.modules():
        if isinstance(module, (nn.Linear, nn.Conv2d)):
            module.forward_backend = None
