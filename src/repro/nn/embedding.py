"""Token/position embedding lookup with sparse-row gradient accumulation.

``Embedding`` is a learned table of shape ``(num_embeddings,
embedding_dim)`` indexed by integer ids.  The forward pass routes through
:func:`repro.autograd.ops.getitem`, whose backward is a row segment sum
(stable argsort + ``np.add.reduceat``) — so the gradient accumulated into
the table is *sparse by construction*:
only rows touched by the batch receive non-zero gradient, with repeated
ids summed exactly as a dense one-hot matmul would.  That property is
what lets `MaskedModel` sparsify embedding tables and what the
touched-row optimizer binding in ``repro.sparse.masked`` relies on.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor
from repro.nn.module import Module, Parameter
from repro.rng import resolve_rng

__all__ = ["Embedding"]


class Embedding(Module):
    """Lookup table mapping integer ids to ``embedding_dim``-vectors.

    Rows are initialized from N(0, 0.02**2) — the GPT-family convention,
    small enough that pre-LayerNorm residual streams start near zero.
    Indices may be a :class:`Tensor` or ndarray of any integer dtype and
    any shape; the output has shape ``indices.shape + (embedding_dim,)``.
    """

    def __init__(self, num_embeddings: int, embedding_dim: int, rng=None):
        super().__init__()
        if num_embeddings <= 0 or embedding_dim <= 0:
            raise ValueError(
                f"Embedding dims must be positive, got ({num_embeddings}, {embedding_dim})"
            )
        self.num_embeddings = int(num_embeddings)
        self.embedding_dim = int(embedding_dim)
        rng = resolve_rng(rng)
        table = rng.normal(0.0, 0.02, size=(num_embeddings, embedding_dim))
        self.weight = Parameter(table.astype(np.float32), name="embedding")

    def forward(self, indices) -> Tensor:
        idx = indices.data if isinstance(indices, Tensor) else np.asarray(indices)
        if not np.issubdtype(idx.dtype, np.integer):
            raise TypeError(f"Embedding indices must be integers, got dtype {idx.dtype}")
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding ids must be in [0, {self.num_embeddings}), "
                f"got range [{idx.min()}, {idx.max()}]"
            )
        return ops.getitem(self.weight, idx)

    def __repr__(self) -> str:
        return f"Embedding({self.num_embeddings}, {self.embedding_dim})"
