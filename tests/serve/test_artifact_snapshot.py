"""Artifact format snapshot: fixed-seed models export to pinned fingerprints.

The fingerprint is a SHA-256 over the manifest and the dtype, shape and raw
bytes of every stored array, so a pinned literal holds the on-disk layout
of each layer kind: CSR triplets at block size 1, ``(nnzb, B, B)`` tiles
with block ``indices``/``indptr`` above it.  A kernel or layer refactor
must leave these literals untouched; changing one is a format change and
needs an ``ARTIFACT_VERSION`` bump.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.models import MLP, vgg11
from repro.serve import export_model, load_model
from repro.sparse import MaskedModel
from repro.sparse.inference import compile_sparse_model

MLP_KWARGS = {"in_features": 48, "hidden": [32, 32], "num_classes": 5, "seed": 0}
VGG_KWARGS = {"num_classes": 4, "width_mult": 0.25, "input_size": 8, "seed": 3}

EXPECTED_FINGERPRINTS = {
    ("mlp", 1): "sha256:7a31763a1099ccca0d77ba01cf2cb2b91f68c2c565f7a9bee7bf0f08ead34ddd",
    ("mlp", 4): "sha256:78979bec46d7e5514502dee6880586d3558df751e8a1d12895c4e0cdd1284d38",
    ("vgg11", 1): "sha256:8f7c41759a5dfff09a44009a5a4b29d0f52a274e8d6d2467e8b08226e0267d33",
    ("vgg11", 4): "sha256:b1cb7b6a75372f9e2c99908ed992afb55aa888e555b6e0f021648c56ae0adcb9",
}


def _build(builder: str, block_size: int):
    if builder == "mlp":
        kwargs = MLP_KWARGS
        model = MLP(48, (32, 32), 5, seed=0)
        masked = MaskedModel(model, 0.9, distribution="uniform",
                             rng=np.random.default_rng(1), block_size=block_size)
        x = np.random.default_rng(5).standard_normal((6, 48)).astype(np.float32)
    else:
        kwargs = VGG_KWARGS
        model = vgg11(**VGG_KWARGS)
        masked = MaskedModel(model, 0.9, rng=np.random.default_rng(3),
                             block_size=block_size)
        x = np.random.default_rng(5).standard_normal((2, 3, 8, 8)).astype(np.float32)
    return compile_sparse_model(masked), {"builder": builder, "kwargs": kwargs}, x


@pytest.mark.parametrize("builder,block_size", sorted(EXPECTED_FINGERPRINTS))
def test_fingerprint_and_predictions_survive_round_trip(tmp_path, builder, block_size):
    compiled, config, x = _build(builder, block_size)
    path = export_model(compiled, tmp_path / "model.npz", model_config=config)
    loaded = load_model(path)
    assert loaded.fingerprint == EXPECTED_FINGERPRINTS[(builder, block_size)]
    with no_grad():
        expected = compiled(Tensor(x)).data
    assert np.array_equal(loaded.predict(x), expected)
