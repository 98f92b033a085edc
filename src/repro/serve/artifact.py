"""Versioned serving artifacts: compiled sparse model → one deployable file.

An artifact is the unit that leaves the training side and enters the
serving side.  It stores, in a single compressed ``.npz``:

* the stored parts (``data``/``indices``/``indptr`` + bias) of every
  compiled :class:`~repro.sparse.inference.SparseLinear` /
  :class:`~repro.sparse.inference.SparseConv2d` layer — the CSR triplet at
  block size 1, ``(nnzb, B, B)`` tiles with block ``indices``/``indptr``
  above it; at the paper's 90–98% sparsities this is a fraction of the
  dense weight bytes;
* the dense state of everything that stayed dense (biases were folded into
  the layer records; batch-norm parameters and running stats, unmasked
  layers);
* a *model config* ``{"builder": ..., "kwargs": ...}`` resolved against
  :data:`repro.models.MODEL_REGISTRY` at load time to rebuild the
  architecture;
* a preprocessing spec (see :mod:`repro.serve.preprocess`) and free-form
  metadata (method, sparsity, accuracy, ...).

Like training checkpoints the file is written atomically (tmp + fsync +
rename) and carries a ``format_version`` that loaders refuse to guess
about, plus a SHA-256 *fingerprint* over the manifest and every weight
array — :func:`load_model` recomputes it by default, so a corrupted or
tampered artifact fails loudly instead of serving garbage predictions.
"""

from __future__ import annotations

import hashlib
import io
import json
import pathlib
from dataclasses import dataclass, field

import numpy as np

from repro.models import build_model
from repro.nn.module import Module
from repro.serve.preprocess import Preprocessor
from repro.sparse.inference import SparseConv2d, SparseLinear, compile_sparse_model
from repro.sparse.masked import MaskedModel
from repro.train.checkpoint import (
    atomic_write_bytes,
    decode_state_tree,
    encode_state_tree,
)

__all__ = [
    "ARTIFACT_VERSION",
    "ArtifactError",
    "LoadedModel",
    "export_model",
    "load_model",
    "read_manifest",
]

ARTIFACT_VERSION = 1

_META_KEY = "__artifact__"
_KIND = "repro-sparse-model"


class ArtifactError(RuntimeError):
    """Raised for malformed, incompatible, or corrupted artifacts."""


def _pair(value) -> list[int]:
    if isinstance(value, (tuple, list)):
        return [int(value[0]), int(value[1])]
    return [int(value), int(value)]


def _layer_records(model: Module) -> list[dict]:
    records: list[dict] = []
    for name, module in model.named_modules():
        if isinstance(module, SparseLinear):
            kind = "linear"
            shape = {"in_features": module.in_features, "out_features": module.out_features}
        elif isinstance(module, SparseConv2d):
            kind = "conv2d"
            shape = {
                "in_channels": module.in_channels,
                "out_channels": module.out_channels,
                "kernel_size": list(module.kernel_size),
                "stride": _pair(module.stride),
                "padding": _pair(module.padding),
            }
        else:
            continue
        record = {"name": name, "type": kind}
        # Block-size-1 records omit the key (read back as the default 1).
        if module.block_size > 1:
            record["block_size"] = module.block_size
        data, indices, indptr = module.stored_parts()
        record.update(shape, data=data, indices=indices, indptr=indptr, bias=module.bias_data)
        records.append(record)
    return records


def _fingerprint(manifest_sans_fp: dict, arrays: dict) -> str:
    """SHA-256 over the canonical manifest plus every array's raw bytes."""
    digest = hashlib.sha256()
    digest.update(json.dumps(manifest_sans_fp, sort_keys=True, separators=(",", ":")).encode())
    for key in sorted(arrays):
        value = np.ascontiguousarray(arrays[key])
        digest.update(key.encode())
        digest.update(str(value.dtype).encode())
        digest.update(repr(value.shape).encode())
        digest.update(value.tobytes())
    return f"sha256:{digest.hexdigest()}"


def export_model(
    model: Module | MaskedModel,
    path,
    *,
    model_config: dict,
    preprocessing: dict | None = None,
    metadata: dict | None = None,
) -> pathlib.Path:
    """Write ``model`` (compiled, or a :class:`MaskedModel` to compile) to ``path``.

    ``model_config`` must be ``{"builder": <registry name>, "kwargs": {...}}``;
    it is validated against :data:`repro.models.MODEL_REGISTRY` here, at
    export time, so a typo fails next to the training run instead of at
    deployment.  Returns the written path.
    """
    if isinstance(model, MaskedModel):
        model = compile_sparse_model(model)
    if "builder" not in model_config:
        raise ArtifactError("model_config must carry a 'builder' registry name")
    build_model(model_config["builder"], **dict(model_config.get("kwargs", {})))

    layers = _layer_records(model)
    if not layers:
        raise ArtifactError(
            "model has no compiled sparse layers; run compile_sparse_model "
            "(or pass the MaskedModel) before exporting"
        )
    Preprocessor(preprocessing)  # validate the spec at export time

    sparse_names = {record["name"] for record in layers}
    dense_state = {
        key: value
        for key, value in model.state_dict().items()
        if key.rsplit(".", 1)[0] not in sparse_names
    }

    tree, arrays = encode_state_tree({"layers": layers, "dense_state": dense_state})
    manifest = {
        "format_version": ARTIFACT_VERSION,
        "kind": _KIND,
        "model_config": {
            "builder": model_config["builder"],
            "kwargs": dict(model_config.get("kwargs", {})),
        },
        "preprocessing": dict(preprocessing) if preprocessing else None,
        "metadata": dict(metadata) if metadata else None,
        "state": tree,
    }
    manifest["fingerprint"] = _fingerprint(manifest, arrays)

    buffer = io.BytesIO()
    np.savez_compressed(buffer, **{_META_KEY: np.array(json.dumps(manifest))}, **arrays)
    return atomic_write_bytes(path, buffer.getvalue())


@dataclass
class LoadedModel:
    """A deserialized artifact, ready to serve."""

    model: Module
    model_config: dict
    preprocessing: dict | None
    metadata: dict | None
    fingerprint: str
    path: pathlib.Path
    preprocessor: Preprocessor = field(repr=False, default=None)

    def predict(self, batch: np.ndarray) -> np.ndarray:
        """Preprocess + forward one batch (no autograd, eval mode)."""
        from repro.autograd import no_grad
        from repro.autograd.tensor import Tensor

        batch = self.preprocessor(batch)
        with no_grad():
            out = self.model(Tensor(batch))
        return np.asarray(out.data)


def _validate_manifest(manifest: dict, path) -> dict:
    """Shared kind/format-version gate for every artifact reader."""
    if manifest.get("kind") != _KIND:
        raise ArtifactError(f"{path} has kind {manifest.get('kind')!r}, not {_KIND!r}")
    version = manifest.get("format_version")
    if version != ARTIFACT_VERSION:
        raise ArtifactError(
            f"artifact {path} has format version {version!r}; "
            f"this build reads version {ARTIFACT_VERSION}"
        )
    return manifest


def read_manifest(path) -> dict:
    """Manifest of an artifact without rebuilding the model (cheap)."""
    with np.load(pathlib.Path(path), allow_pickle=False) as archive:
        if _META_KEY not in archive.files:
            raise ArtifactError(f"{path} is not a serving artifact (no manifest)")
        manifest = json.loads(str(archive[_META_KEY].item()))
    return _validate_manifest(manifest, path)


def _replace_module(root: Module, dotted: str, replacement: Module) -> None:
    parts = dotted.split(".")
    parent = root
    for part in parts[:-1]:
        try:
            parent = parent._modules[part]
        except KeyError:
            raise ArtifactError(
                f"artifact layer {dotted!r} not found in rebuilt architecture"
            ) from None
    if parts[-1] not in parent._modules:
        raise ArtifactError(f"artifact layer {dotted!r} not found in rebuilt architecture")
    parent.add_module(parts[-1], replacement)


def load_model(path, verify: bool = True) -> LoadedModel:
    """Rebuild a served model from an artifact written by :func:`export_model`.

    With ``verify=True`` (default) the stored fingerprint is recomputed
    from the file contents and a mismatch raises :class:`ArtifactError` —
    bit-rot and truncation are detected before the first prediction.
    """
    path = pathlib.Path(path)
    with np.load(path, allow_pickle=False) as archive:
        if _META_KEY not in archive.files:
            raise ArtifactError(f"{path} is not a serving artifact (no manifest)")
        manifest = json.loads(str(archive[_META_KEY].item()))
        arrays = {key: archive[key] for key in archive.files if key != _META_KEY}
    _validate_manifest(manifest, path)
    fingerprint = manifest.get("fingerprint")
    if verify:
        expected = _fingerprint(
            {key: value for key, value in manifest.items() if key != "fingerprint"},
            arrays,
        )
        if fingerprint != expected:
            raise ArtifactError(
                f"artifact {path} failed fingerprint verification "
                f"(stored {fingerprint}, recomputed {expected}); file corrupted?"
            )

    state = decode_state_tree(manifest["state"], arrays)
    config = manifest["model_config"]
    model = build_model(config["builder"], **dict(config.get("kwargs", {})))

    for record in state["layers"]:
        parts = (record["data"], record["indices"], record["indptr"])
        options = {
            "bias": record["bias"],
            "copy": False,
            "block_size": int(record.get("block_size", 1)),
        }
        if record["type"] == "linear":
            replacement = SparseLinear.from_csr(
                record["in_features"], record["out_features"], *parts, **options
            )
        elif record["type"] == "conv2d":
            replacement = SparseConv2d.from_csr(
                record["in_channels"],
                record["out_channels"],
                tuple(record["kernel_size"]),
                tuple(record["stride"]),
                tuple(record["padding"]),
                *parts,
                **options,
            )
        else:
            raise ArtifactError(f"unknown artifact layer type {record['type']!r}")
        _replace_module(model, record["name"], replacement)

    model.load_state_dict(state["dense_state"])
    model.eval()
    return LoadedModel(
        model=model,
        model_config=config,
        preprocessing=manifest.get("preprocessing"),
        metadata=manifest.get("metadata"),
        fingerprint=fingerprint,
        path=path,
        preprocessor=Preprocessor(manifest.get("preprocessing")),
    )
