"""Deploy a trained sparse model: serving artifact → CSR inference kernels.

Trains a 95%-sparse VGG-19 with DST-EE, exports it as a fingerprinted
serving artifact (the masked layers compiled to CSR inference kernels),
loads the artifact back into a freshly built model, and verifies that
accuracy is preserved while weight storage shrinks.

Usage::

    python examples/deploy_sparse_model.py
"""

import tempfile
import pathlib

import numpy as np

from repro.data import DataLoader, cifar10_like
from repro.models import vgg19
from repro.optim import SGD, CosineAnnealingLR
from repro.serve import export_model, load_model
from repro.sparse import (
    DSTEEGrowth,
    DynamicSparseEngine,
    MaskedModel,
    sparse_storage_bytes,
)
from repro.sparse.analysis import layer_density_table
from repro import nn
from repro.train import Trainer, evaluate_classifier


def main() -> None:
    data = cifar10_like(n_train=1024, n_test=512, image_size=12, seed=0)

    model_kwargs = {"num_classes": 10, "width_mult": 0.2, "input_size": 12}

    # ------------------------------------------------------------- train
    model = vgg19(seed=0, **model_kwargs)
    masked = MaskedModel(model, 0.95, rng=np.random.default_rng(0))
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9, weight_decay=5e-4)
    train_loader = DataLoader(data.train, batch_size=64, shuffle=True,
                              rng=np.random.default_rng(1))
    test_loader = DataLoader(data.test, batch_size=256)
    engine = DynamicSparseEngine(
        masked, DSTEEGrowth(c=1e-3), total_steps=4 * len(train_loader),
        delta_t=6, optimizer=optimizer, rng=np.random.default_rng(2),
    )
    trainer = Trainer(model, optimizer, nn.cross_entropy, train_loader,
                      test_loader, scheduler=CosineAnnealingLR(optimizer, 4),
                      controller=engine)
    trainer.fit(4)
    dense_path_acc = trainer.history.final_test_accuracy
    print(f"trained DST-EE @ 95%: accuracy {dense_path_acc:.3f}, "
          f"exploration R {engine.coverage.exploration_rate():.3f}")

    # ------------------------------------------- export, load, compare
    with tempfile.TemporaryDirectory() as tmp:
        path = export_model(
            masked,
            pathlib.Path(tmp) / "dst_ee_vgg19.npz",
            # Seed 99: a different init, fully overwritten by the load.
            model_config={"builder": "vgg19", "kwargs": {**model_kwargs, "seed": 99}},
        )
        print(f"artifact: {path.stat().st_size / 1024:.0f} KiB")

        loaded = load_model(path)
        compiled_acc = evaluate_classifier(loaded.model, test_loader)
        csr_bytes, dense_bytes = sparse_storage_bytes(loaded.model)
        print(f"loaded (CSR) accuracy:    {compiled_acc:.3f} "
              f"(fingerprint {loaded.fingerprint[:19]}...)")
        print(f"weight storage: {csr_bytes / 1024:.0f} KiB CSR vs "
              f"{dense_bytes / 1024:.0f} KiB dense "
              f"({csr_bytes / dense_bytes:.2f}x)")

    print("\nPer-layer final densities (ERK keeps narrow layers denser):")
    for row in layer_density_table(masked)[:6]:
        print(f"  {row['layer']:24s} {row['shape']:>14s} density={row['density']}")
    print("  ...")


if __name__ == "__main__":
    main()
