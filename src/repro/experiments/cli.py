"""Command-line interface for running reproduction experiments.

Usage (after ``pip install -e .``)::

    python -m repro.experiments.cli run --method dst_ee --dataset cifar10 \
        --model vgg19 --sparsity 0.9 --epochs 4
    python -m repro.experiments.cli run --method dst_ee --seeds 0 1 2 --nproc 3
    python -m repro.experiments.cli sweep --methods set rigl dst_ee \
        --sparsities 0.9 0.95 --seeds 0 1 --nproc 4
    python -m repro.experiments.cli gnn --dataset wiki_talk --sparsity 0.9
    python -m repro.experiments.cli run-gan --method dst_ee --mixture ring8 \
        --sparsity 0.9 --total-steps 2000
    python -m repro.experiments.cli methods
    python -m repro.experiments.cli export --method dst_ee --sparsity 0.95 \
        --model mlp --epochs 2 --out model.npz
    python -m repro.experiments.cli serve --artifact model.npz --port 8100

``--nproc`` (or the ``REPRO_NPROC`` environment variable) shards seeds and
sweep cells across worker processes; ``--n-workers`` splits each mini-batch
across data-parallel gradient workers inside one run.  The heavyweight
table benches live in ``benchmarks/``; this CLI is for single cells and
ad-hoc grids.

Fault tolerance: ``--checkpoint-dir`` writes resume-exact training
checkpoints during ``run`` and ``sweep``; after a crash or preemption,
rerunning the same command with ``--resume`` continues bitwise-identically
— completed sweep cells are skipped, partial cells restore mid-epoch.  See
``docs/checkpointing.md``.

Serving: ``export`` trains one configuration and writes a versioned
serving artifact (compiled CSR weights + model config + preprocessing
spec); ``serve`` loads an artifact behind the micro-batching JSON HTTP
frontend, optionally fanning batches out across ``--n-workers`` forked
serving processes that share one read-only weight arena.  See
``docs/serving.md``.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.registry import (
    ALL_METHODS,
    GAN_METHODS,
    LM_METHODS,
    RL_METHODS,
    method_family,
)

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DST-EE reproduction experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Training/dataset knobs shared by `run` and `sweep` — declared once so
    # the two entry points cannot drift apart.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dataset", default="cifar10", choices=["cifar10", "cifar100", "imagenet"])
    common.add_argument("--batch-size", type=int, default=64)
    common.add_argument("--lr", type=float, default=0.05)
    common.add_argument("--delta-t", type=int, default=6)
    common.add_argument(
        "--block-size",
        type=int,
        default=None,
        help="block-structured mask tile size (1 = unstructured; "
        "default: REPRO_SPARSE_BLOCK_SIZE or 1)",
    )
    common.add_argument(
        "--sparse-backend",
        default=None,
        choices=["auto", "csr", "bsr", "dense"],
        help="execution backend for masked layers during training "
        "(see docs/performance.md; default: plain masked-dense)",
    )
    common.add_argument("--width-mult", type=float, default=0.2)
    common.add_argument("--n-train", type=int, default=1024)
    common.add_argument("--n-test", type=int, default=512)
    common.add_argument("--image-size", type=int, default=12)
    common.add_argument(
        "--nproc",
        type=int,
        default=None,
        help="worker processes for cell/seed sharding " "(default: REPRO_NPROC, 1 = serial)",
    )
    common.add_argument(
        "--checkpoint-dir",
        default=None,
        help="write resume-exact training checkpoints here " "(see docs/checkpointing.md)",
    )
    common.add_argument(
        "--checkpoint-every-epochs",
        type=int,
        default=1,
        help="epoch checkpoint cadence (with --checkpoint-dir)",
    )
    common.add_argument(
        "--checkpoint-every-steps",
        type=int,
        default=None,
        help="additional step-granularity checkpoint cadence",
    )
    common.add_argument(
        "--keep-last",
        type=int,
        default=None,
        help="retain only the newest K checkpoints per run",
    )
    common.add_argument(
        "--resume",
        action="store_true",
        help="resume from the latest checkpoint in "
        "--checkpoint-dir (bitwise-identical to an "
        "uninterrupted run)",
    )

    run = sub.add_parser("run", parents=[common], help="one image-classification training run")
    run.add_argument("--method", default="dst_ee", choices=ALL_METHODS)
    run.add_argument(
        "--model",
        default="vgg19",
        choices=["vgg19", "vgg11", "resnet50", "resnet50_mini", "mlp"],
    )
    run.add_argument("--sparsity", type=float, default=0.9)
    run.add_argument("--epochs", type=int, default=4)
    run.add_argument(
        "--c",
        type=float,
        default=1e-3,
        help="exploration-exploitation coefficient (Eq. 1)",
    )
    run.add_argument("--epsilon", type=float, default=1.0)
    run.add_argument("--distribution", default="erk", choices=["erk", "er", "uniform"])
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=None,
        help="run the paper's multi-seed protocol over these seeds",
    )
    run.add_argument(
        "--n-workers",
        type=int,
        default=0,
        help="data-parallel gradient workers per run (0 = in-process)",
    )

    sweep = sub.add_parser(
        "sweep",
        parents=[common],
        help="grid of (method x model x sparsity x seed) cells",
    )
    sweep.add_argument(
        "--methods",
        nargs="+",
        default=["set", "rigl", "dst_ee"],
        choices=ALL_METHODS,
    )
    sweep.add_argument(
        "--models",
        nargs="+",
        default=["vgg11"],
        choices=["vgg19", "vgg11", "resnet50", "resnet50_mini", "mlp"],
    )
    sweep.add_argument("--sparsities", type=float, nargs="+", default=[0.9])
    sweep.add_argument("--seeds", type=int, nargs="+", default=[0])
    sweep.add_argument(
        "--root-seed",
        type=int,
        default=None,
        help="derive per-cell seeds from this root via SeedSequence.spawn",
    )
    sweep.add_argument("--epochs", type=int, default=2)
    sweep.add_argument("--seed", type=int, default=0, help="dataset generation seed")

    run_rl = sub.add_parser("run-rl", help="one DQN training run on a classic-control environment")
    run_rl.add_argument("--env", default="cartpole", choices=["cartpole", "acrobot"])
    run_rl.add_argument("--method", default="dst_ee", choices=RL_METHODS)
    run_rl.add_argument("--sparsity", type=float, default=0.9)
    run_rl.add_argument("--total-steps", type=int, default=5000)
    run_rl.add_argument(
        "--hidden",
        type=int,
        nargs="+",
        default=[256, 256],
        help="Q-network widths",
    )
    run_rl.add_argument("--batch-size", type=int, default=64)
    run_rl.add_argument("--lr", type=float, default=1e-3)
    run_rl.add_argument("--gamma", type=float, default=0.99)
    run_rl.add_argument("--buffer-capacity", type=int, default=10_000)
    run_rl.add_argument("--warmup-steps", type=int, default=500)
    run_rl.add_argument("--train-every", type=int, default=1, help="env steps per gradient step")
    run_rl.add_argument(
        "--target-sync-every",
        type=int,
        default=200,
        help="target-network sync cadence in gradient steps",
    )
    run_rl.add_argument("--epsilon-start", type=float, default=1.0)
    run_rl.add_argument("--epsilon-end", type=float, default=0.05)
    run_rl.add_argument(
        "--huber-delta",
        type=float,
        default=1.0,
        help="transition point of the Huber TD loss",
    )
    run_rl.add_argument(
        "--epsilon-decay-fraction",
        type=float,
        default=0.4,
        help="fraction of total steps over which epsilon decays",
    )
    run_rl.add_argument(
        "--delta-t",
        type=int,
        default=100,
        help="mask-update period in gradient steps",
    )
    run_rl.add_argument("--drop-fraction", type=float, default=0.3)
    run_rl.add_argument(
        "--c",
        type=float,
        default=1e-3,
        help="exploration-exploitation coefficient (Eq. 1)",
    )
    run_rl.add_argument(
        "--ee-epsilon",
        type=float,
        default=1.0,
        help="DST-EE epsilon (distinct from epsilon-greedy)",
    )
    run_rl.add_argument("--distribution", default="erk", choices=["erk", "er", "uniform"])
    run_rl.add_argument(
        "--sparse-backend",
        default=None,
        choices=["auto", "csr", "bsr", "dense"],
        help="execution backend for the masked Q-network layers "
        "(see docs/performance.md; default: plain masked-dense)",
    )
    run_rl.add_argument("--seed", type=int, default=0)
    run_rl.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=None,
        help="multi-seed protocol over these seeds",
    )
    run_rl.add_argument(
        "--nproc",
        type=int,
        default=None,
        help="worker processes for seed sharding",
    )
    run_rl.add_argument(
        "--checkpoint-dir",
        default=None,
        help="write resume-exact RL training checkpoints here",
    )
    run_rl.add_argument("--checkpoint-every-episodes", type=int, default=1)
    run_rl.add_argument("--checkpoint-every-steps", type=int, default=None)
    run_rl.add_argument("--keep-last", type=int, default=None)
    run_rl.add_argument(
        "--resume",
        action="store_true",
        help="resume from the latest checkpoint in --checkpoint-dir",
    )
    run_rl.add_argument(
        "--out",
        default=None,
        help="export the trained policy net as a serving artifact",
    )

    run_gan = sub.add_parser(
        "run-gan",
        help="one sparse-GAN run on a synthetic 2-D Gaussian mixture",
    )
    run_gan.add_argument("--mixture", default="ring8", choices=["ring4", "ring8", "grid9"])
    run_gan.add_argument("--method", default="dst_ee", choices=GAN_METHODS)
    run_gan.add_argument("--sparsity", type=float, default=0.9)
    run_gan.add_argument("--total-steps", type=int, default=2000)
    run_gan.add_argument(
        "--hidden",
        type=int,
        nargs="+",
        default=[64, 64],
        help="generator/discriminator MLP widths",
    )
    run_gan.add_argument("--latent-dim", type=int, default=8)
    run_gan.add_argument("--batch-size", type=int, default=64)
    run_gan.add_argument("--lr", type=float, default=1e-3)
    run_gan.add_argument(
        "--delta-t",
        type=int,
        default=100,
        help="mask-update period in generator/discriminator steps",
    )
    run_gan.add_argument("--drop-fraction", type=float, default=0.3)
    run_gan.add_argument(
        "--c",
        type=float,
        default=1e-3,
        help="exploration-exploitation coefficient (Eq. 1)",
    )
    run_gan.add_argument("--ee-epsilon", type=float, default=1.0)
    run_gan.add_argument("--distribution", default="erk", choices=["erk", "er", "uniform"])
    run_gan.add_argument(
        "--balance-max-shift",
        type=float,
        default=0.05,
        help="max fraction of the donor budget moved per G<->D rebalance",
    )
    run_gan.add_argument(
        "--balance-delta-t",
        type=int,
        default=None,
        help="G<->D rebalance cadence (default: --delta-t)",
    )
    run_gan.add_argument("--n-eval-samples", type=int, default=2000)
    run_gan.add_argument("--seed", type=int, default=0)
    run_gan.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=None,
        help="multi-seed protocol over these seeds",
    )
    run_gan.add_argument(
        "--nproc",
        type=int,
        default=None,
        help="worker processes for seed sharding",
    )
    run_gan.add_argument(
        "--checkpoint-dir",
        default=None,
        help="write resume-exact GAN training checkpoints here",
    )
    run_gan.add_argument("--checkpoint-every-steps", type=int, default=200)
    run_gan.add_argument("--keep-last", type=int, default=None)
    run_gan.add_argument(
        "--resume",
        action="store_true",
        help="resume from the latest checkpoint in --checkpoint-dir",
    )

    run_lm = sub.add_parser(
        "run-lm",
        help="one sparse char-GPT language-model run on the synthetic prose corpus",
    )
    run_lm.add_argument("--corpus", default="markov-prose", choices=["markov-prose"])
    run_lm.add_argument("--method", default="dst_ee", choices=LM_METHODS)
    run_lm.add_argument("--sparsity", type=float, default=0.9)
    run_lm.add_argument("--epochs", type=int, default=3)
    run_lm.add_argument("--n-chars", type=int, default=65536, help="corpus size in characters")
    run_lm.add_argument("--block-len", type=int, default=32, help="context window length")
    run_lm.add_argument("--n-layer", type=int, default=2)
    run_lm.add_argument("--n-head", type=int, default=2)
    run_lm.add_argument("--n-embd", type=int, default=64)
    run_lm.add_argument("--batch-size", type=int, default=32)
    run_lm.add_argument("--lr", type=float, default=1e-3)
    run_lm.add_argument(
        "--delta-t",
        type=int,
        default=100,
        help="mask-update period in gradient steps",
    )
    run_lm.add_argument("--drop-fraction", type=float, default=0.3)
    run_lm.add_argument(
        "--c",
        type=float,
        default=1e-3,
        help="exploration-exploitation coefficient (Eq. 1)",
    )
    run_lm.add_argument("--epsilon", type=float, default=1.0)
    run_lm.add_argument("--distribution", default="erk", choices=["erk", "er", "uniform"])
    run_lm.add_argument(
        "--block-size",
        type=int,
        default=None,
        help="block-structured masks with this tile edge (dynamic methods)",
    )
    run_lm.add_argument(
        "--sparse-backend",
        default=None,
        choices=["auto", "csr", "blocked", "dense"],
        help="training-time sparse compute backend",
    )
    run_lm.add_argument("--seed", type=int, default=0)
    run_lm.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=None,
        help="multi-seed protocol over these seeds",
    )
    run_lm.add_argument(
        "--nproc",
        type=int,
        default=None,
        help="worker processes for seed sharding",
    )
    run_lm.add_argument(
        "--n-workers",
        type=int,
        default=0,
        help="data-parallel gradient workers inside the run",
    )
    run_lm.add_argument(
        "--checkpoint-dir",
        default=None,
        help="write resume-exact LM training checkpoints here",
    )
    run_lm.add_argument("--checkpoint-every-epochs", type=int, default=1)
    run_lm.add_argument("--checkpoint-every-steps", type=int, default=None)
    run_lm.add_argument("--keep-last", type=int, default=None)
    run_lm.add_argument(
        "--resume",
        action="store_true",
        help="resume from the latest checkpoint in --checkpoint-dir",
    )
    run_lm.add_argument(
        "--out",
        default=None,
        help="export the trained model as a serving artifact (.npz)",
    )

    export = sub.add_parser(
        "export",
        parents=[common],
        help="train one configuration and write a serving artifact",
    )
    export.add_argument("--method", default="dst_ee", choices=ALL_METHODS)
    export.add_argument(
        "--model",
        default="mlp",
        choices=["vgg19", "vgg11", "resnet50", "resnet50_mini", "mlp"],
    )
    export.add_argument("--sparsity", type=float, default=0.95)
    export.add_argument("--epochs", type=int, default=4)
    export.add_argument("--c", type=float, default=1e-3)
    export.add_argument("--epsilon", type=float, default=1.0)
    export.add_argument("--distribution", default="erk", choices=["erk", "er", "uniform"])
    export.add_argument("--seed", type=int, default=0)
    export.add_argument("--out", required=True, help="artifact path to write (.npz)")

    from repro.serve.batching import DEFAULT_MAX_LATENCY_MS

    serve = sub.add_parser("serve", help="serve a model artifact over HTTP")
    serve.add_argument(
        "--artifact",
        required=True,
        help="artifact written by `export` (or serve.export_model)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8100)
    serve.add_argument(
        "--max-batch",
        type=int,
        default=32,
        help="micro-batching: flush at this many pending requests",
    )
    serve.add_argument(
        "--max-latency-ms",
        type=float,
        default=DEFAULT_MAX_LATENCY_MS,
        help="micro-batching: flush when the oldest request has waited this long "
        "(0: no idle wait; a batch takes whatever queued during the previous one)",
    )
    serve.add_argument(
        "--n-workers",
        type=int,
        default=0,
        help="forked serving processes sharing one read-only " "weight arena (0 = in-process)",
    )
    serve.add_argument(
        "--no-batching",
        action="store_true",
        help="disable request coalescing (A/B baseline)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=256,
        help="admission control: bound on admitted-but-unfinished "
        "requests; excess traffic is shed with 429 + Retry-After "
        "(0 disables admission control)",
    )
    serve.add_argument(
        "--deadline-s",
        type=float,
        default=30.0,
        help="default per-request deadline; requests may override via "
        "deadline_ms in the body, expiry answers 504",
    )
    serve.add_argument(
        "--no-verify",
        action="store_true",
        help="skip artifact fingerprint verification at load",
    )

    gnn = sub.add_parser("gnn", help="GNN link-prediction experiment")
    gnn.add_argument("--dataset", default="wiki_talk", choices=["wiki_talk", "ia_email"])
    gnn.add_argument("--method", default="dst_ee", choices=["dense", "dst_ee", "admm"])
    gnn.add_argument("--sparsity", type=float, default=0.9)
    gnn.add_argument("--epochs", type=int, default=12)
    gnn.add_argument("--nodes", type=int, default=400)
    gnn.add_argument("--seed", type=int, default=0)

    sub.add_parser("methods", help="list available methods by family")
    return parser


def _dataset(args):
    from repro.data import cifar10_like, cifar100_like, imagenet_like

    if args.dataset == "cifar10":
        return cifar10_like(
            n_train=args.n_train,
            n_test=args.n_test,
            image_size=args.image_size,
            seed=args.seed,
        )
    if args.dataset == "cifar100":
        return cifar100_like(
            n_train=args.n_train,
            n_test=args.n_test,
            image_size=args.image_size,
            n_classes=20,
            seed=args.seed,
        )
    return imagenet_like(
        n_train=args.n_train,
        n_test=args.n_test,
        image_size=args.image_size,
        n_classes=20,
        seed=args.seed,
    )


def _model_kwargs(args, num_classes: int) -> dict:
    """Architecture kwargs per CLI model name.

    Single source of truth consumed by both the training factories and the
    exported artifact's ``model_config`` — they must agree, or a served
    artifact would rebuild a different architecture than was trained.
    """
    return {
        "vgg19": {
            "num_classes": num_classes,
            "width_mult": args.width_mult,
            "input_size": args.image_size,
        },
        "vgg11": {
            "num_classes": num_classes,
            "width_mult": args.width_mult,
            "input_size": args.image_size,
        },
        "resnet50": {"num_classes": num_classes, "width_mult": args.width_mult},
        "resnet50_mini": {"num_classes": num_classes, "width_mult": args.width_mult},
        "mlp": {
            "in_features": 3 * args.image_size**2,
            "hidden": [128, 64],
            "num_classes": num_classes,
        },
    }


def _model_builders(args, num_classes: int) -> dict:
    from repro.models import build_model

    return {
        name: (lambda seed, n=name, kw=kwargs: build_model(n, seed=seed, **kw))
        for name, kwargs in _model_kwargs(args, num_classes).items()
    }


def _model_factory(args, num_classes: int):
    return _model_builders(args, num_classes)[args.model]


def _checkpoint_kwargs(args) -> dict:
    """Shared checkpoint/resume plumbing for single runs."""
    if args.resume and not args.checkpoint_dir:
        raise SystemExit("--resume requires --checkpoint-dir")
    if not args.checkpoint_dir:
        return {}
    return {
        "checkpoint_dir": args.checkpoint_dir,
        "checkpoint_every_epochs": args.checkpoint_every_epochs,
        "checkpoint_every_steps": args.checkpoint_every_steps,
        "checkpoint_keep_last": args.keep_last,
        "resume_from": args.checkpoint_dir if args.resume else None,
    }


def _command_run(args) -> int:
    from repro.experiments.runner import run_image_classification, run_multi_seed

    checkpoint_kwargs = _checkpoint_kwargs(args)
    data = _dataset(args)
    if args.seeds is not None:
        if args.checkpoint_dir:
            raise SystemExit(
                "--checkpoint-dir with --seeds is not supported by `run` "
                "(every seed would share one directory); use `sweep` for "
                "resumable multi-seed grids"
            )
        mean, std, results = run_multi_seed(
            args.method,
            _model_factory(args, data.num_classes),
            data,
            seeds=tuple(args.seeds),
            n_proc=args.nproc,
            sparsity=args.sparsity,
            epochs=args.epochs,
            batch_size=args.batch_size,
            lr=args.lr,
            delta_t=args.delta_t,
            c=args.c,
            epsilon=args.epsilon,
            distribution=args.distribution,
            block_size=args.block_size,
            sparse_backend=args.sparse_backend,
            n_workers=args.n_workers,
        )
        print(f"method:               {args.method}")
        print(f"dataset:              {data.name}")
        print(f"seeds:                {list(args.seeds)}")
        for seed, result in zip(args.seeds, results):
            print(
                f"  seed {seed}: final {result.final_accuracy:.4f} "
                f"(best {result.best_accuracy:.4f}, {result.seconds:.1f}s)"
            )
        print(f"accuracy:             {mean:.4f} ± {std:.4f}")
        return 0
    result = run_image_classification(
        args.method,
        _model_factory(args, data.num_classes),
        data,
        sparsity=args.sparsity,
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        delta_t=args.delta_t,
        c=args.c,
        epsilon=args.epsilon,
        distribution=args.distribution,
        block_size=args.block_size,
        sparse_backend=args.sparse_backend,
        seed=args.seed,
        n_workers=args.n_workers,
        **checkpoint_kwargs,
    )
    print(f"method:               {result.method}")
    print(f"dataset:              {result.dataset}")
    print(f"final accuracy:       {result.final_accuracy:.4f}")
    print(f"best accuracy:        {result.best_accuracy:.4f}")
    if result.actual_sparsity is not None:
        print(f"actual sparsity:      {result.actual_sparsity:.4f}")
        print(f"inference FLOPs:      {result.inference_flops_multiplier:.2f}x dense")
        print(f"training FLOPs:       {result.training_flops_multiplier:.2f}x dense")
    if result.exploration_rate is not None:
        print(f"exploration rate R:   {result.exploration_rate:.4f}")
    print(f"wall time:            {result.seconds:.1f}s")
    return 0


def _command_sweep(args) -> int:
    from repro.experiments.registry import enumerate_cells
    from repro.experiments.runner import run_sweep
    from repro.experiments.tables import format_float, format_table

    data = _dataset(args)
    cells = enumerate_cells(
        args.methods,
        args.models,
        [args.dataset],
        args.sparsities,
        seeds=args.seeds,
        root_seed=args.root_seed,
    )
    if args.resume and not args.checkpoint_dir:
        raise SystemExit("--resume requires --checkpoint-dir")
    sweep_kwargs = {}
    if args.checkpoint_dir:
        sweep_kwargs = {
            "checkpoint_dir": args.checkpoint_dir,
            "resume": args.resume,
            "checkpoint_every_epochs": args.checkpoint_every_epochs,
            "checkpoint_every_steps": args.checkpoint_every_steps,
            "checkpoint_keep_last": args.keep_last,
        }
    builders = _model_builders(args, data.num_classes)
    report = run_sweep(
        cells,
        {name: (lambda num_classes, b=builders[name]: b) for name in args.models},
        {args.dataset: data},
        n_proc=args.nproc,
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        delta_t=args.delta_t,
        block_size=args.block_size,
        sparse_backend=args.sparse_backend,
        **sweep_kwargs,
    )
    rows = [
        {
            "method": row["method"],
            "model": row["model"],
            "sparsity": f"{row['sparsity']:g}",
            "accuracy": (
                f"{format_float(row['mean_accuracy'], 4)} "
                f"± {format_float(row['std_accuracy'], 4)}"
            ),
            "seeds": f"{row['seeds_ok']}"
            + (f" ({row['seeds_failed']} failed)" if row["seeds_failed"] else ""),
        }
        for row in report.aggregate()
    ]
    print(
        format_table(
            rows,
            ["method", "model", "sparsity", "accuracy", "seeds"],
            title=f"sweep on {args.dataset} ({len(cells)} cells)",
        )
    )
    for outcome in report.failures:
        print(f"\nFAILED {outcome.cell}:")
        print("  " + (outcome.error or "").strip().replace("\n", "\n  "))
    return 1 if report.failures else 0


def _format_return(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.2f}"


def _command_run_rl(args) -> int:
    from repro.experiments.rl import run_rl, run_rl_multi_seed
    from repro.rl.envs import ENV_REGISTRY

    rl_kwargs = dict(
        sparsity=args.sparsity,
        total_steps=args.total_steps,
        hidden=tuple(args.hidden),
        batch_size=args.batch_size,
        lr=args.lr,
        gamma=args.gamma,
        buffer_capacity=args.buffer_capacity,
        warmup_steps=args.warmup_steps,
        train_every=args.train_every,
        target_sync_every=args.target_sync_every,
        epsilon_start=args.epsilon_start,
        epsilon_end=args.epsilon_end,
        epsilon_decay_fraction=args.epsilon_decay_fraction,
        huber_delta=args.huber_delta,
        delta_t=args.delta_t,
        drop_fraction=args.drop_fraction,
        c=args.c,
        epsilon=args.ee_epsilon,
        distribution=args.distribution,
        sparse_backend=args.sparse_backend,
    )
    if args.resume and not args.checkpoint_dir:
        raise SystemExit("--resume requires --checkpoint-dir")
    if args.seeds is not None:
        if args.checkpoint_dir:
            raise SystemExit(
                "--checkpoint-dir with --seeds is not supported by `run-rl` "
                "(every seed would share one directory); use run_rl_sweep for "
                "resumable multi-seed grids"
            )
        if args.out:
            raise SystemExit("--out exports a single run; drop --seeds")
        mean, std, results = run_rl_multi_seed(
            args.method,
            args.env,
            seeds=tuple(args.seeds),
            n_proc=args.nproc,
            **rl_kwargs,
        )
        print(f"method:               {args.method}")
        print(f"environment:          {args.env}")
        print(f"seeds:                {list(args.seeds)}")
        for seed, result in zip(args.seeds, results):
            solved = (
                f"solved @ step {result.solved_at_step}" if result.solved else "not solved"
            )
            # A run too short to finish a single episode reports no return.
            final = _format_return(result.final_avg_return)
            best = _format_return(result.best_avg_return)
            print(f"  seed {seed}: final avg return {final} (best {best}, {solved})")
        print(f"avg return:           {mean:.2f} ± {std:.2f}")
        print(f"solved seeds:         {sum(1 for r in results if r.solved)}" f"/{len(results)}")
        return 0

    checkpoint_kwargs = {}
    if args.checkpoint_dir:
        checkpoint_kwargs = {
            "checkpoint_dir": args.checkpoint_dir,
            "checkpoint_every_epochs": args.checkpoint_every_episodes,
            "checkpoint_every_steps": args.checkpoint_every_steps,
            "checkpoint_keep_last": args.keep_last,
            "resume_from": args.checkpoint_dir if args.resume else None,
        }
    result = run_rl(
        args.method,
        args.env,
        seed=args.seed,
        keep_model=bool(args.out),
        **rl_kwargs,
        **checkpoint_kwargs,
    )
    print(f"method:               {result.method}")
    print(f"environment:          {result.env}")
    print(f"episodes:             {result.episodes}")
    print(f"env steps:            {result.total_steps}")
    print(f"gradient steps:       {result.train_steps}")
    if result.final_avg_return is not None:
        print(f"final avg return:     {result.final_avg_return:.2f}")
        # best is None until a full solve window of episodes has finished.
        print(f"best avg return:      {_format_return(result.best_avg_return)}")
    solved = f"yes (step {result.solved_at_step})" if result.solved else "no"
    print(f"solved (>= {result.solve_threshold:g}):   {solved}")
    if result.actual_sparsity is not None:
        print(f"actual sparsity:      {result.actual_sparsity:.4f}")
    if result.exploration_rate is not None:
        print(f"exploration rate R:   {result.exploration_rate:.4f}")
    print(f"wall time:            {result.seconds:.1f}s")

    if args.out:
        from repro.serve import export_model

        if result.masked is None:
            raise SystemExit(
                f"method {args.method!r} trains a dense policy; nothing sparse "
                "to export"
            )
        env_cls = ENV_REGISTRY[args.env]
        path = export_model(
            result.masked,
            args.out,
            model_config={
                "builder": "mlp",
                "kwargs": {
                    "in_features": env_cls.observation_size,
                    "hidden": [int(width) for width in args.hidden],
                    "num_classes": env_cls.n_actions,
                    "seed": args.seed,
                },
            },
            preprocessing={"input_shape": [env_cls.observation_size]},
            metadata={
                "workload": "rl",
                "method": args.method,
                "environment": args.env,
                "sparsity": args.sparsity,
                "actual_sparsity": result.actual_sparsity,
                "final_avg_return": result.final_avg_return,
                "total_steps": result.total_steps,
                "seed": args.seed,
            },
        )
        size_kib = path.stat().st_size / 1024
        print(f"artifact:             {path} ({size_kib:.0f} KiB)")
        print(f"serve with:           python -m repro.experiments.cli serve " f"--artifact {path}")
    return 0


def _command_run_lm(args) -> int:
    from repro.experiments.lm import run_lm, run_lm_multi_seed

    lm_kwargs = dict(
        sparsity=args.sparsity,
        epochs=args.epochs,
        n_chars=args.n_chars,
        block_len=args.block_len,
        n_layer=args.n_layer,
        n_head=args.n_head,
        n_embd=args.n_embd,
        batch_size=args.batch_size,
        lr=args.lr,
        delta_t=args.delta_t,
        drop_fraction=args.drop_fraction,
        c=args.c,
        epsilon=args.epsilon,
        distribution=args.distribution,
        block_size=args.block_size,
        sparse_backend=args.sparse_backend,
        n_workers=args.n_workers,
    )
    if args.resume and not args.checkpoint_dir:
        raise SystemExit("--resume requires --checkpoint-dir")
    if args.seeds is not None:
        if args.checkpoint_dir:
            raise SystemExit(
                "--checkpoint-dir with --seeds is not supported by `run-lm` "
                "(every seed would share one directory); use run_lm_sweep for "
                "resumable multi-seed grids"
            )
        if args.out:
            raise SystemExit("--out exports a single run; drop --seeds")
        mean, std, results = run_lm_multi_seed(
            args.method,
            args.corpus,
            seeds=tuple(args.seeds),
            n_proc=args.nproc,
            **lm_kwargs,
        )
        print(f"method:               {args.method}")
        print(f"corpus:               {args.corpus}")
        print(f"seeds:                {list(args.seeds)}")
        for seed, result in zip(args.seeds, results):
            print(
                f"  seed {seed}: val ppl {result.val_perplexity:.3f} "
                f"(next-token acc {result.val_next_token_accuracy:.4f})"
            )
        print(f"val perplexity:       {mean:.3f} ± {std:.3f}")
        return 0

    checkpoint_kwargs = {}
    if args.checkpoint_dir:
        checkpoint_kwargs = {
            "checkpoint_dir": args.checkpoint_dir,
            "checkpoint_every_epochs": args.checkpoint_every_epochs,
            "checkpoint_every_steps": args.checkpoint_every_steps,
            "checkpoint_keep_last": args.keep_last,
            "resume_from": args.checkpoint_dir if args.resume else None,
        }
    result = run_lm(
        args.method,
        args.corpus,
        seed=args.seed,
        keep_model=bool(args.out),
        **lm_kwargs,
        **checkpoint_kwargs,
    )
    print(f"method:               {result.method}")
    print(f"corpus:               {result.corpus}")
    print(f"epochs:               {result.epochs}")
    print(f"gradient steps:       {result.total_steps}")
    print(f"train loss:           {result.train_loss:.4f}")
    print(f"val perplexity:       {result.val_perplexity:.3f}")
    print(f"next-token accuracy:  {result.val_next_token_accuracy:.4f}")
    print(f"parameters:           {result.n_params}")
    if result.actual_sparsity is not None:
        print(f"actual sparsity:      {result.actual_sparsity:.4f}")
    if result.exploration_rate is not None:
        print(f"exploration rate R:   {result.exploration_rate:.4f}")
    print(f"wall time:            {result.seconds:.1f}s")

    if args.out:
        from repro.data.text import CharVocab
        from repro.serve import export_model

        if result.masked is None:
            raise SystemExit(
                f"method {args.method!r} trains a dense model; nothing sparse to export"
            )
        pad_id = CharVocab().pad_id
        path = export_model(
            result.masked,
            args.out,
            model_config={
                "builder": "char_gpt",
                "kwargs": {
                    "vocab_size": 32,
                    "block_len": args.block_len,
                    "n_layer": args.n_layer,
                    "n_head": args.n_head,
                    "n_embd": args.n_embd,
                    # Serving answers greedy next-token queries: the loaded
                    # model returns last-position logits for left-padded
                    # prompts, unlike the flattened training head.
                    "head": "last",
                    "pad_id": pad_id,
                    "seed": args.seed,
                },
            },
            preprocessing={
                "kind": "sequence",
                "max_length": args.block_len,
                "pad_id": pad_id,
                "vocab_size": 32,
            },
            metadata={
                "workload": "lm",
                "method": args.method,
                "corpus": args.corpus,
                "sparsity": args.sparsity,
                "actual_sparsity": result.actual_sparsity,
                "val_perplexity": result.val_perplexity,
                "epochs": result.epochs,
                "seed": args.seed,
            },
        )
        size_kib = path.stat().st_size / 1024
        print(f"artifact:             {path} ({size_kib:.0f} KiB)")
        print(f"serve with:           python -m repro.experiments.cli serve " f"--artifact {path}")
    return 0


def _model_export_config(args, num_classes: int) -> dict:
    """Registry config that rebuilds the trained architecture at load time.

    Derived from the same kwargs table the training factory uses, so the
    exported artifact cannot drift from what was actually trained.
    """
    kwargs = dict(_model_kwargs(args, num_classes)[args.model])
    kwargs["seed"] = args.seed
    return {"builder": args.model, "kwargs": kwargs}


def _command_export(args) -> int:
    from repro.experiments.runner import run_image_classification
    from repro.serve import export_model

    checkpoint_kwargs = _checkpoint_kwargs(args)
    data = _dataset(args)
    result = run_image_classification(
        args.method,
        _model_factory(args, data.num_classes),
        data,
        sparsity=args.sparsity,
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        delta_t=args.delta_t,
        c=args.c,
        epsilon=args.epsilon,
        distribution=args.distribution,
        block_size=args.block_size,
        sparse_backend=args.sparse_backend,
        seed=args.seed,
        keep_model=True,
        **checkpoint_kwargs,
    )
    if result.masked is None:
        raise SystemExit(f"method {args.method!r} trains a dense model; nothing sparse to export")
    path = export_model(
        result.masked,
        args.out,
        model_config=_model_export_config(args, data.num_classes),
        preprocessing={"input_shape": list(data.input_shape)},
        metadata={
            "method": args.method,
            "dataset": result.dataset,
            "sparsity": args.sparsity,
            "actual_sparsity": result.actual_sparsity,
            "final_accuracy": result.final_accuracy,
            "epochs": args.epochs,
            "seed": args.seed,
        },
    )
    size_kib = path.stat().st_size / 1024
    print(f"method:          {result.method}")
    print(f"final accuracy:  {result.final_accuracy:.4f}")
    print(f"artifact:        {path} ({size_kib:.0f} KiB)")
    print(f"serve with:      python -m repro.experiments.cli serve --artifact {path}")
    return 0


def _command_serve(args) -> int:
    from repro.serve import (
        AdmissionController,
        Server,
        ServingPool,
        load_model,
        serve_forever,
    )

    loaded = load_model(args.artifact, verify=not args.no_verify)
    pool = None
    forward = None
    if args.n_workers > 0:
        pool = ServingPool(loaded, n_workers=args.n_workers, preprocess=False)

        def forward(batch, _pool=pool):
            # Bounded wait: a wedged worker fails this batch instead of
            # blocking the batching-queue flusher thread forever.
            return _pool.predict(batch, timeout=60.0)
        arena_note = (
            f", shared weight arena {pool.arena.nbytes / 1024:.0f} KiB"
            if pool.arena is not None else ""
        )
        print(f"serving pool: {pool.n_workers} workers{arena_note}")
    admission = (
        AdmissionController(max_pending=args.max_pending) if args.max_pending > 0 else None
    )
    server = Server(
        loaded,
        max_batch=args.max_batch,
        max_latency_ms=args.max_latency_ms,
        batching=not args.no_batching,
        forward_override=forward,
        admission=admission,
    )
    metadata = loaded.metadata or {}
    print(f"artifact: {args.artifact}")
    print(f"  fingerprint: {loaded.fingerprint}")
    if metadata:
        print(f"  metadata:    {metadata}")
    try:
        serve_forever(server, args.host, args.port, default_deadline_s=args.deadline_s)
    finally:
        if pool is not None:
            pool.close()
    return 0


def _command_gnn(args) -> int:
    from repro.data import ia_email_like, wiki_talk_like
    from repro.experiments.gnn import (
        run_admm_prune_from_dense,
        run_gnn_dense,
        run_gnn_dst_ee,
    )

    maker = wiki_talk_like if args.dataset == "wiki_talk" else ia_email_like
    data = maker(n_nodes=args.nodes, seed=args.seed)
    if args.method == "dense":
        result = run_gnn_dense(data, epochs=args.epochs, seed=args.seed)
    elif args.method == "dst_ee":
        result = run_gnn_dst_ee(data, args.sparsity, epochs=args.epochs, seed=args.seed)
    else:
        third = max(1, args.epochs // 3)
        result = run_admm_prune_from_dense(
            data,
            args.sparsity,
            pretrain_epochs=third,
            admm_epochs=third,
            retrain_epochs=third,
            seed=args.seed,
        )
    print(f"method:          {result.method}")
    print(f"dataset:         {result.dataset}")
    print(f"best accuracy:   {result.best_accuracy:.4f}")
    print(f"final accuracy:  {result.final_accuracy:.4f}")
    if result.actual_sparsity is not None:
        print(f"actual sparsity: {result.actual_sparsity:.4f}")
    print(f"wall time:       {result.seconds:.1f}s")
    return 0


def _command_run_gan(args) -> int:
    from repro.experiments.gan import run_gan, run_gan_multi_seed

    gan_kwargs = dict(
        sparsity=args.sparsity,
        total_steps=args.total_steps,
        hidden=tuple(args.hidden),
        latent_dim=args.latent_dim,
        batch_size=args.batch_size,
        lr=args.lr,
        delta_t=args.delta_t,
        drop_fraction=args.drop_fraction,
        c=args.c,
        epsilon=args.ee_epsilon,
        distribution=args.distribution,
        balance_delta_t=args.balance_delta_t,
        balance_max_shift=args.balance_max_shift,
        n_eval_samples=args.n_eval_samples,
    )
    if args.resume and not args.checkpoint_dir:
        raise SystemExit("--resume requires --checkpoint-dir")
    if args.seeds is not None:
        if args.checkpoint_dir:
            raise SystemExit(
                "--checkpoint-dir with --seeds is not supported by `run-gan` "
                "(every seed would share one directory); use run_gan_sweep "
                "for resumable multi-seed grids"
            )
        mean, std, results = run_gan_multi_seed(
            args.method,
            args.mixture,
            seeds=tuple(args.seeds),
            n_proc=args.nproc,
            **gan_kwargs,
        )
        print(f"method:               {args.method}")
        print(f"mixture:              {args.mixture}")
        print(f"seeds:                {list(args.seeds)}")
        for seed, result in zip(args.seeds, results):
            print(
                f"  seed {seed}: {result.modes_covered}/{result.n_modes} modes "
                f"(high-quality {result.high_quality_fraction:.3f})"
            )
        print(f"mode coverage:        {mean:.3f} ± {std:.3f}")
        return 0

    checkpoint_kwargs = {}
    if args.checkpoint_dir:
        checkpoint_kwargs = {
            "checkpoint_dir": args.checkpoint_dir,
            "checkpoint_every_steps": args.checkpoint_every_steps,
            "checkpoint_keep_last": args.keep_last,
            "resume_from": args.checkpoint_dir if args.resume else None,
        }
    result = run_gan(
        args.method,
        args.mixture,
        seed=args.seed,
        **gan_kwargs,
        **checkpoint_kwargs,
    )
    print(f"method:               {result.method}")
    print(f"mixture:              {result.mixture}")
    print(f"steps:                {result.total_steps}")
    print(f"modes covered:        {result.modes_covered}/{result.n_modes}")
    print(f"high-quality frac:    {result.high_quality_fraction:.3f}")
    if result.final_loss_d is not None:
        print(f"final loss D/G:       {result.final_loss_d:.4f} / {result.final_loss_g:.4f}")
    if result.g_density is not None:
        print(f"final G density:      {result.g_density:.4f}")
        print(f"final D density:      {result.d_density:.4f}")
        print(f"combined budget:      {result.combined_budget}")
        print(f"G<->D transfers:      {len(result.transfers)}")
    print(f"wall time:            {result.seconds:.1f}s")
    return 0


def _command_methods() -> int:
    for name in ALL_METHODS:
        print(f"{name:16s} {method_family(name)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _command_run(args)
    if args.command == "sweep":
        return _command_sweep(args)
    if args.command == "run-rl":
        return _command_run_rl(args)
    if args.command == "run-gan":
        return _command_run_gan(args)
    if args.command == "run-lm":
        return _command_run_lm(args)
    if args.command == "export":
        return _command_export(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "gnn":
        return _command_gnn(args)
    return _command_methods()


if __name__ == "__main__":
    sys.exit(main())
