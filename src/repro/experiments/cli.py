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

One knob table: the flags that ``run``, ``sweep``, ``export``, ``run-rl``,
``run-gan`` and ``run-lm`` share are generated from the rows of
:data:`repro.experiments.workload.KNOBS` (spelling, type, choices, help)
and default to the workload's map in
:data:`repro.experiments.workload.DEFAULTS`, the same defaults the
entrypoints resolve.  The image subcommands override ``--lr``,
``--delta-t`` and ``--epochs`` with the ``small`` scale.  Each run command
hands its entrypoint one ``WorkloadConfig`` built from the parsed table
flags, plus its own workload-specific flags (``--gamma``, ``--n-layer``...).

Fault tolerance: ``--checkpoint-dir`` writes resume-exact training
checkpoints during every training subcommand; after a crash or preemption,
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
from dataclasses import fields
from functools import partial

from repro.experiments.registry import ALL_METHODS, WORKLOADS, method_family
from repro.experiments.workload import DEFAULTS, KNOBS, WorkloadConfig

__all__ = ["build_parser", "main"]


# The knob-table rows (repro.experiments.workload.KNOBS) each training
# subcommand exposes, and the workload whose DEFAULTS they take.
_SCHEDULE = "method sparsity distribution delta_t c epsilon batch_size lr seed"
_CHECKPOINT = (
    "checkpoint_dir checkpoint_every_epochs checkpoint_every_steps checkpoint_keep_last resume"
)
_SUBCOMMAND_KNOBS = {
    command: tuple(names.split())
    for command, names in {
        "run": f"{_SCHEDULE} {_CHECKPOINT} epochs block_size sparse_backend n_workers seeds nproc",
        "sweep": f"{_CHECKPOINT} epochs batch_size lr delta_t block_size sparse_backend seed "
        "seeds nproc",
        "export": f"{_SCHEDULE} {_CHECKPOINT} epochs block_size sparse_backend out",
        "run-rl": f"{_SCHEDULE} {_CHECKPOINT} drop_fraction total_steps sparse_backend seeds "
        "nproc out",
        "run-gan": f"{_SCHEDULE} drop_fraction total_steps seeds nproc checkpoint_dir "
        "checkpoint_every_steps checkpoint_keep_last resume",
        "run-lm": f"{_SCHEDULE} {_CHECKPOINT} drop_fraction epochs block_size sparse_backend "
        "n_workers seeds nproc out",
    }.items()
}
_WORKLOAD = {
    "run": "image",
    "sweep": "image",
    "export": "image",
    "run-rl": "rl",
    "run-gan": "gan",
    "run-lm": "lm",
}
_MODELS = ("vgg19", "vgg11", "resnet50", "resnet50_mini", "mlp")
# The image subcommands' own defaults: the `small` Scale.  The entrypoint
# keeps its own (perfbench calls run_image_classification on them).
_IMAGE_CLI_DEFAULTS = {"lr": 0.05, "delta_t": 6, "epochs": 4}


def _add_knobs(parser: argparse.ArgumentParser, command: str, required=(), **defaults) -> None:
    """Declare ``command``'s knob-table flags on ``parser``.

    Defaults come from the workload's map in ``DEFAULTS``, then
    ``defaults``; every subcommand defaults ``--method`` to ``dst_ee``.
    """
    workload = _WORKLOAD[command]
    defaults = {**DEFAULTS[workload], "method": "dst_ee", **defaults}
    for name in _SUBCOMMAND_KNOBS[command]:
        knob = KNOBS[name]
        kwargs = {"help": knob.help}
        if knob.action is not None:
            kwargs["action"] = knob.action
        else:
            choices = WORKLOADS[workload].methods if name == "method" else knob.choices
            kwargs.update(type=knob.type, nargs=knob.nargs, choices=choices)
        if name in required:
            kwargs["required"] = True
        elif name in defaults:
            kwargs["default"] = defaults[name]
        parser.add_argument(knob.flag, **kwargs)


def _image_parser(sub, command: str, summary: str, model=None, required=(), **defaults):
    """A subcommand training on the synthetic image datasets (``--model`` unless ``None``)."""
    parser = sub.add_parser(command, help=summary)
    parser.add_argument("--dataset", default="cifar10", choices=["cifar10", "cifar100", "imagenet"])
    parser.add_argument("--width-mult", type=float, default=0.2)
    parser.add_argument("--n-train", type=int, default=1024)
    parser.add_argument("--n-test", type=int, default=512)
    parser.add_argument("--image-size", type=int, default=12)
    if model is not None:
        parser.add_argument("--model", default=model, choices=_MODELS)
    _add_knobs(parser, command, required, **{**_IMAGE_CLI_DEFAULTS, **defaults})
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DST-EE reproduction experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _image_parser(sub, "run", "one image-classification training run", model="vgg19")

    sweep = _image_parser(
        sub,
        "sweep",
        "grid of (method x model x sparsity x seed) cells",
        epochs=2,
        seeds=[0],
    )
    sweep.add_argument(
        "--methods",
        nargs="+",
        default=["set", "rigl", "dst_ee"],
        choices=ALL_METHODS,
    )
    sweep.add_argument("--models", nargs="+", default=["vgg11"], choices=_MODELS)
    sweep.add_argument("--sparsities", type=float, nargs="+", default=[0.9])
    sweep.add_argument(
        "--root-seed",
        type=int,
        default=None,
        help="derive per-cell seeds from this root via SeedSequence.spawn",
    )

    _image_parser(
        sub,
        "export",
        "train one configuration and write a serving artifact",
        model="mlp",
        required=("out",),
        sparsity=0.95,
    )

    run_rl = sub.add_parser("run-rl", help="one DQN training run on a classic-control environment")
    run_rl.add_argument("--env", default="cartpole", choices=WORKLOADS["rl"].datasets)
    run_rl.add_argument(
        "--hidden",
        type=int,
        nargs="+",
        default=[256, 256],
        help="Q-network widths",
    )
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
    _add_knobs(run_rl, "run-rl")

    run_gan = sub.add_parser(
        "run-gan",
        help="one sparse-GAN run on a synthetic 2-D Gaussian mixture",
    )
    run_gan.add_argument("--mixture", default="ring8", choices=WORKLOADS["gan"].datasets)
    run_gan.add_argument(
        "--hidden",
        type=int,
        nargs="+",
        default=[64, 64],
        help="generator/discriminator MLP widths",
    )
    run_gan.add_argument("--latent-dim", type=int, default=8)
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
    _add_knobs(run_gan, "run-gan")

    run_lm = sub.add_parser(
        "run-lm",
        help="one sparse char-GPT language-model run on the synthetic prose corpus",
    )
    run_lm.add_argument("--corpus", default="markov-prose", choices=WORKLOADS["lm"].datasets)
    run_lm.add_argument("--n-chars", type=int, default=65536, help="corpus size in characters")
    run_lm.add_argument("--block-len", type=int, default=32, help="context window length")
    run_lm.add_argument("--n-layer", type=int, default=2)
    run_lm.add_argument("--n-head", type=int, default=2)
    run_lm.add_argument("--n-embd", type=int, default=64)
    _add_knobs(run_lm, "run-lm")

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


_CONFIG_FIELDS = frozenset(spec.name for spec in fields(WorkloadConfig))


def _knob_values(args) -> dict:
    """The WorkloadConfig fields the subcommand parsed, by field name."""
    return {
        name: getattr(args, KNOBS[name].dest)
        for name in _SUBCOMMAND_KNOBS[args.command]
        if name in _CONFIG_FIELDS
    }


def _workload_config(args) -> WorkloadConfig:
    """One run's WorkloadConfig, with ``--resume`` read from ``--checkpoint-dir``."""
    resume_from = args.checkpoint_dir if args.resume else None
    return WorkloadConfig(**_knob_values(args), resume_from=resume_from)


def _own_kwargs(args, *positional: str) -> dict:
    """The subcommand's workload-specific flags (``--gamma``, ``--n-layer``...).

    Their dests are the entrypoint's keyword names; ``positional`` names
    the ones passed positionally instead (``--env``, ``--mixture``...).
    """
    table = {KNOBS[name].dest for name in _SUBCOMMAND_KNOBS[args.command]}
    skip = table | {"command", *positional}
    return {name: value for name, value in vars(args).items() if name not in skip}


def _check_run_flags(args) -> None:
    """Reject flag combinations a training subcommand cannot honour."""
    if args.resume and not args.checkpoint_dir:
        raise SystemExit("--resume requires --checkpoint-dir")
    # A sweep's --seeds are its cells, each checkpointed in its own directory.
    if args.command == "sweep" or getattr(args, "seeds", None) is None:
        return
    if args.checkpoint_dir:
        raise SystemExit(
            f"--checkpoint-dir with --seeds is not supported by `{args.command}` "
            "(every seed would share one directory); use `sweep` or "
            "repro.experiments.run_sweep for resumable multi-seed grids"
        )
    if getattr(args, "out", None):
        raise SystemExit("--out exports a single run; drop --seeds")


def _command_run(args) -> int:
    from repro.experiments.runner import run_image_classification, run_multi_seed

    data = _dataset(args)
    factory = _model_factory(args, data.num_classes)
    config = _workload_config(args)
    run = partial(run_image_classification, args.method, factory, data, config=config)
    if args.seeds is not None:
        mean, std, results = run_multi_seed(run, args.seeds, args.nproc)
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
    result = run()
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
    from repro.experiments.runner import run_image_classification, run_sweep
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
    knobs = _knob_values(args)
    del knobs["seed"]  # seeds the dataset; every cell carries its own run seed
    builders = _model_builders(args, data.num_classes)

    def run(cell, **kwargs):
        return run_image_classification(
            cell.method,
            builders[cell.model],
            data,
            sparsity=cell.sparsity,
            seed=cell.seed,
            **kwargs,
        )

    report = run_sweep(cells, run, n_proc=args.nproc, resume=args.resume, **knobs)
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
    from repro.experiments.rl import run_rl
    from repro.experiments.runner import run_multi_seed
    from repro.rl.envs import ENV_REGISTRY

    config = _workload_config(args)
    run = partial(run_rl, args.method, args.env, config=config, **_own_kwargs(args, "env"))
    if args.seeds is not None:
        mean, std, results = run_multi_seed(run, args.seeds, args.nproc)
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
        print(f"avg return:           {_format_return(mean)} ± {_format_return(std)}")
        print(f"solved seeds:         {sum(1 for r in results if r.solved)}" f"/{len(results)}")
        return 0

    result = run(keep_model=bool(args.out))
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
    from repro.experiments.lm import run_lm
    from repro.experiments.runner import run_multi_seed, score_summary

    config = _workload_config(args)
    run = partial(run_lm, args.method, args.corpus, config=config, **_own_kwargs(args, "corpus"))
    if args.seeds is not None:
        _, _, results = run_multi_seed(run, args.seeds, args.nproc)
        mean, std = score_summary(result.val_perplexity for result in results)
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

    result = run(keep_model=bool(args.out))
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

    data = _dataset(args)
    result = run_image_classification(
        args.method,
        _model_factory(args, data.num_classes),
        data,
        config=_workload_config(args),
        keep_model=True,
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
    from repro.experiments.gan import run_gan
    from repro.experiments.runner import run_multi_seed

    config = _workload_config(args)
    run = partial(run_gan, args.method, args.mixture, config=config, **_own_kwargs(args, "mixture"))
    if args.seeds is not None:
        mean, std, results = run_multi_seed(run, args.seeds, args.nproc)
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

    result = run()
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


def _command_methods(args) -> int:
    for name in ALL_METHODS:
        print(f"{name:16s} {method_family(name)}")
    return 0


_COMMANDS = {
    "run": _command_run,
    "sweep": _command_sweep,
    "run-rl": _command_run_rl,
    "run-gan": _command_run_gan,
    "run-lm": _command_run_lm,
    "export": _command_export,
    "serve": _command_serve,
    "gnn": _command_gnn,
    "methods": _command_methods,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in _SUBCOMMAND_KNOBS:
        _check_run_flags(args)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
