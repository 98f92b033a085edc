"""The knob table: one declaration per shared knob, for every entrypoint.

``run_image_classification``, ``run_rl``, ``run_gan`` and ``run_lm`` share
one vocabulary of method / budget / schedule / checkpoint / backend knobs,
and the ``run``, ``sweep``, ``export``, ``run-rl``, ``run-gan`` and
``run-lm`` subcommands expose it.  This module declares that vocabulary
once:

* :class:`WorkloadConfig` — a frozen dataclass naming the shared knobs
  identically across all four entrypoints.  Every entrypoint accepts
  ``config=`` and resolves each knob with the precedence **explicit kwarg >
  config field > per-workload default** (fields left ``None`` are unset).
* :data:`KNOBS` — one :class:`Knob` row per :class:`WorkloadConfig` field,
  plus the CLI-only ``seeds``, ``nproc``, ``resume`` and ``out``: flag
  spelling, type, nargs, choices and help.  ``repro.experiments.cli``
  builds every shared flag of the training subcommands from these rows.
* :data:`DEFAULTS` — one defaults map per workload (``image``, ``rl``,
  ``gan``, ``lm``), listing exactly the knobs that workload resolves.  The
  entrypoints read their defaults from it through :func:`resolve_knob`,
  and the ``run-rl``/``run-gan``/``run-lm`` flags default to the same
  values.
* :data:`UNSET` — the sentinel the entrypoints use as keyword default so
  an explicitly passed value (including ``None``, which is meaningful
  for knobs like ``checkpoint_every_epochs``) is distinguishable from
  "not passed".
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.sparse.kernels import MODES

__all__ = ["DEFAULTS", "KNOBS", "UNSET", "Knob", "WorkloadConfig", "resolve_knob"]


class _Unset:
    """Sentinel type distinguishing "not passed" from an explicit ``None``."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<unset>"

    def __reduce__(self):
        return (_Unset, ())


UNSET = _Unset()


@dataclass(frozen=True)
class WorkloadConfig:
    """Uniform knobs shared by all workload entrypoints.

    Fields default to ``None`` meaning *unset* — the entrypoint's own
    default applies.  Workload-specific knobs (environment names, GAN
    mixtures, model widths…) stay ordinary keyword arguments on the
    entrypoints; this config carries only the vocabulary every workload
    shares.
    """

    # method / budget
    method: str | None = None
    sparsity: float | None = None
    distribution: str | None = None
    block_size: int | None = None
    # schedule (drop-and-grow)
    delta_t: int | None = None
    drop_fraction: float | None = None
    c: float | None = None
    epsilon: float | None = None
    # training loop
    epochs: int | None = None
    total_steps: int | None = None
    batch_size: int | None = None
    lr: float | None = None
    seed: int | None = None
    n_workers: int | None = None
    # backend
    sparse_backend: str | None = None
    # checkpointing
    checkpoint_dir: object | None = None
    checkpoint_every_epochs: int | None = None
    checkpoint_every_steps: int | None = None
    checkpoint_keep_last: int | None = None
    resume_from: object | None = None

    def kwargs(self) -> dict:
        """The non-``None`` fields as a plain kwargs dict."""
        out = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if value is not None:
                out[spec.name] = value
        return out


@dataclass(frozen=True)
class Knob:
    """One row of the knob table: how a knob is spelled on the command line.

    ``flag`` is ``None`` for a knob with no flag of its own
    (``resume_from`` comes from ``--resume``).
    """

    flag: str | None
    help: str
    type: type | None = None
    nargs: str | None = None
    choices: tuple | None = None
    action: str | None = None

    @property
    def dest(self) -> str:
        """The argparse attribute the flag parses into."""
        return self.flag[2:].replace("-", "_")


KNOBS = {
    "method": Knob("--method", "sparse-training method (see the `methods` subcommand)"),
    "sparsity": Knob("--sparsity", "target global sparsity", float),
    "distribution": Knob(
        "--distribution", "per-layer density distribution", choices=("erk", "er", "uniform")
    ),
    "block_size": Knob(
        "--block-size",
        "block-structured mask tile size (1 = unstructured; "
        "default: REPRO_SPARSE_BLOCK_SIZE or 1)",
        int,
    ),
    "delta_t": Knob("--delta-t", "mask-update period ΔT in optimizer steps", int),
    "drop_fraction": Knob("--drop-fraction", "fraction of active weights dropped per ΔT", float),
    "c": Knob("--c", "exploration-exploitation coefficient (Eq. 1)", float),
    "epsilon": Knob("--epsilon", "DST-EE epsilon in Eq. 1 (distinct from epsilon-greedy)", float),
    "epochs": Knob("--epochs", "training epochs", int),
    "total_steps": Knob("--total-steps", "training steps", int),
    "batch_size": Knob("--batch-size", "mini-batch size", int),
    "lr": Knob("--lr", "learning rate", float),
    "seed": Knob("--seed", "seed of the data and, for a single run, all its randomness", int),
    "n_workers": Knob(
        "--n-workers", "data-parallel gradient workers per run (0 = in-process)", int
    ),
    "sparse_backend": Knob(
        "--sparse-backend",
        "execution backend for masked layers during training "
        "(see docs/performance.md; default: plain masked-dense)",
        choices=MODES,
    ),
    "checkpoint_dir": Knob(
        "--checkpoint-dir",
        "write resume-exact training checkpoints here (see docs/checkpointing.md)",
    ),
    "checkpoint_every_epochs": Knob(
        "--checkpoint-every-epochs",
        "epoch checkpoint cadence (an RL epoch is one episode)",
        int,
    ),
    "checkpoint_every_steps": Knob(
        "--checkpoint-every-steps", "step-granularity checkpoint cadence", int
    ),
    "checkpoint_keep_last": Knob("--keep-last", "retain only the newest K checkpoints", int),
    "resume_from": Knob(None, "checkpoint file or directory to resume from"),
    # CLI-only: how the command runs, not what one run trains.
    "seeds": Knob("--seeds", "run the multi-seed protocol over these seeds", int, "+"),
    "nproc": Knob(
        "--nproc",
        "worker processes for seed/cell sharding (default: REPRO_NPROC, 1 = serial)",
        int,
    ),
    "resume": Knob(
        "--resume",
        "resume from the latest checkpoint in --checkpoint-dir "
        "(bitwise-identical to an uninterrupted run)",
        action="store_true",
    ),
    "out": Knob("--out", "write the trained model as a serving artifact (.npz) here"),
}

_SHARED_DEFAULTS = {
    "method": None,
    "sparsity": 0.9,
    "distribution": "erk",
    "delta_t": 100,
    "drop_fraction": 0.3,
    "c": 1e-3,
    "epsilon": 1.0,
    "batch_size": 64,
    "lr": 1e-3,
    "seed": 0,
}
_CHECKPOINT_DEFAULTS = {
    "checkpoint_dir": None,
    "checkpoint_every_steps": None,
    "checkpoint_keep_last": None,
    "resume_from": None,
}

DEFAULTS = {
    "image": {
        **_SHARED_DEFAULTS,
        **_CHECKPOINT_DEFAULTS,
        "lr": 0.1,
        "delta_t": 20,
        "epochs": 5,
        "block_size": None,
        "sparse_backend": None,
        "n_workers": 0,
        "checkpoint_every_epochs": 1,
    },
    "rl": {
        **_SHARED_DEFAULTS,
        **_CHECKPOINT_DEFAULTS,
        "total_steps": 5000,
        "sparse_backend": None,
        "checkpoint_every_epochs": 1,
    },
    "gan": {
        **_SHARED_DEFAULTS,
        **_CHECKPOINT_DEFAULTS,
        "total_steps": 2000,
        "checkpoint_every_steps": 200,
    },
    "lm": {
        **_SHARED_DEFAULTS,
        **_CHECKPOINT_DEFAULTS,
        "epochs": 3,
        "batch_size": 32,
        "block_size": None,
        "sparse_backend": None,
        "n_workers": 0,
        "checkpoint_every_epochs": 1,
    },
}


def resolve_knob(name: str, explicit, config: WorkloadConfig | None, workload: str):
    """Resolve one knob: explicit kwarg > config field > ``DEFAULTS[workload]``."""
    if explicit is not UNSET:
        return explicit
    if config is not None:
        value = getattr(config, name)
        if value is not None:
            return value
    return DEFAULTS[workload][name]
