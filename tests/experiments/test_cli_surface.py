"""Snapshot of the CLI surface and of what each training command resolves.

Two pinned records live in ``cli_surface.json`` beside this file:

* ``parsers`` — for every subcommand, each action's option strings, dest,
  type, default, choices, nargs and required flag.  Help text is not
  pinned; everything a script or shell line can depend on is.
* ``resolved`` — for ``run``, ``sweep``, ``export``, ``run-rl``,
  ``run-gan`` and ``run-lm`` invoked with default flags, the fully
  resolved knob values the command hands its entrypoint.  The
  entrypoints are replaced by recorders that merge, in the entrypoints'
  own precedence, explicit keywords over ``config=`` fields over the
  entrypoint defaults pinned in :data:`ENTRYPOINT_DEFAULTS`, and then
  stop the command before any training runs.

A parser refactor must leave both records unchanged unless the surface
change is intended; regenerate the file with
``PYTHONPATH=src python tests/experiments/test_cli_surface.py`` and review
its diff.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import inspect
import json
import pathlib
import sys

import pytest

from repro.experiments import cli, gan, lm, rl, runner
from repro.experiments.workload import DEFAULTS, UNSET

SNAPSHOT = pathlib.Path(__file__).with_name("cli_surface.json")

_CHECKPOINT_DEFAULTS = {
    "checkpoint_dir": None,
    "checkpoint_every_steps": None,
    "checkpoint_keep_last": None,
    "resume_from": None,
}
_SCHEDULE_DEFAULTS = {
    "method": None,
    "sparsity": 0.9,
    "delta_t": 100,
    "drop_fraction": 0.3,
    "c": 1e-3,
    "epsilon": 1.0,
    "distribution": "erk",
    "seed": 0,
}

# What each entrypoint uses for a uniform knob neither passed explicitly
# nor set on ``config=``.  perfbench calls the entrypoints on these.
ENTRYPOINT_DEFAULTS = {
    "image": {
        **_SCHEDULE_DEFAULTS,
        **_CHECKPOINT_DEFAULTS,
        "epochs": 5,
        "batch_size": 64,
        "lr": 0.1,
        "delta_t": 20,
        "block_size": None,
        "sparse_backend": None,
        "n_workers": 0,
        "checkpoint_every_epochs": 1,
    },
    "rl": {
        **_SCHEDULE_DEFAULTS,
        **_CHECKPOINT_DEFAULTS,
        "total_steps": 5000,
        "batch_size": 64,
        "lr": 1e-3,
        "sparse_backend": None,
        "checkpoint_every_epochs": 1,
    },
    "gan": {
        **_SCHEDULE_DEFAULTS,
        **_CHECKPOINT_DEFAULTS,
        "total_steps": 2000,
        "batch_size": 64,
        "lr": 1e-3,
        "checkpoint_every_steps": 200,
    },
    "lm": {
        **_SCHEDULE_DEFAULTS,
        **_CHECKPOINT_DEFAULTS,
        "epochs": 3,
        "batch_size": 32,
        "lr": 1e-3,
        "block_size": None,
        "sparse_backend": None,
        "n_workers": 0,
        "checkpoint_every_epochs": 1,
    },
}

# (module, entrypoint name, workload whose defaults fill unset knobs)
ENTRYPOINTS = (
    (runner, "run_image_classification", "image"),
    (runner, "run_multi_seed", "image"),
    (runner, "run_sweep", "image"),
    (rl, "run_rl", "rl"),
    (rl, "run_rl_multi_seed", "rl"),
    (gan, "run_gan", "gan"),
    (gan, "run_gan_multi_seed", "gan"),
    (lm, "run_lm", "lm"),
    (lm, "run_lm_multi_seed", "lm"),
)

# Default invocations of every training command, plus the multi-seed and
# checkpoint/resume forms, whose argument plumbing differs.
INVOCATIONS = (
    "run",
    "run --seeds 0 1",
    "run --checkpoint-dir ckpt --resume",
    "sweep",
    "sweep --checkpoint-dir ckpt --resume",
    "export --out model.npz",
    "run-rl",
    "run-rl --seeds 0 1",
    "run-rl --checkpoint-dir ckpt --resume",
    "run-gan",
    "run-gan --seeds 0 1",
    "run-gan --checkpoint-dir ckpt --resume",
    "run-lm",
    "run-lm --seeds 0 1",
    "run-lm --checkpoint-dir ckpt --resume",
)


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    raise AssertionError("parser has no subcommands")


def _action_record(action: argparse.Action) -> dict:
    return {
        "action": type(action).__name__,
        "dest": action.dest,
        "type": getattr(action.type, "__name__", action.type),
        "default": action.default,
        "choices": list(action.choices) if action.choices is not None else None,
        "nargs": action.nargs,
        "required": action.required,
    }


def parser_surface() -> dict:
    return {
        name: {
            " ".join(action.option_strings): _action_record(action)
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
        }
        for name, sub in _subparsers(cli.build_parser()).items()
    }


class _Captured(Exception):
    def __init__(self, values: dict):
        super().__init__("entrypoint reached")
        self.values = values


def _plain(value):
    """JSON-ready view of one recorded argument."""
    if dataclasses.is_dataclass(value) and hasattr(value, "train"):
        digest = hashlib.sha256(value.train.inputs.tobytes()).hexdigest()[:16]
        return {
            "name": value.name,
            "num_classes": value.num_classes,
            "input_shape": list(value.input_shape),
            "n_train": len(value.train),
            "n_test": len(value.test),
            "train_inputs_sha256": digest,
        }
    if dataclasses.is_dataclass(value):
        return _plain(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"no snapshot form for {type(value).__name__}")


def _model_record(factory) -> dict:
    model = factory(0)
    return {
        "class": type(model).__name__,
        "n_params": int(sum(p.data.size for p in model.parameters())),
    }


def _recorder(fn, workload: str):
    signature = inspect.signature(fn)

    def record(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        values = {}
        for name, value in bound.arguments.items():
            kind = signature.parameters[name].kind
            if kind is inspect.Parameter.VAR_KEYWORD:
                values.update(value)
            else:
                values[name] = value
        config = values.pop("config", None)
        resolved = dict(ENTRYPOINT_DEFAULTS[workload])
        if config is not None:
            resolved.update(config.kwargs())
        resolved.update({k: v for k, v in values.items() if v is not UNSET})
        if "model_factory" in resolved:
            resolved["model_factory"] = _model_record(resolved["model_factory"])
        if "model_factories" in resolved:
            resolved["model_factories"] = {
                name: _model_record(make(10))
                for name, make in resolved["model_factories"].items()
            }
        raise _Captured({"entrypoint": fn.__name__, "knobs": _plain(resolved)})

    return record


def resolved_invocations(monkeypatch, tmp_path) -> dict:
    for module, name, workload in ENTRYPOINTS:
        monkeypatch.setattr(module, name, _recorder(getattr(module, name), workload))
    monkeypatch.chdir(tmp_path)
    out = {}
    for line in INVOCATIONS:
        with pytest.raises(_Captured) as captured:
            cli.main(line.split())
        out[line] = captured.value.values
    return out


def _dump(snapshot: dict) -> str:
    return json.dumps(snapshot, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(SNAPSHOT.read_text())


def test_parser_surface_matches_snapshot(pinned):
    # Round-trip through JSON so tuples and lists compare alike.
    assert json.loads(_dump(parser_surface())) == pinned["parsers"]


def test_entrypoint_defaults_are_the_knob_table_defaults():
    assert DEFAULTS == ENTRYPOINT_DEFAULTS


def test_resolved_knobs_match_snapshot(pinned, monkeypatch, tmp_path):
    current = json.loads(_dump(resolved_invocations(monkeypatch, tmp_path)))
    assert current.keys() == pinned["resolved"].keys()
    for line, values in current.items():
        assert values == pinned["resolved"][line], line


if __name__ == "__main__":
    import tempfile

    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        resolved = resolved_invocations(patch, pathlib.Path(tmp))
        SNAPSHOT.write_text(_dump({"parsers": parser_surface(), "resolved": resolved}))
    print(f"wrote {SNAPSHOT}", file=sys.stderr)
