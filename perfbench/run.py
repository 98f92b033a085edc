"""Benchmark command: run one workload, check its outputs, print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload train-mlp-csr --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
makes the traced run and reports the per-layer metrics instead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it describe the
run for a human reader.  The exit code is 0 only when every output check
passed.  ``BENCHMARK.json`` at the repository root lists the workloads and
metrics and says why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# One BLAS thread per process (the served child inherits it).  On a shared
# 2-core box two threads made timings less steady from run to run, and the
# benchmark's own load never needs more than the box's two cores.  This
# has to happen before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path[:0] = [str(ROOT), str(ROOT / "src")]


def _load_manifest() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    manifest = _load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(manifest["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The program is imported only now, from the checkout's src/: without
    # it the command fails here, before printing a result.
    from perfbench import serving, training

    if args.workload not in training.TRAIN_WORKLOADS:
        outcome = serving.measure(args.seed, args.seconds, bool(args.trace))
    elif args.trace:
        outcome = training.measure_traced(args.workload, args.seed)
    else:
        outcome = training.measure(args.workload, args.seed, args.seconds)
    metrics, failures, attempted, failed = outcome

    listed = manifest["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if args.trace:
        # A layer the workload does not exercise did no work: it reports 0.
        metrics = {name: metrics.get(name, 0.0) for name in units}
    elif set(units) - set(metrics):
        raise RuntimeError(f"metrics not measured: {sorted(set(units) - set(metrics))}")
    for failure in failures[:20]:
        print(f"CHECK FAILED: {failure}")
    if len(failures) > 20:
        print(f"CHECK FAILED: ... {len(failures) - 20} more")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
