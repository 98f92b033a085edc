"""Shared infrastructure for the benchmark harness.

Every bench regenerates one table or figure of the paper.  Tables are
printed to stdout *and* written to ``benchmarks/results/``, so the numbers
survive pytest's output capture.

Scale is controlled by the ``REPRO_SCALE`` environment variable
(``small``/``medium``/``full`` — see :mod:`repro.experiments.configs`).
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def report(results_dir):
    """Write a report to results/<name>.txt and echo it to stdout."""

    def _report(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[written to {path}]")

    return _report
