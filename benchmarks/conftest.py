"""Shared helpers for the benchmark/experiment harness.

Every module in this directory regenerates one table or figure from the
paper's evaluation section (each module's docstring says which; README.md
describes the system they measure). Budgets are scaled
down from the paper's (which used hour-long searches and 100k-episode
training runs) so the whole suite completes offline; set the
``REPRO_BENCH_SCALE`` environment variable to a value > 1 to run longer,
higher-fidelity versions.

Each experiment writes its results table to ``benchmarks/results/`` so the
numbers can be inspected after the run. The repo's own benchmark — the
end-to-end and per-layer metrics a perf PR quotes — is not here but in
``bench/`` (see bench/README.md).
"""

import json
import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def bench_scale() -> float:
    """Budget multiplier controlled by the REPRO_BENCH_SCALE env var."""
    try:
        return max(0.1, float(os.environ.get("REPRO_BENCH_SCALE", "1")))
    except ValueError:
        return 1.0


def save_results(name: str, payload: dict) -> Path:
    """Write an experiment's results to benchmarks/results/<name>.json."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, default=str)
    return path


def save_table(name: str, header: str, rows: list) -> Path:
    """Write a human-readable table next to the JSON results."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    with open(path, "w") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(str(row) + "\n")
    return path


@pytest.fixture(scope="session")
def scale() -> float:
    return bench_scale()
