"""Shared configuration of the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  Because the
paper's full workloads (10^6-10^7 simulation samples, 147 + 147 filters,
196 images) take hours in pure Python, each harness has a *reduced*
default configuration that preserves the shape of the result and runs in
minutes, and a *full* configuration enabled by setting the environment
variable ``REPRO_FULL_BENCH=1``.

All harnesses print their table to stdout (run pytest with ``-s`` to see
it) and also write it under ``benchmarks/results/`` so the numbers used in
EXPERIMENTS.md can be traced back to a file.  Next to every human-readable
``.txt`` report each harness drops a machine-readable ``BENCH_<name>.json``
(schema of :mod:`repro.bench`) so CI jobs and ``repro bench --check`` can
consume the same measurements.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.analysis._engine import memoization_disabled
from repro.analysis.psd_method import evaluate_psd
from repro.bench import bench_payload, write_bench_json
from repro.utils.timing import time_callable

RESULTS_DIR = Path(__file__).parent / "results"


def full_mode() -> bool:
    """Whether the full (paper-sized) workloads were requested."""
    return os.environ.get("REPRO_FULL_BENCH", "0") not in ("", "0", "false")


@pytest.fixture(scope="session")
def bench_config() -> dict:
    """Workload sizes for the current mode (reduced by default)."""
    if full_mode():
        return {
            "mode": "full",
            "filter_bank_count": 147,
            "filter_bank_samples": 1_000_000,
            "freq_filter_samples": 2_000_000,
            "dwt_images": 32,
            "dwt_image_size": 128,
            "n_psd_sweep": (16, 32, 64, 128, 256, 512, 1024),
            "timing_n_psd_sweep": (16, 64, 256, 1024, 4096),
            "bitwidth_sweep": (8, 12, 16, 20, 24, 28, 32),
            "default_n_psd": 1024,
        }
    return {
        "mode": "reduced",
        "filter_bank_count": 21,
        "filter_bank_samples": 30_000,
        "freq_filter_samples": 60_000,
        "dwt_images": 4,
        "dwt_image_size": 64,
        "n_psd_sweep": (16, 32, 64, 128, 256, 512, 1024),
        "timing_n_psd_sweep": (16, 64, 256, 1024),
        "bitwidth_sweep": (8, 12, 16, 20, 24),
        "default_n_psd": 512,
    }


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where the harnesses drop their text reports."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def write_report(results_dir: Path, name: str, text: str) -> None:
    """Print a report and persist it under ``benchmarks/results/``."""
    print("\n" + text)
    (results_dir / name).write_text(text + "\n")


def write_bench(results_dir: Path, name: str, *, workload: dict,
                seconds: dict, speedup: dict | None = None,
                tags=()) -> None:
    """Persist one machine-readable ``BENCH_<name>.json`` measurement."""
    payload = bench_payload(
        name, workload=workload, seconds=seconds, speedup=speedup,
        tags=tags, mode="full" if full_mode() else "reduced")
    write_bench_json(results_dir, payload)


def candidate_replay(plan, edits, n_psd):
    """One greedy candidate pass: requantize each edit, evaluate, restore.

    ``edits`` are ``(node name or "src->dst" edge key, bits)`` pairs.
    """
    powers = []
    with plan.preserve_quantization():
        for key, bits in edits:
            plan.requantize({key: bits})
            powers.append(evaluate_psd(plan, n_psd).total_power)
    return np.asarray(powers)


def timed_replays(plan, edits, n_psd, repeat):
    """(cold seconds, warm seconds) of one candidate edit sequence.

    The cold run replays under :func:`memoization_disabled` (every
    candidate pays a full walk); the warm run pulls from the plan's
    memo (every candidate pays its dirty cone).  Both are preceded by
    one untimed pass, then the two alternate ``repeat`` times and each
    reports its fastest replay, so that a load spike on a shared host
    slows one replay, not one side.  Both must produce bitwise identical
    per-candidate powers.
    """
    with memoization_disabled():
        candidate_replay(plan, edits, n_psd)
    cold_seconds, warm_seconds = [], []
    for _ in range(repeat):
        with memoization_disabled():
            cold, seconds = time_callable(candidate_replay, plan, edits,
                                          n_psd)
        cold_seconds.append(seconds)
        evaluate_psd(plan, n_psd)  # sync the memo on the restored baseline
        if not warm_seconds:
            candidate_replay(plan, edits, n_psd)
        warm, seconds = time_callable(candidate_replay, plan, edits, n_psd)
        warm_seconds.append(seconds)
    assert np.array_equal(cold, warm), \
        "memoized candidate powers drifted from the cold full walks"
    return min(cold_seconds), min(warm_seconds)
