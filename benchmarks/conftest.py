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

from repro.analysis.psd_method import evaluate_psd
from repro.bench import _replay_edits, bench_payload, write_bench_json
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


def candidate_replay(plan, edits, n_psd, cold=False):
    """One greedy candidate pass: requantize each edit, evaluate, restore
    (:func:`repro.bench._replay_edits`; ``cold`` clears the plan's noise
    memo before each evaluation).

    ``edits`` are ``(node name or "src->dst" edge key, bits)`` pairs.
    """
    return np.asarray(_replay_edits(plan, edits, n_psd, cold))


def timed_replays(plan, edits, n_psd, repeat):
    """(cold seconds, warm seconds) of one candidate edit sequence.

    The cold run clears the plan's noise memo before each evaluation
    (every candidate pays a full walk, on warm response caches); the
    warm run pulls from the plan's memo (every candidate pays its dirty
    cone).  Both are preceded by one untimed pass, then the two
    alternate ``repeat`` times and each reports its fastest replay, so
    that a load spike on a shared host slows one replay, not one side.
    Both must produce bitwise identical per-candidate powers.
    """
    candidate_replay(plan, edits, n_psd, cold=True)
    cold_seconds, warm_seconds = [], []
    for _ in range(repeat):
        cold, seconds = time_callable(candidate_replay, plan, edits, n_psd,
                                      cold=True)
        cold_seconds.append(seconds)
        evaluate_psd(plan, n_psd)  # sync the memo on the restored baseline
        if not warm_seconds:
            candidate_replay(plan, edits, n_psd)
        warm, seconds = time_callable(candidate_replay, plan, edits, n_psd)
        warm_seconds.append(seconds)
    assert np.array_equal(cold, warm), \
        "memoized candidate powers drifted from the cold full walks"
    return min(cold_seconds), min(warm_seconds)


@pytest.fixture
def fresh_plan_search(monkeypatch):
    """Switch the word-length search to fresh plans.

    Calling the returned function makes every evaluation of the
    optimizer — its uniform search's and its greedy rounds' — run on a
    freshly compiled plan of the graph it searches: no noise memo, kept
    row or response cache carries over from one evaluation to the next,
    and the optimizer's own plan memo stays untouched.
    """
    from repro.sfg.plan import CompiledPlan
    from repro.systems import wordlength

    def on_a_fresh_plan(estimate):
        def fresh(plan, *args):
            return estimate(CompiledPlan(plan.graph), *args)
        return fresh

    def activate():
        for name in ("estimate_noise", "estimate_noise_batch"):
            monkeypatch.setattr(wordlength, name,
                                on_a_fresh_plan(getattr(wordlength, name)))

    return activate
