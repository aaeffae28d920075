"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator shared by the tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def short_white_noise(rng) -> np.ndarray:
    """A short wide-band stimulus for quick simulations."""
    return rng.uniform(-0.9, 0.9, 8_192)


@pytest.fixture
def small_image(rng) -> np.ndarray:
    """A small synthetic test image in [0, 1)."""
    from repro.data.images import natural_image

    return natural_image(32, seed=7)


@pytest.fixture
def sequential_rounds(monkeypatch):
    """Switch the word-length search to its sequential baseline.

    Calling the returned function swaps the optimizer's batched round
    evaluators for one requantize + cold scalar evaluation per candidate
    (on a freshly compiled plan, quantization restored after each) — the
    baseline the row-sparse batched rounds must reproduce bit for bit.
    """
    from types import SimpleNamespace

    import repro.analysis.evaluator as evaluator
    from repro.analysis.agnostic_method import evaluate_agnostic
    from repro.analysis.flat_method import evaluate_flat
    from repro.analysis.psd_method import evaluate_psd
    from repro.sfg.plan import CompiledPlan

    def one_by_one(evaluate, plan, deltas, *options):
        rows = []
        for delta in deltas:
            with plan.preserve_quantization():
                plan.requantize(delta)
                rows.append(evaluate(CompiledPlan(plan.graph), *options))
        return rows

    def stacked(rows):
        return SimpleNamespace(
            mean=np.array([row.mean for row in rows]),
            variance=np.array([row.variance for row in rows]))

    def psd_rounds(plan, n_psd, deltas, output=None):
        return stacked(one_by_one(evaluate_psd, plan, deltas, n_psd))

    def stats_rounds(evaluate):
        def rounds(plan, deltas, output=None):
            return stacked(one_by_one(evaluate, plan, deltas))
        return rounds

    # The method table dispatches through these module-level names.
    def activate():
        monkeypatch.setattr(evaluator, "evaluate_psd_batch", psd_rounds)
        monkeypatch.setattr(evaluator, "evaluate_flat_batch",
                            stats_rounds(evaluate_flat))
        monkeypatch.setattr(evaluator, "evaluate_agnostic_batch",
                            stats_rounds(evaluate_agnostic))

    return activate


@pytest.fixture
def fresh_plan_search(monkeypatch):
    """Switch the word-length search to fresh plans.

    Calling the returned function makes every evaluation of the
    optimizer — its uniform search's and its greedy rounds' — run on a
    freshly compiled plan of the graph it searches: no noise memo, kept
    row or response cache carries over from one evaluation to the next.
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
