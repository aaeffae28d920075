"""Differential verification harness and fuzz driver.

The harness itself is test infrastructure, so these tests check it both
ways: that it *passes* on systems known to be consistent (random graphs,
an existing scenario family) and that it *fails loudly and usefully* —
shrinking to the simplest reproducing case and dumping loadable
artifacts — when a failure is injected.
"""

import numpy as np
import pytest

from repro.campaign import build_scenario
from repro.sfg.builder import SfgBuilder
from repro.sfg.serialization import load_graph
from repro.systems.random_graphs import build_random_graph
from repro.verify import (
    CHECK_NAMES,
    CheckResult,
    FuzzCase,
    GraphVerdict,
    run_fuzz,
    shrink_failure,
    verify_graph,
)

# Fast harness settings shared by the passing-path tests.
FAST = dict(n_psd=96, samples=1152, ed_samples=4608, discard_transient=256,
            batch_configs=2)


class TestVerifyGraphPasses:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs_pass_all_checks(self, seed):
        graph = build_random_graph(seed, blocks=6, factors=(2,))
        verdict = verify_graph(graph, seed=seed, **FAST)
        assert verdict.passed, verdict.describe()
        assert [check.name for check in verdict.checks] == list(CHECK_NAMES)

    def test_scenario_family_passes(self):
        graph = build_scenario("polyphase_decimator",
                               {"taps": 16, "factor": 2}).graph
        verdict = verify_graph(graph, seed=3, **FAST)
        assert verdict.passed, verdict.describe()

    def test_verdict_is_deterministic(self):
        graph = build_random_graph(2, blocks=6, factors=(2,))
        first = verify_graph(graph, seed=2, **FAST)
        second = verify_graph(graph, seed=2, **FAST)
        assert first.describe() == second.describe()

    def test_check_subset_and_validation(self):
        graph = build_random_graph(1, blocks=4, factors=(2,))
        verdict = verify_graph(graph, seed=1, checks=("round_trip",),
                               **FAST)
        assert [check.name for check in verdict.checks] == ["round_trip"]
        with pytest.raises(ValueError, match="unknown check"):
            verify_graph(graph, checks=("bogus",))


class TestVerifyGraphFails:
    def test_engine_crash_is_a_check_failure_not_a_crash(self):
        # A multirate graph with an n_psd that the folding cannot divide:
        # the PSD engines raise, and the harness must fold that into the
        # affected checks instead of propagating.
        builder = SfgBuilder("odd-rate")
        x = builder.input("x", fractional_bits=10)
        down = builder.downsample("down", x, factor=3)
        builder.output("y", down)
        graph = builder.build()
        verdict = verify_graph(graph, n_psd=128, samples=1152,
                               ed_samples=1152, discard_transient=64)
        failed = {check.name for check in verdict.failures}
        assert "plan_vs_legacy" in failed
        assert "divisible" in " ".join(check.detail
                                       for check in verdict.failures)

    def test_plan_compilation_crash_fails_every_check(self, monkeypatch):
        # A regression that breaks compilation itself must become a
        # per-graph failure (so a fuzz run keeps going), not a crash.
        from repro.verify import differential

        def broken_compile(graph):
            raise RuntimeError("injected compiler bug")

        monkeypatch.setattr(differential, "compile_plan", broken_compile)
        graph = build_random_graph(0, blocks=3, factors=(2,))
        verdict = verify_graph(graph, **FAST)
        assert not verdict.passed
        assert len(verdict.failures) == len(CHECK_NAMES)
        assert all("plan compilation failed" in check.detail
                   for check in verdict.failures)

    def test_backend_differing_in_signed_zeros_fails(self, monkeypatch):
        # Equal values, different bytes: a default IIR kernel that writes
        # -0.0 where the oracle's reference loop writes +0.0 is a failure.
        from repro.sfg import nodes

        exact = nodes.iir_df1_fixed

        def negative_zeros(*args):
            y = exact(*args)
            return np.where(y == 0.0, -0.0, y)

        monkeypatch.setattr(nodes, "iir_df1_fixed", negative_zeros)
        builder = SfgBuilder("signed-zeros")
        x = builder.input("x", fractional_bits=10)
        builder.output("y", builder.iir("h", [0.01], [1.0, -0.5], x,
                                        fractional_bits=3,
                                        rounding="truncate"))
        graph = builder.build()
        verdict = verify_graph(graph, checks=("backend_equality",), **FAST)
        assert not verdict.passed
        assert "differs bitwise" in verdict.failures[0].detail

    def test_zero_noise_graph_fails_the_ed_check(self):
        # No quantizer anywhere: the simulation measures exactly zero
        # error power, which the Ed check must report as a failure
        # (rather than dividing by zero).
        builder = SfgBuilder("noiseless")
        x = builder.input("x")
        gain = builder.gain("g", 0.5, x)
        builder.output("y", gain)
        verdict = verify_graph(builder.build(), checks=("ed_band",),
                               **FAST)
        assert not verdict.passed
        assert "zero error power" in verdict.failures[0].detail


def _synthetic_verifier(threshold):
    """A verifier failing exactly when the graph has > threshold nodes."""
    def verifier(graph, seed=0, **_):
        verdict = GraphVerdict(graph_name=graph.name)
        passed = len(graph) <= threshold
        verdict.checks.append(CheckResult(
            "plan_vs_legacy", passed,
            "" if passed else f"synthetic: {len(graph)} nodes"))
        return verdict
    return verifier


class TestFuzzDriver:
    def test_all_passing_run(self):
        report = run_fuzz(range(3), blocks=4, multirate=False, **FAST)
        assert report.passed
        assert report.cases == 3
        assert "all passed" in report.describe()

    def test_failure_is_shrunk_and_dumped(self, tmp_path):
        report = run_fuzz([5], blocks=8, artifacts_dir=tmp_path,
                          verifier=_synthetic_verifier(6))
        assert not report.passed
        (failure,) = report.failures
        # Shrunk to a strictly simpler configuration that still fails.
        assert failure.minimal.blocks < failure.case.blocks
        assert not _synthetic_verifier(6)(failure.minimal.build()).passed
        # The artifact pair exists and the graph loads back.
        graph_path, text_path = failure.artifacts
        rebuilt = load_graph(graph_path)
        assert rebuilt.name == failure.minimal.build().name
        text = (tmp_path / "seed5.txt").read_text()
        assert failure.minimal.command() in text
        assert "FAIL" in text

    def test_reported_command_reproduces_the_failure(self):
        report = run_fuzz([7], blocks=8, shrink=True,
                          verifier=_synthetic_verifier(5))
        minimal = report.failures[0].minimal
        # The command string encodes exactly the minimal case.
        expected = f"python -m repro.cli fuzz --seed 7 --count 1 " \
                   f"--blocks {minimal.blocks}"
        assert minimal.command().startswith(expected)
        # Rebuilding from the advertised knobs fails again.
        rebuilt = FuzzCase(7, blocks=minimal.blocks,
                           multirate=minimal.multirate)
        assert not _synthetic_verifier(5)(rebuilt.build()).passed

    def test_generator_crash_is_a_reported_failure(self, monkeypatch):
        # If graph *generation* raises for some seed, the run must record
        # that seed as failed and keep fuzzing the rest.
        from repro.verify import fuzz as fuzz_module

        real_build = fuzz_module.build_random_graph

        def flaky_build(seed, **kwargs):
            if seed == 1:
                raise RuntimeError("injected generator bug")
            return real_build(seed, **kwargs)

        monkeypatch.setattr(fuzz_module, "build_random_graph", flaky_build)
        report = run_fuzz(range(3), blocks=3, multirate=False, **FAST)
        assert report.cases == 3
        (failure,) = report.failures
        assert failure.case.seed == 1
        assert "generation failed" in failure.verdict.failures[0].detail

    def test_no_shrink_keeps_the_original_case(self):
        report = run_fuzz([5], blocks=8, shrink=False,
                          verifier=_synthetic_verifier(6))
        assert report.failures[0].minimal == report.failures[0].case

    def test_shrink_failure_returns_original_when_nothing_smaller_fails(self):
        # Fails only at exactly the original size: nothing smaller
        # reproduces, so the shrinker must hand back the original case.
        case = FuzzCase(3, blocks=4, multirate=False)
        original_nodes = len(case.build())
        verifier = _synthetic_verifier(original_nodes - 1)
        smaller_all_pass = all(
            verifier(FuzzCase(3, blocks=b, multirate=False).build()).passed
            for b in range(4))
        if smaller_all_pass:
            assert shrink_failure(case, verifier=verifier) == case


class TestLegacyShim:
    def test_legacy_reference_still_disagrees_with_broken_graphs(self):
        # Sanity: the reference is independent enough to catch a
        # mutation — quantization specs differing between two otherwise
        # identical graphs yield different legacy PSD walks.
        from repro.verify.legacy import legacy_psd
        coarse = build_random_graph(9, blocks=5, min_bits=8, max_bits=8)
        fine = build_random_graph(9, blocks=5, min_bits=12, max_bits=12)
        assert not np.array_equal(legacy_psd(coarse, 96).ac,
                                  legacy_psd(fine, 96).ac)
