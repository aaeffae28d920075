"""Unit coverage of the perf-regression harness (:mod:`repro.bench`).

The CLI smoke tests drive one bench end to end; this suite pins the
pieces individually — schema writer/loader, registry filtering, the
baseline comparison rules (missing measurements, unknown benchmarks)
and each registered benchmark on a reduced workload, including the
bitwise-identity guard that refuses to report a speedup for a kernel
that drifted and the guard that refuses one for a timed simulation that
ran no bit-true leg.
"""

import functools
import json

import numpy as np
import pytest

from repro.bench import (
    BENCH_SCHEMA,
    bench_entries,
    bench_incremental_reeval,
    bench_payload,
    bench_sim_engine_ff,
    bench_sim_engine_iir,
    bench_welch_psd,
    check_against_baseline,
    load_baseline,
    load_bench_json,
    missing_baseline_entries,
    required_floor,
    write_bench_json,
)


class TestSchema:
    def test_payload_round_trip(self, tmp_path):
        payload = bench_payload(
            "demo", workload={"samples": 8}, seconds={"a": 1.5},
            speedup={"x": 2.0}, tags=("t2", "t1"), mode="reduced")
        path = write_bench_json(tmp_path, payload)
        assert path.name == "BENCH_demo.json"
        loaded = load_bench_json(path)
        assert loaded == payload
        assert loaded["tags"] == ["t1", "t2"]
        assert loaded["schema"] == BENCH_SCHEMA

    def test_unsupported_schema_rejected(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps({"schema": 99, "name": "bad"}))
        with pytest.raises(ValueError, match="unsupported bench schema"):
            load_bench_json(path)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"schema": 99}))
        with pytest.raises(ValueError, match="unsupported baseline schema"):
            load_baseline(baseline)


class TestRegistry:
    def test_every_entry_is_tagged_and_described(self):
        entries = bench_entries()
        assert {entry.name for entry in entries} >= {
            "sim_engine_ff", "sim_engine_iir", "welch_psd",
            "incremental_reeval"}
        for entry in entries:
            assert entry.tags and entry.description

    def test_tag_and_name_filters(self):
        assert all("sim" in entry.tags
                   for entry in bench_entries(tags=["sim"]))
        only = bench_entries(names=["welch_psd"])
        assert [entry.name for entry in only] == ["welch_psd"]
        with pytest.raises(ValueError, match="unknown benchmark"):
            bench_entries(names=["nope"])


class TestBaselineComparison:
    def test_pass_fail_and_missing_measurement(self):
        payloads = [bench_payload("b1", workload={}, seconds={},
                                  speedup={"k": 3.0})]
        baseline = {"schema": 1, "floors": {"b1": {"k": 2.0}}}
        assert check_against_baseline(payloads, baseline) == []
        baseline["floors"]["b1"]["k"] = 4.0
        assert len(check_against_baseline(payloads, baseline)) == 1
        baseline["floors"]["b1"] = {"other": 1.0}
        regressions = check_against_baseline(payloads, baseline)
        assert regressions and "no measurement" in regressions[0]

    def test_unselected_registered_bench_is_not_a_regression(self):
        payloads = [bench_payload("b1", workload={}, seconds={},
                                  speedup={"k": 3.0})]
        baseline = {"schema": 1,
                    "floors": {"welch_psd": {"welch": 99.0}}}
        assert check_against_baseline(payloads, baseline) == []

    def test_unknown_baseline_name_is_a_regression(self):
        # A floor whose benchmark no longer exists in the registry would
        # otherwise never be evaluated again — that must fail loudly.
        payloads = [bench_payload("b1", workload={}, seconds={},
                                  speedup={"k": 3.0})]
        baseline = {"schema": 1, "floors": {"renamed_bench": {"k": 1.0}}}
        regressions = check_against_baseline(payloads, baseline)
        assert regressions and "unknown benchmark" in regressions[0]


class TestBaselineGating:
    """Floors must exist before a bench may gate on them."""

    def test_required_floor_returns_committed_value(self):
        baseline = {"schema": 1, "floors": {"b1": {"k": 2.5}}}
        assert required_floor(baseline, "b1", "k") == 2.5

    def test_required_floor_names_the_missing_key(self, tmp_path):
        baseline = {"schema": 1, "floors": {"b1": {"k": 2.5}}}
        path = tmp_path / "baseline.json"
        with pytest.raises(ValueError, match=r"floors\.b1\.other"):
            required_floor(baseline, "b1", "other", path)
        with pytest.raises(ValueError) as excinfo:
            required_floor(baseline, "b2", "k", path)
        assert str(path) in str(excinfo.value)
        assert "floors.b2.k" in str(excinfo.value)

    def test_missing_baseline_entries_flags_unfloored_speedups(self):
        payloads = [
            bench_payload("floored", workload={}, seconds={},
                          speedup={"k": 3.0}),
            bench_payload("unfloored_b", workload={}, seconds={},
                          speedup={"k": 3.0}),
            bench_payload("unfloored_a", workload={}, seconds={},
                          speedup={"k": 3.0}),
            bench_payload("timing_only", workload={}, seconds={"k": 0.1}),
        ]
        baseline = {"schema": 1, "floors": {"floored": {"k": 1.0}}}
        # Sorted, speedup-less payloads excluded, floored payloads excluded.
        assert missing_baseline_entries(payloads, baseline) == [
            "unfloored_a", "unfloored_b"]
        baseline["floors"]["unfloored_a"] = {"k": 1.0}
        baseline["floors"]["unfloored_b"] = {"k": 1.0}
        assert missing_baseline_entries(payloads, baseline) == []

    def test_committed_baseline_covers_incremental_reeval(self):
        # The acceptance floor of the incremental re-evaluation work must
        # stay committed: 5x per greedy candidate.
        from pathlib import Path

        path = Path(__file__).parent.parent / "benchmarks" / \
            "bench_baseline.json"
        baseline = load_baseline(path)
        assert required_floor(baseline, "incremental_reeval",
                              "per_candidate") >= 5.0


class TestRegisteredBenches:
    @pytest.mark.parametrize("function, key", [
        (bench_sim_engine_ff, "bit_true_simulation"),
        (bench_sim_engine_iir, "single_stream"),
        (bench_welch_psd, "welch"),
        (functools.partial(bench_incremental_reeval, branches=8,
                           candidates=4, n_psd=128), "per_candidate"),
    ])
    def test_reduced_workload_produces_valid_payload(self, function, key):
        payload = function(samples=2000)
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["speedup"][key] > 0.0
        assert all(value >= 0.0 for value in payload["seconds"].values())

    def test_bitwise_guard_refuses_broken_kernels(self, monkeypatch):
        from repro.sfg import nodes

        original = nodes.iir_df1_fixed

        def drifting(*args):
            # The default kernel drifts by one tiny offset; the oracle's
            # reference loop stays exact.
            return original(*args) + 2.0 ** -40

        monkeypatch.setattr(nodes, "iir_df1_fixed", drifting)
        with pytest.raises(RuntimeError, match="not bitwise identical"):
            bench_sim_engine_iir(samples=1000)

    @pytest.mark.parametrize("function", [bench_sim_engine_ff,
                                          bench_sim_engine_iir])
    def test_fixed_run_guard_refuses_memo_hits(self, monkeypatch, function):
        # An evaluator that measures on the graph's cached plan, whatever
        # plan it is handed, times the warm-up's plan again: its
        # last-measurement memo serves the call and no bit-true leg runs.
        from repro.analysis import simulation_method

        class CachedPlanEvaluator(simulation_method.SimulationEvaluator):
            def __init__(self, system):
                super().__init__(getattr(system, "graph", system))

        monkeypatch.setattr(simulation_method, "SimulationEvaluator",
                            CachedPlanEvaluator)
        with pytest.raises(RuntimeError, match="ran no bit-true plan run"):
            function(samples=1000)

    def test_fixed_runs_count_in_the_active_session(self):
        from repro.obs import observe

        with observe(trace=False) as session:
            bench_sim_engine_ff(samples=1000)
        # A warm-up and a timed call of the default path; the oracle
        # side runs the legacy loops, not the plan.
        assert session.metrics.counter("plan.runs", mode="fixed").value == 2


class TestBitwiseGuard:
    """``_require_bitwise`` compares bytes, not values."""

    @pytest.mark.parametrize("reference, optimized", [
        (np.array([0.0]), np.array([-0.0])),
        (np.array([1.0, 2.0]), np.array([1.0, 2.0], dtype=np.float32)),
        (np.array([1, 2]), np.array([1.0, 2.0])),
        (np.array([1.0, 2.0]), np.array([[1.0, 2.0]])),
        (np.array([1.0, 2.0]), np.array([1.0, np.nextafter(2.0, 3.0)])),
    ], ids=["signed-zero", "float32", "int-vs-float", "shape", "one-ulp"])
    def test_raises_on_any_difference(self, reference, optimized):
        from repro.bench import _require_bitwise

        # np.array_equal accepts the first three pairs.
        with pytest.raises(RuntimeError, match="not bitwise identical"):
            _require_bitwise("demo", reference, optimized)

    def test_passes_on_identical_bits(self):
        from repro.bench import _require_bitwise

        values = np.array([0.0, -0.0, 1.5, np.nan, -np.inf])
        _require_bitwise("demo", values, values.copy())
        _require_bitwise("demo", [0.25, -0.0], [0.25, -0.0])
