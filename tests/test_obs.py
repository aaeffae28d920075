"""The observability layer: registry, spans, exporters, CLI, campaign.

Covers the contract the instrumentation relies on:

* label-keyed instruments, snapshot/merge (worker hand-off), flat export;
* span nesting and the shared no-op fast path when observability is off
  (zero allocation, bitwise-identical evaluation results);
* Chrome trace-event export, the trace summarizer and its coverage
  figure;
* the global ``--trace`` / ``--metrics`` CLI flags, the ``obs``
  subcommand, and ``bench --json``;
* the acceptance property: a traced campaign's
  ``campaign.cache.hits`` / ``misses`` metrics equal the counts the
  runner itself reports, and the trace covers (nearly) the whole run.
"""

import json
import logging
import os

import numpy as np
import pytest

from repro import obs
from repro.campaign import CampaignSpec, ScenarioSpec, StimulusSpec, run_campaign
from repro.cli import main
from repro.obs import (
    MetricsRegistry,
    format_metric_name,
    metric_inc,
    span,
)
from repro.obs.export import (
    chrome_trace,
    load_metrics,
    load_trace,
    metrics_table,
    summarize_trace,
    write_metrics,
    write_trace,
)
from repro.obs.trace import NOOP_SPAN, Span, TraceCollector


@pytest.fixture(autouse=True)
def _no_leaked_session():
    """Every test starts and ends with observability disabled."""
    assert obs.current() is None
    yield
    assert obs.current() is None


def _campaign_spec(**overrides):
    settings = dict(
        scenarios=(ScenarioSpec("polyphase_decimator",
                                {"factor": 2, "taps": 8}),),
        methods=("psd", "agnostic"),
        wordlengths=(8, 12),
        n_psd=64,
        stimulus=StimulusSpec(num_samples=1_000, discard_transient=32),
        seed=5)
    settings.update(overrides)
    return CampaignSpec(**settings)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_identity_is_name_plus_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("plan.runs", mode="fixed")
        b = registry.counter("plan.runs", mode="fixed")
        c = registry.counter("plan.runs", mode="double")
        assert a is b and a is not c
        a.inc()
        a.inc(2)
        assert registry.count_of("plan.runs", mode="fixed") == 3
        assert registry.count_of("plan.runs", mode="double") == 0

    def test_counter_rejects_negative_increment(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_gauge_keeps_the_last_value(self):
        registry = MetricsRegistry()
        registry.gauge("campaign.elapsed_seconds").set(1.5)
        registry.gauge("campaign.elapsed_seconds").set(2.5)
        assert registry.gauge("campaign.elapsed_seconds").value == 2.5

    def test_snapshot_merge_accumulates_counters(self):
        worker = MetricsRegistry()
        worker.counter("memo.full_walks").inc(2)
        worker.counter("plan.runs", mode="error").inc(4)
        worker.gauge("campaign.elapsed_seconds").set(9.0)

        driver = MetricsRegistry()
        driver.counter("memo.full_walks").inc(1)
        driver.merge(worker.snapshot())

        assert driver.count_of("memo.full_walks") == 3
        assert driver.count_of("plan.runs", mode="error") == 4
        assert driver.gauge("campaign.elapsed_seconds").value == 9.0

    def test_flattened_formats_labels(self):
        registry = MetricsRegistry()
        registry.counter("campaign.cache.lookups", result="hit").inc(7)
        registry.counter("plain").inc()
        flat = registry.flattened()
        assert flat["campaign.cache.lookups{result=hit}"] == 7
        assert flat["plain"] == 1
        assert format_metric_name("a", ()) == "a"
        assert format_metric_name("a", (("k", "v"), ("l", "w"))) == "a{k=v,l=w}"


# ----------------------------------------------------------------------
# Spans and session state
# ----------------------------------------------------------------------
class TestSpans:
    def test_disabled_span_is_the_shared_noop(self):
        assert span("anything", attr=1) is NOOP_SPAN
        assert span("other") is NOOP_SPAN
        with span("still.noop") as handle:
            handle.set(extra=2)  # must be accepted and dropped

    def test_disabled_metric_helpers_are_noops(self):
        metric_inc("x")
        assert obs.current() is None

    def test_observe_collects_nested_spans(self):
        with obs.observe() as session:
            with span("outer", kind="test") as outer:
                outer.set(discovered=True)
                with span("inner"):
                    pass
            metric_inc("events", 2, kind="test")
        spans = {entry["name"]: entry for entry in session.trace.snapshot()}
        assert spans["outer"]["depth"] == 0
        assert spans["inner"]["depth"] == 1
        assert spans["outer"]["attrs"] == {"kind": "test", "discovered": True}
        assert spans["outer"]["pid"] == os.getpid()
        assert session.metrics.count_of("events", kind="test") == 2
        assert obs.current() is None  # restored on exit

    def test_observe_restores_previous_session(self):
        with obs.observe() as outer_session:
            with obs.observe() as inner_session:
                assert obs.current() is inner_session
            assert obs.current() is outer_session
        assert obs.current() is None

    def test_record_span_depth_offset(self):
        with obs.observe() as session:
            with span("method"):
                obs.record_span("job", 100.0, 0.5, depth_offset=1, key="k1")
        by_name = {entry["name"]: entry for entry in session.trace.snapshot()}
        # the open "method" span counts itself in current_depth (1), and
        # the offset nests the job one further level below it
        assert by_name["method"]["depth"] == 0
        assert by_name["job"]["depth"] == 2
        assert by_name["job"]["attrs"]["key"] == "k1"
        assert by_name["job"]["ts"] == 100.0
        assert by_name["job"]["dur"] == 0.5

    def test_ingest_merges_foreign_spans(self):
        foreign = [Span("worker.span", ts=1.0, dur=0.25, depth=0,
                        pid=99999, tid=1, attrs={"a": 1}).to_dict()]
        with obs.observe() as session:
            obs.ingest_spans(foreign)
        merged = session.trace.snapshot()
        assert merged[0]["pid"] == 99999
        assert merged[0]["name"] == "worker.span"

    def test_span_dict_round_trip_fills_defaults(self):
        """Workers ship spans as dicts; the driver rebuilds them, and a
        minimal payload takes the top-level, attribute-free defaults."""
        shipped = Span("worker.span", ts=1.0, dur=0.25, depth=2, pid=7,
                       tid=3, attrs={"key": "k1"})
        assert Span.from_dict(shipped.to_dict()) == shipped
        minimal = Span.from_dict({"name": "bare", "ts": 2.0, "dur": 0.5})
        assert (minimal.depth, minimal.pid, minimal.tid, minimal.attrs) \
            == (0, 0, 0, {})

    def test_tracing_off_metrics_only_session(self):
        with obs.observe(trace=False) as session:
            assert obs.enabled()
            assert not obs.tracing()
            assert span("x") is NOOP_SPAN
            obs.record_span("y", 0.0, 1.0)  # must not blow up
            metric_inc("counted")
        assert session.trace is None
        assert session.metrics.count_of("counted") == 1


# ----------------------------------------------------------------------
# The no-op fast path
# ----------------------------------------------------------------------
class TestNoopFastPath:
    def test_disabled_run_leaves_no_global_state(self):
        from repro.analysis.psd_method import evaluate_psd
        from repro.campaign import build_scenario
        from repro.sfg.plan import compile_plan

        instance = build_scenario("polyphase_decimator",
                                  {"factor": 2, "taps": 8})
        plan = compile_plan(instance.graph)
        assert obs.current() is None
        evaluate_psd(plan, 64)
        assert obs.current() is None  # nothing sprang into existence

    def test_results_bitwise_identical_with_and_without_obs(self):
        from repro.analysis.psd_method import evaluate_psd
        from repro.campaign import build_scenario
        from repro.sfg.plan import compile_plan

        def run_once():
            instance = build_scenario("polyphase_decimator",
                                      {"factor": 2, "taps": 8})
            plan = compile_plan(instance.graph)
            psd = evaluate_psd(plan, 64)
            return psd.total_power, psd.mean, psd.variance

        baseline = run_once()
        with obs.observe() as session:
            observed = run_once()
        assert baseline == observed  # bitwise: same floats either way
        assert session.trace.snapshot()  # ... and the run left spans

    def test_instrumented_counters_exact_without_session(self):
        # NoiseMemo's registry-backed counters work with obs disabled.
        from repro.analysis._engine import plan_memo
        from repro.analysis.psd_method import evaluate_psd
        from repro.campaign import build_scenario
        from repro.sfg.plan import compile_plan

        instance = build_scenario("polyphase_decimator",
                                  {"factor": 2, "taps": 8})
        plan = compile_plan(instance.graph)
        evaluate_psd(plan, 64)
        memo = plan_memo(plan)
        assert memo.full_walks >= 1
        assert memo.metrics.count_of("memo.full_walks") == memo.full_walks


# ----------------------------------------------------------------------
# Plan runs
# ----------------------------------------------------------------------
class TestPlanRunInstrumentation:
    """Every run walks the plan, so a run is labelled by its mode only."""

    def _plan_and_stimulus(self):
        from repro.campaign import build_scenario
        from repro.sfg.plan import compile_plan

        plan = compile_plan(build_scenario("table1_iir").graph)
        return plan, {name: np.linspace(-0.5, 0.5, 512)
                      for name in plan.input_names}

    def test_runs_counted_by_mode(self):
        plan, stimulus = self._plan_and_stimulus()
        with obs.observe(trace=False) as session:
            plan.run(stimulus, mode="fixed")
            plan.run(stimulus, mode="double")
            plan.run_pair(stimulus)
        flat = session.metrics.flattened()
        runs = {name: value for name, value in flat.items()
                if name.startswith("plan.runs")}
        assert runs == {"plan.runs{mode=double}": 2,
                        "plan.runs{mode=fixed}": 2}
        assert not any(name.startswith("tape.") for name in flat)

    def test_run_span_carries_the_mode_only(self):
        plan, stimulus = self._plan_and_stimulus()
        with obs.observe() as session:
            plan.run(stimulus, mode="fixed")
        spans = session.trace.snapshot()
        assert [entry["attrs"] for entry in spans
                if entry["name"] == "plan.run"] == [{"mode": "fixed"}]
        assert not any(entry["name"].startswith("tape.") for entry in spans)


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def _sample_spans():
    return [
        Span("cli.campaign", ts=10.0, dur=1.0, depth=0, pid=1, tid=1).to_dict(),
        Span("campaign.job", ts=10.1, dur=0.4, depth=1, pid=1, tid=1,
             attrs={"cached": True}).to_dict(),
        Span("campaign.job", ts=10.5, dur=0.4, depth=1, pid=2, tid=2,
             attrs={"cached": False}).to_dict(),
    ]


def _coverage(document) -> float:
    """Top-level coverage as the ``summarize_trace`` footer prints it."""
    footer = next(line for line in summarize_trace(document).splitlines()
                  if "top-level coverage:" in line)
    return float(footer.rsplit(" ", 1)[1].rstrip("%")) / 100.0


class TestExport:
    def test_chrome_trace_structure(self):
        document = chrome_trace(_sample_spans(), origin=10.0)
        events = document["traceEvents"]
        assert [event["name"] for event in events] == [
            "cli.campaign", "campaign.job", "campaign.job"]
        root = events[0]
        assert root["ph"] == "X"
        assert root["ts"] == 0.0          # normalised to the origin
        assert root["dur"] == pytest.approx(1e6)  # microseconds
        assert root["args"]["depth"] == 0
        assert events[1]["args"]["cached"] is True
        assert {event["pid"] for event in events} == {1, 2}
        assert document["otherData"]["origin"] == 10.0

    def test_write_and_load_roundtrip(self, tmp_path):
        with obs.observe() as session:
            with span("root"):
                pass
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        session.metrics.counter("events").inc(3)
        write_trace(str(trace_path), session)
        write_metrics(str(metrics_path), session)
        document = load_trace(str(trace_path))
        assert document["traceEvents"][0]["name"] == "root"
        snapshot = load_metrics(str(metrics_path))
        assert snapshot["metrics"]["events"] == 3

    def test_load_trace_rejects_non_trace_json(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="traceEvents"):
            load_trace(str(path))
        with pytest.raises(ValueError, match="metrics"):
            load_metrics(str(path))

    def test_summarize_trace_reports_coverage_and_cache_ratio(self):
        document = chrome_trace(_sample_spans(), origin=10.0)
        summary = summarize_trace(document)
        assert "cli.campaign" in summary
        assert "campaign jobs: 2  cached: 1 (50.0%)" in summary
        # root span covers 1.0s of a 1.0s extent
        assert "top-level coverage: 100.0%" in summary
        assert summarize_trace({"traceEvents": []}) == "(empty trace)"

    def test_summarize_trace_top_limits_rows(self):
        document = chrome_trace(_sample_spans(), origin=10.0)
        limited = summarize_trace(document, top=1)
        # campaign.job (0.8s total) outranks cli.campaign's 1.0s? No:
        # cli.campaign total 1.0 > 0.8, so it is the surviving row.
        assert "cli.campaign" in limited.splitlines()[2]

    def test_metrics_table_renders_all_kinds(self):
        registry = MetricsRegistry()
        registry.counter("hits", result="hit").inc(2)
        registry.gauge("elapsed").set(1.25)
        rendered = metrics_table(registry.flattened())
        assert "hits{result=hit}" in rendered
        assert "1.25" in rendered
        assert metrics_table({}) == "(no metrics recorded)"


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestCli:
    def test_trace_and_metrics_flags_write_files(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        status = main(["campaign",
                       "--scenarios", "polyphase_decimator:factor=2,taps=8",
                       "--methods", "psd", "--wordlengths", "8", "12",
                       "--samples", "1000", "--n-psd", "64",
                       "--trace", str(trace_path),
                       "--metrics", str(metrics_path)])
        assert status == 0
        out = capsys.readouterr().out
        assert f"wrote {trace_path}" in out
        assert f"wrote {metrics_path}" in out

        document = load_trace(str(trace_path))
        names = {event["name"] for event in document["traceEvents"]}
        assert "cli.campaign" in names
        assert "campaign.run" in names
        assert "campaign.job" in names
        # the root CLI span keeps coverage at (essentially) 100%
        assert _coverage(document) >= 0.95

        metrics = load_metrics(str(metrics_path))["metrics"]
        assert metrics["campaign.cache.misses"] == 2
        assert metrics["campaign.cache.hits"] == 0
        assert obs.current() is None  # session torn down after the command

    def test_metrics_flag_alone_skips_tracing(self, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        status = main(["evaluate", "--metrics", str(metrics_path),
                       str(_write_example_system(tmp_path))])
        assert status == 0
        metrics = load_metrics(str(metrics_path))["metrics"]
        assert metrics.get("memo.full_walks", 0) >= 1
        assert not (tmp_path / "trace.json").exists()

    def test_obs_subcommand_summarizes(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        with obs.observe() as session:
            with span("cli.demo"):
                metric_inc("demo.events", 3)
        write_trace(str(trace_path), session)
        write_metrics(str(metrics_path), session)

        status = main(["obs", str(trace_path),
                       "--metrics-file", str(metrics_path)])
        assert status == 0
        out = capsys.readouterr().out
        assert "cli.demo" in out
        assert "top-level coverage" in out
        assert "demo.events" in out

    def test_obs_subcommand_rejects_garbage(self, tmp_path, capsys):
        path = tmp_path / "not_a_trace.json"
        path.write_text("{}")
        status = main(["obs", str(path)])
        assert status == 1
        assert "traceEvents" in capsys.readouterr().err

    def test_default_output_unchanged_without_flags(self, tmp_path, capsys):
        system = _write_example_system(tmp_path)
        assert main(["evaluate", str(system)]) == 0
        first = capsys.readouterr().out
        assert main(["evaluate", str(system)]) == 0
        second = capsys.readouterr().out
        assert "wrote" not in first
        assert first.splitlines()[0] == second.splitlines()[0]


def _write_example_system(tmp_path):
    from repro.campaign import build_scenario
    from repro.sfg.serialization import save_graph

    instance = build_scenario("polyphase_decimator", {"factor": 2, "taps": 8})
    path = tmp_path / "system.json"
    save_graph(instance.graph, path)
    return path


# ----------------------------------------------------------------------
# bench --json
# ----------------------------------------------------------------------
class TestBenchJson:
    def test_baseline_diff_rows(self):
        from repro.bench import baseline_diff

        payloads = [{"name": "sim_engine_ff",
                     "speedup": {"bit_true_simulation": 2.4}}]
        baseline = {"floors": {
            "sim_engine_ff": {"bit_true_simulation": 1.2},
            "unmeasured_bench": {"key": 9.0},
        }}
        rows = baseline_diff(payloads, baseline)
        assert rows == [{"name": "sim_engine_ff",
                         "key": "bit_true_simulation",
                         "floor": 1.2, "measured": 2.4,
                         "margin": pytest.approx(2.0), "ok": True}]

    def test_baseline_diff_flags_shortfall_and_missing_measurement(self):
        from repro.bench import baseline_diff

        payloads = [{"name": "sim_engine_iir",
                     "speedup": {"single_stream": 0.5}}]
        baseline = {"floors": {"sim_engine_iir": {
            "single_stream": 1.5, "batched_64": 1.05}}}
        rows = {row["key"]: row for row in baseline_diff(payloads, baseline)}
        assert rows["single_stream"]["ok"] is False
        assert rows["single_stream"]["margin"] == pytest.approx(1 / 3)
        missing = rows["batched_64"]
        assert missing["measured"] is None
        assert missing["margin"] is None
        assert missing["ok"] is False

    def test_cli_bench_json_emits_payloads(self, tmp_path, capsys):
        status = main(["bench", "--names", "welch_psd",
                       "--samples", "20000",
                       "--results", str(tmp_path / "results"), "--json"])
        assert status == 0
        document = json.loads(capsys.readouterr().out)
        assert document["checked"] is False
        (payload,) = document["payloads"]
        assert payload["name"] == "welch_psd"
        assert "warmup_s" in payload

    def test_cli_bench_check_json_includes_diff(self, tmp_path, capsys):
        status = main(["bench", "--names", "welch_psd",
                       "--samples", "20000",
                       "--results", str(tmp_path / "results"),
                       "--check", "--json"])
        document = json.loads(capsys.readouterr().out)
        assert document["checked"] is True
        assert document["missing_baseline"] == []
        keys = {row["key"] for row in document["diff"]
                if row["name"] == "welch_psd"}
        assert keys == {"welch", "welch_batched"}
        for row in document["diff"]:
            assert row["margin"] == pytest.approx(
                row["measured"] / row["floor"])
        assert document["ok"] == (status == 0)
        assert document["ok"] == (not document["regressions"])


# ----------------------------------------------------------------------
# Campaign acceptance: metrics equal the runner's own accounting
# ----------------------------------------------------------------------
class TestCampaignObservability:
    def test_metrics_match_runner_counts_cold_and_warm(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with obs.observe() as cold_session:
            cold = run_campaign(_campaign_spec(), cache_dir=cache_dir)
        cold_metrics = cold_session.metrics
        assert cold_metrics.count_of("campaign.cache.hits") == cold.cache_hits
        assert cold_metrics.count_of("campaign.cache.misses") == cold.computed
        assert (cold_metrics.count_of("campaign.jobs.skipped")
                == cold.skipped_unsupported)
        assert cold.computed == 4  # 2 methods x 2 wordlengths

        with obs.observe() as warm_session:
            warm = run_campaign(_campaign_spec(), cache_dir=cache_dir)
        warm_metrics = warm_session.metrics
        assert warm.cache_hits == 4 and warm.computed == 0
        assert warm_metrics.count_of("campaign.cache.hits") == 4
        assert warm_metrics.count_of("campaign.cache.misses") == 0
        # the store-level lookup counters agree with the job-level view
        assert warm_metrics.count_of("campaign.cache.lookups",
                                     result="hit") == 4

    def test_every_job_leaves_a_span(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with obs.observe() as session:
            result = run_campaign(_campaign_spec(), cache_dir=cache_dir)
        jobs = [entry for entry in session.trace.snapshot()
                if entry["name"] == "campaign.job"]
        assert len(jobs) == result.total_jobs
        assert all(entry["attrs"]["cached"] is False for entry in jobs)

        with obs.observe() as warm:
            run_campaign(_campaign_spec(), cache_dir=cache_dir)
        warm_jobs = [entry for entry in warm.trace.snapshot()
                     if entry["name"] == "campaign.job"]
        assert len(warm_jobs) == 4
        assert all(entry["attrs"]["cached"] is True for entry in warm_jobs)

    def test_campaign_run_span_covers_the_trace(self, tmp_path):
        with obs.observe() as session:
            run_campaign(_campaign_spec(), cache_dir=tmp_path / "cache")
        document = chrome_trace(session.trace.snapshot(), session.origin)
        assert _coverage(document) >= 0.95

    def test_pool_workers_ship_spans_and_metrics(self, tmp_path):
        spec = _campaign_spec(
            scenarios=(ScenarioSpec("polyphase_decimator",
                                    {"factor": 2, "taps": 8}),
                       ScenarioSpec("interpolator_chain", {"taps": 7})),
            methods=("psd",))
        with obs.observe() as session:
            result = run_campaign(spec, cache_dir=None, workers=2)
        spans = session.trace.snapshot()
        jobs = [entry for entry in spans if entry["name"] == "campaign.job"]
        assert len(jobs) == result.total_jobs == 4
        payload_pids = {entry["pid"] for entry in spans
                        if entry["name"] == "campaign.payload"}
        assert payload_pids  # worker spans made it home
        assert session.metrics.count_of("campaign.cache.misses") == 4
        # worker-side memo counters merged into the driver session
        assert session.metrics.count_of("memo.full_walks") >= 1

    def test_finish_line_log(self, caplog, tmp_path):
        with caplog.at_level(logging.INFO, logger="repro.campaign.runner"):
            result = run_campaign(_campaign_spec(),
                                  cache_dir=tmp_path / "cache")
        records = [record for record in caplog.records
                   if record.name == "repro.campaign.runner"
                   and "campaign finished" in record.getMessage()]
        assert len(records) == 1
        message = records[0].getMessage()
        assert f"{result.total_jobs} jobs" in message
        assert f"{result.computed} computed" in message
