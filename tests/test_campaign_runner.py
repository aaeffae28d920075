"""Runner, report and CLI coverage for the campaign subsystem."""

import csv
import json
import os
import subprocess
import sys
import textwrap
from concurrent.futures import Future

import numpy as np
import pytest

from repro import obs
from repro.analysis.psd_method import evaluate_psd
from repro.campaign import (
    CampaignReport,
    CampaignSpec,
    FaultInjector,
    ScenarioSpec,
    StimulusSpec,
    build_scenario,
    run_campaign,
    runner,
)
from repro.cli import build_parser, main
from repro.sfg.plan import compile_plan

VOLATILE = ("elapsed_seconds", "batched_with", "cached")


def _spec(**overrides):
    settings = dict(
        scenarios=(ScenarioSpec("polyphase_decimator",
                                {"factor": 2, "taps": 8}),
                   ScenarioSpec("interpolator_chain", {"taps": 7})),
        methods=("psd", "agnostic", "simulation"),
        wordlengths=(8, 12),
        n_psd=64,
        stimulus=StimulusSpec(num_samples=2_000, discard_transient=32),
        seed=9)
    settings.update(overrides)
    return CampaignSpec(**settings)


class TestRunner:
    def test_parallel_and_inline_runs_identical(self, tmp_path):
        inline = run_campaign(_spec(), cache_dir=None, workers=1)
        parallel = run_campaign(_spec(), cache_dir=None, workers=2)
        assert len(inline.records) == len(parallel.records)
        for a, b in zip(inline.records, parallel.records):
            assert a["key"] == b["key"]
            assert a["power"] == b["power"]
            assert a["mean"] == b["mean"]

    def test_batched_estimates_match_single_evaluation(self):
        result = run_campaign(_spec(methods=("psd",)), cache_dir=None)
        for record in result.records:
            instance = build_scenario(record["scenario"],
                                      record["params"])
            plan = compile_plan(instance.graph)
            assignment = {name: record["wordlength"]
                          for name, node in instance.graph.nodes.items()
                          if node.quantization.enabled}
            plan.requantize(assignment)
            expected = evaluate_psd(plan, 64).total_power
            assert record["power"] == expected
            assert record["batched_with"] == 2  # both wordlengths at once

    def test_flat_and_tracked_methods_run_end_to_end(self):
        """Every runner method branch executes and matches the direct
        single-config evaluation (flat / psd_tracked have no batched
        walk, so they take their own code path in the worker)."""
        from repro.analysis.flat_method import evaluate_flat
        from repro.analysis.psd_method import evaluate_psd_tracked

        spec = _spec(scenarios=(ScenarioSpec("table1_fir", {"taps": 8}),),
                     methods=("flat", "psd_tracked", "simulation"))
        result = run_campaign(spec, cache_dir=None)
        by_method = {}
        for record in result.records:
            by_method.setdefault(record["method"], []).append(record)
        assert len(by_method["flat"]) == len(by_method["psd_tracked"]) == 2
        instance = build_scenario("table1_fir", {"taps": 8})
        for record in by_method["flat"] + by_method["psd_tracked"]:
            plan = compile_plan(instance.graph)
            plan.requantize({name: record["wordlength"]
                             for name, node in instance.graph.nodes.items()
                             if node.quantization.enabled})
            if record["method"] == "flat":
                expected = evaluate_flat(plan).power
            else:
                expected = evaluate_psd_tracked(plan, 64).total_power
            assert record["power"] == expected

    def test_simulation_records_are_seed_reproducible(self):
        first = run_campaign(_spec(methods=("simulation",)), cache_dir=None)
        again = run_campaign(_spec(methods=("simulation",)), cache_dir=None)
        other = run_campaign(_spec(methods=("simulation",), seed=10),
                             cache_dir=None)
        for a, b in zip(first.records, again.records):
            assert a["power"] == b["power"]
        assert any(a["power"] != c["power"]
                   for a, c in zip(first.records, other.records))

    def test_jsonl_stream_written_incrementally(self, tmp_path):
        output = tmp_path / "stream.jsonl"
        result = run_campaign(_spec(), output_path=output)
        lines = output.read_text().splitlines()
        assert len(lines) == len(result.records)
        assert all(json.loads(line)["key"] for line in lines)

    def test_overlapping_scenario_entries_computed_once(self):
        # Regression: two scenario entries resolving to the same graph
        # (explicit params == defaults) expand to identical job keys;
        # the work must run once, with the duplicates served as hits.
        duplicated = _spec(scenarios=(
            ScenarioSpec("polyphase_decimator", {"factor": 2, "taps": 8}),
            ScenarioSpec("polyphase_decimator", {"taps": 8, "factor": 2})))
        single = _spec(scenarios=(
            ScenarioSpec("polyphase_decimator", {"factor": 2, "taps": 8}),))
        result = run_campaign(duplicated, cache_dir=None)
        assert len(result.records) == 2 * len(
            run_campaign(single, cache_dir=None).records)
        assert result.computed == len(result.records) // 2
        assert result.cache_hits == len(result.records) // 2

    def test_duplicate_jobs_keep_their_own_scenario_labels(self):
        # factor=2 and factor=2.0 build identical graphs (identical job
        # keys) but have distinct raw params, hence distinct signatures;
        # each entry's records must carry its own identity.
        spec = _spec(scenarios=(
            ScenarioSpec("polyphase_decimator", {"factor": 2, "taps": 8}),
            ScenarioSpec("polyphase_decimator",
                         {"factor": 2.0, "taps": 8})))
        result = run_campaign(spec, cache_dir=None)
        assert result.computed == len(result.records) // 2
        signatures = {record["signature"] for record in result.records}
        assert len(signatures) == 2
        for record in result.records[len(result.records) // 2:]:
            assert record["params"]["factor"] == 2.0
        # Ed still joins within each entry.
        report = CampaignReport(result.records)
        assert all(row["ed_percent"] is not None for row in report.rows()
                   if row["method"] == "psd")

    def test_cache_and_cache_dir_are_exclusive(self, tmp_path):
        from repro.campaign import ResultCache
        with pytest.raises(ValueError, match="not both"):
            run_campaign(_spec(), cache=ResultCache(None),
                         cache_dir=tmp_path)


class TestFaultPaths:
    """Failure paths of the supervisor outside the chaos harness (see
    test_campaign_faults.py for the injected-fault matrix)."""

    def test_persistently_raising_payload_quarantines_only_itself(
            self, monkeypatch):
        from repro.campaign import RetryPolicy, runner

        real = runner.execute_scenario_payload

        def poisoned(payload):
            if payload["scenario"] == "interpolator_chain":
                raise ValueError("broken scenario build")
            return real(payload)

        monkeypatch.setattr(runner, "execute_scenario_payload", poisoned)
        result = run_campaign(
            _spec(), cache_dir=None,
            retry_policy=RetryPolicy(max_attempts=2, backoff_base=0.0))
        by_scenario = {}
        for record in result.records:
            by_scenario.setdefault(record["scenario"], []).append(record)
        # The healthy scenario's records survived intact...
        healthy = by_scenario["polyphase_decimator"]
        assert all("power" in record for record in healthy)
        # ...and every job of the poisoned one was isolated (bisected
        # down to singles) and quarantined with the real error attached.
        poisoned_records = by_scenario["interpolator_chain"]
        assert all(record["status"] == "failed"
                   for record in poisoned_records)
        assert all(record["error_type"] == "ValueError"
                   for record in poisoned_records)
        assert result.failed == len(poisoned_records)
        assert result.computed == len(healthy)
        assert result.bisections >= 1

    def test_keyboard_interrupt_flushes_jsonl_tail(
            self, tmp_path, monkeypatch, caplog):
        from repro.campaign import runner

        real = runner.execute_scenario_payload
        completed = []

        def interrupted(payload):
            if completed:
                raise KeyboardInterrupt
            records = real(payload)
            completed.append(payload["scenario"])
            return records

        monkeypatch.setattr(runner, "execute_scenario_payload",
                            interrupted)
        output = tmp_path / "stream.jsonl"
        with caplog.at_level("WARNING", logger="repro.campaign.runner"):
            with pytest.raises(KeyboardInterrupt):
                run_campaign(_spec(), cache_dir=tmp_path / "cache",
                             output_path=output)
        # The first payload's records reached the stream before the
        # interrupt — the tail is flushed per record, nothing is lost.
        lines = [json.loads(line)
                 for line in output.read_text().splitlines()]
        assert lines and all(line["scenario"] == completed[0]
                             for line in lines)
        assert any("campaign interrupted" in message
                   for message in caplog.messages)
        # The partial run resumes: flushed records come back as hits.
        monkeypatch.setattr(runner, "execute_scenario_payload", real)
        resumed = run_campaign(_spec(), cache_dir=tmp_path / "cache",
                               output_path=output)
        assert resumed.cache_hits == len(lines)
        report = CampaignReport.from_jsonl(output)
        assert report.summary()["jobs"] == len(resumed.records)

    def test_resume_after_kill_inside_payload_under_chaos(self, tmp_path):
        """A driver killed *inside* a payload while chaos is armed:
        cache + JSONL converge on re-run and the records end up bitwise
        identical to a fault-free campaign."""
        cache_dir, output = tmp_path / "cache", tmp_path / "stream.jsonl"
        script = textwrap.dedent(f"""
            import os
            from repro.campaign import runner
            from repro.campaign import (CampaignSpec, FaultInjector,
                                        RetryPolicy, ScenarioSpec,
                                        StimulusSpec, run_campaign)

            real = runner.execute_scenario_payload
            completed = []

            def dying(payload):
                if completed:
                    os._exit(9)  # SIGKILL-grade death mid-payload
                records = real(payload)
                completed.append(payload["scenario"])
                return records

            runner.execute_scenario_payload = dying
            spec = CampaignSpec(
                scenarios=(ScenarioSpec("polyphase_decimator",
                                        {{"factor": 2, "taps": 8}}),
                           ScenarioSpec("interpolator_chain",
                                        {{"taps": 7}})),
                methods=("psd", "agnostic"), wordlengths=(8, 12),
                n_psd=64,
                stimulus=StimulusSpec(num_samples=2000,
                                      discard_transient=32),
                seed=9)
            run_campaign(
                spec, cache_dir={str(cache_dir)!r},
                output_path={str(output)!r},
                retry_policy=RetryPolicy(max_attempts=3, backoff_base=0.0,
                                         seed=9),
                fault_injector=FaultInjector(
                    seed=3, rate=0.4, kinds=("exception", "corrupt"),
                    permanent_rate=0.0))
        """)
        env = {**os.environ,
               "PYTHONPATH": str(pytest.importorskip("repro").__file__
                                 ).rsplit("/repro/", 1)[0]}
        process = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True)
        assert process.returncode == 9, process.stderr
        # The kill landed after the first payload: its records are on
        # disk (JSONL tail flushed, cache written record by record).
        lines = [json.loads(line)
                 for line in output.read_text().splitlines()]
        assert lines
        # The fault-free resume converges from what survived the kill:
        # flushed records return as cache hits (minus any the chaos
        # corrupt faults garbled — those heal into recomputed misses).
        resumed = run_campaign(_spec(), cache_dir=cache_dir,
                               output_path=output)
        assert resumed.failed == 0
        assert resumed.cache_hits >= 1
        clean = run_campaign(_spec(), cache_dir=None)
        volatile = ("elapsed_seconds", "batched_with", "cached",
                    "cache_schema")

        def stripped(record):
            return {key: value for key, value in record.items()
                    if key not in volatile}

        for a, b in zip(resumed.records, clean.records):
            assert stripped(a) == stripped(b)
        # JSONL (deduped, later record wins) agrees with the cache view.
        report = CampaignReport.from_jsonl(output)
        assert {r["key"] for r in report.records} \
            == {r["key"] for r in resumed.records}


class TestReport:
    def _report(self, tmp_path):
        result = run_campaign(_spec(), cache_dir=tmp_path / "cache")
        return CampaignReport(result.records), result

    def test_rows_join_ed_against_simulation(self, tmp_path):
        report, _ = self._report(tmp_path)
        analytical = [row for row in report.rows()
                      if row["method"] in ("psd", "agnostic")]
        assert analytical
        for row in analytical:
            assert row["simulated_power"] is not None
            expected = 100.0 * (row["simulated_power"] - row["power"]) \
                / row["simulated_power"]
            assert row["ed_percent"] == pytest.approx(expected)
            assert row["sub_one_bit"] is True

    def test_summary_accounting(self, tmp_path):
        report, result = self._report(tmp_path)
        summary = report.summary()
        assert summary["jobs"] == len(result.records)
        assert summary["cached"] == 0
        assert summary["hit_rate"] == 0.0
        assert summary["wordlengths"] == [8, 12]
        assert summary["methods"]["psd"]["all_sub_one_bit"] is True
        assert summary["methods"]["simulation"]["jobs"] == 4

    def test_describe_renders_every_job(self, tmp_path):
        report, result = self._report(tmp_path)
        text = report.describe()
        assert str(len(result.records)) + " jobs" in text
        assert text.count("polyphase_decimator") == 6

    def test_csv_and_json_exports(self, tmp_path):
        report, result = self._report(tmp_path)
        report.to_csv(tmp_path / "rows.csv")
        with (tmp_path / "rows.csv").open() as stream:
            rows = list(csv.DictReader(stream))
        assert len(rows) == len(result.records)
        report.to_json(tmp_path / "report.json")
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["summary"]["jobs"] == len(result.records)
        assert len(payload["records"]) == len(result.records)

    def test_mixed_stimulus_records_never_cross_join(self, tmp_path):
        # Regression: a JSONL file accumulated across campaigns with
        # different stimuli must not join an estimate against a foreign
        # simulation — the stimulus is part of the join key.
        output = tmp_path / "mixed.jsonl"
        run_campaign(_spec(), output_path=output)
        run_campaign(_spec(stimulus=StimulusSpec(num_samples=4_000,
                                                 discard_transient=32)),
                     output_path=output)
        report = CampaignReport.from_jsonl(output)
        for row, record in zip(report.rows(), report.records):
            if row["simulated_power"] is None:
                continue
            partner = report._simulation_for(record)
            assert partner["stimulus"] == record["stimulus"]
        # Both campaigns' analytical rows found their own reference.
        joined = [row for row in report.rows()
                  if row["ed_percent"] is not None]
        assert len(joined) == 16  # 2 campaigns x 2 scenarios x 2 wl x 2

    def test_from_jsonl_dedups_resumed_streams(self, tmp_path):
        output = tmp_path / "stream.jsonl"
        run_campaign(_spec(), cache_dir=tmp_path / "cache",
                     output_path=output)
        # Resume appends every record again (as cache hits).
        result = run_campaign(_spec(), cache_dir=tmp_path / "cache",
                              output_path=output)
        report = CampaignReport.from_jsonl(output)
        assert report.summary()["jobs"] == len(result.records)
        assert report.summary()["hit_rate"] == 1.0


class TestCli:
    def test_every_subcommand_accepts_seed(self):
        parser = build_parser()
        for command, extra in (("evaluate", ["system.json"]),
                               ("simulate", ["system.json"]),
                               ("compare", ["system.json"]),
                               ("optimize", ["system.json",
                                             "--budget", "1e-6"]),
                               ("sweep", ["system.json",
                                          "--budgets", "1e-6"]),
                               ("campaign", [])):
            args = parser.parse_args([command, *extra, "--seed", "42"])
            assert args.seed == 42, command

    def test_list_scenarios(self, capsys):
        assert main(["campaign", "--list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "polyphase_decimator" in out
        assert "fft_butterfly" in out

    def test_campaign_without_scenarios_fails(self, capsys):
        assert main(["campaign"]) == 1
        assert "no scenarios" in capsys.readouterr().err

    def test_campaign_end_to_end_with_cache(self, tmp_path, capsys):
        argv = ["campaign",
                "--scenarios", "table1_fir:taps=8",
                "fft_butterfly:stages=2,bin_index=1",
                "--methods", "psd", "simulation",
                "--wordlengths", "8", "12",
                "--samples", "2000", "--n-psd", "64", "--seed", "3",
                "--cache-dir", str(tmp_path / "cache"),
                "--output", str(tmp_path / "run.jsonl"),
                "--csv", str(tmp_path / "rows.csv"),
                "--json-report", str(tmp_path / "report.json")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "cache: 0 hits / 8 jobs" in first
        assert (tmp_path / "rows.csv").exists()

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "cache: 8 hits / 8 jobs (100.0%)" in second
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["summary"]["hit_rate"] == 1.0
        assert payload["summary"]["methods"]["psd"]["all_sub_one_bit"] \
            is True

    def test_campaign_bad_scenario_parameter_reports_error(self, capsys):
        assert main(["campaign", "--scenarios", "table1_fir:taps"]) == 1
        assert "bad scenario parameter" in capsys.readouterr().err

    def test_campaign_unknown_scenario_reports_error(self, capsys):
        assert main(["campaign", "--scenarios", "nope"]) == 1
        assert "unknown scenario" in capsys.readouterr().err


def _cores(monkeypatch, count):
    """Make this process report ``count`` usable cores."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)


@pytest.fixture
def pools(monkeypatch):
    """Replace the runner's executor by an in-process stand-in.

    Each pool it opens is appended to the yielded list with the width it
    was opened at and the scenarios submitted to it, in order; every
    payload runs when it is submitted.
    """
    opened = []

    class InlinePool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.submitted = []
            opened.append(self)

        def submit(self, function, payload, *args):
            self.submitted.append(payload["scenario"])
            future = Future()
            try:
                future.set_result(function(payload, *args))
            except Exception as error:
                future.set_exception(error)
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(runner, "ProcessPoolExecutor", InlinePool)
    return opened


def _campaign(tmp_path, *extra,
              scenarios=("table1_iir", "table1_fir:taps=8")):
    return ["campaign", "--scenarios", *scenarios,
            "--methods", "psd", "simulation", "--wordlengths", "8", "12",
            "--samples", "1000", "--n-psd", "64", "--seed", "3",
            "--json-report", str(tmp_path / "report.json"), *extra]


def _records(tmp_path):
    payload = json.loads((tmp_path / "report.json").read_text())
    return [{key: value for key, value in record.items()
             if key not in VOLATILE} for record in payload["records"]]


class TestPoolWidth:
    """The default ``--workers`` is the usable cores, and the pool opens
    with one process per payload that missed the cache at most."""

    def test_default_width_is_capped_at_missed_scenarios(
            self, tmp_path, monkeypatch, pools, capsys):
        _cores(monkeypatch, 8)
        assert main(_campaign(tmp_path)) == 0
        assert [pool.max_workers for pool in pools] == [2]
        assert "workers=2)" in capsys.readouterr().out

    @pytest.mark.parametrize("case", ["warm", "one scenario", "one worker"])
    def test_no_pool_when_one_payload_or_worker_runs(
            self, tmp_path, monkeypatch, pools, capsys, case):
        _cores(monkeypatch, 8)
        argv = _campaign(tmp_path, "--cache-dir", str(tmp_path / "cache"))
        if case == "warm":
            assert main(argv) == 0
            pools.clear()
            capsys.readouterr()
        elif case == "one scenario":
            argv = _campaign(tmp_path, scenarios=("table1_iir",))
        else:
            argv += ["--workers", "1"]
        assert main(argv) == 0
        assert pools == []
        assert "workers=1)" in capsys.readouterr().out

    def test_default_run_records_equal_one_worker_records(
            self, tmp_path, monkeypatch):
        _cores(monkeypatch, 2)  # a real two-process pool
        assert main(_campaign(tmp_path, "--workers", "1")) == 0
        inline = _records(tmp_path)
        assert main(_campaign(tmp_path)) == 0
        assert _records(tmp_path) == inline

    def test_one_worker_stream_keeps_expansion_order(self, tmp_path):
        stream = tmp_path / "stream.jsonl"
        assert main(_campaign(tmp_path, "--workers", "1",
                              "--output", str(stream))) == 0
        lines = [json.loads(line)["key"]
                 for line in stream.read_text().splitlines()]
        report = json.loads((tmp_path / "report.json").read_text())
        assert lines == [record["key"] for record in report["records"]]

    def test_run_span_carries_the_width_that_ran(self, tmp_path, pools):
        spec = _spec(methods=("psd",))
        with obs.observe() as session:
            cold = run_campaign(spec, cache_dir=tmp_path, workers=8)
            warm = run_campaign(spec, cache_dir=tmp_path, workers=8)
        widths = [entry["attrs"]["workers"]
                  for entry in session.trace.snapshot()
                  if entry["name"] == "campaign.run"]
        assert widths == [cold.workers, warm.workers] == [2, 1]

    @pytest.mark.parametrize("case", ["cold", "warm", "one scenario"])
    def test_hang_warning_only_when_a_pool_runs(
            self, tmp_path, pools, caplog, case):
        # Inline, a hang fault is raised as an exception, so only a pool
        # pass can block for hang_seconds.  Rate 0 fires no fault.
        spec = _spec(methods=("psd",))
        if case == "warm":
            run_campaign(spec, cache_dir=tmp_path, workers=8)
        elif case == "one scenario":
            spec = _spec(methods=("psd",), scenarios=spec.scenarios[:1])
        injector = FaultInjector(rate=0.0, kinds=("hang",))
        with caplog.at_level("WARNING", logger="repro.campaign.runner"):
            result = run_campaign(spec, cache_dir=tmp_path, workers=8,
                                  fault_injector=injector)
        warned = any("hang faults" in message
                     for message in caplog.messages)
        assert warned == (result.workers > 1) == (case == "cold")
