"""Fault-tolerance coverage: retry policy, chaos injector, supervisor.

The chaos tests force specific failure modes by restricting the
injector's ``kinds`` and driving ``rate`` to 1.0, then assert the
acceptance contract of the fault layer: recoverable faults leave records
bitwise identical to a fault-free run, permanent failures quarantine as
``status="failed"`` records that are never cached, and the accounting
reconciles exactly with the injector's ledger.
"""

import json
import multiprocessing
import time

import pytest

from repro.campaign import (
    CampaignReport,
    CampaignSpec,
    FaultInjector,
    InjectedFault,
    ResultCache,
    RetryPolicy,
    ScenarioSpec,
    StimulusSpec,
    expand_campaign,
    run_campaign,
)
from repro.campaign.faults import CRASH_EXIT_CODE, FAULT_KINDS, FaultPlan
from repro.cli import main

#: Record fields that legitimately differ between otherwise identical
#: runs (timing, batch regrouping after bisection, cache provenance).
VOLATILE = ("elapsed_seconds", "batched_with", "cached", "cache_schema")


def _spec(**overrides):
    settings = dict(
        scenarios=(ScenarioSpec("polyphase_decimator",
                                {"factor": 2, "taps": 8}),
                   ScenarioSpec("interpolator_chain", {"taps": 7})),
        methods=("psd", "agnostic"),
        wordlengths=(8, 12),
        n_psd=64,
        stimulus=StimulusSpec(num_samples=2_000, discard_transient=32),
        seed=9)
    settings.update(overrides)
    return CampaignSpec(**settings)


def _fast_policy(**overrides):
    settings = dict(max_attempts=3, backoff_base=0.0, seed=9)
    settings.update(overrides)
    return RetryPolicy(**settings)


def _stripped(record):
    return {key: value for key, value in record.items()
            if key not in VOLATILE}


def _assert_ok_records_match(chaos_result, clean_result):
    """Every non-failed chaos record is bitwise identical to the clean
    run's, modulo the volatile timing / regrouping fields."""
    clean = {record["key"]: _stripped(record)
             for record in clean_result.records}
    for record in chaos_result.records:
        if record.get("status") == "failed":
            continue
        assert _stripped(record) == clean[record["key"]]


class TestRetryPolicy:
    def test_delay_is_deterministic_and_grows(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                             backoff_max=10.0, jitter=0.25, seed=3)
        first = policy.delay("abc", 1)
        assert first == policy.delay("abc", 1)  # pure function
        assert policy.delay("abc", 2) > first  # exponential
        assert 0.1 <= first <= 0.1 * 1.25  # jitter band
        assert policy.delay("other", 1) != first  # keyed jitter

    def test_delay_caps_and_disables(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=10.0,
                             backoff_max=0.5)
        assert policy.delay("abc", 9) == 0.5
        assert RetryPolicy(backoff_base=0.0).delay("abc", 1) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="payload_timeout"):
            RetryPolicy(payload_timeout=-1.0)


class TestFaultInjector:
    def test_parse_arming_syntax(self):
        injector = FaultInjector.parse("7@0.25")
        assert (injector.seed, injector.rate) == (7, 0.25)
        assert injector.kinds == FAULT_KINDS
        narrowed = FaultInjector.parse("7@0.25@exception,crash")
        assert narrowed.kinds == ("exception", "crash")

    @pytest.mark.parametrize("text", ["7", "x@0.5", "7@x", "7@0.5@bogus",
                                      "7@0.5@a@b@c", "7@1.5"])
    def test_parse_rejects_bad_specs(self, text):
        with pytest.raises(ValueError):
            FaultInjector.parse(text)

    def test_plans_are_pure_and_rate_bounded(self):
        injector = FaultInjector(seed=11, rate=0.3)
        keys = [f"key-{i:04d}" for i in range(500)]
        ledger = injector.ledger(keys)
        assert ledger == injector.ledger(keys)  # reproducible
        assert 0.15 < len(ledger) / len(keys) < 0.45  # ~rate
        assert {plan.kind for plan in ledger.values()} == set(FAULT_KINDS)
        # Only exception faults may be permanent.
        for plan in ledger.values():
            if plan.permanent:
                assert plan.kind == "exception"
        assert FaultInjector(seed=11, rate=0.0).ledger(keys) == {}

    def test_config_round_trip(self):
        injector = FaultInjector(seed=4, rate=0.8, kinds=("hang",),
                                 permanent_rate=0.5, hang_seconds=1.5)
        clone = FaultInjector.from_config(injector.config())
        assert clone == injector
        assert FaultInjector.from_config(injector.config(inline=True)).inline

    def test_fire_semantics(self):
        injector = FaultInjector(seed=0, rate=1.0, kinds=("exception",),
                                 permanent_rate=0.0)
        with pytest.raises(InjectedFault) as info:
            injector.fire("some-key", 0)
        assert not info.value.permanent
        injector.fire("some-key", 1)  # transient: retry recovers
        permanent = FaultInjector(seed=0, rate=1.0, kinds=("exception",),
                                  permanent_rate=1.0)
        for attempt in (0, 1, 5):
            with pytest.raises(InjectedFault):
                permanent.fire("some-key", attempt)
        # corrupt never fails the job itself.
        FaultInjector(seed=0, rate=1.0, kinds=("corrupt",)).fire("k", 0)

    def test_inline_converts_crash_and_hang_to_exceptions(self):
        # os._exit / sleep in the driver process would kill or stall the
        # campaign itself; the inline injector must raise instead.
        for kind in ("crash", "hang"):
            injector = FaultInjector(seed=0, rate=1.0, kinds=(kind,),
                                     inline=True)
            with pytest.raises(InjectedFault) as info:
                injector.fire("some-key", 0)
            assert info.value.kind == kind

    def test_injected_fault_survives_pickling(self):
        import pickle
        fault = pickle.loads(pickle.dumps(
            InjectedFault("k" * 64, "crash", True)))
        assert (fault.key, fault.kind, fault.permanent) \
            == ("k" * 64, "crash", True)
        assert f"exit code {CRASH_EXIT_CODE}" or True  # constant exists

    def test_validation(self):
        with pytest.raises(ValueError, match="rate"):
            FaultInjector(rate=1.5)
        with pytest.raises(ValueError, match="kind"):
            FaultInjector(kinds=("exception", "bogus"))
        with pytest.raises(ValueError, match="kind"):
            FaultInjector(kinds=())


class TestSupervisorInline:
    def test_transient_exceptions_recover_bit_identical(self):
        clean = run_campaign(_spec(), cache_dir=None)
        injector = FaultInjector(seed=1, rate=1.0, kinds=("exception",),
                                 permanent_rate=0.0)
        chaos = run_campaign(_spec(), cache_dir=None,
                             retry_policy=_fast_policy(),
                             fault_injector=injector)
        assert chaos.failed == 0
        # Every payload's first dispatch hits a transient fault (rate is
        # 1.0), the second recovers: exactly one retry per payload.
        assert chaos.retries == 2
        assert chaos.bisections == 0
        _assert_ok_records_match(chaos, clean)

    def test_permanent_faults_quarantine_and_never_cache(self, tmp_path):
        spec = _spec()
        injector = FaultInjector(seed=1, rate=1.0, kinds=("exception",),
                                 permanent_rate=1.0)
        output = tmp_path / "stream.jsonl"
        result = run_campaign(spec, cache_dir=tmp_path / "cache",
                              output_path=output,
                              retry_policy=_fast_policy(),
                              fault_injector=injector)
        assert result.failed == result.total_jobs == len(result.records)
        assert result.computed == 0
        # Bisection isolated every offender down to single jobs.
        assert result.bisections >= 2
        for record in result.records:
            assert record["status"] == "failed"
            assert record["error_type"] == "InjectedFault"
            assert "permanent" in record["error_message"]
            assert record["attempts"] >= 1
            assert "power" not in record
        # No negative caching: the cache stayed empty...
        cache = ResultCache(tmp_path / "cache")
        assert all(cache.get(record["key"]) is None
                   for record in result.records)
        # ...and the JSONL stream carries the failures for diagnosis.
        lines = [json.loads(line)
                 for line in output.read_text().splitlines()]
        assert all(line["status"] == "failed" for line in lines)
        # A fault-free re-run against the same cache retries everything.
        retry = run_campaign(spec, cache_dir=tmp_path / "cache")
        assert retry.failed == 0 and retry.cache_hits == 0
        assert retry.computed == len(retry.records)

    def test_mixed_ledger_reconciles_exactly(self):
        # The acceptance contract: whatever mix the seed deals, the
        # failed set equals the permanent-fault set of the ledger — no
        # innocent job is quarantined, no permanent fault slips through.
        spec = _spec(methods=("psd", "agnostic", "simulation"))
        clean = run_campaign(spec, cache_dir=None)
        injector = FaultInjector(seed=1, rate=0.6,
                                 kinds=("exception", "corrupt"),
                                 permanent_rate=0.5)
        _prepared, jobs, _skipped = expand_campaign(spec)
        ledger = injector.ledger([job.key for job in jobs])
        permanent = {key for key, plan in ledger.items() if plan.permanent}
        assert permanent  # seed chosen to exercise the quarantine path
        assert len(permanent) < len(jobs)
        chaos = run_campaign(spec, cache_dir=None,
                             retry_policy=_fast_policy(),
                             fault_injector=injector)
        failed = {record["key"] for record in chaos.records
                  if record.get("status") == "failed"}
        assert failed == permanent
        assert chaos.failed == len(permanent)
        assert chaos.computed == len(jobs) - len(permanent)
        assert chaos.total_jobs == len(jobs)
        _assert_ok_records_match(chaos, clean)

    def test_report_and_exports_carry_failures(self, tmp_path):
        injector = FaultInjector(seed=1, rate=0.6,
                                 kinds=("exception",), permanent_rate=0.5)
        spec = _spec(methods=("psd", "agnostic", "simulation"))
        result = run_campaign(spec, cache_dir=None,
                              retry_policy=_fast_policy(),
                              fault_injector=injector)
        assert 0 < result.failed < result.total_jobs
        report = CampaignReport(result.records)
        summary = report.summary()
        assert summary["failed"] == result.failed
        assert summary["computed"] == result.computed
        assert len(summary["failures"]) == result.failed
        for failure in summary["failures"]:
            assert failure["error_type"] == "InjectedFault"
            assert failure["attempts"] >= 1
        text = report.describe()
        assert f"{result.failed} FAILED" in text
        assert text.count("FAILED") == result.failed + 1  # title + rows
        report.to_csv(tmp_path / "rows.csv")
        csv_text = (tmp_path / "rows.csv").read_text()
        assert csv_text.count("failed") == result.failed


class TestSupervisorPool:
    def test_worker_crash_rebuilds_pool_and_recovers(self):
        spec = _spec()
        clean = run_campaign(spec, cache_dir=None)
        injector = FaultInjector(seed=2, rate=1.0, kinds=("crash",))
        chaos = run_campaign(spec, cache_dir=None, workers=2,
                             retry_policy=_fast_policy(),
                             fault_injector=injector)
        assert chaos.failed == 0
        assert chaos.pool_rebuilds >= 1
        _assert_ok_records_match(chaos, clean)

    def test_hung_payload_is_abandoned_and_retried(self):
        spec = _spec()
        clean = run_campaign(spec, cache_dir=None)
        injector = FaultInjector(seed=2, rate=1.0, kinds=("hang",),
                                 hang_seconds=20.0)
        chaos = run_campaign(
            spec, cache_dir=None, workers=2,
            retry_policy=_fast_policy(payload_timeout=0.5),
            fault_injector=injector)
        assert chaos.failed == 0
        assert chaos.pool_rebuilds >= 1
        assert chaos.retries >= 1
        _assert_ok_records_match(chaos, clean)
        # The abandoned pool's hung workers are terminated, not left
        # sleeping out their 20 s for the interpreter to join at exit.
        deadline = time.monotonic() + 5.0
        while multiprocessing.active_children():
            assert time.monotonic() < deadline, \
                "worker processes outlived the campaign"
            time.sleep(0.05)

    def test_terminate_pool_stops_a_sleeping_worker(self):
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing.connection import wait

        from repro.campaign.runner import _terminate_pool

        others = set(multiprocessing.active_children())
        pool = ProcessPoolExecutor(max_workers=1)
        future = pool.submit(time.sleep, 30.0)
        deadline = time.monotonic() + 10.0
        while not future.running():
            assert time.monotonic() < deadline, "the worker never started"
            time.sleep(0.01)
        (worker,) = set(multiprocessing.active_children()) - others
        started = time.monotonic()
        deadline = started + 5.0
        _terminate_pool(pool)
        # The executor's manager thread joins the same process.  When it
        # reaps the child first, a waitpid here fails and reads as alive,
        # so wait for the exit on the sentinel, then for the exit code
        # that whichever thread reaped the child records.
        wait([worker.sentinel], timeout=deadline - time.monotonic())
        while worker.exitcode is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not worker.is_alive()
        assert time.monotonic() - started < 5.0

    def test_repeated_pool_deaths_degrade_to_inline(self, monkeypatch):
        from repro.campaign import runner
        monkeypatch.setattr(runner._Supervisor, "MAX_POOL_DEATHS", 1)
        spec = _spec()
        clean = run_campaign(spec, cache_dir=None)
        injector = FaultInjector(seed=2, rate=1.0, kinds=("crash",))
        chaos = run_campaign(spec, cache_dir=None, workers=2,
                             retry_policy=_fast_policy(),
                             fault_injector=injector)
        # One death is the new limit: no rebuild, straight to inline —
        # where crash faults arrive as exceptions and retries recover.
        assert chaos.pool_rebuilds == 0
        assert chaos.failed == 0
        _assert_ok_records_match(chaos, clean)

    def test_full_four_kind_mix_meets_acceptance(self, tmp_path):
        # The ISSUE acceptance bar: >= 20% rate mixing all four kinds,
        # multi-scenario, workers > 1, completing with ok records
        # bitwise identical to fault-free and accounting reconciling
        # with the ledger.
        spec = _spec(
            scenarios=(ScenarioSpec("polyphase_decimator",
                                    {"factor": 2, "taps": 8}),
                       ScenarioSpec("interpolator_chain", {"taps": 7}),
                       ScenarioSpec("table1_fir", {"taps": 8})),
            methods=("psd", "agnostic", "simulation"))
        clean = run_campaign(spec, cache_dir=None)
        injector = FaultInjector(seed=1, rate=0.5, permanent_rate=0.4,
                                 hang_seconds=20.0)
        _prepared, jobs, _skipped = expand_campaign(spec)
        ledger = injector.ledger([job.key for job in jobs])
        kinds = {plan.kind for plan in ledger.values()}
        assert kinds == set(FAULT_KINDS)  # seed exercises all four
        permanent = {key for key, plan in ledger.items() if plan.permanent}
        assert permanent
        chaos = run_campaign(
            spec, cache_dir=tmp_path / "cache", workers=2,
            retry_policy=_fast_policy(payload_timeout=1.0),
            fault_injector=injector)
        assert {r["key"] for r in chaos.records
                if r.get("status") == "failed"} == permanent
        assert chaos.computed == len(jobs) - len(permanent)
        assert chaos.retries >= 1
        _assert_ok_records_match(chaos, clean)
        # Quarantined jobs were never cached; successful ones were.
        cache = ResultCache(tmp_path / "cache")
        for job in jobs:
            cached = cache.get(job.key)
            if job.key in permanent:
                assert cached is None
            elif ledger.get(job.key) != FaultPlan("corrupt"):
                assert cached is not None

    def test_corrupt_faults_heal_on_the_next_run(self, tmp_path):
        spec = _spec()
        injector = FaultInjector(seed=3, rate=0.5, kinds=("corrupt",))
        _prepared, jobs, _skipped = expand_campaign(spec)
        garbled = set(injector.ledger([job.key for job in jobs]))
        assert garbled
        first = run_campaign(spec, cache_dir=tmp_path / "cache",
                             retry_policy=_fast_policy(),
                             fault_injector=injector)
        # Corrupt faults never fail the run itself...
        assert first.failed == 0 and first.retries == 0
        assert first.computed == len(jobs)
        # ...but the fault-free resume finds the garbled records, heals
        # them (delete + warn) and recomputes exactly those jobs.
        resumed = run_campaign(spec, cache_dir=tmp_path / "cache")
        assert resumed.failed == 0
        assert resumed.cache_hits == len(jobs) - len(garbled)
        assert resumed.computed == len(garbled)
        for a, b in zip(first.records, resumed.records):
            assert _stripped(a) == _stripped(b)


class TestCliChaos:
    ARGS = ["campaign",
            "--scenarios", "table1_fir:taps=8", "interpolator_chain:taps=7",
            "--methods", "psd",
            "--wordlengths", "8", "12",
            "--samples", "2000", "--n-psd", "64", "--seed", "3"]

    def test_partial_failure_exits_2_with_machine_readable_summary(
            self, tmp_path, capsys):
        argv = [*self.ARGS, "--chaos", "2@0.6@exception", "--max-retries",
                "1", "--json-report", str(tmp_path / "report.json")]
        # Chaos seed 2 plants at least one permanent exception in this grid
        # (asserted below against the printed ledger, so a drift in the
        # grid contents fails loudly instead of testing nothing).
        assert main(argv) == 2
        out = capsys.readouterr().out
        ledger_line = next(line for line in out.splitlines()
                           if line.startswith("chaos ledger: "))
        ledger = json.loads(ledger_line[len("chaos ledger: "):])
        permanent = {key for key, plan in ledger.items()
                     if plan["permanent"]}
        assert permanent
        summary_line = next(line for line in out.splitlines()
                            if line.startswith("failure summary: "))
        summary = json.loads(summary_line[len("failure summary: "):])
        assert summary["failed"] == len(permanent)
        assert {f["key"] for f in summary["failures"]} == permanent
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["summary"]["failed"] == len(permanent)

    def test_armed_but_quiet_chaos_exits_0(self, capsys):
        # Rate 0 arms the harness without planting anything: the ledger
        # prints (empty) and the exit code stays 0.
        assert main([*self.ARGS, "--chaos", "31@0.0"]) == 0
        out = capsys.readouterr().out
        assert "chaos ledger: {}" in out
        assert "failure summary" not in out

    def test_bad_chaos_spec_exits_1(self, capsys):
        assert main([*self.ARGS, "--chaos", "nope"]) == 1
        assert "bad chaos spec" in capsys.readouterr().err

    def test_negative_max_retries_rejected(self, capsys):
        assert main([*self.ARGS, "--max-retries", "-1"]) == 1
        assert "--max-retries" in capsys.readouterr().err
