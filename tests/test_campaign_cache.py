"""Job keys, the content-addressed cache, and campaign resumability."""

import json
import os

import pytest

from repro.campaign import (
    CampaignSpec,
    ResultCache,
    ScenarioSpec,
    StimulusSpec,
    expand_campaign,
    job_key,
    run_campaign,
)
from repro.sfg.builder import SfgBuilder
from repro.sfg.serialization import (
    assignment_fingerprint,
    graph_fingerprint,
)


def _graph(bits=10, taps=(0.25, 0.5, 0.25)):
    builder = SfgBuilder("cache-test")
    x = builder.input("x", fractional_bits=bits)
    node = builder.fir("h", list(taps), x, fractional_bits=bits)
    builder.output("y", node)
    return builder.build()


# A tiny, fast campaign reused by the runner/resume tests.
def _tiny_spec(**overrides):
    settings = dict(
        scenarios=(ScenarioSpec("table1_fir", {"taps": 8}),
                   ScenarioSpec("fft_butterfly", {"stages": 2})),
        methods=("psd", "agnostic", "simulation"),
        wordlengths=(8, 12),
        n_psd=64,
        stimulus=StimulusSpec(num_samples=2_000),
        seed=5)
    settings.update(overrides)
    return CampaignSpec(**settings)


class TestJobKeys:
    def test_key_is_deterministic(self):
        graph = _graph()
        spec = StimulusSpec()
        key_a = job_key(graph, {"x": 8, "h": 8}, "psd", 128, spec, 0)
        key_b = job_key(_graph(), {"h": 8, "x": 8}, "psd", 128, spec, 0)
        assert key_a == key_b
        assert len(key_a) == 64

    @pytest.mark.parametrize("mutation", [
        dict(assignment={"x": 9, "h": 8}),
        dict(method="agnostic"),
        dict(n_psd=256),
        dict(stimulus=StimulusSpec(num_samples=999)),
        dict(seed=1),
    ])
    def test_key_tracks_every_input(self, mutation):
        graph = _graph()
        base = dict(assignment={"x": 8, "h": 8}, method="psd", n_psd=128,
                    stimulus=StimulusSpec(), seed=0)
        changed = {**base, **mutation}
        assert job_key(graph, base["assignment"], base["method"],
                       base["n_psd"], base["stimulus"], base["seed"]) \
            != job_key(graph, changed["assignment"], changed["method"],
                       changed["n_psd"], changed["stimulus"],
                       changed["seed"])

    def test_n_psd_only_keys_psd_methods(self):
        # Regression: retuning --n-psd must not invalidate the cached
        # simulation (or moment-only) records — only the PSD-based
        # methods depend on the bin count.
        graph = _graph()
        spec = StimulusSpec()
        assignment = {"x": 8, "h": 8}
        for method in ("simulation", "agnostic", "flat"):
            assert job_key(graph, assignment, method, 128, spec, 0) \
                == job_key(graph, assignment, method, 512, spec, 0), method
        for method in ("psd", "psd_tracked"):
            assert job_key(graph, assignment, method, 128, spec, 0) \
                != job_key(graph, assignment, method, 512, spec, 0), method

    def test_key_tracks_graph_content(self):
        spec = StimulusSpec()
        assignment = {"x": 8, "h": 8}
        assert job_key(_graph(), assignment, "psd", 128, spec, 0) \
            != job_key(_graph(taps=(0.1, 0.8, 0.1)), assignment, "psd",
                       128, spec, 0)

    def test_fingerprints_are_insertion_order_stable(self):
        # Same system, nodes added in a different order.
        forward = _graph()
        builder = SfgBuilder("cache-test")
        builder.graph.add_node(forward.nodes["y"].__class__("y"))
        builder.graph.add_node(forward.nodes["h"].__class__(
            "h", [0.25, 0.5, 0.25], quantization=forward.nodes["h"].quantization))
        builder.graph.add_node(forward.nodes["x"].__class__(
            "x", forward.nodes["x"].quantization))
        builder.graph.connect("x", "h", 0)
        builder.graph.connect("h", "y", 0)
        backward = builder.build()
        assert graph_fingerprint(forward) == graph_fingerprint(backward)
        assert assignment_fingerprint({"a": 1, "b": 2}) \
            == assignment_fingerprint({"b": 2, "a": 1})
        assert assignment_fingerprint({"a": 1}) \
            != assignment_fingerprint({"a": None})


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get("a" * 64) is None
        cache.put("a" * 64, {"power": 1.5})
        record = cache.get("a" * 64)
        assert record["power"] == 1.5
        assert record["key"] == "a" * 64
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_disabled_cache_never_hits(self, tmp_path):
        cache = ResultCache(None)
        cache.put("a" * 64, {"power": 1.0})
        assert cache.get("a" * 64) is None
        assert not cache.enabled

    def test_corrupt_record_is_a_miss_and_heals(self, tmp_path, caplog):
        cache = ResultCache(tmp_path / "cache")
        key = "b" * 64
        cache.put(key, {"power": 2.0})
        cache.path_for(key).write_text("{ not json !!!")
        with caplog.at_level("WARNING", logger="repro.campaign.cache"):
            assert cache.get(key) is None
        assert cache.stats.corrupt == 1
        assert not cache.path_for(key).exists()  # removed, slot heals
        # The self-healing is diagnosable: one warning naming the path.
        (record,) = caplog.records
        assert str(cache.path_for(key)) in record.getMessage()
        cache.put(key, {"power": 3.0})
        assert cache.get(key)["power"] == 3.0

    def test_clean_lookups_do_not_warn(self, tmp_path, caplog):
        cache = ResultCache(tmp_path / "cache")
        key = "e" * 64
        with caplog.at_level("WARNING", logger="repro.campaign.cache"):
            assert cache.get(key) is None  # plain miss: no record on disk
            cache.put(key, {"power": 1.0})
            assert cache.get(key)["power"] == 1.0
        assert caplog.records == []

    def test_mis_keyed_record_is_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key, other = "c" * 64, "d" * 64
        cache.put(key, {"power": 2.0})
        # Simulate a file copied to the wrong slot.
        cache.path_for(other).parent.mkdir(parents=True, exist_ok=True)
        os.replace(cache.path_for(key), cache.path_for(other))
        assert cache.get(other) is None
        assert cache.stats.corrupt == 1

    def test_future_schema_record_is_a_miss_left_on_disk(self, tmp_path,
                                                         caplog):
        # An old binary sharing a cache dir with a newer one must not
        # serve (or destroy) records it cannot interpret.
        import json

        from repro.campaign.cache import CACHE_SCHEMA_VERSION

        cache = ResultCache(tmp_path / "cache")
        key = "f" * 64
        cache.put(key, {"power": 4.0})
        path = cache.path_for(key)
        record = json.loads(path.read_text())
        record["cache_schema"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(record))
        with caplog.at_level("WARNING", logger="repro.campaign.cache"):
            assert cache.get(key) is None
        assert cache.stats.future_schema == 1
        assert cache.stats.corrupt == 0
        assert path.exists()  # left for the newer binary, not deleted
        (log_record,) = caplog.records
        assert "future" in log_record.getMessage()
        assert str(path) in log_record.getMessage()
        # Still readable once this binary understands the version — the
        # record itself was never touched.
        assert json.loads(path.read_text())["power"] == 4.0

    def test_non_integer_schema_is_corrupt(self, tmp_path):
        import json

        cache = ResultCache(tmp_path / "cache")
        key = "9" * 64
        cache.put(key, {"power": 5.0})
        path = cache.path_for(key)
        record = json.loads(path.read_text())
        record["cache_schema"] = "2"
        path.write_text(json.dumps(record))
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1
        assert not path.exists()  # garbage, not a future version: healed

    def test_put_is_atomic_no_temp_left_behind(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        for index in range(4):
            cache.put(f"{index:064d}", {"power": float(index)})
        leftovers = [p for p in (tmp_path / "cache").rglob("*")
                     if p.is_file() and p.suffix != ".json"]
        assert leftovers == []


class TestCampaignResume:
    def test_second_run_is_fully_cached(self, tmp_path):
        spec = _tiny_spec()
        first = run_campaign(spec, cache_dir=tmp_path / "cache")
        assert first.cache_hits == 0
        assert first.computed == len(first.records)
        second = run_campaign(spec, cache_dir=tmp_path / "cache")
        assert second.computed == 0
        assert second.hit_rate == 1.0
        # Cached and computed runs agree record for record.
        for a, b in zip(first.records, second.records):
            assert a["key"] == b["key"]
            assert a["power"] == b["power"]

    def test_overlapping_campaign_reuses_shared_jobs(self, tmp_path):
        run_campaign(_tiny_spec(), cache_dir=tmp_path / "cache")
        # A superset campaign: same grid plus one more wordlength.
        widened = _tiny_spec(wordlengths=(8, 12, 16))
        result = run_campaign(widened, cache_dir=tmp_path / "cache")
        assert result.cache_hits == len(result.records) * 2 // 3
        assert result.computed == len(result.records) // 3

    def test_resume_after_kill(self, tmp_path):
        """A campaign killed mid-way resumes: completed jobs are served
        from the cache, only the remainder is recomputed."""
        spec = _tiny_spec()
        cache_dir = tmp_path / "cache"
        output = tmp_path / "run.jsonl"

        # Simulate the kill: run only the first scenario's jobs (as if
        # the process died before the second scenario was dispatched).
        partial = _tiny_spec(scenarios=spec.scenarios[:1])
        run_campaign(partial, cache_dir=cache_dir, output_path=output)
        records_before = len(output.read_text().splitlines())
        assert records_before > 0

        # The resumed full run recomputes only the second scenario.
        resumed = run_campaign(spec, cache_dir=cache_dir,
                               output_path=output)
        assert resumed.cache_hits == records_before
        assert resumed.computed == len(resumed.records) - records_before
        # The JSONL stream now carries the interrupted run plus the
        # resume; per-key dedup (later wins) reconstructs the campaign.
        lines = [json.loads(line)
                 for line in output.read_text().splitlines()]
        assert len({record["key"] for record in lines}) \
            == len(resumed.records)

    def test_resume_tolerates_corrupted_cache_entries(self, tmp_path):
        spec = _tiny_spec()
        cache_dir = tmp_path / "cache"
        first = run_campaign(spec, cache_dir=cache_dir)
        # Corrupt one record on disk (e.g. disk full during the kill).
        victim = first.records[0]["key"]
        cache = ResultCache(cache_dir)
        cache.path_for(victim).write_text('{"truncated": ')
        resumed = run_campaign(spec, cache_dir=cache_dir)
        assert resumed.computed >= 1
        assert resumed.cache_hits == len(resumed.records) - resumed.computed
        # The healed entry hits on the next run.
        third = run_campaign(spec, cache_dir=cache_dir)
        assert third.hit_rate == 1.0


class TestExpansion:
    def test_single_rate_methods_skipped_on_multirate(self):
        spec = _tiny_spec(methods=("psd", "flat", "psd_tracked"))
        prepared, jobs, skipped = expand_campaign(spec)
        # fft_butterfly is multirate: flat + psd_tracked skip both
        # wordlengths there; table1_fir supports everything.
        assert skipped == 4
        assert {job.method for job in prepared[0].jobs} \
            == {"psd", "flat", "psd_tracked"}
        assert {job.method for job in prepared[1].jobs} == {"psd"}

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            expand_campaign(_tiny_spec(methods=("psd", "typo")))

    def test_empty_wordlengths_rejected(self):
        with pytest.raises(ValueError, match="wordlength"):
            expand_campaign(_tiny_spec(wordlengths=()))

    @pytest.mark.parametrize("samples", [-5, 0])
    def test_non_positive_samples_rejected(self, samples):
        # Rejected before any job runs, not measured three times and
        # quarantined.
        with pytest.raises(ValueError, match="samples must be positive"):
            expand_campaign(_tiny_spec(stimulus=None, samples=samples))

    def test_samples_override_is_length_only(self):
        # Regression: --samples must keep each scenario's stimulus kind,
        # amplitude and transient handling, not reset them to defaults.
        from repro.campaign import build_scenario
        default = build_scenario("cascaded_sos_bank").stimulus
        assert default.discard_transient > 0
        spec = _tiny_spec(scenarios=(ScenarioSpec("cascaded_sos_bank"),),
                          stimulus=None, samples=5_000)
        prepared, _, _ = expand_campaign(spec)
        stimulus = prepared[0].stimulus
        assert stimulus.num_samples == 5_000
        assert stimulus.discard_transient == default.discard_transient
        assert stimulus.kind == default.kind
        assert stimulus.amplitude == default.amplitude

    def test_assignments_cover_quantized_nodes_only(self):
        prepared, _, _ = expand_campaign(_tiny_spec())
        for scenario in prepared:
            for job in scenario.jobs:
                assert set(job.assignment) == set(scenario.quantized_nodes)
                assert set(job.assignment.values()) == {job.wordlength}
