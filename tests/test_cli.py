"""Smoke coverage of every CLI subcommand, plus seeded determinism.

Each of the eight subcommands runs end to end (in process, against a tmp
dir) asserting its exit code, and then runs *again* with the same
``--seed`` asserting byte-identical output.  Wall-clock timings are the
single intentionally nondeterministic element of the CLI output
(``evaluation time`` / ``campaign time`` lines and the trailing ``ms``
table column), so the determinism comparison masks exactly those and
nothing else.  The ``bench`` subcommand is inherently a measurement, so
only its ``--list`` output takes part in the byte-identical comparison;
its run/check paths are asserted structurally (files, schema, exit
codes) instead.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.campaign.registry import build_scenario
from repro.cli import main
from repro.lti.fir_design import design_fir_lowpass
from repro.lti.iir_design import design_iir_filter
from repro.sfg.builder import SfgBuilder
from repro.sfg.serialization import save_graph
from repro.systems.filter_bank import build_filter_graph, generate_iir_bank

_TIMING_LINE = re.compile(r"^(evaluation time|campaign time):.*$")


def _normalize(text: str) -> str:
    """Mask the wall-clock parts of CLI output, leave everything else.

    The trailing table column is masked only inside a table whose header
    names it ``ms`` (the campaign report) — data-bearing numeric columns
    of other tables (e.g. the per-node bits of ``optimize``) stay part of
    the byte-identical comparison.
    """
    lines = []
    in_ms_table = False
    for line in text.splitlines():
        if _TIMING_LINE.match(line):
            lines.append(_TIMING_LINE.sub(r"\1: <wall clock>", line))
            continue
        if "|" in line:
            cells = [cell.strip() for cell in line.split("|")]
            if cells[-1] == "ms":  # the header row declaring the column
                in_ms_table = True
            elif in_ms_table:
                line = line.rpartition("|")[0] + "| <ms>"
        elif "+" not in line:  # not a table separator: the table ended
            in_ms_table = False
        lines.append(line)
    return "\n".join(lines)


@pytest.fixture(scope="module")
def system_path(tmp_path_factory):
    """A small serialized Table-I IIR system shared by the suite."""
    path = tmp_path_factory.mktemp("cli") / "system.json"
    entry = generate_iir_bank(1)[0]
    save_graph(build_filter_graph(entry, fractional_bits=10), path)
    return str(path)


@pytest.fixture(scope="module")
def multirate_path(tmp_path_factory):
    """The polyphase decimator scenario, a multirate system."""
    path = tmp_path_factory.mktemp("cli") / "multirate.json"
    save_graph(build_scenario("polyphase_decimator").graph, path)
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def _assert_deterministic(capsys, argv, runs=2):
    outputs = []
    for _ in range(runs):
        code, out = _run(capsys, argv)
        assert code == 0, out
        outputs.append(_normalize(out))
    assert outputs[0] == outputs[1]
    return outputs[0]


class TestSubcommandSmoke:
    def test_evaluate(self, capsys, system_path):
        out = _assert_deterministic(
            capsys, ["evaluate", system_path, "--method", "psd",
                     "--n-psd", "64", "--seed", "3"])
        assert "estimated output noise power" in out

    def test_simulate(self, capsys, system_path):
        out = _assert_deterministic(
            capsys, ["simulate", system_path, "--samples", "2000",
                     "--seed", "3"])
        assert "simulated output noise power" in out

    def test_simulate_seed_changes_the_measurement(self, capsys,
                                                   system_path):
        _, first = _run(capsys, ["simulate", system_path, "--samples",
                                 "2000", "--seed", "3"])
        _, second = _run(capsys, ["simulate", system_path, "--samples",
                                  "2000", "--seed", "4"])
        assert first != second

    def test_compare(self, capsys, system_path):
        out = _assert_deterministic(
            capsys, ["compare", system_path, "--methods", "psd", "agnostic",
                     "--samples", "2000", "--n-psd", "64", "--seed", "3"])
        assert "psd" in out and "agnostic" in out

    def test_optimize(self, capsys, system_path):
        out = _assert_deterministic(
            capsys, ["optimize", system_path, "--budget", "1e-4",
                     "--n-psd", "64", "--max-bits", "16", "--seed", "3"])
        assert "total fractional bits" in out

    def test_sweep(self, capsys, system_path):
        out = _assert_deterministic(
            capsys, ["sweep", system_path, "--budgets", "1e-3", "1e-5",
                     "--n-psd", "64", "--max-bits", "16", "--seed", "3"])
        assert "pareto-optimal points" in out

    def test_campaign(self, capsys, tmp_path):
        # Separate cache directories per run: a shared cache would flip
        # the (data-bearing) "cached?" column between runs.
        outputs = []
        for run in range(2):
            code, out = _run(capsys, [
                "campaign", "--scenarios", "table1_fir:taps=8",
                "random:seed=4,blocks=4", "--methods", "psd", "simulation",
                "--wordlengths", "8", "12", "--n-psd", "64",
                "--samples", "2000", "--seed", "3",
                "--cache-dir", str(tmp_path / f"cache{run}")])
            assert code == 0, out
            outputs.append(_normalize(out))
        assert outputs[0] == outputs[1]
        assert "0 hits / 8 jobs" in outputs[0]

    def test_campaign_list_scenarios(self, capsys):
        code, out = _run(capsys, ["campaign", "--list-scenarios"])
        assert code == 0
        assert "random" in out and "table1_fir" in out

    def test_bench_list(self, capsys):
        out = _assert_deterministic(capsys, ["bench", "--list"])
        assert "sim_engine_ff" in out
        assert "welch_psd" in out

    def test_bench_run_writes_schema_files_and_checks_baseline(
            self, capsys, tmp_path):
        results = tmp_path / "results"
        passing = tmp_path / "pass.json"
        passing.write_text(json.dumps({
            "schema": 1,
            "floors": {"sim_engine_iir": {"single_stream": 0.0001}}}))
        code, out = _run(capsys, [
            "bench", "--names", "sim_engine_iir", "--samples", "2000",
            "--results", str(results), "--check",
            "--baseline", str(passing)])
        assert code == 0, out
        payload = json.loads(
            (results / "BENCH_sim_engine_iir.json").read_text())
        assert payload["schema"] == 1
        assert payload["workload"]["samples"] == 2000
        assert payload["speedup"]["single_stream"] > 0.0
        assert "at or above every baseline floor" in out

        failing = tmp_path / "fail.json"
        failing.write_text(json.dumps({
            "schema": 1,
            "floors": {"sim_engine_iir": {"single_stream": 1e9}}}))
        code = main(["bench", "--names", "sim_engine_iir",
                     "--samples", "2000", "--results", str(results),
                     "--check", "--baseline", str(failing)])
        captured = capsys.readouterr()
        assert code == 1
        assert "REGRESSION sim_engine_iir.single_stream" in captured.err

    def test_fuzz_counts_fixed_plan_runs(self, capsys, tmp_path):
        metrics = tmp_path / "metrics.json"
        code = main(["fuzz", "--count", "2", "--seed", "0",
                     "--blocks", "4", "--samples", "1152",
                     "--ed-samples", "4608", "--n-psd", "96",
                     "--metrics", str(metrics)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "all passed" in out
        counts = json.loads(metrics.read_text())["metrics"]
        assert counts.get("plan.runs{mode=fixed}", 0) > 0

    def test_fuzz(self, capsys, tmp_path):
        argv = ["fuzz", "--count", "2", "--seed", "0", "--blocks", "4",
                "--samples", "1152", "--ed-samples", "4608",
                "--n-psd", "96", "--artifacts", str(tmp_path / "artifacts")]
        out = _assert_deterministic(capsys, argv)
        assert "fuzzed 2 random graph(s)" in out
        assert "all passed" in out
        # No artifacts for a clean run.
        assert not (tmp_path / "artifacts").exists()


class TestErrorPaths:
    def test_missing_system_file_is_exit_code_1(self, capsys):
        code = main(["evaluate", "no-such-file.json"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_scenario_is_exit_code_1(self, capsys):
        code = main(["campaign", "--scenarios", "not_a_family"])
        assert code == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_bench_rejects_unknown_name_and_tiny_samples(self, capsys):
        code = main(["bench", "--names", "no_such_bench"])
        assert code == 1
        assert "unknown benchmark" in capsys.readouterr().err
        code = main(["bench", "--samples", "8"])
        assert code == 1
        assert "--samples" in capsys.readouterr().err
        code = main(["bench", "--tags", "no-such-tag"])
        assert code == 1
        assert "no registered benchmark" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_nan_amplitude_is_one_error_line(self, capsys, system_path,
                                             command):
        code = main([command, system_path, "--samples", "2000",
                     "--amplitude", "nan"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "amplitude" in lines[0]

    def test_fuzz_rejects_non_positive_count(self, capsys):
        code = main(["fuzz", "--count", "0"])
        assert code == 1
        assert "--count" in capsys.readouterr().err

    def test_fuzz_rejects_invalid_generator_knobs(self, capsys):
        # Bad generator arguments are a usage error, not 'count' seeded
        # graphs all reported as failing.
        code = main(["fuzz", "--count", "2", "--blocks", "-1"])
        assert code == 1
        assert "--blocks" in capsys.readouterr().err
        code = main(["fuzz", "--count", "2", "--seed", "-3"])
        assert code == 1
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--method", "flat"],
        ["evaluate", "--method", "psd_tracked"],
        ["compare", "--methods", "flat", "--samples", "2000"],
        ["optimize", "--method", "flat", "--budget", "1e-6"],
        ["sweep", "--method", "flat", "--budgets", "1e-6"],
    ], ids=["evaluate-flat", "evaluate-psd_tracked", "compare", "optimize",
            "sweep"])
    def test_single_rate_method_on_multirate_system_is_exit_code_1(
            self, capsys, multirate_path, argv):
        code = main([argv[0], multirate_path, *argv[1:]])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "multirate node" in err

    def test_compare_unknown_method_rejected_by_argparse(self, capsys,
                                                         system_path):
        # The same choices as 'evaluate --method': nothing is simulated.
        with pytest.raises(SystemExit) as exit_info:
            main(["compare", system_path, "--methods", "psd", "bogus"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_unstable_iir_system_is_exit_code_1(self, capsys, tmp_path):
        path = tmp_path / "unstable.json"
        save_graph(build_filter_graph(generate_iir_bank(1)[0],
                                      fractional_bits=10), path)
        data = json.loads(path.read_text())
        for node in data["nodes"]:
            if node["type"] == "iir":
                node["a"] = [1.0, -1.5]
                node["b"] = [1.0]
        path.write_text(json.dumps(data))
        code = main(["evaluate", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "is unstable" in err

    def test_campaign_past_double_precision_fails_before_any_job(
            self, capsys, tmp_path):
        cache = tmp_path / "cache"
        code = main(["campaign", "--scenarios", "table1_iir",
                     "--methods", "simulation", "--wordlengths", "12", "80",
                     "--cache-dir", str(cache)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "80 fractional bits" in lines[0]
        assert not cache.exists() or not any(cache.iterdir())

    @pytest.mark.parametrize("argv", [
        ["evaluate"],
        ["optimize", "--budget", "1e-6"],
        ["sweep", "--budgets", "1e-5", "1e-6"],
    ], ids=["evaluate", "optimize", "sweep"])
    def test_n_psd_below_two_is_one_error_line(self, capsys, system_path,
                                               argv):
        code = main([argv[0], system_path, *argv[1:], "--n-psd", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n_psd must be at least 2, got 1\n"

    def test_campaign_n_psd_below_two_fails_before_any_job(self, capsys,
                                                           tmp_path):
        cache = tmp_path / "cache"
        code = main(["campaign", "--scenarios", "table1_fir",
                     "--wordlengths", "8", "12", "--n-psd", "1",
                     "--cache-dir", str(cache)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n_psd must be at least 2, got 1\n"
        assert not cache.exists() or not any(cache.iterdir())
        # N_PSD does not concern a grid without a PSD method.
        code = main(["campaign", "--scenarios", "table1_fir",
                     "--methods", "agnostic", "simulation",
                     "--wordlengths", "8", "--samples", "2000",
                     "--n-psd", "1"])
        assert code == 0

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_simulating_past_double_precision_is_exit_code_1(
            self, capsys, tmp_path, command):
        path = tmp_path / "deep.json"
        save_graph(build_filter_graph(generate_iir_bank(1)[0],
                                      fractional_bits=80), path)
        code = main([command, str(path), "--samples", "2000"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "80 fractional bits" in err

    @staticmethod
    def _assert_one_error_line(capsys, code, *words):
        assert code == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        for word in words:
            assert word in lines[0]
        return captured

    def test_sweep_negative_validate_samples_is_one_error_line(
            self, capsys, system_path):
        code = main(["sweep", system_path, "--budgets", "1e-5",
                     "--validate-samples", "-5"])
        captured = self._assert_one_error_line(capsys, code,
                                               "validate_samples", "-5")
        assert captured.out == ""

    def test_sweep_fractional_budget_count_is_one_error_line(
            self, capsys, system_path):
        code = main(["sweep", system_path,
                     "--budget-range", "1e-5", "1e-8", "2.5"])
        captured = self._assert_one_error_line(capsys, code, "COUNT", "2.5")
        assert captured.out == ""

    def test_campaign_negative_samples_fails_before_any_job(self, capsys,
                                                            tmp_path):
        cache = tmp_path / "cache"
        code = main(["campaign", "--scenarios", "table1_fir",
                     "--wordlengths", "8", "--samples", "-5",
                     "--cache-dir", str(cache)])
        captured = self._assert_one_error_line(capsys, code, "samples", "-5")
        assert captured.out == ""
        assert not cache.exists() or not any(cache.iterdir())

    # -1 turned the watchdog off, NaN armed one that never fires and
    # inf overflows the supervisor's wait (with a pool) in a traceback.
    @pytest.mark.parametrize("timeout", ["-1", "nan", "inf"])
    def test_campaign_bad_payload_timeout_is_one_error_line(
            self, capsys, tmp_path, timeout):
        cache = tmp_path / "cache"
        code = main(["campaign", "--scenarios", "table1_fir",
                     "--wordlengths", "8", "--samples", "2000",
                     "--payload-timeout", timeout, "--cache-dir", str(cache)])
        captured = self._assert_one_error_line(capsys, code,
                                               "payload_timeout")
        assert captured.out == ""
        assert not cache.exists() or not any(cache.iterdir())

    # -3 ran inline, exited 0 and printed workers=-3.
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_campaign_workers_below_one_is_one_error_line(
            self, capsys, tmp_path, workers):
        cache = tmp_path / "cache"
        code = main(["campaign", "--scenarios", "table1_fir",
                     "--wordlengths", "8", "--samples", "2000",
                     "--workers", workers, "--cache-dir", str(cache)])
        captured = self._assert_one_error_line(capsys, code, "--workers")
        assert captured.out == ""
        assert not cache.exists() or not any(cache.iterdir())

    @pytest.mark.parametrize("key, value", [
        ("coefficient_fractional_bits", -2),
        ("coefficient_fractional_bits", "8"),
        ("fractional_bits", 8.7),
        ("integer_bits", 3),
    ])
    def test_evaluate_bad_graph_key_is_one_error_line(self, capsys, tmp_path,
                                                      key, value):
        system = tmp_path / "system.json"
        system.write_text(json.dumps({
            "version": 1, "name": "bad",
            "nodes": [{"name": "x", "type": "input", "fractional_bits": 12},
                      {"name": "g", "type": "gain", "gain": 0.3,
                       "fractional_bits": 8, key: value},
                      {"name": "y", "type": "output"}],
            "edges": [{"source": "x", "target": "g"},
                      {"source": "g", "target": "y"}]}))
        code = main(["evaluate", str(system)])
        captured = self._assert_one_error_line(capsys, code, "'g'", key)
        assert captured.out == ""

    def test_obs_negative_top_is_one_error_line(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps({"traceEvents": [
            {"ph": "X", "name": name, "ts": 0, "dur": duration}
            for name, duration in (("a", 3), ("b", 2), ("c", 1))]}))
        code = main(["obs", str(trace), "--top", "-1"])
        captured = self._assert_one_error_line(capsys, code, "top", "-1")
        assert captured.out == ""

    def test_unknown_backend_rejected_by_argparse(self, capsys):
        # There is no backend flag left to choose with.
        for name in ("fortran", "codegen"):
            with pytest.raises(SystemExit):
                main(["fuzz", "--count", "1", "--backend", name])
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_fuzz_artifact_round_trip_on_forced_failure(self, capsys,
                                                        tmp_path,
                                                        monkeypatch):
        """A fuzz failure prints the reproducing seed, exits non-zero and
        dumps a loadable artifact."""
        from repro.verify import differential

        def broken(graph, plan, **options):
            raise AssertionError("injected engine bug")

        monkeypatch.setitem(differential._CHECKS, "plan_vs_legacy", broken)
        code, out = _run(capsys, [
            "fuzz", "--count", "1", "--seed", "17", "--blocks", "3",
            "--samples", "1152", "--ed-samples", "1152", "--n-psd", "96",
            "--no-shrink", "--artifacts", str(tmp_path)])
        assert code == 1
        assert "seed 17: FAILED" in out
        assert "--seed 17 --count 1" in out
        data = json.loads((tmp_path / "seed17.json").read_text())
        assert data["name"] == "random-sfg-seed17"


class TestStartup:
    """No library path imports scipy: the package depends on NumPy only."""

    @staticmethod
    def _fresh_process(code: str, cwd=None) -> str:
        """Last stdout line of ``python -c code`` in a fresh interpreter."""
        source_root = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": source_root}
        output = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True, env=env,
                                cwd=cwd)
        assert output.returncode == 0, output.stderr
        return output.stdout.strip().splitlines()[-1]

    def test_import_leaves_scipy_signal_unloaded(self):
        assert self._fresh_process(
            "import sys, repro.cli; print('scipy' in sys.modules)") == "False"

    def test_cold_iir_campaign_never_loads_scipy(self, tmp_path):
        # The double leg of an IIR simulation is the bit-true recursion
        # without rounding: no library path imports scipy.
        argv = ["campaign", "--scenarios", "table1_iir", "cascaded_sos_bank",
                "--methods", "simulation", "--wordlengths", "8", "12",
                "--cache-dir", str(tmp_path / "cache")]
        last_line = self._fresh_process(
            "import sys\n"
            "from repro.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print('scipy' in sys.modules)", tmp_path)
        assert last_line == "False"

    def test_simulation_runs_with_scipy_blocked(self, tmp_path):
        builder = SfgBuilder("iir-fir")
        x = builder.input("x", fractional_bits=12)
        h = builder.iir("h", *design_iir_filter(4, 0.3, "lowpass",
                                                "butterworth"),
                        x, fractional_bits=12)
        g = builder.fir("g", design_fir_lowpass(9, 0.4), h,
                        fractional_bits=12)
        builder.output("y", g)
        path = tmp_path / "iir_fir.json"
        save_graph(builder.build(), path)
        last_line = self._fresh_process(
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import numpy as np\n"
            "from repro.cli import main\n"
            "from repro.sfg.plan import compile_plan\n"
            "from repro.sfg.serialization import load_graph\n"
            f"assert main(['compare', {str(path)!r}, '--samples', "
            "'4000']) == 0\n"
            f"plan = compile_plan(load_graph({str(path)!r}))\n"
            "x = np.random.default_rng(0).uniform(-0.9, 0.9, 2000)\n"
            "y = plan.run({'x': x}, mode='double').output('y')\n"
            "assert y.shape == (2000,) and np.isfinite(y).all()\n"
            "print('ok')", tmp_path)
        assert last_line == "ok"
