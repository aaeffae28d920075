"""The codegen backend: plan lowering, tape execution and rebinding.

Covers the whole-plan fusion path of :mod:`repro.simkernel.codegen`:

* backend precedence (explicit override > ``REPRO_SIMD_BACKEND`` >
  auto-detected default) with ``codegen`` in the registry;
* graceful degradation when numba is missing — the op tape runs through
  the NumPy tape interpreter and logs one warning per process (on the
  ``repro.simkernel.codegen`` logger), however many plans are lowered;
* bitwise equality of the codegen backend against the per-node numpy
  walk on every rounding mode, single-trial, batched and ``run_pair``;
* the constants/structure split: requantizing a plan in place rebinds
  only the tape constants (same tape object, same op tuple) and the
  rebound tape is bit-identical to a cold lowering at the new precision;
* unsupported plans (FFT-based frequency-domain FIR) fall back to the
  per-node schedule walk without changing results;
* the packed whole-tape kernel (the numba entry point, exercised here as
  plain Python) against the tape interpreter;
* the ``--backend`` CLI flag on ``fuzz`` and ``bench``.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.cli import main
from repro.data.signals import uniform_white_noise
from repro.fixedpoint.quantizer import RoundingMode
from repro.sfg.builder import SfgBuilder
from repro.sfg.plan import compile_plan
from repro.simkernel import (
    available_backends,
    default_backend,
    get_backend,
    numba_available,
    set_backend,
    use_backend,
)
from repro.simkernel.backend import BACKEND_ENV
from repro.simkernel.codegen import UnsupportedPlanError, lower_plan
from repro.simkernel.codegen import _njit, interpreter
from repro.simkernel.codegen import lowering as lowering_module


def _mixed_graph(bits: int = 10,
                 rounding: str | RoundingMode = RoundingMode.ROUND,
                 name: str = "codegen-mixed"):
    """Every lowerable node type on one path: gain, FIR, IIR, delay,
    adder, decimator and expander."""
    builder = SfgBuilder(name)
    x = builder.input("x", fractional_bits=bits, rounding=rounding)
    g = builder.gain("g", 0.71, x, fractional_bits=bits, rounding=rounding)
    h = builder.fir("h", [0.25, -0.5, 0.125], g,
                    fractional_bits=bits, rounding=rounding)
    v = builder.iir("v", [0.3, 0.2], [1.0, -0.5], h,
                    fractional_bits=bits, rounding=rounding)
    d = builder.delay("d", v, samples=2)
    s = builder.add("s", [d, x], signs=[1.0, -1.0],
                    fractional_bits=bits, rounding=rounding)
    down = builder.downsample("down", s, factor=2, phase=1)
    up = builder.upsample("up", down, factor=3)
    builder.output("y", up)
    return builder.build()


def _stimulus(samples: int = 512, seed: int = 11, trials: int = 0) -> dict:
    if trials:
        return {"x": np.stack([uniform_white_noise(samples, seed=seed + t)
                               for t in range(trials)])}
    return {"x": uniform_white_noise(samples, seed=seed)}


def _run_fixed(plan, stimulus, backend):
    with use_backend(backend):
        return plan.run(stimulus, mode="fixed").output("y")


# ----------------------------------------------------------------------
# Backend precedence and registry
# ----------------------------------------------------------------------
class TestBackendPrecedence:
    def test_codegen_is_always_available(self):
        backends = available_backends()
        assert backends[0] == "reference"
        assert "codegen" in backends
        # codegen is always implemented, independent of numba.
        assert ("numba" in backends) == numba_available()

    def test_explicit_override_beats_environment(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "reference")
        with use_backend("codegen"):
            assert get_backend() == "codegen"
        assert get_backend() == "reference"

    def test_environment_beats_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "codegen")
        assert get_backend() == "codegen"
        monkeypatch.delenv(BACKEND_ENV)
        assert get_backend() == default_backend()

    def test_unknown_backend_error_lists_codegen(self):
        with pytest.raises(ValueError, match="codegen"):
            set_backend("fortran")


# ----------------------------------------------------------------------
# Degradation without numba
# ----------------------------------------------------------------------
class TestNumbaMissingDegradation:
    @pytest.mark.skipif(numba_available(),
                        reason="numba installed; the degradation path is "
                               "inactive")
    def test_lowering_warns_once_and_matches_numpy(self, caplog,
                                                   monkeypatch):
        # Start from a process that has not warned yet (earlier tests may
        # already have lowered plans).
        monkeypatch.setattr(lowering_module, "_numba_missing_warned", False)
        plan = compile_plan(_mixed_graph(name="codegen-warn"))
        other = compile_plan(_mixed_graph(rounding=RoundingMode.TRUNCATE,
                                          name="codegen-warn-other"))
        stimulus = _stimulus()
        expected = _run_fixed(plan, stimulus, "numpy")
        expected_other = _run_fixed(other, stimulus, "numpy")
        with use_backend("codegen"):
            with caplog.at_level(logging.WARNING,
                                 logger="repro.simkernel.codegen"):
                first = plan.run(stimulus, mode="fixed").output("y")
            degradations = [record for record in caplog.records
                            if "numba is not installed" in record.message]
            assert len(degradations) == 1
            assert degradations[0].name == "repro.simkernel.codegen"
            # Once per process: neither re-running the cached tape nor
            # lowering a second, distinct plan warns again.
            caplog.clear()
            with caplog.at_level(logging.WARNING,
                                 logger="repro.simkernel.codegen"):
                again = plan.run(stimulus, mode="fixed").output("y")
                second = other.run(stimulus, mode="fixed").output("y")
            assert other._tape is not None
            assert not caplog.records
        assert np.array_equal(first, expected)
        assert np.array_equal(again, expected)
        assert np.array_equal(second, expected_other)


# ----------------------------------------------------------------------
# Bitwise equality against the per-node walk
# ----------------------------------------------------------------------
class TestCodegenEquality:
    @pytest.mark.parametrize("rounding", list(RoundingMode))
    def test_single_trial_all_rounding_modes(self, rounding):
        graph = _mixed_graph(rounding=rounding,
                             name=f"codegen-{rounding.value}")
        plan = compile_plan(graph)
        stimulus = _stimulus()
        expected = _run_fixed(plan, stimulus, "numpy")
        result = _run_fixed(plan, stimulus, "codegen")
        assert result.shape == expected.shape
        assert np.array_equal(result, expected)

    def test_batched_trials(self):
        plan = compile_plan(_mixed_graph(name="codegen-batched"))
        stimulus = _stimulus(samples=256, trials=5)
        expected = _run_fixed(plan, stimulus, "numpy")
        result = _run_fixed(plan, stimulus, "codegen")
        assert result.shape == expected.shape
        assert np.array_equal(result, expected)

    def test_run_pair_matches_per_node_walk(self):
        plan = compile_plan(_mixed_graph(name="codegen-pair"))
        stimulus = _stimulus()
        with use_backend("numpy"):
            ref_double, ref_fixed = plan.run_pair(stimulus)
        with use_backend("codegen"):
            cg_double, cg_fixed = plan.run_pair(stimulus)
        assert np.array_equal(cg_double.output("y"), ref_double.output("y"))
        assert np.array_equal(cg_fixed.output("y"), ref_fixed.output("y"))

    def test_unquantized_graph_matches(self):
        # step == 0.0 constants: the tape must reproduce the pure
        # double-precision semantics of every node.
        plan = compile_plan(_mixed_graph(bits=None, name="codegen-double"))
        stimulus = _stimulus()
        expected = _run_fixed(plan, stimulus, "numpy")
        result = _run_fixed(plan, stimulus, "codegen")
        assert np.array_equal(result, expected)


# ----------------------------------------------------------------------
# Constants/structure split: requantize rebinds, never re-lowers
# ----------------------------------------------------------------------
class TestTapeRebinding:
    def test_requantize_rebinds_constants_only(self):
        plan = compile_plan(_mixed_graph(bits=12, name="codegen-rebind"))
        stimulus = _stimulus()
        _run_fixed(plan, stimulus, "codegen")
        tape = plan._tape
        assert tape is not None
        ops = tape.ops
        binding = tape.binding

        new_bits = {name: 9 for name in ("x", "g", "h", "v", "s")}
        plan.requantize(new_bits)
        rebound = _run_fixed(plan, stimulus, "codegen")

        # Same tape, same structure, fresh constants.
        assert plan._tape is tape
        assert tape.ops is ops
        assert tape.binding == binding + 1

        # Bit-identical to a cold lowering of a fresh 9-bit graph.
        cold_plan = compile_plan(_mixed_graph(bits=9, name="codegen-cold"))
        cold = _run_fixed(cold_plan, stimulus, "codegen")
        assert cold_plan._tape is not tape
        assert np.array_equal(rebound, cold)
        # And to the per-node walk at the new precision.
        assert np.array_equal(rebound, _run_fixed(plan, stimulus, "numpy"))

    def test_untouched_plan_does_not_rebind(self):
        plan = compile_plan(_mixed_graph(name="codegen-stable"))
        stimulus = _stimulus()
        _run_fixed(plan, stimulus, "codegen")
        binding = plan._tape.binding
        _run_fixed(plan, stimulus, "codegen")
        assert plan._tape.binding == binding


# ----------------------------------------------------------------------
# Unsupported plans fall back to the per-node walk
# ----------------------------------------------------------------------
class TestUnsupportedPlanFallback:
    def test_frequency_domain_filter_falls_back(self):
        from repro.systems.freq_filter import FrequencyDomainFilter

        system = FrequencyDomainFilter(fractional_bits=10, n_psd=256)
        plan = system.evaluator.plan
        stimulus = {"x": uniform_white_noise(512, seed=4)}
        expected = _run_fixed(plan, stimulus, "numpy")
        result = _run_fixed(plan, stimulus, "codegen")
        assert np.array_equal(result, expected)
        # The failed lowering is recorded once; no tape is kept.
        assert plan._tape is None
        assert plan._tape_error is not None
        assert "FrequencyDomainFirNode" in plan._tape_error

    def test_lower_plan_raises_on_unsupported_node(self):
        from repro.systems.freq_filter import FrequencyDomainFilter

        system = FrequencyDomainFilter(fractional_bits=10, n_psd=256)
        with pytest.raises(UnsupportedPlanError, match="cannot be lowered"):
            lower_plan(system.evaluator.plan)


# ----------------------------------------------------------------------
# The packed whole-tape kernel (numba entry point, run as plain Python)
# ----------------------------------------------------------------------
class TestPackedKernel:
    def _tape(self, graph):
        return lower_plan(compile_plan(graph))

    @pytest.mark.parametrize("rounding", list(RoundingMode))
    def test_packed_kernel_matches_interpreter(self, rounding):
        tape = self._tape(_mixed_graph(
            rounding=rounding, name=f"codegen-packed-{rounding.value}"))
        packed = _njit.pack(tape)
        assert packed is not None
        stimulus = _stimulus(samples=192, seed=23)
        signals = _njit._run_packed(tape, packed, _njit.tape_kernel,
                                    stimulus)
        expected = interpreter.run(tape, stimulus)
        for slot, (got, want) in enumerate(zip(signals, expected)):
            assert got.shape == want.shape, f"slot {slot}"
            assert np.array_equal(got, want), f"slot {slot}"

    def test_packed_kernel_matches_interpreter_batched(self):
        tape = self._tape(_mixed_graph(name="codegen-packed-batched"))
        packed = _njit.pack(tape)
        stimulus = _stimulus(samples=128, seed=29, trials=4)
        signals = _njit._run_packed(tape, packed, _njit.tape_kernel,
                                    stimulus)
        expected = interpreter.run(tape, stimulus)
        for slot, (got, want) in enumerate(zip(signals, expected)):
            assert got.shape == want.shape, f"slot {slot}"
            assert np.array_equal(got, want), f"slot {slot}"

    def test_unquantized_filters_are_not_jit_eligible(self):
        # Unquantized FIR/IIR convolutions have no exact-sum argument,
        # so the packed encoding declines them and execution stays on
        # the interpreter.
        tape = self._tape(_mixed_graph(bits=None, name="codegen-nojit"))
        assert _njit.pack(tape) is None

    def test_probe_validates_kernel_bitwise(self):
        tape = self._tape(_mixed_graph(name="codegen-probe"))
        packed = _njit.pack(tape)
        assert _njit._probe(tape, packed, _njit.tape_kernel)


# ----------------------------------------------------------------------
# CLI --backend flag
# ----------------------------------------------------------------------
class TestCliBackendFlag:
    def test_fuzz_runs_under_codegen(self, capsys):
        code = main(["fuzz", "--count", "2", "--seed", "0",
                     "--blocks", "4", "--samples", "1152",
                     "--ed-samples", "4608", "--n-psd", "96",
                     "--backend", "codegen"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "all passed" in out

    @pytest.mark.skipif(numba_available(),
                        reason="numba installed; every backend is "
                               "available")
    def test_unavailable_backend_is_clear_cli_error(self, capsys):
        code = main(["fuzz", "--count", "1", "--backend", "numba"])
        assert code == 1
        err = capsys.readouterr().err
        assert "not available" in err
        assert "codegen" in err

        code = main(["bench", "--names", "sim_engine_iir",
                     "--backend", "numba"])
        assert code == 1
        assert "not available" in capsys.readouterr().err

    def test_unknown_backend_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["fuzz", "--count", "1", "--backend", "fortran"])
        assert "invalid choice" in capsys.readouterr().err
