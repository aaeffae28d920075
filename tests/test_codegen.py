"""The op tape: plan lowering, tape execution and rebinding.

Covers the fixed-point path of the default backend
(:mod:`repro.simkernel.codegen`):

* the tape is always available and the ``reference`` override keeps the
  per-node walk;
* without numba the op tape runs through the NumPy tape interpreter
  silently — it is the normal path, not a degradation;
* bitwise equality of the tape against the ``reference`` walk on every
  rounding mode, single-trial, batched and ``run_pair``;
* the constants/structure split: requantizing a plan in place rebinds
  only the tape constants (same tape object, same op tuple) and the
  rebound tape is bit-identical to a cold lowering at the new precision;
* unsupported plans (FFT-based frequency-domain FIR) fall back to the
  per-node schedule walk without changing results;
* the packed whole-tape kernel (the numba entry point, exercised here as
  plain Python) against the tape interpreter;
* the CLI fuzz on the default path, and the retired ``--backend`` flag.
"""

from __future__ import annotations

import json
import logging

import numpy as np
import pytest

from repro.cli import main
from repro.data.signals import uniform_white_noise
from repro.fixedpoint.quantizer import RoundingMode
from repro.sfg.builder import SfgBuilder
from repro.sfg.plan import compile_plan
from repro.simkernel import use_backend
from repro.simkernel.codegen import UnsupportedPlanError, lower_plan
from repro.simkernel.codegen import _njit, interpreter


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
# Backend precedence
# ----------------------------------------------------------------------
class TestBackendPrecedence:
    def test_codegen_is_always_available(self):
        # The tape needs no optional dependency: a default fixed run
        # lowers the plan whether or not numba is installed.
        plan = compile_plan(_mixed_graph(name="codegen-available"))
        _run_fixed(plan, _stimulus(samples=64), "fast")
        assert plan._tape is not None
        assert plan._tape_error is None

    def test_reference_override_keeps_the_walk(self):
        plan = compile_plan(_mixed_graph(name="codegen-override"))
        stimulus = _stimulus(samples=64)
        with use_backend("reference"):
            plan.run(stimulus, mode="fixed")
            plan.run_pair(stimulus)
        assert plan._tape is None
        plan.run(stimulus, mode="fixed")
        assert plan._tape is not None


# ----------------------------------------------------------------------
# Without numba the interpreter is the normal path, not a degradation
# ----------------------------------------------------------------------
class TestSilentLowering:
    def test_lowering_is_silent_and_matches_reference(self, caplog):
        plan = compile_plan(_mixed_graph(name="codegen-silent"))
        other = compile_plan(_mixed_graph(rounding=RoundingMode.TRUNCATE,
                                          name="codegen-silent-other"))
        stimulus = _stimulus()
        with caplog.at_level(logging.DEBUG):
            first = _run_fixed(plan, stimulus, "fast")
            second = _run_fixed(other, stimulus, "fast")
        assert plan._tape is not None and other._tape is not None
        assert not caplog.records
        assert np.array_equal(first, _run_fixed(plan, stimulus, "reference"))
        assert np.array_equal(second,
                              _run_fixed(other, stimulus, "reference"))


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
        expected = _run_fixed(plan, stimulus, "reference")
        result = _run_fixed(plan, stimulus, "fast")
        assert result.shape == expected.shape
        assert np.array_equal(result, expected)

    def test_batched_trials(self):
        plan = compile_plan(_mixed_graph(name="codegen-batched"))
        stimulus = _stimulus(samples=256, trials=5)
        expected = _run_fixed(plan, stimulus, "reference")
        result = _run_fixed(plan, stimulus, "fast")
        assert result.shape == expected.shape
        assert np.array_equal(result, expected)

    def test_run_pair_matches_per_node_walk(self):
        plan = compile_plan(_mixed_graph(name="codegen-pair"))
        stimulus = _stimulus()
        with use_backend("reference"):
            ref_double, ref_fixed = plan.run_pair(stimulus)
        cg_double, cg_fixed = plan.run_pair(stimulus)
        assert np.array_equal(cg_double.output("y"), ref_double.output("y"))
        assert np.array_equal(cg_fixed.output("y"), ref_fixed.output("y"))

    def test_unquantized_graph_matches(self):
        # step == 0.0 constants: the tape must reproduce the pure
        # double-precision semantics of every node.
        plan = compile_plan(_mixed_graph(bits=None, name="codegen-double"))
        stimulus = _stimulus()
        expected = _run_fixed(plan, stimulus, "reference")
        result = _run_fixed(plan, stimulus, "fast")
        assert np.array_equal(result, expected)


# ----------------------------------------------------------------------
# Constants/structure split: requantize rebinds, never re-lowers
# ----------------------------------------------------------------------
class TestTapeRebinding:
    def test_requantize_rebinds_constants_only(self):
        plan = compile_plan(_mixed_graph(bits=12, name="codegen-rebind"))
        stimulus = _stimulus()
        _run_fixed(plan, stimulus, "fast")
        tape = plan._tape
        assert tape is not None
        ops = tape.ops
        binding = tape.binding

        new_bits = {name: 9 for name in ("x", "g", "h", "v", "s")}
        plan.requantize(new_bits)
        rebound = _run_fixed(plan, stimulus, "fast")

        # Same tape, same structure, fresh constants.
        assert plan._tape is tape
        assert tape.ops is ops
        assert tape.binding == binding + 1

        # Bit-identical to a cold lowering of a fresh 9-bit graph.
        cold_plan = compile_plan(_mixed_graph(bits=9, name="codegen-cold"))
        cold = _run_fixed(cold_plan, stimulus, "fast")
        assert cold_plan._tape is not tape
        assert np.array_equal(rebound, cold)
        # And to the per-node walk at the new precision.
        assert np.array_equal(rebound, _run_fixed(plan, stimulus, "reference"))

    def test_untouched_plan_does_not_rebind(self):
        plan = compile_plan(_mixed_graph(name="codegen-stable"))
        stimulus = _stimulus()
        _run_fixed(plan, stimulus, "fast")
        binding = plan._tape.binding
        _run_fixed(plan, stimulus, "fast")
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
        expected = _run_fixed(plan, stimulus, "reference")
        result = _run_fixed(plan, stimulus, "fast")
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

    def test_tapped_tapes_are_not_jit_eligible(self):
        # The packed encoding has no per-input quantizers: a tape with an
        # edge tap stays on the interpreter.
        plan = compile_plan(_mixed_graph(name="codegen-tapped-nojit"))
        plan.requantize({"x->s": 7})
        assert _njit.pack(lower_plan(plan)) is None

    def test_probe_validates_kernel_bitwise(self):
        tape = self._tape(_mixed_graph(name="codegen-probe"))
        packed = _njit.pack(tape)
        assert _njit._probe(tape, packed, _njit.tape_kernel)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCliBackendFlag:
    def test_fuzz_runs_under_codegen(self, capsys, tmp_path):
        metrics = tmp_path / "metrics.json"
        code = main(["fuzz", "--count", "2", "--seed", "0",
                     "--blocks", "4", "--samples", "1152",
                     "--ed-samples", "4608", "--n-psd", "96",
                     "--metrics", str(metrics)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "all passed" in out
        counts = json.loads(metrics.read_text())["metrics"]
        assert any(name.startswith("tape.executions") and value > 0
                   for name, value in counts.items())

    def test_unknown_backend_rejected_by_argparse(self, capsys):
        # There is no backend flag left to choose with.
        for name in ("fortran", "codegen"):
            with pytest.raises(SystemExit):
                main(["fuzz", "--count", "1", "--backend", name])
            assert "unrecognized arguments" in capsys.readouterr().err
