"""Simulation-based (Monte-Carlo) accuracy evaluation.

This is the reference method of the paper: the system is executed twice on
the same stimulus — once in IEEE double precision (standing in for infinite
precision) and once in bit-true fixed point — and the output quantization
noise is the difference of the two runs.  Its power is the ground truth
``E[err_sim^2]`` of the deviation metric ``Ed`` (Eq. 15), and its Welch
spectrum is the ground truth for the frequency-repartition comparison of
Fig. 7.

The evaluator runs a :class:`~repro.sfg.graph.SignalFlowGraph` through its
:class:`~repro.sfg.plan.CompiledPlan` (or takes the plan directly): every
measurement, of one configuration or of a stack of them, is one
``run(mode="double")`` leg — the reference, memoized per coefficient
state and stimulus — and one ``run(mode="fixed")`` leg.  The plan also
keeps the last error record :meth:`SimulationEvaluator.error_signal`
measured, so consecutive measurements of one configuration on one
stimulus run the two legs once.  A stimulus is one 1-D stream per input.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.analysis.metrics import noise_power
from repro.analysis.psd_method import check_n_psd
from repro.obs import metric_inc, span
from repro.psd.estimation import welch
from repro.psd.spectrum import DiscretePsd
from repro.sfg.graph import SignalFlowGraph
from repro.sfg.plan import CompiledPlan, compile_plan


# ----------------------------------------------------------------------
# Reference-run memo
# ----------------------------------------------------------------------
# The double-precision reference run only depends on the plan's
# coefficient fingerprint and the stimulus content — not on the data-path
# word lengths the optimizer actually searches over — so it is cached on
# the plan (shared by every evaluator of the same plan) and the memoized
# error measurement reruns only the bit-true pass.  The two legs are
# independent ``plan.run`` calls either way, so a cached reference paired
# with a fresh fixed run is bit-identical to a fresh measurement.
# Bounded LRU: reference records are sample-sized arrays.
_REFERENCE_MEMO_ATTRIBUTE = "_reference_memo"
REFERENCE_MEMO_LIMIT = 8


def _reference_memo(plan: CompiledPlan) -> OrderedDict:
    memo = getattr(plan, _REFERENCE_MEMO_ATTRIBUTE, None)
    if memo is None:
        memo = OrderedDict()
        setattr(plan, _REFERENCE_MEMO_ATTRIBUTE, memo)
    return memo


def content_digest(named_arrays) -> str:
    """Digest of ``(name, array)`` pairs, in order: names, shapes, values.

    Values are hashed as float64, so an integer array and its float copy
    share a digest.  The memo keys of the simulation evaluator (stimuli)
    and of :class:`~repro.systems.dwt.codec.Dwt97Codec` (image lists) are
    built from it.
    """
    digest = hashlib.sha1()
    for name, value in named_arrays:
        value = np.ascontiguousarray(np.asarray(value, dtype=float))
        digest.update(name.encode())
        digest.update(repr(value.shape).encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


def _stimulus_digest(stimulus: dict) -> str:
    """Content digest of a normalized stimulus mapping."""
    return content_digest((name, stimulus[name]) for name in sorted(stimulus))


# ----------------------------------------------------------------------
# Last-measurement memo
# ----------------------------------------------------------------------
# Consecutive comparisons of one configuration on one stimulus (Table II
# scores three estimates against one simulation) measure the same error
# record, so the plan keeps the last one ``error_signal`` measured as a
# single ``(key, record)`` entry.  One entry, not an LRU: each record is
# stimulus-sized.  It holds the error record, not the fixed output: the
# record is alive during Welch anyway, where the peak memory is.
_ERROR_MEMO_ATTRIBUTE = "_error_memo"


#: Largest data-path fractional word length a bit-true run can measure.
#: A unit-range double has no grid finer than 2^-52, so past it the fixed
#: leg equals the double leg and the measured error power is 0.
MAX_SIMULATED_FRACTIONAL_BITS = 52


def data_path_word_lengths(graph: SignalFlowGraph) -> dict:
    """``{name: fractional bits}`` of every data-path quantizer of ``graph``.

    Node outputs (inputs included) are keyed by node name, fanout taps
    by their ``"source->target"`` edge key; unquantized nodes map to
    ``None``.  Coefficient word lengths are not data-path quantizers:
    both legs of a simulation share the quantized coefficients.
    """
    word_lengths = {}
    for name, node in graph.nodes.items():
        spec = node.quantization
        word_lengths[name] = spec.fractional_bits
        for target, bits in spec.edge_fractional_bits:
            word_lengths[f"{name}->{target}"] = bits
    return word_lengths


def check_simulated_word_lengths(word_lengths: dict) -> None:
    """Reject data-path word lengths a bit-true simulation cannot measure.

    ``word_lengths`` maps node names and edge keys to fractional bits
    (``None`` when unquantized), as :func:`data_path_word_lengths` and
    :meth:`~repro.sfg.plan.ConfigStack.resolved` return them.  Raises a
    ``ValueError`` naming the first quantizer past
    :data:`MAX_SIMULATED_FRACTIONAL_BITS`.
    """
    for name, bits in word_lengths.items():
        if bits is not None and bits > MAX_SIMULATED_FRACTIONAL_BITS:
            kind = "edge" if "->" in name else "node"
            raise ValueError(
                f"{kind} {name!r} quantizes to {bits} fractional bits; a "
                "bit-true simulation resolves at most "
                f"{MAX_SIMULATED_FRACTIONAL_BITS} (a unit-range double has "
                "no finer grid, so the fixed run would equal the "
                "double-precision reference)")


def _check_measurement(n_psd: int | None, discard_transient: int) -> None:
    if n_psd is not None:
        check_n_psd(n_psd)
    if discard_transient < 0:
        raise ValueError(
            f"discard_transient must be non-negative, got {discard_transient}")


@dataclass
class SimulationResult:
    """Outcome of one simulation-based evaluation.

    Attributes
    ----------
    error_power:
        Measured output quantization-noise power ``E[e^2]``.
    error_mean:
        Measured mean of the output error.
    error_psd:
        Welch estimate of the error PSD (``None`` unless requested).
    num_samples:
        Number of output samples used for the measurement.
    """

    error_power: float
    error_mean: float
    error_psd: DiscretePsd | None
    num_samples: int

    @property
    def error_variance(self) -> float:
        """Variance of the output error."""
        return self.error_power - self.error_mean ** 2


class SimulationEvaluator:
    """Monte-Carlo evaluation of the output quantization noise.

    ``system`` is a :class:`SignalFlowGraph` (compiled with
    :func:`~repro.sfg.plan.compile_plan`) or a :class:`CompiledPlan`.
    Every measurement first applies :func:`check_simulated_word_lengths`
    to the configurations it measures, before either leg runs.
    """

    def __init__(self, system: SignalFlowGraph | CompiledPlan):
        self.plan = compile_plan(system)

    # ------------------------------------------------------------------
    # Error signal
    # ------------------------------------------------------------------
    def error_signal(self, stimulus, output: str | None = None) -> np.ndarray:
        """Output error record (fixed-point output minus reference output).

        The record is read-only.  The plan keeps the last one measured:
        a repeated call with the same coefficients, quantizers, stimulus
        and output returns it without running either leg.

        Parameters
        ----------
        stimulus:
            Mapping from input-node name to its sample vector (a bare
            array is accepted for single-input graphs).
        output:
            Output-node name for multi-output graphs.
        """
        plan = self.plan
        stimulus = self._normalize_stimulus(stimulus)
        output = plan.resolve_output(output)
        check_simulated_word_lengths(data_path_word_lengths(plan.graph))
        digest = _stimulus_digest(stimulus)
        # The one refresh of the call: the legs run the plan as it stands,
        # and the key reads the quantization signature it recorded.
        plan.refresh()
        # Everything the two legs read.
        key = (plan.coefficient_fingerprint(),
               plan._quantization_signature, digest, output)
        with span("sim.error_signal", output=output) as sim_span:
            memo = getattr(plan, _ERROR_MEMO_ATTRIBUTE, None)
            hit = memo is not None and memo[0] == key
            sim_span.set(error_cached=hit)
            if hit:
                metric_inc("sim.error_memo.hits")
                return memo[1]
            metric_inc("sim.error_memo.misses")
            reference, cached = self._reference(stimulus, digest, output)
            sim_span.set(reference_cached=cached)
            error = self._fixed_error(stimulus, reference, output)
            error.flags.writeable = False
            setattr(plan, _ERROR_MEMO_ATTRIBUTE, (key, error))
            return error

    def evaluate(self, stimulus, output: str | None = None,
                 n_psd: int | None = None,
                 discard_transient: int = 0) -> SimulationResult:
        """Measure the output quantization noise on one stimulus.

        Parameters
        ----------
        stimulus:
            Input samples (see :meth:`error_signal`).
        output:
            Output-node name for multi-output graphs.
        n_psd:
            When given, also estimate the error PSD on that many bins
            (at least 2).
        discard_transient:
            Number of leading output samples to drop before measuring
            (filters have a start-up transient during which the noise is
            not yet stationary).
        """
        _check_measurement(n_psd, discard_transient)
        error = self.error_signal(stimulus, output=output)
        return self._measure(error, n_psd, discard_transient)

    def evaluate_batch(self, assignments, stimulus,
                       output: str | None = None,
                       n_psd: int | None = None,
                       discard_transient: int = 0) -> list[SimulationResult]:
        """Measure a stack of word-length assignments on one stimulus.

        The configuration axis of the analytical engines, for the
        Monte-Carlo reference: the stack is grouped by effective
        coefficient precision and the double-precision reference is run
        *once per group* (the reference only depends on the quantized
        coefficients), so ``K`` configs sharing coefficients cost
        ``1 + K`` runs instead of ``2 K``.  The plan's quantization
        state is restored afterwards.  Resolving the stack refreshes the
        plan once; the legs run it as the requantizes leave it.

        Parameters
        ----------
        assignments:
            Sequence of ``{node name: fractional bits}`` mappings, as for
            the batched analytical evaluations.
        stimulus, output, n_psd, discard_transient:
            As for :meth:`evaluate`.

        Returns
        -------
        list of SimulationResult
            One measurement per assignment, in order.
        """
        _check_measurement(n_psd, discard_transient)
        plan = self.plan
        output = plan.resolve_output(output)
        stack = plan.config_stack(assignments)
        for k in range(stack.size):
            check_simulated_word_lengths(stack.resolved(k))
        stimulus = self._normalize_stimulus(stimulus)
        digest = _stimulus_digest(stimulus)
        results: list[SimulationResult | None] = [None] * stack.size
        with span("sim.evaluate_batch", configs=stack.size,
                  output=output), plan.preserve_quantization():
            for members in stack.coefficient_groups().values():
                plan.requantize(stack.resolved(members[0]),
                                allow_enable=True)
                reference, _ = self._reference(stimulus, digest, output)
                for k in members:
                    plan.requantize(stack.resolved(k), allow_enable=True)
                    error = self._fixed_error(stimulus, reference, output)
                    results[k] = self._measure(error, n_psd,
                                               discard_transient)
        return results

    # ------------------------------------------------------------------
    # The two legs of a measurement
    # ------------------------------------------------------------------
    def _reference(self, stimulus: dict, digest: str,
                   output: str) -> tuple[np.ndarray, bool]:
        """Double-precision output of the plan's current coefficient state.

        Served from the plan's reference memo when a record of the
        stimulus ``digest`` is there; the second value tells whether it
        was.  The plan must be refreshed already: the legs do not
        refresh it.
        """
        plan = self.plan
        memo = _reference_memo(plan)
        key = (plan.coefficient_fingerprint(), digest, output)
        reference = memo.get(key)
        if reference is not None:
            memo.move_to_end(key)
            metric_inc("sim.reference_memo.hits")
            return reference, True
        metric_inc("sim.reference_memo.misses")
        reference = plan._run(stimulus, "double").output(output)
        memo[key] = reference
        while len(memo) > REFERENCE_MEMO_LIMIT:
            memo.popitem(last=False)
        return reference, False

    def _fixed_error(self, stimulus: dict, reference: np.ndarray,
                     output: str) -> np.ndarray:
        """Bit-true output of the plan's current state minus ``reference``."""
        fixed = self.plan._run(stimulus, "fixed").output(output)
        if reference.shape != fixed.shape:
            # Both modes run the same schedule on the same stimulus, so a
            # length mismatch can only be a node implementation bug.
            raise ValueError(
                "reference and fixed-point outputs have different shapes: "
                f"{reference.shape} vs {fixed.shape}")
        return fixed - reference

    def _measure(self, error: np.ndarray, n_psd: int | None,
                 discard_transient: int) -> SimulationResult:
        if discard_transient:
            if discard_transient >= len(error):
                raise ValueError(
                    f"cannot discard {discard_transient} samples from a "
                    f"record of length {len(error)}")
            error = error[discard_transient:]
        psd = welch(error, n_psd) if n_psd is not None else None
        return SimulationResult(
            error_power=noise_power(error),
            error_mean=float(np.mean(error)),
            error_psd=psd,
            num_samples=error.size,
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _normalize_stimulus(self, stimulus) -> dict:
        if isinstance(stimulus, dict):
            return stimulus
        input_names = self.plan.input_names
        if len(input_names) != 1:
            raise ValueError(
                "a bare stimulus array is only accepted for single-input "
                f"graphs; this graph has inputs {list(input_names)}")
        return {input_names[0]: stimulus}
