"""Simulation-engine speedup — legacy loops vs the default backend.

The paper's headline figure (Fig. 6) measures bit-true Monte-Carlo
simulation as the slow reference the PSD estimate is compared against; in
this repository that simulation is itself the wall-clock bottleneck of
everything that uses it as ground truth (differential fuzzing, campaign
``simulation`` jobs, Pareto validation).  This harness pins the speedup
of the simulation kernel layer (:mod:`repro.simkernel`) on exactly the
Fig. 6 F.F. workload:

* the 60 000-sample bit-true simulation of the Fig. 2 frequency-domain
  filter, single stream — the legacy streaming loops (``reference``
  backend) against the default backend, asserted to be **>= 5x** faster
  and bitwise identical;
* a 64-trial batched run of the same system;
* the direct-form IIR recursion of a Table-I filter, single stream and
  64-trial batched, where the default backend's IIR node runs the
  generated recurrence; its single-stream run must be **>= 5x** faster
  than the reference loops, with or without numba;
* every row is asserted bitwise identical to the reference.

Each backend gets one untimed warm-up call before the timed run so
one-time costs (plan compilation, numba JIT compilation when installed)
never pollute the ratios.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.simulation_method import SimulationEvaluator
from repro.data.signals import uniform_white_noise
from repro.simkernel import use_backend
from repro.systems.filter_bank import build_filter_graph, generate_iir_bank
from repro.systems.freq_filter import FrequencyDomainFilter
from repro.utils.tables import TextTable

from conftest import write_bench, write_report


def _time_backends(evaluator, stimulus):
    """Error-signal wall time and output under ``reference`` and the
    default backend, each after one untimed warm-up call."""
    seconds = {}
    outputs = {}
    for backend in ("reference", "fast"):
        with use_backend(backend):
            evaluator.error_signal(stimulus)
            start = time.perf_counter()
            outputs[backend] = evaluator.error_signal(stimulus)
            seconds[backend] = time.perf_counter() - start
    return seconds, outputs


def test_sim_engine_speedup(bench_config, results_dir):
    bits = 12
    samples = bench_config["freq_filter_samples"]  # 60 000 in reduced mode
    trials = 64
    trial_samples = 2048

    workloads = []

    # --- Fig. 6 F.F. single-stream and batched ---------------------------
    system = FrequencyDomainFilter(fractional_bits=bits, n_psd=1024)
    evaluator = SimulationEvaluator(system.evaluator.plan)
    stimulus = {"x": uniform_white_noise(samples, seed=1)}
    ff_seconds, ff_outputs = _time_backends(evaluator, stimulus)
    workloads.append(("F.F. single", samples, ff_seconds, ff_outputs))

    batched = {"x": np.stack([uniform_white_noise(trial_samples, seed=50 + t)
                              for t in range(trials)])}
    ffb_seconds, ffb_outputs = _time_backends(evaluator, batched)
    workloads.append((f"F.F. {trials}-trial", trials * trial_samples,
                      ffb_seconds, ffb_outputs))

    # --- direct-form IIR (the generated recurrence on the default path) --
    graph = build_filter_graph(generate_iir_bank(3)[2], fractional_bits=bits)
    iir_evaluator = SimulationEvaluator(graph)
    iir_stimulus = {"x": uniform_white_noise(samples, seed=3)}
    iir_seconds, iir_outputs = _time_backends(iir_evaluator, iir_stimulus)
    workloads.append(("IIR single", samples, iir_seconds, iir_outputs))

    iir_batched = {"x": np.stack([
        uniform_white_noise(trial_samples, seed=90 + t)
        for t in range(trials)])}
    iirb_seconds, iirb_outputs = _time_backends(iir_evaluator, iir_batched)
    workloads.append((f"IIR {trials}-trial", trials * trial_samples,
                      iirb_seconds, iirb_outputs))

    # --- report -----------------------------------------------------------
    table = TextTable(
        ["workload", "samples", "reference [s]", "default [s]", "speedup"],
        title=(f"simulation-engine speedup ({bench_config['mode']} mode, "
               f"d = {bits}; legacy loops vs the default backend, bitwise "
               "identical outputs)"))
    seconds_payload = {}
    speedup_payload = {}
    for label, size, seconds, outputs in workloads:
        assert np.array_equal(outputs["fast"], outputs["reference"]), \
            f"{label}: the default backend is not bitwise identical"
        key = label.replace(" ", "_").replace(".", "").lower()
        speedup = seconds["reference"] / seconds["fast"]
        table.add_row(label, size, round(seconds["reference"], 4),
                      round(seconds["fast"], 4), round(speedup, 1))
        seconds_payload[f"{key}_reference"] = seconds["reference"]
        seconds_payload[f"{key}_fast"] = seconds["fast"]
        speedup_payload[key] = speedup

    write_report(results_dir, "sim_engine_speedup.txt", table.render())
    write_bench(results_dir, "sim_engine_speedup",
                workload={"ff_samples": samples, "trials": trials,
                          "trial_samples": trial_samples,
                          "fractional_bits": bits},
                seconds=seconds_payload, speedup=speedup_payload,
                tags=("sim", "smoke"))

    # The acceptance claims: the Fig. 6 F.F. bit-true simulation and the
    # single-stream IIR recursion are each at least 5x faster on the
    # default path, with bitwise-identical outputs (asserted above for
    # every workload).
    assert speedup_payload["ff_single"] >= 5.0, \
        (f"F.F. single-stream speedup {speedup_payload['ff_single']:.1f}x "
         "fell below the required 5x")
    assert speedup_payload["ff_64-trial"] > 1.0, \
        "batched F.F. run must beat the legacy loops"
    assert speedup_payload["iir_single"] >= 5.0, \
        (f"IIR single-stream speedup {speedup_payload['iir_single']:.1f}x "
         "fell below the required 5x")
    assert speedup_payload["iir_64-trial"] > 1.0, \
        "batched IIR run must beat the legacy loops"
