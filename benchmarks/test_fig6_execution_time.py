"""Fig. 6 — execution time and speed-up versus ``N_PSD``.

The paper measures, for both multi-block systems, the wall-clock time of
the Monte-Carlo simulation and of the proposed estimation as a function of
``N_PSD`` (16 to 4096) and reports speed-ups of 3 to 5 orders of magnitude
with estimation times around a millisecond.

This harness regenerates the same series: simulation time (measured once,
it does not depend on ``N_PSD``), estimation time per ``N_PSD`` value, and
the resulting speed-up.  Absolute values differ from the paper (Python
versus MATLAB, reduced sample counts), but the asserted claims are
shape-level: estimation is always faster than simulation, the speed-up is
at least an order of magnitude (several orders in full mode), and the
estimation time grows sub-linearly-to-linearly with ``N_PSD``.
"""

from __future__ import annotations

import time

from repro.analysis._engine import plan_memo
from repro.data.images import ImageGenerator
from repro.data.signals import uniform_white_noise
from repro.systems.dwt.codec import Dwt97Codec
from repro.systems.freq_filter import FrequencyDomainFilter
from repro.utils.tables import TextTable
from repro.utils.timing import time_callable

from conftest import write_bench, write_report


def test_fig6_execution_time(benchmark, bench_config, results_dir):
    sweep = bench_config["timing_n_psd_sweep"]
    bits = 12

    # --- measure the simulation reference once per system -----------------
    system = FrequencyDomainFilter(fractional_bits=bits, n_psd=1024)
    stimulus = uniform_white_noise(bench_config["freq_filter_samples"], seed=1)
    start = time.perf_counter()
    system.evaluator.simulate({"x": stimulus}, discard_transient=64)
    ff_sim_time = time.perf_counter() - start

    # The timing comparison needs a simulation workload that is at least
    # somewhat representative (the paper's takes hours); even in reduced
    # mode use a reasonable image corpus so the measured speed-up is not an
    # artefact of a degenerate baseline.
    codec = Dwt97Codec(fractional_bits=bits, levels=2)
    images = ImageGenerator(size=max(128, bench_config["dwt_image_size"]),
                            seed=9).corpus(max(8, bench_config["dwt_images"]))
    start = time.perf_counter()
    codec.simulated_error_power(images)
    dwt_sim_time = time.perf_counter() - start

    # --- estimation time versus N_PSD -------------------------------------
    table = TextTable(
        ["N_PSD", "F.F. est. [s]", "F.F. speed-up", "DWT est. [s]",
         "DWT speed-up"],
        title=(f"Fig. 6 — execution time and speed-up versus N_PSD "
               f"({bench_config['mode']} mode; simulation: "
               f"F.F. {ff_sim_time:.2f}s on {len(stimulus)} samples, "
               f"DWT {dwt_sim_time:.2f}s on {len(images)} images)"))

    ff_times = []
    dwt_times = []
    # Fig. 6 reports the cost of a cold estimation; the plan's noise memo
    # is cleared before each one, or the timed repeats would be memo hits
    # and the measured "estimation time" would not be the paper's
    # quantity.
    memo = plan_memo(system.evaluator.plan)

    def cold_estimate(n_psd):
        memo.clear()
        return system.evaluator.estimate("psd", n_psd=n_psd)

    for n_psd in sweep:
        _, ff_time = time_callable(cold_estimate, n_psd, repeat=3)
        _, dwt_time = time_callable(
            lambda: codec.estimate_error_power(n_psd=n_psd, method="psd"),
            repeat=3)
        ff_times.append(ff_time)
        dwt_times.append(dwt_time)
        table.add_row(n_psd, round(ff_time, 5),
                      round(ff_sim_time / ff_time, 1),
                      round(dwt_time, 5),
                      round(dwt_sim_time / dwt_time, 1))

    write_report(results_dir, "fig6_execution_time.txt", table.render())
    write_bench(results_dir, "fig6_execution_time",
                workload={"ff_samples": len(stimulus), "dwt_images": len(images),
                          "n_psd_sweep": list(sweep)},
                seconds={"ff_simulation": ff_sim_time,
                         "dwt_simulation": dwt_sim_time,
                         "ff_estimation_finest": ff_times[-1],
                         "dwt_estimation_finest": dwt_times[-1]},
                speedup={"ff_estimation_vs_simulation":
                         ff_sim_time / min(ff_times),
                         "dwt_estimation_vs_simulation":
                         dwt_sim_time / min(dwt_times)},
                tags=("fig6",))

    # Shape-level claims.
    assert all(t < ff_sim_time for t in ff_times), \
        "estimation must always be faster than simulation (freq. filter)"
    assert all(t < dwt_sim_time for t in dwt_times), \
        "estimation must always be faster than simulation (DWT)"
    assert ff_sim_time / min(ff_times) > 10.0, \
        "speed-up should exceed one order of magnitude even in reduced mode"

    # pytest-benchmark record of the finest-grid (cold) estimation.
    benchmark(cold_estimate, sweep[-1])
