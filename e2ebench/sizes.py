"""Input sizes of the benchmark workloads.

``full`` is what the benchmark measures.  ``small`` is the smallest size
that still runs every command and every output check; the self-tests use
it.
"""

SCENARIOS = ("cascaded_sos_bank", "dwt97_bank", "fft_butterfly",
             "interpolator_chain", "polyphase_decimator", "random",
             "scalability_bank", "table1_fir", "table1_iir")

SIZES = {
    "full": {
        # All 9 registered scenarios x {psd, simulation} x 7 word lengths
        # = 126 jobs.
        "campaign": {"scenarios": SCENARIOS,
                     "wordlengths": (8, 10, 12, 14, 16, 18, 20)},
        "wordlength": {"branches": 64, "budget": 1e-6,
                       "budget_range": (1e-5, 1e-8, 6)},
        # Sized so that simulation, not the ~1.6 s import, dominates.
        "paper": {"table2_samples": 800_000, "fig5_samples": 400_000,
                  "images": 32, "image_size": 128,
                  "n_psd_sweep": (16, 32, 64, 128, 256, 512, 1024)},
    },
    "small": {
        "campaign": {"scenarios": ("table1_iir", "fft_butterfly"),
                     "wordlengths": (8, 12)},
        "wordlength": {"branches": 4, "budget": 1e-6,
                       "budget_range": (1e-5, 1e-8, 3)},
        "paper": {"table2_samples": 20_000, "fig5_samples": 20_000,
                  "images": 2, "image_size": 64,
                  "n_psd_sweep": (16, 1024)},
    },
}
