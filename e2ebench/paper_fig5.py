"""Fig. 5 body (Ed versus N_PSD) through the public API.

Usage::

    python e2ebench/paper_fig5.py --inputs DIR --out fig5.json [--n-psd 16 ... 1024]

Reads the stimulus and image corpus that ``prepare.py paper`` wrote to
``DIR``, simulates the frequency-domain filter and the DWT 9/7 codec once
each at d = 16 bits, sweeps the PSD method over ``--n-psd`` and writes both
Ed series (in percent) to ``--out``.  The body is that of
``benchmarks/test_fig5_ed_vs_npsd.py``.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.systems.dwt.codec import Dwt97Codec
from repro.systems.freq_filter import FrequencyDomainFilter

BITS = 16


def fig5(stimulus: np.ndarray, images: list, sweep) -> dict:
    system = FrequencyDomainFilter(fractional_bits=BITS, n_psd=1024)
    ff_simulated = system.compare(stimulus, methods=("psd",), n_psd=64)
    ff_power = ff_simulated.simulation.error_power

    codec = Dwt97Codec(fractional_bits=BITS, levels=2)
    dwt_power = codec.simulated_error_power(images)

    ff_series, dwt_series = [], []
    for n_psd in sweep:
        ff_estimate = system.evaluator.estimate("psd", n_psd=n_psd).power
        ff_series.append(100.0 * (ff_power - ff_estimate) / ff_power)
        dwt_estimate = codec.estimate_error_power(n_psd=n_psd, method="psd")
        dwt_series.append(100.0 * (dwt_power - dwt_estimate) / dwt_power)
    return {"n_psd": list(sweep), "ff": ff_series, "dwt": dwt_series}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--n-psd", type=int, nargs="+",
                        default=[16, 32, 64, 128, 256, 512, 1024])
    args = parser.parse_args()
    stimulus = np.load(f"{args.inputs}/fig5_ff.npy")
    images = list(np.load(f"{args.inputs}/fig5_images.npy"))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(fig5(stimulus, images, args.n_psd), handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
