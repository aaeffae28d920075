"""Table II body (proposed PSD method vs PSD-agnostic) through the public API.

Usage::

    python e2ebench/paper_table2.py --inputs DIR --out table2.json

Reads the frequency-filter stimulus and the image corpus that
``prepare.py paper`` wrote to ``DIR`` and writes every Ed (in percent) to
``--out``.  The body is that of ``benchmarks/test_table2_psd_vs_agnostic.py``:
the frequency-domain filter is simulated once per comparison (three times
on the same stimulus) and the DWT 9/7 codec twice.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.systems.dwt.codec import Dwt97Codec
from repro.systems.freq_filter import FrequencyDomainFilter


def table2(stimulus: np.ndarray, images: list) -> dict:
    system = FrequencyDomainFilter(fractional_bits=12, n_psd=1024)
    ff = {}
    for n_psd, label in ((16, "min_acc"), (1024, "max_acc")):
        comparison = system.compare(stimulus, methods=("psd",), n_psd=n_psd)
        ff[label] = comparison.reports["psd"].ed_percent
    agnostic = system.compare(stimulus, methods=("agnostic",), n_psd=64)
    ff["agnostic"] = agnostic.reports["agnostic"].ed_percent

    codec = Dwt97Codec(fractional_bits=12, levels=2)
    low = codec.compare(images, n_psd=16, methods=("psd",))
    high = codec.compare(images, n_psd=1024, methods=("psd", "agnostic"))
    dwt = {"min_acc": 100.0 * low["methods"]["psd"]["ed"],
           "max_acc": 100.0 * high["methods"]["psd"]["ed"],
           "agnostic": 100.0 * high["methods"]["agnostic"]["ed"]}
    return {"ff": ff, "dwt": dwt}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    stimulus = np.load(f"{args.inputs}/table2_ff.npy")
    images = list(np.load(f"{args.inputs}/table2_images.npy"))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(table2(stimulus, images), handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
