"""Set-up step of the end-to-end benchmark: write one workload's inputs.

Usage::

    python e2ebench/prepare.py WORKLOAD --seed N --scale full|small --out DIR

Runs in a fresh interpreter with the same environment as the measured
commands and writes into ``DIR``:

* ``env.json`` — what the measured commands will see: Python, NumPy and
  SciPy versions, whether numba is importable, and the default simulation
  backend;
* ``campaign``: ``expected_jobs.json``, the content-addressed job keys the
  campaign grid expands to (the output check compares the records against
  them);
* ``wordlength``: ``bank.json``, the serialized scalability bank;
* ``paper``: the Table II / Fig. 5 stimuli and image corpora as ``.npy``
  files, drawn from the seed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

sys.path.insert(0, str(Path(__file__).resolve().parent))
from sizes import SIZES  # noqa: E402


def _environment() -> dict:
    from repro.simkernel import default_backend

    return {"python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
            "default_backend": default_backend()}


def prepare_campaign(size: dict, seed: int, out: Path) -> None:
    from repro.campaign import CampaignSpec, ScenarioSpec, expand_campaign
    from repro.campaign.registry import scenario_names

    missing = sorted(set(size["scenarios"]) - set(scenario_names()))
    if missing:
        raise SystemExit(f"prepare: scenarios not registered: {missing}")
    # The CLI's defaults for everything the benchmark does not pass.
    spec = CampaignSpec(
        scenarios=tuple(ScenarioSpec(name, {}) for name in size["scenarios"]),
        methods=("psd", "simulation"), wordlengths=tuple(size["wordlengths"]),
        n_psd=256, samples=None, seed=seed)
    _prepared, jobs, skipped = expand_campaign(spec)
    (out / "expected_jobs.json").write_text(json.dumps(
        {"keys": sorted(job.key for job in jobs), "skipped": skipped}))


def prepare_wordlength(size: dict, seed: int, out: Path) -> None:
    from repro.sfg.serialization import save_graph
    from repro.systems.families import build_scalability_bank

    save_graph(build_scalability_bank(branches=size["branches"]),
               out / "bank.json")


def prepare_paper(size: dict, seed: int, out: Path) -> None:
    from repro.data.images import ImageGenerator
    from repro.data.signals import uniform_white_noise

    # Distinct streams per figure, all drawn from the workload seed.
    for offset, figure in enumerate(("table2", "fig5")):
        base = 4 * seed + 2 * offset
        np.save(out / f"{figure}_ff.npy",
                uniform_white_noise(size[f"{figure}_samples"], seed=base))
        images = ImageGenerator(size=size["image_size"],
                                seed=base + 1).corpus(size["images"])
        np.save(out / f"{figure}_images.npy", np.stack(images))


PREPARERS = {"campaign": prepare_campaign, "wordlength": prepare_wordlength,
             "paper": prepare_paper}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(PREPARERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "small"), default="full")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = Path(args.out)
    PREPARERS[args.workload](SIZES[args.scale][args.workload], args.seed, out)
    (out / "env.json").write_text(json.dumps(_environment(), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
