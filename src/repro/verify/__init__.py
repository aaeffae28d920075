"""Differential verification and fuzzing.

The fixture suites validate a handful of hand-built systems; this
subpackage turns the same contracts into a harness that can be pointed at
*any* graph — in particular the seeded random graphs of
:mod:`repro.systems.random_graphs` — and run at scale from the ``fuzz``
CLI subcommand:

* :mod:`~repro.verify.legacy` — the naive pre-compiled-plan reference
  traversals (the semantics every engine must reproduce bitwise);
* :mod:`~repro.verify.differential` — the six differential checks on
  one graph: serialization round-trip, plan-vs-legacy bitwise
  equivalence, batched-vs-sequential equality, the analytical-vs-
  simulation ``Ed`` band and incremental-vs-cold bitwise identity;
* :mod:`~repro.verify.fuzz` — the seeded fuzzing driver: verify a seed
  range, shrink every failure to its simplest reproducing generator
  configuration and dump serialized regression artifacts.
"""

from repro.verify.differential import (
    CHECK_NAMES,
    CheckResult,
    GraphVerdict,
    verify_graph,
)
from repro.verify.fuzz import (
    FuzzCase,
    FuzzFailure,
    FuzzReport,
    dump_artifacts,
    run_fuzz,
    shrink_failure,
)
from repro.verify.legacy import (
    legacy_agnostic,
    legacy_flat,
    legacy_psd,
    legacy_run,
    legacy_tracked,
)

__all__ = [
    "CHECK_NAMES",
    "CheckResult",
    "GraphVerdict",
    "verify_graph",
    "FuzzCase",
    "FuzzFailure",
    "FuzzReport",
    "dump_artifacts",
    "run_fuzz",
    "shrink_failure",
    "legacy_agnostic",
    "legacy_flat",
    "legacy_psd",
    "legacy_run",
    "legacy_tracked",
]
