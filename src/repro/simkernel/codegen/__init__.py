"""Plan-to-tape lowering: the fixed-point path of the ``fast`` backend.

Lowers whole :class:`~repro.sfg.plan.CompiledPlan` schedules into linear
op tapes (:mod:`repro.simkernel.codegen.lowering`) executed either by
the always-available NumPy tape interpreter
(:mod:`repro.simkernel.codegen.interpreter`) or, when numba is
importable, by a single fused JIT kernel
(:mod:`repro.simkernel.codegen._njit`).  Every fixed-point run of a
lowerable plan uses it unless ``use_backend("reference")`` is active;
see ARCHITECTURE.md, "Simulation engine".
"""

from repro.simkernel.codegen.lowering import (
    PlanTape,
    TapeOp,
    UnsupportedPlanError,
    lower_plan,
)

__all__ = [
    "PlanTape",
    "TapeOp",
    "UnsupportedPlanError",
    "lower_plan",
]
