"""The retired ``lower_plan`` name (see :func:`lower_plan`)."""

from __future__ import annotations


def lower_plan(plan):
    """Not implemented: plans are no longer lowered.

    The name exists only because the end-to-end benchmark's tracer
    (``e2ebench/traced.py``) wraps ``repro.simkernel.codegen.lowering:
    lower_plan`` and stops every traced run when the name is missing.  It
    goes when the tracer's entry does.
    """
    raise NotImplementedError(
        "plans are no longer lowered; CompiledPlan.run walks the schedule")
