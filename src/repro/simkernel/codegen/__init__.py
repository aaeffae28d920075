"""Retired plan lowering.

Every bit-true run walks the plan's schedule (:meth:`repro.sfg.plan.
CompiledPlan.run`); nothing is lowered any more.  Only the name
:func:`repro.simkernel.codegen.lowering.lower_plan` remains.
"""
