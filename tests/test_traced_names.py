"""The package names the end-to-end benchmark's tracer wraps.

``e2ebench/traced.py`` replaces every function and method listed in its
``TARGETS`` with a timing wrapper, and ends a traced run (exit status 3)
when one of them has no binding.  Two names exist only for the tracer:
the retired :func:`repro.simkernel.codegen.lowering.lower_plan` stub and
:meth:`repro.sfg.plan.CompiledPlan.run_pair`.  This module pins that they,
and every other target, still resolve, without running a benchmark.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.sfg.builder import SfgBuilder
from repro.sfg.plan import compile_plan

ROOT = Path(__file__).resolve().parents[1]
TRACED = ROOT / "e2ebench" / "traced.py"

# Loads the tracer module from its file (``e2ebench`` is not a package),
# wraps every target and prints the targets left without a binding.
_INSTALL_SCRIPT = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("traced", sys.argv[1])
traced = importlib.util.module_from_spec(spec)
spec.loader.exec_module(traced)
traced.import_package()
bindings = traced.install(traced.Tracer())
print(sorted(target for target, count in bindings.items() if count == 0))
"""


def _load_tracer():
    # Without a bytecode cache, so running the tests leaves the benchmark
    # directory as it is.
    spec = importlib.util.spec_from_file_location("e2ebench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
    return module


def test_every_target_resolves_to_a_callable():
    traced = _load_tracer()
    missing = []
    for _, target in traced.TARGETS:
        try:
            owner, name = traced._resolve(target)
            resolved = getattr(owner, name)
        except (ImportError, AttributeError):
            missing.append(target)
            continue
        if not callable(resolved):
            missing.append(target)
    assert missing == []


def test_install_binds_every_target():
    source = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=source if not path else source + os.pathsep + path)
    result = subprocess.run(
        [sys.executable, "-B", "-c", _INSTALL_SCRIPT, str(TRACED)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_lower_plan_stub_raises():
    from repro.simkernel.codegen.lowering import lower_plan

    builder = SfgBuilder("stub")
    x = builder.input("x", fractional_bits=8)
    builder.output("y", builder.gain("g", 0.5, x, fractional_bits=8))
    plan = compile_plan(builder.build())
    stimulus = {"x": np.linspace(-0.5, 0.5, 32)}
    before = plan.run(stimulus, mode="fixed").output("y")
    with pytest.raises(NotImplementedError, match="no longer lowered"):
        lower_plan(plan)
    # The plan is untouched and still runs by walking its schedule.
    assert np.array_equal(plan.run(stimulus, mode="fixed").output("y"),
                          before)
