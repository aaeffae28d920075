"""The package names the end-to-end benchmark binds.

``e2ebench/traced.py`` replaces every function and method listed in its
``TARGETS`` with a timing wrapper, and ends a traced run (exit status 3)
when one of them has no binding.  Three names exist only for the
tracer: the retired :func:`repro.simkernel.codegen.lowering.lower_plan`
stub, :meth:`repro.sfg.plan.CompiledPlan.run_pair` and
:func:`repro.psd.estimation.welch_batched`.  The benchmark scripts also
import names from the package (``prepare.py`` records
:func:`repro.simkernel.default_backend`, which only it reads).  This
module pins that every target and every imported name still resolve,
without running a benchmark.
"""

import ast
import importlib
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


def _package_imports():
    """``(script, module, name)`` of every ``import repro...`` and
    ``from repro... import name`` in the benchmark scripts, nested in
    functions too (``name`` is ``None`` for a plain import)."""
    for path in sorted((ROOT / "e2ebench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "repro":
                for alias in node.names:
                    yield path.name, node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "repro":
                        yield path.name, alias.name, None


def test_every_benchmark_import_resolves():
    imports = list(_package_imports())
    assert imports
    missing = []
    for script, module_name, name in imports:
        try:
            module = importlib.import_module(module_name)
            if name is not None and not hasattr(module, name):
                # ``from repro import obs`` names a subpackage.
                importlib.import_module(f"{module_name}.{name}")
        except ImportError:
            missing.append((script, module_name, name))
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
