"""Library names that nothing outside the tests reaches.

A public function, class or method under ``src/repro`` serves a
pipeline, a command, an example, a benchmark or an end-to-end script; a
name that only its own tests call is code to delete.  The scan leaves
out the ``__init__.py`` files, whose re-exports would read as uses.  It
collects, from the other modules under ``src/repro``, the public
module-level functions and classes and the public methods of public
classes, skipping functions whose decorator is a call (registrations
such as ``@_registered(...)``).  It counts the references in the syntax
trees of the ``.py`` files under ``src/``, ``examples/``,
``benchmarks/`` and ``e2ebench/`` once: names, attributes, imported
names and definitions, plus the qualified-name parts of every string
literal that is a ``package.module:qualname`` path, which is how
``e2ebench/traced.py`` binds functions.  The expressions of an f-string
are code in the tree, so they count; the words of other string
literals, comments and docstrings do not, so a name that only an error
message or prose mentions stays unreached.  A function or class whose
only reference is its definition is unreached.  A method is reached only
through an attribute reference ``.name`` or a part of a binding path: a
bare name (a variable, a parameter, a definition) that shares its word
does not reach it, so a local ``error`` does not hide a method
``error``.

This is a guard, not a proof: a reference is matched by name, not
resolved to its definition, so a name that another definition or an
unrelated attribute shares (``compare``, ``contains``) reads as
reached.  ``ALLOWED`` holds the unreached names that stay, each with
its reason; an entry whose name is gone or reached now is stale and
fails too.
"""

import ast
import re
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "examples", "benchmarks", "e2ebench")
# A whole string literal naming ``package.module:qualname``.
_BINDING_PATH = re.compile(r"[A-Za-z_][\w.]*:([A-Za-z_][\w.]*)")

ALLOWED = {
    "CampaignReport.from_jsonl": "the reader of the runner's JSONL stream",
    "job_key": "the cache tests' one-call form of the content key",
    "MetricsRegistry.count_of":
        "the tests' read accessor on private registries",
    "load_bench_json":
        "the reader of the BENCH payloads that `repro bench` writes",
    "SignalFlowGraph.remove_node":
        "the graph mutation that the plan-cache and evaluator recompile "
        "tests rely on",
    "SfgBuilder.lti":
        "graph JSON carries `lti` nodes, and the serialization, "
        "plan-equivalence and builder tests build their LtiNode fixtures "
        "through it",
}


def _sources(folder: str):
    return (path for path in sorted((ROOT / folder).rglob("*.py"))
            if path.name != "__init__.py")


def _public(node) -> bool:
    if node.name.startswith("_"):
        return False
    return isinstance(node, ast.ClassDef) or not any(
        isinstance(decorator, ast.Call) for decorator in node.decorator_list)


@lru_cache(maxsize=None)
def _definitions() -> tuple:
    """``(qualified name, word)`` of every public definition."""
    return tuple(_walk_definitions())


def _walk_definitions():
    for path in _sources("src"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and _public(node)):
                continue
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item):
                        yield f"{node.name}.{item.name}", item.name


def _references(tree):
    """``(name, attribute)`` for each name a syntax tree references or
    defines: ``attribute`` marks an attribute reference ``.name`` and the
    qualified-name parts of a binding path."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, True
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, False
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            yield node.name, False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            path = _BINDING_PATH.fullmatch(node.value)
            if path is not None:
                for part in path.group(1).split("."):
                    yield part, True


@lru_cache(maxsize=None)
def _words() -> tuple:
    """``(every reference, attribute references)`` as word counts."""
    words, attributes = Counter(), Counter()
    for folder in SCANNED:
        for path in _sources(folder):
            for word, attribute in _references(
                    ast.parse(path.read_text(encoding="utf-8"))):
                words[word] += 1
                attributes[word] += attribute
    return words, attributes


def _reached(name: str, word: str) -> bool:
    words, attributes = _words()
    if "." in name:  # a method
        return attributes[word] > 0
    return words[word] > 1


def test_every_public_name_is_reached():
    unreached = sorted(name for name, word in _definitions()
                       if not _reached(name, word))
    extra = [name for name in unreached if name not in ALLOWED]
    assert not extra, f"reached by no source outside the tests: {extra}"


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_allowed_name_is_still_unreached(name):
    """An entry for a name that is gone, or that a source now reaches,
    is stale: drop it, so that it cannot excuse a later definition."""
    definitions = dict(_definitions())
    assert name in definitions, f"{name} is no longer defined under src/"
    assert not _reached(name, definitions[name]), f"{name} is reached now"
