"""Library names that nothing outside the tests reaches.

A public function, class or method under ``src/repro`` serves a
pipeline, a command, an example, a benchmark or an end-to-end script; a
name that only its own tests call is code to delete.  The scan leaves
out the ``__init__.py`` files, whose re-exports would read as uses.  It
collects, from the other modules under ``src/repro``, the public
module-level functions and classes and the public methods of public
classes, skipping functions whose decorator is a call (registrations
such as ``@_registered(...)``).  It counts the words of the code of the
``.py`` files under ``src/``, ``examples/``, ``benchmarks/`` and
``e2ebench/`` once: the names and the words of string literals, not of
comments or docstrings, so a name that only prose mentions stays
unreached.  String literals count because ``e2ebench/traced.py`` binds
functions by their dotted names.  A name whose only occurrence is its
definition is unreached.

This is a guard, not a proof: a word search cannot tell a call from a
mention, so a name that is also a common word (``frequencies``,
``widen``, ``contains``) or that another definition shares reads as
reached.  ``ALLOWED`` holds the unreached names that stay, each with
its reason; an entry whose name is gone or reached now is stale and
fails too.
"""

import ast
import io
import re
import tokenize
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "examples", "benchmarks", "e2ebench")

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


def _docstring_starts(tree) -> set:
    """``(line, column)`` of every module, class and function docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def _code_words(text: str):
    """The names and string-literal words of a source, without its
    comments and docstrings."""
    docstrings = _docstring_starts(ast.parse(text))
    # f-string parts are tokens of their own from Python 3.12 on.
    literal = {tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", None)}
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.NAME:
            yield token.string
        elif token.type in literal and token.start not in docstrings:
            yield from re.findall(r"\w+", token.string)


@lru_cache(maxsize=None)
def _words() -> Counter:
    words = Counter()
    for folder in SCANNED:
        for path in _sources(folder):
            words.update(_code_words(path.read_text(encoding="utf-8")))
    return words


def test_every_public_name_is_reached():
    words = _words()
    unreached = sorted(name for name, word in _definitions()
                       if words[word] == 1)
    extra = [name for name in unreached if name not in ALLOWED]
    assert not extra, f"reached by no source outside the tests: {extra}"


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_allowed_name_is_still_unreached(name):
    """An entry for a name that is gone, or that a source now reaches,
    is stale: drop it, so that it cannot excuse a later definition."""
    definitions = dict(_definitions())
    assert name in definitions, f"{name} is no longer defined under src/"
    assert _words()[definitions[name]] == 1, f"{name} is reached now"
