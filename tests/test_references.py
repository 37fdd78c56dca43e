"""Every function, method and class of ``src/repro`` is read by the program.

A definition that only tests read is code no artefact, example,
benchmark or CLI command runs: it widens the API, and the tests that pin
it check nothing a user can reach.  This test scans ``src/repro`` and
fails on any function, method or class that no code in ``src/repro``,
``examples/``, ``benchmarks/`` or ``perf/`` reads.  Such a definition
goes, together with the tests whose only subject it is.

The scan is deliberately coarse, so that it never flags a live name:

* any name counts as read wherever an attribute access ``x.name`` has
  it, whatever ``x`` is, and wherever a ``perf/`` target string
  (``"module:Class.method"``) names it;
* a module-level function or class also counts as read wherever a bare
  name or an import names it;
* ``__all__`` entries and docstrings are plain strings and do not count;
  dunder methods are skipped, since Python calls them.

A definition no code reads may stay only where :data:`KEEP` names it
with one of the reasons below.
"""

import ast
import re
from typing import NamedTuple

from tests.test_options import CALLERS, ROOT, SRC, _parse

#: Python or numpy calls the name.
PROTOCOL = "called by Python or numpy"
#: A test compares production code against it.
REFERENCE = "the reference a test checks production code against"
#: Tests build their inputs with it; deleting it would only move its
#: body into the tests.
FIXTURE = "builds test inputs"
#: It goes with the compilation cache (ROADMAP item 6).
CACHE = "goes with the compilation cache"

#: ``module:qualname`` -> why no code outside tests reads it.
KEEP = {
    # tests/core/test_pixelfly.py checks the closed-form
    # pixelfly_param_count against it.
    "core.pixelfly:PixelflyPattern.total_params": REFERENCE,
    "linalg.sparse:CSRMatrix.from_dense": FIXTURE,
    "linalg.sparse:COOMatrix.from_dense": FIXTURE,
    # tests/cache and tests/ipu/test_planned_compile.py key on it.
    "ipu.compiler:compile_cache_key": CACHE,
}

#: A ``perf/layers.py`` target: ``module:qualname``.
TARGET = re.compile(r"[\w.]+:([\w.]+)")


class Definition(NamedTuple):
    key: str  # module:qualname
    name: str
    method: bool  # defined in a class body


def definitions(tree: ast.Module, module: str) -> list[Definition]:
    """Module-level functions and classes, and methods of those classes."""
    out: list[Definition] = []

    def visit(body, prefix: str, method: bool) -> None:
        for node in body:
            if not isinstance(
                node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if not (node.name.startswith("__") and node.name.endswith("__")):
                out.append(
                    Definition(f"{module}:{prefix}{node.name}", node.name,
                               method)
                )
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.", True)

    visit(tree.body, "", False)
    return out


def reads(tree: ast.Module, targets: bool) -> tuple[set[str], set[str]]:
    """(names read as attributes or, with *targets*, named by a target
    string; bare names and imported names)."""
    attributes: set[str] = set()
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif (targets and isinstance(node, ast.Constant)
                and isinstance(node.value, str)):
            match = TARGET.fullmatch(node.value)
            if match:
                attributes.update(match[1].split("."))
    return attributes, names


def unread(defs: list[Definition], attributes: set[str],
           names: set[str]) -> list[str]:
    return [
        d.key for d in defs
        if d.name not in attributes and (d.method or d.name not in names)
    ]


def _scan() -> list[str]:
    defs = []
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        defs += definitions(_parse(path), module)
    attributes: set[str] = set()
    names: set[str] = set()
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            read_attributes, read_names = reads(_parse(path), top == "perf")
            attributes |= read_attributes
            names |= read_names
    return unread(defs, attributes, names)


def test_every_definition_is_read_outside_tests():
    dead = [key for key in _scan() if key not in KEEP]
    assert not dead, (
        "functions, methods or classes that no code outside tests/ reads; "
        "delete each with the tests whose only subject it is (or name it "
        f"in KEEP with its reason): {dead}"
    )


def test_keep_entries_are_live():
    dead = set(_scan())
    assert set(KEEP.values()) <= {PROTOCOL, REFERENCE, FIXTURE, CACHE}
    stale = sorted(key for key in KEEP if key not in dead)
    assert not stale, f"KEEP names definitions some code now reads: {stale}"


def test_scan_flags_an_unread_definition():
    # The scan itself must not silently rot: in a synthetic module, a
    # method read as an attribute, a method a target string names, an
    # imported function and a dunder pass; a method nobody reads and a
    # function only __all__ and a docstring name are flagged.
    tree = ast.parse(
        '"""g is documented here."""\n'
        "from m import f\n"
        '__all__ = ["g"]\n'
        "class C:\n"
        "    def read(self):\n"
        "        pass\n"
        "    def traced(self):\n"
        "        pass\n"
        "    def unread(self):\n"
        "        pass\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "def f():\n"
        "    pass\n"
        "def g():\n"
        "    pass\n"
        "unread = C().read()\n"
        'TARGET = "m:C.traced"\n'
    )
    assert unread(definitions(tree, "t"), *reads(tree, targets=True)) == [
        "t:C.unread", "t:g",
    ]
    # Outside perf/ a target string is just a string.
    assert "t:C.traced" in unread(
        definitions(tree, "t"), *reads(tree, targets=False)
    )
