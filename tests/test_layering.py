"""The package graph of ``src/repro`` is layered: imports flow one way.

Every ``repro`` import under ``src/repro`` is an edge from the importing
package to the imported one, whether it sits at module level or inside a
function.  Each edge must point to a strictly lower layer of
:data:`LAYERS`, which also makes the graph acyclic.  An import inside a
function is allowed only where :data:`LAZY` lists it, and the comment at
the import must give its measured cost.
"""

import ast
import graphlib
import pathlib
import re
from typing import NamedTuple

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: Lowest layer first.  Packages on one line share a layer and may not
#: import each other.  ``repro`` is the package root (``__init__.py``),
#: which re-exports ``core``, ``linalg``, ``nn`` and ``utils``.
LAYERS = [
    ("utils",),
    ("core", "linalg"),
    ("obs",),
    ("faults",),
    ("cache",),
    ("nn",),
    ("datasets", "gpu", "ipu"),
    ("guard",),
    ("bench",),
    ("serve", "experiments"),
    ("verify",),
    ("__main__", "repro"),
]
LAYER = {pkg: level for level, pkgs in enumerate(LAYERS) for pkg in pkgs}

#: The function-level ``repro`` imports: (file under src/repro, module).
LAZY = {
    ("__main__.py", "repro.experiments.chaos"),
    ("__main__.py", "repro.verify.hooks"),
    ("__main__.py", "repro.verify.oracles"),
    ("__main__.py", "repro.verify.runner"),
    ("__main__.py", "repro.serve"),
    ("verify/oracles.py", "repro.bench.parallel"),
    ("verify/oracles.py", "repro.guard"),
}


class Import(NamedTuple):
    file: str  # relative to src/repro
    line: int
    source: str  # the importing package
    module: str  # the imported module
    in_function: bool
    comment: str  # the comment lines right above the import


def _package(module: str) -> str:
    """``repro.ipu.compiler`` -> ``ipu``; the root itself is ``repro``."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else "repro"


def _source_package(rel: str) -> str:
    if rel == "__init__.py":
        return "repro"
    if rel == "__main__.py":
        return "__main__"
    return rel.split("/")[0]


def _imported(node) -> list[str]:
    """The ``repro`` modules an import statement names."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names if a.name.split(".")[0] == "repro"]
    assert node.level == 0, "relative imports are not used in src/repro"
    if node.module == "repro":
        return [f"repro.{a.name}" for a in node.names]
    if node.module.split(".")[0] == "repro":
        return [node.module]
    return []


def _walk(node, in_function=False):
    """Yield ``(import node, in_function)`` for every import under *node*."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child, in_function
        yield from _walk(
            child,
            in_function
            or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)),
        )


def _comment_above(lines: list[str], line: int, import_lines: set) -> str:
    """The comment lines above *line*, skipping the import block it is in."""
    above = line - 1
    while above in import_lines:
        above -= 1
    comment = []
    while lines[above - 1].strip().startswith("#"):
        comment.insert(0, lines[above - 1].strip())
        above -= 1
    return " ".join(comment)


def _imports() -> list[Import]:
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        text = path.read_text()
        lines = text.splitlines()
        nodes = list(_walk(ast.parse(text)))
        import_lines = {
            n
            for node, _ in nodes
            for n in range(node.lineno, node.end_lineno + 1)
        }
        for node, in_function in nodes:
            for module in _imported(node):
                found.append(
                    Import(
                        rel,
                        node.lineno,
                        _source_package(rel),
                        module,
                        in_function,
                        _comment_above(lines, node.lineno, import_lines),
                    )
                )
    return found


IMPORTS = _imports()


def _graph() -> dict[str, set[str]]:
    """Package -> the other packages it imports."""
    graph: dict[str, set[str]] = {}
    for imp in IMPORTS:
        targets = graph.setdefault(imp.source, set())
        if _package(imp.module) != imp.source:
            targets.add(_package(imp.module))
    return graph


def test_every_package_has_a_layer():
    graph = _graph()
    packages = set(graph).union(*graph.values())
    assert packages <= set(LAYER), sorted(packages - set(LAYER))


def test_package_graph_is_acyclic():
    # static_order raises graphlib.CycleError, naming the cycle.
    list(graphlib.TopologicalSorter(_graph()).static_order())


def test_every_import_points_to_a_lower_layer():
    upward = [
        f"{imp.file}:{imp.line}: {imp.source} imports {imp.module}"
        for imp in IMPORTS
        if _package(imp.module) != imp.source
        and LAYER[_package(imp.module)] >= LAYER[imp.source]
    ]
    assert not upward, "\n".join(upward)


def test_obs_and_faults_import_only_their_foundations():
    graph = _graph()
    assert graph["obs"] <= {"utils"}
    assert graph["faults"] <= {"obs", "utils"}


def test_function_level_imports_are_listed():
    lazy = {(imp.file, imp.module) for imp in IMPORTS if imp.in_function}
    assert lazy == LAZY


def test_each_function_level_import_gives_its_measured_cost():
    unexplained = [
        f"{imp.file}:{imp.line}: {imp.module}"
        for imp in IMPORTS
        if imp.in_function and not re.search(r"\d+ ms\b", imp.comment)
    ]
    assert not unexplained, "\n".join(unexplained)
