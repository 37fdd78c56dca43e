"""Lint rule, enforceable without ruff: no bare ``print()`` in the library.

Library code reports through the structured log (``repro.obs.log``), a
renderer's returned string, or the tracer — never stdout: a ``print``
buried in ``src/repro`` corrupts piped artefact output and is invisible
to the merged grid timeline.  Allowed:

* ``src/repro/__main__.py`` — the CLI front end *is* the terminal, and
  ``python -m repro <name>`` is the one command-line entry point of
  every artefact;
* lines carrying an explicit ``# noqa: T201`` opt-out (e.g. the
  trainer's ``verbose=True`` progress output).

CI additionally runs ruff with the T20 (flake8-print) family selected;
this test keeps the rule effective where ruff is not installed.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

ALLOWED_FILES = {SRC / "__main__.py"}


def _print_calls(tree: ast.Module) -> list[int]:
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
    ]


def test_no_bare_print_in_library():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path in ALLOWED_FILES:
            continue
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text, filename=str(path))
        for lineno in _print_calls(tree):
            if "# noqa: T201" in lines[lineno - 1]:
                continue
            offenders.append(f"{path.relative_to(SRC.parent.parent)}:{lineno}")
    assert not offenders, (
        "bare print() in library code (use repro.obs.log, return a "
        "rendered string, or add '# noqa: T201' for deliberate terminal "
        f"output): {offenders}"
    )


def test_rule_catches_a_print(tmp_path):
    # The checker itself must not silently rot: a synthetic module's
    # prints are flagged, inside a main guard too.
    tree = ast.parse(
        "def f():\n    print('x')\n\nif __name__ == \"__main__\":\n"
        "    print('ok')\n"
    )
    assert _print_calls(tree) == [2, 5]
