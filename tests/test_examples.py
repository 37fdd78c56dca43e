"""Every example under ``examples/`` imports cleanly.

The examples are one of the package's entry points, so removing or
renaming a public name they use must fail tier-1.  Running them with a
``run_name`` other than ``"__main__"`` executes their imports and
definitions but not their ``main()``; CI runs the quick ones end to end.
"""

import pathlib
import runpy

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[1] / "examples").glob("*.py")
)


def test_examples_found():
    assert EXAMPLES, "no examples/*.py next to tests/"


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports(path):
    namespace = runpy.run_path(str(path), run_name="example")
    assert callable(namespace["main"])
