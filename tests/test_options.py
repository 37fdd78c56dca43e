"""Every defaulted parameter is one that some caller sets.

A default that no call outside ``tests/`` overrides is a constant in
disguise: it widens the signature, keeps alive a branch no artefact
takes, and lets a test configure what no user can.  This test scans the
functions and methods of ``src/repro`` that some caller in ``src/repro``,
``examples/``, ``benchmarks/`` or ``perf/`` calls, and fails on any
defaulted parameter that none of those calls sets.  Such a parameter
becomes a module constant (a test that needs another value monkeypatches
the constant) or goes, together with the branch it selects.

The scan is deliberately coarse, so that it never misses a caller:

* a call is matched to every definition of the same name (``f(...)`` and
  ``x.f(...)`` both call every ``f``; ``C(...)`` calls ``C.__init__``;
  ``super().__init__(...)`` calls the bases' ``__init__``;
  ``partial(f, ...)`` calls ``f``, and ``Parameter.drawn(f, shape,
  **kw)`` calls ``f(shape, **kw)``);
* a call sets a parameter by keyword or by position, and a call with
  ``*args`` sets every positional parameter.  A ``**kwargs`` argument
  sets none: were it to count, one forwarding call would hide every
  unset default of every same-named function;
* autograd ``forward``/``backward`` are skipped: ``Function.apply``
  reaches them with ``*args``, never by name.

A parameter no caller sets may stay only where :data:`KEEP` names it
with one of the reasons below.
"""

import ast
import pathlib
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CALLERS = ("src/repro", "examples", "benchmarks", "perf")
GOLDEN_TEST = ROOT / "tests" / "ipu" / "test_ir_golden.py"

#: ``tests/ipu/test_ir_golden.py`` passes it; that file pins the IR.
GOLDEN = "pinned by test_ir_golden.py"
#: The fuzzer draws it, or an oracle uses it as its reference.
FUZZER = "drawn by the fuzzer or an oracle's reference"
#: A protocol fixes the signature (grid worker, null twin, log level).
PROTOCOL = "signature fixed by a protocol"
#: ``perf/`` reads it by position or attribute, not as a keyword.
PERF = "read by perf/"
#: The tile layout of a graph variable: not a behaviour switch but part
#: of the IR, which the compiler, liveness, planner and fingerprint read.
IR_LAYOUT = "tile layout of the IR"

#: ``module:qualname(param)`` -> why no caller outside tests sets it.
KEEP = {
    "ipu.graph:Graph.add_variable(element_bytes)": IR_LAYOUT,
    "ipu.graph:Graph.add_variable(home_tile)": IR_LAYOUT,
    "ipu.graph:Graph.add_variable(tile_span)": IR_LAYOUT,
    "ipu.poplin:build_matmul_graph(plan)": GOLDEN,
    "nn.structured.pixelfly:PixelflyLinear.__init__(residual)": GOLDEN,
    "obs.log:RunLog.info(message)": PROTOCOL,
    "serve.report:serve_worker(seed_seq)": PROTOCOL,
}


class Callee(NamedTuple):
    key: str  # module:qualname
    name: str  # the name a call site uses
    positional: tuple[str, ...]  # parameters a positional argument fills
    defaults: tuple[str, ...]  # parameters with a default


class Call(NamedTuple):
    name: str
    n_positional: int
    keywords: frozenset[str]
    star: bool  # *args: sets every positional parameter


def _names(nodes) -> list[str]:
    out = []
    for node in nodes:
        if isinstance(node, ast.Call):
            node = node.func
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
    return out


def definitions(tree: ast.Module, module: str) -> list[Callee]:
    """Every function and method of ``tree`` but autograd forward/backward."""
    out: list[Callee] = []

    def visit(body, prefix: str, cls: ast.ClassDef | None) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.", node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if (cls is not None
                        and node.name in ("forward", "backward")
                        and "Function" in _names(cls.bases)):
                    continue
                args = node.args
                params = [a.arg for a in args.posonlyargs + args.args]
                n_defaults = len(args.defaults)
                defaults = params[len(params) - n_defaults:] + [
                    a.arg
                    for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None
                ]
                name = node.name
                if cls is not None:
                    if "staticmethod" not in _names(node.decorator_list):
                        params = params[1:]
                    if name == "__init__":
                        name = cls.name
                out.append(Callee(f"{module}:{prefix}{node.name}", name,
                                  tuple(params), tuple(defaults)))
                visit(node.body, f"{prefix}{node.name}.", None)

    visit(tree.body, "", None)
    return out


def calls(tree: ast.Module) -> list[Call]:
    out: list[Call] = []

    def visit(node, cls: ast.ClassDef | None) -> None:
        if isinstance(node, ast.ClassDef):
            cls = node
        if isinstance(node, ast.Call):
            func, args = node.func, list(node.args)
            if _names([func]) in (["partial"], ["drawn"]) and args:
                func, args = args[0], args[1:]
            if (isinstance(func, ast.Attribute) and func.attr == "__init__"
                    and _names([func.value]) == ["super"] and cls is not None):
                targets = _names(cls.bases)
            elif isinstance(func, ast.Name) and func.id == "cls" and cls:
                targets = [cls.name]
            else:
                targets = _names([func])
            star = any(isinstance(a, ast.Starred) for a in args)
            keywords = frozenset(k.arg for k in node.keywords if k.arg)
            out.extend(Call(t, len(args), keywords, star) for t in targets)
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(tree, None)
    return out


def unset_defaults(callees: list[Callee], sites: list[Call]) -> list[str]:
    """``module:qualname(param)`` for each defaulted parameter of a
    called function that no call sets."""
    by_name: dict[str, list[Call]] = {}
    for call in sites:
        by_name.setdefault(call.name, []).append(call)
    unset = []
    for callee in callees:
        if callee.name not in by_name:
            continue  # nobody calls it: not this scan's question
        set_ = set()
        for call in by_name[callee.name]:
            if call.star:
                set_.update(callee.positional)
            set_.update(callee.positional[:call.n_positional])
            set_.update(call.keywords)
        unset.extend(f"{callee.key}({p})" for p in callee.defaults
                     if p not in set_)
    return unset


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _scan() -> list[str]:
    callees = []
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        callees += definitions(_parse(path), module)
    sites = [
        call
        for top in CALLERS
        for path in sorted((ROOT / top).rglob("*.py"))
        for call in calls(_parse(path))
    ]
    return unset_defaults(callees, sites)


def test_every_default_is_set_by_some_caller():
    unset = [key for key in _scan() if key not in KEEP]
    assert not unset, (
        "defaulted parameters that no caller outside tests/ sets; make "
        "each a module constant or delete it with the branch it selects "
        f"(or name it in KEEP with its reason): {unset}"
    )


def test_keep_entries_are_live():
    unset = set(_scan())
    assert set(KEEP.values()) <= {GOLDEN, FUZZER, PROTOCOL, PERF, IR_LAYOUT}
    stale = sorted(key for key in KEEP if key not in unset)
    assert not stale, f"KEEP names parameters some caller now sets: {stale}"
    golden_sets = {
        (call.name, keyword)
        for call in calls(_parse(GOLDEN_TEST)) for keyword in call.keywords
    }
    for key, reason in KEEP.items():
        if reason == GOLDEN:
            func, param = key.split(":")[1].rstrip(")").split("(")
            *scope, name = func.split(".")
            if name == "__init__":  # C(...) calls C.__init__
                name = scope[-1]
            assert (name, param) in golden_sets, key


def test_scan_flags_an_unset_default():
    # The scan itself must not silently rot: in a synthetic module, the
    # defaults set by keyword, by position, through *args and through
    # Parameter.drawn are clean; the ones nobody sets, and the one only
    # **kwargs reaches, are flagged.
    tree = ast.parse(
        "class C:\n"
        "    def __init__(self, a, b=1):\n"
        "        pass\n"
        "    def m(self, x, y=2, *, z=3):\n"
        "        pass\n"
        "def f(p, q=4, r=5, s=6):\n"
        "    pass\n"
        "def g(kw=7):\n"
        "    pass\n"
        "def h(unused=8):\n"
        "    pass\n"
        "def init(shape, gain=9, scale=10):\n"
        "    pass\n"
        "def k(a, b=11, *, c=12):\n"
        "    pass\n"
        "C(0, b=2).m(1, 2)\n"
        "f(0, r=1)\n"
        "g(**{'kw': 0})\n"
        "Parameter.drawn(init, (2,), gain=1)\n"
        "k(*args)\n"
    )
    unset = unset_defaults(definitions(tree, "t"), calls(tree))
    assert unset == [
        "t:C.m(z)", "t:f(q)", "t:f(s)", "t:g(kw)", "t:init(scale)", "t:k(c)",
    ]
