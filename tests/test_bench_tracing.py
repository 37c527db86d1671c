"""The traced benchmark run finds every function where it expects it.

``bench/tracing.py`` wraps each target in every module that binds it and
fails the run if a listed binding is missing.  This checks the same
bindings without installing any wrapper.
"""

import ast
import importlib.util
import json
import subprocess
import sys
import types
from pathlib import Path

import isoschub.cli  # noqa: F401  imports every module of the package

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracing(monkeypatch):
    # tracing.py imports its sibling speed.py
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  BENCH / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_trace_targets_are_bound_where_listed(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    for home, fname, _, _, expected in tracing.TARGETS:
        fn = getattr(sys.modules["isoschub." + home], fname)
        assert isinstance(fn, types.FunctionType), (home, fname)
        for modname in expected:
            bound = vars(sys.modules["isoschub." + modname]).values()
            assert any(value is fn for value in bound), (home, fname, modname)


def _unread_imports(path):
    # names a module imports and never reads
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0]
                         for a in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


def test_every_unread_import_is_a_traced_binding(monkeypatch):
    # an import a module never reads may stay only while the tracer
    # expects that binding there
    tracing = _load_tracing(monkeypatch)
    pinned = {(modname, fname) for _, fname, _, _, expected in tracing.TARGETS
              for modname in expected}
    package = Path(sys.modules["isoschub"].__file__).parent
    unread = {(path.stem, name) for path in sorted(package.glob("*.py"))
              for name in _unread_imports(path)}
    assert unread <= pinned, sorted(unread - pinned)


_INSTALL_AFTER_WARM_PRODUCT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracing
from isoschub import cli, cohomology, weyl
args = ({(2, 1): 1, (1,): 3}, {(2,): 1}, 1, 5, "B")
before = cohomology.multiply(*args)
cohomology.reduce_monomial((2, 1), 1, 5, "C")
tabs = weyl.ktableaux((4, -2, -1, 3))
weyl.stanley_F((-2, -1))
bh = weyl.bh_expand((3, 2, 1), 1)
tracer = tracing.Tracer()
try:
    tracer.install()
except tracing.BindingError as exc:
    print(json.dumps(["BindingError", str(exc)]))
    raise SystemExit(0)
tracer.on = True
again = cohomology.multiply(*args)
same = [again == before, weyl.ktableaux((4, -2, -1, 3)) == tabs,
        weyl.bh_expand((3, 2, 1), 1) == bh]
counts = tracer.counters()
print(json.dumps(["installed", same, counts["cohomology.multiply.calls"],
                  counts["weyl.ktableaux.calls"]]))
"""


def test_tracer_installs_after_a_warm_product(child_env):
    # a memo, table or default argument that holds pieri, multiply,
    # reduce_monomial or one of the weyl functions would leave the
    # original reachable past its wrapper
    res = subprocess.run([sys.executable, "-c", _INSTALL_AFTER_WARM_PRODUCT,
                          str(BENCH)], capture_output=True, text=True,
                         env=child_env)
    assert res.returncode == 0, res.stderr
    # bh_expand lists the tableaux of each left factor: 1 + 4 calls
    assert json.loads(res.stdout) == ["installed", [True, True, True], 1, 5]
