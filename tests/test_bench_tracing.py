"""The traced benchmark run finds every function where it expects it.

``bench/tracing.py`` wraps each target in every module that binds it and
fails the run if a listed binding is missing.  This checks the same
bindings without installing any wrapper.
"""

import importlib.util
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
