"""Exact Schubert calculus for isotropic Grassmannians.

Subpackages cover partition combinatorics, raising-operator expansions,
the theta-polynomial ring, Schubert-basis products for both orthogonal
and symplectic families, signed permutations with their tableau model,
and the substitution forest that certifies the Pieri coefficients.
"""

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every memo of the package, the Pieri store of each space included.

    A scan of the package's modules finds every functools memo bound in
    one. A new process starts cold anyway; this gives the same cold start
    inside one process, for timing a layer or after patching an engine.
    """
    from importlib import import_module
    from pkgutil import iter_modules
    for info in iter_modules(__path__):
        mod = import_module("%s.%s" % (__name__, info.name))
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
