"""Exact Schubert calculus for isotropic Grassmannians.

Subpackages cover partition combinatorics, raising-operator expansions,
the theta-polynomial ring, Schubert-basis products for both orthogonal
and symplectic families, signed permutations with their tableau model,
and the substitution forest that certifies the Pieri coefficients.
"""

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every memo of the package, the Pieri store of each space included.

    A new process starts cold anyway; this gives the same cold start
    inside one process, for timing a layer or after patching an engine.
    """
    from . import cli, cohomology, raising, substitution, theta, weyl
    for memo in (raising._expand, raising._pf, cohomology._space,
                 cohomology._trie, theta._straighten, theta._theta,
                 substitution._ev, weyl._reduced_words, weyl._word_count,
                 cli._build_parser):
        memo.cache_clear()
