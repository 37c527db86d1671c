"""Raising-operator expansions over sets of index pairs.

A pair set lives in the triangle {(i, j) : 1 <= i <= j} (diagonal mode)
or {i < j} (strict mode) and must be downward closed under the
componentwise order; such sets play the role of exponent supports for
the inverted factors of a raising-operator series.

``expand`` computes the image of a monomial under

    prod_{i<j} (1 - R_ij) * prod_{(i,j) in D} (1 + R_ij)^{-1}

as a finite integer combination of commuting-variable monomials, using
the recursion that eliminates the last entry of the sequence: summing
over vectors alpha supported on positions 1..l-1 that are 0/1 outside
the columns of D and unbounded inside them, with coefficient
(-1)^|alpha| 2^{#nonzero alpha_i with (i,l) in D}.
"""

from __future__ import annotations

from functools import cache

from .formal import add_into
from .partitions import check_ints, check_rect, get, strip


def is_valid_pairs(D, diagonal: bool = True) -> bool:
    """Whether the set D is downward closed in the strict or full triangle."""
    for i, j in D:
        if i < 1 or (i > j if diagonal else i >= j):
            return False
        if i > 1 and (i - 1, j) not in D:
            return False
        lo = i if diagonal else i + 1
        if j - 1 >= lo and (i, j - 1) not in D:
            return False
    return True


def middle_row(D) -> int:
    """Least i with (i, i) outside the set D."""
    i = 1
    while (i, i) in D:
        i += 1
    return i


def outer_corner_in_col(D, col: int) -> tuple[int, int] | None:
    """The unique pair of column col addable to the set D (full triangle)."""
    i = 1
    while (i, col) in D:
        i += 1
    if i > col:
        return None
    if col - 1 >= i and (i, col - 1) not in D:
        return None
    return (i, col)


def outer_corner_in_row(D, row: int) -> tuple[int, int] | None:
    """The unique pair of row `row` addable to the set D (full triangle)."""
    j = row
    while (row, j) in D:
        j += 1
    if row > 1 and (row - 1, j) not in D:
        return None
    return (row, j)


def outside_rim(D, jmax: int) -> list[tuple[int, int]]:
    """Pairs of the full triangle just outside the set D: first row, or
    diagonal neighbor of a member."""
    out = []
    for j in range(1, jmax + 1):
        for i in range(1, j + 1):
            if (i, j) in D:
                continue
            if i == 1 or (i - 1, j - 1) in D:
                out.append((i, j))
    return out


def w_holds(mu, k: int, i: int, j: int) -> bool:
    """The pair inequality mu_i + mu_j > 2k + j - i."""
    return get(mu, i) + get(mu, j) > 2 * k + j - i


def c_set(lam, k: int, t: int | None = None) -> frozenset[tuple[int, int]]:
    """Pairs (i, j), i <= j <= t, for which w_holds(lam, k, i, j)."""
    lam = strip(lam)
    if t is None:
        t = len(lam)
    return frozenset((i, j) for j in range(1, t + 1) for i in range(1, j + 1)
                     if w_holds(lam, k, i, j))


def strict_pairs(D) -> frozenset[tuple[int, int]]:
    return frozenset((i, j) for i, j in D if i < j)


def diagonal_count(D) -> int:
    return sum(1 for i, j in D if i == j)


def expand(D, lam) -> dict[tuple[int, ...], int]:
    """Monomial expansion of the operator series applied to the sequence lam.

    D is a strict-mode pair set; the pairs (i, j) with j <= len(lam) must
    be downward closed and have i < j, and lam's entries must be ints, or
    ValueError. Keys of the result are weakly decreasing tuples of
    positive ints, the index multisets of the surviving monomials;
    coefficients are ints.
    """
    lam = strip(lam)
    check_ints(lam, "the entries")
    Dr = frozenset(p for p in D if p[1] <= len(lam))
    if not is_valid_pairs(Dr, diagonal=False):
        raise ValueError("expand wants a downward-closed set of strict "
                         "pairs, got %r" % (sorted(Dr),))
    return dict(_expand(Dr, lam))


@cache
def _expand(D, lam):
    ell = len(lam)
    if ell == 0:
        return {(): 1}
    mu, r = lam[:-1], lam[-1]
    # a negative last entry leaves an empty alpha budget: the term vanishes
    if r < 0:
        return {}
    in_d = tuple((i, ell) in D for i in range(1, ell))
    # the pairs of D that a child of each length keeps
    pairs = [frozenset(p for p in D if p[1] <= m) for m in range(ell)]
    # by_s[s]: the children's expansions, each scaled by 2^mcount, whose
    # alpha leaves s = r - |alpha| for the last entry; s joins the keys once
    by_s: dict = {}
    _alpha_walk(mu, r, in_d, pairs, list(mu), 0, 0, 0, by_s)
    res: dict = {}
    get = res.get
    for s, acc in by_s.items():
        sign = -1 if (r - s) % 2 else 1
        for key, c in acc.items():
            if c:
                if s:
                    i = len(key)
                    while i and key[i - 1] < s:
                        i -= 1
                    key = key[:i] + (s,) + key[i:]
                res[key] = get(key, 0) + sign * c
    return {key: c for key, c in res.items() if c}


def _alpha_walk(mu, r, in_d, pairs, child, pos, used, mcount, by_s):
    # child holds mu + alpha, alpha fixed on the positions before pos
    if pos == len(mu):
        nu = strip(child)
        sub = _expand(pairs[len(nu)], nu)
        if sub:
            acc = by_s.get(r - used)
            if acc is None:
                acc = by_s[r - used] = {}
            get = acc.get
            scale = 1 << mcount
            for key, c in sub.items():
                acc[key] = get(key, 0) + scale * c
        return
    m = mu[pos]
    _alpha_walk(mu, r, in_d, pairs, child, pos + 1, used, mcount, by_s)
    if in_d[pos]:
        for a in range(1, r - used + 1):
            child[pos] = m + a
            _alpha_walk(mu, r, in_d, pairs, child, pos + 1, used + a,
                        mcount + 1, by_s)
        child[pos] = m
    elif used < r:
        child[pos] = m + 1
        _alpha_walk(mu, r, in_d, pairs, child, pos + 1, used + 1, mcount, by_s)
        child[pos] = m


def two_special(a: int, b: int) -> dict[tuple[int, ...], int]:
    """Expansion of the length-two fully inverted series: index pair (a, b).
    A negative index is t_r = 0 and kills its term; t_0 = 1 drops out."""
    acc: dict = {}
    for i in range(max(-a, 0), b + 1):
        c = 1 if i == 0 else (2 if i % 2 == 0 else -2)
        key = tuple(sorted((x for x in (a + i, b - i) if x), reverse=True))
        add_into(acc, key, c)
    return acc


def pfaffian_expand(lam) -> dict[tuple[int, ...], int]:
    """Pfaffian-recursion route for strict partitions.

    Agrees with ``expand`` over the full strict triangle; kept separate as
    an independently derived cross-check. Raises ValueError unless lam
    is a strict partition.
    """
    lam = strip(lam)
    check_rect(lam, 0)
    seq = lam if len(lam) % 2 == 0 else lam + (0,)
    return dict(_pf(seq))


@cache
def _pf(seq):
    # expansion along the first entry; the empty Pfaffian is 1
    if not seq:
        return {(): 1}
    res: dict = {}
    rest = seq[1:]
    for idx, b in enumerate(rest):
        sub = _pf(rest[:idx] + rest[idx + 1:])
        for k1, c1 in two_special(seq[0], b).items():
            for k2, c2 in sub.items():
                add_into(res, tuple(sorted(k1 + k2, reverse=True)),
                         -c1 * c2 if idx % 2 else c1 * c2)
    return res
