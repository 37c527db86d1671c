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
from .partitions import get, strip


def is_valid_pairs(D, diagonal: bool = True) -> bool:
    """Downward-closed subset of the (strict or full) triangle."""
    S = set(D)
    for i, j in S:
        if i < 1 or (i > j if diagonal else i >= j):
            return False
        if i > 1 and (i - 1, j) not in S:
            return False
        lo = i if diagonal else i + 1
        if j - 1 >= lo and (i, j - 1) not in S:
            return False
    return True


def middle_row(D) -> int:
    """Least i with (i, i) outside D."""
    i = 1
    S = set(D)
    while (i, i) in S:
        i += 1
    return i


def outer_corners(D, diagonal: bool = True) -> list[tuple[int, int]]:
    """Pairs whose addition keeps the set downward closed."""
    S = set(D)
    max_row = max((i for i, _ in S), default=0)
    out = []
    for i in range(1, max_row + 2):
        j = i if diagonal else i + 1
        while (i, j) in S:
            j += 1
        if i == 1 or (i - 1, j) in S:
            out.append((i, j))
    return out


def outer_corner_in_col(D, col: int, diagonal: bool = True) -> tuple[int, int] | None:
    """The unique addable pair in a given column, if any."""
    S = set(D)
    i = 1
    while (i, col) in S:
        i += 1
    lo = col if diagonal else col - 1
    if i > lo:
        return None
    left_lo = i if diagonal else i + 1
    if col - 1 >= left_lo and (i, col - 1) not in S:
        return None
    return (i, col)


def outer_corner_in_row(D, row: int, diagonal: bool = True) -> tuple[int, int] | None:
    """The unique addable pair in a given row, if any."""
    S = set(D)
    j = row if diagonal else row + 1
    while (row, j) in S:
        j += 1
    if row > 1 and (row - 1, j) not in S:
        return None
    return (row, j)


def outside_rim(D, jmax: int, diagonal: bool = True) -> list[tuple[int, int]]:
    """Pairs just outside D: first row, or diagonal neighbor of a member."""
    S = set(D)
    out = []
    for j in range(1, jmax + 1):
        for i in range(1, (j if diagonal else j - 1) + 1):
            if (i, j) in S:
                continue
            if i == 1 or (i - 1, j - 1) in S:
                out.append((i, j))
    return out


def inner_rim(D, diagonal: bool = True) -> list[tuple[int, int]]:
    """Rim pairs with a left neighbor in D, plus the middle-row diagonal pair.

    Unlike the full rim this set is finite with no column bound: the first
    row only contributes columns adjacent to existing members.
    """
    S = set(D)
    m = middle_row(D)
    max_col = max((j for _, j in S), default=0)
    out = []
    for i, j in outside_rim(D, max_col + 1, diagonal):
        if (i, j - 1) in S or (i == j == m):
            out.append((i, j))
    return out


def pair_set_geometry(D, jmax: int | None = None, diagonal: bool = True) -> dict:
    S = frozenset(D)
    if jmax is None:
        jmax = max((j for _, j in S), default=0) + 1
    return {
        "valid": is_valid_pairs(S, diagonal),
        "outer_corners": outer_corners(S, diagonal),
        "rim": outside_rim(S, jmax, diagonal),
        "rim1": inner_rim(S, diagonal),
        "middle_row": middle_row(S),
    }


def c_set(lam, k: int, t: int | None = None) -> frozenset[tuple[int, int]]:
    """Pairs (i, j), i <= j <= t, with lam_i + lam_j > 2k + j - i."""
    lam = strip(lam)
    if t is None:
        t = len(lam)
    return frozenset((i, j) for j in range(1, t + 1) for i in range(1, j + 1)
                     if get(lam, i) + get(lam, j) > 2 * k + j - i)


def strict_pairs(D) -> frozenset[tuple[int, int]]:
    return frozenset((i, j) for i, j in D if i < j)


def diagonal_count(D) -> int:
    return sum(1 for i, j in D if i == j)


def expand(D, lam) -> dict[tuple[int, ...], int]:
    """Monomial expansion of the operator series applied to the sequence lam.

    D is a strict-mode pair set (diagonal pairs are rejected). Keys of the
    result are weakly decreasing tuples of positive ints, the index
    multisets of the surviving monomials; coefficients are ints.
    """
    lam = strip(lam)
    Dr = frozenset(p for p in D if p[1] <= len(lam))
    assert all(i < j for i, j in Dr), "expand wants strict pairs"
    assert is_valid_pairs(Dr, diagonal=False), Dr
    return dict(_expand(Dr, lam))


@cache
def _expand(D, lam):
    ell = len(lam)
    if ell == 0:
        return {(): 1}
    if ell == 1:
        r = lam[0]
        return {} if r < 0 else ({(): 1} if r == 0 else {(r,): 1})
    mu, r = lam[:-1], lam[-1]
    res = {}
    # a negative last entry leaves an empty alpha budget: the term vanishes
    if r >= 0:
        in_d = tuple((i, ell) in D for i in range(1, ell))
        _alpha_walk(D, mu, r, in_d, 0, (), 0, 0, res)
    return res


def _alpha_walk(D, mu, r, in_d, pos, vec, used, mcount, res):
    if pos == len(mu):
        child = strip(m + a for m, a in zip(mu, vec))
        Dc = frozenset(p for p in D if p[1] <= len(child))
        sub = _expand(Dc, child)
        if not sub:
            return
        s = r - used
        coeff = (1 << mcount) if used % 2 == 0 else -(1 << mcount)
        if s == 0:
            for key, v in sub.items():
                add_into(res, key, coeff * v)
        else:
            for key, v in sub.items():
                add_into(res, tuple(sorted(key + (s,), reverse=True)), coeff * v)
        return
    _alpha_walk(D, mu, r, in_d, pos + 1, vec + (0,), used, mcount, res)
    if in_d[pos]:
        for a in range(1, r - used + 1):
            _alpha_walk(D, mu, r, in_d, pos + 1, vec + (a,), used + a, mcount + 1, res)
    elif used < r:
        _alpha_walk(D, mu, r, in_d, pos + 1, vec + (1,), used + 1, mcount, res)


def two_special(a: int, b: int) -> dict[tuple[int, ...], int]:
    """Expansion of the length-two fully inverted series: index pair (a, b)."""
    acc: dict = {}
    for i in range(0, b + 1):
        c = 1 if i == 0 else (2 if i % 2 == 0 else -2)
        key = tuple(sorted((x for x in (a + i, b - i) if x > 0), reverse=True))
        add_into(acc, key, c)
    return acc


def _mul_monomial_sums(f: dict, g: dict, sign: int) -> dict:
    acc: dict = {}
    for k1, c1 in f.items():
        for k2, c2 in g.items():
            add_into(acc, tuple(sorted(k1 + k2, reverse=True)), sign * c1 * c2)
    return acc


def pfaffian_expand(lam) -> dict[tuple[int, ...], int]:
    """Pfaffian-recursion route for strict partitions.

    Agrees with ``expand`` over the full strict triangle; kept separate as
    an independently derived cross-check.
    """
    lam = strip(lam)
    assert all(a > b for a, b in zip(lam, lam[1:])), lam
    assert all(x > 0 for x in lam), lam
    if len(lam) == 0:
        return {(): 1}
    if len(lam) == 1:
        return {lam: 1}
    seq = lam if len(lam) % 2 == 0 else lam + (0,)
    return dict(_pf(seq))


@cache
def _pf(seq):
    if len(seq) == 2:
        return two_special(*seq)
    res = {}
    rest = seq[1:]
    for idx, b in enumerate(rest):
        blk = two_special(seq[0], b)
        sub = _pf(rest[:idx] + rest[idx + 1:])
        part = _mul_monomial_sums(blk, sub, -1 if idx % 2 else 1)
        for key, c in part.items():
            add_into(res, key, c)
    return res
