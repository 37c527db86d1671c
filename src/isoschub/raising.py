"""Raising-operator expansions over sets of index pairs.

A pair set lives in the triangle {(i, j) : 1 <= i <= j} (diagonal mode)
or {i < j} (strict mode) and must be downward closed under the
componentwise order; such sets play the role of exponent supports for
the inverted factors of a raising-operator series.

``expand`` computes the image of a monomial under

    prod_{i<j} (1 - R_ij) * prod_{(i,j) in D} (1 + R_ij)^{-1}

as a finite integer combination of commuting-variable monomials, in
one of two ways.

Schur's Pfaffian: prod_{i<j} (1 - R_ij)/(1 + R_ij) on an integer
vector is the Pfaffian of the two-entry series two_special(lam_i,
lam_j), lam padded with a 0 to even length (Macdonald III.8), and the
operator above is that product times prod_{(i,j) not in D} (1 + R_ij).
So the expansion is a sum of Pfaffians, one for each vector that the
second product makes of lam, a single one when D holds every pair
i < j <= l. The sum is taken when l >= 2 and at most half as many
pairs lie outside D as in it, each outside pair doubling the vectors;
on a sparser D the walk is faster. Each Pfaffian is formal.pf's
first-row step over t_product, which adds each entry times its
sub-Pfaffian straight into the sum, as in skew_S and theta.multiply.

The alpha walk, for every other D: the recursion that eliminates the
last entry of the sequence, summing over vectors alpha supported on
positions 1..l-1 that are 0/1 outside the columns of D and unbounded
inside them, with coefficient
(-1)^|alpha| 2^{#nonzero alpha_i with (i,l) in D}, and expanding each
child sequence the same way.
"""

from __future__ import annotations

from functools import cache

from .formal import add_into, combine, pf
from .partitions import check_ints, check_k, check_range, get, strip


def _pairs(D) -> frozenset:
    # D as a frozenset of pairs (i, j) of ints, or ValueError: a float or
    # bool index equals an int, and anything else raised TypeError
    try:
        pairs = frozenset(D)
    except TypeError:  # D not iterable, or a member not hashable
        pairs = (None,)
    for p in pairs:
        if type(p) is not tuple or len(p) != 2 or type(p[0]) is not int \
                or type(p[1]) is not int:
            raise ValueError("want a set of pairs (i, j) of ints, got %r"
                             % (D,))
    return pairs


def is_valid_pairs(D, diagonal: bool = True) -> bool:
    """Whether the set D is downward closed in the strict or full triangle.
    Raises ValueError unless D is a set of pairs (i, j) of ints."""
    return _closed(_pairs(D), diagonal)


def _closed(D: frozenset, diagonal: bool) -> bool:
    # is_valid_pairs on a D that _pairs has checked
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
    """Least i with (i, i) outside the set D of pairs of ints."""
    D = _pairs(D)
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
    diagonal neighbor of a member. Raises ValueError unless D is a set of
    pairs of ints and jmax an int >= 0."""
    D = _pairs(D)
    check_range(jmax, "jmax")
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
    """Pairs (i, j), i <= j <= t, for which w_holds(lam, k, i, j). Raises
    ValueError unless the parts and k are ints, k >= 0, and t is None or
    an int >= 0."""
    lam = strip(lam)
    check_ints(lam, "the parts")
    check_k(k)
    if t is None:
        t = len(lam)
    check_range(t, "t")
    return frozenset((i, j) for j in range(1, t + 1) for i in range(1, j + 1)
                     if w_holds(lam, k, i, j))


def strict_pairs(D) -> frozenset[tuple[int, int]]:
    return frozenset((i, j) for i, j in _pairs(D) if i < j)


def diagonal_count(D) -> int:
    return sum(1 for i, j in _pairs(D) if i == j)


def expand(D, lam) -> dict[tuple[int, ...], int]:
    """Monomial expansion of the operator series applied to the sequence lam.

    D is a strict-mode pair set: a collection of tuples (i, j) of ints,
    of which those with j <= len(lam) must be downward closed and have
    i < j; lam's entries must be ints; or ValueError. Keys of the result
    are weakly decreasing tuples of positive ints, the index multisets of
    the surviving monomials; coefficients are ints. A D with at most half
    as many pairs i < j <= len(lam) outside it as in it is expanded as a
    sum of Schur Pfaffians, a single one when it holds them all; any
    other D by the alpha walk, whose children take the same rule on
    their restricted D.
    """
    lam = strip(lam)
    check_ints(lam, "the entries")
    Dr = frozenset(p for p in _pairs(D) if p[1] <= len(lam))
    if not _closed(Dr, diagonal=False):
        raise ValueError("expand wants a downward-closed set of strict "
                         "pairs, got %r" % (sorted(Dr),))
    return dict(_expand(Dr, lam))


@cache
def _expand(D, lam):
    ell = len(lam)
    if ell == 0:
        return {(): 1}
    # a negative last entry leaves an empty alpha budget: the term vanishes
    if lam[-1] < 0:
        return {}
    outside = [(i, j) for j in range(2, ell + 1) for i in range(1, j)
               if (i, j) not in D]
    if ell == 1 or 2 * len(outside) > len(D):
        return _walk(D, lam, _expand)
    return _pf_sum(outside, lam + (0,) if ell % 2 else lam, ell)


def _pf_sum(outside, seq, ell):
    # R^D = prod_{i<j} (1 - R_ij)/(1 + R_ij) * prod_{(i,j) outside D}
    # (1 + R_ij): the second product makes each vector v of seq + sum_S
    # (e_i - e_j), S a set of outside pairs, m_v times; the sum of m_v
    # times the Pfaffian of v (of seq alone for a full D). Entry ell is
    # only ever lowered, so a v with 0 there has no term below it
    vs = {seq: 1}
    for i, j in outside:
        nxt = dict(vs)
        get = nxt.get
        for v, m in vs.items():
            if j < ell or v[j - 1]:
                w = (v[:i - 1] + (v[i - 1] + 1,) + v[i:j - 1]
                     + (v[j - 1] - 1,) + v[j:])
                nxt[w] = get(w, 0) + m
        vs = nxt
    res: dict = {}
    for v, m in vs.items():
        combine(res, _pf(v), m)
    return res


def _walk(D, lam, sub):
    # one step of the alpha walk on lam, ending in r >= 0, each child
    # expanded by sub(D', nu)
    ell = len(lam)
    mu, r = lam[:-1], lam[-1]
    in_d = tuple((i, ell) in D for i in range(1, ell))
    # the pairs of D that a child of each length keeps
    pairs = [frozenset(p for p in D if p[1] <= m) for m in range(ell)]
    # by_s[s]: the children's expansions, each scaled by 2^mcount, whose
    # alpha leaves s = r - |alpha| for the last entry; s joins the keys once
    by_s: dict = {}
    _alpha_walk(mu, r, in_d, pairs, list(mu), 0, 0, 0, by_s, sub)
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


def _alpha_walk(mu, r, in_d, pairs, child, pos, used, mcount, by_s, sub):
    # child holds mu + alpha, alpha fixed on the positions before pos
    if pos == len(mu):
        nu = strip(child)
        got = sub(pairs[len(nu)], nu)
        if got:
            acc = by_s.get(r - used)
            if acc is None:
                acc = by_s[r - used] = {}
            get = acc.get
            scale = 1 << mcount
            for key, c in got.items():
                acc[key] = get(key, 0) + scale * c
        return
    m = mu[pos]
    _alpha_walk(mu, r, in_d, pairs, child, pos + 1, used, mcount, by_s, sub)
    if in_d[pos]:
        for a in range(1, r - used + 1):
            child[pos] = m + a
            _alpha_walk(mu, r, in_d, pairs, child, pos + 1, used + a,
                        mcount + 1, by_s, sub)
        child[pos] = m
    elif used < r:
        child[pos] = m + 1
        _alpha_walk(mu, r, in_d, pairs, child, pos + 1, used + 1, mcount,
                    by_s, sub)
        child[pos] = m


def two_special(a: int, b: int) -> dict[tuple[int, ...], int]:
    """Expansion of the length-two fully inverted series: index pair (a, b).
    A negative index is t_r = 0 and kills its term; t_0 = 1 drops out.
    Raises ValueError unless a and b are ints."""
    check_ints((a, b), "the indices")
    acc: dict = {}
    for i in range(max(-a, 0), b + 1):
        c = 1 if i == 0 else (2 if i % 2 == 0 else -2)
        key = tuple(sorted((x for x in (a + i, b - i) if x), reverse=True))
        add_into(acc, key, c)
    return acc


def t_product(acc: dict, f: dict, g: dict, scale=1) -> dict:
    """acc += scale * f * g for sums of index tuples, in place, each key
    of the product the two keys merged into one weakly decreasing tuple;
    a key that cancels is dropped. Returns acc."""
    get = acc.get
    for k1, c1 in f.items():
        c1 *= scale
        for k2, c2 in g.items():
            key = tuple(sorted(k1 + k2, reverse=True))
            v = get(key, 0) + c1 * c2
            if v:
                acc[key] = v
            else:
                acc.pop(key, None)
    return acc


@cache
def _pf(seq):
    # Schur's Pfaffian of an integer vector: one first-row step, the
    # entries two_special and the sub-Pfaffians _pf itself, both through
    # the module globals, each sub-Pfaffian shared by every vector
    if not seq:
        return {(): 1}
    return pf(seq, two_special, t_product, _pf)
