"""Signed permutations and the tableau combinatorics built on them.

A group element is stored as a window: a tuple of nonzero integers
whose absolute values permute 1..n, with negative entries barred.
Windows extend by fixed points, so (2, 1) and (2, 1, 3) name the same
element; trim picks the shortest spelling.  Generators are s_0 (negate
the first value) and s_i (swap values i, i+1) for i >= 1.
"""

from functools import cache

from .formal import add_into
from .partitions import (conjugate, get, in_rect, is_k_strict, split_columns,
                         strip, subpartitions)


def check_window(w):
    for a in w:
        if not isinstance(a, int) or a == 0:
            raise ValueError("window entries must be nonzero integers")
    if sorted(abs(a) for a in w) != list(range(1, len(w) + 1)):
        raise ValueError("window must permute 1..n up to sign")


def trim(w):
    """Drop trailing fixed points."""
    n = len(w)
    while n and w[n - 1] == n:
        n -= 1
    return tuple(w[:n])


def extend(w, n):
    return tuple(w) + tuple(range(len(w) + 1, n + 1))


def length(w):
    inv = sum(1 for i in range(len(w)) for j in range(i + 1, len(w))
              if w[i] > w[j])
    return inv + sum(-a for a in w if a < 0)


def descents(w):
    """Positions i >= 0 with w(i) > w(i+1), reading w(0) = 0."""
    out = set()
    prev = 0
    for i, a in enumerate(w):
        if prev > a:
            out.add(i)
        prev = a
    return out


def inverse(w):
    out = [0] * len(w)
    for i, a in enumerate(w, 1):
        if a > 0:
            out[a - 1] = i
        else:
            out[-a - 1] = -i
    return tuple(out)


def mul(u, v):
    """Composition u(v(i)), with w(-a) = -w(a)."""
    n = max(len(u), len(v))
    u = extend(u, n)
    v = extend(v, n)
    return tuple(u[a - 1] if a > 0 else -u[-a - 1] for a in v)


def s_elem(i):
    if i == 0:
        return (-1,)
    return tuple(range(1, i)) + (i + 1, i)


def apply_s(w, i):
    """Right multiplication by s_i."""
    if i == 0:
        return (-(w[0]),) + tuple(w[1:]) if w else (-1,)
    w = extend(w, i + 1)
    return w[:i - 1] + (w[i], w[i - 1]) + w[i + 1:]


def grassmannian_element(lam, k, n=None):
    """Window whose Schubert class carries the index lam.

    The staircase diagonals outside lam give the positive entries:
    diagonal d holds the boxes [i, c] with c > k and i + c - k = d, and
    is related when d - 1 = |c' - k - 1| + r' for the bottom box
    [r', c'] of one of the first k columns, or for a phantom box
    [1, i + 1] with lam_1 < i <= k.  Related lengths come first in
    increasing order, then the parts beyond column k barred, then the
    remaining lengths increasing.
    """
    lam = strip(lam)
    assert is_k_strict(lam, k), (lam, k)
    if n is None:
        n = max(len(lam) + k, (lam[0] - k) if lam else 0, 1)
    assert in_rect(lam, k, n), "partition does not fit the rectangle"
    conj = conjugate(lam)
    first = lam[0] if lam else 0
    related = {k + 1 - c + conj[c - 1] for c in range(1, min(k, first) + 1)}
    related |= {k + 1 - i for i in range(first + 1, k + 1)}
    rel, non = [], []
    for d in range(2, n + 2):
        ln = sum(1 for i in range(1, d) if get(lam, i) < k + d - i)
        if ln == 0:
            continue
        (rel if d - 1 in related else non).append(ln)
    lam1, _, p = split_columns(lam, k)
    assert len(rel) == k and len(non) == n - k - p
    w = tuple(sorted(rel)) + tuple(-(x) for x in lam1) + tuple(sorted(non))
    check_window(w)
    return w


def reduced_words(w):
    """All reduced words for w, as a tuple of letter tuples.

    Words multiply left to right: (a, b) stands for s_a s_b.  The count
    grows fast with length(w); intended for desk-scale elements only.
    """
    return _reduced_words(trim(w))


@cache
def _reduced_words(w):
    if not w:
        return ((),)
    out = []
    for i in sorted(descents(w)):
        for word in _reduced_words(trim(apply_s(w, i))):
            out.append(word + (i,))
    return tuple(out)


def word_product(word, n=0):
    w = tuple(range(1, n + 1))
    for a in word:
        w = apply_s(w, a)
    return trim(w)


def unimodal(seq):
    """Strictly decreasing, then strictly increasing."""
    i = 0
    while i + 1 < len(seq) and seq[i] > seq[i + 1]:
        i += 1
    while i + 1 < len(seq) and seq[i] < seq[i + 1]:
        i += 1
    return i >= len(seq) - 1


def lus(word):
    """Length of the longest unimodal subsequence."""
    m = len(word)
    if m == 0:
        return 0
    dec = [1] * m
    inc = [1] * m
    for j in range(m):
        for i in range(j):
            if word[i] > word[j] and dec[i] + 1 > dec[j]:
                dec[j] = dec[i] + 1
    for j in range(m - 1, -1, -1):
        for i in range(j + 1, m):
            if word[i] > word[j] and inc[i] + 1 > inc[j]:
                inc[j] = inc[i] + 1
    return max(dec[j] + inc[j] - 1 for j in range(m))


def _splits(word, pos, prev, acc, out):
    if pos == len(word):
        out.append(tuple(reversed(acc)))
        return
    for size in range(prev + 1, len(word) - pos + 1):
        seg = word[pos:pos + size]
        if unimodal(seg) and lus(word[:pos + size]) == size:
            acc.append(seg)
            _splits(word, pos + size, size, acc, out)
            acc.pop()


def ktableaux(w, shape=None):
    """All fillings whose bottom-to-top row word is reduced for w.

    Each row must be a unimodal subsequence of maximum length in the
    word formed by it and the rows below it.  Rows are returned top
    row first, so lengths strictly decrease.
    """
    out = []
    for word in reduced_words(w):
        _splits(word, 0, 0, [], out)
    if shape is not None:
        shape = tuple(shape)
        out = [t for t in out if tuple(len(r) for r in t) == shape]
    return sorted(out)


def valid_ktableau(w, rows):
    """Check the tableau conditions directly against the definition."""
    shape = tuple(len(r) for r in rows)
    if list(shape) != sorted(shape, reverse=True) or len(set(shape)) != len(shape):
        return False
    if any(n == 0 for n in shape):
        return False
    word = tuple(a for r in reversed(rows) for a in r)
    if len(word) != length(w) or word_product(word) != trim(w):
        return False
    seen = ()
    for row in reversed(rows):
        seen = seen + row
        if not unimodal(row) or lus(seen) != len(row):
            return False
    return True


def stanley_F(w):
    """Tableau counts by shape; the strict-basis expansion of F_w."""
    out = {}
    for t in ktableaux(w):
        add_into(out, tuple(len(r) for r in t), 1)
    return out


def right_factors(w):
    """All v with length(w v^-1) + length(v) = length(w)."""
    w = trim(w)
    lw = length(w)
    letters = range(len(w))
    level = {()}
    found = {()}
    for m in range(1, lw + 1):
        nxt = set()
        for v in level:
            for j in letters:
                vj = trim(mul(s_elem(j), v))
                if vj in found or length(vj) != m:
                    continue
                if length(mul(w, inverse(vj))) == lw - m:
                    nxt.add(vj)
        found |= nxt
        level = nxt
    return found


def bh_expand(lam, k):
    """Two-variable expansion of the one-row-product class for lam.

    Splits the window of lam over all right factors that stay inside
    the positive windows with sole descent k.  Such factors are
    expected to be exactly the windows of partitions nu inside the
    part of lam in the first k columns; the search does not assume
    this and raises if the discovered set differs.  The coefficient of
    (mu, nu) counts the tableaux of shape mu for the complementary
    left factor.
    """
    lam = strip(lam)
    w = trim(grassmannian_element(lam, k))
    _, lam2, _ = split_columns(lam, k)
    cands = {}
    for nu in subpartitions(lam2):
        cands[trim(grassmannian_element(nu, k))] = nu
    found = {v for v in right_factors(w)
             if all(a > 0 for a in v) and descents(v) <= {k}}
    if found != set(cands):
        raise RuntimeError(
            "right factor classification failed: %r vs %r" % (
                sorted(found), sorted(cands)))
    out = {}
    for v, nu in cands.items():
        u = mul(w, inverse(v))
        for t in ktableaux(u):
            add_into(out, (tuple(len(r) for r in t), nu), 1)
    return out
