"""Signed permutations and the tableau combinatorics built on them.

A group element is stored as a window: a tuple of nonzero integers
whose absolute values permute 1..n, with negative entries barred.
Windows extend by fixed points, so (2, 1) and (2, 1, 3) name the same
element; trim picks the shortest spelling.  Generators are s_0 (negate
the first value) and s_i (swap values i, i+1) for i >= 1.
"""

from functools import cache
from itertools import accumulate

from .formal import add_into
# in_rect is unused but stays bound: bench/tracing.TARGETS expects it here
from .partitions import (check_ints, check_rect, conjugate, get, in_rect,
                         split_columns, strip, subpartitions, tupled)


def check_window(w):
    check_ints(w, "window entries")
    if 0 in w:
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
    remaining lengths increasing.  Raises ValueError unless lam is
    k-strict and, when n is given, fits the (n-k) x (n+k) rectangle;
    the default n is the least that fits.
    """
    lam = strip(lam)
    check_rect(lam, k, n)
    if n is None:
        n = max(len(lam) + k, (lam[0] - k) if lam else 0, 1)
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
    if len(rel) != k or len(non) != n - k - p:
        raise RuntimeError("grassmannian_element(%r, %d, %d): %d related and "
                           "%d other diagonals" % (lam, k, n, len(rel), len(non)))
    w = tuple(sorted(rel)) + tuple(-(x) for x in lam1) + tuple(sorted(non))
    check_window(w)
    return w


# Limits of reduced_words, and of the walk of ktableaux and stanley_F
# over the same words.  The first keeps every recursion over a reduced
# word far below Python's recursion limit; the second bounds the listing
# and the walk (the longest element of B_4 has 24,024 reduced words, that
# of B_5 has 701,149,020).  The third bounds the walk of right_factors
# over the lower weak interval of w, which is the whole group for the
# longest element (46,080 elements in B_6, 645,120 in B_7).
MAX_LENGTH = 64
MAX_REDUCED_WORDS = 100_000
MAX_RIGHT_FACTORS = 50_000


def _check_size(w):
    """Raise ValueError when the trimmed window w is past MAX_LENGTH or
    MAX_REDUCED_WORDS.

    The words are counted by a memoized descent recursion that stops
    once the count is past the limit, so nothing is listed or walked.
    """
    lw = length(w)
    if lw > MAX_LENGTH:
        raise ValueError("length %d exceeds the limit of %d for listing "
                         "reduced words" % (lw, MAX_LENGTH))
    if _word_count(w) > MAX_REDUCED_WORDS:
        raise ValueError("more than %d reduced words" % MAX_REDUCED_WORDS)


@cache
def _word_count(w):
    # min(number of reduced words of w, MAX_REDUCED_WORDS + 1)
    if not w:
        return 1
    total = 0
    for i in descents(w):
        total += _word_count(trim(apply_s(w, i)))
        if total > MAX_REDUCED_WORDS:
            return MAX_REDUCED_WORDS + 1
    return total


def reduced_words(w):
    """All reduced words for w, as a tuple of letter tuples.

    Words multiply left to right: (a, b) stands for s_a s_b.  Raises
    ValueError for a malformed window, or before listing anything when
    length(w) > MAX_LENGTH or w has more than MAX_REDUCED_WORDS words.
    """
    w = tupled(w)
    check_window(w)
    w = trim(w)
    _check_size(w)
    return _reduced_words(w)


@cache
def _reduced_words(w):
    if not w:
        return ((),)
    out = []
    for i in sorted(descents(w)):
        for word in _reduced_words(trim(apply_s(w, i))):
            out.append(word + (i,))
    return tuple(out)


@cache
def _left_steps(v):
    # the pairs (a, s_a v) over the left descents a of v, which are the
    # right descents of v^-1
    vi = inverse(v)
    return tuple((a, trim(inverse(apply_s(vi, a))))
                 for a in sorted(descents(vi)))


def ktableaux(w, shape=None):
    """All fillings whose bottom-to-top row word is reduced for w.

    Each row must be a unimodal subsequence of maximum length in the
    word formed by it and the rows below it.  Rows are returned top
    row first, so lengths strictly decrease.  Raises ValueError for a
    malformed window or shape, or for w past the limits of
    reduced_words; a shape that is not strictly decreasing, or whose
    size is not length(w), gives [] before any of that work.

    The reduced words are walked as a prefix tree, never listed.  A
    node is a prefix a_1..a_e with the rest v = s_ae..s_a1 w left to
    spell; its children are the left descents a of v, with v -> s_a v.
    Each node extends two tables by its letter in O(e): down[t] and
    up[t], the longest strictly decreasing and the longest unimodal
    subsequence ending at t, whose running maximum best is the longest
    unimodal subsequence of the prefix.  It also carries its open row
    cuts (last cut, previous row length, rising, cuts): the row that
    starts at the last cut stays open while it falls strictly, then
    rises strictly, and closes at e when it is longer than the row
    before, best equals its length, and a longer row still fits in the
    rest of the word.  A prefix with no open cut is dropped, since no
    tableau starts with it, and a given shape fixes every cut up front.
    The longest element of B_4 (24,024 reduced words) visits 3,781
    prefixes with descents left; (2,-3,-5,-4,1) (99,144 words, one
    tableau) takes 0.02 s and no listing of its words.
    """
    w = tupled(w)
    check_window(w)
    w = trim(w)
    m = length(w)
    fixed = None
    if shape is not None:
        shape = tupled(shape)
        check_ints(shape, "the shape")
        if sum(shape) != m or not all(a > b for a, b in
                                      zip(shape, shape[1:] + (0,))):
            return []
        fixed = set(accumulate(reversed(shape)))
    _check_size(w)
    word, down, up, out = [], [], [], []

    def visit(v, best, open_cuts):
        t = len(word)
        if not v:
            # the rows of every cut set that closed at the last letter
            for last, _, _, cuts in open_cuts:
                if last == t:
                    rows = (tuple(word[i:j]) for i, j in
                            zip((0,) + cuts, cuts))
                    out.append(tuple(rows)[::-1])
            return
        e = t + 1
        # a given shape closes a row exactly at its cuts
        close = fixed is None or e in fixed
        stay = fixed is None or not close
        for a, rest in _left_steps(v):
            d = u = 1
            # zip stops at the letters before a
            for b, db, ub in zip(word, down, up):
                if b > a:
                    if db >= d:
                        d = db + 1
                elif b < a and ub >= u:
                    u = ub + 1
            if d > u:
                u = d
            top = u if u > best else best
            rises = t and word[-1] < a
            nxt = []
            for last, prev, rising, cuts in open_cuts:
                size = e - last
                if size > 1:
                    if rises:
                        rising = True
                    elif rising:
                        continue
                if (close and size > prev and top == size
                        and (e == m or m - e > size)):
                    nxt.append((e, size, False, cuts + (e,)))
                if stay:
                    nxt.append((last, prev, rising, cuts))
            if nxt:
                word.append(a)
                down.append(d)
                up.append(u)
                visit(rest, top, nxt)
                word.pop()
                down.pop()
                up.pop()

    visit(w, 0, [(0, 0, False, ())])
    return sorted(out)


def stanley_F(w):
    """Tableau counts by shape; the strict-basis expansion of F_w."""
    out = {}
    for t in ktableaux(w):
        add_into(out, tuple(len(r) for r in t), 1)
    return out


def right_factors(w):
    """All v with length(w v^-1) + length(v) = length(w).

    Those are the v = u^-1 w for the u reached from w by removing right
    descents one at a time.  Raises ValueError for a malformed window,
    and once the walk has seen more than MAX_RIGHT_FACTORS elements.
    """
    w = tupled(w)
    check_window(w)
    w = trim(w)
    seen = {w}
    todo = [w]
    while todo:
        u = todo.pop()
        for i in descents(u):
            v = trim(apply_s(u, i))
            if v not in seen:
                seen.add(v)
                todo.append(v)
        if len(seen) > MAX_RIGHT_FACTORS:
            raise ValueError("more than %d right factors" % MAX_RIGHT_FACTORS)
    return {trim(mul(inverse(u), w)) for u in seen}


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
