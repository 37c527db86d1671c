"""Integer sequences, k-strict partitions, and box combinatorics.

Conventions used across the package:

* partitions and compositions are tuples of ints with trailing zeros
  stripped; the empty partition is ``()``,
* boxes are ``(row, col)`` pairs, both 1-based, matrix orientation,
* ``k`` always names the strictness threshold: a partition is k-strict
  when no part greater than k is repeated.
"""

from __future__ import annotations


def strip(seq) -> tuple[int, ...]:
    """Drop trailing zeros, returning the canonical tuple form."""
    seq = tuple(seq)
    n = len(seq)
    while n and seq[n - 1] == 0:
        n -= 1
    return seq[:n]


def weight(seq) -> int:
    return sum(seq)


def get(seq, j: int) -> int:
    """Entry j (1-based) of a sequence, 0 beyond its length."""
    return seq[j - 1] if 1 <= j <= len(seq) else 0


def is_k_strict(lam, k: int) -> bool:
    """A partition (weakly decreasing, positive parts, no trailing zeros)
    in which every part greater than k occurs once."""
    lam = tuple(lam)
    for a, b in zip(lam, lam[1:]):
        if a < b or a == b > k:
            return False
    return not lam or lam[-1] > 0


def conjugate(lam) -> tuple[int, ...]:
    lam = strip(lam)
    if not lam:
        return ()
    return tuple(sum(1 for x in lam if x >= c) for c in range(1, lam[0] + 1))


def length_gt_k(lam, k: int) -> int:
    """Number of parts strictly greater than k."""
    return sum(1 for x in lam if x > k)


def split_columns(lam, k: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Split a k-strict partition at column k.

    Returns ``(tail, head, r)`` where tail is the strict partition formed
    by the parts beyond column k, head is the part of the diagram in the
    first k columns, and r counts the rows longer than k. Raises
    ValueError unless lam is k-strict.
    """
    lam = strip(lam)
    check_rect(lam, k)
    r = length_gt_k(lam, k)
    tail = strip(x - k for x in lam if x > k)
    head = strip(min(x, k) for x in lam)
    return tail, head, r


def k_related(box1, box2, k: int) -> bool:
    """Whether two boxes lie on mirror diagonals about column k+1.

    Boxes (r, c) and (r', c') are related when |c-k-1| + r = |c'-k-1| + r'.
    """
    r1, c1 = box1
    r2, c2 = box2
    return abs(c1 - k - 1) + r1 == abs(c2 - k - 1) + r2


def in_rect(lam, k: int, n: int) -> bool:
    """Membership of a k-strict partition in the (n-k) x (n+k) rectangle."""
    lam = strip(lam)
    return is_k_strict(lam, k) and len(lam) <= n - k and (not lam or lam[0] <= n + k)


def tupled(seq):
    """seq read once, as a tuple, so that a check does not spend an
    iterator; anything that is not iterable is left for the check."""
    return tuple(seq) if hasattr(seq, "__iter__") else seq


def check_ints(entries, what: str) -> None:
    """Raise ValueError unless all entries are ints. A memo table takes a
    float or a bool equal to an int for that int, so callers check first."""
    iterable = hasattr(entries, "__iter__")
    if not iterable or not {int}.issuperset(map(type, entries)):
        raise ValueError("%s must be of type int" % what)


def check_range(x, what: str, lo: int = 0, hi: int | None = None) -> None:
    """Raise ValueError unless x is an int in lo..hi, or at least lo when
    hi is None; a bool or a float is no int here, as for check_ints."""
    if type(x) is not int or x < lo or hi is not None and x > hi:
        span = ">= %d" % lo if hi is None else "in %d..%d" % (lo, hi)
        raise ValueError("%s must be an int %s, got %r" % (what, span, x))


def check_k(k: int) -> None:
    check_range(k, "k")


def check_partition(lam) -> None:
    """Raise ValueError unless lam is a weakly decreasing tuple of
    nonnegative ints; trailing zeros are allowed."""
    check_ints(lam, "the parts")
    if any(a < b for a, b in zip(lam, lam[1:])) or lam and lam[-1] < 0:
        raise ValueError("the parts must be weakly decreasing and "
                         "nonnegative: %s" % (",".join(map(str, lam)) or "-"))


def check_rect(lam, k: int, n: int | None = None) -> None:
    """Raise ValueError unless k >= 0, lam is a k-strict partition and,
    when n is given, k <= n and lam fits the (n-k) x (n+k) rectangle;
    k, n and the parts must be ints."""
    if type(k) is int and k >= 0 and {int}.issuperset(map(type, lam)) and (
            is_k_strict(strip(lam), k) if n is None
            else type(n) is int and in_rect(lam, k, n)):
        return
    check_k(k)
    check_ints(lam if n is None else (n, *lam), "n and the parts")
    text = ",".join(str(x) for x in lam) or "-"
    if n is not None and n < k:
        raise ValueError("need k <= n, got k=%d n=%d" % (k, n))
    if not is_k_strict(strip(lam), k):
        raise ValueError("lambda must be %d-strict (parts above %d distinct): "
                         "%s" % (k, k, text))
    raise ValueError("lambda %s does not fit in the (%d x %d) rectangle for "
                     "n=%d, k=%d" % (text, n - k, n + k, n, k))


def fill_rows(floor, cap, total: int, k: int | None = None) -> list:
    """Every weakly decreasing tuple of weight total whose row j lies in
    floor[j]..cap[j], stripped, in lex-decreasing order; with k given, no
    part above k repeats. Each row leaves what the later rows can take,
    and takes at least its share of the rest, as no later row is larger.
    """
    rows = len(floor)
    k = total if k is None else k  # no row exceeds the weight
    out = []

    def rec(j, prev, rem, least, most, acc):
        # least and most: the sums of floor[j:] and of cap[j:]
        if rem == 0 and least == 0:  # the later rows are all 0
            out.append(acc)
            return
        lo, hi = floor[j], cap[j]
        least -= lo
        most -= hi
        # compared by hand: min and max calls cost a fifth of the walk
        lo = rem - most if lo < rem - most else lo
        lo = -(-rem // (rows - j)) if lo * (rows - j) < rem else lo
        hi = prev if hi > prev else hi
        hi = rem - least if hi > rem - least else hi
        for x in range(hi, lo - 1, -1):
            rec(j + 1, x - 1 if x > k else x, rem - x, least, most, acc + (x,))

    if rows or total == 0:
        rec(0, total, total, sum(floor), sum(cap), ())
    return out


def k_strict_partitions(d: int, k: int) -> list[tuple[int, ...]]:
    """All k-strict partitions of weight exactly d, in lex-decreasing
    order; none when d < 0. Raises ValueError unless d is an int and k
    an int >= 0."""
    check_k(k)
    check_ints((d,), "d")
    return fill_rows([0] * d, [d] * d, d, k)


def rect_partitions(k: int, n: int) -> list[tuple[int, ...]]:
    """Every k-strict partition inside the (n-k) x (n+k) rectangle, by
    weight up to that of the largest, dim X = (n-k)(n+3k+1)/2. Raises
    ValueError unless k and n are ints with 0 <= k <= n."""
    check_rect((), k, n)
    floor, cap = [0] * (n - k), [n + k] * (n - k)
    return [lam for d in range((n - k) * (n + 3 * k + 1) // 2 + 1)
            for lam in fill_rows(floor, cap, d, k)]


def subpartitions(lam) -> list[tuple[int, ...]]:
    """Partitions contained in lam, by increasing weight, each weight in
    lex-decreasing order. Raises ValueError unless lam is a partition."""
    lam = tupled(lam)
    check_partition(lam)
    return [nu for d in range(weight(lam) + 1)
            for nu in fill_rows([0] * len(lam), lam, d)]


def count_bases(d: int, k: int) -> tuple[int, int]:
    """Count the k-strict and the k-odd (no even part above 2k)
    partitions of weight d, as the coefficients of x^d in
    prod_{i<=k} 1/(1-x^i) prod_{i>k} (1+x^i) and in
    prod_{i<=2k or i odd} 1/(1-x^i).

    The two counts agree for every d; both sides index homogeneous bases
    of the same graded ring, and the equality is asserted by tests rather
    than here. Raises ValueError unless d is an int in 0..50, the range
    the count-bases command accepts, and k an int >= 0.
    """
    check_k(k)
    check_range(d, "d", 0, 50)
    strict, odd = [1] + [0] * d, [1] + [0] * d
    for i in range(1, d + 1):
        # a part used at most once is added from the top down, so that
        # no sum it feeds has used it already
        for s in range(d, i - 1, -1) if i > k else range(i, d + 1):
            strict[s] += strict[s - i]
        if i <= 2 * k or i % 2:
            for s in range(i, d + 1):
                odd[s] += odd[s - i]
    return strict[d], odd[d]
