"""Integer sequences, k-strict partitions, and box combinatorics.

Conventions used across the package:

* partitions and compositions are tuples of ints with trailing zeros
  stripped; the empty partition is ``()``,
* boxes are ``(row, col)`` pairs, both 1-based, matrix orientation,
* ``k`` always names the strictness threshold: a partition is k-strict
  when no part greater than k is repeated.
"""

from __future__ import annotations

from functools import cache


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


def is_partition(seq) -> bool:
    """Weakly decreasing with nonnegative entries, trailing zeros stripped."""
    seq = tuple(seq)
    if seq != strip(seq):
        return False
    return all(a >= b for a, b in zip(seq, seq[1:])) and (not seq or seq[-1] >= 0)


def is_k_strict(lam, k: int) -> bool:
    """Partition test plus: every part greater than k occurs once."""
    lam = tuple(lam)
    if not is_partition(lam):
        return False
    return all(lam[i] > lam[i + 1] for i in range(len(lam) - 1) if lam[i] > k)


def conjugate(lam) -> tuple[int, ...]:
    lam = strip(lam)
    if not lam:
        return ()
    return tuple(sum(1 for x in lam if x >= c) for c in range(1, lam[0] + 1))


def contains(lam, mu) -> bool:
    """Diagram containment mu inside lam."""
    return all(get(lam, j) >= m for j, m in enumerate(strip(mu), start=1))


def dominates(mu, lam) -> bool:
    """Dominance order on partitions of equal weight: mu >= lam."""
    if sum(mu) != sum(lam):
        return False
    s = t = 0
    for j in range(max(len(mu), len(lam))):
        s += get(mu, j + 1)
        t += get(lam, j + 1)
        if s < t:
            return False
    return True


def length_gt_k(lam, k: int) -> int:
    """Number of parts strictly greater than k."""
    return sum(1 for x in lam if x > k)


def split_columns(lam, k: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Split a k-strict partition at column k.

    Returns ``(tail, head, r)`` where tail is the strict partition formed
    by the parts beyond column k, head is the part of the diagram in the
    first k columns, and r counts the rows longer than k.
    """
    lam = strip(lam)
    assert is_k_strict(lam, k), (lam, k)
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


def schubert_indices(lam, k: int, n: int, family: str) -> tuple[int, ...]:
    """Index sequence of the Schubert condition attached to lam.

    For family 'C' (symplectic):
        p_j = n + k + j - lam_j - #{i < j : lam_i + lam_j > 2k + j - i}
    For family 'B' (odd orthogonal) the constant grows by one and the
    count includes i = j.
    """
    lam = strip(lam)
    assert in_rect(lam, k, n), (lam, k, n)
    ell = len(lam)
    out = []
    for j in range(1, ell + 1):
        if family == "C":
            cnt = sum(1 for i in range(1, j) if lam[i - 1] + lam[j - 1] > 2 * k + j - i)
            out.append(n + k + j - lam[j - 1] - cnt)
        elif family == "B":
            cnt = sum(1 for i in range(1, j + 1) if lam[i - 1] + lam[j - 1] > 2 * k + j - i)
            out.append(n + k + 1 + j - lam[j - 1] - cnt)
        else:
            raise ValueError(f"unknown family {family!r}")
    return tuple(out)


def partitions_of(d: int, max_part: int | None = None, max_len: int | None = None):
    """Yield partitions of d, largest part first, in lex-decreasing order."""
    if max_part is None:
        max_part = d
    if max_len is None:
        max_len = d

    def rec(rem, biggest, rows):
        if rem == 0:
            yield ()
            return
        if rows == 0:
            return
        for first in range(min(rem, biggest), 0, -1):
            for rest in rec(rem - first, first, rows - 1):
                yield (first,) + rest

    yield from rec(d, max_part, max_len)


def k_strict_partitions(d: int, k: int, max_part: int | None = None,
                        max_len: int | None = None) -> list[tuple[int, ...]]:
    """All k-strict partitions of weight exactly d."""
    return [lam for lam in partitions_of(d, max_part, max_len) if is_k_strict(lam, k)]


def rect_partitions(k: int, n: int) -> list[tuple[int, ...]]:
    """Every k-strict partition inside the (n-k) x (n+k) rectangle."""
    out = []
    for d in range((n - k) * (n + k) + 1):
        out.extend(lam for lam in k_strict_partitions(d, k, max_part=n + k, max_len=n - k))
    return out


def subpartitions(lam) -> list[tuple[int, ...]]:
    """Partitions contained in lam, in order of increasing weight."""
    out = []
    for d in range(weight(lam) + 1):
        for nu in partitions_of(d, lam[0] if lam else 0, len(lam)):
            if contains(lam, nu):
                out.append(nu)
    return out


def k_odd_partitions(d: int, k: int) -> list[tuple[int, ...]]:
    """Partitions of d whose parts greater than 2k are all odd."""
    return [lam for lam in partitions_of(d)
            if all(x % 2 == 1 for x in lam if x > 2 * k)]


@cache
def count_bases(d: int, k: int) -> tuple[int, int]:
    """Count k-strict and k-odd partitions of weight d by enumeration.

    The two counts agree for every d; both sides index homogeneous bases
    of the same graded ring, and the equality is asserted by tests rather
    than here.
    """
    return len(k_strict_partitions(d, k)), len(k_odd_partitions(d, k))
