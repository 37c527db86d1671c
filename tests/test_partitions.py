import itertools
import random

import pytest
from hypothesis import given, strategies as st

from isoschub.partitions import (
    check_range, check_rect, conjugate, count_bases, fill_rows, is_k_strict,
    k_related, k_strict_partitions, length_gt_k, rect_partitions,
    split_columns, strip, subpartitions,
)


# Brute-force oracles, shared with the other test modules: a recursion
# over every partition that shares no code with fill_rows, and the
# k-odd test that count_bases' second count stands for.

def partitions_of(d, max_part=None, max_len=None):
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


def is_k_odd(lam, k):
    """Every part of lam greater than 2k is odd."""
    return all(x % 2 for x in lam if x > 2 * k)


def test_strip():
    assert strip((3, 2, 0, 0)) == (3, 2)
    assert strip((0, 0)) == ()
    assert strip(()) == ()
    assert strip((3, 0, 1, 0)) == (3, 0, 1)


def test_is_k_strict():
    assert is_k_strict((4, 2, 2, 1), 2)
    assert not is_k_strict((4, 3, 3), 2)
    assert is_k_strict((), 0)
    assert not is_k_strict((2, 3), 1)
    assert not is_k_strict((3, 2, 0), 1)  # trailing zero not canonical
    assert not is_k_strict((2, -1), 1)
    assert is_k_strict([3, 1, 1], 1)


def test_check_rect_messages():
    assert check_rect((3, 1), 1) is None
    assert check_rect((4, 2, 1), 1, 5) is None
    with pytest.raises(ValueError, match=r"must be 1-strict .*: 2,2$"):
        check_rect((2, 2), 1)
    with pytest.raises(ValueError, match=r"lambda 9,1 does not fit in the "
                       r"\(2 x 4\) rectangle for n=3, k=1"):
        check_rect((9, 1), 1, 3)
    with pytest.raises(ValueError, match="need k <= n, got k=4 n=3"):
        check_rect((), 4, 3)


# (x, lo, hi, whether check_range(x, "x", lo, hi) accepts x)
CHECK_RANGE = [
    (0, 0, None, True), (7, 0, None, True), (-1, 0, None, False),
    (10**30, 1, None, True), (0, 1, None, False),
    (1, 1, 3, True), (3, 1, 3, True), (0, 1, 3, False), (4, 1, 3, False),
    (-2, -5, -1, True), (2, 3, 1, False),
    (1.0, 0, None, False), (True, 0, None, False), (True, 0, 1, False),
    ("1", 0, None, False), (None, 0, None, False), (1.5, 0, 2, False),
]


@pytest.mark.parametrize("x, lo, hi, ok", CHECK_RANGE)
def test_check_range(x, lo, hi, ok):
    if ok:
        assert check_range(x, "x", lo, hi) is None
    else:
        with pytest.raises(ValueError, match=r"^x must be an int "):
            check_range(x, "x", lo, hi)


def test_check_range_message():
    with pytest.raises(ValueError, match=r"^p must be an int in 1\.\.7, got 0$"):
        check_range(0, "p", 1, 7)
    with pytest.raises(ValueError, match=r"^k must be an int >= 0, got 1\.0$"):
        check_range(1.0, "k")


def test_split_columns():
    tail, head, r = split_columns((4, 2, 2, 1), 2)
    assert tail == (2,)
    assert head == (2, 2, 2, 1)
    assert r == 1
    assert split_columns((5, 3, 2), 0) == ((5, 3, 2), (), 3)


def test_conjugate():
    assert conjugate((3, 2)) == (2, 2, 1)
    assert conjugate(()) == ()
    assert conjugate(conjugate((7, 4, 2))) == (7, 4, 2)


def test_k_related():
    # the relation: |c-k-1| + r matches on both sides
    assert k_related((2, 1), (1, 4), 1)
    assert k_related((1, 1), (1, 3), 1)
    assert not k_related((1, 1), (1, 4), 1)
    # distance to column k+1 is mirrored
    assert k_related((3, 2), (3, 6), 3)


@given(st.integers(0, 3), st.integers(1, 6), st.integers(1, 8), st.integers(1, 8),
       st.integers(1, 6), st.integers(1, 8))
def test_k_related_symmetric(k, r1, c1, c2, r2, c3):
    b1, b2 = (r1, c1), (r2, c2)
    assert k_related(b1, b2, k) == k_related(b2, b1, k)
    assert k_related(b1, b1, k)


def test_partitions_of():
    assert list(partitions_of(4, max_len=2)) == [(4,), (3, 1), (2, 2)]
    assert list(partitions_of(0)) == [()]


def test_count_bases_small():
    assert count_bases(4, 0) == (2, 2)  # strict vs odd parts
    assert count_bases(0, 3) == (1, 1)
    assert count_bases(1, 0) == (1, 1)


def test_count_bases_agree():
    for k in range(0, 5):
        for d in range(0, 21):
            a, b = count_bases(d, k)
            assert a == b, (d, k)


def test_count_bases_match_enumeration():
    # both generating-function counts against the filtered partitions
    for d in range(31):
        lams = list(partitions_of(d))
        for k in range(6):
            want = (sum(is_k_strict(lam, k) for lam in lams),
                    sum(is_k_odd(lam, k) for lam in lams))
            assert count_bases(d, k) == want, (d, k)


def test_count_bases_at_fifty():
    # Q(50) = 3658 strict partitions of 50 and p(50) = 204226 partitions
    # of 50: published values, from outside both the enumeration and the
    # generating functions
    assert count_bases(50, 0) == (3658, 3658)
    assert count_bases(50, 50) == (204226, 204226)


def test_k_odd_definition():
    assert {lam for lam in partitions_of(4) if is_k_odd(lam, 1)} == {(3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)}
    assert set(k_strict_partitions(4, 1)) == {(4,), (3, 1), (2, 1, 1), (1, 1, 1, 1)}


def test_k_strict_partitions_match_filtered_partitions():
    # the generator skips a repeated part above k; filtering every
    # partition must give the same list in the same order
    for d in range(21):
        for k in range(4):
            want = [lam for lam in partitions_of(d) if is_k_strict(lam, k)]
            assert k_strict_partitions(d, k) == want, (d, k)
    # no partition has a negative weight
    for d in (-1, -2, -7):
        assert k_strict_partitions(d, 1) == [], d


def box_rows(floor, cap, total, k=None):
    # brute force: every point of the box, filtered, lex-decreasing; a
    # total of None takes every weight
    out = []
    for v in itertools.product(*(range(f, c + 1) for f, c in zip(floor, cap))):
        if total not in (None, sum(v)) or any(a < b for a, b in zip(v, v[1:])):
            continue
        if k is not None and any(a == b > k for a, b in zip(v, v[1:])):
            continue
        out.append(strip(v))
    return sorted(out, reverse=True)


def test_fill_rows_match_box_filter():
    rng = random.Random(7)
    for rows in range(5):
        for _ in range(60):
            floor = [rng.randrange(3) for _ in range(rows)]
            cap = [rng.randrange(5) for _ in range(rows)]
            for total in range(-1, sum(cap) + 2):
                for k in (None, 0, 1, 2):
                    assert fill_rows(floor, cap, total, k) == \
                        box_rows(floor, cap, total, k), (floor, cap, total, k)


def test_subpartitions_match_box_filter():
    for d in range(8):
        for lam in partitions_of(d):
            want = [nu for w in range(d + 1)
                    for nu in box_rows([0] * len(lam), lam, w)]
            assert subpartitions(lam) == want, lam


def test_rect_partitions_are_the_filtered_box():
    for k in range(4):
        for n in range(k, 7):
            box = box_rows([0] * (n - k), [n + k] * (n - k), None, k)
            box.sort(key=lambda lam: (sum(lam), [-x for x in lam]))
            assert rect_partitions(k, n) == box, (k, n)


def test_contains_and_length():
    assert (2, 2) in subpartitions((3, 2, 1))
    assert (2, 2, 1) not in subpartitions((3, 2))
    assert length_gt_k((5, 3, 2, 1), 2) == 2
