import json
import random
from fractions import Fraction
from functools import cache
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from isoschub import raising
from isoschub.formal import add_into, det, pf, sum_from_json, sum_to_json
from isoschub.partitions import k_strict_partitions, rect_partitions, strip
from isoschub.raising import (
    c_set, diagonal_count, expand, is_valid_pairs, middle_row,
    outer_corner_in_col, outer_corner_in_row, outside_rim, strict_pairs,
    two_special,
)
from isoschub.weyl import bh_expand

# Independent oracle: the formal Jacobi-Trudi determinant det(x_{lam_i + j - i}),
# expanded over permutations into index-multiset monomials. Entries with index
# 0 are the unit; negative indices kill the term. expand with an empty pair
# set must reproduce it.


def jt_determinant(lam):
    lam = strip(lam)
    ell = len(lam)
    acc = {}
    for w in permutations(range(ell)):
        sign = 1
        seen = list(w)
        for i in range(ell):
            for j in range(i + 1, ell):
                if seen[i] > seen[j]:
                    sign = -sign
        idx = [lam[i] + w[i] - i for i in range(ell)]
        if any(a < 0 for a in idx):
            continue
        key = tuple(sorted((a for a in idx if a > 0), reverse=True))
        add_into(acc, key, sign)
    return acc


SMALL = [(), (1,), (3,), (2, 1), (3, 1), (2, 2), (3, 2, 1), (4, 2, 1),
         (1, 1, 1), (4, 3, 1), (3, 3, 2), (5, 2, 2, 1)]


@pytest.mark.parametrize("lam", SMALL)
def test_expand_empty_matches_determinant(lam):
    assert expand(frozenset(), lam) == jt_determinant(lam)


def test_expand_single_inverted_pair():
    # worked by hand from the recursion: last column first
    assert expand({(1, 2)}, (3, 2)) == {(3, 2): 1, (4, 1): -2, (5,): 2}
    got = expand({(1, 2)}, (3, 2, 1))
    assert got == {(3, 2, 1): 1, (4, 1, 1): -2, (4, 2): 1, (5, 1): 2, (3, 3): -1}


def test_expand_edge_sequences():
    assert expand(frozenset(), (0,)) == {(): 1}
    assert expand(frozenset(), (-2,)) == {}
    assert expand(frozenset(), ()) == {(): 1}
    assert expand(frozenset(), (-1, 2)) == {(1,): -1}
    # adjacent staircase pair annihilates under the plain product
    for r in (0, 1, 3):
        assert expand(frozenset(), (r, r + 1)) == {}


def test_expand_trailing_zeros_ignored():
    assert expand({(1, 2)}, (3, 2, 0, 0)) == expand({(1, 2)}, (3, 2))


# Independent oracle: the operator series term by term. The product of
# (1 - R_ij) over i < j and (1 + R_ij)^-1 over (i, j) in D is a sum over
# upper-triangular exponent matrices (a_ij), a_ij in {0, 1} off D and any
# a_ij >= 0 on D, with coefficient (-1)^sum(a) 2^#{a_ij > 0 on D}. R^a takes
# lam to nu_i = lam_i + sum_j a_ij - sum_h a_hi, and the term vanishes when
# an entry of nu is negative. Columns are chosen last first: row j's entries
# lie in later columns, so once column j is chosen nu_j is final, and
# nu_j >= 0 bounds column j. No memo, and no expansion of a shorter sequence.


def matrix_expand(D, lam):
    lam = strip(lam)
    by_nu = {}

    def fill(j, rowsum, nu, coeff):
        budget = lam[j - 1] + rowsum[j - 1]  # nu_j when column j is all 0
        if budget < 0:
            return
        if j == 1:
            nu += (budget,)
            by_nu[nu] = by_nu.get(nu, 0) + coeff
            return
        in_d = [(i, j) in D for i in range(1, j)]
        for col in product(*(range(budget + 1) if d else range(2)
                             for d in in_d)):
            used = sum(col)
            if used <= budget:
                twos = sum(1 for a, d in zip(col, in_d) if a and d)
                fill(j - 1, [r + a for r, a in zip(rowsum, col)],
                     nu + (budget - used,),
                     (-1) ** used * coeff << twos)

    if lam:
        fill(len(lam), [0] * len(lam), (), 1)
    else:
        by_nu[()] = 1
    acc = {}
    for nu, c in by_nu.items():
        add_into(acc, tuple(sorted((x for x in nu if x), reverse=True)), c)
    return acc


def closed_strict_sets(ell):
    """Every downward-closed set of strict pairs (i, j), j <= ell."""
    pairs = [(i, j) for j in range(2, ell + 1) for i in range(1, j)]
    out = []
    for bits in product((0, 1), repeat=len(pairs)):
        S = {ij for ij, bit in zip(pairs, bits) if bit}
        if all((i == 1 or (i - 1, j) in S) and (j == i + 1 or (i, j - 1) in S)
               for i, j in S):
            out.append(frozenset(S))
    return out


def test_expand_matches_matrix_oracle_on_giambelli_formulas():
    count = 0
    for k in range(3):
        for n in range(k, 6):
            for lam in rect_partitions(k, n):
                D = strict_pairs(c_set(lam, k))
                assert expand(D, lam) == matrix_expand(D, lam), (lam, k)
                count += 1
    assert count == 303


@pytest.mark.parametrize("ell", range(5))
def test_expand_matches_matrix_oracle_on_every_pair_set(ell):
    sets = closed_strict_sets(ell)
    assert len(sets) == (1, 1, 2, 4, 8)[ell]
    for lam in product(range(1, 5), repeat=ell):
        for D in sets:
            assert expand(D, lam) == matrix_expand(D, lam), (sorted(D), lam)


def outer_corners(D, diagonal=True):
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


def grow_valid(choices, diagonal=False):
    """Deterministically grow a valid pair set by picking outer corners."""
    D = frozenset()
    for c in choices:
        corners = outer_corners(D, diagonal=diagonal)
        if not corners:
            break
        D = D | {corners[c % len(corners)]}
    return D


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=6),
       st.lists(st.integers(0, 5), min_size=1, max_size=4))
def test_splitting_identity(choices, lam):
    """Adding one inverted pair splits a term in two."""
    lam = tuple(lam)
    D = grow_valid(choices, diagonal=False)
    D = frozenset(p for p in D if p[1] <= len(lam))
    for ij in outer_corners(D, diagonal=False):
        i, j = ij
        if j > len(lam):
            continue
        raised = list(lam)
        raised[i - 1] += 1
        raised[j - 1] -= 1
        lhs = expand(D, lam)
        acc = dict(expand(D | {ij}, lam))
        for key, c in expand(D | {ij}, tuple(raised)).items():
            add_into(acc, key, c)
        assert lhs == acc, (D, ij, lam)


# Oracle of expand's Pfaffians: the alpha walk on every level, with no
# Pfaffian taken for any pair set. D is restricted to the pairs that fit
# lam, as expand restricts it; the walk restricts each child's.


@cache
def walk_expand(D, lam):
    lam = strip(lam)
    if not lam:
        return {(): 1}
    if lam[-1] < 0:
        return {}
    return raising._walk(frozenset(p for p in D if p[1] <= len(lam)), lam,
                         walk_expand)


def full_pairs(ell):
    return frozenset((i, j) for j in range(2, ell + 1) for i in range(1, j))


@pytest.mark.parametrize("lam", [lam for d in range(15)
                                 for lam in k_strict_partitions(d, 0)])
def test_pfaffian_route_matches_expand(lam):
    D = full_pairs(len(lam))
    assert expand(D, lam) == walk_expand(D, lam)


def test_dense_pair_sets_match_the_walk():
    # every Giambelli formula with k <= 3 and |lam| <= 14 whose pair set
    # holds every pair i < j takes one Pfaffian in expand, and one with
    # at most half as many pairs outside as in it a sum of Pfaffians
    full = partial = 0
    for k in range(4):
        for d in range(15):
            for lam in k_strict_partitions(d, k):
                D = strict_pairs(c_set(lam, k))
                outside = len(full_pairs(len(lam)) - D)
                if len(lam) > 1 and 2 * outside <= len(D):
                    assert expand(D, lam) == walk_expand(D, lam), (lam, k)
                    full += not outside
                    partial += bool(outside)
    assert (full, partial) == (257, 103)


def matchings(rows):
    if not rows:
        yield []
        return
    for b in rows[1:]:
        for rest in matchings([r for r in rows[1:] if r != b]):
            yield [(rows[0], b)] + rest


def matching_pfaffian(mat):
    # the textbook sum over perfect matchings of the rows, each signed by
    # its number of crossings; 0 for an odd order
    total = 0
    for m in matchings(list(range(len(mat)))):
        crossings = sum(1 for a, b in m for c, d in m if a < c < b < d)
        term = (-1) ** crossings
        for a, b in m:
            term *= mat[a][b]
        total += term
    return total


def scalar_mul(acc, x, y, scale):
    # the multiply-accumulate of the integers as the formal sums {(): c}
    add_into(acc, (), scale * x[()] * y[()])
    return acc


def leibniz_det(mat):
    # the signed sum over permutations of the columns
    total = 0
    for w in permutations(range(len(mat))):
        inversions = sum(1 for i in range(len(w)) for j in range(i)
                         if w[j] > w[i])
        term = (-1) ** inversions
        for i, j in enumerate(w):
            term *= mat[i][j]
        total += term
    return total


def scalar_det(mat):
    # formal.det over the integers as the formal sums {(): c}, a zero
    # entry {}
    return det([[{(): x} if x else {} for x in row] for row in mat],
               scalar_mul, {(): 1})


@pytest.mark.parametrize("n", range(7))
def test_formal_det_matches_the_leibniz_sum(n):
    rng = random.Random(n)
    for _ in range(5):
        mat = [[rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(n)]
               for _ in range(n)]
        want = leibniz_det(mat)
        assert scalar_det(mat) == ({(): want} if want else {}), mat
        if n >= 2:
            # the first row twice: every term cancels, to the empty sum
            assert scalar_det([mat[0], mat[0]] + mat[2:]) == {}, mat


@pytest.mark.parametrize("n", range(8))
def test_formal_pf_matches_the_matching_sum(n):
    # integers as the formal sums {(): c}, so that a zero entry is {}
    rng = random.Random(n)
    for _ in range(5):
        mat = [[0] * n for _ in range(n)]
        for j in range(n):
            for i in range(j):
                mat[i][j] = rng.choice((0, 1, -1, 2, -3))
                mat[j][i] = -mat[i][j]

        def entry(a, b):
            return {(): mat[a][b]} if mat[a][b] else {}

        @cache
        def sub(rows):
            # the step on the rows left, the empty Pfaffian being 1
            return pf(rows, entry, scalar_mul, sub) if rows else {(): 1}

        got = sub(tuple(range(n)))
        assert got.get((), 0) == matching_pfaffian(mat), mat


def test_two_special_degenerate():
    assert two_special(4, 0) == {(4,): 1}
    assert two_special(3, 1) == {(3, 1): 1, (4,): -2}


def test_two_special_matches_expand():
    # the one pair (1, 2) inverted; a negative index, first or second,
    # kills its term, so (-1, 2) and (-2, 3) give {} on both routes
    for a in range(-4, 6):
        for b in range(-2, 6):
            assert two_special(a, b) == expand(frozenset({(1, 2)}), (a, b)), \
                (a, b)


def test_commutation_without_pair():
    # swapping two adjacent entries (r, s) -> (s-1, r+1) negates the class,
    # provided (2, 3) is not in D and every row above pairs with columns 2
    # and 3 the same way
    for D in (frozenset(), frozenset({(1, 2), (1, 3)})):
        for r, s in [(2, 4), (1, 3), (0, 5)]:
            a = expand(D, (3, r, s))
            b = expand(D, (3, s - 1, r + 1))
            assert a == {k: -v for k, v in b.items()}, (D, r, s)


def test_valid_pairs():
    assert is_valid_pairs(set(), diagonal=True)
    assert is_valid_pairs({(1, 1), (1, 2), (2, 2)}, diagonal=True)
    assert not is_valid_pairs({(2, 2)}, diagonal=True)
    assert not is_valid_pairs({(1, 1)}, diagonal=False)
    assert is_valid_pairs({(1, 2), (1, 3), (2, 3)}, diagonal=False)
    assert not is_valid_pairs({(1, 3)}, diagonal=False)


def test_corners_and_rims():
    assert outer_corners(frozenset(), diagonal=True) == [(1, 1)]
    assert outer_corners(frozenset(), diagonal=False) == [(1, 2)]
    D = {(1, 1), (1, 2)}
    assert outer_corners(D, diagonal=True) == [(1, 3), (2, 2)]
    assert outer_corner_in_col(D, 3) == (1, 3)
    assert outer_corner_in_col(D, 4) is None
    assert outer_corner_in_row(D, 1) == (1, 3)
    assert outer_corner_in_row(D, 2) == (2, 2)
    assert outside_rim(frozenset(), 4) == [(1, 1), (1, 2), (1, 3), (1, 4)]
    assert set(outside_rim(D, 3)) == {(1, 3), (2, 2), (2, 3)}
    assert middle_row({(1, 1), (2, 2)}) == 3
    assert middle_row(set()) == 1


def test_geometry_bundle():
    D = frozenset({(1, 1)})
    assert is_valid_pairs(D) and middle_row(D) == 2
    # (2, 2) is not addable before (1, 2) arrives
    assert outer_corners(D) == [(1, 2)]
    assert set(outside_rim(D, 3)) == {(1, 2), (1, 3), (2, 2)}


def test_c_set_example():
    C = c_set((9, 7, 3, 2, 1, 1), 3, 6)
    assert C == frozenset({(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4)})
    assert middle_row(C) == 3
    assert strict_pairs(C) == frozenset({(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)})
    assert diagonal_count(C) == 2


def test_c_set_column_extension():
    # columns beyond the length only pair long rows with empty ones
    assert c_set((5,), 1, 3) == frozenset({(1, 1), (1, 2), (1, 3)})
    assert c_set((2, 1, 1), 1, 4) == frozenset({(1, 1)})


def test_formal_json_roundtrip():
    f = {(3, 1): 2, (2, 2): -1}
    rows = sum_to_json(f)
    assert rows[0]["key"] == [2, 2] and rows[0]["num"] == "-1"
    assert sum_from_json(rows) == f
    # through JSON text, with a Fraction, the unit key and the nested
    # (mu, nu) pair keys of bh_expand
    for g in ({(3, 1): 2, (2, 2): Fraction(-1, 4), (): 1},
              bh_expand((3, 2, 1), 1)):
        assert sum_from_json(json.loads(json.dumps(sum_to_json(g)))) == g
