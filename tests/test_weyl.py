import itertools
import random

import pytest

from isoschub.formal import combine
from isoschub.partitions import conjugate, is_k_strict, split_columns, weight
from isoschub.theta import mixed_expand, straighten, to_theta_basis
from isoschub.raising import c_set, expand, strict_pairs
from isoschub import weyl
from isoschub.weyl import (MAX_LENGTH, MAX_REDUCED_WORDS, MAX_RIGHT_FACTORS,
                           apply_s, bh_expand, check_window, descents, extend,
                           grassmannian_element, inverse, ktableaux, length,
                           mul, reduced_words, right_factors, stanley_F, trim)
from test_partitions import partitions_of


# the tableau conditions read straight off the definition: the oracle of
# ktableaux, which shares none of this code

def word_product(word):
    w = ()
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


def all_elements(n):
    out = []
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            out.append(tuple(s * a for s, a in zip(signs, perm)))
    return out


def test_check_window():
    check_window((2, -1))
    check_window(())
    # a bool entry once passed an isinstance test, and reduced_words
    # answered ((),) for (True, 2)
    for w in ((2, 2), (0, 1), (3, 1), (True, 2), (1.0, 2)):
        with pytest.raises(ValueError):
            check_window(w)
        with pytest.raises(ValueError):
            reduced_words(w)


def test_trim_extend():
    assert trim((2, 1, 3, 4)) == (2, 1)
    assert trim((1, 2)) == ()
    assert extend((2, -1), 4) == (2, -1, 3, 4)
    assert trim(extend((2, -1), 5)) == (2, -1)


def test_length_frozen():
    assert length(()) == 0
    assert length((-1,)) == 1
    assert length((2, -1)) == 2
    assert length((-2, -1)) == 3
    assert length((-1, -2)) == 4
    assert length((4, -2, -1, 3)) == 6
    assert length((2, 5, 6, -4, -1, 3, 7)) == 13


def test_descents():
    assert descents((4, -2, -1, 3)) == {1}
    assert descents((-1,)) == {0}
    assert descents((1, 2, 3)) == set()
    assert descents((3, 5, 1, 2, 4)) == {2}


def test_length_is_cayley_distance():
    # BFS over the rank 3 group: word length equals the closed formula.
    elems = all_elements(3)
    assert len(elems) == 48
    start = (1, 2, 3)
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(3):
                v = apply_s(w, i)
                if v not in dist:
                    dist[v] = dist[w] + 1
                    nxt.append(v)
        frontier = nxt
    assert len(dist) == 48
    for w in elems:
        assert dist[w] == length(w)


def test_group_algebra():
    rng = random.Random(7)
    elems = all_elements(3)
    for _ in range(40):
        u, v = rng.choice(elems), rng.choice(elems)
        assert mul(mul(u, inverse(u)), v) == v
        assert inverse(inverse(u)) == u
        assert length(inverse(u)) == length(u)
        assert trim(mul(u, (2, 1))) == trim(apply_s(u, 1))
        assert trim(mul(u, (-1,))) == trim(apply_s(u, 0))
    assert mul((2, -1), (-1, 2)) == (-2, -1)


def test_grassmannian_frozen():
    assert grassmannian_element((7, 4, 2), 3, 7) == (2, 5, 6, -4, -1, 3, 7)
    assert grassmannian_element((3, 2, 1), 1) == (4, -2, -1, 3)
    assert grassmannian_element((2,), 1) == (2, -1)
    assert grassmannian_element((1,), 1) == (2, 1)
    assert grassmannian_element((2, 1), 0) == (-2, -1)
    assert trim(grassmannian_element((), 2)) == ()


def test_grassmannian_small_parts_type_a():
    # lam inside the first k columns: positive window with values
    # j + conjugate(lam)_{k+1-j} in the first k slots, rest ascending.
    for k in (1, 2, 3):
        for d in range(0, 7):
            for lam in partitions_of(d, k):
                w = grassmannian_element(lam, k)
                conj = conjugate(lam)
                n = len(w)
                head = tuple(j + (conj[k - j] if k - j < len(conj) else 0)
                             for j in range(1, k + 1))
                rest = tuple(sorted(set(range(1, n + 1)) - set(head)))
                assert w == head + rest
    assert grassmannian_element((2, 2, 1), 2) == (3, 5, 1, 2, 4)


def test_grassmannian_invariants():
    for k in (0, 1, 2, 3):
        for d in range(0, 11):
            for lam in partitions_of(d):
                if not is_k_strict(lam, k):
                    continue
                w = grassmannian_element(lam, k)
                assert length(w) == weight(lam), (lam, k)
                assert descents(w) <= {k}
                tail, _, _ = split_columns(lam, k)
                negs = tuple(-a for a in w if a < 0)
                assert negs == tail


def test_grassmannian_errors():
    with pytest.raises(ValueError):
        grassmannian_element((3, 3), 1)
    with pytest.raises(ValueError):
        grassmannian_element((5, 1), 1, 3)


def test_one_row_unique_word():
    # For a single part r > k the element has exactly one reduced word:
    # r-k-1, ..., 1, 0, 1, ..., k.
    for k in (0, 1, 2):
        for r in range(k + 1, k + 5):
            w = trim(grassmannian_element((r,), k))
            words = reduced_words(w)
            expect = tuple(range(r - k - 1, 0, -1)) + (0,) + tuple(range(1, k + 1))
            assert words == (expect,)


def test_reduced_words_brute_force():
    # Count every letter sequence of the right length that multiplies out
    # to the target; must agree with the descent recursion.
    w = (4, -2, -1, 3)
    words = reduced_words(w)
    assert len(set(words)) == len(words)
    count = 0
    for seq in itertools.product(range(4), repeat=6):
        if word_product(seq) == w:
            count += 1
    assert count == len(words)
    for word in words:
        assert word_product(word) == w


def test_unimodal_lus():
    assert unimodal((3, 1, 2, 4))
    assert unimodal((1, 2, 3))
    assert unimodal((3, 2, 1))
    assert unimodal((2,))
    assert unimodal(())
    assert not unimodal((1, 3, 2))
    assert not unimodal((2, 1, 2, 1))
    assert lus(()) == 0
    assert lus((0, 1, 0)) == 2
    assert lus((2, 1, 0, 2, 3)) == 5
    assert lus((1, 0, 2, 1, 3)) == 4


def test_ktableaux_strict_case():
    # k = 0 window of a strict partition: one tableau, row i running
    # from lam_i - 1 down to 0.
    for lam in [(1,), (2, 1), (3, 1), (3, 2, 1), (4, 2, 1)]:
        w = trim(grassmannian_element(lam, 0))
        tabs = ktableaux(w)
        assert len(tabs) == 1
        assert tabs[0] == tuple(tuple(range(x - 1, -1, -1)) for x in lam)


def brute_ktableaux(w):
    # every cut set of every reduced word, kept when the direct check passes
    found = set()
    for word in reduced_words(w):
        m = len(word)
        for mask in range(2 ** max(m - 1, 0)):
            cuts = [i for i in range(1, m) if mask >> (i - 1) & 1]
            bounds = [0] + cuts + [m] if m else [0]
            rows = tuple(word[a:b] for a, b in zip(bounds, bounds[1:]))
            rows = tuple(reversed(rows))
            if valid_ktableau(w, rows):
                found.add(rows)
    return sorted(found)


def test_ktableaux_validator_agreement():
    # Every enumerated tableau passes the direct check; every filling of
    # the right shapes that passes the check is enumerated.  All of B_3,
    # B_4 up to length 6, and a few Grassmannian elements.
    elems = {trim(w) for w in all_elements(3)}
    elems |= {trim(w) for w in all_elements(4) if length(w) <= 6}
    assert len(elems) == 134
    elems |= {trim(grassmannian_element(lam, k)) for lam, k in
              [((2, 1), 1), ((3, 1), 1), ((2, 2), 2), ((3, 2, 1), 1)]}
    for w in sorted(elems):
        tabs = ktableaux(w)
        assert len(set(tabs)) == len(tabs)
        assert all(valid_ktableau(w, t) for t in tabs)
        assert tabs == brute_ktableaux(w), w


def word_tableaux(word, out):
    """Append to out every tableau whose row word is the reduced word.

    The per-word oracle of the prefix-tree walk in ktableaux, which
    shares no code with it.  Two prefix tables make each cut a lookup.
    L[j], the length of the longest unimodal subsequence of word[:j], is
    the running maximum of up[t], the longest unimodal subsequence
    ending at t, where up[t] extends either the longest strictly
    decreasing one ending at t (down[t]) or an up[i] with i < t and
    word[i] < word[t].  ends[p] is the largest e with word[p:e]
    unimodal; one scan per start finds it, since unimodal segments are
    closed under taking prefixes.  A row word[pos:e] can follow a row of
    length prev exactly when pos + prev < e <= ends[pos] and
    L[e] == e - pos.
    """
    m = len(word)
    down = []
    up = []
    L = [0]
    best = 0
    for a in word:
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
        down.append(d)
        up.append(u)
        if u > best:
            best = u
        L.append(best)
    ends = []
    for p in range(m):
        e = p + 1
        while e < m and word[e - 1] > word[e]:
            e += 1
        while e < m and word[e - 1] < word[e]:
            e += 1
        ends.append(e)
    acc = []

    def rows(pos, prev):
        if pos == m:
            out.append(tuple(reversed(acc)))
            return
        for e in range(pos + prev + 1, ends[pos] + 1):
            size = e - pos
            if L[e] == size:
                acc.append(word[pos:e])
                rows(e, size)
                acc.pop()

    rows(0, 0)


def per_word_ktableaux(w):
    out = []
    for word in reduced_words(w):
        word_tableaux(word, out)
    return sorted(out)


def test_ktableaux_walk_matches_per_word_oracle():
    # all of B_4 and a seeded B_5 sample, each with every shape that
    # occurs and with a strict shape of the right size that does not
    rng = random.Random(5)
    sample = [trim(w) for w in rng.sample(all_elements(5), 60)]
    elems = [trim(w) for w in all_elements(4)]
    elems += [w for w in sample if weyl._word_count(w) <= 5000]
    assert len(elems) == 384 + 43
    for w in elems:
        want = per_word_ktableaux(w)
        assert ktableaux(w) == want, w
        by_shape = {}
        for t in want:
            by_shape.setdefault(tuple(len(r) for r in t), []).append(t)
        # a strict shape of size length(w) that no tableau has, or one
        # of the wrong size where every strict shape occurs
        absent = next((lam for lam in partitions_of(length(w))
                       if is_k_strict(lam, 0) and lam not in by_shape),
                      (length(w) + 1,))
        assert ktableaux(w, shape=absent) == [], (w, absent)
        for lam, tabs in by_shape.items():
            assert ktableaux(w, shape=lam) == tabs, (w, lam)


def test_ktableaux_shape_filter():
    w = trim(grassmannian_element((3, 1), 1))
    tabs = ktableaux(w, shape=(3, 1))
    assert all(tuple(len(r) for r in t) == (3, 1) for t in tabs)
    assert ktableaux(w, shape=(9, 1)) == []
    # an iterator once came back empty from the int check, giving []
    assert tabs and ktableaux(w, shape=iter((3, 1))) == tabs


def test_bad_shape_rejected_before_any_work():
    weyl._word_count.cache_clear()
    weyl._left_steps.cache_clear()
    # no int sequence: ValueError; not strictly decreasing, a part below
    # 1, or a size other than length(w) = 16 or 18: no tableau
    for w, shape in [((-1, -2, -3, -4), 5), ((2, -3, -5, -4, 1), (1.5,))]:
        with pytest.raises(ValueError, match="the shape must be"):
            ktableaux(w, shape=shape)
    for w, shape in [((-1, -2, -3, -4), (8, 8)),
                     ((-1, -2, -3, -4), (16, 0)),
                     ((-1, -2, -3, -4), (17, -1)),
                     ((-1, -2, -3, -4), (7, 5, 3)),
                     ((2, -3, -5, -4, 1), (18, 1))]:
        assert ktableaux(w, shape=shape) == [], shape
    assert weyl._word_count.cache_info().currsize == 0
    assert weyl._left_steps.cache_info().currsize == 0


def test_stanley_walks_without_listing_words():
    # 99,144 reduced words, just under MAX_REDUCED_WORDS, and one tableau
    weyl._reduced_words.cache_clear()
    w = (2, -3, -5, -4, 1)
    assert weyl._word_count(w) == 99144 <= MAX_REDUCED_WORDS
    assert stanley_F(w) == {(7, 6, 4, 1): 1}
    assert weyl._reduced_words.cache_info().currsize == 0


def test_stanley_identity():
    assert stanley_F(()) == {(): 1}
    assert ktableaux(()) == [()]


def test_stanley_matches_mixed_top():
    # The empty-nu layer of the two-variable expansion counts tableaux.
    for k in (0, 1, 2):
        for d in range(0, 7):
            for lam in partitions_of(d):
                if not is_k_strict(lam, k):
                    continue
                w = trim(grassmannian_element(lam, k))
                f = stanley_F(w)
                top = {mu: c for (mu, nu), c in mixed_expand(lam, k).items()
                       if nu == ()}
                assert f == top, (lam, k)
                raw = expand(strict_pairs(c_set(lam, k)), lam)
                direct = {}
                for key, c in raw.items():
                    combine(direct, straighten(key, 0), c)
                assert f == to_theta_basis(direct, 0), (lam, k)


def test_right_factors_small():
    w = (-2, -1)
    fac = right_factors(w)
    assert () in fac and trim(w) in fac
    for v in fac:
        assert length(mul(w, inverse(v))) + length(v) == length(w)
    # every subword product shows up
    seen = set()
    for word in reduced_words(w):
        for m in range(len(word) + 1):
            seen.add(word_product(word[len(word) - m:]))
    assert seen == fac


def test_right_factors_whole_group():
    # the defining length condition, checked against every group element
    group = [trim(v) for v in all_elements(4)]
    lengths = {v: length(v) for v in group}
    for w in group:
        lw = lengths[w]
        want = {v for v in group
                if length(mul(w, inverse(v))) + lengths[v] == lw}
        assert right_factors(w) == want, w


def test_size_limits_raise_before_listing():
    weyl._reduced_words.cache_clear()
    weyl._word_count.cache_clear()
    weyl._left_steps.cache_clear()
    # a single reduced word, but far longer than MAX_LENGTH
    with pytest.raises(ValueError, match="length 2000 exceeds"):
        ktableaux(grassmannian_element((2000,), 0))
    assert weyl._word_count.cache_info().currsize == 0
    assert weyl._left_steps.cache_info().currsize == 0
    # the longest element of B_5: length 25, 701,149,020 reduced words
    w0 = (-1, -2, -3, -4, -5)
    assert length(w0) <= MAX_LENGTH
    for call in (reduced_words, ktableaux, stanley_F):
        with pytest.raises(ValueError, match="more than 100000 reduced"):
            call(w0)
        assert weyl._left_steps.cache_info().currsize == 0
    assert weyl._reduced_words.cache_info().currsize == 0
    # the count stops once it is past the limit, short of all 3,840
    # elements below w0
    assert weyl._word_count.cache_info().currsize < 3840


def test_right_factors_limit_sits_above_b6():
    # the whole of B_6 is within the limit; B_7 raises (see BAD_CALLS)
    assert len(right_factors((-1, -2, -3, -4, -5, -6))) == 46080 \
        <= MAX_RIGHT_FACTORS


def test_word_count_matches_listing():
    for w in all_elements(4):
        assert weyl._word_count(trim(w)) == len(reduced_words(w))
    # the longest element of B_4 is within the limit
    assert len(reduced_words((-1, -2, -3, -4))) == 24024 <= MAX_REDUCED_WORDS


def test_bh_frozen_table():
    want = {((4, 2), ()): 1, ((3, 2, 1), ()): 1,
            ((4, 1), (1,)): 1, ((3, 2), (1,)): 2,
            ((3, 1), (1, 1)): 2, ((2, 1), (1, 1, 1)): 1}
    assert bh_expand((3, 2, 1), 1) == want


def test_bh_single_row_small():
    # lam = (r) with r <= k splits one term per column count.
    assert bh_expand((2,), 2) == {((2,), ()): 1, ((1,), (1,)): 1,
                                  ((), (2,)): 1}
    assert bh_expand((1,), 3) == {((1,), ()): 1, ((), (1,)): 1}


def test_bh_matches_mixed():
    for k in (0, 1, 2, 3):
        for d in range(0, 8):
            for lam in partitions_of(d):
                if not is_k_strict(lam, k):
                    continue
                assert bh_expand(lam, k) == mixed_expand(lam, k), (lam, k)


def test_bh_extreme_degrees():
    # Bottom stratum: nu equal to the head of lam appears with the tail
    # as mu, coefficient 1.
    for lam, k in [((3, 2, 1), 1), ((4, 2, 1), 2), ((5, 3, 1), 2)]:
        tail, head, _ = split_columns(lam, k)
        out = bh_expand(lam, k)
        assert out[(tail, head)] == 1
        for (mu, nu), c in out.items():
            assert weight(mu) + weight(nu) == weight(lam)
            assert c > 0
