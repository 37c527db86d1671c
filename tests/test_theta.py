import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from isoschub import cli, polyeval
from isoschub import theta as theta_ring
from isoschub.formal import combine, jacobi_trudi, scaled, sum_to_json
from isoschub.partitions import (get, is_k_strict, k_strict_partitions,
                                 subpartitions, weight)
from isoschub.polyeval import (e_list, evaluate, p_det, p_mul, q_basis_poly,
                               q_list, x_vars)
from isoschub.raising import c_set, expand, strict_pairs
from isoschub.theta import (hat_theta, horizontal_strips, mixed_expand,
                            multiply, skew_S, straighten, theta, theta_sum,
                            to_hat_basis, to_theta_basis)
from test_partitions import partitions_of
from test_raising import full_pairs, walk_expand

UNIT = {(): 1}


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


def test_dominance():
    assert dominates((4, 1, 1), (3, 2, 1))
    assert not dominates((3, 2, 1), (4, 1, 1))
    assert dominates((3, 2, 1), (3, 2, 1))
    assert dominates((3, 3), (3, 2, 1))
    assert not dominates((4, 3), (3, 2, 1))  # different weights


def gen(r):
    # the one-row element t_r
    return UNIT if r == 0 else {(r,): 1}


def straighten_rng(alpha, k, rng):
    # strategy-independent oracle: rewrite a randomly chosen equal pair
    if any(a < 0 for a in alpha):
        return {}
    key = tuple(sorted((a for a in alpha if a), reverse=True))
    spots = [i for i in range(len(key) - 1)
             if key[i] == key[i + 1] and key[i] > k]
    if not spots:
        return {key: 1}
    i = rng.choice(spots)
    m = key[i]
    rest = key[:i] + key[i + 2:]
    out = {}
    for j in range(1, m + 1):
        combine(out, straighten_rng(rest + (m + j, m - j), k, rng),
                2 if j % 2 else -2)
    return out


def test_straighten_examples():
    assert straighten((2, 2), 1) == {(3, 1): 2, (4,): -2}
    # already reduced keys pass through
    assert straighten((3, 1), 1) == {(3, 1): 1}
    assert straighten((2, 2), 2) == {(2, 2): 1}
    # zeros drop, negatives kill
    assert straighten((3, 0, 1, 0), 1) == {(3, 1): 1}
    assert straighten((3, -1), 1) == {}
    assert straighten((), 0) == {(): 1}


def test_straighten_basis_and_weight():
    for k in range(3):
        for d in range(9):
            for alpha in partitions_of(d):
                res = straighten(alpha, k)
                for key, c in res.items():
                    assert is_k_strict(key, k)
                    assert weight(key) == d
                    assert key == alpha or dominates(key, alpha)


def test_straighten_confluence():
    rng = random.Random(20260819)
    for k in range(3):
        for d in range(9):
            for alpha in partitions_of(d):
                want = straighten(alpha, k)
                for _ in range(3):
                    assert straighten_rng(alpha, k, rng) == want
    # long runs of one part, whose rewrites feed back into each other
    for alpha, k in (((2,) * 8, 0), ((3,) * 6, 1), ((4, 4, 3, 3, 2, 2), 1),
                     ((5,) * 4, 2)):
        assert straighten_rng(alpha, k, rng) == straighten(alpha, k)


def test_theta_examples():
    assert theta((3, 1), 1) == {(3, 1): 1, (4,): -2}
    # single rows have no pair factors at all
    for r in range(1, 6):
        assert theta((r,), 2) == {(r,): 1}
    # at k = 0 a fully strict two-row case picks up the inverted factor
    assert theta((2, 1), 0) == {(2, 1): 1, (3,): -2}


def test_theta_unitriangular():
    for k in range(3):
        for d in range(9):
            for lam in k_strict_partitions(d, k):
                res = theta(lam, k)
                assert res.pop(lam) == 1
                for key in res:
                    assert dominates(key, lam) and key != lam


def test_theta_k0_is_pfaffian_route():
    # theta(lam, 0) expands its full pair set by Schur's Pfaffian; the
    # alpha walk alone expands the same operator series
    for d in range(9):
        for lam in k_strict_partitions(d, 0):
            raw = walk_expand(full_pairs(len(lam)), lam)
            out = {}
            for key, c in raw.items():
                combine(out, straighten(key, 0), c)
            assert out == theta(lam, 0)


def test_hat_theta_equals_column():
    for k in (1, 2, 3):
        for r in range(9):
            assert hat_theta(r, k) == theta((1,) * r, k)
    assert hat_theta(-1, 2) == {}
    assert hat_theta(0, 2) == UNIT
    assert hat_theta(1, 2) == {(1,): 1}


def test_duality_recurrence():
    for k in (1, 2, 3):
        for n in range(1, 9):
            acc = {}
            for i in range(n + 1):
                term = multiply(gen(i), hat_theta(n - i, k), k)
                combine(acc, term, -1 if i % 2 else 1)
            assert not acc, (k, n)


def test_multiply_basics():
    a = theta((3, 1), 1)
    assert multiply(UNIT, a, 1) == a
    assert multiply(gen(2), gen(2), 1) == straighten((2, 2), 1)
    b = theta((2,), 1)
    assert multiply(a, b, 1) == multiply(b, a, 1)
    ab = multiply(multiply(a, b, 1), gen(1), 1)
    assert ab == multiply(a, multiply(b, gen(1), 1), 1)
    # the ring's monomial rule holds in products as in straighten: t_0 = 1
    # drops out, and a t_r with r < 0 kills its monomial
    assert multiply({(2, 0): 1}, gen(1), 0) == {(2, 1): 1}
    assert multiply({(2, -1): 1}, gen(1), 0) == {}
    # an integral Fraction leaves straightening as an int
    got = multiply({(1,): Fraction(1, 2)}, {(1,): 2}, 0)
    assert got == {(2,): 2} and type(got[(2,)]) is int


def test_skew_S_examples():
    assert skew_S((2, 1), (1,), 1) == {(1, 1): 1}
    # indices out of containment give zero
    assert skew_S((2, 1), (3,), 1) == {}
    assert skew_S((1,), (1, 1), 1) == {}
    assert skew_S((2,), (), 3) == {(2,): 1}


def leibniz_skew(lam, mu):
    # det(t_{lam_i - mu_j + j - i}) as a signed sum over all l(lam)!
    # permutations of index tuples, a term skipped at its first negative
    # index; unstraightened
    n = len(lam)
    poly = {}
    if len(mu) > n:
        return poly
    for perm in itertools.permutations(range(n)):
        key = []
        for i in range(n):
            r = lam[i] - get(mu, perm[i] + 1) + perm[i] - i
            if r < 0:
                break
            key.append(r)
        else:
            inv = sum(1 for i in range(n) for j in range(i)
                      if perm[j] > perm[i])
            combine(poly, {tuple(key): 1}, -1 if inv % 2 else 1)
    return poly


def test_skew_S_matches_leibniz():
    # every lam with at most 6 rows and |lam| <= 10 against every mu of
    # the same kind, contained in lam or not, straightened term by term
    shapes = [lam for d in range(11) for lam in partitions_of(d, max_len=6)]
    for lam in shapes:
        for mu in shapes:
            poly = leibniz_skew(lam, mu)
            for k in range(3):
                want = {}
                for key, c in poly.items():
                    combine(want, straighten(key, k), c)
                assert skew_S(lam, mu, k) == want, (lam, mu, k)


def test_skew_S_matches_theta_when_no_pairs():
    for k in range(4):
        for d in range(8):
            for lam in k_strict_partitions(d, k):
                if strict_pairs(c_set(lam, k)):
                    continue
                assert skew_S(lam, (), k) == theta(lam, k), (lam, k)


def test_geometric_factors_invert():
    # multiplying the inverted pair factors back recovers the plain
    # determinant expansion: expand((), lam) = sum over subsets S of the
    # pair set of expand(pairs, lam shifted by S)
    for k in range(4):
        for d in range(10):
            for lam in k_strict_partitions(d, k):
                pairs = sorted(strict_pairs(c_set(lam, k)))
                total = {}
                for bits in range(1 << len(pairs)):
                    seq = list(lam)
                    for t, (i, j) in enumerate(pairs):
                        if bits >> t & 1:
                            seq[i - 1] += 1
                            seq[j - 1] -= 1
                    combine(total, expand(frozenset(pairs), tuple(seq)))
                assert total == expand(frozenset(), lam), (lam, k)


def test_to_theta_basis_round_trip():
    rng = random.Random(7)
    for k in range(3):
        for _ in range(8):
            e = {}
            for d in range(2, 7):
                lams = k_strict_partitions(d, k)
                lam = lams[rng.randrange(len(lams))]
                combine(e, {lam: rng.randrange(-4, 5)})
            e = {key: c for key, c in e.items() if c}
            f = to_theta_basis(e, k)
            assert theta_sum(f, k) == e
    assert to_theta_basis(theta((3, 1), 1), 1) == {(3, 1): 1}
    assert to_theta_basis({}, 1) == {}
    # a trailing zero is bad input, not an internal fault
    with pytest.raises(ValueError, match=r"\(2, 1, 0\)"):
        to_theta_basis({(2, 1, 0): 1}, 0)


def test_hat_basis_identity():
    got = to_hat_basis(scaled(theta((3, 1), 1), 3), 1)
    assert got == {(4,): 2, (3, 1): -5, (2, 1, 1): 4, (1, 1, 1, 1): -1}


def test_hat_basis_round_trip():
    for k in (1, 2):
        for lam in [(3, 1), (2, 2, 1), (4, 2), (2, 1, 1)]:
            if not is_k_strict(lam, k):
                continue
            e = theta(lam, k)
            f = to_hat_basis(e, k)
            back = {}
            for alpha, c in f.items():
                acc = UNIT
                for a in alpha:
                    acc = multiply(acc, hat_theta(a, k), k)
                combine(back, acc, c)
            assert back == e, (lam, k)


def test_horizontal_strips():
    assert horizontal_strips((), 0, 2) == [()]
    assert set(horizontal_strips((2,), 1, 3)) == {(2, 1), (3,)}
    assert horizontal_strips((), 2, 1) == []
    assert set(horizontal_strips((2, 1), 2, 3)) == {(2, 2, 1), (3, 2), (3, 1, 1)}


def test_horizontal_strips_match_filtered_partitions():
    # every partition of the right weight that interlaces nu, each once
    for d in range(7):
        for nu in partitions_of(d):
            for size in range(5):
                for cap in range(6):
                    got = horizontal_strips(nu, size, cap)
                    want = {rho for rho in partitions_of(d + size, cap)
                            if all(get(nu, i) <= get(rho, i) <= get(nu, i - 1)
                                   for i in range(2, len(rho) + len(nu) + 1))
                            and get(nu, 1) <= get(rho, 1)}
                    assert len(got) == len(set(got)), (nu, size, cap)
                    assert set(got) == want, (nu, size, cap)


def test_mixed_expand_table():
    got = mixed_expand((3, 2, 1), 1)
    assert got == {
        ((4, 2), ()): 1,
        ((3, 2, 1), ()): 1,
        ((4, 1), (1,)): 1,
        ((3, 2), (1,)): 2,
        ((3, 1), (1, 1)): 2,
        ((2, 1), (1, 1, 1)): 1,
    }
    rows = sum_to_json(got)
    assert {"key": [[3, 2], [1]], "num": "2", "den": "1"} in rows
    assert len(rows) == 6


def test_mixed_expand_matches_uncached_strips(monkeypatch):
    # the inputs of the stanley-corollary suite of isoschub verify, with
    # the memoized strips and with horizontal_strips called afresh
    cases = [(lam, k) for k in range(3) for d in range(1, 9)
             for lam in k_strict_partitions(d, k)]
    want = {case: mixed_expand(*case) for case in cases}
    assert theta_ring._strips.cache_info().hits > 0
    calls = []

    def uncached(nu, size, cap):
        calls.append((nu, size, cap))
        return horizontal_strips(nu, size, cap)

    monkeypatch.setattr(theta_ring, "_strips", uncached)
    assert {case: mixed_expand(*case) for case in cases} == want
    # many repeated arguments, which the memo saves
    assert len(calls) > 2 * len(set(calls))


def test_mixed_expand_k0():
    for d in range(8):
        for lam in k_strict_partitions(d, 0):
            assert mixed_expand(lam, 0) == {(lam, ()): 1}


def test_mixed_nonnegative():
    for k in (1, 2):
        for d in range(9):
            for lam in k_strict_partitions(d, k):
                for (mu, nu), c in mixed_expand(lam, k).items():
                    assert is_k_strict(mu, 0)
                    assert not nu or nu[0] <= k
                    assert weight(mu) + weight(nu) == d
                    assert c > 0, (lam, k, mu, nu, c)


def test_evaluate_examples():
    assert evaluate({(1,): 1}, 1, 1) == {(1, 0): 2, (0, 1): 1}
    assert evaluate({(1,): 1}, 0, 2) == {(1, 0): 2, (0, 1): 2}
    assert evaluate({}, 1, 2) == {}
    assert evaluate(UNIT, 0, 1) == {(0,): 1}


def test_mixed_matches_theta_eval():
    for k in (1, 2, 3):
        for d in range(6):
            for lam in k_strict_partitions(d, k):
                m = max(d, 1)
                lhs = evaluate(theta(lam, k), k, m)
                rhs = evaluate(mixed_expand(lam, k), k, m)
                assert lhs == rhs, (lam, k)


def test_even_odd_generator_identity():
    # sum_{i+j=r} (-1)^i t_i t_j vanishes for odd r and equals
    # (-1)^(r/2) e_{r/2} of the squared extra variables for even r
    for k in (1, 2, 3):
        for r in range(1, 2 * k + 2):
            acc = {}
            for i in range(r + 1):
                combine(acc, multiply(gen(i), gen(r - i), k),
                        -1 if i % 2 else 1)
            if r % 2:
                assert not acc, (k, r)
                continue
            m = r
            nv = m + k
            lhs = evaluate(acc, k, m)
            es = e_list(m, m + k, nv, r // 2)
            sq = {tuple(2 * x for x in e): c for e, c in es[r // 2].items()}
            assert lhs == scaled(sq, -1 if (r // 2) % 2 else 1), (k, r)


def no_pair_regime(lam, k):
    return all(lam[i] + lam[j] <= 2 * k + (j - i)
               for i in range(len(lam)) for j in range(i + 1, len(lam)))


def all_pair_regime(lam, k):
    return all(lam[i] + lam[j] > 2 * k + (j - i)
               for i in range(len(lam)) for j in range(i + 1, len(lam)))


def test_closed_form_no_pair_regime():
    # the thcor suite's small-parts pool must lie in the regime its closed
    # form is stated for; the suite itself checks the identity
    for lam, k in cli._THCOR_A_POOL:
        assert no_pair_regime(lam, k), (lam, k)


def test_closed_form_all_pair_regime():
    for lam, k in cli._THCOR_B_POOL:
        assert all_pair_regime(lam, k) and is_k_strict(lam, 0), (lam, k)


def test_closed_forms_hold_on_every_small_class():
    # the thcor suite checks a pool of each regime; here every k-strict
    # lam with k <= 2 and |lam| <= 6 that lies in a regime satisfies its
    # closed form (one-row classes lie in both)
    small, large = [], []
    for k in range(3):
        for d in range(1, 7):
            for lam in k_strict_partitions(d, k):
                if no_pair_regime(lam, k):
                    small.append((lam, k))
                if all_pair_regime(lam, k) and is_k_strict(lam, 0):
                    large.append((lam, k))
    assert (len(small), len(large)) == (47, 32)
    for cases, is_large in ((small, False), (large, True)):
        for lam, k in cases:
            assert cli._closed_form_holds(lam, k, is_large), (lam, k)


def test_skew_S_separates_variables():
    # the two-variable-family determinant splits as a sum over middle
    # shapes of a pure-x determinant times a skew Schur class in y
    for k in (1, 2):
        for lam in [(1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1), (2, 1, 1),
                    (2, 2, 1)]:
            for mu in subpartitions(lam):
                bound = weight(lam)
                m = max(bound, 1)
                nv = m + k
                qs = q_list(m, nv, bound)
                lhs = evaluate(skew_S(lam, mu, k), k, m)
                rhs = {}
                for nu in subpartitions(lam):
                    if any(get(nu, j) < x for j, x in enumerate(mu, 1)):
                        continue
                    xpart = {}
                    for key, c in skew_S(lam, nu, 0).items():
                        combine(xpart, q_monomial(key, qs, nv, bound), c)
                    es = e_list(m, nv, nv, get(nu, 1) + len(nu))
                    sp = p_det(jacobi_trudi(es, nu, mu), nv, bound)
                    if xpart and sp:
                        combine(rhs, p_mul(xpart, sp, bound))
                assert lhs == rhs, (lam, mu, k)


def naive_mul(a, b, bound):
    # the product term by term on exponent tuples, truncated above bound
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(u + v for u, v in zip(e1, e2))
            if sum(e) <= bound:
                out[e] = out.get(e, 0) + c1 * c2
    return {e: c.numerator if isinstance(c, Fraction) and c.denominator == 1
            else c for e, c in out.items() if c}


def q_monomial(key, qs, nv, bound):
    # the product of the q_r over the parts of key, by naive_mul
    out = {(0,) * nv: 1}
    for r in key:
        out = naive_mul(out, qs[r], bound)
    return out


def random_poly(rng, nv, top, terms):
    # sparse, with coefficients small enough that products often cancel
    coeffs = [-2, -1, 1, 2, Fraction(1, 2), Fraction(-3, 2), Fraction(4, 2)]
    return {tuple(rng.randint(0, top) for _ in range(nv)): rng.choice(coeffs)
            for _ in range(terms)}


def same_sum(got, want):
    return got == want and all(type(got[e]) is type(want[e]) for e in want)


def test_p_mul_matches_naive_product():
    # bounds 0-9 all pack into byte fields; 255/256 is where fields stop
    # fitting a byte, and 1000 takes the general bit-field packing
    rng = random.Random(20260)
    for bound in list(range(10)) + [255, 256, 1000]:
        for _ in range(40):
            nv = rng.randint(1, 4)
            # exponents up to bound + 2, so that some input terms lie
            # above the bound on their own
            top = bound + 2 if bound < 10 else bound // nv + 2
            a = random_poly(rng, nv, top, rng.randint(0, 6))
            b = random_poly(rng, nv, top, rng.randint(0, 6))
            got = p_mul(a, b, bound)
            assert same_sum(got, naive_mul(a, b, bound)), (a, b, bound)
            assert 0 not in got.values()


def test_p_mul_edges():
    x, y = (1, 0), (0, 1)
    # (x + y)(x - y): the cross terms cancel
    assert p_mul({x: 1, y: 1}, {x: 1, y: -1}, 2) == {(2, 0): 1, (0, 2): -1}
    # halves that add up to an integer come back as int
    got = p_mul({x: Fraction(1, 2), y: Fraction(1, 2)}, {x: 1, y: 1}, 2)
    assert same_sum(got, {(2, 0): Fraction(1, 2), (1, 1): 1,
                          (0, 2): Fraction(1, 2)})
    # the whole product lies above the bound, or cancels
    assert p_mul({x: 1}, {y: 1}, 1) == {}
    assert p_mul({x: 1, y: 1}, {(0, 0): 0}, 2) == {}
    # empty factors, and a term of degree above the bound in a factor
    assert p_mul({}, {x: 1}, 3) == {} and p_mul({x: 1}, {}, 3) == {}
    assert p_mul({(0, 0): 1, (4, 0): 5}, {y: 1}, 3) == {y: 1}
    # no variables at all
    assert p_mul({(): 3}, {(): Fraction(1, 3)}, 0) == {(): 1}
    # a negative bound keeps nothing
    assert p_mul({(0,): 1}, {(0,): 1}, -1) == {}


def naive_det(mat, nv, bound):
    # Leibniz: a signed sum over permutations of products of naive_mul
    n = len(mat)
    out = {}
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = {(0,) * nv: 1}
        for i in range(n):
            term = naive_mul(term, mat[i][perm[i]], bound)
        combine(out, term, sign)
    return out


def test_p_det_matches_leibniz():
    # int and Fraction entries, empty entries, and entries with terms
    # above the bound; one entry object may sit in several places
    rng = random.Random(20261)
    for bound in (0, 1, 2, 3, 5, 8, 300):
        for _ in range(12):
            n = rng.randint(1, 4)
            nv = rng.randint(1, 3)
            top = min(bound, 6) + 2
            pool = [random_poly(rng, nv, top, rng.randint(0, 4))
                    for _ in range(n + 1)] + [{}]
            mat = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
            got = p_det(mat, nv, bound)
            assert same_sum(got, naive_det(mat, nv, bound)), (mat, bound)
            assert 0 not in got.values()
    assert p_det([], 2, 3) == {(0, 0): 1}
    assert p_det([[{}]], 2, 3) == {}


def naive_q_list(m, top):
    # q_0..q_top as the truncated product over the variables of
    # 1 + 2 x t + 2 x^2 t^2 + ..., one naive_mul per variable
    total = {(0,) * m: 1}
    for v in range(m):
        factor = {(0,) * m: 1}
        for j in range(1, top + 1):
            factor[tuple(j if i == v else 0 for i in range(m))] = 2
        total = naive_mul(total, factor, top)
    qs = [{} for _ in range(top + 1)]
    for e, c in total.items():
        qs[sum(e)][e] = c
    return qs


def test_q_basis_poly_matches_pfaffian():
    # q_basis_poly takes Q_mu from Schur's Pfaffian; the reference is the
    # q-monomial sum of theta(mu, 0), a route that does not go through
    # the Pfaffian, with each q-monomial a naive product
    for d in range(1, 7):
        m = d
        qs = q_list(m, m, d)
        assert qs == naive_q_list(m, d), d
        for mu in k_strict_partitions(d, 0):
            want = {}
            for key, c in theta(mu, 0).items():
                combine(want, q_monomial(key, qs, m, d), c)
            assert q_basis_poly(mu, qs, m, d) == want, mu


def test_q_lists_may_stop_at_the_largest_q_used():
    # q_basis_poly needs q_r up to the largest part of its Pfaffian, capped
    # at the bound; a shorter list raises instead of giving a silent zero
    for d in range(1, 7):
        qs = q_list(d, d, d)
        for mu in k_strict_partitions(d, 0):
            # Schur's Pfaffian of mu: at k = 0, c_set holds every pair
            pf_mu = expand(strict_pairs(c_set(mu, 0)), mu)
            need = max(max(key) for key in pf_mu)
            want = q_basis_poly(mu, qs, d, d)
            assert q_basis_poly(mu, qs[:need + 1], d, d) == want, mu
            with pytest.raises(ValueError):
                q_basis_poly(mu, qs[:need], d, d)
    # q_3 lies above bound 2, so q_0..q_2 are enough
    assert q_basis_poly((2, 1), q_list(2, 2, 2), 2, 2) == {}


def test_theta_polynomials_are_the_convolution_of_q_and_e():
    # evaluate takes t_r from one series pass; the reference is the
    # convolution t_r = sum_{i <= min(k, r)} q_{r-i} e_i by p_mul
    for k in range(4):
        for m in range(5):
            nv = m + k
            top = 6
            qs = q_list(m, nv, top)
            es = e_list(m, nv, nv, top)
            for r in range(top + 1):
                want = {}
                for i in range(min(k, r) + 1):
                    combine(want, p_mul(qs[r - i], es[i], top))
                assert evaluate({(r,): 1}, k, m) == want, (k, m, r)


def rank(rows):
    # Gaussian elimination over Fraction on sparse rows {column: value}
    pivots = {}
    for row in rows:
        row = {col: Fraction(c) for col, c in row.items() if c}
        while row:
            col = min(row)
            if col not in pivots:
                pivots[col] = row
                break
            piv = pivots[col]
            f = row[col] / piv[col]
            for c, v in piv.items():
                row[c] = row.get(c, 0) - f * v
                if not row[c]:
                    del row[c]
    return len(pivots)


def test_x_vars_is_the_longest_strict_partition():
    # the staircase 1 + 2 + ... + l is the longest strict partition
    want = {0: 1, 1: 1, 2: 1, 3: 2, 5: 2, 6: 3, 9: 3, 10: 4, 14: 4, 15: 5}
    assert {d: x_vars(d) for d in want} == want
    for d in range(1, 16):
        assert x_vars(d) == max(map(len, k_strict_partitions(d, 0))), d


def test_x_vars_keeps_evaluate_injective_and_no_fewer_do():
    # the mixed basis of weight d, strict mu and nu_1 <= k, evaluates to
    # independent polynomials in x_vars(d) x variables, and to dependent
    # ones in one fewer: Q_mu(x_1..x_m) = 0 once l(mu) > m
    for k in range(4):
        for d in range(1, 10):
            basis = [(mu, nu) for e in range(d + 1)
                     for mu in k_strict_partitions(e, 0)
                     for nu in partitions_of(d - e, max_part=k)]
            m = x_vars(d)
            for vars_, full in ((m, True), (m - 1, False)):
                images = [evaluate({b: 1}, k, vars_) for b in basis]
                assert (rank(images) == len(basis)) is full, (k, d, vars_)


def test_thcor_fails_with_a_wrong_q_function(monkeypatch):
    # Q_mu keeps its leading q_mu monomial but loses every other term;
    # the small-parts closed form compares Q-functions with determinants
    # of the q_r, so the suite must fail. The large-parts form takes its
    # right side from the Pfaffian, so each of its cases must fail too,
    # save Q_1 = q_1, which has no other term to lose
    def leading_only(mu, k):
        return {key: c for key, c in theta(mu, k).items() if key == mu}

    monkeypatch.setattr(polyeval, "theta", leading_only)
    detail = cli._suite_thcor(6)
    assert detail.startswith("small-parts regime"), detail
    held = [lam for lam, k in cli._THCOR_B_POOL
            if cli._closed_form_holds(lam, k, True)]
    assert held == [(1,)]


_BROKEN_CHECKS = """
import json, sys
from isoschub import theta
got = {"optimize": sys.flags.optimize}
calls = {"singular": lambda: theta._solve([[0]], [1]),
         "inconsistent": lambda: theta._solve([[1], [1]], [1, 2])}
right = theta.theta
def leaderless(lam, k):
    out = right(lam, k)
    del out[lam]
    return out
def peel():
    theta.theta = leaderless
    return theta.to_theta_basis({(2, 1): 1}, 1)
calls["leader"] = peel
for name, call in calls.items():
    try:
        got[name] = "returned %r" % (call(),)
    except RuntimeError as exc:
        got[name] = str(exc)
print(json.dumps(got))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_basis_checks_raise_runtime_error(flags, child_env):
    # a singular or inconsistent solve, and a theta class that lost its
    # leading term (to_theta_basis then never finished under -O), must
    # raise RuntimeError with or without assert statements
    res = subprocess.run([sys.executable, *flags, "-c", _BROKEN_CHECKS],
                         capture_output=True, text=True, env=child_env,
                         timeout=60)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == {
        "optimize": len(flags), "singular": "transition matrix is singular",
        "inconsistent": "inconsistent linear system",
        "leader": "theta((2, 1), 1) does not lead with (2, 1)"}
