import random

import pytest

from isoschub.cohomology import (giambelli, multiply, pieri, pieri_apply,
                                 pieri_match, reduce_monomial, stable_n,
                                 theta_route_product, verify_presentation)
from isoschub.partitions import (k_strict_partitions, length_gt_k,
                                 rect_partitions, weight)
from isoschub.raising import c_set, expand, pfaffian_expand, strict_pairs
from isoschub.substitution import ev
from isoschub.theta import straighten, theta

MEMOIZED = [
    (expand, (strict_pairs(c_set((3, 2, 1), 1)), (3, 2, 1))),
    (pfaffian_expand, ((4, 2, 1),)),
    (straighten, ((2, 2), 1)),
    (theta, ((3, 1), 1)),
    (pieri, ((2, 1, 1), 1, 1, 7, "B")),
    (reduce_monomial, ((2, 1), 1, 5, "C")),
    (ev, ((frozenset({(1, 1)}), (2, 1, 1, 1), frozenset(), 0), 1, 10)),
]


@pytest.mark.parametrize("fn, args", MEMOIZED,
                         ids=[fn.__name__ for fn, _ in MEMOIZED])
def test_memoized_results_are_fresh_copies(fn, args):
    first = fn(*args)
    want = dict(first)
    assert want
    first.clear()
    first[(99,)] = 7
    assert fn(*args) == want


def test_pieri_frozen_examples():
    assert pieri((2, 1, 1), 1, 1, 7, "B") == {(2, 1, 1, 1): 1,
                                              (3, 1, 1): 2, (5,): 1}
    assert pieri((1,), 1, 1, 5, "C") == {(2,): 1, (1, 1): 1}
    # a full rectangle has no room left
    assert pieri((4, 3, 2, 1), 3, 0, 4, "C") == {}


def test_pieri_match_details():
    m = pieri_match((2, 1, 1), (5,), 1)
    assert m is not None
    assert m["removed"] == [(2, 1), (3, 1)]
    assert m["added"] == [(1, 3), (1, 4), (1, 5)]
    # every added box is spoken for by the column conditions
    assert m["A"] == [] and m["N"] == 0
    m = pieri_match((2, 1, 1), (3, 1, 1), 1)
    assert m is not None and m["N"] == 1
    m = pieri_match((1,), (2,), 1)
    assert m is not None and m["A"] == [(1, 2)] and m["N"] == 1
    # shrinking above column k is not allowed
    assert pieri_match((3, 1), (2, 1, 1, 1), 1) is None
    # adding two boxes in one column is not allowed
    assert pieri_match((1,), (1, 1, 1), 2) is None


def test_pieri_match_big_case():
    lam = (22, 21, 18, 16, 14, 7, 5, 4, 3, 3, 1)
    mu = (25, 21, 19, 17, 15, 14, 6, 5, 3, 2, 2)
    assert weight(mu) - weight(lam) == 15
    assert pieri_match(lam, mu, 5) is not None


def test_pieri_errors():
    with pytest.raises(AssertionError):
        pieri((1,), 9, 1, 5, "B")  # p beyond n + k
    with pytest.raises(AssertionError):
        pieri((7,), 1, 1, 5, "B")  # lam outside the rectangle


def test_pieri_family_rescaling():
    for k in (1, 2):
        n = 7
        for d in range(6):
            for lam in k_strict_partitions(d, k, max_part=n + k,
                                           max_len=n - k):
                b = pieri(lam, 2, k, n, "B")
                c = pieri(lam, 2, k, n, "C")
                assert set(b) == set(c)
                for mu, coeff in b.items():
                    shift = length_gt_k(lam, k) - length_gt_k(mu, k)
                    assert c[mu] == coeff * 2 ** shift, (lam, mu)


def test_reduce_monomial():
    assert reduce_monomial((3,), 1, 5, "C") == {(3,): 1}
    assert reduce_monomial((1, 1), 1, 5, "C") == {(2,): 1, (1, 1): 1}
    assert reduce_monomial((9,), 1, 5, "C") == {}  # above n + k
    assert reduce_monomial((2, 0, 1), 1, 5, "C") == \
        reduce_monomial((1, 2), 1, 5, "C")
    assert reduce_monomial((), 1, 5, "B") == {(): 1}


def test_giambelli_intro_example():
    assert giambelli((3, 2, 1), 1, 5, "C") == {(3, 2, 1): 1}


def test_giambelli_sweep():
    for k in (0, 1, 2):
        for n in range(k, 7):
            for lam in rect_partitions(k, n):
                for fam in ("C", "B"):
                    assert giambelli(lam, k, n, fam) == {lam: 1}


def test_multiply_unit_and_example():
    n = stable_n(5, 1)
    b = {(2, 1, 1): 1}
    assert multiply({(): 1}, b, 1, n, "C") == b
    assert multiply({(1,): 1}, b, 1, n, "C") == {(2, 1, 1, 1): 1,
                                                 (3, 1, 1): 2, (5,): 1}


def test_multiply_commutative_associative():
    rng = random.Random(11)
    for k in (0, 1, 2):
        pool = [lam for d in range(1, 7)
                for lam in k_strict_partitions(d, k)]
        for _ in range(5):
            lam, mu, nu = (pool[rng.randrange(len(pool))] for _ in range(3))
            n = stable_n(weight(lam) + weight(mu) + weight(nu), k)
            ab = multiply({lam: 1}, {mu: 1}, k, n, "C")
            ba = multiply({mu: 1}, {lam: 1}, k, n, "C")
            assert ab == ba
            abc = multiply(ab, {nu: 1}, k, n, "C")
            acb = multiply(multiply({lam: 1}, {nu: 1}, k, n, "C"),
                           {mu: 1}, k, n, "C")
            assert abc == acb


def test_multiply_routes_agree():
    for k in (0, 1, 2):
        for dtot in range(0, 9):
            for da in range(0, dtot + 1):
                for lam in k_strict_partitions(da, k):
                    for mu in k_strict_partitions(dtot - da, k):
                        if lam > mu:
                            continue
                        n = stable_n(dtot, k)
                        for fam in ("C", "B"):
                            r1 = multiply({lam: 1}, {mu: 1}, k, n, fam)
                            r2 = theta_route_product({lam: 1}, {mu: 1},
                                                     k, n, fam)
                            assert r1 == r2, (lam, mu, k, fam)


def test_multiply_stable_constants():
    # structure constants settle once everything fits with room to spare
    for k in (0, 1, 2):
        for lam, mu in [((2, 1), (2, 1)), ((3, 1), (2,)), ((2, 2), (1, 1))]:
            if not k_strict_ok(lam, k) or not k_strict_ok(mu, k):
                continue
            d = weight(lam) + weight(mu)
            small = multiply({lam: 1}, {mu: 1}, k, stable_n(d, k), "C")
            big = multiply({lam: 1}, {mu: 1}, k, stable_n(d, k) + 3, "C")
            assert small == big


def k_strict_ok(lam, k):
    from isoschub.partitions import is_k_strict
    return is_k_strict(lam, k)


def test_truncation_drops_overflow():
    # in a small space the same product loses the classes that no
    # longer fit, nothing else changes
    k, d = 1, 6
    full = multiply({(3,): 1}, {(3,): 1}, k, stable_n(d, k), "C")
    n = 4  # rectangle is 3 x 5
    small = multiply({(3,): 1}, {(3,): 1}, k, n, "C")
    assert small == {lam: c for lam, c in full.items()
                     if len(lam) <= n - k and lam[0] <= n + k}


def test_pieri_apply_edges():
    n = 5
    elem = {(1,): 2}
    assert pieri_apply(elem, 0, 1, n, "C") == elem
    assert pieri_apply(elem, -1, 1, n, "C") == {}
    assert pieri_apply(elem, n + 2, 1, n, "C") == {}


def test_presentation_sweep():
    for fam in ("C", "B"):
        for k in (0, 1, 2):
            for n in range(k + 1, 7):
                for r in range(k + 1, n + k + 1):
                    assert verify_presentation(k, n, r, fam), (fam, k, n, r)
