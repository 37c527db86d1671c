import contextlib
import importlib
import io
import itertools
import json
import math
import pkgutil
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import isoschub
from isoschub import cohomology, raising, substitution
from isoschub import theta as theta_ring
from isoschub.cohomology import (giambelli, multiply, pieri, pieri_match,
                                 reduce_monomial, reduce_polynomial, stable_n,
                                 theta_route_product, verify_presentation)
from isoschub.formal import (add_into, combine, norm_scalar, scaled,
                             sum_from_json)
from isoschub.partitions import (count_bases, get, in_rect,
                                 k_strict_partitions, length_gt_k,
                                 rect_partitions, split_columns,
                                 subpartitions, weight)
from isoschub.polyeval import (e_list, evaluate, p_det, p_mul, q_basis_poly,
                               q_list, x_vars)
from isoschub.raising import (c_set, diagonal_count, expand, is_valid_pairs,
                              middle_row, outside_rim, strict_pairs,
                              two_special)
from isoschub.substitution import (apply_rule, build_forest, ev, iota,
                                   root_compositions, verify_claim2)
from isoschub.theta import (hat_theta, horizontal_strips, mixed_expand,
                            skew_S, straighten, theta, to_hat_basis)
from isoschub.weyl import (grassmannian_element, ktableaux, reduced_words,
                           right_factors, stanley_F)
from test_substitution import pieri_S_sets

# Public functions over a private memo: each result must be a new dict,
# straight from the memo or through a family conversion.
MEMOIZED = {
    "expand": (expand, (strict_pairs(c_set((3, 2, 1), 1)), (3, 2, 1))),
    "straighten": (straighten, ((2, 2), 1)),
    "theta": (theta, ((3, 1), 1)),
    "pieri": (pieri, ((2, 1, 1), 1, 1, 7, "B")),
    "pieri-C": (pieri, ((2, 1, 1), 1, 1, 7, "C")),
    "reduce_monomial": (reduce_monomial, ((2, 1), 1, 5, "C")),
    "reduce_monomial-B": (reduce_monomial, ((2, 1), 1, 5, "B")),
    "reduce_polynomial": (reduce_polynomial,
                          ({(2, 1): 1, (3,): Fraction(1, 2)}, 1, 5, "B")),
    "giambelli": (giambelli, ((3, 2, 1), 1, 5, "B")),
    "multiply": (multiply, ({(2, 1): 1}, {(1,): 1}, 1, 5, "C")),
    "multiply-B": (multiply, ({(2, 1): 1, (1,): 2}, {(1,): 1}, 1, 5, "B")),
    "ev": (ev, ((frozenset({(1, 1)}), (2, 1, 1, 1), frozenset(), 0), 1, 10)),
}


@pytest.mark.parametrize("name", sorted(MEMOIZED))
def test_memoized_results_are_fresh_copies(name):
    fn, args = MEMOIZED[name]
    first = fn(*args)
    want = dict(first)
    assert want
    first.clear()
    first[(99,)] = 7
    assert fn(*args) == want


def _package_memos():
    # every functools memo bound in a module of the package, by identity
    memos = {}
    for info in pkgutil.iter_modules(isoschub.__path__):
        mod = importlib.import_module("isoschub." + info.name)
        for name, value in vars(mod).items():
            if callable(getattr(value, "cache_info", None)):
                memos.setdefault(id(value), ("%s.%s" % (info.name, name),
                                             value))
    return dict(memos.values())


def test_clear_caches_empties_every_memo():
    from isoschub import cli
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["product", "--type", "B", "--n", "4", "--k", "1",
                      "--lambda", "2,1", "--mu", "2"],
                     ["verify", "--suite", "all", "--max-weight", "1"]):
            assert cli.main(argv) == 0
    expand(frozenset({(1, 2), (1, 3), (2, 3)}), (4, 2, 1))
    # no command lists reduced words: ktableaux walks them
    reduced_words((2, -1))
    theta_route_product({(2, 1): 1}, {(1,): 1}, 1, 4, "C")
    memos = _package_memos()
    cold = [name for name, memo in memos.items()
            if not memo.cache_info().currsize]
    # every memo holds something, so one left out below would show
    assert {"cohomology._space", "cohomology._formula",
            "cohomology._theta_product", "raising._pf"} <= set(memos)
    assert cold == []
    isoschub.clear_caches()
    left = {name: memo.cache_info().currsize for name, memo in memos.items()
            if memo.cache_info().currsize}
    assert left == {}


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


def test_pieri_rows_match_pieri_match():
    # the engine's one-pass row against the row built from pieri_match
    # over every class of the right weight, so _candidates is checked too
    rows = 0
    for k in range(4):
        for n in range(max(k, 1), 7):
            classes = rect_partitions(k, n)
            by_weight = {}
            for mu in classes:
                by_weight.setdefault(weight(mu), []).append(mu)
            for lam in classes:
                ell = length_gt_k(lam, k)
                for p in range(1, n + k + 1):
                    want = {}
                    for mu in by_weight.get(weight(lam) + p, ()):
                        m = pieri_match(lam, mu, k)
                        if m is not None:
                            want[mu] = 1 << m["N"] + ell - length_gt_k(mu, k)
                    got = cohomology._pieri(lam, p, k, n)
                    assert got == want, (lam, p, k, n)
                    assert list(got) == sorted(got)
                    rows += 1
    assert rows == 7168


def rowwise(lam, mu, k):
    # the rowwise conditions of pieri_match: lam_j - 1 <= mu_j <= lam_{j-1},
    # and no row longer than k shrinks
    for j in range(1, max(len(lam), len(mu)) + 1):
        lj, mj = get(lam, j), get(mu, j)
        if j > 1 and mj > get(lam, j - 1):
            return False
        if mj < lj - 1 or (lj > k and mj < lj):
            return False
    return True


def test_candidates_match_rowwise_filter():
    # every class of the rectangle with |mu| = |lam| + p that passes the
    # rowwise conditions, each once
    for k in range(4):
        for n in range(k, 7):
            classes = rect_partitions(k, n)
            by_weight = {}
            for mu in classes:
                by_weight.setdefault(weight(mu), []).append(mu)
            for lam in classes:
                for p in range(1, n + k + 1):
                    want = {mu for mu in by_weight.get(weight(lam) + p, ())
                            if rowwise(lam, mu, k)}
                    got = cohomology._candidates(lam, p, k, n)
                    assert len(got) == len(set(got)), (lam, p, k, n)
                    assert set(got) == want, (lam, p, k, n)


def test_pieri_errors():
    with pytest.raises(ValueError):
        pieri((1,), 9, 1, 5, "B")  # p beyond n + k
    with pytest.raises(ValueError):
        pieri((7,), 1, 1, 5, "B")  # lam outside the rectangle


# Bad input to the public functions; each call must raise ValueError, with
# or without python -O.
BAD_CALLS = {
    "pieri-outside-rect": lambda: pieri((2, 2), 1, 1, 5, "B"),
    "pieri-p-zero": lambda: pieri((1,), 0, 1, 5, "C"),
    "pieri-p-above": lambda: pieri((1,), 7, 1, 5, "C"),
    "pieri-family": lambda: pieri((1,), 1, 1, 5, "D"),
    "giambelli-not-k-strict": lambda: giambelli((2, 2), 1, 5, "C"),
    "giambelli-outside-rect": lambda: giambelli((9,), 1, 3, "C"),
    "multiply-first": lambda: multiply({(9, 9): 1}, {(): 1}, 1, 3, "C"),
    "multiply-second": lambda: multiply({(): 1}, {(9, 9): 1}, 1, 3, "C"),
    "multiply-second-not-k-strict":
        lambda: multiply({(1,): 1}, {(2, 2): 1}, 1, 5, "B"),
    "theta-route-first":
        lambda: theta_route_product({(9, 9): 1}, {(): 1}, 1, 3, "C"),
    "theta-route-second":
        lambda: theta_route_product({(): 1}, {(9, 9): 1}, 1, 3, "C"),
    "theta-not-k-strict": lambda: theta((2, 2), 1),
    "mixed-expand-not-k-strict": lambda: mixed_expand((2, 2), 1),
    "grassmannian-n-too-small": lambda: grassmannian_element((5, 1), 1, 3),
    "forest-p-zero": lambda: build_forest((2, 1), 0, 1),
    "forest-not-k-strict": lambda: build_forest((2, 2), 1, 1),
    "presentation-r-above": lambda: verify_presentation(1, 3, 9, "C"),
    "split-columns-not-k-strict": lambda: split_columns((2, 2), 1),
    "expand-diagonal-pair": lambda: expand(frozenset({(1, 1)}), (2, 1)),
    "expand-not-downward-closed":
        lambda: expand(frozenset({(2, 3)}), (3, 2, 1)),
    # a pair set that is no set of pairs of ints raised TypeError, or
    # answered: a float or bool index equals an int, and a triple beyond
    # the length of lam was dropped unread
    "expand-pair-set-none": lambda: expand(None, (2, 1)),
    "expand-pair-int": lambda: expand({1}, (2, 1)),
    "expand-pair-str-index": lambda: expand({(1, "a")}, (2, 1)),
    "expand-pair-list": lambda: expand([[1, 2]], (2, 1)),
    "expand-pair-triple": lambda: expand({(1, 2, 3)}, (1,)),
    "expand-pair-float-index": lambda: expand({(1.0, 2)}, (2, 1)),
    "expand-pair-bool-index": lambda: expand({(True, 2)}, (2, 1)),
    # a float size or cap raised TypeError; a nu that is no partition
    # gave [] (an iterator nu is read once: see EDGE_CASES)
    "horizontal-strips-float-size": lambda: horizontal_strips((1,), 1.0, 3),
    "horizontal-strips-float-cap": lambda: horizontal_strips((1,), 1, 3.0),
    "horizontal-strips-not-partition":
        lambda: horizontal_strips((1, 2), 1, 3),
    "theta-route-family":
        lambda: theta_route_product({(1,): 1}, {(1,): 1}, 1, 5, "D"),
    "multiply-family": lambda: multiply({(): 1}, {(1,): 1}, 1, 5, "D"),
    "reduce-monomial-family": lambda: reduce_monomial((), 1, 5, "D"),
    "giambelli-family": lambda: giambelli((), 1, 5, "D"),
    "evaluate-negative-k": lambda: evaluate({(1,): 1}, -1, 2),
    "evaluate-negative-m": lambda: evaluate({(2,): 1}, 1, -1),
    # a variable outside the nv fields of a key, and a matrix that is
    # not square
    "q-list-m-above-nv": lambda: q_list(3, 2, 2),
    "q-list-negative-m": lambda: q_list(-1, 2, 2),
    "e-list-hi-above-nv": lambda: e_list(1, 4, 2, 2),
    "e-list-negative-lo": lambda: e_list(-1, 1, 2, 2),
    "p-det-not-square": lambda: p_det([[{(1,): 1}], [{(1,): 1}]], 1, 2),
    # a key longer than the others, in byte fields and in wide ones, and
    # a negative exponent, which wide fields would borrow across
    "p-mul-long-key": lambda: p_mul({(1, 0): 1}, {(0, 0, 1): 1}, 3),
    "p-mul-long-key-wide": lambda: p_mul({(1, 0): 1}, {(0, 0, 1): 1}, 300),
    "p-det-long-keys":
        lambda: p_det([[{(1,): 1}, {(0, 1): 1}], [{(0, 0, 1): 1}, {(1,): 1}]],
                      1, 3),
    "p-mul-negative-exponent-wide":
        lambda: p_mul({(1, 0): 1}, {(2, -1): 1}, 300),
    # q_0..q_2 where Q_(3) needs q_3: a short list gave 0
    "q-basis-poly-too-few-q":
        lambda: q_basis_poly((3,), q_list(2, 2, 2), 2, 3),
    # a float coefficient, neither an int nor a Fraction
    "reduce-polynomial-float":
        lambda: reduce_polynomial({(1,): 0.5}, 1, 3, "C"),
    "multiply-float": lambda: multiply({(1,): 0.5}, {(1,): 1}, 1, 3, "C"),
    # a coefficient that is no number once raised TypeError from the sum
    "multiply-str-coefficient":
        lambda: multiply({(1,): "x"}, {(1,): 1}, 1, 4, "C"),
    "multiply-none-coefficient":
        lambda: multiply({(1,): None}, {(1,): 1}, 1, 4, "C"),
    "theta-route-str-coefficient":
        lambda: theta_route_product({(1,): "x"}, {(1,): 1}, 1, 4, "C"),
    # a float p or index, which a warm space once answered as the int
    "pieri-float-p": lambda: pieri((1,), 1.0, 1, 3, "C"),
    "reduce-polynomial-float-index":
        lambda: reduce_polynomial({(1.0, 1): 1}, 1, 3, "C"),
    # a float k, n or part, which once gave garbage, a TypeError from
    # deep inside, or on a warm space the int's answer
    "theta-float-part": lambda: theta((2.5, 1), 0),
    "theta-float-k": lambda: theta((2, 1), 1.0),
    "expand-float-entry": lambda: expand(frozenset(), (2.5, 1)),
    "skew-S-float-entry": lambda: skew_S((2.5, 1), (), 0),
    "forest-float-part": lambda: build_forest((2.5, 1), 1, 0),
    "forest-float-p": lambda: build_forest((2, 1), 1.0, 0),
    "straighten-float-index": lambda: straighten((1.5, 1), 0),
    "theta-multiply-float-index":
        lambda: theta_ring.multiply({(1.5, 1): 1}, {(1,): 1}, 0),
    "pieri-float-k": lambda: pieri((2, 1), 1, 0.5, 3, "C"),
    "pieri-integral-float-k": lambda: pieri((2, 1), 1, 1.0, 3, "C"),
    "multiply-float-n": lambda: multiply({(1,): 1}, {(1,): 1}, 1, 3.0, "C"),
    # an n that is no int once raised TypeError from n + k, before the
    # space was checked
    "pieri-str-n": lambda: pieri((1,), 1, 1, "3", "C"),
    "pieri-none-n": lambda: pieri((1,), 1, 1, None, "C"),
    # a float raised TypeError from deep inside; a bool, a negative k,
    # a float k or k > n gave an answer
    "hat-theta-float-r": lambda: hat_theta(2.0, 0),
    "hat-theta-bool-r": lambda: hat_theta(True, 0),
    "evaluate-float-m": lambda: evaluate({(1,): 1}, 1, 2.0),
    "evaluate-bool-m": lambda: evaluate({(1,): 1}, 1, True),
    "x-vars-negative-weight": lambda: x_vars(-1),
    "x-vars-bool-weight": lambda: x_vars(True),
    "x-vars-float-weight": lambda: x_vars(4.0),
    "count-bases-float-d": lambda: count_bases(4.0, 1),
    "k-strict-float-d": lambda: k_strict_partitions(4.0, 1),
    "k-strict-negative-k": lambda: k_strict_partitions(3, -1),
    "k-strict-float-k": lambda: k_strict_partitions(3, 1.5),
    "rect-negative-k": lambda: rect_partitions(-1, 2),
    "rect-k-above-n": lambda: rect_partitions(2, 1),
    # a float part or p raised TypeError from deep inside; a part below
    # the next, or a negative one, gave a wrong list
    "subpartitions-float-part": lambda: subpartitions((2.5, 1)),
    "subpartitions-increasing": lambda: subpartitions((1, 2)),
    "subpartitions-zero-inside": lambda: subpartitions((2, 0, 1)),
    "subpartitions-negative-part": lambda: subpartitions((-1,)),
    "root-compositions-float-p": lambda: root_compositions((1,), 1.5),
    "pieri-match-negative-k": lambda: pieri_match((1,), (2,), -1),
    "pieri-s-sets-negative-k": lambda: pieri_S_sets((1,), (2,), -1),
    "count-bases-negative-k": lambda: count_bases(5, -1),
    "count-bases-negative-d": lambda: count_bases(-3, 1),
    "sum-from-json-zero-den":
        lambda: sum_from_json([{"key": [1], "num": "1", "den": "0"}]),
    "sum-from-json-missing-field":
        lambda: sum_from_json([{"key": [1], "num": "1"}]),
    "sum-from-json-key-not-list":
        lambda: sum_from_json([{"key": 1, "num": "1", "den": "1"}]),
    # int() would truncate a JSON number 1.5 to 1
    "sum-from-json-num-not-string":
        lambda: sum_from_json([{"key": [1], "num": 1.5, "den": "1"}]),
    "claim2-modified-forest":
        lambda: verify_claim2(build_forest((2, 1), 2, 1, modified=True)),
    "apply-rule-not-downward-closed":
        lambda: apply_rule((2, 1), 1, (frozenset({(2, 3)}), (2, 1, 0),
                                       frozenset(), 1)),
    "apply-rule-level-zero":
        lambda: apply_rule((2, 1), 1, (frozenset({(1, 1)}), (2, 1, 0),
                                       frozenset(), 0)),
    "iota-level-one":
        lambda: iota((2, 1), 1, (frozenset(), (2, 1, 0), frozenset(), 1)),
    "pieri-s-sets-not-pieri-term": lambda: pieri_S_sets((2, 1), (1,), 1),
    "multiply-negative-k":
        lambda: multiply({(1,): 1}, {(1,): 1}, -1, 3, "C"),
    "giambelli-negative-k": lambda: giambelli((1,), -1, 3, "C"),
    "pieri-negative-k": lambda: pieri((1,), 1, -1, 3, "C"),
    "theta-negative-k": lambda: theta((1,), -1),
    "reduce-monomial-k-above-n": lambda: reduce_monomial((), 5, 3, "C"),
    "presentation-k-above-n": lambda: verify_presentation(5, 3, 6, "C"),
    "straighten-negative-k": lambda: straighten((2, 1), -1),
    "hat-theta-negative-k": lambda: hat_theta(2, -1),
    "skew-S-negative-k": lambda: skew_S((2, 1), (), -1),
    "to-hat-basis-negative-k": lambda: to_hat_basis({(1,): 1}, -1),
    "theta-multiply-negative-k":
        lambda: theta_ring.multiply({(1,): 1}, {(1,): 1}, -1),
    "ktableaux-repeated-value": lambda: ktableaux((1, 1)),
    "ktableaux-not-1-to-n": lambda: ktableaux((2,)),
    "stanley-repeated-value": lambda: stanley_F((1, 1)),
    "reduced-words-zero": lambda: reduced_words((0, 1)),
    "right-factors-not-1-to-n": lambda: right_factors((3, 1)),
    "ktableaux-too-long": lambda: ktableaux(grassmannian_element((65,), 0)),
    "stanley-too-many-words": lambda: stanley_F((-1, -2, -3, -4, -5)),
    # a k, n, r, part or bound that is no int raised TypeError from a
    # comparison or range, or AttributeError from bit_length
    "presentation-str-r": lambda: verify_presentation(1, 3, "2", "C"),
    "presentation-none-r": lambda: verify_presentation(1, 3, None, "C"),
    "presentation-float-r": lambda: verify_presentation(1, 3, 2.0, "C"),
    "presentation-str-k": lambda: verify_presentation("1", 3, 2, "C"),
    "pieri-match-float-lam-part": lambda: pieri_match((2.0, 1), (3, 1), 1),
    "pieri-match-float-mu-part": lambda: pieri_match((2, 1), (3.0, 1), 1),
    "p-mul-float-bound": lambda: p_mul({(1,): 1}, {(1,): 1}, 1.5),
    "p-det-str-bound": lambda: p_det([[{(1,): 1}]], 1, "x"),
    "q-basis-poly-str-bound":
        lambda: q_basis_poly((2,), q_list(2, 2, 3), 2, "x"),
    # nine rows; the limit raises before any minor is expanded
    "skew-S-too-many-rows": lambda: skew_S(tuple(range(9, 0, -1)), (), 1),
    # w0 of B_7: the walk stops past 50,000 of its 645,120 elements
    "right-factors-too-large": lambda: right_factors(tuple(range(-1, -8, -1))),
    # a variable range, nv, top or part that is no int raised TypeError
    # from a range, a comparison or a %d; a bool lo gave an answer
    "e-list-float-top": lambda: e_list(0, 1, 1, 1.5),
    "e-list-float-lo": lambda: e_list(0.0, 1, 1, 2),
    "e-list-bool-lo": lambda: e_list(True, 1, 1, 2),
    "q-list-float-m": lambda: q_list(1.0, 1, 2),
    "q-list-str-nv": lambda: q_list(1, "2", 2),
    "p-det-str-nv": lambda: p_det([[{(1,): 1}]], "1", 2),
    "q-basis-poly-str-nv":
        lambda: q_basis_poly((2,), q_list(2, 2, 3), "2", 3),
    # an int where a sequence belongs raised "not iterable"
    "ktableaux-int-shape": lambda: ktableaux((2, 1), shape=5),
    "reduce-monomial-int-beta": lambda: reduce_monomial(5, 1, 3, "C"),
    # a str d raised TypeError from d + k; a float d gave a float n
    "stable-n-str-d": lambda: stable_n("3", 1),
    "stable-n-float-d": lambda: stable_n(1.5, 1),
    # a negative top or p answered: q_0 for the empty list q_0..q_-1, and
    # the one composition (-1,)
    "q-list-negative-top": lambda: q_list(1, 1, -1),
    "root-compositions-negative-p": lambda: root_compositions((), -1),
    # a float or bool index gave float keys or the int's answer, and a
    # str raised TypeError
    "two-special-float-index": lambda: two_special(1.5, 2),
    "two-special-bool-index": lambda: two_special(True, 2),
    "two-special-str-index": lambda: two_special("a", 1),
    # a key outside the span raised RuntimeError from the solve
    "to-hat-basis-not-k-strict": lambda: to_hat_basis({(2, 2): 1}, 1),
    "to-hat-basis-trailing-zero": lambda: to_hat_basis({(2, 0): 1}, 1),
    # a pair set that is no set of pairs of ints, or a float jmax, raised
    # TypeError; a float index or k, a negative k and a float part answered
    "is-valid-pairs-int-member": lambda: is_valid_pairs({1}),
    "strict-pairs-int-member": lambda: strict_pairs({1}),
    "diagonal-count-int-member": lambda: diagonal_count({1}),
    "outside-rim-float-jmax": lambda: outside_rim(frozenset(), 2.0),
    "middle-row-none": lambda: middle_row(None),
    "is-valid-pairs-float-index": lambda: is_valid_pairs({(1.0, 2)}, False),
    "c-set-float-k": lambda: c_set((2, 1), 1.0),
    "c-set-negative-k": lambda: c_set((2, 1), -1),
    "c-set-float-part": lambda: c_set((1.5,), 1),
}


def _calls_without_value_error():
    missed = []
    for name, call in BAD_CALLS.items():
        try:
            call()
        except ValueError:
            continue
        missed.append(name)
    return missed


@pytest.mark.parametrize("name", sorted(BAD_CALLS))
def test_bad_input_raises_value_error(name):
    with pytest.raises(ValueError):
        BAD_CALLS[name]()


def test_pieri_checks_the_space_before_p():
    # p = 1 lies in 1..n+k, but n = -1 has no space at k = 0
    with pytest.raises(ValueError, match="need k <= n, got k=0 n=-1"):
        pieri((1,), 1, 0, -1, "C")


def test_float_indices_raise_cold_and_warm():
    # first on an empty space, then after the integer calls have compiled
    # the row and memoized the monomial that the float calls would hit
    isoschub.clear_caches()
    for _ in range(2):
        for name in ("pieri-float-p", "reduce-polynomial-float-index"):
            with pytest.raises(ValueError):
                BAD_CALLS[name]()
        want = {(1, 1): 1, (2,): 1}
        assert pieri((1,), 1, 1, 3, "C") == want
        assert reduce_polynomial({(1, 1): 1}, 1, 3, "C") == want


# a call with a float k, n or entry that equals an int, and the int call
# whose memo entry it would find
FLOAT_TWINS = [
    (lambda: pieri((2, 1), 1, 1.0, 3, "C"),
     lambda: pieri((2, 1), 1, 1, 3, "C")),
    (lambda: multiply({(1,): 1}, {(1,): 1}, 1, 3.0, "C"),
     lambda: multiply({(1,): 1}, {(1,): 1}, 1, 3, "C")),
    (lambda: theta((2.0, 1), 0), lambda: theta((2, 1), 0)),
    (lambda: theta((2, 1), 1.0), lambda: theta((2, 1), 1)),
    (lambda: expand(frozenset(), (2.0, 1)),
     lambda: expand(frozenset(), (2, 1))),
    (lambda: straighten((2.0, 2), 1), lambda: straighten((2, 2), 1)),
    (lambda: skew_S((2.0, 2), (), 1), lambda: skew_S((2, 2), (), 1)),
    (lambda: theta_ring.multiply({(2.0,): 1}, {(2,): 1}, 1),
     lambda: theta_ring.multiply({(2,): 1}, {(2,): 1}, 1)),
    (lambda: build_forest((2.0, 1), 1, 1), lambda: build_forest((2, 1), 1, 1)),
]


def test_float_k_n_and_entries_raise_cold_and_warm():
    # first with every memo empty, then after the int twins filled them
    isoschub.clear_caches()
    cold = None
    for _ in range(2):
        for bad, _good in FLOAT_TWINS:
            with pytest.raises(ValueError):
                bad()
        got = [good() for _bad, good in FLOAT_TWINS]
        assert cold is None or got == cold
        cold = got


@pytest.mark.parametrize("bound", (3, 300))
def test_polynomial_keys_are_checked_before_packing(bound):
    # byte fields and wide ones alike name the key, whichever factor or
    # matrix entry holds it
    for a, b, bad in (({(1, 0): 1}, {(0, 0, 1): 1}, (0, 0, 1)),
                      ({(1, 0): 1}, {(2, -1): 1}, (2, -1)),
                      ({(-1, 2): 1}, {(0, 0): 1}, (-1, 2))):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            p_mul(a, b, bound)
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            p_det([[a, {}], [{}, b]], 2, bound)


def test_bad_input_raises_value_error_under_O(child_env):
    # assert statements vanish under -O; the input checks must not
    script = ("import runpy, sys; ns = runpy.run_path(sys.argv[1]); "
              "print(sys.flags.optimize, ns['_calls_without_value_error']())")
    res = subprocess.run([sys.executable, "-O", "-c", script, __file__],
                         capture_output=True, text=True, env=child_env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split(None, 1) == ["1", "[]\n"]


def test_pieri_family_rescaling():
    for k in (1, 2):
        n = 7
        for lam in rect_partitions(k, n):
            if weight(lam) > 5:
                break
            b = pieri(lam, 2, k, n, "B")
            c = pieri(lam, 2, k, n, "C")
            assert set(b) == set(c)
            for mu, coeff in b.items():
                shift = length_gt_k(lam, k) - length_gt_k(mu, k)
                assert c[mu] == coeff * 2 ** shift, (lam, mu)


def test_one_pieri_call_per_class_and_p_per_space(monkeypatch):
    # every entry point of both families reads the rows compiled in the
    # space's store; family B is converted, not computed apart
    rule, calls = cohomology._pieri, []

    def counted(lam, p, k, n):
        calls.append((lam, p, k, n))
        return rule(lam, p, k, n)

    isoschub.clear_caches()
    monkeypatch.setattr(cohomology, "_pieri", counted)
    k, n = 1, 5
    for family in ("C", "B"):
        for lam in rect_partitions(k, n):
            giambelli(lam, k, n, family)
            pieri(lam, 2, k, n, family)
            reduce_monomial(lam, k, n, family)
            multiply({lam: 1}, {(2, 1): 1}, k, n, family)
    multiply({(2, 1): 1}, {(1,): 1}, 1, 4, "C")
    assert len(calls) == len(set(calls))
    assert {(k, n), (1, 4)} == {call[2:] for call in calls}
    assert len(calls) > 2 * len(list(rect_partitions(k, n)))
    isoschub.clear_caches()


def test_reduce_monomial():
    assert reduce_monomial((3,), 1, 5, "C") == {(3,): 1}
    assert reduce_monomial((1, 1), 1, 5, "C") == {(2,): 1, (1, 1): 1}
    assert reduce_monomial((9,), 1, 5, "C") == {}  # above n + k
    assert reduce_monomial((2, 0, 1), 1, 5, "C") == \
        reduce_monomial((1, 2), 1, 5, "C")
    assert reduce_monomial((), 1, 5, "B") == {(): 1}


def test_giambelli_intro_example():
    # family C: sigma-monomials; family B: c-monomials with 2^-l_k = 1/4
    assert giambelli((3, 2, 1), 1, 5, "C") == {
        (3, 2, 1): 1, (3, 3): -1, (4, 1, 1): -2, (4, 2): 1, (5, 1): 2}
    q = Fraction(1, 4)
    assert giambelli((3, 2, 1), 1, 5, "B") == {
        (3, 2, 1): q, (3, 3): -q, (4, 1, 1): -2 * q, (4, 2): q, (5, 1): 2 * q}


def test_giambelli_sweep():
    # giambelli raises RuntimeError unless its formula reduces to lam
    for k in (0, 1, 2):
        for n in range(k, 7):
            for lam in rect_partitions(k, n):
                for fam in ("C", "B"):
                    giambelli(lam, k, n, fam)


def test_giambelli_formula_reduces_monomial_by_monomial():
    # the sorted Giambelli formula that multiply walks, walked from the
    # unit, one sigma_p per index after the prefix shared with the
    # monomial before, must give exactly the sigma vector of lam: a route
    # to the class of lam that does not go through reduce_polynomial's
    # monomial memo, which giambelli's own check uses
    for k in (0, 1, 2):
        for n in range(k, 6):
            sp = cohomology._space(k, n)
            unit = cohomology._enter({(): 1}, k, n, "C")[1]
            for lam in rect_partitions(k, n):
                acc: dict = {}
                cohomology._walk(sp, cohomology._formula(lam, k), unit, 1, acc)
                got = {i: c for i, c in acc.items() if c}
                assert got == {sp.intern(lam): 1}, (lam, k, n)


def _plain_walk(sp, formula, v, scale):
    # the formula on v one monomial at a time, each from v itself: no
    # prefix shared, no empty vector skipped, no early stop. Indices run
    # high to low, so a monomial holds an index above n + k, a zero
    # sigma_p, when its first one is. Also counts the other monomials
    # whose vector is empty before their last sigma_p.
    top = sp.n + sp.k
    acc: dict = {}
    emptied = 0
    for key, c in formula:
        if key and key[0] > top:
            continue
        w = v
        for p in key[:-1]:
            w = sp.apply(w, p)
        emptied += not w
        combine(acc, sp.apply(w, key[-1]) if key else w, scale * c)
    return acc, emptied


def test_walk_matches_a_plain_monomial_sum():
    # second factors of weight just below and at the room dim - |lam|
    # left by lam, so that some prefixes empty the vector before the
    # last sigma_p; coefficients and a scale other than one show that
    # each last sigma_p carries both
    emptied = 0
    for family in ("C", "B"):
        for k in (0, 1, 2):
            for n in range(k, 6):
                classes = list(rect_partitions(k, n))
                sp = cohomology._space(k, n)
                for lam in classes:
                    formula = cohomology._formula(lam, k)
                    room = sp.dim - weight(lam)
                    near = [mu for mu in classes
                            if room - 1 <= weight(mu) <= room]
                    for b in ({(): 1}, {mu: (1, -2, 3)[j % 3]
                                        for j, mu in enumerate(near)}):
                        v = cohomology._enter(b, k, n, family)[1]
                        acc: dict = {}
                        cohomology._walk(sp, formula, v, 3, acc)
                        want, e = _plain_walk(sp, formula, v, 3)
                        assert {i: c for i, c in acc.items() if c} == want, \
                            (family, k, n, lam, b)
                        emptied += e
    assert emptied


def _monomial_sum(poly, k, n, family):
    # the reference applies the rules itself: a negative or over-(n + k)
    # index kills the monomial, zeros drop, and the rest sort high to
    # low. Then one reduce_monomial per key, with coefficient 1, summed.
    acc: dict = {}
    for beta, c in poly.items():
        if all(0 <= b <= n + k for b in beta):
            mono = tuple(sorted((b for b in beta if b), reverse=True))
            combine(acc, reduce_monomial(mono, k, n, family), c)
    return acc


def test_reduce_polynomial_sums_its_monomials():
    rng = random.Random(16)
    coeffs = (1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 4), Fraction(2, 3))
    for k, n in ((0, 3), (1, 4), (2, 4)):
        top = n + k
        for family in ("C", "B"):
            for _ in range(40):
                poly: dict = {}
                for _ in range(rng.randrange(1, 6)):
                    # any order, with 0, negative and over-(n + k) indices
                    beta = tuple(rng.randint(-1, top + 1)
                                 for _ in range(rng.randrange(4)))
                    poly[beta] = rng.choice(coeffs)
                got = reduce_polynomial(poly, k, n, family)
                assert exact(got, _monomial_sum(poly, k, n, family)), poly
    # two keys that sort to the same monomial, a unit, a killed monomial
    poly = {(1, 2): Fraction(1, 2), (2, 0, 1): Fraction(1, 2), (0,): 3,
            (1, -1): 5, (9, 1): 7}
    for family in ("C", "B"):
        want = _monomial_sum(poly, 1, 4, family)
        assert exact(reduce_polynomial(poly, 1, 4, family), want)
        assert exact(want, combine(reduce_monomial((2, 1), 1, 4, family),
                                   {(): 3}))
    # sigma_1^2 = 2 sigma_2 in the Lagrangian Grassmannian
    assert reduce_polynomial({(1, 1): 1, (2,): -2}, 0, 3, "C") == {}
    assert reduce_polynomial({(1, 2): 1, (2, 1): -1}, 1, 4, "B") == {}
    assert reduce_polynomial({}, 1, 4, "C") == {}


def test_a_dropped_pieri_term_fails_the_formula_checks(monkeypatch):
    # a Pieri rule that loses the last term of every row with two or more
    # must break the Giambelli formula of (1, 1) and the first quadratic
    # relation in family B too; the pieri-drops-term row of
    # test_mutations.py runs the suites, which stop at family C
    rule = cohomology._pieri

    def dropped(lam, p, k, n):
        out = rule(lam, p, k, n)
        if len(out) > 1:
            out.popitem()
        return out

    isoschub.clear_caches()
    monkeypatch.setattr(cohomology, "_pieri", dropped)
    try:
        with pytest.raises(RuntimeError, match="R.lam reduced to"):
            giambelli((1, 1), 1, 4, "B")
        assert not verify_presentation(1, 4, 2, "B")
    finally:
        isoschub.clear_caches()


def test_family_b_giambelli_reduces_in_family_b(monkeypatch):
    # the family-B formula is reduced in family B, through _leave's tau
    # branch, so a boundary that shifts family B one place too far breaks
    # it while family C still passes
    right = cohomology._leave

    def doubled(v, sp, family, shift, den):
        return right(v, sp, family, shift - (family == "B"), den)

    monkeypatch.setattr(cohomology, "_leave", doubled)
    with pytest.raises(RuntimeError, match="R.lam reduced to"):
        giambelli((2, 1), 1, 4, "B")
    assert giambelli((2, 1), 1, 4, "C") == {(2, 1): 1, (3,): -1}


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


def test_multiply_family_b_sums():
    # sums that mix classes with different l_k, one coefficient a Fraction
    # whose products come out integral, through both product routes
    for k in (1, 2):
        a = {(3,): Fraction(1, 2), (1,): 1}
        b = {(2, 1): 2, (1, 1): -4}
        c = {(2,): 1, (1,): 3}
        n = stable_n(8, k)
        ab = multiply(a, b, k, n, "B")
        assert ab and all(type(v) is int for v in ab.values())
        assert ab == multiply(b, a, k, n, "B")
        assert ab == theta_route_product(a, b, k, n, "B")
        assert multiply(ab, c, k, n, "B") == \
            multiply(a, multiply(b, c, k, n, "B"), k, n, "B")
    # both routes share the family-B boundary, so pin it against the Pieri
    # rule: c_1 = tau_1 and c_2 = 2 tau_2 at k = 1
    lam, n = (2, 1, 1), 7
    assert multiply({(1,): 1}, {lam: 1}, 1, n, "B") == pieri(lam, 1, 1, n, "B")
    assert multiply({(2,): 2}, {lam: 1}, 1, n, "B") == pieri(lam, 2, 1, n, "B")


def _seeded_sum(rng, pool, k, coefficients):
    # three classes of the pool, not all with the same l_k
    while True:
        keys = rng.sample(pool, 3)
        if len({length_gt_k(lam, k) for lam in keys}) > 1:
            return {lam: rng.choice(coefficients) for lam in keys}


def multiply_then_convert(a, b, k, n, family):
    # the theta route with no memo, the oracle of the memoized one:
    # expand both sums in the monomial basis, multiply them there,
    # convert the product once, and drop the keys outside the rectangle
    sp, va, sa, da = cohomology._enter(a, k, n, family)
    _, vb, sb, db = cohomology._enter(b, k, n, family)
    ea = theta_ring.theta_sum(cohomology._leave(va, sp, "C", 0, 1), k)
    eb = theta_ring.theta_sum(cohomology._leave(vb, sp, "C", 0, 1), k)
    prod = theta_ring.to_theta_basis(theta_ring.multiply(ea, eb, k), k)
    v = cohomology._enter({lam: c for lam, c in prod.items()
                           if in_rect(lam, k, n)}, k, n, "C")[1]
    return cohomology._leave(v, sp, family, sa + sb, da * db)


def test_theta_route_matches_multiply_then_convert_on_routes_pairs():
    # every pair of the routes suite at its default weight, in the order
    # the suite takes it and swapped
    count = 0
    for family in ("C", "B"):
        for k in range(3):
            for dtot in range(2, 11):
                n = stable_n(dtot, k)
                for da in range(1, dtot):
                    for lam in k_strict_partitions(da, k):
                        for mu in k_strict_partitions(dtot - da, k):
                            if mu < lam:
                                continue
                            a, b = {lam: 1}, {mu: 1}
                            want = multiply_then_convert(a, b, k, n, family)
                            assert exact(theta_route_product(
                                a, b, k, n, family), want), (family, k, a, b)
                            assert exact(theta_route_product(
                                b, a, k, n, family), want), (family, k, b, a)
                            count += 1
    assert count == 2 * 900


def test_multiply_matches_theta_route_on_seeded_sums():
    # halves on one side, even numbers on the other: every product is
    # integral, in both families, while the inputs carry Fractions; the
    # memoized theta route must give what multiply-then-convert gives
    rng = random.Random(8)
    halves = (1, -2, Fraction(1, 2), Fraction(-3, 2), Fraction(4, 2))
    evens = (2, -4, 6)
    for family in ("C", "B"):
        for k in (0, 1, 2):
            for n in (k + 2, k + 3, stable_n(8, k)):
                pool = [lam for lam in rect_partitions(k, n)
                        if 1 <= weight(lam) < 5]
                for _ in range(3):
                    a = _seeded_sum(rng, pool, k, halves)
                    b = _seeded_sum(rng, pool, k, evens)
                    got = multiply(a, b, k, n, family)
                    assert exact(got, theta_route_product(a, b, k, n,
                                                          family)), \
                        (family, k, n, a, b)
                    assert exact(got, multiply_then_convert(a, b, k, n,
                                                            family)), \
                        (family, k, n, a, b)
                    assert all(type(c) is int for c in got.values())


def test_multiply_commutes_on_seeded_sums():
    # multiply walks the formulas of the factor whose classes have fewer
    # parts, or as many and less weight, so swapping the factors may
    # change the walk, never the sum
    rng = random.Random(21)
    coefficients = (1, -2, 3, Fraction(1, 2), Fraction(-5, 3))
    for family in ("C", "B"):
        for k in (0, 1, 2):
            for n in (k + 2, k + 3, stable_n(8, k)):
                pool = [lam for lam in rect_partitions(k, n)
                        if weight(lam) < 7]
                for _ in range(3):
                    a = _seeded_sum(rng, pool, k, coefficients)
                    b = _seeded_sum(rng, pool, k, coefficients)
                    got = multiply(a, b, k, n, family)
                    assert exact(got, multiply(b, a, k, n, family)), \
                        (family, k, n, a, b)


def test_point_class_times_unit_walks_the_unit():
    # the formula of the point class of IG(7, 16) takes seconds to
    # expand; with the unit on either side only the unit's is walked
    point = (9, 8, 7, 6, 5, 4, 3)
    multiply({(): 1}, {(): 1}, 1, 8, "C")
    size = cohomology._formula.cache_info().currsize
    for a, b in (({point: 1}, {(): 1}), ({(): 1}, {point: 1})):
        assert multiply(a, b, 1, 8, "C") == {point: 1}
        assert cohomology._formula.cache_info().currsize == size


def test_fewer_parts_factor_is_walked():
    # (7,) is heavier than (1, 1, 1, 1) but has one part where it has
    # four, and a walk is as deep as its monomials are long: only the
    # one-part formula is built, in either order
    isoschub.clear_caches()
    want = theta_route_product({(7,): 1}, {(1, 1, 1, 1): 1}, 1, 6, "C")
    for a, b in (({(7,): 1}, {(1, 1, 1, 1): 1}),
                 ({(1, 1, 1, 1): 1}, {(7,): 1})):
        assert multiply(a, b, 1, 6, "C") == want
        assert cohomology._formula.cache_info().currsize == 1
    cohomology._formula((7,), 1)
    assert cohomology._formula.cache_info().currsize == 1


def _four_pass_enter(elem, k, n, family):
    # the way in as four passes, the oracle of the fused one: intern and
    # sum, clear the denominators, and in family B take the greatest l_k
    # as shift and rescale every coefficient by 2^(shift - l_k)
    sp = cohomology._space(k, n)
    v: dict = {}
    for lam, c in elem.items():
        i = sp.intern(lam)
        v[i] = v.get(i, 0) + c
    den = math.lcm(1, *(Fraction(c).denominator for c in v.values()))
    v = {i: int(Fraction(c) * den) for i, c in v.items()}
    if family == "C":
        return v, 0, den
    shift = max((sp.ell[i] for i in v), default=0)
    return {i: c << shift - sp.ell[i] for i, c in v.items()}, shift, den


def test_enter_matches_four_passes():
    # the named cases at k = 1, n = 4, then seeded sums, in both families
    cases = [
        (1, 4, {}),
        (1, 4, {(3, 1): 5}),                             # a single key
        (1, 4, {(2,): 1, (3,): -2}),                     # equal l_k
        (1, 4, {(1,): 1, (3, 2): 2}),                    # mixed l_k
        (1, 4, {(2, 1): 3, (2, 1, 0): Fraction(1, 2)}),  # one class twice
        (1, 4, {(1,): 0, (2,): 1}),                      # a zero
        (1, 4, {(1,): True, (2, 1): Fraction(-5, 6)}),
    ]
    rng = random.Random(26)
    coefficients = (0, 1, -3, True, Fraction(1, 2), Fraction(-5, 6),
                    Fraction(4, 2))
    for k in (0, 1, 2):
        for n in (k + 2, k + 3):
            pool = list(rect_partitions(k, n))
            for _ in range(20):
                keys = rng.sample(pool, rng.randint(1, 4))
                elem = {lam: rng.choice(coefficients) for lam in keys}
                if rng.random() < 0.3:
                    elem[keys[0] + (0,)] = rng.choice(coefficients)
                cases.append((k, n, elem))
    for family in ("C", "B"):
        for k, n, elem in cases:
            got = cohomology._enter(elem, k, n, family)[1:]
            assert got == _four_pass_enter(elem, k, n, family), \
                (family, k, n, elem)
            assert all(type(c) is int for c in got[0].values())


def test_rational_sums_multiply_exactly():
    # denominators 2, 3, 4 and 6 on both sides, so products need not be
    # integral: both routes must agree, and agree with the sum of the
    # products of basis classes, scaled term by term (bilinearity)
    half = Fraction(1, 2)
    for route in (multiply, theta_route_product):
        assert route({(1,): half}, {(1,): 1}, 1, 4, "C") == {
            (2,): half, (1, 1): half}
        assert route({(1,): half}, {(1,): 1}, 1, 4, "B") == {
            (2,): 1, (1, 1): half}
    rng = random.Random(15)
    thirds = (1, -2, Fraction(1, 3), Fraction(-5, 6), Fraction(3, 4))
    for family in ("C", "B"):
        for k in (0, 1, 2):
            for n in (k + 2, k + 3):
                pool = [lam for lam in rect_partitions(k, n)
                        if 1 <= weight(lam) < 4]
                for _ in range(2):
                    a = _seeded_sum(rng, pool, k, thirds)
                    b = _seeded_sum(rng, pool, k, thirds)
                    got = multiply(a, b, k, n, family)
                    assert exact(got, theta_route_product(a, b, k, n,
                                                          family)), \
                        (family, k, n, a, b)
                    want: dict = {}
                    for lam, ca in a.items():
                        for mu, cb in b.items():
                            combine(want, multiply({lam: 1}, {mu: 1}, k, n,
                                                   family), ca * cb)
                    assert exact(got, want), (family, k, n, a, b)


def test_products_above_the_top_degree_vanish_unwalked():
    # the theta route multiplies without truncating by weight, so it is
    # the evidence that every pair past the top degree is zero; multiply
    # must say so without building a formula or compiling a Pieri row
    for family in ("C", "B"):
        for k in (0, 1, 2):
            for n in range(k + 1, 5):
                classes = list(rect_partitions(k, n))
                top = max(map(weight, classes))
                above = [(lam, mu) for lam in classes for mu in classes
                         if weight(lam) + weight(mu) > top]
                assert above
                isoschub.clear_caches()
                for lam, mu in above:
                    assert multiply({lam: 1}, {mu: 1}, k, n, family) == {}
                space = cohomology._space(k, n)
                assert space.dim == top
                assert cohomology._formula.cache_info().currsize == 0
                assert not any(row is not None
                               for rows in space.ops.values()
                               for row in rows)
                for lam, mu in above:
                    assert theta_route_product({lam: 1}, {mu: 1}, k, n,
                                               family) == {}, \
                        (family, k, n, lam, mu)
    isoschub.clear_caches()


def test_sums_that_straddle_the_top_degree():
    # the second factor holds classes below, at and above the room
    # top - |lam| that the first factor's lightest lam leaves, so the
    # classes of the first factor walk different parts of it
    rng = random.Random(19)
    coefficients = (1, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6))
    for family in ("C", "B"):
        for k, n in ((0, 2), (0, 3), (1, 3), (1, 4), (2, 4)):
            classes = list(rect_partitions(k, n))
            top = max(map(weight, classes))
            for _ in range(3):
                a = {lam: rng.choice(coefficients)
                     for lam in rng.sample([c for c in classes if c], 2)}
                room = top - weight(min(a, key=weight))
                sides = [[mu for mu in classes if cmp(weight(mu), room)]
                         for cmp in (int.__lt__, int.__eq__, int.__gt__)]
                b = {rng.choice(side): rng.choice(coefficients)
                     for side in sides}
                assert len(b) == 3
                got = multiply(a, b, k, n, family)
                assert exact(got, theta_route_product(a, b, k, n, family)), \
                    (family, k, n, a, b)
                want: dict = {}
                for lam, ca in a.items():
                    for mu, cb in b.items():
                        combine(want, multiply({lam: 1}, {mu: 1}, k, n,
                                               family), ca * cb)
                assert exact(got, want), (family, k, n, a, b)


def test_one_product_compiles_few_operator_rows():
    # at stable_n the rectangle is far too big to compile ahead; a product
    # reaches only the rows its vectors touch
    k, n = 2, 14
    classes = 2 ** (n - k) * math.comb(n, k)
    assert classes == 372736
    isoschub.clear_caches()
    lam, mu = (4, 3, 1), (3, 2, 1)
    got = multiply({lam: 1}, {mu: 1}, k, n, "C")
    assert got == theta_route_product({lam: 1}, {mu: 1}, k, n, "C")
    space = cohomology._space(k, n)
    rows = sum(row is not None for rows in space.ops.values()
               for row in rows)
    assert 0 < rows and rows * 1000 < classes * (n + k)
    assert len(space.classes) * 1000 < classes


def test_keys_with_trailing_zeros_are_their_classes():
    n = 5
    assert multiply({(1, 0): 1, (1,): 2}, {(1,): 1}, 1, n, "C") == \
        {(2,): 3, (1, 1): 3}
    assert multiply({(1, 0): 1}, {(1, 0, 0): 1}, 1, n, "C") == \
        multiply({(1,): 1}, {(1,): 1}, 1, n, "C")


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


def test_integrality_check_survives_python_O(child_env):
    # a Pieri rule with halved coefficients makes products, Pieri rows
    # and monomial reductions non-integral; each leaves the sigma basis
    # through the same check, which must raise even with asserts stripped
    script = """
from fractions import Fraction
import json, sys
from isoschub import cohomology
rule = cohomology._pieri
cohomology._pieri = lambda *args: {mu: Fraction(c, 2)
                                   for mu, c in rule(*args).items()}
got = [sys.flags.optimize]
for call in (lambda: cohomology.multiply({(1,): 1}, {(1,): 1}, 1, 5, "B"),
             lambda: cohomology.pieri((1,), 1, 1, 5, "B"),
             lambda: cohomology.reduce_monomial((1, 1), 1, 5, "C")):
    try:
        got.append("returned %r" % (call(),))
    except RuntimeError:
        got.append("raised")
print(json.dumps(got))
"""
    res = subprocess.run([sys.executable, "-O", "-c", script],
                         capture_output=True, text=True, env=child_env)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [1, "raised", "raised", "raised"]


_BROKEN_HELPERS = """
import json, sys
import test_substitution
from isoschub import weyl
got = [sys.flags.optimize]
test_substitution.r_boxes = lambda lam, k, mu: {(1, 2)}
split = weyl.split_columns
weyl.split_columns = lambda lam, k: split(lam, k)[:2] + (split(lam, k)[2] + 1,)
for call in (lambda: test_substitution.pieri_S_sets((1,), (2,), 1),
             lambda: weyl.grassmannian_element((3, 1), 1, 4)):
    try:
        got.append("returned %r" % (call(),))
    except RuntimeError as exc:
        got.append(str(exc).split(":")[0])
print(json.dumps(got))
"""


def test_oracle_checks_survive_python_O(child_env):
    # a wrong helper trips pieri_S_sets' free-box check and the diagonal
    # count of grassmannian_element, with assert statements stripped
    res = subprocess.run([sys.executable, "-O", "-c", _BROKEN_HELPERS],
                         capture_output=True, text=True, env=child_env)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [
        1, "free boxes", "grassmannian_element((3, 1), 1, 4)"]


_BROKEN_RULE = """
import json, sys
from isoschub import substitution
got = [sys.flags.optimize]
rule = substitution.apply_rule

def repeated(*args):
    label, children = rule(*args)
    return label, children and children + children[:1]

def s_outside(*args):
    label, children = rule(*args)
    return label, children and [(D, mu, S | {(9, 9)}, h)
                                for D, mu, S, h in children]

for broken in (repeated, s_outside):
    substitution.apply_rule = broken
    try:
        got.append("returned %r" % (substitution.build_forest((2, 1), 2, 1),))
    except RuntimeError as exc:
        got.append(str(exc).split(":")[0])
print(json.dumps(got))
"""


def test_forest_invariants_survive_python_O(child_env):
    # a rule that repeats a child, or puts a pair outside D minus C into
    # S, must stop build_forest with assert statements stripped
    res = subprocess.run([sys.executable, "-O", "-c", _BROKEN_RULE],
                         capture_output=True, text=True, env=child_env)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [
        1, "repeated tuple", "S outside D minus C or mu of the wrong length"]


def test_presentation_sweep():
    for fam in ("C", "B"):
        for k in (0, 1, 2):
            for n in range(k + 1, 7):
                for r in range(k + 1, n + k + 1):
                    assert verify_presentation(k, n, r, fam), (fam, k, n, r)


def exact(got, want):
    # equal as dicts, and every coefficient of the same type
    return got == want and all(type(got[key]) is type(want[key])
                               for key in want)


def test_formal_scalars_come_back_exact():
    assert type(norm_scalar(Fraction(6, 3))) is int
    assert norm_scalar(Fraction(1, 2)) == Fraction(1, 2)
    acc = {(1,): Fraction(1, 2)}
    add_into(acc, (1,), Fraction(1, 2))
    assert exact(acc, {(1,): 1})
    add_into(acc, (1,), -1)
    assert acc == {}
    acc = {(1,): Fraction(1, 2), (2,): 1}
    combine(acc, {(1,): Fraction(1, 2), (2,): Fraction(1, 3), (3,): 2})
    assert exact(acc, {(1,): 1, (2,): Fraction(4, 3), (3,): 2})
    # a scale equal to 1 that is not the int 1
    combine(acc, {(3,): 1}, Fraction(1))
    assert exact(acc, {(1,): 1, (2,): Fraction(4, 3), (3,): 3})
    combine(acc, {(2,): Fraction(2, 3)}, Fraction(1, 2))
    assert exact(acc, {(1,): 1, (2,): Fraction(5, 3), (3,): 3})
    assert exact(scaled({(1,): 4, (2,): 3}, Fraction(1, 2)),
                 {(1,): 2, (2,): Fraction(3, 2)})


def test_combine_zero_coefficients_and_zero_scale():
    acc = {(1,): 2}
    # a zero in other, on a key acc lacks and on one it holds
    assert combine(acc, {(2,): 0, (1,): 0}) is acc
    assert acc == {(1,): 2}
    combine(acc, {(2,): 0}, 3)
    assert acc == {(1,): 2}
    combine(acc, {(1,): -1}, 2)
    assert acc == {}
    acc = {(1,): 3}
    assert combine(acc, {(1,): 5, (2,): 1}, 0) is acc
    assert acc == {(1,): 3}


# Edge inputs that the general step covers with no branch of its own: one
# row, an empty determinant, a grow step on a diagonal corner, which
# moves a unit onto its own slot, a zero scale and a t_0 in a factor.
# Then two guards that answer before the general step: a lam that is not
# k-strict and a zero scale in scaled. Each value and its coefficient
# types are pinned here.
EDGE_CASES = [
    ("expand-one-row", lambda: expand(frozenset(), (3,)), {(3,): 1}),
    ("pfaffian-one-row", lambda: raising._pf((5, 0)), {(5,): 1}),
    ("pfaffian-empty", lambda: raising._pf(()), {(): 1}),
    # a negative index is t_r = 0, as in expand({(1, 2)}, (a, b)); it once
    # counted as t_0 = 1 and left {(2,): 1} and {(3,): 1, (2,): -2}
    ("two-special-negative-first", lambda: two_special(-1, 2), {}),
    ("two-special-negative-first-odd", lambda: two_special(-2, 3), {}),
    ("p-det-empty", lambda: p_det([], 2, 3), {(0, 0): 1}),
    ("hat-theta-0-k0", lambda: hat_theta(0, 0), {(): 1}),
    ("hat-theta-0-k2", lambda: hat_theta(0, 2), {(): 1}),
    ("grow-diagonal-corner",
     lambda: substitution._grow((frozenset({(1, 1)}), (3, 1, 0), frozenset(),
                                 2), (2, 2)),
     [(frozenset({(1, 1), (2, 2)}), (3, 1, 0), frozenset(), 2),
      (frozenset({(1, 1), (2, 2)}), (3, 1, 0), frozenset({(2, 2)}), 2)]),
    ("combine-zero-scale",
     lambda: combine({(1,): 3, (2,): Fraction(1, 2)}, {(1,): 5, (3,): 1}, 0),
     {(1,): 3, (2,): Fraction(1, 2)}),
    # t_0 = 1 drops out of a raw factor before the product is straightened
    ("theta-multiply-zero-index",
     lambda: theta_ring.multiply({(1, 0): 1}, {(2,): 1}, 1), {(2, 1): 1}),
    ("pieri-match-not-k-strict", lambda: pieri_match((2, 2), (3, 2), 1),
     None),
    ("scaled-zero-scale", lambda: scaled({(1,): 3}, 0), {}),
    # an iterator argument is read once, as a tuple; the int check once
    # spent it, which left {(): 1}, () -> () and the empty skew
    ("reduce-monomial-iterator",
     lambda: reduce_monomial(iter((1,)), 1, 3, "C"), {(1,): 1}),
    ("pieri-match-iterators", lambda: pieri_match(iter((1,)), iter((2,)), 0),
     {"added": [(1, 2)], "removed": [], "mentioned": set(),
      "match_removed": [], "A": [(1, 2)], "components": [[(1, 2)]], "N": 1}),
    # an iterator argument once reached an index or len() after its
    # check, and raised TypeError
    ("root-compositions-iterator",
     lambda: root_compositions(iter((1,)), 1), [(1, 1), (2, 0)]),
    ("subpartitions-iterator", lambda: subpartitions(iter((1,))),
     [(), (1,)]),
    ("stanley-f-iterator", lambda: stanley_F(iter((2, 1))), {(1,): 1}),
    # it raised TypeError from nu + (0,)
    ("horizontal-strips-iterator",
     lambda: horizontal_strips(iter((1,)), 1, 3), [(2,), (1, 1)]),
]


@pytest.mark.parametrize("make, want", [c[1:] for c in EDGE_CASES],
                         ids=[c[0] for c in EDGE_CASES])
def test_edge_inputs_take_the_general_path(make, want):
    got = make()
    assert got == want
    if isinstance(want, dict):
        assert {key: type(c) for key, c in got.items()} == {
            key: type(c) for key, c in want.items()}


def old_ev(psi, k, n):
    # 2^(-#diagonal pairs) applied to every term, as Fractions throughout
    D, mu = frozenset(psi[0]), tuple(psi[1])
    factor = Fraction(1, 1 << diagonal_count(D))
    res = {}
    for mono, c in expand(strict_pairs(D), mu).items():
        for key, v in reduce_monomial(mono, k, n, "B").items():
            res[key] = res.get(key, 0) + factor * c * v
    return {key: v.numerator if v.denominator == 1 else v
            for key, v in res.items() if v}


def test_ev_matches_fraction_computation():
    # pair sets with 0, 1 and 2 diagonal pairs, every mu with entries <= 3
    fz = frozenset
    pair_sets = [fz(), fz({(1, 2)}), fz({(1, 1)}), fz({(1, 1), (1, 2)}),
                 fz({(1, 1), (1, 2), (1, 3)}), fz({(1, 1), (1, 2), (2, 2)})]
    seen = {int: 0, Fraction: 0}
    for k in (0, 1):
        for D in pair_sets:
            for mu in itertools.product(range(4), repeat=3):
                psi = (D, mu, fz(), 0)
                got = ev(psi, k, 6)
                assert exact(got, old_ev(psi, k, 6)), (psi, k)
                for v in got.values():
                    seen[type(v)] += 1
    # the sweep reaches both integral and dyadic coefficients
    assert seen[int] and seen[Fraction], seen
