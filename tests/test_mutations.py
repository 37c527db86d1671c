"""Every known fault as one row, with the suites of `isoschub verify`
that must catch it.

A row names the bindings to patch, a function that takes the right
implementation and returns the faulty one, and the suites that must fail
under the fault, each with a text that its failure detail must contain
("" for any). The test patches every binding, empties the package's
memos before and after, runs only the named suites through the command
line, and requires each of them to fail.
"""

import json

import pytest

import isoschub
from isoschub import (cli, cohomology, formal, polyeval, raising,
                      substitution, theta, weyl)


def _two_special_flipped(right):
    # every term of the two-entry series past the leading t_a t_b with
    # its sign flipped: 1 + 2R - 2R^2 + ... in place of 1 - 2R + 2R^2 - ...
    def wrong(a, b):
        lead = tuple(sorted((x for x in (a, b) if x), reverse=True))
        return {key: c if key == lead else -c
                for key, c in right(a, b).items()}
    return wrong


def _det_flipped_at_3(right):
    # every 3 x 3 determinant with the wrong sign
    def wrong(mat, mul, one):
        got = right(mat, mul, one)
        if len(mat) != 3:
            return got
        return mul({}, got, one, -1)
    return wrong


def _drops_last_tableau(right):
    # every list of two or more tableaux without its last one
    def wrong(w, shape=None):
        got = right(w, shape)
        return got[:-1] if len(got) >= 2 else got
    return wrong


def _iota_keeps_s(right):
    # the partner with the S of the leaf it came from
    def wrong(lam, k, psi):
        D, mu, S, h = right(lam, k, psi)
        return D, mu, psi[2], h
    return wrong


def _drops_largest_monomial(right):
    # every polynomial of two or more monomials without its lex-largest
    def wrong(poly, k, n, family):
        if len(poly) >= 2:
            poly = dict(poly)
            del poly[max(poly)]
        return right(poly, k, n, family)
    return wrong


def _drops_largest_key(right):
    # every result of two or more keys without its lex-largest
    def wrong(*args):
        got = right(*args)
        if len(got) >= 2:
            got = dict(got)
            del got[max(got)]
        return got
    return wrong


def _pf_last_sign_flipped(right):
    # every first-row Pfaffian step over three or more entries with the
    # sign of its last term flipped
    def wrong(seq, pair, mul, sub):
        acc = right(seq, pair, mul, sub)
        if len(seq) >= 3:
            entry, minor = pair(seq[0], seq[-1]), sub(seq[1:-1])
            if entry and minor:
                mul(acc, entry, minor, 2 if len(seq) % 2 else -2)
        return acc
    return wrong


def _t_product_ignores_scale(right):
    # every theta-ring multiply-accumulate adds f * g, whatever its scale
    def wrong(acc, f, g, scale=1):
        return right(acc, f, g)
    return wrong


def _packed_mul_ignores_scale(right):
    # every packed multiply-accumulate adds a * b, whatever its scale
    def wrong(acc, a, b, scale, bound):
        return right(acc, a, b, 1, bound)
    return wrong


def _one_more_component(right):
    # every count N >= 1 of free components one too large
    def wrong(lam, mu, k, heights):
        got = right(lam, mu, k, heights)
        return got + 1 if got else got
    return wrong


def _hat_theta_drops_least_at_3_2(right):
    # hat_theta(3, 2) without its lex-least key, every other class intact
    def wrong(r, k):
        got = right(r, k)
        if (r, k) == (3, 2):
            got = dict(got)
            del got[min(got)]
        return got
    return wrong


def _straightening_drops_largest(right):
    # a straightening that loses its lex-largest key whenever the input
    # has a square above the threshold
    def wrong(poly, k):
        got = right(poly, k)
        keys = [sorted(key) for key in poly]
        if any(a == b > k for s in keys for a, b in zip(s, s[1:])):
            got = dict(got)
            del got[max(got)]
        return got
    return wrong


def _family_b_boundary_doubled(right):
    # family B shifted one place too far as it leaves the sigma basis
    def wrong(v, sp, family, shift, den):
        return right(v, sp, family, shift - (family == "B"), den)
    return wrong


def _drops_last_strip(right):
    # every list of two or more horizontal strips without its last one
    def wrong(nu, size, cap):
        got = right(nu, size, cap)
        return got[:-1] if len(got) >= 2 else got
    return wrong


# (name, bindings to patch, fault, {suite that must fail: text its detail
# must contain})
MUTATIONS = [
    # expand takes Schur's Pfaffians from two_special wherever the pair
    # set is dense, as for theta(mu, 0); q_basis_poly has its own
    # entries, so thcor's large-parts form still sees the fault at k = 0
    ("two-special-sign", [(raising, "two_special")], _two_special_flipped,
     {"thcor": "k=0"}),
    # theta.skew_S keeps its own binding, so only the polynomial legs
    # (p_det, and evaluate's Schur classes) move
    ("det-3x3-sign", [(formal, "det"), (polyeval, "det")], _det_flipped_at_3,
     {"theta-hat": "", "thcor": ""}),
    # raising._pf and q_basis_poly take the same first-row step, so the
    # two legs of thcor move together; giambelli-sweep sees the fault
    # through the Pieri rule, with no Q-function on either side
    ("pfaffian-step-last-sign",
     [(formal, "pf"), (raising, "pf"), (polyeval, "pf")],
     _pf_last_sign_flipped,
     {"giambelli-sweep": "R^lam reduced to", "claims": "", "routes": "",
      "thcor": ""}),
    # _pf, skew_S and theta.multiply look t_product up in their module's
    # globals; the Pfaffian step passes its signs as scales, so every
    # Schur Pfaffian over four or more entries goes wrong
    ("t-product-ignores-scale",
     [(raising, "t_product"), (theta, "t_product")], _t_product_ignores_scale,
     {"giambelli-sweep": "R^lam reduced to", "claims": "", "routes": ""}),
    # p_det, q_basis_poly and evaluate multiply-accumulate through
    # polyeval's _mul; the polynomial legs of theta-hat and thcor move
    ("packed-mul-ignores-scale", [(polyeval, "_mul")],
     _packed_mul_ignores_scale,
     {"theta-hat": "r=3 k=1", "thcor": "small-parts regime"}),
    # the theta-hat suite and thcor's closed forms take their determinants
    # through cli's p_det; evaluate's Schur classes go through _det, so
    # only the side of each identity that p_det builds moves
    ("p-det-drops-largest", [(polyeval, "p_det"), (cli, "p_det")],
     _drops_largest_key,
     {"theta-hat": "r=1 k=1", "thcor": "small-parts regime"}),
    # stanley_F and bh_expand call weyl's binding, the ktableaux command
    # cli's; only the two suites that count tableaux can see it
    ("ktableaux-drops-last", [(weyl, "ktableaux"), (cli, "ktableaux")],
     _drops_last_tableau, {"stanley-corollary": "", "bh-example": ""}),
    # verify_claim2 looks iota up in substitution's globals
    ("iota-keeps-s", [(substitution, "iota")], _iota_keeps_s,
     {"claims": ""}),
    # only the forest's evaluation reduces through substitution's binding;
    # a pair's two expansions mostly cancel before any reduction, but a
    # fixed point's reaches it alone
    ("reduce-polynomial-drops-largest", [(substitution, "reduce_polynomial")],
     _drops_largest_monomial, {"claims": "fixed point evaluates nonzero"}),
    # every product and Pieri call compiles its rows from _pieri, and so
    # every Giambelli formula reduces through it
    ("pieri-drops-term", [(cohomology, "_pieri")], _drops_largest_key,
     {"claims": "", "routes": "", "giambelli-sweep": "R^lam reduced to",
      "presentation": ""}),
    # the count N sets every Pieri coefficient 2^N; claims counts the
    # forest's leaves against the rule
    ("free-components-plus-one", [(cohomology, "_free_components")],
     _one_more_component,
     {"pieri-example": "", "routes": "",
      "claims": "leaves against the Pieri rule"}),
    # _expand and _pf's own step look _pf up in raising's globals; at
    # k = 0 every Giambelli formula of the sweep is a Pfaffian
    ("pfaffian-drops-term", [(raising, "_pf")], _drops_largest_key,
     {"giambelli-sweep": ""}),
    # theta_route_product sums the memoized products of its classes
    ("theta-product-drops-term", [(cohomology, "_theta_product")],
     _drops_largest_key, {"routes": ""}),
    # mixed_expand's strip memo calls theta's binding; the memos are
    # emptied before the patch, so every expansion meets the fault
    ("horizontal-strips-drops-last", [(theta, "horizontal_strips")],
     _drops_last_strip, {"thcor": ""}),
    # the theta-hat suite's polynomial determinant leg must notice a
    # hat_theta that lost one term, here only at r = 3, k = 2
    ("hat-theta-drops-term", [(cli, "hat_theta")],
     _hat_theta_drops_least_at_3_2, {"theta-hat": "r=3 k=2"}),
    # a straightening rule that loses a term breaks hat_theta and
    # theta((1,)*r) alike; only a leg without straightening can tell
    ("straightening-drops-term", [(theta, "_straightened")],
     _straightening_drops_largest, {"theta-hat": ""}),
    # every route leaves the sigma basis through _leave, so comparing the
    # two product routes cannot see a fault there; the duality leg must
    ("family-b-boundary-doubled", [(cohomology, "_leave")],
     _family_b_boundary_doubled, {"routes": "duality family B"}),
]


@pytest.mark.parametrize("targets, fault, suites",
                         [row[1:] for row in MUTATIONS],
                         ids=[row[0] for row in MUTATIONS])
def test_verify_catches_the_fault(capsys, monkeypatch, targets, fault,
                                  suites):
    isoschub.clear_caches()
    failed = {}
    try:
        with monkeypatch.context() as patch:
            for mod, name in targets:
                patch.setattr(mod, name, fault(getattr(mod, name)))
            for suite, detail in suites.items():
                code = cli.main(["verify", "--suite", suite,
                                 "--format", "json"])
                row, = json.loads(capsys.readouterr().out)["suites"]
                failed[suite] = (code == 1 and not row["ok"]
                                 and detail in row["detail"])
    finally:
        # a memo filled under the fault must not outlive it
        isoschub.clear_caches()
    assert all(failed.values()), failed
