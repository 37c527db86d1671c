"""Every known fault as one row, with the suites of `isoschub verify`
that must catch it.

A row names the bindings to patch, a function that takes the right
implementation and returns the faulty one, the suites that must fail
under the fault, and a text that each of their failure details must
contain ("" for any). The test patches every binding, empties the
package's memos before and after, runs only the named suites through
the command line, and requires each of them to fail.
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
    def wrong(mat, mul, add, one):
        got = right(mat, mul, add, one)
        if len(mat) != 3:
            return got
        out: dict = {}
        add(out, got, -1)
        return out
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


def _drops_last_strip(right):
    # every list of two or more horizontal strips without its last one
    def wrong(nu, size, cap):
        got = right(nu, size, cap)
        return got[:-1] if len(got) >= 2 else got
    return wrong


# (name, bindings to patch, fault, suites that must fail, text the
# detail of each failing suite must contain)
MUTATIONS = [
    # expand takes Schur's Pfaffians from two_special wherever the pair
    # set is dense, as for theta(mu, 0); q_basis_poly has its own
    # entries, so thcor's large-parts form still sees the fault at k = 0
    ("two-special-sign", [(raising, "two_special")], _two_special_flipped,
     ("thcor",), "k=0"),
    # theta.skew_S keeps its own binding, so only the polynomial legs
    # (p_det, q_det_poly, schur_conj_poly) move
    ("det-3x3-sign", [(formal, "det"), (polyeval, "det")], _det_flipped_at_3,
     ("theta-hat", "thcor"), ""),
    # stanley_F and bh_expand call weyl's binding, the ktableaux command
    # cli's; only the two suites that count tableaux can see it
    ("ktableaux-drops-last", [(weyl, "ktableaux"), (cli, "ktableaux")],
     _drops_last_tableau, ("stanley-corollary", "bh-example"), ""),
    # verify_claim2 looks iota up in substitution's globals
    ("iota-keeps-s", [(substitution, "iota")], _iota_keeps_s, ("claims",),
     ""),
    # only the forest's evaluation reduces through substitution's binding;
    # a pair's two expansions mostly cancel before any reduction, but a
    # fixed point's reaches it alone
    ("reduce-polynomial-drops-largest", [(substitution, "reduce_polynomial")],
     _drops_largest_monomial, ("claims",), "fixed point evaluates nonzero"),
    # every product and Pieri call compiles its rows from _pieri
    ("pieri-drops-term", [(cohomology, "_pieri")], _drops_largest_key,
     ("claims", "routes"), ""),
    # _expand and _pf's own recursion look _pf up in raising's globals;
    # at k = 0 every Giambelli formula of the sweep is a Pfaffian
    ("pfaffian-drops-term", [(raising, "_pf")], _drops_largest_key,
     ("giambelli-sweep",), ""),
    # theta_route_product sums the memoized products of its classes
    ("theta-product-drops-term", [(cohomology, "_theta_product")],
     _drops_largest_key, ("routes",), ""),
    # mixed_expand's strip memo calls theta's binding; the memos are
    # emptied before the patch, so every expansion meets the fault
    ("horizontal-strips-drops-last", [(theta, "horizontal_strips")],
     _drops_last_strip, ("thcor",), ""),
]


@pytest.mark.parametrize("targets, fault, suites, detail",
                         [row[1:] for row in MUTATIONS],
                         ids=[row[0] for row in MUTATIONS])
def test_verify_catches_the_fault(capsys, monkeypatch, targets, fault,
                                  suites, detail):
    isoschub.clear_caches()
    failed = {}
    try:
        with monkeypatch.context() as patch:
            for mod, name in targets:
                patch.setattr(mod, name, fault(getattr(mod, name)))
            for suite in suites:
                code = cli.main(["verify", "--suite", suite,
                                 "--format", "json"])
                row, = json.loads(capsys.readouterr().out)["suites"]
                failed[suite] = (code == 1 and not row["ok"]
                                 and detail in row["detail"])
    finally:
        # a memo filled under the fault must not outlive it
        isoschub.clear_caches()
    assert all(failed.values()), failed
