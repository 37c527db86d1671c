import itertools
from math import comb

import pytest

import isoschub
from isoschub import cohomology, substitution
from isoschub.cohomology import pieri, pieri_match, stable_n
from isoschub.formal import combine
from isoschub.partitions import (get, is_k_strict, k_strict_partitions,
                                 strip, weight)
from isoschub.raising import c_set, expand, outside_rim, strict_pairs
from isoschub.substitution import (_check, apply_rule, build_forest, ef_values,
                                   ev, g_value, iota, modified_forest, r_boxes,
                                   rank_r, root_compositions, verify_claim1,
                                   verify_claim2, w_holds, x_holds)
from test_partitions import partitions_of
from test_raising import full_pairs, walk_expand


# the level-0 S-sets read off one Pieri pair, with no forest: the oracle
# that the forest's leaves are compared against

def pieri_S_sets(lam, mu, k: int) -> dict:
    """Reconstruct the level-0 S-sets for mu straight from the pair.

    The free boxes group into components; in each, the boxes opening a
    row run are distinguished and the rightmost of them is optional.
    E holds the optional boxes' pairs (i, r(i+c)), F the forced ones,
    G the pairs joining a grown row to a shrunk one through related
    boxes.  The S-sets are E' union F union G over all E' inside E.
    ValueError for k < 0 or unless mu is a Pieri term of lam; RuntimeError
    on a failed check.
    """
    lam = strip(lam)
    mu = strip(mu)
    ell = len(lam)
    info = pieri_match(lam, mu, k)
    if info is None:
        raise ValueError("mu is not a Pieri term of lam: %r, %r" % (mu, lam))
    aset = set(info["A"])
    over_k = {b for b in info["added"] if b[1] > k}
    _check(aset == over_k - r_boxes(lam, k, mu), "free boxes", lam, mu)
    distinguished = sorted(b for b in aset if (b[0], b[1] - 1) not in aset)
    optional = set()
    for comp in info["components"]:
        dist = [b for b in comp if (b[0], b[1] - 1) not in aset]
        _check(len({c for _, c in dist}) == len(dist), "columns", lam, mu)
        optional.add(max(dist, key=lambda b: b[1]))
    _check(len(optional) == info["N"], "optional boxes", lam, mu)
    E, F = set(), set()
    for i, c in distinguished:
        pair = (i, rank_r(i + c, lam, k))
        if (i, c) in optional:
            E.add(pair)
        else:
            F.add(pair)
            _check(pair[1] == ef_values(lam, k, i, mu)[1], "forced", lam, mu)
    G = {(nb[0], rb[0]) for nb, rb in info["match_removed"]}
    _check(not (E & F or E & G or F & G), "E, F, G overlap", E, F, G)
    hull = c_set(mu, k, ell + 1) & frozenset(outside_rim(c_set(lam, k), ell + 1))
    _check(E | F | G <= hull, "pairs outside the hull", lam, mu, E, F, G)
    s_sets = set()
    pool = sorted(E)
    for mask in range(1 << len(pool)):
        extra = {pool[i] for i in range(len(pool)) if mask >> i & 1}
        s_sets.add(frozenset(extra | F | G))
    _check(len(s_sets) == 1 << info["N"], "S-set count", lam, mu)
    return {"A": info["A"], "components": info["components"],
            "distinguished": distinguished, "optional": optional,
            "E": E, "F": F, "G": G, "N": info["N"], "S_sets": s_sets}


EX_LAM = (9, 7, 3, 2, 1, 1)
EX_MU = (11, 12, 7, 2, 2)


def kstrict_upto(d, k):
    out = []
    for w in range(d + 1):
        for lam in partitions_of(w):
            if is_k_strict(lam, k):
                out.append(lam)
    return out


def test_rank_r_cap_and_monotone():
    assert rank_r(999, EX_LAM, 3) == 7
    assert rank_r(11, EX_LAM, 3) == 5
    assert rank_r(10, EX_LAM, 3) == 5
    # weakly increasing in y
    vals = [rank_r(y, EX_LAM, 3) for y in range(0, 40)]
    assert vals == sorted(vals)


def test_rank_r_reproduces_pair_support():
    for k in (0, 1, 2, 3):
        for lam in kstrict_upto(10, k):
            ell = len(lam)
            via_r = frozenset(
                (i, j) for j in range(1, ell + 1) for i in range(1, j + 1)
                if j < rank_r(i + get(lam, i) + 1, lam, k))
            assert via_r == c_set(lam, k), (lam, k)


def b_value(lam, k, h):
    # b_h: the rank of h + lam_h + 1
    return rank_r(h + get(lam, h) + 1, lam, k)


def test_efg_worked_example():
    e2, f2 = ef_values(EX_LAM, 3, 2, EX_MU)
    assert (e2, f2, g_value(EX_LAM, 3, 2)) == (8, 5, 5)
    e3, f3 = ef_values(EX_LAM, 3, 3, EX_MU)
    assert (e3, f3, g_value(EX_LAM, 3, 3)) == (6, 4, 5)
    assert g_value(EX_LAM, 3, 1) == 7
    assert b_value(EX_LAM, 3, 2) <= f2 <= g_value(EX_LAM, 3, 2)
    assert b_value(EX_LAM, 3, 3) <= f3 <= g_value(EX_LAM, 3, 3)


def test_efg_domain_errors():
    with pytest.raises(ValueError):
        ef_values(EX_LAM, 3, 1, EX_MU)
    # mu_h below lam_{h-1}
    with pytest.raises(ValueError):
        ef_values(EX_LAM, 3, 2, (11, 8, 7, 2, 2))


def test_efg_sweep_bounds():
    # Over forest tuples: b <= f <= g in the e/f domain, and a filled
    # box at lam_{h-1} forces f = g.
    for lam, p, k in [((2, 1), 2, 1), ((3, 1), 3, 1), ((2, 2), 2, 2),
                      ((2, 1, 1), 2, 1)]:
        ell = len(lam)
        res = build_forest(lam, p, k)
        for D, mu, S, h in res["psi1"]:
            for lvl in range(2, ell + 2):
                # the column scan for e needs row lvl-1 to reach past k
                if get(mu, lvl) < get(lam, lvl - 1) or get(lam, lvl - 1) <= k:
                    continue
                e, f = ef_values(lam, k, lvl, mu)
                g = g_value(lam, k, lvl)
                assert b_value(lam, k, lvl) <= f <= g, (lam, mu, lvl)
                if (lvl, get(lam, lvl - 1)) in r_boxes(lam, k, mu):
                    assert e == get(lam, lvl - 1)
                    assert f == g, (lam, mu, lvl)


def test_w_on_base_pairs():
    for k in (0, 1, 2):
        for lam in kstrict_upto(6, k):
            mu = lam + (0,)
            for i, j in c_set(lam, k):
                assert w_holds(mu, k, i, j)


def test_conditions_frozen():
    D = frozenset({(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)})
    psi = (D, (3, 4, 1), frozenset({(2, 2)}), 2)
    assert x_holds((3, 1), 1, psi) is True
    # mu_2 + mu_3 = 5 > 2k + 3 - 2
    assert w_holds((3, 4, 1), 1, 2, 3) is True
    # level 1 never passes the diagonal test
    assert not x_holds((2,), 1, (frozenset({(1, 1)}), (3, 0), frozenset(), 1))


def test_apply_rule_frozen_arms():
    lam = (2, 1, 1)
    one = frozenset({(1, 1)})
    assert apply_rule(lam, 1, (one, (2, 1, 2, 0), frozenset(), 3)) == \
        ("stop-col", None)
    label, kids = apply_rule(lam, 1, (one, (2, 2, 1, 0), frozenset(), 2))
    two = frozenset({(1, 1), (1, 2)})
    assert label == "grow-col"
    assert kids == [(two, (2, 2, 1, 0), frozenset(), 2),
                    (two, (3, 1, 1, 0), frozenset({(1, 2)}), 2)]
    # row arm with a strictly rising entry keeps only the shifted child
    label, kids = apply_rule(lam, 1, (two, (4, 0, 1, 0), frozenset({(1, 2)}), 1))
    three = frozenset({(1, 1), (1, 2), (1, 3)})
    assert label == "grow-row"
    assert kids == [(three, (5, 0, 0, 0), frozenset({(1, 2), (1, 3)}), 1)]
    # diagonal stop
    D = frozenset({(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)})
    assert apply_rule((3, 1), 1, (D, (3, 4, 1), frozenset({(2, 2)}), 2)) == \
        ("stop-diag", None)
    # plain descend
    assert apply_rule(lam, 1, (one, (2, 1, 1, 1), frozenset(), 3)) == \
        ("descend", [(one, (2, 1, 1, 1), frozenset(), 2)])


def test_root_compositions():
    assert root_compositions((2, 1, 1), 1) == \
        [(2, 1, 1, 1), (2, 1, 2, 0), (2, 2, 1, 0), (3, 1, 1, 0)]
    roots = root_compositions((3, 1), 4)
    assert len(roots) == comb(4 + 2, 2)
    assert all(weight(nu) == 8 for nu in roots)
    assert all(nu[0] >= 3 and nu[1] >= 1 and nu[2] >= 0 for nu in roots)


def test_root_compositions_match_brute_force():
    # every vector of ell + 1 amounts in 0..p that sum to p, added to lam
    for ell in range(5):
        for lam in [(ell + 2 - i for i in range(ell)), (1,) * ell]:
            lam = tuple(lam)
            for p in range(6):
                want = sorted(tuple(x + a for x, a in zip(lam + (0,), amts))
                              for amts in itertools.product(range(p + 1),
                                                            repeat=ell + 1)
                              if sum(amts) == p)
                assert root_compositions(lam, p) == want, (lam, p)


def test_forest_frozen():
    fz = frozenset
    res = build_forest((2, 1, 1), 1, 1)
    assert set(res["psi0"]) == {
        (fz({(1, 1)}), (2, 1, 1, 1), fz(), 0),
        (fz({(1, 1), (1, 2)}), (3, 1, 1, 0), fz({(1, 2)}), 0),
        (fz({(1, 1), (1, 2)}), (3, 1, 1, 0), fz(), 0),
        (fz({(1, 1), (1, 2), (1, 3)}), (5, 0, 0, 0), fz({(1, 2), (1, 3)}), 0),
    }
    assert set(res["psi1"]) == {
        (fz({(1, 1), (1, 2), (2, 2)}), (2, 2, 1, 0), fz(), 2),
        (fz({(1, 1), (1, 2), (2, 2)}), (2, 2, 1, 0), fz({(2, 2)}), 2),
        (fz({(1, 1)}), (2, 1, 2, 0), fz(), 3),
    }


def test_forest_manual_trace():
    # lam = (1), p = 1, k = 1: C is empty, two roots, no stops.
    fz = frozenset
    res = build_forest((1,), 1, 1)
    assert set(res["psi0"]) == {
        (fz({(1, 1)}), (2, 0), fz(), 0),
        (fz({(1, 1)}), (2, 0), fz({(1, 1)}), 0),
        (fz(), (1, 1), fz(), 0),
    }
    assert res["psi1"] == []
    assert verify_claim1(res) == {(2,): 2, (1, 1): 1}


def test_claim1_intro_example():
    assert verify_claim1(build_forest((2, 1, 1), 1, 1)) == \
        {(2, 1, 1, 1): 1, (3, 1, 1): 2, (5,): 1}


def test_claim1_matches_each_leaf_class_once(monkeypatch):
    # the forest carries the arguments it was built from, and claim 1
    # runs the Pieri oracle once per class of its level-0 leaves
    forest = build_forest((2, 1, 1, 0), 2, 1)
    assert [forest[key] for key in ("lam", "p", "k", "modified")] == \
        [(2, 1, 1), 2, 1, False]
    calls = []
    match = substitution.pieri_match
    monkeypatch.setattr(substitution, "pieri_match",
                        lambda *args: calls.append(args) or match(*args))
    counts = verify_claim1(forest)
    assert sorted(calls) == sorted(((2, 1, 1), mu, 1) for mu in counts)
    # more leaves than classes, so a per-leaf call would show
    assert sum(counts.values()) > len(counts)


def test_claim2_frozen_iota():
    D = frozenset({(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)})
    psi = (D, (3, 4, 1), frozenset({(2, 2)}), 2)
    assert iota((3, 1), 1, psi) == (D, (4, 3, 1), frozenset({(1, 3)}), 2)
    assert iota((3, 1), 1, iota((3, 1), 1, psi)) == psi
    assert verify_claim2(build_forest((3, 1), 4, 1)) == (51, 13)


def per_leaf_claim2(forest: dict):
    """Claim 2 one stopped leaf at a time: the oracle for verify_claim2.

    Visits every leaf, so each orbit of iota twice, and evaluates each
    leaf on its own through ev. Returns (leaf count, fixed point count);
    a failed check raises RuntimeError with verify_claim2's message.
    """
    lam, k = forest["lam"], forest["k"]
    n = stable_n(weight(lam) + forest["p"], k)
    leaves = set(forest["psi1"])
    _check(len(leaves) == len(forest["psi1"]), "stopped leaves repeat")
    fixed = 0
    for psi in leaves:
        other = substitution.iota(lam, k, psi)
        _check(other in leaves, "partner is no stopped leaf", psi, other)
        _check(substitution.iota(lam, k, other) == psi,
               "pairing is no involution", psi, other)
        if other == psi:
            fixed += 1
            _check(not ev(psi, k, n), "fixed point evaluates nonzero", psi)
        else:
            total = ev(psi, k, n)
            combine(total, ev(other, k, n))
            _check(not total, "pair does not cancel", psi, other, total)
    return len(leaves), fixed


def claims_sweep():
    # the forests of the claims suite of isoschub verify: k <= 2,
    # |lam| <= 6, p <= 4
    return [(lam, p, k) for k in range(3) for d in range(1, 7)
            for lam in k_strict_partitions(d, k) for p in range(1, 5)]


def test_claim2_matches_per_leaf_oracle():
    fixed = 0
    for lam, p, k in claims_sweep():
        forest = build_forest(lam, p, k)
        got = verify_claim2(forest)
        assert got == per_leaf_claim2(forest), (lam, p, k)
        fixed += got[1]
    # the sweep reaches both kinds of orbit
    assert 0 < fixed


def test_leaf_expansions_match_the_walk():
    # the expansion of every leaf vector of the claims forests, through
    # expand, which takes Schur's Pfaffians wherever the pair set is
    # dense enough, and through the alpha walk alone
    vectors = set()
    for lam, p, k in claims_sweep():
        forest = build_forest(lam, p, k)
        for D, mu, _, _ in list(forest["psi0"]) + list(forest["psi1"]):
            vectors.add((strict_pairs(D), strip(mu)))
    negative = full = partial = 0
    for D, mu in vectors:
        assert expand(D, mu) == walk_expand(D, mu), (sorted(D), mu)
        inside = {p for p in D if p[1] <= len(mu)}
        outside = len(full_pairs(len(mu)) - inside)
        negative += min(mu, default=0) < 0
        if len(mu) > 1 and 2 * outside <= len(inside):
            full += not outside
            partial += bool(outside)
    assert (len(vectors), negative, full, partial) == (1604, 272, 380, 122)


def _iota_keeps_s(lam, k, psi):
    D, mu, S, h = iota(lam, k, psi)
    return D, mu, psi[2], h


def test_claim2_fails_where_the_oracle_fails(monkeypatch):
    # with a wrong pairing, both stop at the same first leaf, with the
    # same message
    monkeypatch.setattr(substitution, "iota", _iota_keeps_s)
    forest = build_forest((3, 1), 4, 1)
    with pytest.raises(RuntimeError) as want:
        per_leaf_claim2(forest)
    with pytest.raises(RuntimeError) as got:
        verify_claim2(forest)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("partner is no stopped leaf")


def test_claims_sweep_small():
    for k in (0, 1, 2):
        for lam in kstrict_upto(4, k):
            if not lam:
                continue
            for p in (1, 2, 3):
                forest = build_forest(lam, p, k)
                verify_claim1(forest)
                verify_claim2(forest)


def test_sticky_x():
    # Once the diagonal stop test holds it keeps holding, and the level
    # never drops.
    for lam, p, k in [((3, 1), 3, 1), ((3, 2), 3, 2), ((2, 1, 1), 2, 1),
                      ((3, 2), 2, 0)]:
        res = build_forest(lam, p, k, keep_nodes=True)
        hits = 0
        for psi, label, children in res["nodes"]:
            if psi[3] == 0 or not x_holds(lam, k, psi):
                continue
            hits += 1
            assert label in ("grow-row", "grow-rim", "stop-diag"), (psi, label)
            for child in children:
                assert child[3] == psi[3]
                assert x_holds(lam, k, child), (psi, child)
        assert hits > 0


def test_soundness_and_conservation():
    # Each replacement preserves the evaluation, so roots balance the
    # leaves; stopped leaves cancel and negative leaves vanish, leaving
    # exactly the one-row product.
    for k in (0, 1, 2):
        for lam in kstrict_upto(5, k):
            if not lam:
                continue
            for p in (1, 2, 3):
                ell = len(lam)
                n = stable_n(weight(lam) + p, k)
                res = build_forest(lam, p, k, keep_nodes=True)
                for psi, label, children in res["nodes"]:
                    if not children:
                        continue
                    total = {}
                    for child in children:
                        combine(total, ev(child, k, n))
                    assert total == ev(psi, k, n), (lam, p, psi, label)
                sides = {}
                for psi in res["roots"]:
                    combine(sides, ev(psi, k, n))
                for psi in res["psi0"] + res["psi1"]:
                    combine(sides, ev(psi, k, n), -1)
                assert not sides, (lam, p, k)
                stopped = {}
                for psi in res["psi1"]:
                    combine(stopped, ev(psi, k, n))
                assert not stopped, (lam, p, k)
                kept = {}
                for psi in res["psi0"]:
                    if psi[1][ell] < 0:
                        assert not ev(psi, k, n), psi
                    else:
                        combine(kept, ev(psi, k, n))
                want = pieri(lam, p, k, stable_n(weight(lam) + p, k), "B")
                assert kept == want, (lam, p, k)


def test_claims_share_one_space():
    # both claims and the modified forest evaluate in the one stable space
    # of weight |lam| + p that claim 1 builds for its Pieri check
    isoschub.clear_caches()
    lam, p, k = (2, 1), 2, 1
    forest = build_forest(lam, p, k)
    verify_claim1(forest)
    verify_claim2(forest)
    modified_forest(lam, p, k)
    assert cohomology._space.cache_info().currsize == 1
    isoschub.clear_caches()


def test_psi0_support_containments():
    for lam, p, k in [((3, 1), 3, 1), ((2, 1, 1), 2, 1), ((2, 2), 3, 2)]:
        ell = len(lam)
        base = c_set(lam, k)
        hull = frozenset(base) | frozenset(outside_rim(base, ell + 1))
        for D, mu, S, h in build_forest(lam, p, k)["psi0"]:
            if mu[ell] < 0:
                continue
            grown = c_set(strip(mu), k, ell + 1)
            assert base <= grown <= hull, (lam, mu)


def test_modified_forest_remark():
    assert modified_forest((4, 3, 1, 1), 6, 1) == (1119, 543)


def test_modified_noop_when_x_always_met():
    plain = build_forest((2, 1, 1), 1, 1)
    mod = build_forest((2, 1, 1), 1, 1, modified=True)
    assert plain["psi0"] == mod["psi0"]
    assert plain["psi1"] == mod["psi1"]


def test_modified_claim1_sweep():
    for k in (0, 1, 2):
        for lam in kstrict_upto(3, k):
            if not lam:
                continue
            for p in (1, 2, 3):
                verify_claim1(build_forest(lam, p, k, modified=True))


def test_pieri_s_sets_hand_case():
    w = pieri_S_sets((2, 1, 1), (5,), 1)
    assert w["E"] == set() and w["F"] == set()
    assert w["G"] == {(1, 2), (1, 3)}
    assert w["S_sets"] == {frozenset({(1, 2), (1, 3)})}
    # matches the forest leaf
    res = build_forest((2, 1, 1), 1, 1)
    leaf_s = {S for D, mu, S, h in res["psi0"] if strip(mu) == (5,)}
    assert leaf_s == w["S_sets"]


def test_pieri_s_sets_no_free_boxes():
    w = pieri_S_sets((1,), (1, 1), 1)
    assert w["N"] == 0 and w["S_sets"] == {frozenset()}


def test_pieri_s_sets_big_example():
    lam = (22, 21, 18, 16, 14, 7, 5, 4, 3, 3, 1)
    mu = (25, 21, 19, 17, 15, 14, 6, 5, 3, 2, 2)
    w = pieri_S_sets(lam, mu, 5)
    assert w["N"] == 6 and len(w["E"]) == 6
    assert (7, 7) in w["E"]
    assert len(w["S_sets"]) == 64
    # undoing the recorded shifts recovers 32 starting sequences, two
    # sets each; the diagonal pair shifts nothing and makes the pairs
    roots = {}
    padded = list(mu) + [0] * (len(lam) + 1 - len(mu))
    for S in w["S_sets"]:
        nu = padded[:]
        for i, j in S:
            nu[i - 1] -= 1
            nu[j - 1] += 1
        roots.setdefault(tuple(nu), []).append(S)
    assert len(roots) == 32
    assert all(len(v) == 2 for v in roots.values())
    assert all(a ^ b == {(7, 7)} for a, b in
               (map(set, v) for v in roots.values()))
    assert all(all(x >= y for x, y in zip(nu, lam)) for nu in roots)


def test_pieri_s_sets_match_forest():
    for lam, p, k in [((1,), 1, 1), ((2, 1), 2, 1), ((2, 1, 1), 1, 1),
                      ((3, 1), 2, 1), ((2, 2), 2, 2), ((2, 1), 3, 0)]:
        ell = len(lam)
        res = build_forest(lam, p, k)
        by_mu = {}
        for D, mu, S, h in res["psi0"]:
            if mu[ell] >= 0:
                by_mu.setdefault(strip(mu), set()).add(S)
        for mu, forest_sets in by_mu.items():
            assert pieri_S_sets(lam, mu, k)["S_sets"] == forest_sets, (lam, mu)
