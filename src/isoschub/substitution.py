"""Term rewriting for one-row products: the substitution forest.

A working term is a 4-tuple (D, mu, S, h): D a valid pair set in the
full triangle containing the pair support C of the base partition, mu
an integer sequence of length ell + 1, S the subset of D recording
which added pairs came with an index shift, h a level in 0..ell+1.
The term stands for 2^(-#diagonal pairs) times the operator expansion
of mu over D, reduced in a space large enough to avoid truncation.

Rewriting starts from (C, lam + a, {}, ell+1) over all compositions a
of p and repeatedly either adds a pair to D (usually splitting the
term in two), stops, or lowers the level.  Level-0 leaves carry the
product terms; stopped leaves cancel in pairs under an involution.
"""

from fractions import Fraction
from functools import cache

from .cohomology import pieri, pieri_match, reduce_monomial, stable_n
from .formal import add_into, combine
from .partitions import get, is_k_strict, strip, weight
from .raising import (c_set, diagonal_count, expand, is_valid_pairs,
                      middle_row, outer_corner_in_col, outer_corner_in_row,
                      outside_rim, strict_pairs)


def rank_r(y: int, lam, k: int, ell: int | None = None) -> int:
    """Largest r <= ell+1 with lam_{r-1} > 2k + r - y.

    The 0th part counts as infinite, so the result is at least 1.
    """
    lam = strip(lam)
    if ell is None:
        ell = len(lam)
    for r in range(ell + 1, 1, -1):
        if get(lam, r - 1) > 2 * k + r - y:
            return r
    return 1


def r_boxes(lam, k: int, mu, ell: int | None = None) -> set:
    """Boxes [i, c] of mu minus lam past column k whose rank row has
    already filled up: mu_{r(i+c)} <= 2k + r(i+c) - i - c."""
    lam = strip(lam)
    if ell is None:
        ell = len(lam)
    mu = tuple(mu)
    out = set()
    for i in range(1, len(mu) + 1):
        for c in range(max(get(lam, i), k) + 1, get(mu, i) + 1):
            r = rank_r(i + c, lam, k, ell)
            if get(mu, r) <= 2 * k + r - i - c:
                out.add((i, c))
    return out


def g_value(lam, k: int, h: int, ell: int | None = None) -> int:
    """g_h: the rank of h + lam_{h-1}; by convention g_1 = ell + 1."""
    lam = strip(lam)
    if ell is None:
        ell = len(lam)
    if h == 1:
        return ell + 1
    return rank_r(h + get(lam, h - 1), lam, k, ell)


def ef_values(lam, k: int, h: int, mu, R=None, ell: int | None = None):
    """e_h and f_h for the sequence mu.

    Only defined for h >= 2 with mu_h >= lam_{h-1}; anywhere else is a
    caller bug, reported loudly rather than guessed at.  e_h is the
    start of the longest run of columns free of r_boxes ending at
    lam_{h-1} (or lam_{h-1} itself when that box is occupied), and
    f_h = r(h + e_h).
    """
    lam = strip(lam)
    if ell is None:
        ell = len(lam)
    if h < 2 or get(mu, h) < get(lam, h - 1):
        raise ValueError("e/f undefined at level %d for mu=%r" % (h, tuple(mu)))
    if R is None:
        R = r_boxes(lam, k, mu, ell)
    prev = get(lam, h - 1)
    if (h, prev) in R:
        e = prev
    else:
        e = max(k, get(lam, h)) + 1
        for c in range(prev, e - 1, -1):
            if (h, c) in R:
                e = c + 1
                break
    return e, rank_r(h + e, lam, k, ell)


def efg(lam, k: int, h: int, mu, ell: int | None = None) -> dict:
    """b_h, g_h, R(mu), plus e_h and f_h when they are defined."""
    lam = strip(lam)
    if ell is None:
        ell = len(lam)
    R = r_boxes(lam, k, mu, ell)
    out = {"b": rank_r(h + get(lam, h) + 1, lam, k, ell),
           "g": g_value(lam, k, h, ell), "R": R}
    if h >= 2 and get(mu, h) >= get(lam, h - 1):
        out["e"], out["f"] = ef_values(lam, k, h, mu, R, ell)
    return out


def w_holds(mu, k: int, i: int, j: int) -> bool:
    """mu_i + mu_j > 2k + j - i."""
    return get(mu, i) + get(mu, j) > 2 * k + j - i


def x_holds(lam, k: int, psi, ell: int | None = None) -> bool:
    """The diagonal stop test.

    True when (h, h) lies in D and the level's entry has grown too far:
    mu_h >= mu_{h-1}, or mu_h > lam_{h-1}, or mu_h = lam_{h-1} with
    (h, f_h) outside S.  Level 1 compares against an infinite 0th
    entry, so the test is false there and f is never consulted.
    """
    D, mu, S, h = psi
    if (h, h) not in D or h < 2:
        return False
    mh = get(mu, h)
    if mh >= get(mu, h - 1) or mh > get(lam, h - 1):
        return True
    if mh == get(lam, h - 1):
        _, f = ef_values(lam, k, h, mu, None, ell)
        return (h, f) not in S
    return False


def conditions(lam, k: int, psi, i: int, j: int, ell: int | None = None) -> dict:
    return {"W": w_holds(psi[1], k, i, j), "X": x_holds(lam, k, psi, ell)}


def _shift(mu, i: int, j: int):
    """One unit from slot j to slot i (1-based); i = j changes nothing."""
    if i == j:
        return tuple(mu)
    out = list(mu)
    out[i - 1] += 1
    out[j - 1] -= 1
    return tuple(out)


def apply_rule(lam, k: int, psi, ell: int | None = None, m: int | None = None,
               modified: bool = False):
    """One rewriting step on a level-h tuple.

    Returns (label, children): grow arms give the plain copy first and
    the shifted copy recording its pair in S second; a row pair landing
    on a strictly rising entry keeps only the shifted child; descend
    lowers the level; stop arms return None for children.  With
    ``modified`` the rim arm fires only on the stop test, not on the
    pair inequality alone.
    """
    D, mu, S, h = psi
    assert h >= 1 and is_valid_pairs(D), psi
    lam = strip(lam)
    if ell is None:
        ell = len(lam)
    if m is None:
        m = middle_row(c_set(lam, k))
    if (h, h) not in D:
        corner = outer_corner_in_col(D, h)
        if corner is not None and corner[0] <= m \
                and w_holds(mu, k, corner[0], h):
            D2 = frozenset(D | {corner})
            return "grow-col", [
                (D2, tuple(mu), S, h),
                (D2, _shift(mu, corner[0], h), frozenset(S | {corner}), h)]
        if corner is None and get(mu, h) > get(lam, h - 1):
            return "stop-col", None
        return "descend", [(D, tuple(mu), S, h - 1)]
    corner = outer_corner_in_row(D, h)
    if corner is not None and corner[1] <= ell + 1 \
            and w_holds(mu, k, h, corner[1]):
        j = corner[1]
        D2 = frozenset(D | {corner})
        shifted = (D2, _shift(mu, h, j), frozenset(S | {corner}), h)
        if get(mu, j) <= get(mu, j - 1):
            return "grow-row", [(D2, tuple(mu), S, h), shifted]
        return "grow-row", [shifted]
    x = x_holds(lam, k, psi, ell)
    g = g_value(lam, k, h, ell)
    if x or (not modified and w_holds(mu, k, h, g)):
        corner = outer_corner_in_col(D, g)
        if corner is not None and corner[0] <= h:
            D2 = frozenset(D | {corner})
            return "grow-rim", [
                (D2, tuple(mu), S, h),
                (D2, _shift(mu, corner[0], g), frozenset(S | {corner}), h)]
    if x:
        return "stop-diag", None
    return "descend", [(D, tuple(mu), S, h - 1)]


def root_compositions(lam, p: int, ell: int | None = None) -> list:
    """Entrywise extensions of lam by a total of p over ell+1 slots."""
    lam = strip(lam)
    if ell is None:
        ell = len(lam)
    base = tuple(get(lam, i) for i in range(1, ell + 2))
    out = []

    def go(i, rem, acc):
        if i == ell:
            out.append(tuple(x + y for x, y in zip(base, acc + (rem,))))
            return
        for a in range(rem + 1):
            go(i + 1, rem - a, acc + (a,))

    go(0, p, ())
    return sorted(out)


def build_forest(lam, p: int, k: int, modified: bool = False,
                 keep_nodes: bool = False) -> dict:
    """Grow the forest from its roots down to leaves.

    Returns a dict with the roots, the level-0 leaves (psi0), the
    stopped leaves (psi1), and, when asked, every (tuple, label,
    children) node in discovery order.  Every tuple produced along the
    way is asserted to be new, to keep D inside the rim of C, and to
    keep S inside D minus C.
    """
    lam = strip(lam)
    assert p >= 1 and is_k_strict(lam, k), (lam, p, k)
    ell = len(lam)
    C = c_set(lam, k)
    m = middle_row(C)
    allowed = frozenset(C) | frozenset(outside_rim(C, ell + 1))
    roots = [(C, nu, frozenset(), ell + 1)
             for nu in root_compositions(lam, p, ell)]
    seen = set()
    psi0, psi1, nodes = [], [], []
    stack = list(reversed(roots))
    for psi in roots:
        assert psi not in seen
        seen.add(psi)
    while stack:
        psi = stack.pop()
        D, mu, S, h = psi
        assert D <= allowed, (psi,)
        assert S <= D - C and len(mu) == ell + 1, (psi,)
        assert all(i <= m and j <= ell + 1 for i, j in D), (psi,)
        if h == 0:
            psi0.append(psi)
            if keep_nodes:
                nodes.append((psi, "bottom", []))
            continue
        label, children = apply_rule(lam, k, psi, ell, m, modified)
        if children is None:
            psi1.append(psi)
        else:
            for child in children:
                assert child not in seen, (psi, child)
                seen.add(child)
            stack.extend(reversed(children))
        if keep_nodes:
            nodes.append((psi, label, children or []))
    out = {"roots": roots, "psi0": psi0, "psi1": psi1}
    if keep_nodes:
        out["nodes"] = nodes
    return out


def ev(psi, k: int, n: int) -> dict:
    """Evaluation of a 4-tuple in the weight-graded basis.

    2^(-#diagonal pairs of D) times the expansion of mu over the strict
    part of D, each monomial reduced through the one-row products.
    Exact dyadic coefficients; independent of S and h.
    """
    return dict(_ev(frozenset(psi[0]), tuple(psi[1]), k, n))


@cache
def _ev(D, mu, k, n):
    factor = Fraction(1, 1 << diagonal_count(D))
    res = {}
    for mono, c in expand(strict_pairs(D), mu).items():
        combine(res, reduce_monomial(mono, k, n, "B"), factor * c)
    return res


def forest_n(lam, p: int, k: int) -> int:
    """Ambient size with room to spare: no truncation at weight |lam|+p."""
    lam = strip(lam)
    return weight(lam) + p + len(lam) + k + 2


def verify_claim1(lam, p: int, k: int, modified: bool = False) -> dict:
    """Check that level-0 leaves reproduce the one-row product.

    Each leaf whose last entry is nonnegative must strip to a k-strict
    partition mu reachable from lam, with D the full pair support of mu
    and multiplicity 2^(number of free components); the multiplicity
    dict must equal the product's coefficients.  Returns it.
    """
    lam = strip(lam)
    res = build_forest(lam, p, k, modified=modified)
    ell = len(lam)
    counts: dict = {}
    for D, mu, S, h in res["psi0"]:
        if mu[ell] < 0:
            continue
        smu = strip(mu)
        assert is_k_strict(smu, k), (lam, mu)
        info = pieri_match(lam, smu, k)
        assert info is not None, (lam, mu)
        assert frozenset(D) == c_set(smu, k, ell + 1), (lam, mu, D)
        add_into(counts, smu, 1)
    for smu, c in counts.items():
        assert c == 1 << pieri_match(lam, smu, k)["N"], (smu, c)
    want = pieri(lam, p, k, stable_n(weight(lam) + p, k), "B")
    assert counts == want, (counts, want)
    return counts


def iota(lam, k: int, psi, ell: int | None = None):
    """Pair a stopped leaf with its cancelling partner.

    Column stops shift (mu_{h-1}, mu_h) to (mu_h - 1, mu_{h-1} + 1);
    diagonal stops with equal entries are fixed points; all other
    diagonal stops swap the two entries and trade (h-1, g) for (h, f)
    inside S.
    """
    D, mu, S, h = psi
    lam = strip(lam)
    if ell is None:
        ell = len(lam)
    assert h >= 2, psi
    mu = tuple(mu)
    a, b = get(mu, h - 1), get(mu, h)
    if (h, h) not in D:
        nmu = list(mu)
        nmu[h - 2], nmu[h - 1] = b - 1, a + 1
        return (D, tuple(nmu), S, h)
    if a == b:
        return psi
    nmu = list(mu)
    nmu[h - 2], nmu[h - 1] = b, a
    pg = (h - 1, g_value(lam, k, h, ell))
    pf = (h, ef_values(lam, k, h, mu, None, ell)[1])
    ns = set(S)
    if pg in S and pf not in S:
        ns.discard(pg)
        ns.add(pf)
    elif pf in S and pg not in S:
        ns.discard(pf)
        ns.add(pg)
    return (D, tuple(nmu), frozenset(ns), h)


def verify_claim2(lam, p: int, k: int):
    """Check that stopped leaves cancel in pairs.

    The pairing must stay inside the stopped set, square to the
    identity, and sum to zero evaluation on each orbit; fixed points
    must evaluate to zero on their own.  Returns (leaf count, fixed
    point count).
    """
    lam = strip(lam)
    res = build_forest(lam, p, k)
    ell = len(lam)
    n = forest_n(lam, p, k)
    leaves = set(res["psi1"])
    assert len(leaves) == len(res["psi1"])
    fixed = 0
    for psi in leaves:
        other = iota(lam, k, psi, ell)
        assert other in leaves, (psi, other)
        assert iota(lam, k, other, ell) == psi, (psi, other)
        if other == psi:
            fixed += 1
            assert not ev(psi, k, n), (psi,)
        else:
            total = ev(psi, k, n)
            combine(total, ev(other, k, n))
            assert not total, (psi, other, total)
    return len(leaves), fixed


def modified_forest(lam, p: int, k: int):
    """Stopped-leaf statistics under the stricter rim arm.

    Level-0 accounting still matches the one-row product, but stopped
    leaves no longer cancel.  Returns (stopped leaf count, how many of
    those have nonzero evaluation).
    """
    lam = strip(lam)
    res = build_forest(lam, p, k, modified=True)
    n = forest_n(lam, p, k)
    nz = sum(1 for psi in res["psi1"] if ev(psi, k, n))
    return len(res["psi1"]), nz


def pieri_S_sets(lam, mu, k: int) -> dict:
    """Reconstruct the level-0 S-sets for mu straight from the pair.

    The free boxes group into components; in each, the boxes opening a
    row run are distinguished and the rightmost of them is optional.
    E holds the optional boxes' pairs (i, r(i+c)), F the forced ones,
    G the pairs joining a grown row to a shrunk one through related
    boxes.  The S-sets are E' union F union G over all E' inside E.
    """
    lam = strip(lam)
    mu = strip(mu)
    ell = len(lam)
    info = pieri_match(lam, mu, k)
    assert info is not None, (lam, mu)
    aset = set(info["A"])
    over_k = {b for b in info["added"] if b[1] > k}
    assert aset == over_k - r_boxes(lam, k, mu, ell), (lam, mu)
    distinguished = sorted(b for b in aset if (b[0], b[1] - 1) not in aset)
    optional = set()
    for comp in info["components"]:
        dist = [b for b in comp if (b[0], b[1] - 1) not in aset]
        assert len({c for _, c in dist}) == len(dist), (lam, mu, comp)
        optional.add(max(dist, key=lambda b: b[1]))
    assert len(optional) == info["N"]
    E, F = set(), set()
    for i, c in distinguished:
        pair = (i, rank_r(i + c, lam, k, ell))
        if (i, c) in optional:
            E.add(pair)
        else:
            F.add(pair)
            assert pair[1] == ef_values(lam, k, i, mu, None, ell)[1], (lam, mu, pair)
    G = {(nb[0], rb[0]) for nb, rb in info["match_removed"]}
    assert not (E & F) and not (E & G) and not (F & G), (E, F, G)
    hull = c_set(mu, k, ell + 1) & frozenset(outside_rim(c_set(lam, k), ell + 1))
    assert E | F | G <= hull, (lam, mu, E, F, G)
    s_sets = set()
    pool = sorted(E)
    for mask in range(1 << len(pool)):
        extra = {pool[i] for i in range(len(pool)) if mask >> i & 1}
        s_sets.add(frozenset(extra | F | G))
    assert len(s_sets) == 1 << info["N"]
    return {"A": info["A"], "components": info["components"],
            "distinguished": distinguished, "optional": optional,
            "E": E, "F": F, "G": G, "N": info["N"], "S_sets": s_sets}
