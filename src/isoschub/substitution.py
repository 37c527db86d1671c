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
from itertools import combinations

# reduce_monomial is unused but stays bound: bench/tracing.TARGETS
# expects it here
from .cohomology import (pieri, pieri_match, reduce_monomial,
                         reduce_polynomial, stable_n)
from .formal import add_into, combine, scaled
from .partitions import (check_partition, check_range, check_rect, get,
                         is_k_strict, strip, tupled, weight)
from .raising import (c_set, diagonal_count, expand, is_valid_pairs,
                      middle_row, outer_corner_in_col, outer_corner_in_row,
                      outside_rim, strict_pairs, w_holds)


def rank_r(y: int, lam, k: int) -> int:
    """Largest r <= ell+1 with lam_{r-1} > 2k + r - y, ell = len(lam).

    The 0th part counts as infinite, so the result is at least 1.
    """
    lam = strip(lam)
    for r in range(len(lam) + 1, 1, -1):
        if get(lam, r - 1) > 2 * k + r - y:
            return r
    return 1


def r_boxes(lam, k: int, mu) -> set:
    """Boxes [i, c] of mu minus lam past column k whose rank row has
    already filled up: mu_{r(i+c)} <= 2k + r(i+c) - i - c."""
    lam = strip(lam)
    mu = tuple(mu)
    out = set()
    for i in range(1, len(mu) + 1):
        for c in range(max(get(lam, i), k) + 1, get(mu, i) + 1):
            r = rank_r(i + c, lam, k)
            if get(mu, r) <= 2 * k + r - i - c:
                out.add((i, c))
    return out


def g_value(lam, k: int, h: int) -> int:
    """g_h: the rank of h + lam_{h-1}; by convention g_1 = ell + 1."""
    lam = strip(lam)
    if h == 1:
        return len(lam) + 1
    return rank_r(h + get(lam, h - 1), lam, k)


def ef_values(lam, k: int, h: int, mu):
    """e_h and f_h for the sequence mu.

    Only defined for h >= 2 with mu_h >= lam_{h-1}; anywhere else is a
    caller bug, reported loudly rather than guessed at.  e_h is the
    start of the longest run of columns free of r_boxes ending at
    lam_{h-1} (or lam_{h-1} itself when that box is occupied), and
    f_h = r(h + e_h).
    """
    lam = strip(lam)
    if h < 2 or get(mu, h) < get(lam, h - 1):
        raise ValueError("e/f undefined at level %d for mu=%r" % (h, tuple(mu)))
    R = r_boxes(lam, k, mu)
    prev = get(lam, h - 1)
    if (h, prev) in R:
        e = prev
    else:
        e = max(k, get(lam, h)) + 1
        for c in range(prev, e - 1, -1):
            if (h, c) in R:
                e = c + 1
                break
    return e, rank_r(h + e, lam, k)


def x_holds(lam, k: int, psi) -> bool:
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
        _, f = ef_values(lam, k, h, mu)
        return (h, f) not in S
    return False


def _grow(psi, corner):
    # the raising step R_ij: D gains corner = (i, j), and the plain child
    # comes first, then the child that moves a unit of mu from slot j to
    # slot i and records the corner in S. A diagonal corner moves nothing
    D, mu, S, h = psi
    i, j = corner
    D2 = frozenset(D | {corner})
    moved = list(mu)
    moved[i - 1] += 1
    moved[j - 1] -= 1
    return [(D2, tuple(mu), S, h),
            (D2, tuple(moved), frozenset(S | {corner}), h)]


def apply_rule(lam, k: int, psi, m: int | None = None, modified: bool = False):
    """One rewriting step on a level-h tuple.

    Returns (label, children): grow arms give the plain copy first and
    the shifted copy recording its pair in S second; a row pair landing
    on a strictly rising entry keeps only the shifted child; descend
    lowers the level; stop arms return None for children.  With
    ``modified`` the rim arm fires only on the stop test, not on the
    pair inequality alone.  Raises ValueError unless h >= 1 and D is a
    downward-closed set of pairs in the full triangle.
    """
    D, mu, S, h = psi
    if h < 1 or not is_valid_pairs(D):
        raise ValueError("no rule applies to %r: need level h >= 1 and a "
                         "downward-closed pair set" % (psi,))
    lam = strip(lam)
    ell = len(lam)
    if m is None:
        m = middle_row(c_set(lam, k))
    if (h, h) not in D:
        corner = outer_corner_in_col(D, h)
        if corner is not None and corner[0] <= m \
                and w_holds(mu, k, corner[0], h):
            return "grow-col", _grow(psi, corner)
        if corner is None and get(mu, h) > get(lam, h - 1):
            return "stop-col", None
        return "descend", [(D, tuple(mu), S, h - 1)]
    corner = outer_corner_in_row(D, h)
    if corner is not None and corner[1] <= ell + 1 \
            and w_holds(mu, k, h, corner[1]):
        j = corner[1]
        children = _grow(psi, corner)
        if get(mu, j) <= get(mu, j - 1):
            return "grow-row", children
        return "grow-row", children[1:]
    x = x_holds(lam, k, psi)
    g = g_value(lam, k, h)
    if x or (not modified and w_holds(mu, k, h, g)):
        corner = outer_corner_in_col(D, g)
        if corner is not None and corner[0] <= h:
            return "grow-rim", _grow(psi, corner)
    if x:
        return "stop-diag", None
    return "descend", [(D, tuple(mu), S, h - 1)]


def root_compositions(lam, p: int) -> list:
    """Entrywise extensions of lam by a total of p over ell+1 slots: by
    stars and bars, ell bars among p + ell places cut the p stars into
    the ell + 1 amounts. Raises ValueError unless lam is a partition
    and p an int >= 0."""
    lam = tupled(lam)
    check_partition(lam)
    check_range(p, "p")
    base = strip(lam) + (0,)
    ell = len(base) - 1
    return sorted(tuple(x + b - a - 1 for x, a, b in
                        zip(base, (-1,) + bars, bars + (p + ell,)))
                  for bars in combinations(range(p + ell), ell))


def build_forest(lam, p: int, k: int, modified: bool = False,
                 keep_nodes: bool = False) -> dict:
    """Grow the forest from its roots down to leaves.

    Returns a dict with the arguments it was built from (lam stripped,
    p, k, modified), the roots, the level-0 leaves (psi0), the stopped
    leaves (psi1), and, when asked, every (tuple, label, children) node
    in discovery order.  Raises ValueError unless lam is k-strict and p
    is an int >= 1.  Every tuple must be new, D must stay inside the rim
    of C, S inside D minus C with len(mu) = ell + 1, and every pair of D
    in rows <= m and columns <= ell + 1; a tuple that breaks one of these
    raises RuntimeError, with or without python -O.
    """
    lam = strip(lam)
    check_rect(lam, k)
    check_range(p, "p", 1)
    ell = len(lam)
    C = c_set(lam, k)
    m = middle_row(C)
    allowed = frozenset(C) | frozenset(outside_rim(C, ell + 1))
    inside = frozenset((i, j) for i, j in allowed if i <= m)
    roots = [(C, nu, frozenset(), ell + 1)
             for nu in root_compositions(lam, p)]
    seen = set()
    psi0, psi1, nodes = [], [], []
    stack = list(reversed(roots))
    for psi in roots:
        if psi in seen:
            raise RuntimeError("repeated root: %r" % (psi,))
        seen.add(psi)
    while stack:
        psi = stack.pop()
        D, mu, S, h = psi
        if not D <= allowed:
            raise RuntimeError("D leaves the rim of C: %r" % (psi,))
        if not (S <= D and S.isdisjoint(C) and len(mu) == ell + 1):
            raise RuntimeError("S outside D minus C or mu of the wrong "
                               "length: %r" % (psi,))
        # every pair of allowed lies in a column <= ell + 1, so past
        # inside means past row m or column ell + 1
        if not D <= inside:
            raise RuntimeError("pair of D past row m or column ell+1: %r"
                               % (psi,))
        if h == 0:
            psi0.append(psi)
            if keep_nodes:
                nodes.append((psi, "bottom", []))
            continue
        label, children = apply_rule(lam, k, psi, m, modified)
        if children is None:
            psi1.append(psi)
        else:
            for child in children:
                if child in seen:
                    raise RuntimeError("repeated tuple: %r from %r"
                                       % (child, psi))
                seen.add(child)
            stack.extend(reversed(children))
        if keep_nodes:
            nodes.append((psi, label, children or []))
    out = {"lam": lam, "p": p, "k": k, "modified": modified,
           "roots": roots, "psi0": psi0, "psi1": psi1}
    if keep_nodes:
        out["nodes"] = nodes
    return out


def ev(psi, k: int, n: int) -> dict:
    """Evaluation of a 4-tuple in the weight-graded basis.

    The expansion of mu over the strict part of D, an integer polynomial
    in the c_p of family B, reduced to the tau basis as one polynomial
    and then divided by 2^(#diagonal pairs of D) once. Exact dyadic;
    independent of S and h.
    """
    return dict(_ev(frozenset(psi[0]), tuple(psi[1]), k, n))


@cache
def _ev(D, mu, k, n):
    return _reduced(expand(strict_pairs(D), mu), D, k, n)


def _reduced(poly, D, k, n):
    # a polynomial in the c_p of family B over the pair set D, reduced to
    # the tau basis and divided by 2^(#diagonal pairs of D)
    out = reduce_polynomial(poly, k, n, "B")
    return scaled(out, Fraction(1, 1 << diagonal_count(D)))


def _check(ok: bool, what: str, *detail) -> None:
    # an explicit check: unlike assert, it also runs under python -O
    if not ok:
        raise RuntimeError("%s: %r" % (what, detail))


def verify_claim1(forest: dict) -> dict:
    """Check that the level-0 leaves of a built forest give the product.

    Each leaf whose last entry is nonnegative must strip to a k-strict
    partition mu reachable from lam, with D the full pair support of mu
    and multiplicity 2^(number of free components); the multiplicity
    dict must equal the product's coefficients.  Returns it; a failed
    check raises RuntimeError.
    """
    lam, p, k = forest["lam"], forest["p"], forest["k"]
    ell = len(lam)
    counts: dict = {}
    for D, mu, S, h in forest["psi0"]:
        if mu[ell] < 0:
            continue
        smu = strip(mu)
        _check(D == c_set(smu, k, ell + 1), "leaf pair set", mu, D)
        add_into(counts, smu, 1)
    for smu, c in counts.items():
        _check(is_k_strict(smu, k), "leaf is not k-strict", smu)
        info = pieri_match(lam, smu, k)
        _check(info is not None, "leaf is no Pieri term", smu)
        _check(c == 1 << info["N"], "leaf count", smu, c)
    want = pieri(lam, p, k, stable_n(weight(lam) + p, k), "B")
    _check(counts == want, "leaves against the Pieri rule", counts, want)
    return counts


def iota(lam, k: int, psi):
    """Pair a stopped leaf with its cancelling partner.

    Column stops shift (mu_{h-1}, mu_h) to (mu_h - 1, mu_{h-1} + 1);
    diagonal stops with equal entries are fixed points; all other
    diagonal stops swap the two entries and trade (h-1, g) for (h, f)
    inside S.
    """
    D, mu, S, h = psi
    if h < 2:
        raise ValueError("iota needs a stopped leaf at level 2 or more, "
                         "got level %d" % h)
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
    pg = (h - 1, g_value(lam, k, h))
    pf = (h, ef_values(lam, k, h, mu)[1])
    ns = set(S)
    if pg in S and pf not in S:
        ns.discard(pg)
        ns.add(pf)
    elif pf in S and pg not in S:
        ns.discard(pf)
        ns.add(pg)
    return (D, tuple(nmu), frozenset(ns), h)


def verify_claim2(forest: dict):
    """Check that the stopped leaves of a built forest cancel in pairs.

    The pairing must stay inside the stopped set, square to the identity
    and sum to zero evaluation on each orbit; fixed points must evaluate
    to zero. Each orbit is checked once, from whichever of its leaves
    comes first. A leaf and its partner share D, so their evaluations
    carry the same factor 2^(-#diagonal pairs of D), and the reduction
    to the tau basis is linear: the orbit's two expansions are added
    first, and the sum is reduced only when it is nonzero. Returns (leaf
    count, fixed point count); a failed check raises RuntimeError, and a
    modified forest raises ValueError.
    """
    if forest["modified"]:
        raise ValueError("claim 2 holds for the unmodified forest only")
    lam, k = forest["lam"], forest["k"]
    n = stable_n(weight(lam) + forest["p"], k)
    leaves = set(forest["psi1"])
    _check(len(leaves) == len(forest["psi1"]), "stopped leaves repeat")
    fixed = 0
    done = set()
    for psi in leaves:
        if psi in done:
            continue
        other = iota(lam, k, psi)
        _check(other in leaves, "partner is no stopped leaf", psi, other)
        _check(iota(lam, k, other) == psi, "pairing is no involution", psi,
               other)
        done.add(other)
        D = psi[0]
        pairs = strict_pairs(D)
        total = expand(pairs, psi[1])
        if other != psi:
            combine(total, expand(pairs, other[1]))
        if total:
            total = _reduced(total, D, k, n)
        if other == psi:
            fixed += 1
            _check(not total, "fixed point evaluates nonzero", psi)
        else:
            _check(not total, "pair does not cancel", psi, other, total)
    return len(leaves), fixed


def modified_forest(lam, p: int, k: int):
    """Stopped-leaf statistics under the stricter rim arm.

    Level-0 accounting still matches the one-row product, but stopped
    leaves no longer cancel.  Returns (stopped leaf count, how many of
    those have nonzero evaluation).
    """
    res = build_forest(lam, p, k, modified=True)
    n = stable_n(weight(lam) + p, k)
    nz = sum(1 for psi in res["psi1"] if ev(psi, k, n))
    return len(res["psi1"]), nz
