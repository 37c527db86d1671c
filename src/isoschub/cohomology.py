"""Schubert calculus on isotropic Grassmannians.

Two families: "C" is the symplectic space IG(n-k, 2n) with special
classes sigma_p, "B" the odd orthogonal space OG(n-k, 2n+1) whose
multiplication is driven by the Chern classes c_p of the quotient
bundle (c_p = tau_p for p <= k and 2 tau_p above). Elements are dicts
keyed by k-strict partitions inside the (n-k) x (n+k) rectangle; a
space is passed around as the explicit arguments (k, n, family).

The rescaling map between the families sends sigma_lam to
2^(parts of lam above k) tau_lam, and every C-family coefficient here
is obtained from the B-family rule through it.
"""

from fractions import Fraction
from functools import cache

from .formal import add_into, combine, is_zero, scaled
from .partitions import (get, in_rect, is_k_strict, k_related, length_gt_k,
                         strip, weight)
from .raising import c_set, expand, strict_pairs
from . import theta as theta_ring


def pieri_match(lam, mu, k: int):
    """Bookkeeping for one Pieri pair, or None if lam -> mu fails.

    Rowwise: lam_j - 1 <= mu_j <= lam_{j-1}, no shrinking above column
    k. Columns 1..k then constrain how boxes pair up: an unchanged
    column's bottom box may relate to at most one new box; a shrunk
    column's removed boxes and its new bottom box must each relate to
    exactly one new box, all found in a single row.

    Returns a dict with the added and removed boxes, the new boxes
    "mentioned" by the column conditions, the matched (new, removed)
    row pairs, the free set A in columns > k, its components (boxes
    connect through edges or corners), and N = len(components).
    """
    lam = strip(lam)
    mu = strip(mu)
    if not (is_k_strict(lam, k) and is_k_strict(mu, k)):
        return None
    for j in range(1, max(len(lam), len(mu)) + 1):
        lj, mj = get(lam, j), get(mu, j)
        if j > 1 and mj > get(lam, j - 1):
            return None
        if mj < lj - 1 or (lj > k and mj < lj):
            return None
    added = [(r, c) for r in range(1, len(mu) + 1)
             for c in range(get(lam, r) + 1, mu[r - 1] + 1)]
    removed = [(r, lam[r - 1]) for r in range(1, len(lam) + 1)
               if get(mu, r) < lam[r - 1]]
    mentioned = set()
    match_removed = []
    for c in range(1, k + 1):
        hl = sum(1 for x in lam if x >= c)
        hm = sum(1 for x in mu if x >= c)
        if hm == hl:
            if hm == 0:
                continue
            rel = [b for b in added if k_related((hm, c), b, k)]
            if len(rel) > 1:
                return None
            mentioned.update(rel)
        elif hm < hl:
            if hm == 0:
                return None
            rows = set()
            for r in range(hm, hl + 1):
                # r = hm is the surviving bottom box, the rest were removed
                rel = [b for b in added if k_related((r, c), b, k)]
                if len(rel) != 1:
                    return None
                mentioned.add(rel[0])
                rows.add(rel[0][0])
                if r > hm:
                    match_removed.append((rel[0], (r, c)))
            if len(rows) != 1:
                return None
    A = sorted(b for b in added if b[1] > k and b not in mentioned)
    comps = []
    seen = set()
    for b in A:
        if b in seen:
            continue
        comp, queue = [], [b]
        seen.add(b)
        while queue:
            x = queue.pop()
            comp.append(x)
            for other in A:
                if other not in seen and abs(other[0] - x[0]) <= 1 \
                        and abs(other[1] - x[1]) <= 1:
                    seen.add(other)
                    queue.append(other)
        comps.append(sorted(comp))
    return {"added": sorted(added), "removed": sorted(removed),
            "mentioned": mentioned, "match_removed": match_removed,
            "A": A, "components": comps, "N": len(comps)}


def _candidates(lam, p, k, n):
    # mu with |mu| = |lam| + p, rowwise-compatible, inside the rectangle
    ell = len(lam)
    rows = min(ell + 1, n - k)
    total = weight(lam) + p
    out = []

    def rec(j, prev, acc, rem):
        if j > rows:
            if rem == 0:
                out.append(strip(acc))
            return
        lj = get(lam, j)
        lo = lj if lj > k else max(lj - 1, 0)
        hi = min(prev, get(lam, j - 1) if j > 1 else n + k, rem)
        for v in range(lo, hi + 1):
            if v > k and j > 1 and v == prev:
                continue  # would break k-strictness
            rec(j + 1, v, acc + (v,), rem - v)

    rec(1, total, (), total)
    return out


def pieri(lam, p: int, k: int, n: int, family: str = "B") -> dict:
    """Multiply the basis class of lam by the p-th special class.

    Family "B" returns c_p * tau_lam = sum 2^N(lam,mu) tau_mu; family
    "C" returns sigma_p * sigma_lam, the same sum rescaled by
    2^(l_k(lam) - l_k(mu)). Coefficients are always positive integers.
    """
    return dict(_pieri(strip(lam), p, k, n, family))


@cache
def _pieri(lam, p, k, n, family):
    if family == "C":
        # the B-family terms 2^N tau_mu, rescaled by 2^(l_k(lam) - l_k(mu))
        ell = length_gt_k(lam, k)
        out = {}
        for mu, c in _pieri(lam, p, k, n, "B").items():
            e = c.bit_length() - 1 + ell - length_gt_k(mu, k)
            assert e >= 0, (lam, p, mu, e)
            out[mu] = 1 << e
        return out
    assert family == "B", family
    # validated on a miss only: the checks depend on the arguments alone
    assert in_rect(lam, k, n), (lam, k, n)
    assert 1 <= p <= n + k, p
    base = []
    for mu in _candidates(lam, p, k, n):
        m = pieri_match(lam, mu, k)
        if m is not None:
            base.append((mu, m["N"]))
    base.sort()
    return {mu: 1 << N for mu, N in base}


def pieri_apply(elem: dict, p: int, k: int, n: int, family: str) -> dict:
    """One special-class multiplication distributed over a formal sum."""
    if p == 0:
        return dict(elem)
    if p < 0 or p > n + k:
        return {}
    out: dict = {}
    for lam, c in elem.items():
        for mu, c2 in pieri(lam, p, k, n, family).items():
            add_into(out, mu, c * c2)
    return out


def reduce_monomial(beta, k: int, n: int, family: str = "C") -> dict:
    """Product of special classes with indices beta in the Schubert basis.

    Indices sort high-to-low so shared prefixes hit the cache; zero
    indices are the unit and anything above n + k kills the monomial
    (the quotient bundle has no such Chern class).
    """
    key = tuple(sorted((b for b in beta if b), reverse=True))
    if any(b < 0 for b in key) or (key and key[0] > n + k):
        return {}
    return dict(_reduce(key, k, n, family))


@cache
def _reduce(key, k, n, family):
    if not key:
        return {(): 1}
    return pieri_apply(_reduce(key[:-1], k, n, family), key[-1], k, n, family)


def giambelli(lam, k: int, n: int, family: str = "C") -> dict:
    """Reduce the raising-operator expansion of lam back to the basis.

    Family C reduces the expansion of sigma-monomials directly; family
    B carries the prefactor 2^(-l_k(lam)) on c-monomials. Either way
    the result must be exactly {lam: 1}, and that is asserted.
    """
    lam = strip(lam)
    assert in_rect(lam, k, n), (lam, k, n)
    raw = expand(strict_pairs(c_set(lam, k)), lam)
    acc: dict = {}
    for key, c in raw.items():
        combine(acc, reduce_monomial(key, k, n, family), c)
    if family == "B":
        acc = scaled(acc, Fraction(1, 1 << length_gt_k(lam, k)))
    assert acc == {lam: 1}, (lam, k, n, family, acc)
    return acc


def multiply(a: dict, b: dict, k: int, n: int, family: str = "C") -> dict:
    """Product of two basis elements by Giambelli expansion plus Pieri.

    Each key of a is replaced by its special-class expansion and folded
    onto b one special class at a time.
    """
    out: dict = {}
    for lam, ca in a.items():
        assert in_rect(lam, k, n), (lam, k, n)
        raw = expand(strict_pairs(c_set(lam, k)), lam)
        if family == "B":
            ca = Fraction(ca, 1 << length_gt_k(lam, k))
        for key, c in raw.items():
            if key and key[0] > n + k:
                continue
            term = b
            for p in key:
                term = pieri_apply(term, p, k, n, family)
                if not term:
                    break
            combine(out, term, ca * c)
    assert all(isinstance(c, int) for c in out.values()), out
    return out


def theta_route_product(a: dict, b: dict, k: int, n: int,
                        family: str = "C") -> dict:
    """Product through the theta ring: multiply upstairs, convert to the
    canonical basis, and drop keys that fall outside the rectangle."""
    ea = theta_ring.theta_sum(_sigma_weights(a, k, family), k)
    eb = theta_ring.theta_sum(_sigma_weights(b, k, family), k)
    prod = theta_ring.to_theta_basis(theta_ring.multiply(ea, eb, k), k)
    out: dict = {}
    for lam, c in prod.items():
        if in_rect(lam, k, n):
            add_into(out, lam, c)
    if family == "B":
        out = _tau_weights(out, k)
    assert all(isinstance(c, int) for c in out.values()), out
    return out


def _sigma_weights(e, k, family):
    # tau coefficients lift to sigma scale for the theta ring
    if family == "C":
        return dict(e)
    return {lam: c * Fraction(1, 1 << length_gt_k(lam, k))
            for lam, c in e.items()}


def _tau_weights(e, k):
    out = {}
    for lam, c in e.items():
        add_into(out, lam, c * (1 << length_gt_k(lam, k)))
    return out


def verify_presentation(k: int, n: int, r: int, family: str = "C") -> bool:
    """Check the quadratic relation on the r-th special class.

    The combination sigma_r^2 + 2 sum_{i=1..n+k-r} (-1)^i
    sigma_{r+i} sigma_{r-i} (with the c_p classes in family B) must
    reduce to zero for every r in (k, n+k].
    """
    assert k < r <= n + k, (k, r, n)
    acc = dict(reduce_monomial((r, r), k, n, family))
    for i in range(1, n + k - r + 1):
        term = reduce_monomial((r + i, r - i), k, n, family)
        combine(acc, term, -2 if i % 2 else 2)
    return is_zero(acc)


def stable_n(d: int, k: int) -> int:
    """An n large enough that weight-d classes multiply stably."""
    return d + k + 2
