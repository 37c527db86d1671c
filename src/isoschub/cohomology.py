"""Schubert calculus on isotropic Grassmannians.

Two families: "C" is the symplectic space IG(n-k, 2n) with special
classes sigma_p, "B" the odd orthogonal space OG(n-k, 2n+1) whose
multiplication is driven by the Chern classes c_p of the quotient
bundle (c_p = tau_p for p <= k and 2 tau_p above). Elements are dicts
keyed by k-strict partitions inside the (n-k) x (n+k) rectangle; a
space is passed around as the explicit arguments (k, n, family).

Over Q the two rings are one ring under sigma_p -> c_p, sigma_lam ->
2^l_k(lam) tau_lam, with l_k(lam) the number of parts above k (the
rescaling map of Buch-Kresch-Tamvakis). The product engine computes in
the sigma basis only, on integers. Every route (pieri, both products,
and reduce_polynomial, which reduces a polynomial in the special
classes on the unit for giambelli, verify_presentation, reduce_monomial
and the forest's evaluation map) crosses in one place each way, on
vectors of interned classes: _enter clears the input's denominators
and, in family B, scales each coefficient by 2^(shift - l_k); _leave
shifts each family-B coefficient back by one exact power of two,
raises RuntimeError unless it is an integer, and divides the input
denominators back out.
"""

from fractions import Fraction
from functools import cache
from itertools import chain
from math import lcm

# add_into is unused but stays bound: bench/tracing.TARGETS expects it here
from .formal import add_into, combine, scaled
from .partitions import (check_ints, check_k, check_range, check_rect,
                         fill_rows, get, in_rect, is_k_strict, k_related,
                         length_gt_k, strip, tupled, weight)
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
    connect through edges or corners), and N = len(components). Raises
    ValueError for k < 0 or a part that is not an int.
    """
    check_k(k)
    # tuples first: the check would spend an iterator
    lam, mu = tuple(lam), tuple(mu)
    check_ints(lam + mu, "the parts")
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
    # mu with |mu| = |lam| + p, rowwise-compatible and k-strict, inside the
    # rectangle: lam_j - 1 <= mu_j <= lam_{j-1}, and lam_j <= mu_j if lam_j > k
    rows = min(len(lam) + 1, n - k)
    floor = [x if x > k else max(x - 1, 0) for x in (*lam, 0)[:rows]]
    return fill_rows(floor, [n + k, *lam][:rows], weight(lam) + p, k)


def pieri(lam, p: int, k: int, n: int, family: str) -> dict:
    """Multiply the basis class of lam by the p-th special class.

    Family "B" returns c_p * tau_lam = sum 2^N(lam,mu) tau_mu; family
    "C" returns sigma_p * sigma_lam, the same sum rescaled by
    2^(l_k(lam) - l_k(mu)). Coefficients are always positive integers.
    Raises ValueError unless the family is "B" or "C", k and n are ints
    with 0 <= k <= n, lam is a class of the space and p is an int in
    1..n + k.
    """
    sp, v, shift, den = _enter({lam: 1}, k, n, family)
    check_range(p, "p", 1, n + k)
    return _leave(sp.apply(v, p), sp, family, shift, den)


def _pieri(lam, p, k, n):
    # the rule on one validated class; _Space compiles each row once.
    # _candidates makes every mu rowwise-compatible and k-strict, so only
    # the column conditions and the count N are left (_free_components).
    # The engine shares no code with pieri_match, the oracle of claims.
    ell = length_gt_k(lam, k)
    heights = [sum(1 for x in lam if x >= c) for c in range(k + 1)]
    out = {}
    for mu in sorted(_candidates(lam, p, k, n)):
        N = _free_components(lam, mu, k, heights)
        if N is not None:
            out[mu] = 1 << N + ell - length_gt_k(mu, k)
    return out


def _free_components(lam, mu, k, heights):
    # N of pieri_match for a rowwise-compatible mu, or None when a column
    # condition fails. Related boxes share the diagonal value
    # r + |c - k - 1|, so each added box is indexed by it: diag maps a
    # value to its one box, or to None when two or more boxes have it.
    mentioned = set()
    if k:
        diag: dict = {}
        for r, m in enumerate(mu, 1):
            for c in range(get(lam, r) + 1, m + 1):
                d = r + abs(c - k - 1)
                diag[d] = None if d in diag else (r, c)
        for c in range(1, k + 1):
            hl = heights[c]
            hm = sum(1 for x in mu if x >= c)
            if hm > hl or hl == 0:
                continue
            if hm == hl:
                # the bottom box relates to at most one added box
                box = diag.get(hm + k + 1 - c, 0)
                if box is None:
                    return None
                if box:
                    mentioned.add(box)
                continue
            if hm == 0:
                return None
            # the bottom box and each removed box relate to exactly one
            # added box, all in one row
            row = None
            for r in range(hm, hl + 1):
                box = diag.get(r + k + 1 - c)
                if not box or row not in (None, box[0]):
                    return None
                row = box[0]
                mentioned.add(box)
    # the free boxes of a row (columns above k, not mentioned) form runs.
    # As mu_r <= lam_{r-1}, no added box of row r lies below one of row
    # r-1: the rows touch only at the corner of (r-1, lam_{r-1} + 1) and
    # (r, mu_r) when mu_r = lam_{r-1}. So N is the number of runs less
    # one per such corner whose two boxes are free.
    runs = 0
    first_free = False
    for r, m in enumerate(mu, 1):
        lr = get(lam, r)
        lo = max(lr, k) + 1
        inside = False
        for c in range(lo, m + 1):
            if (r, c) in mentioned:
                inside = False
            elif not inside:
                runs += 1
                inside = True
        if first_free and inside and m == get(lam, r - 1):
            runs -= 1
        first_free = (lo == lr + 1 <= m and (r, lo) not in mentioned)
    return runs


class _Space:
    """Everything the Pieri rule gives on one (k, n) rectangle, by index.

    Classes are interned to ints as they are first reached, each checked
    by check_rect once; index also maps a key with trailing zeros to its
    class, ell[i] is l_k of class i and wt[i] its weight. dim is the
    weight of the full class, (n-k)(n+3k+1)/2 = dim X: no class lies
    above it, so a product whose weights sum past it is zero. rank[i] is
    len(lam) (dim + 1) + |lam|, which orders classes by their number of
    parts and then by weight. ops[p][i]
    is the row of sigma_p on class i, a tuple of (index, coefficient)
    pairs compiled from _pieri the first time a vector reaches it, and
    None until then. monos maps a monomial, an index tuple running high
    to low, to its vector, one sigma_p per prefix from the unit. Nothing
    is built ahead: at stable_n a rectangle holds hundreds of thousands
    of classes, of which a product reaches a few.
    """

    def __init__(self, k, n):
        self.k, self.n = k, n
        self.index = {}
        self.classes = []
        self.ell = []
        self.wt = []
        self.rank = []
        self.dim = (n - k) * (n + 3 * k + 1) // 2
        self.ops = {}
        self.monos = {(): {self.intern(()): 1}}

    def intern(self, lam) -> int:
        i = self.index.get(lam)
        if i is None:
            key = strip(lam)
            check_rect(key, self.k, self.n)
            i = self.index.get(key)
            if i is None:
                i = len(self.classes)
                self.classes.append(key)
                self.ell.append(length_gt_k(key, self.k))
                self.wt.append(weight(key))
                self.rank.append(len(key) * (self.dim + 1) + weight(key))
                for rows in self.ops.values():
                    rows.append(None)
            self.index[lam] = self.index[key] = i
        return i

    def apply(self, v: dict, p: int, scale=1, out=None) -> dict:
        """scale times sigma_p times the vector v, for 1 <= p <= n + k,
        added into out when it is given and into a new vector if not."""
        rows = self.ops.get(p)
        if rows is None:
            rows = self.ops[p] = [None] * len(self.classes)
        if out is None:
            out = {}
        get = out.get
        for i, c in v.items():
            row = rows[i]
            if row is None:
                row = self._compile(i, p)
            c *= scale
            for j, m in row:
                out[j] = get(j, 0) + c * m
        return out

    def monomial(self, key: tuple) -> dict:
        """The vector of the monomial key, indices in 1..n + k."""
        v = self.monos.get(key)
        if v is None:
            v = self.monos[key] = self.apply(self.monomial(key[:-1]), key[-1])
        return v

    def _compile(self, i, p):
        # _pieri through the module globals: a patched rule is compiled too
        rule = _pieri(self.classes[i], p, self.k, self.n)
        row = tuple((self.intern(mu), c) for mu, c in rule.items())
        self.ops[p][i] = row
        return row


@cache
def _space(k, n):
    # validated on a miss only: functools.cache stores no exception
    check_rect((), k, n)
    return _Space(k, n)


def _enter(elem: dict, k, n, family):
    # the one way in: check the family and the space, then one pass over
    # elem interns every key, sums its coefficient into v and tracks the
    # least and greatest l_k. The sum is carried as 2^(-shift) times an
    # integer sigma vector over den: den clears the denominators
    # (_cleared, only when a coefficient is not an int), and in family B
    # shift is the greatest l_k of a key, as tau_lam = 2^(-l_k(lam))
    # sigma_lam, so each coefficient is scaled by 2^(shift - l_k), which
    # is 1 for all of them unless the keys' l_k differ.
    if family not in ("B", "C"):
        raise ValueError("family must be B or C, got %r" % (family,))
    if type(k) is not int or type(n) is not int:  # 1.0 finds the space of 1
        check_ints((k, n), "k and n")
    sp = _space(k, n)
    intern, ell = sp.intern, sp.ell
    v: dict = {}
    get = v.get
    ints = True
    lo, hi = n + 1, 0
    for lam, c in elem.items():
        i = intern(lam)
        if type(c) is not int:
            if not isinstance(c, (int, Fraction)):
                raise _coefficient_error(c)
            ints = False
        v[i] = get(i, 0) + c
        e = ell[i]
        if e < lo:
            lo = e
        if e > hi:
            hi = e
    den = 1
    if not ints:
        den, v = _cleared(v)
    if family == "C":
        return sp, v, 0, den
    if lo < hi:
        v = {i: c << hi - ell[i] for i, c in v.items()}
    return sp, v, hi, den


def _coefficient_error(c):
    return ValueError("coefficient %r is a %s, not an int or a Fraction"
                      % (c, type(c).__name__))


def _cleared(v: dict):
    # den, the lcm of the denominators of v's int or Fraction
    # coefficients, and den * v with int coefficients; v itself when they
    # are all ints already. Any other coefficient is a ValueError.
    den, mixed = 1, False
    for c in v.values():
        if type(c) is not int:
            if not isinstance(c, (int, Fraction)):
                raise _coefficient_error(c)
            den, mixed = lcm(den, c.denominator), True
    if not mixed:
        return 1, v
    return den, {i: c.numerator * (den // c.denominator)
                 for i, c in v.items()}


def _leave(v: dict, sp, family, shift, den):
    # the one way out: in family B each coefficient of 2^(-shift) v
    # moves to tau by one exact shift, l_k(mu) - shift. The structure
    # constants are integers, so a coefficient that is not one is a
    # fault. Then the input denominators go back.
    classes, ell = sp.classes, sp.ell
    tau = family == "B"
    out = {}
    for i, c in v.items():
        if c:
            s = ell[i] - shift if tau else 0
            if type(c) is not int or s < 0 and c & (1 << -s) - 1:
                raise RuntimeError(
                    "non-integral coefficient %s of %r in family %s"
                    % (Fraction(c) * Fraction(2) ** s, classes[i], family))
            out[classes[i]] = c << s if s >= 0 else c >> -s
    return scaled(out, Fraction(1, den)) if den != 1 else out


def reduce_polynomial(poly: dict, k: int, n: int, family: str) -> dict:
    """A polynomial in the special classes in the Schubert basis.

    poly maps index tuples, the monomials, to int or Fraction
    coefficients: sigma_p monomials in family C, c_p monomials in family
    B. Indices may come in any order; zero indices are the unit and a
    negative index or one above n + k kills its monomial (the quotient
    bundle has no such Chern class). The memoized vectors of the
    monomials are summed into one sigma vector, which leaves the sigma
    basis once. Raises ValueError unless (k, n) is a space and every
    index is an int.
    """
    sp = _enter({}, k, n, family)[0]
    den, coeffs = _cleared(poly)
    # a float index equal to an int would find that int's memoized vector
    check_ints(chain.from_iterable(coeffs), "the indices")
    top = n + k
    acc: dict = {}
    get = acc.get
    for beta, c in coeffs.items():
        # high to low, so that monomials with a common prefix share it
        key = tuple(sorted((b for b in beta if b), reverse=True))
        if c and not (key and (key[0] > top or key[-1] < 0)):
            for i, x in sp.monomial(key).items():
                acc[i] = get(i, 0) + c * x
    return _leave(acc, sp, family, 0, den)


def reduce_monomial(beta, k: int, n: int, family: str) -> dict:
    """Product of special classes with indices beta in the Schubert basis:
    reduce_polynomial of the one monomial beta, a sequence of ints."""
    beta = tupled(beta)
    check_ints(beta, "the indices")
    return reduce_polynomial({beta: 1}, k, n, family)


@cache
def _formula(lam, k):
    # the Giambelli formula R^lam on the monomial of lam as sorted
    # (monomial, coefficient) pairs, each monomial an index tuple that
    # runs high to low: monomials with a common prefix sit side by side
    return tuple(sorted(expand(strict_pairs(c_set(lam, k)), lam).items()))


def _walk(sp, formula, v, scale, acc):
    # acc += scale * (a formula of _formula) applied to v. stack[j] is
    # v under the first j indices of the monomial before, so the indices
    # the next one shares with it are applied once; each last sigma_p
    # adds straight into acc. The monomials are sorted: none is a prefix
    # of the one before, an empty vector on the stack skips all that
    # pass through it, and the first to start above n + k, where sigma_p
    # is zero, ends the walk.
    top = sp.n + sp.k
    apply = sp.apply
    stack, prev = [v], ()
    for key, c in formula:
        if not key:  # the unit's formula, ((), 1)
            combine(acc, v, scale * c)
            continue
        if key[0] > top:
            break
        s, d = 0, len(stack) - 1
        while s < d and key[s] == prev[s]:
            s += 1
        del stack[s + 1:]
        w = stack[s]
        for p in key[s:-1]:
            if not w:
                break
            w = apply(w, p)
            stack.append(w)
        if w:
            apply(w, key[-1], scale * c, acc)
        prev = key


def giambelli(lam, k: int, n: int, family: str) -> dict:
    """The Giambelli formula of lam: R^lam sigma_lam in the sigma_p (family
    C) or 2^(-l_k(lam)) R^lam c_lam in the c_p (family B), keyed by index
    tuples. Raises RuntimeError unless it reduces to exactly the class of
    lam, and ValueError unless lam is a class of the space."""
    sp, v, shift, _ = _enter({lam: 1}, k, n, family)
    (i,) = v
    lam = sp.classes[i]
    raw = expand(strict_pairs(c_set(lam, k)), lam)
    # shift = l_k(lam) in family B, where R^lam c_lam is 2^l_k(lam) tau_lam
    want = {lam: 1 << shift}
    got = reduce_polynomial(raw, k, n, family)
    if got != want:
        raise RuntimeError("giambelli(%r, k=%d, n=%d, %s): R^lam reduced to "
                           "%r, not %r" % (lam, k, n, family, got, want))
    return scaled(raw, Fraction(1, 1 << shift)) if shift else raw


def multiply(a: dict, b: dict, k: int, n: int, family: str) -> dict:
    """Product of two formal sums of classes, with int or Fraction
    coefficients, by Giambelli expansion plus Pieri.

    The Giambelli formula of each key of a is a polynomial in the special
    classes; it is evaluated on the vector of b in the Pieri operators,
    in the sigma basis, walking the formula's sorted monomials so that
    a prefix shared with the monomial before is applied once and the
    last sigma_p of each monomial adds into the sum. Every monomial of
    the formula of lam has weight |lam|, and no class lies above the
    weight dim X, so the walk of lam takes only the classes of b of
    weight at most dim X - |lam|, and is not made when there are none.
    A monomial of the formula of lam has at most len(lam) indices, the
    depth of its walk. The product commutes, so when lam has more parts
    than each of those classes, or as many and more weight, their
    formulas are walked on lam instead. Raises ValueError unless every
    key of a and b is a class of the space and every coefficient an
    int or a Fraction.
    """
    sp, va, sa, da = _enter(a, k, n, family)
    _, vb, sb, db = _enter(b, k, n, family)
    wt, rank, dim = sp.wt, sp.rank, sp.dim
    acc: dict = {}
    for i, ca in va.items():
        room = dim - wt[i]
        v = {j: c for j, c in vb.items() if wt[j] <= room}
        if not v:
            continue
        if rank[i] > max(map(rank.__getitem__, v)):
            for j, c in v.items():
                _walk(sp, _formula(sp.classes[j], k), {i: ca}, c, acc)
        else:
            _walk(sp, _formula(sp.classes[i], k), v, ca, acc)
    return _leave(acc, sp, family, sa + sb, da * db)


@cache
def _theta_product(lam, mu, k):
    # theta(lam) * theta(mu) in the canonical basis, lam <= mu. The theta
    # ring's functions are looked up through its module at each miss, so
    # a patched one takes effect after clear_caches()
    return theta_ring.to_theta_basis(theta_ring.multiply(
        theta_ring.theta(lam, k), theta_ring.theta(mu, k), k), k)


def theta_route_product(a: dict, b: dict, k: int, n: int, family: str) -> dict:
    """Product through the theta ring: each pair of classes lam, mu of a
    and b is multiplied upstairs as theta(lam) * theta(mu) and converted
    to the canonical basis once per (lam, mu, k), in either order and in
    both families; the sum over the pairs drops the keys that fall
    outside the rectangle. Raises ValueError unless every key of a and b
    is a class of the space."""
    sp, va, sa, da = _enter(a, k, n, family)
    _, vb, sb, db = _enter(b, k, n, family)
    # both factors are integer sigma vectors, and so is the product
    classes = sp.classes
    prod: dict = {}
    for i, ca in va.items():
        for j, cb in vb.items():
            if ca and cb:
                lam, mu = classes[i], classes[j]
                combine(prod, _theta_product(*sorted((lam, mu)), k), ca * cb)
    v = _enter({lam: c for lam, c in prod.items() if in_rect(lam, k, n)},
               k, n, "C")[1]
    return _leave(v, sp, family, sa + sb, da * db)


def verify_presentation(k: int, n: int, r: int, family: str) -> bool:
    """Check the quadratic relation on the r-th special class.

    The combination sigma_r^2 + 2 sum_{i=1..n+k-r} (-1)^i
    sigma_{r+i} sigma_{r-i} (with the c_p classes in family B) must
    reduce to zero for every r in (k, n+k]; any other r, or a k, n or r
    that is not an int, raises ValueError.
    """
    check_ints((k, n), "k and n")
    check_range(r, "r", k + 1, n + k)
    rel = {(r, r): 1}
    for i in range(1, n + k - r + 1):
        rel[(r + i, r - i)] = -2 if i % 2 else 2
    return not reduce_polynomial(rel, k, n, family)


def stable_n(d: int, k: int) -> int:
    """An n at which weight-d classes multiply stably, for ints d, k >= 0."""
    check_range(d, "d")
    check_k(k)
    return d + k + 2
