"""Ring generated by one-row classes t_1, t_2, ... with a threshold k.

Elements are dicts mapping k-strict partition keys to integer (or
Fraction) coefficients; the key (a, b, ...) stands for the product
t_a t_b ....  A squared part m > k rewrites as

    t_m * t_m = 2 * sum_{i=1..m} (-1)^(i+1) t_{m+i} t_{m-i}

and repeating the rewrite brings any monomial into the k-strict basis.
At k = 0 the generators multiply like the q_r and the canonical classes
theta(lam, 0) are the Schur Q-functions.
"""

from collections import defaultdict
from fractions import Fraction
from functools import cache
from heapq import heappop, heappush

from .formal import add_into, combine, det, jacobi_trudi, norm_scalar
from .partitions import (check_ints, check_k, check_partition, check_range,
                         check_rect, fill_rows, get, k_strict_partitions,
                         strip, tupled, weight)
from .raising import c_set, expand, strict_pairs, t_product


def straighten(alpha, k: int) -> dict[tuple[int, ...], int]:
    """Rewrite the monomial with index multiset alpha into the k-strict basis.

    Entries may be arbitrary integers: a negative index kills the term,
    zero indices drop out (t_0 = 1).  Raises ValueError for k < 0 or an
    entry that is not an int.
    """
    check_k(k)
    return _straightened(_ordered({tuple(alpha): 1}), k)


def _ordered(poly: dict) -> dict:
    # raw index tuples by the ring's monomial rule: each key checked for
    # ints and sorted descending, t_0 = 1 dropped, a t_r, r < 0, killing it
    out: dict = {}
    for key, c in poly.items():
        check_ints(key, "the indices")
        key = tuple(sorted(key, reverse=True))
        if not key or key[-1] >= 0:
            key = key[:key.index(0)] if 0 in key else key
            out[key] = out.get(key, 0) + c
    return out


def _straightened(poly: dict, k) -> dict:
    # a polynomial {index tuple: c} in the t_p in the k-strict basis, each
    # key weakly decreasing and positive, as _ordered, expand and t_product
    # give them. Rewriting a key's leftmost square gives lex-larger keys
    # only, so the lex-least key of work is final when it is popped
    work = dict(poly)
    heap = sorted(work)
    out: dict = {}
    while heap:
        key = heappop(heap)
        c = work.pop(key)
        if not c:
            continue
        for i in range(len(key) - 1):
            # leftmost adjacent equal pair above the threshold
            if key[i] == key[i + 1] and key[i] > k:
                m = key[i]
                rest = key[:i] + key[i + 2:]
                for j in range(1, m + 1):
                    child = tuple(sorted(rest + ((m + j, m - j) if j < m
                                                 else (2 * m,)), reverse=True))
                    if child not in work:
                        heappush(heap, child)
                        work[child] = 0
                    work[child] += 2 * c if j % 2 else -2 * c
                break
        else:
            out[key] = norm_scalar(c)
    return out


def theta(lam, k: int) -> dict[tuple[int, ...], int]:
    """Canonical basis element for the k-strict partition lam.

    Built from the raising-operator expansion of lam with the inverted
    factors taken over the off-diagonal pairs of c_set(lam, k), then
    straightened. Unitriangular:
    the key lam itself carries coefficient 1 and every other key
    strictly dominates lam. Raises ValueError unless lam is k-strict.
    """
    lam = strip(lam)
    check_rect(lam, k)
    return dict(_theta(lam, k))


@cache
def _theta(lam, k):
    return _straightened(expand(strict_pairs(c_set(lam, k)), lam), k)


def hat_theta(r: int, k: int) -> dict[tuple[int, ...], int]:
    """Dual one-column class: the r x r determinant det(t_{1+j-i}).

    Satisfies sum_{i=0..n} (-1)^i t_i hat_theta(n-i) = 0 for n >= 1.
    Raises ValueError for k < 0 and for an r or k that is no int.
    """
    check_k(k)
    check_ints((r,), "r")
    if r < 0:
        return {}
    return _straightened(expand(frozenset(), (1,) * r), k)


# caps the rows, not the work, which grows with the parts of lam
MAX_SKEW_ROWS = 8


def skew_S(lam, mu, k: int) -> dict[tuple[int, ...], int]:
    """Determinant det(t_{lam_i - mu_j + j - i}) in the k-strict basis.

    Expanded along the rows by formal.det, each minor once, with
    raising.t_product adding each entry times its minor straight into the
    sum; an entry t_r with r < 0 prunes every term through it.
    Zero unless mu is contained in lam.
    Raises ValueError for k < 0, for an entry that is not an int and for
    more than MAX_SKEW_ROWS rows.
    """
    check_k(k)
    lam = strip(lam)
    mu = strip(mu)
    check_ints(lam + mu, "the entries")
    if len(mu) > len(lam):
        return {}
    n = len(lam)
    if n > MAX_SKEW_ROWS:
        raise ValueError("lambda has %d rows, more than the limit of %d for "
                         "a skew determinant" % (n, MAX_SKEW_ROWS))
    mat = jacobi_trudi([{(r,) if r else (): 1}
                        for r in range(get(lam, 1) + n)], lam, mu)
    return _straightened(det(mat, t_product, {(): 1}), k)


def multiply(a: dict, b: dict, k: int) -> dict:
    """Product of two elements given in the k-strict monomial basis:
    raising.t_product's product of the two sums, straightened.

    Raises ValueError for k < 0 or an index that is not an int.
    """
    check_k(k)
    return _straightened(t_product({}, _ordered(a), _ordered(b)), k)


def to_theta_basis(e: dict, k: int) -> dict:
    """Rewrite an element from the monomial basis to the canonical basis.

    Within one weight the lex-least key is dominance-minimal, so its
    monomial coefficient is already its canonical coefficient; peel it
    off and repeat. Raises ValueError for a key with a trailing zero.
    """
    work = dict(e)
    out: dict = {}
    while work:
        lam = min(work)
        c = work[lam]
        add_into(out, lam, c)
        combine(work, theta(lam, k), -c)
        if lam in work:
            # theta(lam) leads with lam stripped, so a trailing zero
            # lands here
            if lam[-1:] == (0,):
                raise ValueError("key %r has a trailing zero" % (lam,))
            raise RuntimeError("theta(%r, %d) does not lead with %r"
                               % (lam, k, lam))
    return out


def theta_sum(f: dict, k: int) -> dict:
    """Inverse of to_theta_basis: expand canonical-basis coefficients."""
    out: dict = {}
    for lam, c in f.items():
        combine(out, theta(lam, k), c)
    return out


def _solve(rows, rhs):
    # exact Gauss-Jordan; every column must be a pivot
    n, m = len(rows), len(rows[0]) if rows else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b)]
           for row, b in zip(rows, rhs)]
    r = 0
    for c in range(m):
        p = next((i for i in range(r, n) if aug[i][c]), None)
        if p is None:
            raise RuntimeError("transition matrix is singular")
        aug[r], aug[p] = aug[p], aug[r]
        f = aug[r][c]
        aug[r] = [x / f for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c]:
                g = aug[i][c]
                aug[i] = [x - g * y for x, y in zip(aug[i], aug[r])]
        r += 1
    for i in range(r, n):
        if aug[i][m]:
            raise RuntimeError("inconsistent linear system")
    return [aug[i][m] for i in range(m)]


def to_hat_basis(e: dict, k: int) -> dict:
    """Coefficients of e on products of hat_theta classes.

    The products hat_theta(a_1) * hat_theta(a_2) * ... over k-strict
    (a_1, a_2, ...) span each graded piece over the rationals but are
    not dominance-triangular against the monomial basis, so each weight
    is resolved by a dense exact linear solve. Coefficients may be
    non-integral Fractions.  Raises ValueError for k < 0 and for a key
    outside the span: not a k-strict partition, or with a trailing zero.
    """
    check_k(k)
    by_weight: dict = defaultdict(dict)
    for key, c in e.items():
        check_rect(key, k)
        if key[-1:] == (0,):
            raise ValueError("key %r has a trailing zero" % (key,))
        by_weight[weight(key)][key] = c
    out: dict = {}
    for d, target in sorted(by_weight.items()):
        basis = sorted(k_strict_partitions(d, k))
        cols = []
        for lam in basis:
            col = {(): 1}
            for a in lam:
                col = multiply(col, hat_theta(a, k), k)
            cols.append(col)
        keys = sorted(set(target) | {key for col in cols for key in col})
        mat = [[col.get(key, 0) for col in cols] for key in keys]
        rhs = [target.get(key, 0) for key in keys]
        for lam, c in zip(basis, _solve(mat, rhs)):
            add_into(out, lam, c)
    return out


def horizontal_strips(nu, size: int, cap: int) -> list[tuple[int, ...]]:
    """Partitions rho >= nu adding a horizontal strip of the given size.

    Interlacing: nu_i <= rho_i <= nu_{i-1}, with rho_1 <= cap. Used for
    the Pieri step e_size * s_{nu'} = sum s_{rho'}. Raises ValueError
    unless nu is a partition and size and cap are ints >= 0.
    """
    nu = tupled(nu)
    check_partition(nu)
    check_range(size, "size")
    check_range(cap, "cap")
    return fill_rows(nu + (0,), (cap,) + nu, sum(nu) + size)


@cache
def _strips(nu, size, cap):
    # horizontal_strips once per argument; looked up through the module,
    # so a rebound horizontal_strips takes effect after clear_caches()
    return tuple(horizontal_strips(nu, size, cap))


def mixed_expand(lam, k: int) -> dict:
    """Expansion into pairs (mu, nu): a strict-key x-part Q_mu times the
    Schur class of the conjugate of nu in the k extra variables.

    Each one-row class splits as t_a = sum_{i=0..min(k,a)} q_{a-i} e_i;
    the e-part is folded into Schur classes by horizontal-strip Pieri
    steps, pruning nu_1 > k, each step's strips computed once per
    (nu, size, k) and memoized, and the q-parts of each Schur class nu
    add up to one polynomial, straightened at threshold 0 and converted
    to the canonical (Schur Q) basis once. Raises ValueError unless lam
    is k-strict.
    """
    lam = strip(lam)
    check_rect(lam, k)
    raw = expand(strict_pairs(c_set(lam, k)), lam)
    by_nu: dict = {}
    for alpha, co in raw.items():
        states: dict = {((), ()): co}
        for a in alpha:
            nxt: dict = {}
            for (qk, nu), c in states.items():
                for i in range(0, min(k, a) + 1):
                    q = a - i
                    qk2 = qk if q == 0 else tuple(
                        sorted(qk + (q,), reverse=True))
                    for rho in _strips(nu, i, k):
                        add_into(nxt, (qk2, rho), c)
            states = nxt
        for (qk, nu), c in states.items():
            add_into(by_nu.setdefault(nu, {}), qk, c)
    return {(mu, nu): c for nu, poly in by_nu.items()
            for mu, c in to_theta_basis(_straightened(poly, 0), 0).items()}

