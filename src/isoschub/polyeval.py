"""Exact truncated polynomial oracle.

Polynomials in x_1..x_m, y_1..y_k live as sparse dicts mapping exponent
tuples of length m + k to integers (or Fractions); every product is
truncated above a total-degree bound. Two homogeneous ring elements of
weight d are equal iff their evaluations agree once m >= d, which makes
evaluation a universal identity check for everything in this package.
"""

from .formal import add_into, combine, norm_scalar
from .partitions import check_k, get, strip
from .theta import theta


def const(c, nv: int) -> dict:
    return {(0,) * nv: c} if c else {}


def _by_degree(a: dict, bound: int, width: int) -> list:
    """Terms of degree <= bound as (degree, [(packed exponents, c), ...])."""
    groups: dict = {}
    for e, c in a.items():
        d = sum(e)
        if d <= bound:
            if width == 8:
                key = int.from_bytes(bytes(e), "little")
            else:
                key = 0
                for x in reversed(e):
                    key = key << width | x
            groups.setdefault(d, []).append((key, c))
    return sorted(groups.items())


def p_mul(a: dict, b: dict, bound: int) -> dict:
    """The product a * b with every term above total degree bound dropped.

    Exponent vectors are packed into one int each (Kronecker
    substitution, variable 0 in the lowest field).  Every exponent of a
    kept term is at most bound, so with fields of bound's bit length
    adding two keys adds the vectors with no carry between fields.
    Fields that would fit in a byte get a whole byte, so that
    int.from_bytes and int.to_bytes pack and unpack in C.  Terms are
    grouped by total degree, so truncation is one compare per pair of
    degrees.
    """
    if not a or not b:
        return {}
    width = max(bound.bit_length(), 8)
    gb = _by_degree(b, bound, width)
    acc: dict = {}
    get = acc.get
    for d1, ta in _by_degree(a, bound, width):
        room = bound - d1
        for d2, tb in gb:
            if d2 > room:
                break
            for k1, c1 in ta:
                for k2, c2 in tb:
                    key = k1 + k2
                    acc[key] = get(key, 0) + c1 * c2
    nv = len(next(iter(a)))
    if width == 8:
        return {tuple(key.to_bytes(nv, "little")): norm_scalar(c)
                for key, c in acc.items() if c}
    mask = (1 << width) - 1
    shifts = range(0, nv * width, width)
    return {tuple(key >> s & mask for s in shifts): norm_scalar(c)
            for key, c in acc.items() if c}


def e_list(lo: int, hi: int, nv: int, top: int) -> list[dict]:
    """Elementary symmetric polynomials e_0..e_top in variables lo..hi-1."""
    es: list[dict] = [const(1, nv)] + [{} for _ in range(top)]
    for v in range(lo, hi):
        for r in range(top, 0, -1):
            for e, c in list(es[r - 1].items()):
                e2 = list(e)
                e2[v] += 1
                add_into(es[r], tuple(e2), c)
    return es


def q_list(m: int, nv: int, top: int) -> list[dict]:
    """q_0..q_top for x_1..x_m, from the product of (1+x_i t)/(1-x_i t)."""
    qs: list[dict] = [const(1, nv)] + [{} for _ in range(top)]
    for v in range(m):
        out: list[dict] = [{} for _ in range(top + 1)]
        for d in range(top + 1):
            combine(out[d], qs[d])
            # one variable contributes 1 + 2 x_v t + 2 x_v^2 t^2 + ...
            for j in range(1, d + 1):
                for e, c in qs[d - j].items():
                    e2 = list(e)
                    e2[v] += j
                    add_into(out[d], tuple(e2), 2 * c)
        qs = out
    return qs


def p_det(mat: list[list[dict]], nv: int, bound: int) -> dict:
    """Determinant of a square polynomial matrix, minors memoized."""
    n = len(mat)
    if n == 0:
        return const(1, nv)
    memo: dict = {}

    def minor(row, cols):
        if row == n:
            return const(1, nv)
        got = memo.get(cols)
        if got is not None:
            return got
        acc: dict = {}
        sign = 1
        for j in range(n):
            if cols & (1 << j):
                if mat[row][j]:
                    sub = minor(row + 1, cols & ~(1 << j))
                    if sub:
                        combine(acc, p_mul(mat[row][j], sub, bound), sign)
                sign = -sign
        memo[cols] = acc
        return acc

    return minor(0, (1 << n) - 1)


def q_monomial_poly(key, qs: list[dict], nv: int, bound: int) -> dict:
    """Product of q_r over the parts of key."""
    p = const(1, nv)
    for r in key:
        if r >= len(qs):
            return {}
        p = p_mul(p, qs[r], bound)
    return p


def q_basis_poly(mu, qs: list[dict], nv: int, bound: int) -> dict:
    """Schur Q-function of the strict partition mu in the x variables."""
    out: dict = {}
    for key, c in theta(mu, 0).items():
        combine(out, q_monomial_poly(key, qs, nv, bound), c)
    return out


def schur_conj_poly(nu, mu, lo: int, hi: int, nv: int, bound: int) -> dict:
    """Skew Schur class s_{nu'/mu'} in variables lo..hi-1.

    Dual Jacobi-Trudi on the unconjugated rows: det(e_{nu_i - mu_j + j - i}).
    """
    nu = strip(nu)
    mu = strip(mu)
    if len(mu) > len(nu):
        return {}
    n = len(nu)
    if n == 0:
        return const(1, nv)
    top = max(nu[0] + n, 1)
    es = e_list(lo, hi, nv, top)
    mat = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            d = nu[i - 1] - get(mu, j) + j - i
            row.append(es[d] if 0 <= d <= top else {})
        mat.append(row)
    return p_det(mat, nv, bound)


def q_det_poly(mu, qs: list[dict], nv: int, bound: int) -> dict:
    """The determinant det(q_{mu_i + j - i}) in the x variables."""
    mu = strip(mu)
    n = len(mu)
    if n == 0:
        return const(1, nv)
    mat = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            d = mu[i - 1] + j - i
            row.append(qs[d] if 0 <= d < len(qs) else {})
        mat.append(row)
    return p_det(mat, nv, bound)


def theta_polys(k: int, qs: list[dict], es: list[dict], bound: int) -> list[dict]:
    """t_0..t_bound as polynomials: t_r = sum_{i<=min(k,r)} q_{r-i} e_i."""
    ths = []
    for r in range(bound + 1):
        p: dict = {}
        for i in range(0, min(k, r) + 1):
            combine(p, p_mul(qs[r - i], es[i], bound))
        ths.append(p)
    return ths


def evaluate(e: dict, k: int, m: int, bound: int | None = None) -> dict:
    """Evaluate a monomial-basis element or a mixed (mu, nu) element.

    Variables are x_1..x_m then y_1..y_k; exponent tuples have length
    m + k. Raises ValueError unless k >= 0, m >= 0 and the truncation
    bound covers the element's weight.
    """
    check_k(k)
    if m < 0:
        raise ValueError("need m >= 0, got m=%d" % m)
    if not e:
        return {}
    some = next(iter(e))
    mixed = bool(some) and isinstance(some[0], tuple)
    weights = ([sum(mu) + sum(nu) for mu, nu in e] if mixed
               else [sum(key) for key in e])
    top = max(weights, default=0)
    if bound is None:
        bound = top
    if bound < top:
        raise ValueError("truncation bound %d below element weight %d"
                         % (bound, top))
    nv = m + k
    qs = q_list(m, nv, bound)
    acc: dict = {}
    if mixed:
        qcache: dict = {}
        for (mu, nu), c in e.items():
            qp = qcache.get(mu)
            if qp is None:
                qp = q_basis_poly(mu, qs, nv, bound)
                qcache[mu] = qp
            sp = schur_conj_poly(nu, (), m, m + k, nv, bound)
            combine(acc, p_mul(qp, sp, bound), c)
        return acc
    es = e_list(m, m + k, nv, bound)
    ths = theta_polys(k, qs, es, bound)
    for key, c in e.items():
        p = const(1, nv)
        for r in key:
            p = p_mul(p, ths[r], bound)
        combine(acc, p, c)
    return acc
