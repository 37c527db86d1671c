"""Exact truncated polynomial oracle.

Polynomials in x_1..x_m, y_1..y_k are truncated above a total-degree
bound: a product drops every term of higher degree. The Schur
Q-functions Q_lam(x_1..x_m) of the strict partitions with l(lam) <= m
are linearly independent, and Q_lam(x_1..x_m) = 0 once l(lam) > m
(Macdonald, III.8). So two elements of Gamma (x) Lambda(y_1..y_k) of
weight <= d are equal iff their evaluations agree once m >= x_vars(d),
the length of the longest strict partition of d (3 at d = 7, not 7).
That makes evaluation a universal identity check for everything in
this package. The public helpers e_list, q_list, q_basis_poly, p_det
and p_mul build the other leg of such a check from the same series and
products, never from the theta ring.

At the public boundary a polynomial is a sparse dict mapping exponent
tuples of length m + k to integers (or Fractions). Inside the module it
is packed: {degree: {key: c}}, each exponent vector packed into one int
(Kronecker substitution, variable 0 in the lowest field) with fields of
width = max(bound.bit_length(), 8) bits. Every exponent of a kept term
is at most bound, so adding two keys adds the vectors with no carry
between fields, and with terms grouped by degree truncation is one
compare per pair of degrees. Fields that would fit in a byte get a
whole byte, so that int.from_bytes and int.to_bytes pack and unpack in
C. Each public function packs its arguments once and unpacks its
result once; matrix entries, minors, the q_r and the theta polynomials
stay packed in between. The one packed product, _mul, adds scale * a *
b into a packed sum in place, the multiply-accumulate that formal.det
and formal.pf take. A bound that is not an int raises ValueError.
"""

from functools import cache, partial
from math import isqrt

# add_into and combine are unread: bench/tracing.TARGETS pins them here
from .formal import add_into, combine, det, jacobi_trudi, norm_scalar, pf
from .partitions import check_ints, check_k, check_range, check_rect, strip
from .theta import theta


def _width(bound: int) -> int:
    # every public bound passes through here
    check_ints((bound,), "the bound")
    return max(bound.bit_length(), 8)


def _check_vars(lo: int, hi: int, nv: int) -> None:
    # an unpacked key has nv fields: a variable outside them would be
    # dropped silently by wide fields, and fail deep inside byte fields
    check_range(nv, "nv")
    check_range(hi, "the end of the variables", 0, nv)
    check_range(lo, "the start of the variables", 0, hi)


def _key_error(e, nv: int) -> ValueError:
    return ValueError("exponent key %r: need %d exponents, none negative"
                      % (e, nv))


def _pack(a: dict, nv: int, bound: int, width: int) -> dict:
    """The nonzero terms of a of degree <= bound, packed. Raises
    ValueError unless every key is nv exponents and no kept one is
    negative: a field past nv is lost on unpacking, and a negative one
    borrows from the field above it. A dropped term cannot matter, as
    its products with the kept terms lie above bound."""
    out: dict = {}
    for e, c in a.items():
        if len(e) != nv:
            raise _key_error(e, nv)
        d = sum(e)
        if d <= bound and c:
            if width == 8:
                try:  # bytes() rejects a negative exponent
                    key = int.from_bytes(bytes(e), "little")
                except ValueError:
                    raise _key_error(e, nv) from None
            elif min(e, default=0) < 0:
                raise _key_error(e, nv)
            else:
                key = 0
                for x in reversed(e):
                    key = key << width | x
            terms = out.get(d)
            if terms is None:
                out[d] = {key: c}
            else:
                terms[key] = c
    return out


def _unpack(p: dict, nv: int, width: int) -> dict:
    """A packed value as a dict keyed by exponent tuples of length nv."""
    if width == 8:
        return {tuple(key.to_bytes(nv, "little")): norm_scalar(c)
                for terms in p.values() for key, c in terms.items()}
    mask = (1 << width) - 1
    shifts = range(0, nv * width, width)
    return {tuple(key >> s & mask for s in shifts): norm_scalar(c)
            for terms in p.values() for key, c in terms.items()}


def _mul(acc: dict, a: dict, b: dict, scale, bound: int) -> dict:
    """acc += scale * a * b for packed values, in place, without the
    terms above degree bound; a key or a degree that cancels is dropped.
    Returns acc."""
    for d1, ta in a.items():
        room = bound - d1
        for d2, tb in b.items():
            if d2 > room:
                continue
            terms = acc.setdefault(d1 + d2, {})
            get = terms.get
            for k1, c1 in ta.items():
                c1 *= scale
                for k2, c2 in tb.items():
                    key = k1 + k2
                    v = get(key, 0) + c1 * c2
                    if v:
                        terms[key] = v
                    else:
                        terms.pop(key, None)
            if not terms:
                del acc[d1 + d2]
    return acc


def p_mul(a: dict, b: dict, bound: int) -> dict:
    """The product a * b with every term above total degree bound dropped.
    Raises ValueError unless every key of a and b has as many exponents
    as the first key of a, and none of degree <= bound is negative."""
    width = _width(bound)
    if not a or not b:
        return {}
    nv = len(next(iter(a)))
    prod = _mul({}, _pack(a, nv, bound, width), _pack(b, nv, bound, width),
                1, bound)
    return _unpack(prod, nv, width)


def _series(q_vars, e_vars, top: int, width: int) -> list[dict]:
    """The packed c_0..c_top, each {r: terms} or {} when 0, of the series
    prod_{v in q_vars} (1 + x_v t)/(1 - x_v t) * prod_{v in e_vars}
    (1 + x_v t) = sum_r c_r t^r. The q variables alone give the q_r, the
    e variables alone the e_r, and x_1..x_m with y_1..y_k the theta
    polynomials t_r = sum_{i <= min(k, r)} q_{r-i} e_i."""
    cs: list[dict] = [{0: 1}] + [{} for _ in range(top)]
    down, up = range(top, 0, -1), range(1, top + 1)
    # c_d += x c_{d-1} for each degree d of a step: times (1 + x t) in
    # place from the top degree down, so each c_{d-1} is still the old
    # one; over (1 - x t) from degree 1 up, so it is already the new one
    steps = [(v, ds) for v in q_vars for ds in (down, up)]
    for v, degrees in steps + [(v, down) for v in e_vars]:
        unit = 1 << width * v
        for d in degrees:
            terms = cs[d]
            get = terms.get
            for key, c in cs[d - 1].items():
                key += unit
                terms[key] = get(key, 0) + c
    return [{r: terms} if terms else {} for r, terms in enumerate(cs)]


def e_list(lo: int, hi: int, nv: int, top: int) -> list[dict]:
    """Elementary symmetric polynomials e_0..e_top in variables lo..hi-1.
    Raises ValueError unless 0 <= lo <= hi <= nv and 0 <= top, all ints."""
    _check_vars(lo, hi, nv)
    check_range(top, "top")
    # no exponent exceeds 1, so byte fields hold every key
    return [_unpack(e, nv, 8) for e in _series((), range(lo, hi), top, 8)]


def q_list(m: int, nv: int, top: int) -> list[dict]:
    """q_0..q_top for x_1..x_m, from the product of (1+x_i t)/(1-x_i t).
    Raises ValueError unless m, nv and top are ints, 0 <= m <= nv and
    0 <= top."""
    _check_vars(0, m, nv)
    check_range(top, "top")
    width = _width(top)
    return [_unpack(q, nv, width) for q in _series(range(m), (), top, width)]


def _det(mat: list[list[dict]], bound: int) -> dict:
    # formal.det over the packed ring truncated above bound
    return det(mat, partial(_mul, bound=bound), {0: {0: 1}})


def p_det(mat: list[list[dict]], nv: int, bound: int) -> dict:
    """Determinant of a square polynomial matrix, minors memoized.
    Raises ValueError unless it is square, nv is an int >= 0 and every
    key of every entry is nv exponents, none of degree <= bound negative."""
    check_range(nv, "nv")
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("need a square matrix, got rows of lengths %s"
                         % [len(row) for row in mat])
    width = _width(bound)
    rows = [[_pack(a, nv, bound, width) for a in row] for row in mat]
    return _unpack(_det(rows, bound), nv, width)


def _monomial_sum(e: dict, factors: dict, bound: int) -> dict:
    """The packed value of the sum e of monomials in the factors, a part
    missing from factors making its monomial 0. Each monomial takes the
    product of its factors but the last, and the last one multiplies
    straight into the sum."""
    one = {0: {0: 1}}
    out: dict = {}
    for key, c in e.items():
        p = one
        for r in key[:-1]:
            p = _mul({}, p, factors.get(r, {}), 1, bound)
        _mul(out, p, factors.get(key[-1], {}) if key else one, c, bound)
    return out


def _q_pair(a: int, b: int, factors: dict, bound: int) -> dict:
    """The packed Q_(a,b) = q_a q_b + 2 sum_{i=1..b} (-1)^i q_{a+i} q_{b-i}
    for a > b >= 0; a q_r missing from factors lies above bound."""
    acc: dict = {}
    if a + b <= bound:
        for i in range(b + 1):
            qa, qb = factors.get(a + i), factors.get(b - i)
            if qa and qb:
                _mul(acc, qa, qb, 1 if i == 0 else (-2 if i % 2 else 2),
                     bound)
    return acc


def q_basis_poly(mu, qs: list[dict], nv: int, bound: int) -> dict:
    """Schur Q-function of the strict partition mu in the x variables, as
    Schur's Pfaffian Pf(Q_(mu_i, mu_j)) over the packed ring, mu padded
    with a 0 to even length: formal.pf's first-row step, each
    sub-Pfaffian memoized for this call by its sequence. Its entries
    come from their own two-entry rule (_q_pair), not from
    raising.two_special, which feeds theta(mu, 0) and so evaluate's
    mixed branch: each checks the other. Raises
    ValueError unless mu is strict and every key of the q_r it uses is
    nv exponents, none of degree <= bound negative, and qs runs to the
    largest q_r of degree <= bound that the Pfaffian uses, and nv is an
    int >= 0."""
    check_range(nv, "nv")
    width = _width(bound)
    mu = strip(mu)
    check_rect(mu, 0)
    seq = mu + (0,) if len(mu) % 2 else mu
    # the largest q_r is q_{mu_1 + mu_2}, in the entry Q_(mu_1, mu_2); a
    # q_r above bound has no term left
    need = min(seq[0] + seq[1], bound) if seq else -1
    if len(qs) <= need:  # an entry past the end of qs would count as zero
        raise ValueError("need q_0..q_%d, got %d q" % (need, len(qs)))
    factors = {r: _pack(qs[r], nv, bound, width) for r in range(need + 1)}
    pair = partial(_q_pair, factors=factors, bound=bound)
    mul = partial(_mul, bound=bound)

    @cache
    def sub(s):
        return pf(s, pair, mul, sub) if s else {0: {0: 1}}

    return _unpack(sub(seq), nv, width)


def x_vars(weight: int) -> int:
    """The least m >= 1 such that no strict partition of weight at most
    weight has more than m parts. Raises ValueError unless weight is an
    int >= 0."""
    check_range(weight, "the weight")
    # the longest strict partition of d is 1 + 2 + ... + l, l(l+1)/2 <= d
    return max((isqrt(8 * weight + 1) - 1) // 2, 1)


def evaluate(e: dict, k: int, m: int) -> dict:
    """Evaluate a monomial-basis element or a mixed (mu, nu) element.

    Variables are x_1..x_m then y_1..y_k; exponent tuples have length
    m + k. A monomial key (a, b, ...) is t_a t_b ... with the theta
    polynomials of one series pass. A mixed key (mu, nu) is Q_mu in the
    x variables, theta(mu, 0) over the q_r, times the Schur class
    s_{nu'} in the y variables, the dual Jacobi-Trudi determinant
    det(e_{nu_i + j - i}); the q and e series are built once per call.
    The series, the field width and every truncation stop at the
    element's weight. By Macdonald III.8 the evaluation is injective on
    elements of weight at most d once m >= x_vars(d); with fewer x
    variables the Q-function of a longest strict partition of d is 0.
    Raises ValueError unless k and m are ints >= 0.
    """
    check_k(k)
    check_range(m, "m")
    if not e:
        return {}
    some = next(iter(e))
    mixed = bool(some) and isinstance(some[0], tuple)
    weights = ([sum(mu) + sum(nu) for mu, nu in e] if mixed
               else [sum(key) for key in e])
    top = max(weights, default=0)
    width = _width(top)
    # no part of a monomial exceeds top, so the series can stop there
    if mixed:
        acc: dict = {}
        qcache: dict = {}
        factors = dict(enumerate(_series(range(m), (), top, width)))
        es = _series((), range(m, m + k), top, width)
        for (mu, nu), c in e.items():
            qp = qcache.get(mu)
            if qp is None:
                # theta through the module globals: a patched one is used
                qp = qcache[mu] = _monomial_sum(theta(mu, 0), factors, top)
            _mul(acc, qp, _det(jacobi_trudi(es, nu, ()), top), c, top)
    else:
        ths = _series(range(m), range(m, m + k), top, width)
        acc = _monomial_sum(e, dict(enumerate(ths)), top)
    return _unpack(acc, m + k, width)
