"""Finitely supported linear combinations as plain dicts.

A formal sum maps hashable keys to nonzero scalars. Scalars are ints
where possible and fractions.Fraction when a denominator appears; every
helper below normalizes integral Fractions back to int and drops zeros,
so equality of dicts is equality of elements.

det and pf expand every determinant and Pfaffian of the package, over
any ring of such sums given one multiply-accumulate: mul(acc, x, y,
scale) adds scale * x * y into acc in place, dropping cancelled keys.
"""

from __future__ import annotations

from fractions import Fraction


def norm_scalar(c):
    # exact type test: isinstance against the numbers ABCs is far slower
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def add_into(acc: dict, key, c) -> None:
    """acc[key] += c, dropping the entry when it cancels."""
    v = acc.get(key, 0) + c
    if not v:
        acc.pop(key, None)
    elif type(v) is Fraction and v.denominator == 1:
        acc[key] = v.numerator
    else:
        acc[key] = v


def combine(acc: dict, other: dict, scale=1) -> dict:
    """acc += scale * other, in place; returns acc."""
    get = acc.get
    unit = scale == 1
    for key, c in other.items():
        v = get(key, 0) + (c if unit else scale * c)
        if not v:
            acc.pop(key, None)
        elif type(v) is Fraction and v.denominator == 1:
            acc[key] = v.numerator
        else:
            acc[key] = v
    return acc


def scaled(f: dict, scale) -> dict:
    if not scale:
        return {}
    return {key: norm_scalar(scale * c) for key, c in f.items()}


def det(mat: list, mul, one: dict) -> dict:
    """Determinant of the square matrix mat expanded along the rows, each
    minor (keyed by its set of columns) computed once. A falsy entry or
    minor is zero and prunes every term through it; mul(acc, entry,
    minor, sign) adds sign * entry * minor into acc, and one is 1."""
    n = len(mat)
    memo: dict = {}

    def minor(row, cols):
        if row == n:
            return one
        got = memo.get(cols)
        if got is not None:
            return got
        acc: dict = {}
        sign = 1
        for j in range(n):
            if cols >> j & 1:
                if mat[row][j]:
                    sub = minor(row + 1, cols & ~(1 << j))
                    if sub:
                        mul(acc, mat[row][j], sub, sign)
                sign = -sign
        memo[cols] = acc
        return acc

    return minor(0, (1 << n) - 1)


def pf(seq, pair, mul, sub) -> dict:
    """One first-row step of the Pfaffian of the skew matrix with entries
    pair(seq[i], seq[j]) above the diagonal, seq a nonempty tuple: the
    sum over j >= 1 of (-1)^(j-1) pair(seq[0], seq[j]) sub(seq without
    entries 0 and j), a falsy entry or sub-Pfaffian pruning its term.
    sub gives and memoizes the shorter Pfaffians, the empty one 1; mul
    is as in det."""
    acc: dict = {}
    a, rest = seq[0], seq[1:]
    sign = 1
    for j, b in enumerate(rest):
        entry = pair(a, b)
        if entry:
            minor = sub(rest[:j] + rest[j + 1:])
            if minor:
                mul(acc, entry, minor, sign)
        sign = -sign
    return acc


def jacobi_trudi(seq: list, lam, mu) -> list[list]:
    """The matrix (seq[lam_i - mu_j + j - i]) over the rows of lam, an
    index outside seq giving the zero entry {}."""
    n = len(lam)
    mu = tuple(mu) + (0,) * (n - len(mu))
    return [[seq[d] if 0 <= d < len(seq) else {}
             for d in (lam[i] - mu[j] + j - i for j in range(n))]
            for i in range(n)]


def _key_json(key):
    return [_key_json(x) if isinstance(x, tuple) else x for x in key]


def sum_to_json(f: dict) -> list[dict]:
    """Wire format: [{"key": [...], "num": str, "den": str}, ...] sorted by key.

    Tuples inside a key, such as the two halves of a (mu, nu) pair key,
    become nested lists.
    """
    rows = []
    for key in sorted(f):
        c = Fraction(f[key])
        rows.append({"key": _key_json(key), "num": str(c.numerator),
                     "den": str(c.denominator)})
    return rows


def _key_tuple(key):
    return tuple(_key_tuple(x) if isinstance(x, list) else x for x in key)


def sum_from_json(rows) -> dict:
    """Inverse of sum_to_json: nested lists in a key become tuples again.
    A row needs a list key and integer strings num, den != 0, or ValueError."""
    acc: dict = {}
    for row in rows:
        try:
            key, num, den = row["key"], row["num"], row["den"]
            if type(key) is not list or {type(num), type(den)} != {str}:
                raise TypeError
            add_into(acc, _key_tuple(key), Fraction(int(num), int(den)))
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            raise ValueError("malformed formal sum row: %r" % (row,)) from None
    return acc
