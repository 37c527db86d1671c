"""Finitely supported linear combinations as plain dicts.

A formal sum maps hashable keys to nonzero scalars. Scalars are ints
where possible and fractions.Fraction when a denominator appears; every
helper below normalizes integral Fractions back to int and drops zeros,
so equality of dicts is equality of elements.
"""

from __future__ import annotations

from fractions import Fraction


def norm_scalar(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def add_into(acc: dict, key, c) -> None:
    """acc[key] += c, dropping the entry when it cancels."""
    v = acc.get(key, 0) + c
    if v:
        acc[key] = norm_scalar(v)
    else:
        acc.pop(key, None)


def combine(acc: dict, other: dict, scale=1) -> dict:
    """acc += scale * other, in place; returns acc."""
    if scale:
        for key, c in other.items():
            add_into(acc, key, scale * c)
    return acc


def scaled(f: dict, scale) -> dict:
    if not scale:
        return {}
    return {key: norm_scalar(scale * c) for key, c in f.items()}


def is_zero(f: dict) -> bool:
    return not f


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


def sum_from_json(rows) -> dict:
    acc: dict = {}
    for row in rows:
        c = Fraction(int(row["num"]), int(row["den"]))
        add_into(acc, tuple(row["key"]), c)
    return acc
