"""Seeded inputs for the benchmark workloads, built without the package.

Everything here is standard library only: the classes of a rectangle,
the pair order of the product tables and the command session of the
one-shot workload are enumerated from their definitions, so the program
under test only ever receives the generated inputs.
"""

import itertools
import random
from math import comb

WORKLOADS = ("verify", "table-C", "table-B", "oneshot")

# Fixed inputs of each workload.  The seed changes the order of the
# products and the draw of the session; it never changes these.
TABLE_K, TABLE_N = 1, 6
TABLE_TOP = 25              # weight of the point class at (k, n) = (1, 6)
ROUTE_SAMPLE = 40           # products re-derived through the theta route
ROUTE_MAX_WEIGHT = 8        # the theta route blows up above this
# SHA-256 of the sorted product tables, recorded from the package as it
# was when the benchmark was written; the seed only reorders the work.
TABLE_DIGESTS = {
    "C": "d045edc044c5fe850789669cacce6cdfe49f72cbd9688df6ed8f21d84fa7979d",
    "B": "d374c773404d0d4e864e0b5a9f54e99c8ab17233b7bf984eacfe92537c58957b",
}
VERIFY_ARGV = ["verify", "--suite", "all", "--format", "json"]
VERIFY_SUITES = 14

# One-shot session: commands per kind, drawn one per stratum of a fixed
# pool sorted by size, with caps that keep each command near 0.1 s or
# below on a 2-core x86 sandbox (Python 3.11).
SESSION_PER_KIND = 300
SESSION_CAPS = {
    "giambelli": "type B/C, k <= 2, n <= 5, every class of the rectangle",
    "pieri": "type B/C, k <= 2, n <= 6, 1 <= p <= n + k",
    "product": "type B/C, k <= 2, n <= 5, any two classes",
    "theta": "k <= 3, |lambda| <= 8",
    "skews": "k <= 2, l(lambda) <= 5, |lambda| <= 9, mu inside lambda",
    "wlambda": "k <= 3, |lambda| <= 12, n omitted or 0..2 above the least",
    "stanley": "signed permutations of 3 or 4 letters, length <= 9",
    "ktableaux": "as stanley, with no --shape or a strict one of size l(w)",
    "bh": "k <= 3, |lambda| <= 7",
    "forest": "--stats, k <= 2, |lambda| <= 5, 1 <= p <= 4",
    "count-bases": "d <= 18, k <= 4",
}


def describe():
    """The fixed inputs of every workload, for the baseline record."""
    table = {"k": TABLE_K, "n": TABLE_N, "classes": len(rect_classes(
        TABLE_K, TABLE_N)), "products": len(table_pairs(0)),
        "call": "cohomology.multiply({lam: 1}, {mu: 1}, k, n, family)",
        "order": "every unordered pair, shuffled by the seed",
        "checks": "SHA-256 of the sorted table, point-class duality at "
                  "weight %d, %d seeded products of weight <= %d against "
                  "theta_route_product" % (TABLE_TOP, ROUTE_SAMPLE,
                                           ROUTE_MAX_WEIGHT)}
    return {
        "verify": {"argv": VERIFY_ARGV, "suites": VERIFY_SUITES,
                   "seed": "recorded, otherwise unused"},
        "table-C": dict(table, family="C", space="IG(n-k, 2n)"),
        "table-B": dict(table, family="B", space="OG(n-k, 2n+1)"),
        "oneshot": {"per_kind": SESSION_PER_KIND, "caps": SESSION_CAPS,
                    "commands": len(session(0)),
                    "checks": "exit 0 and JSON output for every command; "
                              "products of weight <= %d against "
                              "theta_route_product" % ROUTE_MAX_WEIGHT},
    }


def k_strict(k, max_part, max_len, max_weight=None):
    """k-strict partitions with bounded parts, length and weight."""
    out = []

    def rec(acc, weight):
        out.append(tuple(acc))
        if len(acc) == max_len:
            return
        top = acc[-1] if acc else max_part
        for v in range(top, 0, -1):
            if v > k and acc and acc[-1] == v:
                continue
            if max_weight is not None and weight + v > max_weight:
                continue
            rec(acc + [v], weight + v)

    rec([], 0)
    return out


def rect_classes(k, n):
    """Classes of the (n-k) x (n+k) rectangle: by weight, then lex-descending.

    The order fixes which factor of each table pair is expanded, so it
    must not depend on the seed.
    """
    classes = k_strict(k, n + k, n - k)
    if len(classes) != 2 ** (n - k) * comb(n, k):
        raise RuntimeError("basis count differs from 2^(n-k) C(n,k)")
    return sorted(classes, key=lambda lam: (sum(lam), [-x for x in lam]))


def table_pairs(seed):
    """Every unordered pair of classes, in an order the seed shuffles."""
    classes = rect_classes(TABLE_K, TABLE_N)
    pairs = [(a, b) for i, a in enumerate(classes) for b in classes[i:]]
    random.Random(seed).shuffle(pairs)
    return pairs


def route_sample(seed):
    """A seeded sample of table pairs light enough for the theta route."""
    light = [(a, b) for a, b in table_pairs(0)
             if sum(a) + sum(b) <= ROUTE_MAX_WEIGHT]
    light.sort()
    return random.Random(seed).sample(light, ROUTE_SAMPLE)


def literal(seq):
    return ",".join(str(x) for x in seq) or "0"


def contained(mu, lam):
    return len(mu) <= len(lam) and all(m <= l for m, l in zip(mu, lam))


def signed_perms(sizes, max_length):
    out = []
    for n in sizes:
        for perm in itertools.permutations(range(1, n + 1)):
            for signs in itertools.product((1, -1), repeat=n):
                w = tuple(a * s for a, s in zip(perm, signs))
                if perm_length(w) <= max_length:
                    out.append(w)
    return out


def perm_length(w):
    inv = sum(1 for i in range(len(w)) for j in range(i + 1, len(w))
              if w[i] > w[j])
    return inv + sum(-a for a in w if a < 0)


def _pools():
    """Every admissible command of each kind, as (size, argv) pairs."""
    pools = {kind: [] for kind in SESSION_CAPS}
    for family in "BC":
        for k in range(3):
            for n in range(k + 1, 7):
                classes = k_strict(k, n + k, n - k)
                for lam in classes:
                    base = ["--type", family, "--n", str(n), "--k", str(k),
                            "--lambda", literal(lam)]
                    if n <= 5:
                        pools["giambelli"].append(
                            ((n, sum(lam)), ["giambelli"] + base))
                    for p in range(1, n + k + 1):
                        pools["pieri"].append(
                            ((n, sum(lam) + p), ["pieri"] + base
                             + ["--p", str(p)]))
                    if n <= 5:
                        for mu in classes:
                            pools["product"].append(
                                ((n, sum(lam) + sum(mu)), ["product"] + base
                                 + ["--mu", literal(mu)]))
    for k in range(4):
        for lam in k_strict(k, 8, 8, 8):
            pools["theta"].append(
                ((sum(lam), len(lam)),
                 ["theta", "--k", str(k), "--lambda", literal(lam)]))
        for lam in k_strict(k, 7, 7, 7):
            pools["bh"].append(
                ((sum(lam), len(lam)),
                 ["bh", "--k", str(k), "--lambda", literal(lam)]))
        for lam in k_strict(k, 12, 12, 12):
            least = max(len(lam) + k, (lam[0] - k) if lam else 0, 1)
            for n in (None, least, least + 1, least + 2):
                extra = [] if n is None else ["--n", str(n)]
                pools["wlambda"].append(
                    ((sum(lam), len(lam)),
                     ["wlambda", "--k", str(k), "--lambda", literal(lam)]
                     + extra))
    for k in range(3):
        shapes = k_strict(k, 9, 5, 9)
        for lam in shapes:
            for mu in shapes:
                if contained(mu, lam):
                    pools["skews"].append(
                        ((len(lam), sum(lam) - sum(mu)),
                         ["skews", "--k", str(k), "--lambda", literal(lam),
                          "--mu", literal(mu)]))
        for lam in k_strict(k, 5, 5, 5):
            for p in range(1, 5):
                pools["forest"].append(
                    ((sum(lam) + p, len(lam)),
                     ["forest", "--k", str(k), "--lambda", literal(lam),
                      "--p", str(p), "--stats"]))
    for w in signed_perms((3, 4), 9):
        arg = "--perm=" + literal(w)
        size = perm_length(w)
        pools["stanley"].append(((size,), ["stanley", arg]))
        pools["ktableaux"].append(((size, 0), ["ktableaux", arg]))
        for shape in k_strict(0, size, size, size):
            if sum(shape) == size:
                pools["ktableaux"].append(
                    ((size, 1), ["ktableaux", arg, "--shape",
                                 literal(shape)]))
    for d in range(19):
        for k in range(5):
            pools["count-bases"].append(
                ((d,), ["count-bases", "--d", str(d), "--k", str(k)]))
    return pools


def session(seed):
    """The one-shot session: up to SESSION_PER_KIND commands of each kind.

    Each pool is sorted by size and cut into equal strata, one command
    is drawn from each, and the whole session is shuffled; a pool with
    fewer commands than that is taken whole.  Stratifying keeps the mix
    of small and large commands the same on every seed, and no command
    repeats, so input sharing stays low.
    """
    rng = random.Random(seed)
    cmds = []
    for kind, pool in sorted(_pools().items()):
        pool.sort()
        count = min(SESSION_PER_KIND, len(pool))
        step = len(pool) / count
        for i in range(count):
            lo = int(i * step)
            hi = max(int((i + 1) * step), lo + 1)
            cmds.append(pool[rng.randrange(lo, hi)][1] + ["--format", "json"])
    rng.shuffle(cmds)
    return cmds
