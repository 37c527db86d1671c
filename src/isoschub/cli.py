"""Command line front end for the whole toolkit.

Every subcommand assembles one payload dictionary and prints it either
as readable text or as JSON (--format json), so the two formats always
carry the same content.  Exit codes: 0 success, 1 a verification suite
found a failing case, 2 bad usage.  Each run starts from empty memo
tables; nothing is read from or written to disk.
"""

import argparse
import json
import sys
import time

from . import theta, weyl
from .cohomology import (giambelli, multiply, pieri, stable_n,
                         theta_route_product, verify_presentation)
from .formal import combine, scaled, sum_to_json
# in_rect is unused but stays bound: bench/tracing.TARGETS expects it here
from .partitions import (count_bases, get, in_rect, is_k_strict,
                         k_strict_partitions, rect_partitions, strip,
                         subpartitions, weight)
from .polyeval import (e_list, evaluate, p_det, p_mul, q_basis_poly,
                       q_det_poly, q_list, schur_conj_poly, theta_polys)
from .raising import c_set, expand, strict_pairs
from .substitution import build_forest, modified_forest, verify_claim1, \
    verify_claim2
from .theta import hat_theta, mixed_expand, skew_S, straighten, \
    to_hat_basis, to_theta_basis
from .weyl import bh_expand, grassmannian_element, ktableaux, length, \
    stanley_F


# ---------------------------------------------------------------- literals

def parse_partition(text: str) -> tuple:
    text = text.strip()
    if text in ("", "-", "0"):
        return ()
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "partition literal must look like 3,2,1") from None
    if any(x < 0 for x in parts) or any(
            parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise argparse.ArgumentTypeError(
            "parts must be nonnegative and weakly decreasing: %s" % text)
    return strip(parts)


def nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative, got %d" % value)
    return value


def parse_perm(text: str) -> tuple:
    try:
        w = tuple(int(tok) for tok in text.strip().split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "signed permutation literal must look like 4,-2,-1,3") from None
    try:
        weyl.check_window(w)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return w


# ---------------------------------------------------------------- rendering

def _key_text(key) -> str:
    if key and isinstance(key[0], tuple):
        return " | ".join(_key_text(part) for part in key)
    return ",".join(str(x) for x in key) if key else "-"


def term_lines(f: dict) -> list:
    if not f:
        return ["0"]
    return ["%s -> %s" % (_key_text(key), f[key]) for key in sorted(f)]


# ---------------------------------------------------------------- commands

def _cmd_giambelli(args):
    lam, k, n = args.lam, args.k, args.n
    terms = giambelli(lam, k, n, args.type)
    payload = {"command": "giambelli", "family": args.type, "n": n, "k": k,
               "lam": list(lam), "terms": sum_to_json(terms),
               "reduces_to": sum_to_json({lam: 1})}
    lines = ["special class expansion of %s (family %s, n=%d, k=%d):"
             % (_key_text(lam), args.type, n, k)]
    lines += term_lines(terms)
    lines.append("reduces to:")
    lines += term_lines({lam: 1})
    return 0, payload, lines


def _cmd_pieri(args):
    lam, k, n, p = args.lam, args.k, args.n, args.p
    res = pieri(lam, p, k, n, args.type)
    payload = {"command": "pieri", "family": args.type, "n": n, "k": k,
               "lam": list(lam), "p": p, "terms": sum_to_json(res)}
    return 0, payload, term_lines(res)


def _cmd_product(args):
    lam, mu, k, n = args.lam, args.mu, args.k, args.n
    res = multiply({lam: 1}, {mu: 1}, k, n, args.type)
    payload = {"command": "product", "family": args.type, "n": n, "k": k,
               "lam": list(lam), "mu": list(mu), "terms": sum_to_json(res)}
    return 0, payload, term_lines(res)


def _cmd_theta(args):
    lam, k = args.lam, args.k
    res = theta.theta(lam, k)
    payload = {"command": "theta", "k": k, "lam": list(lam),
               "terms": sum_to_json(res)}
    return 0, payload, term_lines(res)


def _cmd_skews(args):
    lam, mu, k = args.lam, args.mu, args.k
    res = skew_S(lam, mu, k)
    payload = {"command": "skews", "k": k, "lam": list(lam), "mu": list(mu),
               "terms": sum_to_json(res)}
    return 0, payload, term_lines(res)


def _cmd_wlambda(args):
    lam, k, n = args.lam, args.k, args.n
    w = grassmannian_element(lam, k, n)
    payload = {"command": "wlambda", "k": k, "lam": list(lam),
               "window": list(w), "length": length(w)}
    return 0, payload, [",".join(str(x) for x in w) or "-",
                        "length %d" % length(w)]


def _cmd_stanley(args):
    res = stanley_F(args.perm)
    payload = {"command": "stanley", "perm": list(args.perm),
               "terms": sum_to_json(res)}
    return 0, payload, term_lines(res)


def _cmd_ktableaux(args):
    tabs = ktableaux(args.perm, args.shape)
    payload = {"command": "ktableaux", "perm": list(args.perm),
               "count": len(tabs),
               "tableaux": [[list(row) for row in t] for t in tabs]}
    if args.shape is not None:
        payload["shape"] = list(args.shape)
    lines = ["count %d" % len(tabs)]
    lines += [";".join(",".join(str(x) for x in row) for row in t)
              for t in tabs]
    return 0, payload, lines


def _cmd_bh(args):
    lam, k = args.lam, args.k
    res = bh_expand(lam, k)
    payload = {"command": "bh", "k": k, "lam": list(lam),
               "terms": sum_to_json(res)}
    return 0, payload, term_lines(res)


def _cmd_forest(args):
    lam, p, k = args.lam, args.p, args.k
    res = build_forest(lam, p, k, modified=args.modified,
                       keep_nodes=args.stats or args.dump_json)
    prod = verify_claim1(lam, p, k, modified=args.modified)
    payload = {"command": "forest", "k": k, "lam": list(lam), "p": p,
               "modified": args.modified, "roots": len(res["roots"]),
               "psi0": len(res["psi0"]), "psi1": len(res["psi1"]),
               "product": sum_to_json(prod)}
    lines = ["roots %d" % len(res["roots"]), "psi0 %d" % len(res["psi0"]),
             "psi1 %d" % len(res["psi1"]), "product:"]
    lines += term_lines(prod)
    if args.stats:
        rules: dict = {}
        for psi, label, children in res["nodes"]:
            rules[label] = rules.get(label, 0) + 1
        payload["nodes"] = len(res["nodes"])
        payload["rules"] = rules
        lines.append("nodes %d" % len(res["nodes"]))
        lines += ["rule %s %d" % (lab, rules[lab]) for lab in sorted(rules)]
    if args.dump_json:
        dump = [{"D": sorted(map(list, psi[0])), "mu": list(psi[1]),
                 "S": sorted(map(list, psi[2])), "h": psi[3], "rule": label}
                for psi, label, children in res["nodes"]]
        payload["node_dump"] = dump
        return 0, payload, [json.dumps(dump, sort_keys=True)]
    return 0, payload, lines


def _cmd_count_bases(args):
    a, b = count_bases(args.d, args.k)
    payload = {"command": "count-bases", "d": args.d, "k": args.k,
               "strict": a, "odd": b, "equal": a == b}
    return 0, payload, ["strict %d" % a, "odd %d" % b]


# ---------------------------------------------------------------- suites

def _suite_intro_giambelli(mw):
    want = {(3, 2, 1): 1, (3, 3): -1, (4, 1, 1): -2, (4, 2): 1, (5, 1): 2}
    try:
        got = giambelli((3, 2, 1), 1, 5, "C")
    except RuntimeError as exc:
        return False, str(exc)
    if got != want:
        return False, "expansion of (3,2,1) at k=1 came out %r" % (got,)
    return True, ""


def _suite_pieri_example(mw):
    want = {(2, 1, 1, 1): 1, (3, 1, 1): 2, (5,): 1}
    got = pieri((2, 1, 1), 1, 1, 7, "B")
    if got != want:
        return False, "pieri((2,1,1),1,k=1,n=7,B) = %r" % (got,)
    return True, ""


def _suite_giambelli_sweep(mw):
    nmax = min(6, max(2, mw))
    for family in ("C", "B"):
        for k in range(3):
            for n in range(max(k, 1), nmax + 1):
                for lam in rect_partitions(k, n):
                    try:
                        giambelli(lam, k, n, family)
                    except RuntimeError as exc:
                        return False, str(exc)
    return True, ""


def _suite_forest_example(mw):
    fz = frozenset
    res = build_forest((2, 1, 1), 1, 1)
    want0 = {
        (fz({(1, 1)}), (2, 1, 1, 1), fz(), 0),
        (fz({(1, 1), (1, 2)}), (3, 1, 1, 0), fz({(1, 2)}), 0),
        (fz({(1, 1), (1, 2)}), (3, 1, 1, 0), fz(), 0),
        (fz({(1, 1), (1, 2), (1, 3)}), (5, 0, 0, 0), fz({(1, 2), (1, 3)}), 0),
    }
    if set(res["psi0"]) != want0:
        return False, "psi0 = %r" % (sorted(res["psi0"]),)
    if len(res["psi1"]) != 3:
        return False, "psi1 size = %d" % len(res["psi1"])
    return True, ""


def _suite_claims(mw):
    for k in range(3):
        for d in range(1, min(6, mw) + 1):
            for lam in k_strict_partitions(d, k):
                for p in range(1, 5):
                    try:
                        verify_claim1(lam, p, k)
                        verify_claim2(lam, p, k)
                    except RuntimeError as exc:
                        return False, "lam=%r p=%d k=%d: %s" % (lam, p, k, exc)
    return True, ""


def _suite_modified_remark(mw):
    got = modified_forest((4, 3, 1, 1), 6, 1)
    if got != (1119, 543):
        return False, "modified_forest((4,3,1,1),6,1) = %r" % (got,)
    return True, ""


def _suite_theta_identity(mw):
    got = to_hat_basis(scaled(theta.theta((3, 1), 1), 3), 1)
    want = {(4,): 2, (3, 1): -5, (2, 1, 1): 4, (1, 1, 1, 1): -1}
    if got != want:
        return False, "3*theta((3,1)) in the hat basis = %r" % (got,)
    return True, ""


def _suite_theta_hat(mw):
    # hat_theta straightens det(t_{1+j-i}) in the theta ring; the other
    # leg takes the same determinant over polynomials in r + k variables,
    # where no straightening happens
    for k in (1, 2, 3):
        for r in range(1, 5):
            nv = r + k
            ths = theta_polys(k, q_list(r, nv, r), e_list(r, nv, nv, r), r)
            mat = [[ths[1 + j - i] if j + 1 >= i else {} for j in range(r)]
                   for i in range(r)]
            if evaluate(hat_theta(r, k), k, r, r) != p_det(mat, nv, r):
                return False, "r=%d k=%d" % (r, k)
    return True, ""


def _suite_bh_example(mw):
    want = {((4, 2), ()): 1, ((3, 2, 1), ()): 1, ((4, 1), (1,)): 1,
            ((3, 2), (1,)): 2, ((3, 1), (1, 1)): 2, ((2, 1), (1, 1, 1)): 1}
    got = bh_expand((3, 2, 1), 1)
    if got != want:
        return False, "bh_expand((3,2,1),1) = %r" % (got,)
    if mixed_expand((3, 2, 1), 1) != want:
        return False, "mixed_expand((3,2,1),1) disagrees"
    if sum(got.values()) != 8:
        return False, "tableau count %d" % sum(got.values())
    return True, ""


def _suite_routes(mw):
    bound = min(10, mw + 4)
    for family in ("C", "B"):
        for k in range(3):
            for dtot in range(2, bound + 1):
                for da in range(1, dtot):
                    for lam in k_strict_partitions(da, k):
                        for mu in k_strict_partitions(dtot - da, k):
                            if mu < lam:
                                continue
                            n = stable_n(dtot, k)
                            r1 = multiply({lam: 1}, {mu: 1}, k, n, family)
                            r2 = theta_route_product({lam: 1}, {mu: 1}, k, n,
                                                     family)
                            if r1 != r2:
                                return False, "family %s k=%d %r*%r" % (
                                    family, k, lam, mu)
    return True, ""


def _suite_count_bases(mw):
    for k in range(5):
        for d in range(21):
            a, b = count_bases(d, k)
            if a != b:
                return False, "d=%d k=%d: %d vs %d" % (d, k, a, b)
    return True, ""


def _suite_stanley_corollary(mw):
    for k in range(3):
        for d in range(1, min(8, mw + 2) + 1):
            for lam in k_strict_partitions(d, k):
                w = grassmannian_element(lam, k)
                top = stanley_F(w)
                mixed = {mu: c for (mu, nu), c in mixed_expand(lam, k).items()
                         if nu == ()}
                if top != mixed:
                    return False, "lam=%r k=%d: F=%r mixed=%r" % (
                        lam, k, top, mixed)
                direct: dict = {}
                for key, c in expand(strict_pairs(c_set(lam, k)), lam).items():
                    combine(direct, straighten(key, 0), c)
                if to_theta_basis(direct, 0) != top:
                    return False, "lam=%r k=%d: straightening leg" % (lam, k)
    return True, ""


def _closed_form_a_holds(lam, k):
    # no pair of parts exceeds the threshold: compare against the
    # Jacobi-Trudi style sum over subshapes
    lam = strip(lam)
    bound = weight(lam)
    m = max(bound, 1)
    nv = m + k
    qs = q_list(m, nv, bound)
    rhs: dict = {}
    for mu in subpartitions(lam):
        sp = schur_conj_poly(lam, mu, m, m + k, nv, bound)
        if sp:
            combine(rhs, p_mul(q_det_poly(mu, qs, nv, bound), sp, bound))
    return evaluate(mixed_expand(lam, k), k, m, bound) == rhs


def _closed_form_b_holds(lam, k):
    # every pair of parts exceeds the threshold: strict subshapes with
    # at most one row fewer
    lam = strip(lam)
    bound = weight(lam)
    m = max(bound, 1)
    nv = m + k
    ell = len(lam)
    qs = q_list(m, nv, bound)
    top = lam[0] if lam else 1
    es = e_list(m, m + k, nv, top)
    rhs: dict = {}
    for mu in subpartitions(lam):
        if not is_k_strict(mu, 0) or len(mu) < ell - 1:
            continue
        mat = []
        for i in range(ell):
            row = []
            for j in range(ell):
                d = lam[i] - get(mu, j + 1)
                row.append(es[d] if 0 <= d <= top else {})
            mat.append(row)
        det = p_det(mat, nv, bound)
        if det:
            combine(rhs, p_mul(q_basis_poly(mu, qs, nv, bound), det, bound))
    return evaluate(mixed_expand(lam, k), k, m, bound) == rhs


_THCOR_A_POOL = [((1, 1), 1), ((2, 1), 1), ((1, 1, 1), 1), ((2, 1, 1), 1),
                 ((2, 1, 1, 1), 1), ((2, 2, 1), 2), ((3, 2, 1), 2),
                 ((3, 2, 2), 2), ((2, 2, 2, 1), 2), ((2, 2, 1, 1), 2)]
_THCOR_B_POOL = [((1,), 0), ((2, 1), 0), ((3, 1), 0), ((3, 2), 0),
                 ((3, 2, 1), 0), ((4, 2, 1), 0), ((3, 1), 1), ((4, 2), 1),
                 ((3, 2), 1), ((4, 3), 2)]


def _suite_thcor(mw):
    for lam, k in _THCOR_A_POOL:
        if not _closed_form_a_holds(lam, k):
            return False, "small-parts regime lam=%r k=%d" % (lam, k)
    for lam, k in _THCOR_B_POOL:
        if not _closed_form_b_holds(lam, k):
            return False, "large-parts regime lam=%r k=%d" % (lam, k)
    return True, ""


def _suite_presentation(mw):
    for family in ("C", "B"):
        for k in range(3):
            for n in range(max(k, 1), 7):
                for r in range(k + 1, n + k + 1):
                    if not verify_presentation(k, n, r, family):
                        return False, "family %s k=%d n=%d r=%d" % (
                            family, k, n, r)
    return True, ""


SUITES = [
    ("intro-giambelli", _suite_intro_giambelli),
    ("pieri-example", _suite_pieri_example),
    ("giambelli-sweep", _suite_giambelli_sweep),
    ("forest-example", _suite_forest_example),
    ("claims", _suite_claims),
    ("modified-remark", _suite_modified_remark),
    ("theta-identity", _suite_theta_identity),
    ("theta-hat", _suite_theta_hat),
    ("bh-example", _suite_bh_example),
    ("routes", _suite_routes),
    ("count-bases", _suite_count_bases),
    ("stanley-corollary", _suite_stanley_corollary),
    ("thcor", _suite_thcor),
    ("presentation", _suite_presentation),
]


def _cmd_verify(args):
    if args.max_weight < 1:
        raise ValueError("--max-weight must be at least 1")
    chosen = SUITES if args.suite == "all" else [
        s for s in SUITES if s[0] == args.suite]
    rows = []
    lines = []
    failed = False
    for name, fn in chosen:
        t0 = time.monotonic()
        ok, detail = fn(args.max_weight)
        dt = time.monotonic() - t0
        rows.append({"name": name, "ok": ok, "seconds": round(dt, 3),
                     "detail": detail})
        mark = "pass" if ok else "FAIL " + detail
        lines.append("suite %-18s %s (%.1fs)" % (name, mark, dt))
        failed = failed or not ok
    payload = {"command": "verify", "max_weight": args.max_weight,
               "suites": rows, "ok": not failed}
    return (1 if failed else 0), payload, lines


# ---------------------------------------------------------------- wiring

def _parser():
    top = argparse.ArgumentParser(
        prog="isoschub",
        description="Schubert calculus on isotropic Grassmannians")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("giambelli", help="special class expansion of a basis "
                       "element plus its reduction")
    p.add_argument("--type", choices=("B", "C"), default="C")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=nonnegative, required=True)
    p.add_argument("--lambda", dest="lam", type=parse_partition, required=True)
    common(p)
    p.set_defaults(fn=_cmd_giambelli)

    p = sub.add_parser("pieri", help="product with a special class")
    p.add_argument("--type", choices=("B", "C"), default="C")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=nonnegative, required=True)
    p.add_argument("--lambda", dest="lam", type=parse_partition, required=True)
    p.add_argument("--p", type=int, required=True)
    common(p)
    p.set_defaults(fn=_cmd_pieri)

    p = sub.add_parser("product", help="product of two basis elements")
    p.add_argument("--type", choices=("B", "C"), default="C")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=nonnegative, required=True)
    p.add_argument("--lambda", dest="lam", type=parse_partition, required=True)
    p.add_argument("--mu", type=parse_partition, required=True)
    common(p)
    p.set_defaults(fn=_cmd_product)

    p = sub.add_parser("theta", help="monomial expansion of a theta class")
    p.add_argument("--k", type=nonnegative, required=True)
    p.add_argument("--lambda", dest="lam", type=parse_partition, required=True)
    common(p)
    p.set_defaults(fn=_cmd_theta)

    p = sub.add_parser("skews", help="skew determinant in the k-strict basis")
    p.add_argument("--k", type=nonnegative, required=True)
    p.add_argument("--lambda", dest="lam", type=parse_partition, required=True)
    p.add_argument("--mu", type=parse_partition, default=())
    common(p)
    p.set_defaults(fn=_cmd_skews)

    p = sub.add_parser("wlambda", help="signed permutation attached to a "
                       "k-strict partition")
    p.add_argument("--k", type=nonnegative, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--lambda", dest="lam", type=parse_partition, required=True)
    common(p)
    p.set_defaults(fn=_cmd_wlambda)

    p = sub.add_parser("stanley", help="shape generating function of a "
                       "signed permutation")
    p.add_argument("--perm", type=parse_perm, required=True)
    common(p)
    p.set_defaults(fn=_cmd_stanley)

    p = sub.add_parser("ktableaux", help="standard decompositions of the "
                       "reduced words of a signed permutation")
    p.add_argument("--perm", type=parse_perm, required=True)
    p.add_argument("--shape", type=parse_partition, default=None)
    common(p)
    p.set_defaults(fn=_cmd_ktableaux)

    p = sub.add_parser("bh", help="two-variable expansion of a basis element")
    p.add_argument("--k", type=nonnegative, required=True)
    p.add_argument("--lambda", dest="lam", type=parse_partition, required=True)
    common(p)
    p.set_defaults(fn=_cmd_bh)

    p = sub.add_parser("forest", help="substitution forest for a one-row "
                       "product")
    p.add_argument("--k", type=nonnegative, required=True)
    p.add_argument("--lambda", dest="lam", type=parse_partition, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--modified", action="store_true")
    p.add_argument("--stats", action="store_true")
    p.add_argument("--dump-json", dest="dump_json", action="store_true")
    common(p)
    p.set_defaults(fn=_cmd_forest)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--suite", choices=["all"] + [name for name, _ in SUITES],
                   default="all")
    p.add_argument("--max-weight", dest="max_weight", type=int, default=6)
    common(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("count-bases", help="count the two spanning families "
                       "in one degree")
    p.add_argument("--d", type=nonnegative, required=True)
    p.add_argument("--k", type=nonnegative, required=True)
    common(p)
    p.set_defaults(fn=_cmd_count_bases)

    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, payload, lines = args.fn(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
