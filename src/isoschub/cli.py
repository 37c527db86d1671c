"""Command line front end for the whole toolkit.

Each subcommand is one row of COMMANDS (help text, handler, arguments,
arguments left out of the JSON payload).  Once per process, the argparse
tree and a flag table for each subcommand are built from those rows.
main reads argv with the flag table when it is a subcommand followed
only by that subcommand's exact flags, each with a valid value; that
gives the same Namespace at a fraction of argparse's cost.  Any
other argv (an abbreviation, --help, a usage error) goes to argparse,
which accepts it or prints its own help or error.  main then calls the
handler and prints one payload either as readable text or as JSON
(--format json), so the two formats always carry the same content; the
JSON payload echoes the command and its arguments.  Exit codes: 0
success, 1 a verification suite found a failing case, 2 bad usage.
Each process starts from empty memo tables; nothing is read from or
written to disk.
"""

import argparse
import json
import sys
import time
from functools import cache
from math import comb

from . import theta, weyl
from .cohomology import (giambelli, multiply, pieri, stable_n,
                         theta_route_product, verify_presentation)
from .formal import combine, jacobi_trudi, scaled, sum_to_json
# in_rect is unused but stays bound: bench/tracing.TARGETS expects it here
from .partitions import (check_partition, check_range, count_bases, get,
                         in_rect, is_k_strict, k_strict_partitions,
                         rect_partitions, strip, subpartitions, weight)
from .polyeval import (e_list, evaluate, p_det, p_mul, q_basis_poly, q_list,
                       x_vars)
from .raising import c_set, expand, strict_pairs
from .substitution import build_forest, modified_forest, verify_claim1, \
    verify_claim2
from .theta import hat_theta, mixed_expand, skew_S, straighten, \
    to_hat_basis, to_theta_basis
from .weyl import bh_expand, grassmannian_element, ktableaux, length, \
    stanley_F


# ---------------------------------------------------------------- literals

def _checked(check, value, *what):
    # the library's own rule, its ValueError shown as argparse's usage error
    try:
        check(value, *what)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def parse_partition(text: str) -> tuple:
    text = text.strip()
    if text in ("", "-", "0"):
        return ()
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "partition literal must look like 3,2,1") from None
    return strip(_checked(check_partition, parts))


def nonnegative(text: str) -> int:
    # a named function: argparse names it for a value int() rejects
    return _checked(check_range, int(text), "the value")


def parse_perm(text: str) -> tuple:
    try:
        w = tuple(int(tok) for tok in text.strip().split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "signed permutation literal must look like 4,-2,-1,3") from None
    return _checked(weyl.check_window, w)


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
# A handler returns (exit code, its own payload entries, text lines); main
# adds the command name and the echoed arguments to the payload.

def _one_sum(res):
    return 0, {"terms": sum_to_json(res)}, term_lines(res)


def _cmd_giambelli(args):
    lam = args.lam
    terms = giambelli(lam, args.k, args.n, args.family)
    lines = ["special class expansion of %s (family %s, n=%d, k=%d):"
             % (_key_text(lam), args.family, args.n, args.k)]
    lines += term_lines(terms)
    lines.append("reduces to:")
    lines += term_lines({lam: 1})
    return 0, {"terms": sum_to_json(terms),
               "reduces_to": sum_to_json({lam: 1})}, lines


def _cmd_wlambda(args):
    w = grassmannian_element(args.lam, args.k, args.n)
    return 0, {"window": list(w), "length": length(w)}, [
        ",".join(str(x) for x in w) or "-", "length %d" % length(w)]


def _cmd_ktableaux(args):
    tabs = ktableaux(args.perm, args.shape)
    payload = {"count": len(tabs),
               "tableaux": [[list(row) for row in t] for t in tabs]}
    lines = ["count %d" % len(tabs)]
    lines += [";".join(",".join(str(x) for x in row) for row in t)
              for t in tabs]
    return 0, payload, lines


def _cmd_forest(args):
    res = build_forest(args.lam, args.p, args.k, modified=args.modified,
                       keep_nodes=args.stats or args.dump_json)
    prod = verify_claim1(res)
    sizes = {key: len(res[key]) for key in ("roots", "psi0", "psi1")}
    payload = dict(sizes, product=sum_to_json(prod))
    lines = ["%s %d" % size for size in sizes.items()] + ["product:"]
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
    return 0, {"strict": a, "odd": b, "equal": a == b}, [
        "strict %d" % a, "odd %d" % b]


# ---------------------------------------------------------------- suites
# A suite takes --max-weight and returns None when it holds, or one line
# naming the failing case; _cmd_verify fails a suite that raises, too.

def _example(what, call, want):
    # a worked example of the paper: one call against its printed value.
    # call is a lambda, so the library function is looked up at call time
    def suite(mw):
        got = call()
        return None if got == want else "%s = %r" % (what, got)
    return suite


def _spaces(nmax):
    # the (family, k, n) of every space with k <= 2 and n <= nmax
    return [(family, k, n) for family in ("C", "B") for k in range(3)
            for n in range(max(k, 1), nmax + 1)]


def _suite_giambelli_sweep(mw):
    try:
        for family, k, n in _spaces(min(6, max(2, mw))):
            for lam in rect_partitions(k, n):
                giambelli(lam, k, n, family)
    except RuntimeError as exc:
        return str(exc)
    return None


def _leaves(forest):
    return set(forest["psi0"]), len(forest["psi1"])


def _suite_claims(mw):
    for k in range(3):
        for d in range(1, min(6, mw) + 1):
            for lam in k_strict_partitions(d, k):
                for p in range(1, 5):
                    try:
                        forest = build_forest(lam, p, k)
                        verify_claim1(forest)
                        verify_claim2(forest)
                    except RuntimeError as exc:
                        return "lam=%r p=%d k=%d: %s" % (lam, p, k, exc)
    return None


def _suite_theta_hat(mw):
    # hat_theta straightens det(t_{1+j-i}) in the theta ring; the other
    # leg takes the same determinant over polynomials in m + k variables,
    # where no straightening happens
    for k in (1, 2, 3):
        for r in range(1, 5):
            m = x_vars(r)
            ths = [evaluate({(d,): 1}, k, m) for d in range(r + 1)]
            mat = jacobi_trudi(ths, (1,) * r, ())
            if evaluate(hat_theta(r, k), k, m) != p_det(mat, m + k, r):
                return "r=%d k=%d" % (r, k)
    return None


def _duality_fault(k, n, family):
    # 2^(n-k) C(n,k) classes, a count free of Giambelli and Pieri; then at
    # top degree the pairing of multiply is a permutation matrix of 1s
    classes = rect_partitions(k, n)
    if len(classes) != 2 ** (n - k) * comb(n, k):
        return "%d classes, not 2^(n-k) C(n,k)" % len(classes)
    point = max(classes, key=weight)
    top = weight(point)
    partner = {}
    for lam in classes:
        for mu in classes:
            if weight(lam) + weight(mu) != top:
                continue
            got = multiply({lam: 1}, {mu: 1}, k, n, family)
            # a second partner of lam is as wrong as any other product
            if got == {point: 1} and lam not in partner:
                partner[lam] = mu
            elif got:
                return "%r*%r = %r" % (lam, mu, got)
    unpaired = set(classes) - set(partner) | set(classes) - set(
        partner.values())
    if unpaired:
        return "classes without a dual partner: %r" % (sorted(unpaired),)
    return None


def _suite_routes(mw):
    for family, k, n in _spaces(5):
        fault = _duality_fault(k, n, family)
        if fault:
            return "duality family %s k=%d n=%d: %s" % (family, k, n, fault)
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
                                return "family %s k=%d %r*%r" % (
                                    family, k, lam, mu)
    return None


def _suite_count_bases(mw):
    for k in range(5):
        for d in range(21):
            a, b = count_bases(d, k)
            if a != b:
                return "d=%d k=%d: %d vs %d" % (d, k, a, b)
    return None


def _suite_stanley_corollary(mw):
    for k in range(3):
        for d in range(1, min(8, mw + 2) + 1):
            for lam in k_strict_partitions(d, k):
                w = grassmannian_element(lam, k)
                top = stanley_F(w)
                mixed = {mu: c for (mu, nu), c in mixed_expand(lam, k).items()
                         if nu == ()}
                if top != mixed:
                    return "lam=%r k=%d: F=%r mixed=%r" % (lam, k, top, mixed)
                direct: dict = {}
                for key, c in expand(strict_pairs(c_set(lam, k)), lam).items():
                    combine(direct, straighten(key, 0), c)
                if to_theta_basis(direct, 0) != top:
                    return "lam=%r k=%d: straightening leg" % (lam, k)
    return None


def _closed_form_holds(lam, k, large):
    # the mixed expansion of theta(lam, k) against a sum over subshapes mu
    # of an x-part times an e-determinant in the y variables. Small parts,
    # no pair of parts above the threshold: det(q_{mu_i + j - i}) times
    # s_{lam'/mu'} = det(e_{lam_i - mu_j + j - i}) over every mu. Large
    # parts, every pair above it: Q_mu times det(e_{lam_i - mu_j}) over the
    # strict mu with at most one row fewer, the Jacobi-Trudi matrix of the
    # rows lam_i + i over the columns mu_j + j
    lam = strip(lam)
    bound = weight(lam)
    m = x_vars(bound)
    nv = m + k
    ell = len(lam)
    qs = q_list(m, nv, bound)
    es = e_list(m, nv, nv, get(lam, 1) + ell)
    rhs: dict = {}
    for mu in subpartitions(lam):
        if not large:
            rows, cols = lam, mu
        elif is_k_strict(mu, 0) and len(mu) >= ell - 1:
            rows = [x + i for i, x in enumerate(lam)]
            cols = [get(mu, j + 1) + j for j in range(ell)]
        else:
            continue
        epart = p_det(jacobi_trudi(es, rows, cols), nv, bound)
        if epart:
            xpart = (q_basis_poly(mu, qs, nv, bound) if large
                     else p_det(jacobi_trudi(qs, mu, ()), nv, bound))
            combine(rhs, p_mul(xpart, epart, bound))
    return evaluate(mixed_expand(lam, k), k, m) == rhs


_THCOR_A_POOL = [((1, 1), 1), ((2, 1), 1), ((1, 1, 1), 1), ((2, 1, 1), 1),
                 ((2, 1, 1, 1), 1), ((2, 2, 1), 2), ((3, 2, 1), 2),
                 ((3, 2, 2), 2), ((2, 2, 2, 1), 2), ((2, 2, 1, 1), 2)]
_THCOR_B_POOL = [((1,), 0), ((2, 1), 0), ((3, 1), 0), ((3, 2), 0),
                 ((3, 2, 1), 0), ((4, 2, 1), 0), ((3, 1), 1), ((4, 2), 1),
                 ((3, 2), 1), ((4, 3), 2)]


def _suite_thcor(mw):
    for regime, pool in (("small", _THCOR_A_POOL), ("large", _THCOR_B_POOL)):
        for lam, k in pool:
            if not _closed_form_holds(lam, k, regime == "large"):
                return "%s-parts regime lam=%r k=%d" % (regime, lam, k)
    return None


def _suite_presentation(mw):
    for family, k, n in _spaces(6):
        for r in range(k + 1, n + k + 1):
            if not verify_presentation(k, n, r, family):
                return "family %s k=%d n=%d r=%d" % (family, k, n, r)
    return None


_BH_EXAMPLE = {((4, 2), ()): 1, ((3, 2, 1), ()): 1, ((4, 1), (1,)): 1,
               ((3, 2), (1,)): 2, ((3, 1), (1, 1)): 2, ((2, 1), (1, 1, 1)): 1}
_FZ = frozenset

SUITES = [
    ("intro-giambelli", _example(
        "giambelli((3,2,1),1,5,C)", lambda: giambelli((3, 2, 1), 1, 5, "C"),
        {(3, 2, 1): 1, (3, 3): -1, (4, 1, 1): -2, (4, 2): 1, (5, 1): 2})),
    ("pieri-example", _example(
        "pieri((2,1,1),1,k=1,n=7,B)", lambda: pieri((2, 1, 1), 1, 1, 7, "B"),
        {(2, 1, 1, 1): 1, (3, 1, 1): 2, (5,): 1})),
    ("giambelli-sweep", _suite_giambelli_sweep),
    ("forest-example", _example(
        "(psi0, size of psi1) of build_forest((2,1,1),1,1)",
        lambda: _leaves(build_forest((2, 1, 1), 1, 1)),
        ({(_FZ({(1, 1)}), (2, 1, 1, 1), _FZ(), 0),
          (_FZ({(1, 1), (1, 2)}), (3, 1, 1, 0), _FZ({(1, 2)}), 0),
          (_FZ({(1, 1), (1, 2)}), (3, 1, 1, 0), _FZ(), 0),
          (_FZ({(1, 1), (1, 2), (1, 3)}), (5, 0, 0, 0),
           _FZ({(1, 2), (1, 3)}), 0)}, 3))),
    ("claims", _suite_claims),
    ("modified-remark", _example(
        "modified_forest((4,3,1,1),6,1)",
        lambda: modified_forest((4, 3, 1, 1), 6, 1), (1119, 543))),
    ("theta-identity", _example(
        "3*theta((3,1)) in the hat basis",
        lambda: to_hat_basis(scaled(theta.theta((3, 1), 1), 3), 1),
        {(4,): 2, (3, 1): -5, (2, 1, 1): 4, (1, 1, 1, 1): -1})),
    ("theta-hat", _suite_theta_hat),
    ("bh-example", _example(
        "(bh_expand, mixed_expand) of (3,2,1) at k=1",
        lambda: (bh_expand((3, 2, 1), 1), mixed_expand((3, 2, 1), 1)),
        (_BH_EXAMPLE, _BH_EXAMPLE))),
    ("routes", _suite_routes),
    ("count-bases", _suite_count_bases),
    ("stanley-corollary", _suite_stanley_corollary),
    ("thcor", _suite_thcor),
    ("presentation", _suite_presentation),
]


def _raised_in(exc) -> str:
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    frame = tb.tb_frame
    return "%s.%s" % (frame.f_globals.get("__name__", "?"),
                      frame.f_code.co_name)


def _cmd_verify(args):
    if args.max_weight < 1:
        raise ValueError("--max-weight must be at least 1")
    rows = []
    lines = []
    for name, fn in SUITES:
        if args.suite not in ("all", name):
            continue
        t0 = time.monotonic()
        try:
            detail = fn(args.max_weight)
        except Exception as exc:
            # a crash fails this suite only; the others still run
            detail = "%s in %s: %s" % (type(exc).__name__, _raised_in(exc),
                                       exc)
        dt = time.monotonic() - t0
        ok = detail is None
        rows.append({"name": name, "ok": ok, "seconds": round(dt, 3),
                     "detail": detail or ""})
        mark = "pass" if ok else "FAIL " + detail
        lines.append("suite %-18s %s (%.1fs)" % (name, mark, dt))
    failed = not all(row["ok"] for row in rows)
    return (1 if failed else 0), {"suites": rows, "ok": not failed}, lines


# ---------------------------------------------------------------- wiring
# One row per subcommand: help text, handler, arguments in --help order
# (each gets --format after them) and the arguments the JSON payload does
# not echo; an argument left at None is not echoed either.  Handlers that
# call the library are lambdas, so each call looks the function up by name.

_TYPE = ("--type", {"dest": "family", "choices": ("B", "C"), "default": "C"})
_N = ("--n", {"type": int, "required": True})
_K = ("--k", {"type": nonnegative, "required": True})
_LAM = ("--lambda", {"dest": "lam", "type": parse_partition, "required": True})
_MU = ("--mu", {"type": parse_partition, "required": True})
_P = ("--p", {"type": int, "required": True})
_PERM = ("--perm", {"type": parse_perm, "required": True})
_SWITCH = {"action": "store_true"}
_FORMAT = ("--format", {"choices": ("text", "json"), "default": "text"})

COMMANDS = {
    "giambelli": ("special class expansion of a basis element plus its "
                  "reduction", _cmd_giambelli, (_TYPE, _N, _K, _LAM), ()),
    "pieri": ("product with a special class",
              lambda a: _one_sum(pieri(a.lam, a.p, a.k, a.n, a.family)),
              (_TYPE, _N, _K, _LAM, _P), ()),
    "product": ("product of two basis elements",
                lambda a: _one_sum(multiply({a.lam: 1}, {a.mu: 1}, a.k, a.n,
                                            a.family)),
                (_TYPE, _N, _K, _LAM, _MU), ()),
    "theta": ("monomial expansion of a theta class",
              lambda a: _one_sum(theta.theta(a.lam, a.k)), (_K, _LAM), ()),
    "skews": ("skew determinant in the k-strict basis",
              lambda a: _one_sum(skew_S(a.lam, a.mu, a.k)),
              (_K, _LAM, ("--mu", {"type": parse_partition, "default": ()})),
              ()),
    "wlambda": ("signed permutation attached to a k-strict partition",
                _cmd_wlambda,
                (_K, ("--n", {"type": int, "default": None}), _LAM), ("n",)),
    "stanley": ("shape generating function of a signed permutation",
                lambda a: _one_sum(stanley_F(a.perm)), (_PERM,), ()),
    "ktableaux": ("standard decompositions of the reduced words of a signed "
                  "permutation", _cmd_ktableaux,
                  (_PERM, ("--shape", {"type": parse_partition,
                                       "default": None})), ()),
    "bh": ("two-variable expansion of a basis element",
           lambda a: _one_sum(bh_expand(a.lam, a.k)), (_K, _LAM), ()),
    "forest": ("substitution forest for a one-row product", _cmd_forest,
               (_K, _LAM, _P, ("--modified", _SWITCH), ("--stats", _SWITCH),
                ("--dump-json", _SWITCH)), ("stats", "dump_json")),
    "verify": ("run the verification suites", _cmd_verify,
               (("--suite", {"default": "all"}),  # choices: the suite names
                ("--max-weight", {"type": int, "default": 6})), ("suite",)),
    "count-bases": ("count the two spanning families in one degree",
                    _cmd_count_bases,
                    (("--d", {"type": nonnegative, "required": True}), _K),
                    ()),
}


@cache
def _build_parser(suite_names):
    # the argparse tree and, read off the actions it made, each
    # subcommand's flag table: flag -> (dest, type or None for a switch,
    # choices), the defaults of every dest, and the required dests
    top = argparse.ArgumentParser(
        prog="isoschub",
        description="Schubert calculus on isotropic Grassmannians")
    sub = top.add_subparsers(dest="command", required=True)
    table = {}
    for name, (help_text, _, arguments, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        flags, defaults, required = {}, {}, set()
        for flag, spec in arguments + (_FORMAT,):
            if flag == "--suite":
                spec = dict(spec, choices=["all", *suite_names])
            action = p.add_argument(flag, **spec)
            convert = None if action.nargs == 0 else action.type or str
            flags[flag] = (action.dest, convert, action.choices)
            defaults[action.dest] = action.default
            if action.required:
                required.add(action.dest)
        table[name] = (flags, defaults, frozenset(required))
    return top, table


def _parser():
    # keyed by the suite names, which a caller may rebind through SUITES
    return _build_parser(tuple(name for name, _ in SUITES))[0]


def _read(argv, table):
    # the Namespace argparse would build, when argv is a subcommand and
    # then only its exact flags, as --flag value or --flag=value, each
    # value valid; otherwise None, and argparse reads argv itself
    if not argv or argv[0] not in table:
        return None
    flags, defaults, required = table[argv[0]]
    values = dict(defaults)
    seen = set()
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        row = flags.get(flag)
        if row is None:
            return None
        dest, convert, choices = row
        if convert is None:  # a switch takes no value
            if eq:
                return None
            value = True
        else:
            if not eq:
                # argparse reads a separate value that starts with "-"
                # as an option or a negative number; "-" alone is ()
                value = next(tokens, None)
                if value is None or value[:1] == "-" and value != "-":
                    return None
            try:
                value = convert(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
            if choices is not None and value not in choices:
                return None
        values[dest] = value
        seen.add(dest)
    if not required <= seen:
        return None
    return argparse.Namespace(command=argv[0], **values)


def _join_windows(argv):
    # argparse reads a separate value that starts "-<digit>", such as the
    # window -2,1, as an option, so it is joined to its flag: --perm=-2,1
    out = []
    for tok in argv:
        if out[-1:] == ["--perm"] and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = _join_windows(sys.argv[1:] if argv is None else argv)
    top, table = _build_parser(tuple(name for name, _ in SUITES))
    args = _read(argv, table)
    if args is None:
        args = top.parse_args(argv)
    _, handler, _, unechoed = COMMANDS[args.command]
    try:
        code, own, lines = handler(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.format == "json":
        payload = {key: value for key, value in vars(args).items()
                   if value is not None and key != "format"
                   and key not in unechoed}
        payload.update(own)
        print(json.dumps(payload, sort_keys=True))
    else:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
