"""One benchmark child: a fresh interpreter with cold memo tables.

    python3 bench/child.py --workload NAME --seed N --mode setup|run|trace
                           [--route-check] [--spans PATH]

The child imports the package from ``src`` under the current directory,
builds the CLI parser and generates its inputs; that moment is "ready".
``setup`` mode stops there.  ``run`` and ``trace`` modes then time the
workload, one operation after another, with the machine-speed sampler
of speed.py running, check the outputs, and print one JSON line with
the results.  ``trace`` mode wraps the package's layers first (see
tracing.py).  Checks that call the package again, such as the
theta-route comparison, run after the timed region and after the peak
RSS reading.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

import speed
import workloads as wl


def _digest(obj):
    text = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, -(-len(sorted_values) * q // 100) - 1)]


def _import_package():
    src = os.path.join(os.getcwd(), "src")
    from isoschub import cli, cohomology
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise ImportError("isoschub was not imported from %s" % src)
    return cli, cohomology


# ---------------------------------------------------------------- workloads
# Each runner returns the (start, end) perf_counter readings of every
# operation, in order.

def _run_table(family, pairs, cohomology):
    multiply = cohomology.multiply
    k, n = wl.TABLE_K, wl.TABLE_N
    table, spans, failed = {}, [], 0
    clock = time.perf_counter
    for a, b in pairs:
        t = clock()
        try:
            table[(a, b)] = multiply({a: 1}, {b: 1}, k, n, family)
        except Exception:
            failed += 1
        spans.append((t, clock()))
    return spans, failed, table


def _check_table(family, table, cohomology, seed, route_check):
    """Digest, top-degree duality and the theta-route sample."""
    problems = []
    rows = [[list(a), list(b), [[list(key), c] for key, c in sorted(r.items())]]
            for (a, b), r in sorted(table.items())]
    digest = _digest(rows)
    failed = 0
    if digest != wl.TABLE_DIGESTS[family]:
        problems.append("table digest %s differs from the recorded one"
                        % digest[:16])
        failed += len(table)
    classes = {a for a, _ in table} | {b for _, b in table}
    point = max(classes, key=sum, default=())
    partners = {}
    for (a, b), r in table.items():
        if sum(a) + sum(b) != wl.TABLE_TOP:
            continue
        c = r.get(point, 0)
        if c not in (0, 1) or any(key != point for key in r):
            problems.append("top-degree product %r*%r = %r" % (a, b, r))
            failed += 1
        elif c == 1:
            partners.setdefault(a, []).append(b)
            if a != b:
                partners.setdefault(b, []).append(a)
    for a in sorted(classes):
        got = partners.get(a, [])
        if len(got) != 1 or partners.get(got[0]) != [a]:
            problems.append("class %r has dual partners %r" % (a, got))
            failed += 1
    if route_check:
        for a, b in wl.route_sample(seed):
            want = cohomology.theta_route_product(
                {a: 1}, {b: 1}, wl.TABLE_K, wl.TABLE_N, family)
            if table.get((a, b)) != want:
                problems.append("theta route disagrees on %r*%r" % (a, b))
                failed += 1
    return digest, failed, problems


def _run_commands(cmds, cli):
    main = cli.main
    outputs, spans, codes = [], [], []
    clock = time.perf_counter
    for argv in cmds:
        buf = io.StringIO()
        t = clock()
        try:
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = -1
        spans.append((t, clock()))
        codes.append(code)
        outputs.append(buf.getvalue())
    return spans, codes, outputs


def _terms(rows):
    return {tuple(r["key"]): Fraction(int(r["num"]), int(r["den"]))
            for r in rows}


def _check_session(cmds, codes, outputs, cohomology, route_check):
    problems, failed = [], 0
    for argv, code, out in zip(cmds, codes, outputs):
        try:
            payload = json.loads(out) if code == 0 else None
        except ValueError:
            payload = None
        if payload is None:
            problems.append("exit %r from %s" % (code, " ".join(argv)))
            failed += 1
            continue
        if not route_check or argv[0] != "product":
            continue
        lam, mu = tuple(payload["lam"]), tuple(payload["mu"])
        if sum(lam) + sum(mu) > wl.ROUTE_MAX_WEIGHT:
            continue
        want = cohomology.theta_route_product(
            {lam: 1}, {mu: 1}, payload["k"], payload["n"], payload["family"])
        if _terms(payload["terms"]) != want:
            problems.append("theta route disagrees: %s" % " ".join(argv))
            failed += 1
    return _digest(outputs), failed, problems


def _run_verify(cli):
    """The user's verify command; one operation per suite.

    Each suite is timed from outside: cli looks SUITES up at call time.
    """
    spans = []
    clock = time.perf_counter

    def timed(fn):
        def suite(mw):
            t = clock()
            try:
                return fn(mw)
            finally:
                spans.append((t, clock()))
        return suite

    cli.SUITES = [(name, timed(fn)) for name, fn in cli.SUITES]
    _, codes, outputs = _run_commands([wl.VERIFY_ARGV], cli)
    return spans, codes[0], outputs[0]


def _check_verify(code, out):
    try:
        payload = json.loads(out)
        suites = [(s["name"], s["ok"], s["detail"]) for s in payload["suites"]]
    except (ValueError, KeyError, TypeError):
        return _digest(out), wl.VERIFY_SUITES, ["verify printed no payload"]
    bad = [s for s in suites if s[1] is not True]
    problems = ["suite %s failed: %s" % (s[0], s[2]) for s in bad]
    failed = len(bad)
    if code != 0 or payload.get("ok") is not True \
            or len(suites) != wl.VERIFY_SUITES:
        problems.append("verify exit %r, ok %r, %d suites"
                        % (code, payload.get("ok"), len(suites)))
        failed = wl.VERIFY_SUITES
    return _digest(suites), failed, problems


# ---------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"),
                    required=True)
    ap.add_argument("--route-check", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args()

    cli, cohomology = _import_package()
    cli._parser()
    work = args.workload
    if work.startswith("table-"):
        inputs = wl.table_pairs(args.seed)
    elif work == "oneshot":
        inputs = wl.session(args.seed)
    else:
        inputs = None
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = {"ready": ready, "ready_ref_s": speed.reference_time()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        tracer.on = True

    clock = time.perf_counter
    sampler = speed.SpeedSampler()
    sampler.start()
    t0 = clock()
    if work.startswith("table-"):
        ops, failed, table = _run_table(work[-1], inputs, cohomology)
    elif work == "oneshot":
        ops, codes, outputs = _run_commands(inputs, cli)
        failed = 0
    else:
        ops, code, out = _run_verify(cli)
        failed = 0
    t1 = clock()
    sampler.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.on = False
        result["counters"] = tracer.counters()
        tracer.write_spans(args.spans, sampler.state())

    if work.startswith("table-"):
        attempted = len(inputs)
        digest, bad, problems = _check_table(
            work[-1], table, cohomology, args.seed, args.route_check)
    elif work == "oneshot":
        attempted = len(inputs)
        digest, bad, problems = _check_session(
            inputs, codes, outputs, cohomology, args.route_check)
    else:
        attempted = wl.VERIFY_SUITES
        digest, bad, problems = _check_verify(code, out)
    lat = sorted(sampler.ref_seconds(a, b) for a, b in ops)
    raw = sorted(sampler.raw_seconds(a, b) for a, b in ops)
    result.update({
        "wall_s": sampler.ref_seconds(t0, t1),
        "raw_wall_s": sampler.raw_seconds(t0, t1),
        "ops": len(ops), "attempted": attempted,
        "failed": min(attempted, failed + bad), "problems": problems[:20],
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p99_ms": _percentile(lat, 99) * 1e3,
        "raw_op_p50_ms": statistics.median(raw) * 1e3,
        "raw_op_p99_ms": _percentile(raw, 99) * 1e3,
        "peak_rss_mb": rss_mb, "digest": digest,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
