#!/usr/bin/env python3
"""The benchmark's own test: exact counters must repeat exactly.

    python3 bench/check_counters.py [--workload NAME ...]

Run from the root of a checkout.  For each workload this runs two traced
children with the same seed and requires every exact counter (every
``*.calls``, ``*.distinct_frac`` and ``polyeval.p_mul.term_pairs``) to
be identical.  For the product tables it also runs a second seed and
requires the Pieri counts that do not depend on the order of the pairs:
363,403 ``pieri`` calls on 1,278 distinct arguments.  Finally it checks
that the metric lists in BENCHMARK.json match what run.py reports.
Exits 1 on any mismatch.  Takes about a minute per workload.
"""

import argparse
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PIERI_CALLS, PIERI_DISTINCT = 363403, 1278


def _counters(runner, spans):
    res = runner.child("trace", spans=spans)
    if res["failed"] or res["problems"]:
        raise SystemExit("traced child failed its checks: %r"
                         % res["problems"])
    return res["counters"]


def _check_manifest(root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for key, want in (("end_to_end", run.END_TO_END),
                      ("per_layer", tracing.metric_names())):
        got = [(m["name"], m["unit"]) for m in spec[key]]
        if got != list(want):
            problems.append("BENCHMARK.json %s differs from run.py" % key)
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    return problems


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append",
                    choices=workloads.WORKLOADS)
    args = ap.parse_args()
    root = os.getcwd()
    problems = _check_manifest(root)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE)) as tmp:
        spans = os.path.join(tmp, "spans.bin")
        for work in args.workload or workloads.WORKLOADS:
            runner = run.Runner(root, work, 1, run._now() + 3600)
            first, second = _counters(runner, spans), _counters(runner, spans)
            exact = sorted(k for k in first
                           if k.rsplit(".", 1)[1] in tracing.EXACT_KINDS)
            diff = [k for k in exact if first[k] != second.get(k)]
            print("%-8s %d exact counters, %d differ between two runs"
                  % (work, len(exact), len(diff)))
            problems += ["%s: %s %r then %r" % (work, k, first[k], second[k])
                         for k in diff]
            if not work.startswith("table-"):
                continue
            other = run.Runner(root, work, 2, run._now() + 3600)
            for seed, c in ((1, first), (2, _counters(other, spans))):
                calls = c["cohomology.pieri.calls"]
                distinct = round(c["cohomology.pieri.distinct_frac"] * calls)
                print("%-8s seed %d: pieri %d calls, %d distinct"
                      % (work, seed, calls, distinct))
                if (calls, distinct) != (PIERI_CALLS, PIERI_DISTINCT):
                    problems.append("%s seed %d: pieri %d/%d, want %d/%d" % (
                        work, seed, calls, distinct, PIERI_CALLS,
                        PIERI_DISTINCT))
    for p in problems:
        print("FAIL " + p)
    print("ok" if not problems else "%d failures" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
