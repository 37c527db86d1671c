#!/usr/bin/env python3
"""Benchmark of isoschub: cold verify, full product tables, a CLI session.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from
``src`` there.  Each measurement is a fresh child interpreter with cold
memo tables, run one at a time (a closed loop from one client, no
threads), with GIAMBELLI_CACHE_DIR removed from its environment so the
pickle cache can never warm it.  Workloads (see workloads.py):

  verify    python -m isoschub.cli verify --suite all --format json
  table-C   all 18,528 products of the 192 classes of IG at k=1, n=6
  table-B   the same pairs for OG at k=1, n=6
  oneshot   2,725 seeded CLI commands through cli.main in one process

``--trace 0`` runs set-up-only children and then full children until
``--seconds`` is used up (at least three), and reports the medians of the
end-to-end metrics.  ``--trace 1`` runs one plain child and one traced
child (see tracing.py), checks that both print the same output digest,
and reports the per-layer metrics.  The last line of standard output is
one JSON object; the exit code is 1 if any output check failed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_CHILDREN = 7      # set-up-only children per run, besides the full ones
MIN_CHILDREN = 3        # full children per run, however long they take
RUN_LIMIT_S = 170       # the whole run must end within 180 s

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
              ("op_p50_ms", "ms"), ("op_p99_ms", "ms"),
              ("peak_rss_mb", "MB")]


class ChildFailed(RuntimeError):
    pass


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unavailable"


class Runner:
    """Starts children one at a time and collects what they report."""

    def __init__(self, root, workload, seed, deadline):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.root = root
        self.env = dict(os.environ)
        self.env.pop("GIAMBELLI_CACHE_DIR", None)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        # one hash seed for every child, so that set iteration order, and
        # any work that depends on it, is the same in each of them; no
        # bytecode files, so that every child compiles the same sources
        self.env["PYTHONHASHSEED"] = "0"
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"

    def child(self, mode, route_check=False, spans=None):
        argv = [sys.executable, os.path.join(HERE, "child.py"),
                "--workload", self.workload, "--seed", str(self.seed),
                "--mode", mode]
        if route_check:
            argv.append("--route-check")
        if spans:
            argv += ["--spans", spans]
        t0 = _now()
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(
                timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise ChildFailed("%s child ran past the time limit" % mode)
        lines = out.strip().splitlines()
        try:
            if proc.returncode != 0 or not lines:
                raise ValueError("no result")
            res = json.loads(lines[-1])
        except ValueError:
            raise ChildFailed("%s child exited %d: %s" % (
                mode, proc.returncode, err.strip()[-2000:])) from None
        res["raw_setup_s"] = res["ready"] - t0
        res["setup_s"] = (res["raw_setup_s"] * speed.REF_NOMINAL_S
                          / res["ready_ref_s"])
        res["child_s"] = _now() - t0
        return res


def _measure(runner, seconds):
    """Set-up-only children, then full children for the given seconds."""
    setups = [runner.child("setup") for _ in range(SETUP_CHILDREN)]
    runs = []
    start = _now()
    while True:
        res = runner.child("run", route_check=not runs)
        runs.append(res)
        elapsed = _now() - start
        if len(runs) >= MIN_CHILDREN and elapsed + res["child_s"] > seconds:
            break
    setups += runs

    def summary(prefix):
        med = statistics.median
        return {
            "setup_s": med(r[prefix + "setup_s"] for r in setups),
            "wall_s": med(r[prefix + "wall_s"] for r in runs),
            "ops_per_s": med(r["ops"] / r[prefix + "wall_s"] for r in runs),
            "op_p50_ms": med(r[prefix + "op_p50_ms"] for r in runs),
            "op_p99_ms": med(r[prefix + "op_p99_ms"] for r in runs),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in runs),
        }

    metrics, raw = summary(""), summary("raw_")
    digests = {r["digest"] for r in runs}
    problems = [p for r in runs for p in r["problems"]]
    if len(digests) > 1:
        problems.append("children of one seed printed different outputs")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if len(digests) > 1 and not failed:
        failed = attempted
    notes = ["%d full children of %.2f s each (median), %d set-ups, "
             "%d operations per child; times in reference seconds "
             "(speed.py), measured ones in brackets"
             % (len(runs), statistics.median(r["child_s"] for r in runs),
                len(setups), runs[0]["ops"])]
    return metrics, raw, END_TO_END, attempted, failed, problems, notes


def _trace(runner):
    """One plain child and one traced child; per-layer metrics."""
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, "spans-%s.bin" % runner.workload)
    base = runner.child("run", route_check=True)
    traced = runner.child("trace", spans=spans)
    self_s, n_spans = tracing.read_self_times(spans)
    names = tracing.metric_names()
    reported = {name for name, _ in names}
    metrics = dict(traced["counters"])
    for name, value in self_s.items():
        if name + ".self_s" in reported:
            metrics[name + ".self_s"] = value
    # both walls in reference seconds, so machine drift between the two
    # children does not show up as tracing cost
    metrics["trace.overhead_frac"] = traced["wall_s"] / base["wall_s"] - 1
    problems = base["problems"] + traced["problems"]
    attempted = base["attempted"] + traced["attempted"]
    failed = base["failed"] + traced["failed"]
    if base["digest"] != traced["digest"]:
        problems.append("traced output digest differs from the plain run")
        failed = max(failed, traced["attempted"])
    notes = ["plain wall %.3f s, traced wall %.3f s (reference seconds), "
             "%d spans written to %s"
             % (base["wall_s"], traced["wall_s"], n_spans,
                os.path.relpath(spans, runner.root))]
    return metrics, {}, names, attempted, failed, problems, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = _now()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "isoschub",
                                       "__init__.py")):
        print("error: no src/isoschub under %s; run from the root of a "
              "checkout" % root, file=sys.stderr)
        return 2
    print("machine: python %s, nproc %d, loadavg %s (start)"
          % (platform.python_version(), os.cpu_count() or 0, _loadavg()))
    runner = Runner(root, args.workload, args.seed, start + RUN_LIMIT_S)
    try:
        # Not counted: the first start after a checkout also reads the
        # interpreter and the sources from disk.
        runner.child("setup")
    except ChildFailed as exc:
        print("error: the package does not start: %s" % exc, file=sys.stderr)
        return 2
    try:
        metrics, raw, names, attempted, failed, problems, notes = (
            _trace(runner) if args.trace else _measure(runner, args.seconds))
    except ChildFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print("workload %s, seed %d: %s" % (args.workload, args.seed,
                                        "; ".join(notes)))
    for name, unit in names:
        measured = " [%.6g]" % raw[name] if name in raw else ""
        print("  %-44s %14.6g %s%s" % (name, metrics[name], unit, measured))
    print("  %-44s %14.6g (%d of %d operations)"
          % ("fail_frac", failed / attempted, failed, attempted))
    for p in problems:
        print("  check failed: %s" % p)
    print("machine: loadavg %s (end)" % _loadavg())
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
