#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload NAME [--workload NAME ...]
                            --seeds 1-10 --seconds 20 [--trace 0|1]

For every end-to-end metric this prints the median of the runs, the
quartiles as statistics.quantiles(values, n=4) gives them, and the
spread: the distance between the quartiles as a share of the median.
Progress goes to standard error; the last line of standard output is
one JSON object with every run's metrics and the summary, suitable for
recording a baseline.  Exits 1 if any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    report = {"seconds": args.seconds, "trace": args.trace,
              "inputs": workloads.describe(), "workloads": {}}
    ok = True
    for work in args.workload:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", work, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d failed:\n%s%s" % (work, seed, proc.stdout,
                                                     proc.stderr),
                      file=sys.stderr)
                ok = False
                continue
            res = json.loads(lines[-1])
            ok = ok and res["correct"]
            runs.append({"seed": seed, "correct": res["correct"],
                         "metrics": {k: v["value"]
                                     for k, v in res["metrics"].items()}})
            print("%s seed %d done" % (work, seed), file=sys.stderr)
        summary = {}
        for name in runs[0]["metrics"] if runs else ():
            values = [r["metrics"][name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (med, med, med))
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0}
            print("%-8s %-40s median %12.6g  spread %.4f"
                  % (work, name, med, summary[name]["spread"]),
                  file=sys.stderr)
        report["workloads"][work] = {"runs": runs, "summary": summary}
    print(json.dumps(report))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
