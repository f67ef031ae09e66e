"""Steadiness check: run each workload repeatedly and print each
metric's median and quartiles.

Usage, from the root of the repository::

    python3 perfbench/steady.py --runs 10 --seconds 30

Each run gets its own seed (``--first-seed``, ``--first-seed + 1``,
...).  For every metric the table shows the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``), the spread -- the
distance between the quartiles as a share of the median -- and the
metric's bound in ``BENCHMARK.json``.  A spread above a third of the
bound is marked ``wide``, one above the bound ``OVER``.  The exit code
is 1 when a run failed, a check failed, the share of failed operations
differed between runs, or a spread is ``OVER``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=600)
    if done.returncode != 0:
        raise RuntimeError("%s exited %d" % (" ".join(command),
                                             done.returncode))
    return json.loads(done.stdout.decode().splitlines()[-1])


def summarize(workload, results, metrics):
    """Print one workload's table; returns whether it is acceptable."""
    ok = True
    shares = {(result["failed"], result["attempted"]) for result in results}
    fractions = {failed / attempted for failed, attempted in shares}
    print("\n%s: %d run(s), failed/attempted %s%s"
          % (workload, len(results), sorted(shares)[:3],
             "" if len(fractions) == 1 else "  UNEQUAL SHARES"))
    if len(fractions) != 1:
        ok = False
    if not all(result["correct"] for result in results):
        print("  a run reported correct=false")
        ok = False
    print("  %-34s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3",
                                              "spread", "bound"))
    for spec in metrics:
        name = spec["name"]
        values = [result["metrics"][name]["value"] for result in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(median) if median else 0.0
        bound = spec["bound"]
        verdict = ""
        if spread > bound:
            verdict, ok = "OVER", False
        elif spread > bound / 3:
            verdict = "wide"
        print("  %-34s %14.6g %14.6g %14.6g %8.4f %6s %s"
              % (name, median, q1, q3, spread, bound, verdict))
    return ok


def main(argv=None):
    benchmark = load_benchmark()
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=benchmark["run_seconds"])
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workload or names:
        results = []
        for offset in range(args.runs):
            seed = args.first_seed + offset
            results.append(run_once(workload, seed, args.seconds))
            print("%s seed %d: %s" % (workload, seed, json.dumps(
                {name: round(entry["value"], 6)
                 for name, entry in results[-1]["metrics"].items()})),
                  flush=True)
        ok = summarize(workload, results, benchmark["end_to_end"]) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
