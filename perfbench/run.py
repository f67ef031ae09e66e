"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload dse-search --seed 1 --seconds 30 \\
        --trace 0

``--trace 0`` prints the end-to-end metrics, measured untraced.  The
first round warms the process up (lazy imports, first allocations): it
is checked and counted in ``attempted`` like every round, but only the
rounds after it are timed.  ``--trace 1`` alternates untraced and traced
rounds over the same inputs and prints the per-layer metrics (per
traced round) with ``trace.overhead_pct``, the traced rounds' extra wall
time.  ``--short`` runs one small round of the workload, for the
benchmark's own tests.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")

#: Fresh processes, started one after another once the timed rounds are
#: over, whose set-up times give ``setup_s`` (their median).
SETUP_SAMPLES = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("dse-search", "paper-suite", "service-dse"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="one small round (the benchmark's tests)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(args, workdir):
    """Import the program, build its workload registry and this run's
    requests (and, for service-dse, bring the service to ready)."""
    start = time.perf_counter()
    sys.path.insert(0, SOURCE)
    import workloads
    from repro import api

    api.workload_names()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.short,
                                                  workdir)
    return workload, time.perf_counter() - start


def setup_sample(args):
    """The set-up time of one fresh process running this workload."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          check=True, timeout=60)
    return json.loads(done.stdout.decode().splitlines()[-1])["setup_s"]


def peak_rss_mb():
    """Peak resident memory of this process plus that of its largest
    ended child (the service's worker processes), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def enough(done, started, args, step=1):
    """Whether to stop before the next ``step`` rounds (or pairs of
    rounds), given ``done`` of them so far: stop before they would end
    past ``--seconds``."""
    if args.short:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + step * elapsed / done > args.seconds


def run_round(workload, index, tracer=None):
    """One round, then a full garbage collection (untimed), so that each
    round starts from a heap like a fresh process's and the peak memory
    does not depend on how many rounds fit in the run."""
    try:
        return workload.run_round(index, tracer)
    finally:
        gc.collect()


def untraced_rounds(workload, args):
    """The warm-up round, then whole cycles of ``workload.cycle`` timed
    rounds."""
    rounds, started = [], time.perf_counter()
    while True:
        rounds.append(run_round(workload, len(rounds)))
        if ((len(rounds) - 1) % workload.cycle == 0
                and enough(len(rounds), started, args, workload.cycle)):
            return rounds


def traced_rounds(workload, args):
    """Pairs of rounds on the same inputs, one untraced and one traced,
    alternating which goes first."""
    from tracing import Tracer

    tracer = Tracer()
    plain, traced = [], []
    started = time.perf_counter()
    index = 0
    while True:
        # The first round runs untraced, so that the lazy imports of an
        # in-process workload have happened before the wrappers go in.
        for tracing in ((False, True) if index % 2 == 0
                        else (True, False)):
            if not tracing:
                plain.append(run_round(workload, index))
                continue
            tracer.install()
            tracer.enabled = True
            try:
                traced.append(run_round(workload, index, tracer))
            finally:
                tracer.enabled = False
                tracer.uninstall()
        index += 1
        if enough(index, started, args):
            return tracer, plain, traced


def end_to_end(args, workload, rounds, setup_time, violations):
    """The end-to-end metrics of an untraced run; problems found by the
    paper-suite probe are added to ``violations``.  Each timing is a
    median: over the timed rounds, or over their pooled latencies."""
    rss = peak_rss_mb()
    paper_error, problems = workload.paper_error(rounds)
    violations.extend(problems)
    setup_times = [setup_time] if args.short else [
        setup_sample(args) for _ in range(SETUP_SAMPLES)]
    timed = rounds[1:] or rounds
    cold_latencies = [value for entry in timed
                      for value in entry.cold_latencies]
    hit_latencies = [value for entry in timed
                     for value in entry.hit_latencies]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(entry.cold_wall for entry in timed),
                   "s"),
        "requests_per_s": (statistics.median(
            entry.cold_requests / entry.cold_wall for entry in timed), "1/s"),
        "sim_cycles_per_s": (statistics.median(
            entry.sim_cycles / entry.cold_wall for entry in timed),
            "cycles/s"),
        "latency_p50_ms": (1e3 * statistics.median(cold_latencies), "ms"),
        "hit_latency_p50_ms": (1e3 * statistics.median(hit_latencies),
                               "ms"),
        "peak_rss_mb": (rss, "MB"),
        "paper_mflops_err_pct": (paper_error, "%"),
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print("perfbench: no program source at %s" % SOURCE,
              file=sys.stderr)
        return 2
    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-" % args.workload,
                               dir=scratch_root)
    workload = None
    try:
        workload, setup_time = set_up(args, workdir)
        if args.setup_only:
            workload.close()
            workload = None
            print(json.dumps({"setup_s": setup_time}))
            return 0
        return measure(args, workload, setup_time)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass  # another run still uses it


def measure(args, workload, setup_time):
    if args.trace:
        tracer, plain, traced = traced_rounds(workload, args)
        rounds = plain + traced
    else:
        rounds = untraced_rounds(workload, args)
    violations = [problem for entry in rounds for problem in entry.violations]

    if args.trace:
        from tracing import layer_metrics

        metrics = layer_metrics(tracer, len(traced))
        # The median over pairs of rounds keeps the first pair, which
        # pays the run's one-off warm-up, from setting the figure.
        metrics["trace.overhead_pct"] = (100.0 * statistics.median(
            traced_round.wall / plain_round.wall - 1.0
            for plain_round, traced_round in zip(plain, traced)), "%")
    else:
        metrics = end_to_end(args, workload, rounds, setup_time, violations)

    requests = sum(entry.requests for entry in rounds)
    failed = sum(entry.failed_requests for entry in rounds)
    print("%s: %d round(s); requests attempted %d, failed %d; campaigns "
          "attempted %d, failed %d"
          % (args.workload, len(rounds), requests, failed,
             sum(entry.campaigns for entry in rounds),
             sum(entry.failed_campaigns for entry in rounds)))
    for problem in violations:
        print("CHECK FAILED: %s" % problem)
    for name, (value, unit) in metrics.items():
        print("  %-34s %16.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": not violations,
        "attempted": requests,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
