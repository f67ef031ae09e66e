"""The benchmark's three workloads, each driven through a public entry
point of ``repro``.

A run repeats *rounds* until its time is up.  A round is a cold pass
(the traffic a user sends, against a fresh result cache) followed by a
hit pass (the same traffic again, now served from that cache), and then
the round's correctness checks, which are not timed.  Round ``i`` of a
run with seed ``s`` draws its inputs from ``s * 1000 + i`` (``dse-search``
from ``(s + i) % 2``; see :data:`SEARCH_SEEDS`), so the same seed gives
the same inputs.

* ``dse-search`` -- :func:`repro.dse.run_search`: the ``default`` space,
  the ``dse-smoke`` fitness suite, the ``random`` agent, a budget of 256
  evaluations, in-process.  The hit pass repeats the search with the
  same seed into a fresh trajectory.
* ``paper-suite`` -- :meth:`repro.api.Session.run_many` over the
  Figure 14 Livermore sweep (loops 1-24, cold and warm) and section 3.3
  Linpack (n=40), in-process, in a seeded order.  The hit pass runs the
  same requests again.
* ``service-dse`` -- one closed-loop :class:`~repro.service.client.
  ServiceClient` against an in-process :class:`~repro.service.server.
  ServiceThread` at its default ``jobs=2``, with a result cache and a
  journal.  Each of 12 seeded ``smoke``-grid points is submitted as its
  own campaign (its ``dse-smoke`` request pair); the hit pass resubmits
  each pair reversed, a new campaign served from the cache.
"""

import json
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field

from repro import api, orchestrate
from repro.baselines import reference_data
from repro.dse import (FitnessSpec, ParameterSpace, create_agent,
                       run_search, space_preset, validate_trajectory)
from repro.dse.fitness import result_cycles
from repro.dse.trajectory import load_trajectory
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import ServiceThread

#: The sweep name the service campaigns and their local references use.
SERVICE_SWEEP = "service-dse"

#: ``dse-search`` rounds cycle through this many search seeds, starting
#: at ``--seed``, and a run times whole cycles.  How many distinct points
#: a 256-evaluation search executes depends on its seed (about 100 to
#: 170 requests), so a seed per round would give every run another
#: request mix and another ``wall_s``; whole cycles give every run the
#: same mix.
SEARCH_SEEDS = 2


@dataclass
class Round:
    """What one round measured and found."""

    cold_wall: float = 0.0
    hit_wall: float = 0.0
    cold_requests: int = 0
    cold_latencies: list = field(default_factory=list)
    hit_latencies: list = field(default_factory=list)
    sim_cycles: int = 0
    requests: int = 0
    failed_requests: int = 0
    campaigns: int = 0
    failed_campaigns: int = 0
    violations: list = field(default_factory=list)
    #: Pass-1 results of the paper-suite, for the fidelity metric.
    paper_results: list = field(default_factory=list)

    @property
    def wall(self):
        return self.cold_wall + self.hit_wall


def round_seed(seed, index):
    return seed * 1000 + index


def _failed(result):
    return not result.passed


def report_failures(results, violations):
    """A request whose run or numeric check failed fails the round's
    checks too, not only the request."""
    for result in results:
        if not result.passed:
            violations.append("%s %s failed: %s"
                              % (result.workload, result.params,
                                 result.check_error or result.failure))


# ---------------------------------------------------------------------------
# Model fidelity against the paper
# ---------------------------------------------------------------------------

def paper_error_pct(results):
    """Mean absolute relative error, in percent, of the measured MFLOPS
    against the paper's published values: the cold and warm Figure 14
    MFLOPS of every ``livermore-pair`` loop and the scalar and vector
    Linpack MFLOPS of section 3.3."""
    errors = []
    for result in results:
        metrics = result.metrics
        if result.workload == "livermore-pair":
            cold, warm = reference_data.FIGURE14_MFLOPS[
                result.params["loop"]][:2]
            errors.append(abs(metrics["cold_mflops"] - cold) / cold)
            errors.append(abs(metrics["warm_mflops"] - warm) / warm)
        elif result.workload == "linpack":
            for key, label in (("scalar_mflops", "MultiTitan scalar"),
                               ("vector_mflops", "MultiTitan vector")):
                paper = reference_data.LINPACK_MFLOPS[label]
                errors.append(abs(metrics[key] - paper) / paper)
    return 100.0 * sum(errors) / len(errors)


def paper_requests(short):
    return (api.sweep_requests("livermore", quick=short)
            + api.sweep_requests("linpack", quick=short))


def check_paper_results(results, violations):
    """Every result passes its numeric check against the pure-Python
    references (each kernel's own ``check``), and Figure 14's warm-cache
    pass never takes more cycles than the cold one."""
    report_failures(results, violations)
    for result in results:
        if result.workload == "livermore-pair" and result.passed:
            metrics = result.metrics
            if metrics["warm_cycles"] > metrics["cold_cycles"]:
                violations.append(
                    "livermore loop %d: warm_cycles %d > cold_cycles %d"
                    % (result.params["loop"], metrics["warm_cycles"],
                       metrics["cold_cycles"]))


def probe_paper_error(short):
    """Run the paper suite once for its fidelity metric and checks."""
    results = api.Session(jobs=1).run_many(paper_requests(short))
    violations = []
    check_paper_results(results, violations)
    return paper_error_pct(results), violations


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class _RecordingSession(api.Session):
    """A session that keeps every result it returns, so the benchmark
    sees the per-request outcomes behind a search."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.results = []
        self.campaigns = 0

    def run_many(self, requests, **kwargs):
        results = super().run_many(requests, **kwargs)
        self.campaigns += 1
        self.results.extend(results)
        return results


class Workload:
    """One workload: set-up in the constructor, then rounds."""

    name = None
    #: A run times whole cycles of this many rounds.
    cycle = 1

    def __init__(self, seed, short, workdir):
        self.seed = seed
        self.short = short
        self.workdir = workdir

    def fresh_dir(self, label):
        return tempfile.mkdtemp(prefix=label + "-", dir=self.workdir)

    def run_round(self, index, tracer=None):
        """Run round ``index``; ``tracer`` is switched off before the
        round's checks so that they stay out of the layer times."""
        raise NotImplementedError

    def paper_error(self, rounds):
        """``(paper_mflops_err_pct, problems)``.  This workload's traffic
        holds no paper measurement, so the paper suite runs once, untimed,
        after the timed rounds."""
        return probe_paper_error(self.short)

    def close(self):
        pass


def _untraced(tracer):
    if tracer is not None:
        tracer.enabled = False


class DseSearch(Workload):
    name = "dse-search"
    cycle = SEARCH_SEEDS

    def __init__(self, seed, short, workdir):
        super().__init__(seed, short, workdir)
        self.space = space_preset("default")
        self.fitness = FitnessSpec("dse-smoke")
        self.budget = 20 if short else 256

    def _search(self, seed, cache_dir, path):
        session = _RecordingSession(jobs=1, cache_dir=cache_dir)
        start = time.perf_counter()
        run_search(self.space, self.fitness, create_agent("random"),
                   self.budget, session, path, seed=seed)
        return time.perf_counter() - start, session

    def run_round(self, index, tracer=None):
        seed = (self.seed + index) % SEARCH_SEEDS
        scratch = self.fresh_dir("dse")
        cache_dir = os.path.join(scratch, "cache")
        cold_path = os.path.join(scratch, "cold.jsonl")
        hit_path = os.path.join(scratch, "hit.jsonl")
        out = Round()
        out.cold_wall, cold_session = self._search(seed, cache_dir,
                                                   cold_path)
        out.hit_wall, hit_session = self._search(seed, cache_dir, hit_path)
        _untraced(tracer)
        cold, hits = cold_session.results, hit_session.results
        out.campaigns = cold_session.campaigns + hit_session.campaigns
        out.cold_requests = sum(result.passed for result in cold)
        out.cold_latencies = [result.wall_seconds for result in cold]
        out.hit_latencies = [result.wall_seconds for result in hits]
        out.sim_cycles = sum(result_cycles(result.metrics)
                             for result in cold if result.passed)
        out.requests = len(cold) + len(hits)
        out.failed_requests = sum(map(_failed, cold + hits))
        report_failures(cold + hits, out.violations)
        self._check(out, cold, hits, cold_path, hit_path)
        shutil.rmtree(scratch)
        return out

    def _check(self, out, cold, hits, cold_path, hit_path):
        problems = out.violations
        if any(result.cached for result in cold):
            problems.append("cold search was served from a fresh cache")
        if not all(result.cached for result in hits):
            problems.append("repeated search recomputed %d request(s)"
                            % sum(not result.cached for result in hits))
        with open(cold_path, "rb") as a, open(hit_path, "rb") as b:
            if a.read() != b.read():
                problems.append("repeated search wrote a different "
                                "trajectory")
        header, records, torn = load_trajectory(cold_path)
        if torn is not None:
            problems.append("trajectory has a torn tail")
        try:
            # Also checks that best-so-far never rises.
            validate_trajectory(header, records)
        except ValueError as exc:
            problems.append("trajectory: %s" % exc)
        problems.extend(monotonic_violations(records))


def monotonic_violations(records,
                         axes=("fpu_latency", "dcache_miss_penalty")):
    """Among evaluated points that differ only in one of ``axes``, a
    larger value never gives fewer cycles."""
    points = {}
    for record in records:
        if not record["failed"]:
            points[ParameterSpace.point_key(record["point"])] = record
    problems = []
    for axis in axes:
        groups = {}
        for record in points.values():
            rest = tuple(sorted((key, value)
                                for key, value in record["point"].items()
                                if key != axis))
            groups.setdefault(rest, []).append(record)
        for group in groups.values():
            group.sort(key=lambda record: record["point"][axis])
            for low, high in zip(group, group[1:]):
                if high["cycles"] < low["cycles"]:
                    problems.append(
                        "%s %s -> %s lowered cycles %d -> %d at %s"
                        % (axis, low["point"][axis], high["point"][axis],
                           low["cycles"], high["cycles"], low["point"]))
    return problems


class PaperSuite(Workload):
    name = "paper-suite"

    def __init__(self, seed, short, workdir):
        super().__init__(seed, short, workdir)
        self.requests = paper_requests(short)

    def paper_error(self, rounds):
        return paper_error_pct(rounds[0].paper_results), []

    def run_round(self, index, tracer=None):
        requests = list(self.requests)
        random.Random(round_seed(self.seed, index)).shuffle(requests)
        scratch = self.fresh_dir("paper")
        session = api.Session(jobs=1, cache_dir=os.path.join(scratch,
                                                             "cache"))
        out = Round()
        start = time.perf_counter()
        cold = session.run_many(requests)
        out.cold_wall = time.perf_counter() - start
        start = time.perf_counter()
        hits = session.run_many(requests)
        out.hit_wall = time.perf_counter() - start
        _untraced(tracer)
        out.cold_requests = sum(result.passed for result in cold)
        out.cold_latencies = [result.wall_seconds for result in cold]
        out.hit_latencies = [result.wall_seconds for result in hits]
        out.sim_cycles = sum(result_cycles(result.metrics)
                             for result in cold if result.passed)
        out.requests = len(cold) + len(hits)
        out.failed_requests = sum(map(_failed, cold + hits))
        out.campaigns = 2
        out.paper_results = cold
        check_paper_results(cold, out.violations)
        report_failures(hits, out.violations)
        if not all(result.cached for result in hits):
            out.violations.append("second pass recomputed %d request(s)"
                                  % sum(not r.cached for r in hits))
        if [r.to_dict() for r in cold] != [r.to_dict() for r in hits]:
            out.violations.append("cached results differ from computed "
                                  "ones")
        shutil.rmtree(scratch)
        return out


class ServiceDse(Workload):
    name = "service-dse"

    def __init__(self, seed, short, workdir):
        super().__init__(seed, short, workdir)
        self.space = space_preset("smoke")
        self.fitness = FitnessSpec("dse-smoke")
        self.grid = list(self.space.grid())
        self.points_per_round = 3 if short else 12
        self.rounds = [self._round_requests(0)]
        self.service = self._start_service()

    def _round_requests(self, index):
        rng = random.Random(round_seed(self.seed, index))
        points = rng.sample(self.grid, self.points_per_round)
        return [self.fitness.requests(self.space.config_for(point))
                for point in points]

    def _start_service(self):
        scratch = self.fresh_dir("service")
        service = ServiceThread(jobs=2,
                                cache_dir=os.path.join(scratch, "cache"),
                                journal_dir=os.path.join(scratch, "journal"))
        service.scratch = scratch
        service.start()
        ServiceClient(port=service.port).health()
        return service

    def _stop_service(self):
        if self.service is not None:
            self.service.stop()
            shutil.rmtree(self.service.scratch)
            self.service = None

    def close(self):
        self._stop_service()

    def _campaign(self, client, requests):
        """Submit one campaign and wait for its BENCH text; returns
        ``(seconds, text or None, deduplicated)``."""
        start = time.perf_counter()
        submitted = client.submit(requests, sweep=SERVICE_SWEEP)
        state = None
        for event in client.events(submitted["campaign"]):
            state = event.get("state", state)
        text = None
        if state == "done":
            try:
                text = client.result_text(submitted["campaign"])
            except ServiceError:
                text = None
        return time.perf_counter() - start, text, submitted["deduplicated"]

    def run_round(self, index, tracer=None):
        if self.service is None:
            self.service = self._start_service()
        while len(self.rounds) <= index:
            self.rounds.append(self._round_requests(len(self.rounds)))
        pairs = self.rounds[index]
        client = ServiceClient(port=self.service.port,
                               client_id="perfbench")
        cache_dir = self.service.service.cache_dir
        out = Round(campaigns=2 * len(pairs))
        cold_texts, hit_texts, deduplicated = [], [], 0
        for requests in pairs:
            seconds, text, dedup = self._campaign(client, requests)
            out.cold_latencies.append(seconds)
            out.cold_wall += seconds
            cold_texts.append(text)
            deduplicated += dedup
        entries = _cache_entries(cache_dir)
        for requests in pairs:
            seconds, text, dedup = self._campaign(client, requests[::-1])
            out.hit_latencies.append(seconds)
            out.hit_wall += seconds
            hit_texts.append(text)
            deduplicated += dedup
        _untraced(tracer)
        rewritten = _cache_entries(cache_dir) != entries
        self._stop_service()
        out.requests = 2 * sum(map(len, pairs))
        if deduplicated:
            out.violations.append("%d campaign(s) were deduplicated"
                                  % deduplicated)
        if rewritten:
            out.violations.append("the reversed pass wrote to the cache")
        # The local reference runs on a worker fleet too: executing
        # kernels here would import the workload modules into this
        # process, and the service's forked workers would inherit them
        # instead of importing them per campaign as they do under
        # ``repro serve``.
        local = api.Session(jobs=2).run_many(
            [request for requests in pairs for request in requests])
        for number, (cold, hit) in enumerate(zip(cold_texts, hit_texts)):
            self._check_campaign(out, local[2 * number:2 * number + 2],
                                 cold, hit)
        return out

    def _check_campaign(self, out, local, cold, hit):
        for text, results, cold_pass in ((cold, local, True),
                                         (hit, local[::-1], False)):
            if text is None:
                out.failed_campaigns += 1
                out.failed_requests += len(results)
                out.violations.append("a campaign at %s did not finish"
                                      % results[0].config)
                continue
            document = json.loads(text)
            passed = [entry for entry in document["results"]
                      if entry["failure"] is None
                      and entry["check_error"] is None]
            out.failed_requests += len(results) - len(passed)
            if len(passed) < len(results):
                out.violations.append(
                    "%d request(s) of a campaign at %s failed"
                    % (len(results) - len(passed), results[0].config))
            if text != orchestrate.dump_bench_json(results,
                                                   sweep=SERVICE_SWEEP):
                out.violations.append(
                    "service BENCH text differs from a local run at %s"
                    % results[0].config)
            if cold_pass:
                out.cold_requests += len(passed)
                out.sim_cycles += sum(result_cycles(entry["metrics"])
                                      for entry in passed)


def _cache_entries(directory):
    """Every committed result-cache entry with its inode and mtime: a
    recomputed task replaces its entry, so an unchanged map means no
    task ran."""
    entries = {}
    for root, _dirs, files in os.walk(directory):
        for name in files:
            if name.endswith(".json") and not name.startswith(".tmp-"):
                stat = os.stat(os.path.join(root, name))
                entries[name] = (stat.st_ino, stat.st_mtime_ns)
    return entries


WORKLOADS = {workload.name: workload
             for workload in (DseSearch, PaperSuite, ServiceDse)}
