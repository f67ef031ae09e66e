"""Layer tracing for the traced run, recorded from the benchmark's side.

The tracer wraps the public functions of each layer of ``repro`` (see
:data:`LAYER_SPANS`) while it is installed, times each call as a span
and counts calls at the same boundaries.  A layer's *self time* is its
span's duration minus the time its child spans (calls into other layers
made from inside it) cover, so the per-layer times add up to the traced
wall time instead of counting nested work twice.

Spans are recorded only in the benchmark's own process.  Worker
processes forked by the orchestrator inherit the wrappers but skip
them; their work is reported only through the per-task times the
program returns in its campaign sidecars.
"""

import functools
import os
import sys
import threading
import time
from collections import defaultdict

#: (span name, module, owner attribute path, function name).  The owner
#: path is empty for module-level functions.  A function imported by
#: name into another module is wrapped at each import site the
#: workloads reach, so every call goes through one wrapper.
LAYER_SPANS = (
    ("semantics.digest", "repro.core.semantics", "", "program_digest"),
    ("semantics.digest", "repro.workloads.experiments", "",
     "program_digest"),
    ("backend.create_machine", "repro.core.backend", "", "create_machine"),
    ("backend.create_machine", "repro.workloads.common", "",
     "create_machine"),
    ("machine.snapshot", "repro.cpu.machine", "MultiTitan", "snapshot"),
    ("machine.restore", "repro.cpu.machine", "MultiTitan", "restore"),
    ("memory.restore_delta", "repro.mem.memory", "Memory", "restore_delta"),
    ("orchestrate.task", "repro.orchestrate", "", "_run_attempt"),
    ("orchestrate.cache_get", "repro.orchestrate", "ResultCache", "get"),
    ("orchestrate.cache_put", "repro.orchestrate", "ResultCache", "put"),
    ("journal.record", "repro.journal", "CampaignJournal", "record"),
    ("dse.trajectory", "repro.dse.trajectory", "TrajectoryWriter", "record"),
    ("service.submit", "repro.service.client", "ServiceClient", "submit"),
    ("service.result", "repro.service.client", "ServiceClient",
     "result_text"),
)


class Tracer:
    """Self times, call counts and counters of one benchmark process."""

    def __init__(self):
        self.pid = os.getpid()
        self.calls = defaultdict(int)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    # -- recording ------------------------------------------------------

    def active(self):
        return self.enabled and os.getpid() == self.pid

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack()
        children = [0.0]  # the time this span's child spans cover
        stack.append(children)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            with self._lock:
                self.calls[name] += 1
                self.self_time[name] += duration - children[0]

    def count(self, name, amount):
        with self._lock:
            self.counters[name] += amount

    # -- installation ---------------------------------------------------

    def _patch(self, owner, attr, wrapper_factory):
        original = getattr(owner, attr)
        wrapped = functools.wraps(original)(wrapper_factory(original))
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def _span_wrapper(self, name):
        def factory(original):
            def traced(*args, **kwargs):
                if not self.active():
                    return original(*args, **kwargs)
                return self.call(name, original, *args, **kwargs)
            return traced
        return factory

    def install(self):
        """Wrap every layer boundary; :meth:`uninstall` undoes it.

        Only modules this process has already imported are wrapped: a
        module it has not imported has no calls here to trace, and
        importing it would change the process under measurement (the
        service's forked workers would inherit it).
        """
        for name, module_name, owner_path, attr in LAYER_SPANS:
            owner = sys.modules.get(module_name)
            if owner is None:
                continue
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            self._patch(owner, attr, self._span_wrapper(name))
        self._install_special()

    def _install_special(self):
        from repro import orchestrate
        from repro.cpu.machine import MultiTitan
        from repro.dse.agents import AGENTS
        from repro.mem.memory import Memory
        from repro.service.client import ServiceClient

        tracer = self

        # Kernel builders: the codegen span, and each built kernel's
        # self-check (a closure on the kernel) wrapped in its own span.
        for module_name, attr in (("repro.workloads.livermore", "build_loop"),
                                  ("repro.workloads.linpack",
                                   "build_linpack")):
            module = sys.modules.get(module_name)
            if module is None:
                continue

            def builder(original):
                def build(*args, **kwargs):
                    if not tracer.active():
                        return original(*args, **kwargs)
                    kernel = tracer.call("workloads.codegen", original,
                                         *args, **kwargs)
                    if kernel.check is not None:
                        kernel.check = functools.partial(
                            tracer.call, "workloads.check", kernel.check)
                    return kernel
                return build
            self._patch(module, attr, builder)

        def snapshot_words(original):
            def delta_snapshot(memory):
                if tracer.active():
                    tracer.count("memory.snapshot_words", len(memory.words))
                return original(memory)
            return delta_snapshot
        self._patch(Memory, "delta_snapshot", snapshot_words)

        def pipeline_run(original):
            def run(machine, *args, **kwargs):
                if not tracer.active():
                    return original(machine, *args, **kwargs)
                before = machine.cycle
                try:
                    return tracer.call("pipeline.run", original, machine,
                                       *args, **kwargs)
                finally:
                    tracer.count("pipeline.cycles", machine.cycle - before)
            return run
        self._patch(MultiTitan, "run", pipeline_run)

        def campaign(original):
            def run_campaign(*args, **kwargs):
                if not tracer.active():
                    return original(*args, **kwargs)
                outcome = tracer.call("orchestrate.campaign", original,
                                      *args, **kwargs)
                executed = [side for side in outcome.sidecars
                            if not side.get("resumed")]
                task = sum(side.get("wall_seconds", 0.0)
                           for side in executed)
                tracer.count("orchestrate.task_s", task)
                tracer.count("orchestrate.campaign_overhead_s",
                             outcome.wall_seconds - task / outcome.jobs)
                tracer.count("orchestrate.capacity_s",
                             outcome.wall_seconds * outcome.jobs)
                return outcome
            return run_campaign
        self._patch(orchestrate, "run_campaign", campaign)

        for agent_class in set(AGENTS.values()):
            self._patch(agent_class, "ask", self._span_wrapper("dse.ask"))

        def wait(original):
            def events(client, *args, **kwargs):
                if not tracer.active():
                    yield from original(client, *args, **kwargs)
                    return
                # The span covers the whole stream: from the request to
                # the terminal event.
                collected = tracer.call(
                    "service.wait",
                    lambda: list(original(client, *args, **kwargs)))
                yield from collected
            return events
        self._patch(ServiceClient, "events", wait)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def layer_metrics(tracer, rounds):
    """The per-layer metrics, as totals per traced round."""
    per = 1.0 / max(1, rounds)
    calls, self_time, counters = tracer.calls, tracer.self_time, \
        tracer.counters
    run_s = self_time["pipeline.run"]
    cycles = counters["pipeline.cycles"]
    capacity = counters["orchestrate.capacity_s"]
    return {
        "machine.snapshot_calls": (calls["machine.snapshot"] * per, "count"),
        "machine.snapshot_s": (self_time["machine.snapshot"] * per, "s"),
        "memory.snapshot_words": (counters["memory.snapshot_words"] * per,
                                  "count"),
        "machine.restore_s": (self_time["machine.restore"] * per, "s"),
        "memory.restore_delta_s": (self_time["memory.restore_delta"] * per,
                                   "s"),
        "pipeline.run_calls": (calls["pipeline.run"] * per, "count"),
        "pipeline.run_s": (run_s * per, "s"),
        "pipeline.host_ns_per_cycle": (run_s * 1e9 / cycles if cycles
                                       else 0.0, "ns/cycle"),
        "workloads.codegen_calls": (calls["workloads.codegen"] * per,
                                    "count"),
        "workloads.codegen_s": (self_time["workloads.codegen"] * per, "s"),
        "semantics.digest_calls": (calls["semantics.digest"] * per, "count"),
        "semantics.digest_s": (self_time["semantics.digest"] * per, "s"),
        "backend.create_machine_calls": (
            calls["backend.create_machine"] * per, "count"),
        "backend.create_machine_s": (
            self_time["backend.create_machine"] * per, "s"),
        "workloads.check_s": (self_time["workloads.check"] * per, "s"),
        "orchestrate.task_s": (counters["orchestrate.task_s"] * per, "s"),
        "orchestrate.campaign_overhead_s": (
            counters["orchestrate.campaign_overhead_s"] * per, "s"),
        "orchestrate.worker_utilization": (
            counters["orchestrate.task_s"] / capacity if capacity else 0.0,
            "ratio"),
        "orchestrate.cache_get_s": (self_time["orchestrate.cache_get"] * per,
                                    "s"),
        "orchestrate.cache_put_s": (self_time["orchestrate.cache_put"] * per,
                                    "s"),
        "journal.record_s": (self_time["journal.record"] * per, "s"),
        "dse.ask_s": (self_time["dse.ask"] * per, "s"),
        "dse.trajectory_s": (self_time["dse.trajectory"] * per, "s"),
        "service.submit_s": (self_time["service.submit"] * per, "s"),
        "service.wait_s": (self_time["service.wait"] * per, "s"),
        "service.result_s": (self_time["service.result"] * per, "s"),
    }
