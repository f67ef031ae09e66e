"""Tests of the benchmark itself, on the short mode of each workload.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def run_bench(workload, trace, cwd=ROOT):
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--short"]
    return subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=300)


def short_result(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr.decode()
    result = json.loads(done.stdout.decode().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout.decode()
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    specs = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"]
            for name, entry in result["metrics"].items()} == \
        {spec["name"]: spec["unit"] for spec in specs}
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name
    return {name: entry["value"]
            for name, entry in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_prints_every_end_to_end_metric(workload):
    metrics = short_result(workload, 0)
    assert all(value > 0 for value in metrics.values()), metrics


def test_traced_run_attributes_the_layers_of_each_workload():
    search, paper, service = (short_result(workload, 1)
                              for workload in WORKLOADS)
    assert search["machine.snapshot_calls"] > 0
    assert search["memory.snapshot_words"] > 0
    assert search["dse.ask_s"] > 0 and search["dse.trajectory_s"] > 0
    assert search["orchestrate.cache_put_s"] > 0
    assert paper["pipeline.run_calls"] > 0
    assert paper["pipeline.host_ns_per_cycle"] > 0
    assert paper["workloads.check_s"] > 0
    assert paper["workloads.codegen_calls"] > 0
    # Service traffic reaches the layers of this process only through
    # the service and its orchestrator thread.
    assert service["service.wait_s"] > 0 and service["journal.record_s"] > 0
    assert service["pipeline.run_calls"] == 0
    assert 0 < service["orchestrate.worker_utilization"] <= 1


def test_a_failing_numeric_check_makes_the_run_incorrect(monkeypatch,
                                                         capsys):
    """A kernel whose result disagrees with its pure-Python reference
    fails the run's checks, not only its request."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import run
    from repro.workloads.livermore import reference

    original = reference.REFERENCES[1]

    def shifted(n, arrays):
        outputs, flops = original(n, arrays)
        return ({name: [value + 1.0 for value in values]
                 for name, values in outputs.items()}, flops)

    monkeypatch.setitem(reference.REFERENCES, 1, shifted)
    assert run.main(["--workload", "paper-suite", "--seed", "3",
                     "--seconds", "1", "--trace", "0", "--short"]) == 0
    output = capsys.readouterr().out
    result = json.loads(output.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "CHECK FAILED: livermore-pair {'loop': 1} failed" in output


def test_fails_without_the_program():
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run_bench(WORKLOADS[0], 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout.decode().strip() == ""
