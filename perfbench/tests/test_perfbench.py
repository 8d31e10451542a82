"""Tests of the benchmark itself, on its smoke mode (one light round per
workload).  Run with:  python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402

EXACT_COUNTS = ("dist_model.points", "quadrature.integrand_calls", "muntz.qn_evals",
                "fingerprint.cells", "inversion.oracle_calls")


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, RUN, *args], capture_output=True, text=True,
                          cwd=cwd, timeout=600)
    return proc


def _results(stdout):
    """Per-workload result lines, in the order the workloads ran."""
    return [json.loads(line) for line in stdout.splitlines() if line.startswith('{"correct"')]


def test_smoke_covers_every_workload():
    proc = _bench("--workload", "all", "--seed", "3", "--smoke", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    per_workload = _results(proc.stdout)[:-1]
    assert len(per_workload) == len(run.WORKLOAD_NAMES)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["end_to_end"]}
    for res in per_workload:
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["attempted"] >= 1
        assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
        assert all(v["value"] > 0 for v in res["metrics"].values())
    # transform-stream keeps the known ls_direct defect in its mix: at most
    # its 2 ops fail, and `correct` above says every failure is that defect
    assert per_workload[0]["failed"] <= 2
    assert all(res["failed"] == 0 for res in per_workload[1:])


def _perturb(result):
    if isinstance(result, workloads.sj.TransformValue):
        return dataclasses.replace(result, value=result.value + 1e-3)
    result.passed = False  # a verify_identity report
    return result


def test_perturbed_or_raising_ops_count_as_failed():
    wl = workloads.TransformStream(5, smoke=True)
    ops = wl.round(0)
    for op in ops[:-1]:
        op.run = (lambda f: lambda: _perturb(f()))(op.run)

    def boom():
        raise RuntimeError("deliberate")

    ops[-1].run = boom
    wl.round = lambda r: ops
    tally = run.Tally()
    run.run_rounds(wl, tally, 0, rounds=1)
    assert tally.attempted == len(ops)
    assert tally.failed == len(ops)
    # the perturbation is far beyond the known defect's 1.34x overshoot, so
    # not even the two known-defect ops count as the known defect
    assert tally.known == 0
    assert any("raised RuntimeError" in f for f in tally.failures)


def test_exact_counts_repeat_for_a_seed():
    runs = []
    for _ in range(2):
        proc = _bench("--workload", "all", "--seed", "4", "--smoke", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        runs.append(_results(proc.stdout)[:-1])
    touched = set()
    for first, second in zip(*runs):
        for name in EXACT_COUNTS:
            assert first["metrics"][name] == second["metrics"][name], name
            if first["metrics"][name]["value"] > 0:
                touched.add(name)
    assert touched == set(EXACT_COUNTS)


def test_refuses_without_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "transform-stream", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True,
                          cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert not _results(proc.stdout)

