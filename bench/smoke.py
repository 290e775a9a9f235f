"""Smoke test of the benchmark: every workload at tiny size, plain and traced.

    python3 bench/smoke.py
    python3 -m pytest -q bench/smoke.py

Each run must end with a correct result whose metrics are exactly the ones
BENCHMARK.json names, each with its unit: the end-to-end metrics without
tracing, the per-layer metrics with it. The bench must also refuse to run
(non-zero exit, no result line) in a directory that holds only
BENCHMARK.json and the benchmark's own files. The file is not named
``test_*.py`` so that the repository's test suite does not collect it.
"""

import json
import os
import shutil
import subprocess
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def run_bench(workload, trace, cwd=ROOT):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                              "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_run(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result is not None, proc.stdout
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        for metric in BENCH["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] != 0, metric["name"]


def test_every_workload_plain_and_traced():
    for workload in BENCH["workloads"]:
        for trace in (0, 1):
            check_run(workload["name"], trace)


def test_refuses_without_the_program():
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".bench_out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in BENCH["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(BENCH["workloads"][0]["name"], 0, cwd=bare)
        assert proc.returncode != 0
        result = last_json(proc.stdout)
        assert not (isinstance(result, dict) and "metrics" in result)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    test_every_workload_plain_and_traced()
    test_refuses_without_the_program()
    print("bench smoke test passed")
