"""Fast checks of the benchmark harness itself.

    python3 -m pytest -q perfbench/tests

The smoke runs drive every workload end to end on a tiny converter in about
three seconds each, so a broken harness shows before a full run is spent.
"""
import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spec  # noqa: E402
from tracing import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args, cwd=ROOT, timeout=120):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=timeout
    )


def test_manifest_is_generated_from_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.manifest()


def test_manifest_keeps_the_format():
    m = spec.manifest()
    assert set(m) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert isinstance(m["run_seconds"], int) and 1 <= m["run_seconds"] <= 60
    assert 2 <= len(m["workloads"]) <= 8
    assert 1 <= len(m["end_to_end"]) <= 16 and 1 <= len(m["per_layer"]) <= 128
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in m[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in m["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for e in m["end_to_end"]:
        assert set(e) == {"name", "unit", "better", "bound"} and UNIT.match(e["unit"])
        assert e["better"] in ("lower", "higher") and 0 < e["bound"] <= 0.25
    for e in m["per_layer"]:
        assert set(e) == {"name", "unit", "better"} and UNIT.match(e["unit"])
    setup = next(e for e in m["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in m["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_smoke_run_prints_a_correct_summary(workload, trace):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0 and summary["attempted"] >= 1
    expected = {n: v[0] for n, v in (spec.PER_LAYER if trace else spec.END_TO_END).items()}
    assert {n: m["unit"] for n, m in summary["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) and math.isfinite(m["value"]) for m in summary["metrics"].values())
    report = done.stdout.strip().rsplit("\n", 1)[0]
    assert all(name in report for name in expected)


def test_refuses_to_run_without_the_program():
    OUT = BENCH / "out"
    OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=OUT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
        done = run_bench("--workload", "train-forward", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_self_time_subtracts_child_spans():
    tr = Tracer()
    inner = tr.wrap("inner", lambda: sum(range(20000)))
    outer = tr.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    (total,) = tr.durations_ms("outer")
    (own,) = tr.self_ms("outer")
    assert math.isclose(own, total - sum(tr.durations_ms("inner")), rel_tol=1e-9, abs_tol=1e-9)
    spans = tr.to_json(0.0)
    assert [s["parent"] for s in spans] == [-1, 0, 0, 0]
