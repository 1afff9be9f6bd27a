"""The latentvc benchmark: one workload per invocation, each in its own process.

    python3 perfbench/run.py --workload stream-short-ref --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload train-forward --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload stream-long-ref --seed 1 --seconds 1 --trace 1 --smoke
    python3 perfbench/run.py --write-manifest

Run it from the repository root. It builds the inputs from the seed in a
fixture process (converter checkpoint, source and reference WAVs), then runs
the workload in a second process with its BLAS thread count set before numpy
loads. That process prints the report, with every metric by name and unit,
and writes `perfbench/out/<workload>-seed<N>-trace<T>.result.json` (and the
spans, `.trace.json`, for a traced run). The last line of standard output is
the JSON summary: with `--trace 0` the end-to-end metrics, with `--trace 1`
the per-layer ones (see spec.py and README.md).

`--smoke` runs the same code on a tiny converter, for the benchmark's tests.
`--write-manifest` rewrites BENCHMARK.json from spec.py.

This launcher imports only the standard library.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
TOTAL_TIMEOUT_S = 170.0
FIXTURE_TIMEOUT_S = 60.0


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def write_manifest() -> None:
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.manifest(), indent=2) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny converter, for the benchmark's own tests")
    ap.add_argument("--write-manifest", action="store_true", help="rewrite BENCHMARK.json from spec.py")
    args = ap.parse_args()

    if args.write_manifest:
        write_manifest()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    if not (ROOT / "src" / "latentvc" / "__init__.py").is_file():
        print(f"error: no latentvc sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    started = time.monotonic()
    w = spec.WORKLOADS[args.workload]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{name}-{os.getpid()}"
    result_path = OUT / f"{name}.result.json"
    result_path.unlink(missing_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    common += ["--work", str(work)] + (["--smoke"] if args.smoke else [])
    try:
        sys.stdout.flush()
        subprocess.run(
            [sys.executable, str(HERE / "fixture.py"), *common],
            env=child_env(1),
            check=True,
            timeout=FIXTURE_TIMEOUT_S,
        )
        remaining = TOTAL_TIMEOUT_S - (time.monotonic() - started)
        workload_args = [*common, "--trace", str(args.trace), "--result", str(result_path)]
        subprocess.run(
            [sys.executable, str(HERE / "workload.py"), *workload_args],
            env=child_env(w["blas_threads"]),
            check=True,
            timeout=max(1.0, remaining),
        )
    except subprocess.CalledProcessError as exc:
        print(f"error: {Path(exc.cmd[1]).name} exited with code {exc.returncode}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"error: {Path(exc.cmd[1]).name} did not finish in {exc.timeout:.0f} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary = json.loads(result_path.read_text())["summary"]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
