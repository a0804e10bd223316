#!/usr/bin/env python3
"""gstdesign benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload certify-1q-deep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
there.  Set-up (interpreter start, import, writing the workload's input
files) runs ``SETUP_REPEATS`` times in fresh processes, half before and
half after the measurement, and ``setup_s`` is their median.  One process
runs the workload's operations for ``--seconds`` and reports the median
operation time (``wall_s``), its own peak resident memory and the share of
operations that passed their output check.  Set-up and operation times
are scaled to a reference host speed by the calibration blocks that
bracket them (see ``calibrate.py``).  ``--trace 1`` reports the per-layer
metrics of traced operations instead (see ``layers.py``).  The last stdout
line is the result; the line before it is the run record (git sha, cores,
Python/numpy/BLAS build, thread settings, seeds), which is also written
under ``.perfbench-work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 9
# one thread for the package and for BLAS: numbers then measure the code, not
# the scheduler, and --threads never changes results anyway
THREADS = 1
THREAD_VARS = ("GSTDESIGN_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# a worker that runs past its window by more than this is killed
WORKER_GRACE_S = 120.0

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(HERE))
# the calibration blocks this process runs around set-ups use one BLAS
# thread too, like the workers; set before numpy is first imported
os.environ.update({var: str(THREADS) for var in THREAD_VARS})
import calibrate  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
# traced-run metrics that are not a layer: tracing cost and the host speed
HOST_UNITS = {"trace.overhead_s": "s", "host.calibration_s": "s", "host.raw_wall_s": "s"}


def host_metrics(sample: dict) -> dict:
    """``trace.overhead_s``: scaled traced minus untraced median operation
    time.  ``host.calibration_s``: median calibration block.
    ``host.raw_wall_s``: median untraced operation time before scaling."""
    return {
        "trace.overhead_s": (
            statistics.median(sample["scaled_traced_wall_s"]) - statistics.median(sample["scaled_wall_s"])
        ),
        "host.calibration_s": statistics.median(sample["blocks_s"]),
        "host.raw_wall_s": statistics.median(sample["wall_s"]),
    }


def git_sha(root: Path) -> str:
    """HEAD of the checkout; "unknown" when it is not a git work tree (git
    is kept from looking above it) or git is missing."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def worker_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = str(threads)
    return env


def run_worker(args: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout, cwd=ROOT)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (SRC / "gstdesign" / "cli.py").is_file():
        return fail(f"no gstdesign source under {SRC}; run from the root of a checkout")
    nproc = len(os.sched_getaffinity(0))
    env = worker_env(min(THREADS, nproc))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", str(workdir), "--src", str(SRC)]

    try:
        # set-up: fresh interpreter, import, input files.  Repeated for a
        # steady median, half before and half after the measurement, so the
        # samples span the run rather than one phase of the host's speed;
        # calibration blocks run between consecutive set-ups.
        setup_times, setup_blocks, scaled_setup_times = [], [], []

        def set_up(times: int) -> str | None:
            blocks = [calibrate.block()]
            setup_blocks.append(blocks)
            for _ in range(times):
                t0 = time.perf_counter()
                proc = run_worker(["setup", *common], env, timeout=WORKER_GRACE_S)
                setup_times.append(time.perf_counter() - t0)
                blocks.append(calibrate.block())
                scaled_setup_times.append(calibrate.scale(setup_times[-1], *blocks[-2:]))
                if proc.returncode != 0:
                    return f"set-up failed:\n{proc.stderr.strip()}"
            return None

        repeats = 1 if args.trace else SETUP_REPEATS
        if error := set_up((repeats + 1) // 2):
            return fail(error)
        proc = run_worker(
            ["measure", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, timeout=args.seconds + WORKER_GRACE_S,
        )
        if proc.returncode != 0:
            return fail(f"measurement failed:\n{proc.stderr.strip()}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        if error := set_up(repeats // 2):
            return fail(error)
    except subprocess.TimeoutExpired as exc:
        return fail(f"worker timed out: {exc.cmd}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = sample["attempted"], sample["failed"]
    if args.trace:
        per_op = sample["layers"]
        metrics = {
            name: statistics.median(op[name] for op in per_op) if per_op else 0.0
            for name in layers.LAYER_UNITS
        }
        metrics.update(host_metrics(sample))
        units = {**layers.LAYER_UNITS, **HOST_UNITS}
    else:
        metrics = {
            "wall_s": statistics.median(sample["scaled_wall_s"]),
            "setup_s": statistics.median(scaled_setup_times),
            "peak_rss_mb": sample["peak_rss_mb"],
            "ok_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS

    record = {
        "workload": args.workload,
        "seeds": workloads.WORKLOADS[args.workload].seeds(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(ROOT),
        "nproc": nproc,
        **sample["environment"],
        "operations": {
            "attempted": attempted,
            "failed": failed,
            "untraced_samples": len(sample["wall_s"]),
            "traced_samples": len(sample["traced_wall_s"]),
            "errors": sample["errors"],
        },
        "calibration_reference_s": calibrate.REFERENCE_S,
        "wall_s_samples": sample["wall_s"],
        "traced_wall_s_samples": sample["traced_wall_s"],
        "scaled_wall_s_samples": sample["scaled_wall_s"],
        "scaled_traced_wall_s_samples": sample["scaled_traced_wall_s"],
        "calibration_blocks_s": sample["blocks_s"],
        "setup_s_samples": setup_times,
        "setup_calibration_blocks_s": setup_blocks,
        "scaled_setup_s_samples": scaled_setup_times,
    }
    (WORK / "records").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / "records" / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
