"""One benchmark process for one workload.

    python3 perfbench/worker.py setup   --workload W --seed N --dir D --src SRC
    python3 perfbench/worker.py measure --workload W --seed N --dir D --src SRC --seconds S --trace 0|1

``run.py`` starts it with ``SRC`` and the benchmark directory on
``PYTHONPATH`` and the thread variables pinned.

``setup`` imports the package and writes the workload's inputs to
``D/in``, then exits; ``run.py`` times it from the outside.  ``measure``
runs operations (the workload's CLI invocations, in this process, through
``gstdesign.cli.main``) until ``S`` seconds have passed, with a
calibration block (``calibrate.py``) before the first and after each one,
checks every operation's outputs against the committed reference, and
prints one JSON line with the samples.  With ``--trace 1`` it alternates
untraced and traced operations: traced ones give the per-layer metrics,
and each traced operation must write files byte-identical to those of the
untraced operation before it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import calibrate
import layers
import workloads
from tracer import Tracer


def _import_package(src: Path):
    import gstdesign.cli

    if not Path(gstdesign.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"gstdesign imported from {gstdesign.cli.__file__}, not from {src}")
    return gstdesign.cli


def run_operation(cli, workload, indir: Path, outdir: Path) -> tuple[float, list[str], str | None]:
    """Run one operation; returns (wall seconds, stdouts, error or None).

    Only the CLI calls are timed; output capture is part of them, the
    output check is not."""
    stdouts = []
    elapsed = 0.0
    for argv in workload.invocations(indir, outdir):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a usage error this way
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not a benchmark crash
            return elapsed + time.perf_counter() - t0, stdouts, f"{argv[0]} raised {exc!r}"
        elapsed += time.perf_counter() - t0
        if code != 0:
            return elapsed, stdouts, f"{argv[0]} exited {code}: {err.getvalue().strip()[:200]}"
        stdouts.append(out.getvalue())
    return elapsed, stdouts, None


def check_operation(workload, reference: dict, outdir: Path, stdouts: list[str]) -> str | None:
    try:
        errors = workloads.compare(workload.observe(outdir, stdouts), reference)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    return "; ".join(errors[:3]) if errors else None


def snapshot(outdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def environment() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = {
        k: {f: deps.get(k, {}).get(f) for f in ("name", "version", "openblas configuration")}
        for k in ("blas", "lapack")
    }
    threads = {
        k: os.environ.get(k)
        for k in ("GSTDESIGN_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas, "threads": threads}


def measure(cli, workload, workdir: Path, seconds: float, trace: bool) -> dict:
    reference = json.loads(workloads.reference_path(workload.name).read_text())
    indir, outdir = workdir / "in", workdir / "out"
    outdir.mkdir(exist_ok=True)
    result = {
        "wall_s": [], "traced_wall_s": [], "scaled_wall_s": [], "scaled_traced_wall_s": [],
        "blocks_s": [calibrate.block()], "layers": [], "attempted": 0, "failed": 0, "errors": [],
    }
    untraced_files = None
    # run until the window closes; a traced run needs one operation of each kind
    min_ops = 2 if trace else 1
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < seconds:
        traced = trace and i % 2 == 1
        # a stale file from the previous operation must not pass the check
        for p in outdir.iterdir():
            p.unlink()
        tracer = Tracer()
        if traced:
            layers.install(tracer)
        try:
            wall, stdouts, error = run_operation(cli, workload, indir, outdir)
        finally:
            tracer.uninstall()
        error = error or check_operation(workload, reference, outdir, stdouts)
        if traced and error is None and snapshot(outdir) != untraced_files:
            error = "traced operation wrote different bytes than the untraced one"
        if not traced and error is None:
            untraced_files = snapshot(outdir)
        result["blocks_s"].append(calibrate.block())
        result["attempted"] += 1
        result["traced_wall_s" if traced else "wall_s"].append(wall)
        result["scaled_traced_wall_s" if traced else "scaled_wall_s"].append(
            calibrate.scale(wall, *result["blocks_s"][-2:])
        )
        if error is not None:
            result["failed"] += 1
            result["errors"].append(error)
        elif traced:
            result["layers"].append(layers.layer_metrics(tracer))
        i += 1
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = environment()
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["setup", "measure"])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", type=Path, required=True)
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    cli = _import_package(args.src.resolve())
    workload = workloads.WORKLOADS[args.workload]
    if args.mode == "setup":
        indir = args.dir / "in"
        indir.mkdir(parents=True, exist_ok=True)
        workload.make_inputs(indir, args.seed)
        return 0
    result = measure(cli, workload, args.dir, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
