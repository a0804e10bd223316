#!/usr/bin/env python3
"""Regenerate the committed reference outputs of the benchmark workloads.

    PYTHONPATH=src python3 perfbench/make_reference.py [WORKLOAD ...]

Runs one operation of each named workload (all by default) at benchmark
seed 0 and writes ``perfbench/reference/<workload>.json``.  A reference
pins what correct output is, so regenerate one only when a change is meant
to alter a workload's results, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402
from worker import run_operation  # noqa: E402

# relative to the largest reference magnitude of each compared list; loose
# enough for reordered floating-point sums (~1e-15 relative; certification
# slopes are log-log fits and move up to ~5e-10), tight enough to catch any
# change to the numerics
RTOL = 1e-9
RTOL_BY_KEY = {"resolved_slopes": 1e-6}


def main() -> int:
    import gstdesign.cli as cli

    names = sys.argv[1:] or sorted(workloads.WORKLOADS)
    for name in names:
        workload = workloads.WORKLOADS[name]
        with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent) as tmp:
            indir, outdir = Path(tmp) / "in", Path(tmp) / "out"
            indir.mkdir()
            outdir.mkdir()
            workload.make_inputs(indir, 0)
            _, stdouts, error = run_operation(cli, workload, indir, outdir)
            if error:
                print(f"{name}: {error}", file=sys.stderr)
                return 1
            observed = workload.observe(outdir, stdouts)
            rtol = {key: RTOL_BY_KEY.get(key, RTOL) for key in observed["close"]}
            doc = {"workload": name, "rtol": rtol, **observed}
        path = workloads.reference_path(name)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
