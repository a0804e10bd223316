#!/usr/bin/env python3
"""Print one sha256 per output file and per stdout of the benchmark's CLI runs.

Runs the four workloads of ``perfbench/workloads.py`` at seed 1, with
their own inputs and invocations, and ``certify --kind incremental`` and
``--kind projected`` on the two certify designs, on the full fiducial
grid of the 2Q one and on two XYI designs at L <= 4, all in this process
at one BLAS thread.  The certify designs cover both ways a frame holds
its matrices, one column per parameter: the benchmark's reduced 2Q design
(404 rows against XYCPHASE's 1263 parameters) and ``certify-1q-rows``
(30 rows against XYI's 43) have fewer rows than parameters and are held
as their rows; ``certify-1q-grams`` (44 rows) and the 2Q grid (4040 rows)
are held as Grams from their deepest bucket on.
``simulate`` also runs on that 2Q grid design, on an XYI random-FPR
design of the benchmark's robust 1Q germs up to L = 1024 and on the XYI
standard-germ (``Gi``, ``Gx Gx Gy``, ``Gx Gx Gx Gy Gy``, ``Gx Gy Gy``)
full design up to L = 1024, so the datasets checked reach beyond
design-1q's.  Several plaquettes of the last design reach some of its
circuits, so its dataset also pins which plaquette's probabilities such
a circuit keeps.  ``germs`` runs robust XYI selection (seed 7) once with
``--germ-score sum`` and once with ``--germ-score min``, so the germ files
and stdouts of both scoring paths are pinned, and once more at seed 3,
where the ``sum`` rank update hands a test (``Gx Gx Gx Gx Gy`` with 23
chosen rows) to the eigensolve.  ``certify`` also runs on
``certify-1q-grams``' design with a gate-set file, XYI with ``Gx[3, 0] =
0.01``: a non-unital gate brings back the gauge direction unital gates
hide, so its amplifiable count is 24 and its SPAM budget 7, not 6.
``fpr --mode per-germ`` also runs on the 2Q germ ``Gxi`` (eps 0.5, seed
11), whose kite has rank 88 of 96 coordinates, so the FPR screen's cap
is 9 columns wide where ``fpr-2q``'s is one.  ``certify-1q-grams`` and
``certify-2q-grid`` are also certified with their circuits in a second
order (the workload's inputs at seed 2), and only those stdouts are
hashed, on lines named ``<workload>--order-2``.  Each must equal its
first order's: the script exits non-zero, after printing every line,
when one does not, so a
Gram-held verdict that depends on the circuit order fails the run.
Running the script on two checkouts and diffing the output shows whether
a change keeps every output byte-identical:

    PYTHONPATH=src python3 scripts/output_digests.py > digests.txt

With a directory argument (which must not exist yet) the inputs, the
outputs and each stdout (under ``stdout/``) are kept there, so the
outputs of two checkouts can also be compared by value.

Each ``.json`` output also gets a layout-independent digest, on a line
ending in ``(content)``: the sha256 of the parsed document re-encoded
compactly with sorted keys.  Two runs whose JSON files differ only in
layout (indentation, key order, a final newline) agree on these lines.
The working directory's path is replaced by ``<dir>`` before a stdout is
hashed, so the digests do not depend on where the run happens.
"""

import os

# before numpy loads: one BLAS thread, so the last bits of products are fixed
os.environ.update({var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the operation --kind projected restricts to, per gate set
PROJECTED_OP = {"xyi": "Gx", "xycphase": "Gcphase"}
# Gram-held certify workloads also run with their circuits in this seed's order
REORDERED = ("certify-1q-grams", "certify-2q-grid")
SECOND_ORDER_SEED = 2


def load_workloads():
    sys.dont_write_bytecode = True  # leave perfbench/ untouched
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    return workloads


def all_workloads(workloads) -> dict:
    """The benchmark's workloads, the full-grid 2Q certify design and two
    XYI certify designs at L <= 4: 15 circuits (30 rows, held as rows
    against the 43 parameters) and 22 circuits (44 rows, held as Grams
    from the deepest bucket on)."""
    wide = workloads.WORKLOADS["certify-2q-wide"]
    grid = dataclasses.replace(wide, name="certify-2q-grid", n_prep=None, n_meas=None)
    below = dataclasses.replace(
        wide, name="certify-1q-rows", gateset="xyi", germs=("Gx",), lmax=4, n_prep=1, n_meas=3
    )
    above = dataclasses.replace(below, name="certify-1q-grams", germs=("Gx", "Gy", "Gx Gx Gy"))
    return {**workloads.WORKLOADS, **{w.name: w for w in (grid, below, above)}}


def simulate_argv(gateset: str, design: Path, outdir: Path) -> list[str]:
    return ["simulate", "--gateset", gateset, "--design", str(design), "--seed", "5",
            "--out", str(outdir / "dataset.json")]


def make_extra_inputs(workloads, indir: Path) -> None:
    """The germ files of the XYI random-FPR design and of the 2Q ``Gxi``
    FPR run, and the non-unital XYI gate-set file."""
    from gstdesign.builtins import builtin_gateset

    (indir / "xyi-random").mkdir(parents=True)
    germs = [g.split() for g in workloads.GERMS_1Q_ROBUST]
    (indir / "xyi-random" / "germs.json").write_text(json.dumps(germs))
    (indir / "xycphase-gxi").mkdir()
    (indir / "xycphase-gxi" / "germs.json").write_text(json.dumps([["Gxi"]]))
    xyi = builtin_gateset("xyi")
    gx = xyi.gates["Gx"].copy()
    gx[3, 0] = 0.01  # still trace preserving, no longer unital
    (indir / "xyi-non-unital").mkdir()
    dataclasses.replace(xyi, gates={**xyi.gates, "Gx": gx}).save(indir / "xyi-non-unital" / "gateset.json")


def extra_runs(indir: Path, outroot: Path):
    """``simulate`` on the 2Q grid design, on an XYI random-FPR design and
    on the XYI standard-germ full design, robust XYI ``germs`` under each
    ``--germ-score`` and at seed 3, ``certify`` of ``certify-1q-grams``' design at the
    non-unital XYI gate set, then 2Q per-germ ``fpr`` on the germ ``Gxi``."""
    outdir = outroot / "certify-2q-grid--simulate"
    yield outdir.name, [simulate_argv("xycphase", indir / "certify-2q-grid" / "design.json", outdir)], outdir
    outdir = outroot / "xyi-random--simulate"
    design = [
        "design", "--gateset", "xyi", "--germ-file", str(indir / "xyi-random" / "germs.json"),
        "--fpr", "random", "--Lmax", "1024", "--seed", "3", "--out", str(outdir / "design.json"),
    ]
    yield outdir.name, [design, simulate_argv("xyi", outdir / "design.json", outdir)], outdir
    # several plaquettes reach some of its circuits, with different bits from each
    outdir = outroot / "xyi-standard-full--simulate"
    design = [
        "design", "--gateset", "xyi", "--germs", "standard", "--fpr", "full", "--Lmax", "1024",
        "--seed", "1", "--out", str(outdir / "design.json"),
    ]
    yield outdir.name, [design, simulate_argv("xyi", outdir / "design.json", outdir)], outdir
    # the rank update scores sum, the eigensolve min
    for score in ("sum", "min"):
        outdir = outroot / f"xyi-robust--germs-{score}"
        germs = [
            "germs", "--gateset", "xyi", "--germs", "robust", "--seed", "7", "--germ-score", score,
            "--out", str(outdir / "germs.json"),
        ]
        yield outdir.name, [germs], outdir
    # the update defers one of seed 3's tests to the eigensolve
    outdir = outroot / "xyi-robust-seed3--germs"
    germs = [
        "germs", "--gateset", "xyi", "--germs", "robust", "--seed", "3", "--out", str(outdir / "germs.json"),
    ]
    yield outdir.name, [germs], outdir
    outdir = outroot / "certify-1q-grams--non-unital"
    certify = [
        "certify", "--gateset", str(indir / "xyi-non-unital" / "gateset.json"),
        "--design", str(indir / "certify-1q-grams" / "design.json"),
        "--csv", str(outdir / "spectra.csv"), "--report", str(outdir / "report.json"),
    ]
    yield outdir.name, [certify], outdir
    # rank 88 of 96 kite coordinates: the screen's cap is 9 columns wide
    outdir = outroot / "xycphase-gxi--fpr"
    fpr = [
        "fpr", "--gateset", "xycphase", "--germ-file", str(indir / "xycphase-gxi" / "germs.json"),
        "--mode", "per-germ", "--eps", "0.5", "--seed", "11", "--out", str(outdir / "fpr.json"),
    ]
    yield outdir.name, [fpr], outdir


def runs(workloads, indir: Path, outroot: Path):
    """(name, argv list, output directory) of every run of every workload,
    then of :func:`extra_runs`."""
    for name, workload in all_workloads(workloads).items():
        outdir = outroot / name
        yield name, workload.invocations(indir / name, outdir), outdir
        if isinstance(workload, workloads.Certify):
            for kind in ("incremental", "projected"):
                outdir = outroot / f"{name}--kind-{kind}"
                extra = ["--kind", kind] + (["--op", PROJECTED_OP[workload.gateset]] if kind == "projected" else [])
                yield outdir.name, [argv + extra for argv in workload.invocations(indir / name, outdir)], outdir
    yield from extra_runs(indir, outroot)


def reordered_name(name: str) -> str:
    return f"{name}--order-{SECOND_ORDER_SEED}"


def reordered_runs(workloads_by_name: dict, indir: Path, outroot: Path):
    """(name, argv list, output directory) of each :data:`REORDERED`
    workload on the inputs of its second order."""
    for name in REORDERED:
        second = reordered_name(name)
        yield second, workloads_by_name[name].invocations(indir / second, outroot / second), outroot / second


def content_digest(data: bytes) -> str:
    """sha256 of a JSON document, independent of the file's layout."""
    canonical = json.dumps(json.loads(data), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def main() -> None:
    from gstdesign import cli

    workloads = load_workloads()
    by_name = all_workloads(workloads)
    keep = sys.argv[1] if len(sys.argv) > 1 else None
    with contextlib.nullcontext(keep) if keep else tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)

        def print_stdout_digests(name: str, argvs: list[list[str]], outdir: Path) -> list[str]:
            """Run ``argvs`` in order, print each stdout's digest and return them."""
            outdir.mkdir(parents=True)
            digests = []
            for k, argv in enumerate(argvs):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                if code != 0:
                    raise SystemExit(f"{name}: {argv[0]} exited {code}")
                text = out.getvalue().replace(tmp, "<dir>")
                if keep:
                    (root / "stdout").mkdir(exist_ok=True)
                    (root / "stdout" / f"{name}.{k}.txt").write_text(text)
                digests.append(hashlib.sha256(text.encode()).hexdigest())
                print(f"{digests[-1]}  {name}/stdout.{k}")
            return digests

        for name, workload in by_name.items():
            (root / "in" / name).mkdir(parents=True)
            workload.make_inputs(root / "in" / name, 1)
        for name in REORDERED:
            (root / "in" / reordered_name(name)).mkdir(parents=True)
            by_name[name].make_inputs(root / "in" / reordered_name(name), SECOND_ORDER_SEED)
        make_extra_inputs(workloads, root / "in")
        stdouts = {}
        for name, argvs, outdir in runs(workloads, root / "in", root / "out"):
            stdouts[name] = print_stdout_digests(name, argvs, outdir)
            for path in sorted(outdir.iterdir()):
                data = path.read_bytes()
                print(f"{hashlib.sha256(data).hexdigest()}  {name}/{path.name}")
                if path.suffix == ".json":
                    print(f"{content_digest(data)}  {name}/{path.name} (content)")
        # a second circuit order: its stdout alone, which must equal the first order's
        differ = [
            second
            for name, (second, argvs, outdir) in zip(REORDERED, reordered_runs(by_name, root / "in", root / "out"))
            if print_stdout_digests(second, argvs, outdir) != stdouts[name]
        ]
    if differ:
        raise SystemExit(f"stdout differs from its first circuit order's: {', '.join(differ)}")


if __name__ == "__main__":
    main()
