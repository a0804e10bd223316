"""The four benchmark workloads: seeded inputs, CLI invocations, output checks.

A workload makes its input files from the benchmark seed, names the
``gstdesign`` CLI invocations of one operation, and reduces the files an
operation wrote to an *observation*: a dict with an ``exact`` part that
must equal the committed reference and a ``close`` part compared within
the reference's relative tolerance for that key (see :func:`compare`).

The seed only changes inputs in ways the outputs must not depend on: the
order of circuits in a design file (which reorders floating-point sums,
so certification spectra move in the last bits) and the JSON layout of
germ and fiducial files.  Every seed therefore checks against the same
reference and costs the same work.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GERMS_1Q_ROBUST = (
    "Gi", "Gx", "Gy", "Gx Gy",
    "Gi Gi Gi Gi Gi Gy", "Gi Gi Gi Gi Gi Gx", "Gi Gi Gi Gx Gy Gy",
    "Gx Gx Gy Gx Gy Gy", "Gi Gi Gy Gx Gx Gx", "Gi Gi Gi Gi Gx Gy",
)

# seeds handed to the CLI; fixed, so every benchmark seed has one reference
CLI_SEEDS = {"perturb": 97, "fpr": 11, "design": 7, "simulate": 5}

# a certified direction is resolved when its deepest-layer information
# exceeds this share of the largest one; below it sits rounding noise
RESOLVED_INFO = 1e-8
# CertificationThresholds.slope_threshold
SLOPE_THRESHOLD = 0.8


def _layout(seed: int, items: list, key: str):
    """One of several equivalent JSON spellings of a label-list file."""
    doc = items if seed % 2 == 0 else {key: items}
    return json.dumps(doc, indent=1 if seed % 3 == 0 else None)


def _write(path: Path, text: str) -> None:
    path.write_text(text + "\n")


def _compare(obs, ref, rtol: float, where: str, errors: list[str]) -> None:
    """Recursive closeness check.  A flat list of numbers is compared with
    a tolerance relative to its largest reference magnitude, so tiny
    entries of a spectrum are judged on the spectrum's scale."""
    if isinstance(ref, dict):
        if not isinstance(obs, dict) or set(obs) != set(ref):
            errors.append(f"{where}: keys differ")
            return
        for k in ref:
            _compare(obs[k], ref[k], rtol, f"{where}.{k}", errors)
    elif isinstance(ref, list) and ref and isinstance(ref[0], (list, dict)):
        if not isinstance(obs, list) or len(obs) != len(ref):
            errors.append(f"{where}: length {len(obs) if isinstance(obs, list) else '?'} != {len(ref)}")
            return
        for i, (o, r) in enumerate(zip(obs, ref)):
            _compare(o, r, rtol, f"{where}[{i}]", errors)
    else:
        o = np.atleast_1d(np.asarray(obs, dtype=float))
        r = np.atleast_1d(np.asarray(ref, dtype=float))
        if o.shape != r.shape:
            errors.append(f"{where}: shape {o.shape} != {r.shape}")
            return
        scale = float(np.max(np.abs(r))) if r.size else 0.0
        worst = float(np.max(np.abs(o - r))) if r.size else 0.0
        if not worst <= rtol * scale:
            errors.append(f"{where}: off by {worst:.3g} (tolerance {rtol:g} x {scale:.3g})")


def compare(observed: dict, reference: dict) -> list[str]:
    """Mismatches between an observation and a committed reference."""
    errors = []
    for key, want in reference["exact"].items():
        got = observed["exact"].get(key)
        if got != want:
            errors.append(f"exact.{key}: got {str(got)[:120]}, want {str(want)[:120]}")
    for key, want in reference["close"].items():
        _compare(observed["close"].get(key), want, reference["rtol"][key], f"close.{key}", errors)
    return errors


@dataclass(frozen=True)
class Workload:
    name: str

    def make_inputs(self, indir: Path, seed: int) -> None:
        raise NotImplementedError

    def invocations(self, indir: Path, outdir: Path) -> list[list[str]]:
        raise NotImplementedError

    def observe(self, outdir: Path, stdouts: list[str]) -> dict:
        raise NotImplementedError

    def seeds(self, seed: int) -> dict:
        return {"benchmark": seed}


@dataclass(frozen=True)
class Certify(Workload):
    """``certify --csv --report`` on a full-grid design of fixed germs."""

    gateset: str = "xyi"
    germs: tuple[str, ...] = ()
    lmax: int = 1
    n_prep: int | None = None
    n_meas: int | None = None

    def make_inputs(self, indir, seed):
        from gstdesign import builtins as bi
        from gstdesign import design as dz
        from gstdesign.model import Circuit

        gs = bi.builtin_gateset(self.gateset)
        preps = bi.builtin_fiducials(self.gateset, "prep")[: self.n_prep]
        meass = bi.builtin_fiducials(self.gateset, "meas")[: self.n_meas]
        germs = [Circuit(tuple(g.split())) for g in self.germs]
        design = dz.build_design(
            preps, meass, germs, dz.default_schedule(self.lmax),
            gateset_labels=gs.labels, gateset_ref=self.gateset,
        )
        doc = design.to_json_dict()
        order = np.random.default_rng(seed).permutation(len(doc["circuits"]))
        doc["circuits"] = [doc["circuits"][i] for i in order]
        _write(indir / "design.json", json.dumps(doc, indent=1, sort_keys=True))

    def invocations(self, indir, outdir):
        return [[
            "certify", "--gateset", self.gateset, "--design", str(indir / "design.json"),
            "--perturb-seed", str(CLI_SEEDS["perturb"]),
            "--csv", str(outdir / "spectra.csv"), "--report", str(outdir / "report.json"),
        ]]

    def observe(self, outdir, stdouts):
        report = json.loads((outdir / "report.json").read_text())
        with open(outdir / "spectra.csv", newline="") as f:
            rows = list(csv.reader(f))[1:]
        depths = sorted({int(r[0]) for r in rows})
        spectra = [[float(r[2]) for r in rows if int(r[0]) == d] for d in depths]
        info = np.array(report["total_information"])
        slopes = np.array(report["slopes"])
        resolved = info > RESOLVED_INFO * info.max()
        exact = {
            "spam_budget": report["spam_budget"],
            "verdict": report["verdict"],
            "gauge_null_count": report["gauge_null_count"],
            "maxdepths": report["maxdepths"],
            "csv_depths": depths,
            "resolved_directions": int(resolved.sum()),
            "resolved_growing": int(np.sum(slopes[resolved] >= SLOPE_THRESHOLD)),
        }
        # a direction with no information has a slope set by rounding noise,
        # so the raw counts (and the stdout that prints them) are checked
        # only when every direction is resolved
        if resolved.all():
            exact.update(
                stdout=stdouts[0],
                growing=report["growing"],
                plateaued=report["plateaued"],
                insensitive_directions=report["insensitive_directions"],
            )
        return {
            "exact": exact,
            "close": {
                "spectra": spectra,
                "total_information": sorted(report["total_information"]),
                "resolved_slopes": sorted(slopes[resolved].tolist()),
            },
        }

    def seeds(self, seed):
        return {"benchmark": seed, "circuit_order": seed, "certify_perturb": CLI_SEEDS["perturb"]}


@dataclass(frozen=True)
class Fpr(Workload):
    """2Q ``fpr --mode per-germ --eps 0.5`` on the germ ``Gcphase Gxi Giy``."""

    def make_inputs(self, indir, seed):
        _write(indir / "germs.json", _layout(seed, [["Gcphase", "Gxi", "Giy"]], "germs"))

    def invocations(self, indir, outdir):
        return [[
            "fpr", "--gateset", "xycphase", "--germ-file", str(indir / "germs.json"),
            "--mode", "per-germ", "--eps", "0.5", "--seed", str(CLI_SEEDS["fpr"]),
            "--out", str(outdir / "fpr.json"),
        ]]

    def observe(self, outdir, stdouts):
        doc = json.loads((outdir / "fpr.json").read_text())
        return {
            "exact": {
                "pairs_by_germ": doc["pairs_by_germ"],
                "baseline_rank": doc["baseline_rank"],
                "fallback_germs": doc["fallback_germs"],
            },
            "close": {"achieved_ratio": doc["achieved_ratio"]},
        }

    def seeds(self, seed):
        return {"benchmark": seed, "file_layout": seed, "fpr_search": CLI_SEEDS["fpr"]}


@dataclass(frozen=True)
class DesignChain(Workload):
    """1Q ``design`` with robust germ selection and per-germ FPR, then
    ``simulate`` and ``wallclock`` on the design it wrote."""

    def make_inputs(self, indir, seed):
        from gstdesign import builtins as bi

        for kind in ("prep", "meas"):
            fids = [list(c.labels) for c in bi.builtin_fiducials("xyi", kind)]
            _write(indir / f"{kind}.json", _layout(seed, fids, "fiducials"))

    def invocations(self, indir, outdir):
        design = str(outdir / "design.json")
        return [
            [
                "design", "--gateset", "xyi", "--germs", "robust", "--fpr", "per-germ",
                "--eps", "0.0333", "--Lmax", "1024", "--seed", str(CLI_SEEDS["design"]),
                "--prep-fiducials", str(indir / "prep.json"),
                "--meas-fiducials", str(indir / "meas.json"), "--out", design,
            ],
            [
                "simulate", "--gateset", "xyi", "--design", design,
                "--seed", str(CLI_SEEDS["simulate"]), "--out", str(outdir / "dataset.json"),
            ],
            [
                "wallclock", "--device", "all", "--gateset", "xyi", "--design", design,
                "--report", str(outdir / "wallclock.json"),
            ],
        ]

    def observe(self, outdir, stdouts):
        design = json.loads((outdir / "design.json").read_text())
        dataset = json.loads((outdir / "dataset.json").read_text())
        wall = json.loads((outdir / "wallclock.json").read_text())
        canonical = json.dumps(dataset, sort_keys=True, separators=(",", ":")).encode()
        buckets = [c["L"] for c in design["circuits"]]
        return {
            "exact": {
                "germs": [" ".join(g) for g in design["germs"]],
                "circuits": len(design["circuits"]),
                "circuits_by_depth": {str(d): sum(b <= d for b in buckets) for d in design["maxdepths"]},
                "pairs_by_germ": design["fpr_policy"]["pairs_by_germ"],
                "dataset_circuits": len(dataset["circuits"]),
                "dataset_sha256": hashlib.sha256(canonical).hexdigest(),
                "wallclock_devices": {d: [r["n_circuits"] for r in rows] for d, rows in wall.items()},
            },
            "close": {
                "wallclock_totals": {d: [[r["T_c"], r["T_u"], r["total"]] for r in rows] for d, rows in wall.items()},
            },
        }

    def seeds(self, seed):
        return {
            "benchmark": seed, "file_layout": seed,
            "design": CLI_SEEDS["design"], "simulate": CLI_SEEDS["simulate"],
        }


WORKLOADS = {
    w.name: w
    for w in (
        Certify("certify-1q-deep", gateset="xyi", germs=GERMS_1Q_ROBUST, lmax=128),
        Certify(
            "certify-2q-wide", gateset="xycphase", germs=("Gxi", "Gcphase Gxi Giy"), lmax=4,
            n_prep=4, n_meas=3,
        ),
        Fpr("fpr-2q"),
        DesignChain("design-1q"),
    )
}


def reference_path(name: str) -> Path:
    return Path(__file__).resolve().parent / "reference" / f"{name}.json"
