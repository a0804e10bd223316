#!/usr/bin/env python3
"""End-to-end single-qubit walkthrough of the library.

Selects robust and standard germ sets for the XYI gate set, builds the
full, per-germ and random designs, certifies each one at a perturbed
evaluation point and prints circuit counts, growth classifications and
wall-clock estimates.  Everything is seeded; rerunning reproduces the same
numbers.  Takes about a second.

    python3 scripts/reproduce_1q_certification.py [--outdir OUT]
"""

import argparse
import pathlib
import time

from gstdesign import design as D
from gstdesign import fisher as FI
from gstdesign import fpr as FP
from gstdesign import germs as G
from gstdesign import wallclock as W
from gstdesign.builtins import builtin_device_doc, make_xyi_gateset, standard_xyi_fiducials
from gstdesign.noise import perturbed_models


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="out_1q", help="where to drop design/report files")
    ap.add_argument("--lmax", type=int, default=256)
    args = ap.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    gs = make_xyi_gateset()
    fids = standard_xyi_fiducials()
    pool = G.germ_candidate_pool(gs.labels, 6)

    t0 = time.time()
    robust = G.select_germs([gs] + perturbed_models(gs, 5, 1e-3, seed=2026), pool).germs
    standard = G.select_germs([gs], pool).germs
    print(f"germ selection ({time.time() - t0:.1f}s):")
    print(f"  robust  ({len(robust)}): {[str(g) for g in robust]}")
    print(f"  standard ({len(standard)}): {[str(g) for g in standard]}")

    per_germ = FP.per_germ_fpr(gs, fids, fids, robust, eps_lambda=1 / 30, search_seed=11)
    print(f"per-germ FPR kept {sum(len(v) for v in per_germ.pairs_by_germ.values())} pairs "
          f"of {36 * len(robust)} (ratios >= {min(per_germ.achieved_ratio.values()):.3f})")

    schedule = D.default_schedule(args.lmax)
    designs = {
        "robust-full": D.build_design(fids, fids, robust, schedule, gateset_labels=gs.labels),
        "robust-per-germ": D.build_design(
            fids, fids, robust, schedule, per_germ.to_policy(), gateset_labels=gs.labels
        ),
        "standard-full": D.build_design(fids, fids, standard, schedule, gateset_labels=gs.labels),
        "standard-random-0.125": D.build_design(
            fids, fids, standard, schedule,
            D.FprPolicy(mode="random", gamma=0.125, seed=7), gateset_labels=gs.labels,
        ),
        "bare-full": D.build_design(
            fids, fids, G.bare_germs(gs), schedule, gateset_labels=gs.labels
        ),
    }

    eval_gs = FI.default_eval_model(gs, seed=97)
    transmons = W.DeviceParams.from_json_dict(builtin_device_doc("transmons"))
    print(f"\n{'design':<24} {'circuits':>8} {'growing':>8} {'plateaued':>9} "
          f"{'verdict':<14} {'transmon time':>13}")
    for name, design in designs.items():
        t0 = time.time()
        report = FI.certify_design(eval_gs, design, target=gs)
        wall = W.estimate(design, 100, transmons)["total"]
        verdict = "OK" if report.well_constructed else "deficient"
        print(
            f"{name:<24} {D.circuit_count(design):>8} {report.growing:>8} "
            f"{report.plateaued:>9} {verdict:<14} {wall:>11.1f} s   ({time.time() - t0:.1f}s)"
        )
        design.save(outdir / f"{name}.json")
        FI.report_to_json(report, outdir / f"{name}-report.json")

    print(f"\nfiles written under {outdir}/")


if __name__ == "__main__":
    main()
