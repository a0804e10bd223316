"""Command-line front end: design, certify, simulate, wallclock, fiducials, germs, fpr.

Every randomized subcommand requires an explicit ``--seed`` and is
deterministic end to end (rerunning writes byte-identical files);
``germs`` takes ``--seed`` with ``--germs robust`` only.  Exit
codes: 0 on success, 2 for usage errors (argparse, including a negative
seed, and a noise sigma so large that the sampled model is not finite), 3
for unreadable or invalid input files, for an output file that cannot be
written (every output path is checked before any work starts) and for a
design certify cannot classify (a single max depth), 4 when a fiducial
pool is not informationally complete, 5 when a germ candidate pool is not
amplificationally complete.  JSON outputs are one compact line with sorted
keys (``design --circuit-text`` writes a readable circuit list).
Fisher-information products run on the BLAS threads numpy is configured
with (``OPENBLAS_NUM_THREADS`` and the like).
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import itertools
import json
import os
import stat
import sys

import numpy as np

from . import builtins as bi
from . import design as dz
from . import fisher as fz
from . import fpr as fprz
from . import germs as gz
from . import noise as nz
from . import wallclock as wz
from .fiducials import (
    PoolNotInformationallyComplete,
    fiducial_candidate_pool,
    fiducial_score,
    per_qubit_pattern_pool,
    qubit_gate_pairs,
    select_fiducials,
)
from .model import Circuit, GateSet, param_blocks, write_json

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BAD_INPUT = 3
EXIT_POOL_NOT_IC = 4
EXIT_POOL_NOT_AC = 5


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_BAD_INPUT):
        super().__init__(message)
        self.code = code


def _read_input(what: str, path: str, load):
    """``load(path)``, with a missing, unreadable or malformed file reported
    as a :class:`CliError` (exit 3)."""
    try:
        return load(path)
    except FileNotFoundError:
        raise CliError(f"{what} file not found: {path}") from None
    except (OSError, ValueError, LookupError, TypeError, AttributeError, ArithmeticError) as exc:
        raise CliError(f"invalid {what} file {path}: {exc}") from None


def _check_labels(what: str, path: str, label_lists, gs: GateSet) -> None:
    """Exit 3 when a file's label sequences use a label ``gs`` lacks."""
    unknown = set(itertools.chain.from_iterable(label_lists)) - set(gs.labels)
    if unknown:
        raise CliError(f"{what} file {path} uses labels not in the gate set: {sorted(unknown)}")


def _load_gateset(spec: str) -> GateSet:
    if spec in bi.BUILTIN_GATESETS:
        return bi.builtin_gateset(spec)

    def load(path: str) -> GateSet:
        gs = GateSet.load(path)
        gs.validate()
        return gs

    return _read_input("gate set", spec, load)


def _load_device(spec: str) -> wz.DeviceParams:
    if spec in bi.BUILTIN_DEVICES:
        return wz.DeviceParams.from_json_dict(bi.builtin_device_doc(spec))
    return _read_input("device", spec, wz.DeviceParams.load)


def _read_json(path: str):
    with open(path) as f:
        return json.load(f)


def _load_circuit_list(path: str, what: str, gs: GateSet) -> list[Circuit]:
    """Read a non-empty JSON list of label arrays and check every label
    belongs to ``gs``.  A germ must hold a label; a fiducial may be empty."""
    doc = _read_input(what, path, _read_json)
    if isinstance(doc, dict):
        doc = doc.get("circuits", doc.get("germs", doc.get("fiducials")))
    if not isinstance(doc, list) or not all(isinstance(c, list) and all(isinstance(x, str) for x in c) for c in doc):
        raise CliError(f"invalid {what} file {path}: expected a list of label arrays")
    if not doc:
        raise CliError(f"invalid {what} file {path}: the list is empty")
    if what == "germ" and not all(doc):
        raise CliError(f"invalid germ file {path}: a germ is empty")
    _check_labels(what, path, doc, gs)
    return [Circuit(tuple(labels)) for labels in doc]


def _load_design(path: str, gs: GateSet | None) -> dz.ExperimentDesign:
    """Load a design file; with ``gs``, also check that every label of its
    circuits, fiducials and germs belongs to that gate set."""
    design = _read_input("design", path, dz.ExperimentDesign.load)
    if gs is not None:
        parts = (design.circuits, design.prep_fiducials, design.meas_fiducials, design.germs)
        _check_labels("design", path, (c.labels for c in itertools.chain(*parts)), gs)
    return design


def _default_fiducials(args, gs: GateSet, kind: str) -> list[Circuit]:
    path = args.prep_fiducials if kind == "prep" else args.meas_fiducials
    if path:
        return _load_circuit_list(path, f"{kind} fiducials", gs)
    if args.gateset in bi.BUILTIN_GATESETS:
        return bi.builtin_fiducials(args.gateset, kind)
    # no list given: run greedy selection over the default candidate pool
    try:
        return select_fiducials(gs, fiducial_candidate_pool(gs.labels, 3), kind)
    except PoolNotInformationallyComplete as exc:
        raise CliError(str(exc), EXIT_POOL_NOT_IC) from None


def _germ_set(args, gs: GateSet) -> list[Circuit]:
    if args.germ_file:
        return _load_circuit_list(args.germ_file, "germ", gs)
    if args.germs == "bare":
        return gz.bare_germs(gs)
    return _select_germs(args, gs).germs


def _select_germs(args, gs: GateSet) -> gz.GermSelectionResult:
    """Greedy robust or standard germ selection over the default pool."""
    models = [gs]
    if args.germs == "robust":
        models += nz.perturbed_models(gs, args.robust_models, args.perturb_sigma, args.seed + 7919)
    pool = gz.germ_candidate_pool(gs.labels, args.germ_depth)
    try:
        return gz.select_germs(models, pool, score_fn=args.germ_score)
    except gz.GermSelectionError as exc:
        raise CliError(str(exc), EXIT_POOL_NOT_AC) from None


@contextlib.contextmanager
def _writing(path: str):
    """Report an output file that cannot be written as a :class:`CliError`
    (exit 3) naming it."""
    try:
        yield
    except OSError as exc:
        raise CliError(f"cannot write output file {path}: {exc.strerror or exc}") from None


def _check_writable(path: str) -> None:
    """Exit 3 naming ``path`` unless a file can be written there: its parent
    is an existing, writable directory and it is no directory itself.
    Nothing is created, so :func:`main` runs this before any work."""

    def fail(code: int):
        raise OSError(code, os.strerror(code))

    parent = os.path.dirname(os.path.abspath(path))
    with _writing(path):
        if os.path.isdir(path):
            fail(errno.EISDIR)
        if not stat.S_ISDIR(os.stat(parent).st_mode):  # a missing parent raises here
            fail(errno.ENOTDIR)
        if not os.access(parent, os.W_OK | os.X_OK):
            fail(errno.EACCES)


def _write_json(path: str, doc) -> None:
    with _writing(path):
        write_json(path, doc)


def cmd_design(args) -> int:
    gs = _load_gateset(args.gateset)
    preps = _default_fiducials(args, gs, "prep")
    meass = _default_fiducials(args, gs, "meas")
    germs = _germ_set(args, gs)
    schedule = dz.default_schedule(args.lmax)

    if args.fpr == "full":
        policy = dz.FprPolicy(mode="full")
    elif args.fpr == "random":
        policy = dz.FprPolicy(mode="random", gamma=args.gamma, seed=args.seed, rounding=args.rounding)
    else:
        policy = fprz.per_germ_fpr(gs, preps, meass, germs, eps_lambda=args.eps, search_seed=args.seed).to_policy()

    design = dz.build_design(
        preps, meass, germs, schedule, policy, gateset_labels=gs.labels, gateset_ref=args.gateset
    )
    with _writing(args.out):
        design.save(args.out)
    if args.circuit_text:
        with _writing(args.circuit_text), open(args.circuit_text, "w") as f:
            f.write(design.circuit_text())
    print(f"design written to {args.out}")
    print(f"germs ({len(germs)}): {[str(g) for g in germs]}")
    print("cumulative circuit counts:")
    for depth, count in dz.count_by_depth(design).items():
        print(f"  L={depth:6d}  {count}")
    return EXIT_OK


def cmd_certify(args) -> int:
    gs = _load_gateset(args.gateset)
    design = _load_design(args.design, gs)
    if args.kind == "projected" and args.op not in param_blocks(gs):
        raise CliError(f"unknown operation label {args.op!r}; have {sorted(param_blocks(gs))}")
    try:
        fz.require_certifiable(design)
        gs_eval = fz.default_eval_model(gs, seed=args.perturb_seed, sigma=args.perturb_sigma)
        frame = fz.NongaugeFrame(gs_eval, design, args.shots)
        report = fz.certify_design(gs_eval, design, target=gs, shots=args.shots, frame=frame)
    except fz.CertificationError as exc:
        raise CliError(f"cannot certify {args.design}: {exc}") from None
    if args.csv:
        if args.kind == "projected":
            series = fz.block_series(design, frame, param_blocks(gs)[args.op])
        else:
            series = (fz.cumulative_series if args.kind == "cumulative" else fz.incremental_series)(design, frame)
        classes = report.classifications() if args.kind == "cumulative" else None
        with _writing(args.csv):
            fz.series_to_csv(series, args.csv, classes)
    if args.report:
        with _writing(args.report):
            fz.report_to_json(report, args.report)
    print(f"growing: {report.growing}  plateaued: {report.plateaued} (SPAM budget {report.spam_budget})")
    print(f"insensitive directions at deepest layer: {len(report.insensitive)}")
    print(f"verdict: {report.verdict}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    gs = _load_gateset(args.gateset)
    design = _load_design(args.design, gs)
    # coherent-only noise has no depolarization; main refuses an --eta with it
    eta = 0.0 if args.noise == "coherent-only" else 0.001 if args.eta is None else args.eta
    noisy = nz.sample_noisy_gateset(gs, nz.NoiseSpec(args.noise, args.sigma, eta, args.seed))
    dataset = nz.simulate_dataset(noisy, design, args.shots, args.seed)
    with _writing(args.out):
        dataset.save(args.out)
    print(f"dataset with {len(dataset.circuits)} circuits x {args.shots} shots written to {args.out}")
    return EXIT_OK


def cmd_wallclock(args) -> int:
    devices = list(bi.BUILTIN_DEVICES) if args.device == "all" else [args.device]
    given = _load_gateset(args.gateset) if args.gateset else None
    columns = []
    for path in args.design or []:
        design = _load_design(path, given)
        gs = given
        if gs is None and design.gateset_ref:
            # without --gateset, the two-qubit labels come from the gate set the design names
            gs = _load_gateset(design.gateset_ref)
        columns.append((path, design, gs.two_qubit_labels if gs else None))
    columns += [(f"{count} circuits", count, None) for count in args.circuits or []]
    if not columns:
        raise CliError("need at least one --design or --circuits")

    reports = {}
    for dev_name in devices:
        dev = _load_device(dev_name)
        # estimate reads the labels for a design, the depth and fraction for a count
        reports[dev_name] = [
            wz.estimate(
                payload, args.shots, dev, two_qubit_labels=two_q,
                mean_depth=args.mean_depth, two_qubit_fraction=args.two_qubit_fraction,
            )
            for _, payload, two_q in columns
        ]

    def fmt(seconds: float) -> str:
        if seconds < 120:
            return f"{seconds:.3g} s"
        if seconds < 7200:
            return f"{seconds / 60:.2g} min"
        return f"{seconds / 3600:.2g} hr"

    header = ["device"]
    for label, _, _ in columns:
        header += [f"{label} time", "speedup"]
    print("  ".join(header))
    for dev_name, row in reports.items():
        cells = [dev_name]
        base = row[0]["total"]
        for rep in row:
            speed = base / rep["total"] if rep["total"] > 0 else float("inf")
            cells += [fmt(rep["total"]), f"{speed:.1f}x"]
        print("  ".join(cells))
    if args.report:
        _write_json(args.report, reports)
    return EXIT_OK


def cmd_fiducials(args) -> int:
    gs = _load_gateset(args.gateset)
    if args.pool == "per-qubit":
        try:
            pool = per_qubit_pattern_pool(*qubit_gate_pairs(gs))
        except ValueError as exc:
            raise CliError(f"argument --pool: {exc}", EXIT_USAGE) from None
    else:
        pool = fiducial_candidate_pool(gs.labels, args.max_depth or 3)
    try:
        chosen = select_fiducials(gs, pool, args.kind, rel_improvement=args.rel_improvement)
    except PoolNotInformationallyComplete as exc:
        raise CliError(str(exc), EXIT_POOL_NOT_IC) from None
    score = fiducial_score(gs, chosen, args.kind)
    _write_json(args.out, [list(c.labels) for c in chosen])
    print(f"{len(chosen)} {args.kind} fiducials written to {args.out}")
    print(f"rank {score.rank} (required {score.required_rank}); smallest kept eigenvalue {score.score:.6g}")
    print("spectrum:", [round(float(x), 6) for x in sorted(score.spectrum, reverse=True)])
    return EXIT_OK


def cmd_germs(args) -> int:
    gs = _load_gateset(args.gateset)
    if args.germs == "bare":
        germs = gz.bare_germs(gs)
        _write_json(args.out, [list(g.labels) for g in germs])
        print(f"{len(germs)} bare germs written to {args.out}")
        return EXIT_OK
    result = _select_germs(args, gs)
    _write_json(args.out, [list(g.labels) for g in result.germs])
    print(f"{len(result.germs)} germs written to {args.out}")
    print(f"per-model ranks: {result.ranks} (targets {result.targets})")
    for step in result.trajectory:
        print(f"  + {step['added']:<24} ranks {step['ranks']} worst score {step['worst_score']:.4g}")
    return EXIT_OK


def cmd_fpr(args) -> int:
    gs = _load_gateset(args.gateset)
    preps = _default_fiducials(args, gs, "prep")
    meass = _default_fiducials(args, gs, "meas")
    germs = _load_circuit_list(args.germ_file, "germ", gs)
    if args.mode == "per-germ":
        result = fprz.per_germ_fpr(gs, preps, meass, germs, eps_lambda=args.eps, search_seed=args.seed)
        doc = {
            **result.to_policy().to_json_dict(),
            "achieved_ratio": {str(k): v for k, v in result.achieved_ratio.items()},
            "baseline_rank": {str(k): v for k, v in result.baseline_rank.items()},
            "fallback_germs": sorted(result.fell_back_to_full),
        }
        _write_json(args.out, doc)
        print(f"per-germ FPR for {len(germs)} germs written to {args.out}")
        for k in sorted(result.pairs_by_germ):
            print(
                f"  germ {k}: kept {len(result.pairs_by_germ[k])} pairs,"
                f" ratio {result.achieved_ratio[k]:.4f}"
            )
    else:
        policy = dz.FprPolicy(mode="random", gamma=args.gamma, seed=args.seed, rounding=args.rounding)
        plaqs = dz.plaquettes(germs, dz.default_schedule(args.lmax), policy, len(preps), len(meass))
        doc = {
            **policy.to_json_dict(),
            "pairs": {f"{p.germ_index}@{p.max_depth}": [list(pair) for pair in p.pairs] for p in plaqs},
        }
        _write_json(args.out, doc)
        print(f"random FPR pair sets for {len(plaqs)} plaquettes written to {args.out}")
    return EXIT_OK


def _checked(convert, ok, want: str):
    """An argparse type: ``convert(text)``, rejected unless ``ok`` of it holds."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must {want}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "be a positive integer")
_seed = _checked(int, lambda v: v >= 0, "be a non-negative integer")
# simulate writes its counts as int64, so no count may exceed this
_INT64_MAX = int(np.iinfo(np.int64).max)
_shot_count = _checked(int, lambda v: 1 <= v <= _INT64_MAX, f"be a positive integer no larger than {_INT64_MAX}")
_fraction = _checked(float, lambda v: 0.0 < v <= 1.0, "lie in (0, 1]")
_nonnegative = _checked(float, lambda v: 0.0 <= v < float("inf"), "be a finite number >= 0")
_unit_interval = _checked(float, lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")
_depolarization = _checked(float, lambda v: 0.0 <= v < 1.0, "lie in [0, 1)")


def _add_gateset(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gateset", required=True, help="builtin name (xyi, xycphase) or JSON path")


def _add_common(p: argparse.ArgumentParser) -> None:
    _add_gateset(p)
    p.add_argument("--seed", type=_seed, required=True, help="master RNG seed")


def _add_germ_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--germs", choices=["robust", "standard", "bare"], default="standard")
    p.add_argument("--germ-depth", type=_positive_int, default=6, help="candidate germ pool depth bound")
    p.add_argument("--germ-score", choices=["sum", "min"], default="sum")
    p.add_argument("--robust-models", type=_positive_int, default=5, help="perturbed models for robust mode")
    p.add_argument("--perturb-sigma", type=_nonnegative, default=1e-3)


def _add_fpr_options(p: argparse.ArgumentParser) -> None:
    """Fiducial lists and FPR settings, shared by ``design`` and ``fpr``."""
    p.add_argument("--prep-fiducials", help="JSON list of label arrays")
    p.add_argument("--meas-fiducials", help="JSON list of label arrays")
    p.add_argument("--eps", type=_fraction, default=1.0 / 30.0, help="per-germ FPR eigenvalue ratio")
    p.add_argument("--gamma", type=_fraction, default=0.125, help="random FPR keep fraction")
    p.add_argument("--rounding", choices=["floor", "ceil"], default="floor")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gstdesign", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="select circuits and write a design file")
    _add_common(p)
    _add_germ_options(p)
    p.add_argument("--germ-file", help="JSON list of germ label arrays (skips selection)")
    _add_fpr_options(p)
    p.add_argument("--fpr", choices=["full", "per-germ", "random"], default="full")
    p.add_argument("--Lmax", dest="lmax", type=_positive_int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--circuit-text", help="also write newline-delimited circuit list")
    p.set_defaults(func=cmd_design, outputs=("out", "circuit_text"))

    p = sub.add_parser("certify", help="Fisher-information certification of a design")
    _add_gateset(p)
    p.add_argument("--design", required=True)
    p.add_argument("--shots", type=_positive_int, default=fz.DEFAULT_SHOTS)
    p.add_argument("--perturb-seed", type=_seed, default=97)
    p.add_argument("--perturb-sigma", type=_nonnegative, default=1e-3)
    p.add_argument("--kind", choices=["cumulative", "incremental", "projected"], default="cumulative")
    p.add_argument("--op", help="operation label for --kind projected")
    p.add_argument("--csv", help="write spectra CSV here")
    p.add_argument("--report", help="write JSON report here")
    p.set_defaults(func=cmd_certify, outputs=("csv", "report"))

    p = sub.add_parser("simulate", help="sample a noisy model and a multinomial dataset")
    _add_common(p)
    p.add_argument("--design", required=True)
    p.add_argument("--noise", choices=["coherent-only", "coherent-depol"], default="coherent-depol")
    p.add_argument("--sigma", type=_nonnegative, default=0.01)
    p.add_argument("--eta", type=_depolarization, help="per-gate depolarization of coherent-depol (default 0.001)")
    p.add_argument("--shots", type=_shot_count, default=fz.DEFAULT_SHOTS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate, outputs=("out",))

    p = sub.add_parser("wallclock", help="estimate run time on a device")
    p.add_argument("--gateset", help="marks two-qubit labels of designs (default: the gate set each design names)")
    p.add_argument("--device", required=True, help="builtin name, JSON path, or 'all'")
    p.add_argument("--design", action="append", help="design file (repeatable)")
    p.add_argument("--circuits", action="append", type=_positive_int, help="bare circuit count (repeatable)")
    p.add_argument("--shots", type=_positive_int, default=100)
    p.add_argument("--mean-depth", type=_nonnegative, default=0.0, help="approximate-mode depth assumption")
    p.add_argument("--two-qubit-fraction", type=_unit_interval, default=0.0)
    p.add_argument("--report", help="write JSON report here")
    p.set_defaults(func=cmd_wallclock, outputs=("report",))

    p = sub.add_parser("fiducials", help="greedy informationally-complete fiducial selection")
    _add_gateset(p)
    p.add_argument("--kind", choices=["prep", "meas"], required=True)
    p.add_argument("--max-depth", type=_positive_int, help="--pool sequences depth bound (default 3)")
    p.add_argument("--pool", choices=["sequences", "per-qubit"], default="sequences")
    p.add_argument("--rel-improvement", type=_nonnegative, default=1e-9)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fiducials, outputs=("out",))

    p = sub.add_parser("germs", help="greedy amplificationally-complete germ selection")
    _add_gateset(p)
    p.add_argument("--seed", type=_seed, help="master RNG seed, for --germs robust only")
    _add_germ_options(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_germs, outputs=("out",))

    p = sub.add_parser("fpr", help="fiducial pair reduction for an existing germ list")
    _add_common(p)
    p.add_argument("--germ-file", required=True)
    _add_fpr_options(p)
    p.add_argument("--mode", choices=["per-germ", "random"], default="per-germ")
    p.add_argument("--Lmax", dest="lmax", type=_positive_int, default=1024)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fpr, outputs=("out",))

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "certify" and (args.kind == "projected") != bool(args.op):
        parser.error(
            "argument --op: required with --kind projected"
            if args.kind == "projected"
            else f"argument --op: only valid with --kind projected, not --kind {args.kind}"
        )
    if args.command == "simulate" and args.noise == "coherent-only" and args.eta is not None:
        parser.error("argument --eta: not allowed with --noise coherent-only, which has no depolarization")
    if args.command == "germs" and (args.germs == "robust") != (args.seed is not None):
        parser.error(
            "argument --seed: required with --germs robust"
            if args.germs == "robust"
            else f"argument --seed: not allowed with --germs {args.germs}, which draws nothing"
        )
    if args.command == "fiducials" and args.pool == "per-qubit" and args.max_depth is not None:
        parser.error("argument --max-depth: not allowed with --pool per-qubit")
    try:
        for path in filter(None, (getattr(args, dest) for dest in args.outputs)):
            _check_writable(path)
        with np.errstate(over="raise"):
            return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except nz.NonFiniteModelError as exc:
        # simulate samples its model at --sigma; certify, germs and design at --perturb-sigma
        option = "--sigma" if args.command == "simulate" else "--perturb-sigma"
        print(f"error: argument {option}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
