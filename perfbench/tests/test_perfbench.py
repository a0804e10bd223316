"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path


import calibrate
import layers
import workloads
import worker
from tracer import Tracer

BENCH = Path(__file__).resolve().parents[1]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def svd():
        clock.now += 4

    traced_svd = tr.wrap_linalg(svd, "svd")

    def inner():
        clock.now += 5

    def outer():
        clock.now += 1
        inner_w()
        clock.now += 2
        inner_w()
        traced_svd()
        clock.now += 3

    inner_w = tr.wrap(inner, "inner")
    tr.wrap(outer, "outer")()

    assert tr.get("outer").calls == 1
    assert tr.get("outer").total_s == 20
    # 20 minus two inner spans (10) minus the linalg call (4)
    assert tr.get("outer").self_s == 6
    assert (tr.get("inner").calls, tr.get("inner").total_s, tr.get("inner").self_s) == (2, 10, 10)
    charged = tr.linalg("outer", ("svd",))
    assert (charged.calls, charged.total_s) == (1, 4)
    assert tr.linalg("inner", ("svd",)).calls == 0


def test_call_site_patching_reaches_import_bindings_and_uninstalls():
    import gstdesign.fisher as fz
    import gstdesign.model as mz
    from gstdesign.builtins import builtin_gateset
    from gstdesign.model import Circuit

    original = mz.probability_jacobian
    tr = Tracer()
    sites = tr.patch_function("gstdesign.model", "probability_jacobian", "model.jacobian")
    assert sites >= 2  # defined in model, bound again in fisher at import
    try:
        fz.circuit_fim(builtin_gateset("xyi"), Circuit(("Gx", "Gy")))
    finally:
        tr.uninstall()
    assert tr.get("model.jacobian").calls == 1
    assert mz.probability_jacobian is original and fz.probability_jacobian is original


def test_compare_accepts_rounding_and_rejects_perturbations():
    reference = json.loads(workloads.reference_path("certify-1q-deep").read_text())
    observed = {"exact": reference["exact"], "close": copy.deepcopy(reference["close"])}
    assert workloads.compare(observed, reference) == []

    # reordered summation moves spectra by ~1e-15 of their scale: accepted
    observed["close"]["spectra"][-1][0] *= 1 + 2e-15
    assert workloads.compare(observed, reference) == []

    # a real change to the numerics: rejected
    observed["close"]["spectra"][-1][0] *= 1 + 1e-6
    assert any("spectra" in e for e in workloads.compare(observed, reference))

    wrong_count = copy.deepcopy(reference)
    wrong_count["exact"]["growing"] += 1
    assert any("growing" in e for e in workloads.compare(observed | {"close": reference["close"]}, wrong_count))


def _inputs(tmp_path: Path, name: str, seed: int = 3):
    indir = tmp_path / "in"
    indir.mkdir()
    workloads.WORKLOADS[name].make_inputs(indir, seed)
    return indir


def test_calibration_scales_by_the_bracketing_blocks():
    ref = calibrate.REFERENCE_S
    # a host at reference speed leaves a time as it is
    assert calibrate.scale(2.0, ref, ref) == 2.0
    # a host phase that slows the blocks by half as much again slows the operation alike
    assert abs(calibrate.scale(3.0, 1.4 * ref, 1.6 * ref) - 2.0) < 1e-12
    assert 0 < calibrate.block() < 60


def test_perturbed_reference_counts_as_failed_operation(tmp_path, monkeypatch):
    import gstdesign.cli as cli

    name = "fpr-2q"
    _inputs(tmp_path, name)
    reference = json.loads(workloads.reference_path(name).read_text())
    germ = next(iter(reference["exact"]["pairs_by_germ"]))
    reference["exact"]["pairs_by_germ"][germ] = reference["exact"]["pairs_by_germ"][germ][1:]
    perturbed = tmp_path / "perturbed.json"
    perturbed.write_text(json.dumps(reference))
    monkeypatch.setattr(workloads, "reference_path", lambda _name: perturbed)

    result = worker.measure(cli, workloads.WORKLOADS[name], tmp_path, seconds=0.0, trace=False)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert len(result["blocks_s"]) == 2 and len(result["scaled_wall_s"]) == 1
    assert "pairs_by_germ" in result["errors"][0]


def test_traced_operation_writes_identical_bytes(tmp_path):
    import gstdesign.cli as cli

    name = "certify-1q-deep"
    workload = workloads.WORKLOADS[name]
    indir = _inputs(tmp_path, name)
    files = {}
    for mode in ("untraced", "traced"):
        outdir = tmp_path / mode
        outdir.mkdir()
        tr = Tracer()
        if mode == "traced":
            layers.install(tr)
        try:
            _, stdouts, error = worker.run_operation(cli, workload, indir, outdir)
        finally:
            tr.uninstall()
        assert error is None
        assert worker.check_operation(workload, json.loads(workloads.reference_path(name).read_text()), outdir, stdouts) is None
        files[mode] = worker.snapshot(outdir)
    assert files["traced"] == files["untraced"]

    metrics = layers.layer_metrics(tr)
    assert set(metrics) == set(layers.LAYER_UNITS)
    assert metrics["model.jacobian_calls"] > 0 and metrics["fisher.eig_calls"] > 0
    assert metrics["fisher.recompute_ratio"] > 1.0
    assert metrics["design.circuits"] > 0 and metrics["design.json_bytes"] > 0


def test_benchmark_json_lists_every_metric_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    import run

    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert {m["name"] for m in spec["per_layer"]} == set(layers.LAYER_UNITS) | set(run.HOST_UNITS)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    units = {**run.END_TO_END_UNITS, **layers.LAYER_UNITS, **run.HOST_UNITS}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == units[metric["name"]]


def test_run_refuses_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "fpr-2q", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
