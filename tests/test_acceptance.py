"""Acceptance checks, one per contract item, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The two-qubit extended check lives in test_acceptance_2q.py and is
enabled with GSTDESIGN_RUN_2Q=1.
"""

import contextlib
import time

import numpy as np
import pytest
import scipy.linalg

from gstdesign import design as D
from gstdesign import fisher as FI
from gstdesign import fpr as FP
from gstdesign import germs as G
from gstdesign import wallclock as W
from gstdesign.builtins import (
    builtin_device_doc,
    make_xycphase_gateset,
    make_xyi_gateset,
    standard_xyi_fiducials,
)
from gstdesign.model import (
    Circuit,
    apply_gauge_transform,
    circuit_probabilities,
    circuit_ptm,
    from_vector,
    gauge_tangent,
    n_params,
    non_gauge_count,
    probability_hessian,
    probability_jacobian,
    to_vector,
)
from gstdesign.noise import perturbed_models


@contextlib.contextmanager
def criterion(number, label):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {label}: FAIL ({time.time() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {number:02d} {label}: PASS ({time.time() - start:.1f}s)")


@pytest.fixture(scope="module")
def xyi():
    return make_xyi_gateset()


@pytest.fixture(scope="module")
def fids():
    return standard_xyi_fiducials()


@pytest.fixture(scope="module")
def eval_model(xyi):
    return FI.default_eval_model(xyi, seed=97)


@pytest.fixture(scope="module")
def robust_germs(xyi):
    models = [xyi] + perturbed_models(xyi, 5, 1e-3, seed=2026)
    pool = G.germ_candidate_pool(xyi.labels, 6)
    return G.select_germs(models, pool).germs


@pytest.fixture(scope="module")
def standard_germs(xyi):
    pool = G.germ_candidate_pool(xyi.labels, 6)
    return G.select_germs([xyi], pool).germs


@pytest.fixture(scope="module")
def robust_full_report(xyi, fids, robust_germs, eval_model):
    design = D.build_design(
        fids, fids, robust_germs, D.default_schedule(256), gateset_labels=xyi.labels
    )
    return FI.certify_design(eval_model, design, target=xyi)


def random_circuits(rng, count, max_depth, labels=("Gi", "Gx", "Gy"), min_depth=0):
    out = []
    for _ in range(count):
        depth = int(rng.integers(min_depth, max_depth + 1))
        out.append(Circuit(tuple(rng.choice(labels, size=depth))))
    return out


def test_criterion_01_parameter_accounting(xyi):
    with criterion(1, "parameter accounting"):
        t0 = time.time()
        assert n_params(xyi) == 43
        assert non_gauge_count(xyi) == 31
        assert time.time() - t0 < 1.0
        t0 = time.time()
        xycphase = make_xycphase_gateset()
        assert n_params(xycphase) == 1263
        assert non_gauge_count(xycphase) == 1023
        assert time.time() - t0 < 30.0


def test_criterion_02_gauge_invariance(xyi):
    with criterion(2, "gauge invariance"):
        t0 = time.time()
        rng = np.random.default_rng(2)
        kmat = np.zeros((4, 4))
        kmat[1:, :] = 0.25 * rng.standard_normal((3, 4))
        transformed = apply_gauge_transform(xyi, scipy.linalg.expm(kmat))
        for c in random_circuits(rng, 100, 24):
            dp = circuit_probabilities(transformed, c) - circuit_probabilities(xyi, c)
            assert np.max(np.abs(dp)) < 1e-9
        assert time.time() - t0 < 5.0


def test_criterion_03_derivative_correctness(xyi):
    with criterion(3, "derivative correctness"):
        t0 = time.time()
        rng = np.random.default_rng(3)
        theta = to_vector(xyi) + 0.03 * rng.standard_normal(43)
        gs = from_vector(xyi, theta)
        for c in random_circuits(rng, 50, 16):
            jac = probability_jacobian(gs, c)
            hess = probability_hessian(gs, c)
            h = 1e-6
            for n in range(43):
                tp, tm = theta.copy(), theta.copy()
                tp[n] += h
                tm[n] -= h
                fd = (
                    circuit_probabilities(from_vector(xyi, tp), c)
                    - circuit_probabilities(from_vector(xyi, tm), c)
                ) / (2 * h)
                assert np.max(np.abs(jac[:, n] - fd)) < 1e-6
            h2 = 1e-5
            for n in range(43):
                tp, tm = theta.copy(), theta.copy()
                tp[n] += h2
                tm[n] -= h2
                fd_row = (
                    probability_jacobian(from_vector(xyi, tp), c)
                    - probability_jacobian(from_vector(xyi, tm), c)
                ) / (2 * h2)
                assert np.max(np.abs(hess[:, n, :] - fd_row)) < 1e-6
        assert time.time() - t0 < 30.0


def test_criterion_04_fisher_structure(xyi, eval_model):
    with criterion(4, "Fisher structure"):
        t0 = time.time()
        rng = np.random.default_rng(4)
        basis = gauge_tangent(eval_model)
        checked = 0
        while checked < 20:
            c = random_circuits(rng, 1, 16, min_depth=1)[0]
            # the per-circuit FIM contract requires probabilities above the
            # clip floor; stay well clear of it
            if np.min(circuit_probabilities(eval_model, c)) < 0.01:
                continue
            checked += 1
            fim = FI.circuit_fim(eval_model, c)
            assert np.max(np.abs(fim - fim.T)) < 1e-9
            assert np.min(np.linalg.eigvalsh(fim)) >= -1e-8
            fim_h = FI.circuit_fim_hessian_form(eval_model, c)
            assert np.max(np.abs(fim - fim_h)) < 1e-8
            norm = np.linalg.norm(fim, 2)
            for col in range(basis.shape[1]):
                v = basis[:, col]
                assert np.linalg.norm(fim @ v) <= 1e-6 * norm * np.linalg.norm(v)
        assert time.time() - t0 < 60.0


def test_criterion_05_heisenberg_growth(robust_full_report):
    with criterion(5, "Heisenberg-like growth 25/6"):
        t0 = time.time()
        report = robust_full_report
        assert report.maxdepths == (1, 2, 4, 8, 16, 32, 64, 128, 256)
        assert report.growing == 25
        assert report.plateaued == 6
        assert report.spam_budget == 6
        assert report.well_constructed
        assert time.time() - t0 < 600.0


def test_criterion_06_bare_germ_failure(xyi, fids, eval_model):
    with criterion(6, "bare-germ failure"):
        t0 = time.time()
        design = D.build_design(
            fids, fids, G.bare_germs(xyi), D.default_schedule(256), gateset_labels=xyi.labels
        )
        report = FI.certify_design(eval_model, design, target=xyi)
        assert report.plateaued >= 9
        assert not report.well_constructed
        assert time.time() - t0 < 600.0


def test_criterion_07_aggressive_random_fpr(xyi, fids, standard_germs, eval_model):
    with criterion(7, "aggressive random FPR failure"):
        t0 = time.time()
        policy = D.FprPolicy(mode="random", gamma=0.03, seed=7)
        design = D.build_design(
            fids, fids, standard_germs, D.default_schedule(1024), policy, gateset_labels=xyi.labels
        )
        report = FI.certify_design(eval_model, design, target=xyi)
        assert len(report.insensitive) >= 1
        assert time.time() - t0 < 600.0


def test_criterion_08_random_fpr_counts(fids, standard_germs):
    with criterion(8, "random FPR keep counts"):
        t0 = time.time()
        assert FP.keep_count(0.125, 36) == 4
        assert FP.keep_count(0.03, 36) == 1
        for gamma, expected in ((0.125, 4), (0.03, 1)):
            policy = D.FprPolicy(mode="random", gamma=gamma, seed=5)
            design = D.build_design(
                fids, fids, standard_germs, D.default_schedule(64), policy,
                gateset_labels=("Gi", "Gx", "Gy"),
            )
            assert all(len(p.pairs) == expected for p in design.plaquettes)
        assert time.time() - t0 < 1.0


def test_criterion_09_per_germ_fpr_contract(xyi, fids, robust_germs, eval_model, robust_full_report):
    with criterion(9, "per-germ FPR contract"):
        t0 = time.time()
        eps = 1.0 / 30.0
        result = FP.per_germ_fpr(xyi, fids, fids, robust_germs, eps_lambda=eps, search_seed=11)
        assert all(ratio >= eps for ratio in result.achieved_ratio.values())
        design = D.build_design(
            fids, fids, robust_germs, D.default_schedule(256), result.to_policy(),
            gateset_labels=xyi.labels,
        )
        report = FI.certify_design(eval_model, design, target=xyi)
        assert report.plateaued <= robust_full_report.plateaued  # 0 extra plateaued
        assert report.growing == robust_full_report.growing
        assert time.time() - t0 < 1200.0


def test_criterion_10_twirl_correctness(xyi):
    with criterion(10, "finite-power twirl vs projection"):
        t0 = time.time()
        rng = np.random.default_rng(10)
        power = 512
        for labels in (("Gx",), ("Gy",), ("Gx", "Gx"), ("Gi", "Gx")):
            tau = circuit_ptm(xyi, Circuit(labels))
            kite = G.kite_structure(tau)
            gaps = [
                abs(a - b)
                for i, a in enumerate(kite.eigenvalues)
                for b in kite.eigenvalues[i + 1 :]
            ]
            assert min(gaps) >= 0.1
            taui = np.linalg.inv(tau)
            for _ in range(3):
                sl = rng.standard_normal((4, 4))
                acc = np.zeros((4, 4))
                fwd, bwd = np.eye(4), np.eye(4)
                for _ in range(power):
                    acc += fwd @ sl @ bwd
                    fwd = tau @ fwd
                    bwd = bwd @ taui
                avg = acc / power
                assert np.max(np.abs(avg - G.twirl_project(sl, kite))) < 1e-3
        assert time.time() - t0 < 10.0


def test_criterion_11_wallclock_model():
    with criterion(11, "wall-clock model"):
        t0 = time.time()
        transmons = W.DeviceParams.from_json_dict(builtin_device_doc("transmons"))
        simos = W.DeviceParams.from_json_dict(builtin_device_doc("simos"))
        assert W.upload_time(104002, 100, transmons) == 1041.0
        assert W.upload_time(transmons.circuits_per_batch, 100, transmons) == transmons.t_latency
        assert W.upload_time(10725, 100, simos) == 1500.0
        assert abs(104002 / 24042 - 4.3) < 0.05
        assert time.time() - t0 < 1.0


def test_criterion_12_exclusions_documented():
    with criterion(12, "excluded reproductions"):
        # diamond-distance curves and Table 1 absolute totals need MLE
        # fitting and the original circuit lists; criteria 5-7 and 11 stand
        # in for them, and the optional two-qubit growth check lives in
        # test_acceptance_2q.py behind GSTDESIGN_RUN_2Q=1
        assert True
