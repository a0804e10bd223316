import csv
import dataclasses
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from conftest import direct_gauge_frame
from gstdesign import cli
from gstdesign import design as D
from gstdesign import fisher as FI
from gstdesign.builtins import builtin_fiducials, builtin_gateset, make_xycphase_gateset
from gstdesign.germs import bare_germs
from gstdesign.model import (
    Circuit,
    GaugeTangent,
    apply_gauge_transform,
    circuit_probabilities,
    circuits_probabilities,
    fiducial_outcomes,
    from_vector,
    gauge_tangent,
    matrix_rank_rel,
    n_params,
    param_blocks,
    probability_jacobian,
    to_vector,
)
from gstdesign.noise import PROB_CLIP_FLOOR, perturbed_models

GERMS = [Circuit(("Gx",)), Circuit(("Gy",)), Circuit(("Gx", "Gx", "Gy"))]


@pytest.fixture(scope="module")
def eval_model(xyi):
    return FI.default_eval_model(xyi, seed=41)


def test_zero_shots_zero_matrix(xyi):
    fim = FI.circuit_fim(xyi, Circuit(("Gx",)), shots=0)
    assert np.count_nonzero(fim) == 0


def draw_regular_circuit(gs, rng, max_depth=16, min_p=0.01):
    """Random circuit respecting the per-circuit FIM precondition that all
    outcome probabilities sit above the clip floor."""
    while True:
        depth = int(rng.integers(1, max_depth + 1))
        c = Circuit(tuple(rng.choice(["Gi", "Gx", "Gy"], size=depth)))
        if np.min(circuit_probabilities(gs, c)) >= min_p:
            return c


def test_fim_symmetric_psd(eval_model, rng):
    for _ in range(5):
        c = draw_regular_circuit(eval_model, rng)
        fim = FI.circuit_fim(eval_model, c)
        assert np.max(np.abs(fim - fim.T)) < 1e-9
        assert np.min(np.linalg.eigvalsh(fim)) >= -1e-8


def test_fim_clipping_never_blows_up(xyi):
    # the empty circuit has an exactly zero outcome at the ideal point; the
    # clip rule must keep the matrix finite
    fim = FI.circuit_fim(xyi, Circuit(()))
    assert np.all(np.isfinite(fim))


def test_outer_and_hessian_forms_agree(eval_model, rng):
    for _ in range(5):
        depth = int(rng.integers(1, 12))
        c = Circuit(tuple(rng.choice(["Gi", "Gx", "Gy"], size=depth)))
        a = FI.circuit_fim(eval_model, c)
        b = FI.circuit_fim_hessian_form(eval_model, c)
        assert np.max(np.abs(a - b)) < 1e-8


def test_fim_against_expected_loglikelihood_hessian(xyi, rng):
    """Oracle: numerically differentiate the expected log likelihood
    l(theta) = sum_i p_i(theta0) log p_i(theta); its negative Hessian at
    theta0 is the per-shot Fisher information."""
    c = Circuit(("Gx",))  # p = (1/2, 1/2): all probabilities well away from 0
    theta0 = to_vector(xyi)
    p0 = circuit_probabilities(xyi, c)
    assert np.allclose(p0, [0.5, 0.5], atol=1e-12)

    fim = FI.circuit_fim(xyi, c, shots=1)

    def expected_ll(theta):
        p = np.clip(circuit_probabilities(from_vector(xyi, theta), c), 1e-12, 1.0)
        return float(p0 @ np.log(p))

    idx = list(range(0, 43, 3)) + [42]
    h = 1e-3
    for a in idx:
        for b in idx:
            ea, eb = np.zeros(43), np.zeros(43)
            ea[a] = h
            eb[b] = h
            d2 = (
                expected_ll(theta0 + ea + eb)
                - expected_ll(theta0 + ea - eb)
                - expected_ll(theta0 - ea + eb)
                + expected_ll(theta0 - ea - eb)
            ) / (4 * h * h)
            assert abs(-d2 - fim[a, b]) < 1e-5


def test_additivity_exact(eval_model):
    # W^T W sums in a different order than the per-circuit outer products,
    # so agreement is to rounding relative to the largest entry (~4e8)
    circuits = [Circuit(("Gx",)), Circuit(("Gy", "Gx")), Circuit(("Gi",))]
    held = FI.circuits_fim(eval_model, circuits)
    assert held.rows.shape == (6, 43)  # two outcome rows per circuit, fewer than the 43 columns
    total = held.matrix()
    summed = sum(FI.circuit_fim(eval_model, c) for c in circuits)
    assert np.max(np.abs(total - summed)) <= 1e-12 * np.max(np.abs(summed))


def test_blocked_accumulation_matches_reference(eval_model, xyi_fiducials):
    des = D.build_design(
        xyi_fiducials, xyi_fiducials, GERMS, D.default_schedule(16), gateset_labels=eval_model.labels
    )
    assert FI.FIM_BLOCK < len(des.circuits) <= 2 * FI.FIM_BLOCK  # two W^T W blocks
    total = FI.circuits_fim(eval_model, des.circuits).gram
    summed = sum(FI.circuit_fim(eval_model, c) for c in des.circuits)
    assert np.max(np.abs(total - summed)) <= 1e-12 * np.max(np.abs(summed))
    assert np.array_equal(total, FI.circuits_fim(eval_model, des.circuits).gram)


@pytest.fixture(scope="module")
def walk_cases(xyi, xyi_fiducials):
    """(evaluation model, circuits) of an XYI design (two FIM_BLOCK blocks)
    and of a 4x3 XYCPHASE design at L <= 4, each with an empty circuit, a
    repeated circuit and a prefix of a circuit appended."""
    cases = {}
    for name, gs, preps, meass, germs, lmax in (
        ("xyi", xyi, xyi_fiducials, xyi_fiducials, GERMS, 16),
        ("xycphase", make_xycphase_gateset(), builtin_fiducials("xycphase", "prep")[:4],
         builtin_fiducials("xycphase", "meas")[:3], [Circuit(("Gxi",)), Circuit(("Gcphase", "Gxi", "Giy"))], 4),
    ):
        des = D.build_design(preps, meass, germs, D.default_schedule(lmax), gateset_labels=gs.labels)
        extra = [Circuit(()), des.circuits[5], Circuit(des.circuits[-1].labels[:2])]
        cases[name] = (FI.default_eval_model(gs), list(des.circuits) + extra)
    return cases


@pytest.mark.parametrize("name", ["xyi", "xycphase"])
def test_probabilities_read_from_each_jacobian_equal_the_reference_in_bits(walk_cases, name):
    gs, circuits = walk_cases[name]
    start = param_blocks(gs)["meas"].start
    for c in circuits:
        # row 0 of the Jacobian, over effect 0's columns, is the output state v
        read = gs.effect_matrix() @ probability_jacobian(gs, c)[0, start : start + gs.dim]
        assert read.tobytes() == circuit_probabilities(gs, c).tobytes()


def per_block_walk_fim(gs, circuits, shots, clip_floor):
    """circuits_fim with each block's probabilities from one prefix walk."""
    total = FI.HeldFim(rows=np.zeros((0, n_params(gs))))
    for lo in range(0, len(circuits), FI.FIM_BLOCK):
        block = circuits[lo : lo + FI.FIM_BLOCK]
        probs = np.clip(circuits_probabilities(gs, block), clip_floor, 1.0)
        rows = [probability_jacobian(gs, c) * np.sqrt(shots / p)[:, None] for c, p in zip(block, probs)]
        total += FI.HeldFim.from_rows(np.concatenate(rows))
    return total


@pytest.mark.parametrize("in_frame", [False, True])
@pytest.mark.parametrize("name", ["xyi", "xycphase"])
def test_circuits_fim_equals_the_per_block_walk_in_bits(walk_cases, name, in_frame):
    """At the hard clip floor and, ``in_frame``, at the certification floor
    a frame sums its buckets at."""
    gs, circuits = walk_cases[name]
    clip_floor = FI.certification_clip_floor(FI.DEFAULT_SHOTS) if in_frame else PROB_CLIP_FLOOR
    got = FI.circuits_fim(gs, circuits, FI.DEFAULT_SHOTS, clip_floor)
    want = per_block_walk_fim(gs, circuits, FI.DEFAULT_SHOTS, clip_floor)
    assert (got.rows is None) == (want.rows is None) == (name == "xyi")  # Gram-held on XYI, row-held on 2Q
    held = (got.gram, want.gram) if got.rows is None else (got.rows, want.rows)
    assert held[0].tobytes() == held[1].tobytes()


# the body walk's Jacobians equal probability_jacobian's to rounding: within
# WALK_RTOL of each circuit's largest entry (at most 3.8e-15 measured on XYI
# designs to L = 1024, 8.9e-16 on XYCPHASE designs to L = 16)
WALK_RTOL = 1e-14
# a circuit of L = 16 that no body of the XYI designs below reaches: no split
# into standard fiducials leaves an empty, one-gate or germ-power body
UNREACHED = ("Gi", "Gi", "Gi", "Gy", "Gy", "Gx")


@pytest.fixture(scope="module")
def body_walk_designs(xyi, xyi_fiducials):
    """(evaluation model, design) pairs covering each FPR mode, a 2Q design,
    a design file with a circuit added by hand and an all-empty fiducial list."""
    xyc = make_xycphase_gateset()
    schedule = D.default_schedule(16)
    per_germ = D.FprPolicy("per-germ", pairs_by_germ={0: ((0, 0), (1, 2), (3, 1)), 1: ((5, 0), (2, 2)), 2: ((0, 5), (4, 4))})
    designs = {
        "xyi-full": D.build_design(xyi_fiducials, xyi_fiducials, GERMS, schedule, gateset_labels=xyi.labels),
        "xyi-per-germ": D.build_design(xyi_fiducials, xyi_fiducials, GERMS, schedule, per_germ, gateset_labels=xyi.labels),
        "xyi-random": D.build_design(
            xyi_fiducials, xyi_fiducials, GERMS, schedule, D.FprPolicy("random", gamma=0.2, seed=3), gateset_labels=xyi.labels
        ),
        "xycphase-wide": D.build_design(
            builtin_fiducials("xycphase", "prep")[:4], builtin_fiducials("xycphase", "meas")[:3],
            [Circuit(("Gxi",)), Circuit(("Gcphase", "Gxi", "Giy"))], D.default_schedule(4), gateset_labels=xyc.labels,
        ),
        "empty-fiducials": D.build_design([Circuit(())], [Circuit(()), Circuit(("Gy",))], GERMS, schedule),
    }
    doc = designs["xyi-full"].to_json_dict()
    doc["circuits"].append({"labels": list(UNREACHED), "L": 16})
    designs["hand-edited"] = D.ExperimentDesign.from_json_dict(doc)
    return {name: (FI.default_eval_model(xyc if name.startswith("xycphase") else xyi), des) for name, des in designs.items()}


@pytest.mark.parametrize(
    "name", ["xyi-full", "xyi-per-germ", "xyi-random", "xycphase-wide", "hand-edited", "empty-fiducials"]
)
def test_body_walk_matches_the_per_circuit_jacobians(body_walk_designs, name):
    gs, des = body_walk_designs[name]
    start, floor = param_blocks(gs)["meas"].start, FI.certification_clip_floor(FI.DEFAULT_SHOTS)
    bodies, rest = D.design_bodies(des, gs.labels)
    assert [des.circuits[n].labels for n in rest] == ([UNREACHED] if name == "hand-edited" else [])
    for depth, (circuits, jacobians) in zip(des.maxdepths, FI.bucket_jacobians(gs, des)):
        # each of the bucket's circuits once, the unreached one last
        assert sorted(c.labels for c in circuits) == sorted(c.labels for c, b in zip(des.circuits, des.buckets) if b == depth)
        if name == "hand-edited" and depth == 16:
            assert circuits[-1].labels == UNREACHED
        rows = list(jacobians)
        assert len(rows) == len(circuits)
        for c, jac in zip(circuits, rows):
            ref = probability_jacobian(gs, c)
            assert np.max(np.abs(jac - ref)) <= WALK_RTOL * np.max(np.abs(ref))
            # one circuit's Fisher matrix at the certification floor, probabilities
            # read from row 0 as circuits_fim reads them
            p = np.clip(gs.effect_matrix() @ jac[0, start : start + gs.dim], floor, 1.0)
            want = FI.circuit_fim(gs, c, clip_floor=floor)
            assert np.max(np.abs(FI.DEFAULT_SHOTS * jac.T @ (jac / p[:, None]) - want)) <= 1e-12 * np.max(np.abs(want))


def test_bodies_own_each_reached_circuit_once_in_walk_order(body_walk_designs):
    gs, des = body_walk_designs["xyi-full"]
    bodies, rest = D.design_bodies(des, gs.labels)
    owners = Counter(n for _, owned in bodies for *_, n in owned)
    assert not rest and sorted(owners) == list(range(len(des.circuits))) and set(owners.values()) == {1}
    # the base layer walks first: "Gx" alone is F_j = Gx around the empty
    # body, or the Gx body between empty fiducials, and the empty body owns it
    assert [body for body, _ in bodies[:4]] == [(), ("Gi",), ("Gx",), ("Gy",)]
    assert any(des.circuits[n].labels == ("Gx",) for *_, n in bodies[0][1])
    # each body's pairs spell their circuits
    for body, owned in bodies:
        for j, i, n in owned:
            assert des.circuits[n].labels == des.prep_fiducials[j].labels + body + des.meas_fiducials[i].labels


# the XYI standard germs; their full design up to L = 1024 has circuits that two
# plaquettes reach
STANDARD_XYI_GERMS = ("Gi", "Gx Gx Gy", "Gx Gx Gx Gy Gy", "Gx Gy Gy")


def spy_on_the_walk(monkeypatch):
    """Record the bodies ``design_probabilities`` walks and the circuits it
    leaves to ``circuits_probabilities``."""
    seen = {"bodies": [], "rest": []}

    def walking(gs, preps, meass, bodies):
        seen["bodies"].append(list(bodies))
        return fiducial_outcomes(gs, preps, meass, bodies)

    def falling_back(gs, circuits):
        seen["rest"].append(list(circuits))
        return circuits_probabilities(gs, circuits)

    monkeypatch.setattr(D, "fiducial_outcomes", walking)
    monkeypatch.setattr(D, "circuits_probabilities", falling_back)
    return seen


def test_simulate_and_certify_walk_the_same_bodies(monkeypatch, xyi, xyi_fiducials, body_walk_designs):
    gs = FI.default_eval_model(xyi)
    germs = [Circuit(tuple(g.split())) for g in STANDARD_XYI_GERMS]
    des = D.build_design(xyi_fiducials, xyi_fiducials, germs, D.default_schedule(1024), gateset_labels=xyi.labels)
    reached = Counter(n for indices in des.pair_index for n in indices if n >= 0)
    twice = [n for n, count in reached.items() if count > 1]
    assert len(twice) == 14
    bodies, rest = D.design_bodies(des, gs.labels)
    seen = spy_on_the_walk(monkeypatch)
    probs = D.design_probabilities(gs, des)
    assert seen["bodies"] == [[body for body, _ in bodies]] and seen["rest"] == [[]] and not rest
    # a circuit two plaquettes reach takes its owner's outcome, bit for bit
    owner = {n: (body, j, i) for body, owned in bodies for j, i, n in owned}
    for n in twice:
        body, j, i = owner[n]
        ((_, outcomes),) = fiducial_outcomes(gs, des.prep_fiducials, des.meas_fiducials, [body])
        assert probs[n].tobytes() == outcomes[i, :, j].tobytes()
    # only the circuit no body reaches falls back to the circuit walk
    gs, des = body_walk_designs["hand-edited"]
    seen = spy_on_the_walk(monkeypatch)
    D.design_probabilities(gs, des)
    assert seen["bodies"] == [[body for body, _ in D.design_bodies(des, gs.labels)[0]]]
    assert seen["rest"] == [[Circuit(UNREACHED)]]


def test_circuits_fim_of_no_circuits_is_an_empty_sum(eval_model):
    assert FI.circuits_fim(eval_model, []).rows.shape == (0, n_params(eval_model))


def test_bucket_rows_do_not_depend_on_circuit_order(body_walk_designs):
    gs, des = body_walk_designs["hand-edited"]
    doc = des.to_json_dict()
    doc["circuits"] = [doc["circuits"][k] for k in np.random.default_rng(5).permutation(len(doc["circuits"]))]
    shuffled = D.ExperimentDesign.from_json_dict(doc)
    assert shuffled.circuits != des.circuits
    for (circuits, rows), (again, rows_again) in zip(FI.bucket_jacobians(gs, des), FI.bucket_jacobians(gs, shuffled)):
        assert circuits == again
        assert all(a.tobytes() == b.tobytes() for a, b in zip(rows, rows_again))


def test_gauge_annihilation(eval_model, xyi_fiducials):
    des = D.build_design(
        xyi_fiducials, xyi_fiducials, GERMS, D.default_schedule(16), gateset_labels=eval_model.labels
    )
    fim = FI.circuits_fim(eval_model, des.circuits).matrix()
    basis = gauge_tangent(eval_model).basis
    norm = np.linalg.norm(fim, 2)
    for col in range(basis.shape[1]):
        v = basis[:, col]
        assert np.linalg.norm(fim @ v) <= 1e-6 * norm * np.linalg.norm(v)


def test_single_circuit_series_coincide(eval_model, xyi_fiducials):
    des = D.build_design(
        [Circuit(())], [Circuit(())], [], (1,), gateset_labels=()
    )
    assert D.circuit_count(des) == 1
    assert np.array_equal(FI.bucket_fims(eval_model, des)[0].rows, FI.circuits_fim(eval_model, des.circuits).rows)
    frame = FI.NongaugeFrame(eval_model, des)
    assert frame.cumulative[0] is frame.increments[0]
    cum = np.array(FI.cumulative_series(des, frame).spectra)
    inc = np.array(FI.incremental_series(des, frame).spectra)
    # one row-held matrix: both series read the eigh of its row Gram (a Gram-held
    # one's eigh and eigvalsh may differ in the last bits)
    assert np.max(np.abs(cum - inc)) <= 1e-12 * np.max(cum)


def test_cumulative_equals_sum_of_incrementals(eval_model, xyi_fiducials):
    des = D.build_design(
        xyi_fiducials, xyi_fiducials, GERMS, D.default_schedule(32), gateset_labels=eval_model.labels
    )
    cum = np.cumsum([m.matrix() for m in FI.bucket_fims(eval_model, des)], axis=0)
    buckets = [(circuits, list(rows)) for circuits, rows in FI.bucket_jacobians(eval_model, des)]
    for k in range(len(des.maxdepths)):
        # the whole design truncated at this depth, the same rows summed in one pass
        circuits = [c for bucket, _ in buckets[: k + 1] for c in bucket]
        rows = [jac for _, jacs in buckets[: k + 1] for jac in jacs]
        prefix = FI.circuits_fim(eval_model, circuits, jacobians=rows).matrix()
        assert np.max(np.abs(cum[k] - prefix)) <= 1e-12 * np.max(np.abs(prefix))
    # cumulative spectra are monotone nondecreasing eigenvalue by eigenvalue
    # (Loewner order; tolerance relative to the spectral scale because the
    # near-zero eigenvalues carry eigensolver noise of eps * lam_max)
    spectra = np.array(FI.cumulative_series(des, FI.NongaugeFrame(eval_model, des)).spectra)
    scale = spectra[:-1, 0][:, None]
    assert np.all(np.diff(spectra, axis=0) >= -1e-9 * scale)


def test_nongauge_spectra_match_full_frame(eval_model, xyi_fiducials):
    des = D.build_design(
        xyi_fiducials, xyi_fiducials, GERMS, D.default_schedule(32), gateset_labels=eval_model.labels
    )
    floor = FI.certification_clip_floor(FI.DEFAULT_SHOTS)
    frame = FI.NongaugeFrame(eval_model, des)
    inc = np.stack([m.matrix() for m in FI.bucket_fims(eval_model, des, clip_floor=floor)])
    for series, matrices in (
        (FI.cumulative_series(des, frame), np.cumsum(inc, axis=0)),
        (FI.incremental_series(des, frame), inc),
    ):
        assert len(series.spectra) == len(matrices) == len(des.maxdepths)
        for spectrum, matrix in zip(series.spectra, matrices):
            full = np.linalg.eigvalsh(matrix)[::-1]
            # 31 non-gauge eigenvalues, descending, then the 12 gauge directions
            assert list(spectrum[31:]) == [0.0] * 12
            assert list(spectrum[:31]) == sorted(spectrum[:31], reverse=True)
            assert np.max(np.abs(np.array(spectrum) - full)) <= 1e-12 * full[0]


def _frame_case(name, xyi, xyi_fiducials):
    """Evaluation model and design: XYI germs at L <= 16, the same germs on
    3 prep x 2 meas fiducials at L <= 8, or the XYCPHASE germ Gxi on 2 prep
    x 2 meas fiducials at L <= 2."""
    if name == "xyi":
        gs, preps, meass, germs, lmax = xyi, xyi_fiducials, xyi_fiducials, GERMS, 16
    elif name == "xyi-sparse":
        gs, preps, meass, germs, lmax = xyi, xyi_fiducials[:3], xyi_fiducials[:2], GERMS, 8
    else:
        gs = make_xycphase_gateset()
        preps, meass = builtin_fiducials("xycphase", "prep")[:2], builtin_fiducials("xycphase", "meas")[:2]
        germs, lmax = [Circuit(("Gxi",))], 2
    des = D.build_design(preps, meass, germs, D.default_schedule(lmax), gateset_labels=gs.labels)
    return FI.default_eval_model(gs, seed=41), des


@pytest.mark.parametrize("name, op", [("xyi", "Gx"), ("xyi-sparse", "Gx"), ("xycphase", "Gxi")])
def test_frame_increments_equal_projected_bucket_matrices(xyi, xyi_fiducials, name, op):
    gs, des = _frame_case(name, xyi, xyi_fiducials)
    floor = FI.certification_clip_floor(FI.DEFAULT_SHOTS)
    q = direct_gauge_frame(gauge_tangent(gs).basis)[1]
    unmapped = FI.bucket_fims(gs, des, clip_floor=floor)
    sl = param_blocks(gs)[op]
    frame = FI.NongaugeFrame(gs, des)
    rows = [gs.num_effects * des.buckets.count(depth) for depth in des.maxdepths]
    # every matrix is held one column per parameter by HeldFim's rule: as its
    # rows while they are fewer than the parameters (43 on XYI, 1263 on
    # XYCPHASE), then as its Gram.  The 2Q design holds fewer rows in all, so
    # every matrix is rows; the sparse XYI buckets hold 34, 12, 32 and 34
    # rows, each held as rows while their prefix sums are Grams from the
    # second on, and the 12-row bucket has as many rows as the operation's
    # columns
    width = frame.n_params
    assert (sum(rows) < width) == (name == "xycphase")
    if name == "xyi-sparse":
        assert rows == [34, 12, 32, 34] and sl.stop - sl.start == 12
    assert [m.width for m in frame.increments + frame.cumulative] == [width] * 2 * len(des.maxdepths)
    assert [m.rows is None for m in frame.increments] == [r >= width for r in rows]
    assert [m.rows is None for m in frame.cumulative] == [r >= width for r in np.cumsum(rows)]
    blocks = FI.block_series(des, frame, sl).spectra
    for k, m in enumerate(unmapped):
        # the frame's increments are the design's bucket matrices, bit for bit
        assert frame.increments[k].matrix().tobytes() == m.matrix().tobytes()
        full = m.matrix()
        want = q.T @ full @ q
        scale = np.max(np.abs(want))
        assert scale > 0
        # outcome probabilities are gauge invariant, so the unmapped matrix
        # is its projection: it has no gauge component, and its spectrum is
        # the projected one followed by one 0.0 per gauge direction
        assert np.max(np.abs(full - q @ want @ q.T)) <= 1e-12 * scale
        spectrum = frame.spectrum(False, k)
        assert len(spectrum) == frame.dim
        assert np.max(np.abs(spectrum - np.linalg.eigvalsh(want)[::-1])) <= 1e-12 * scale
        # a projected series slices the operation's block from the same matrix
        block = np.linalg.eigvalsh(full[sl, sl])[::-1]
        assert np.max(np.abs(np.array(blocks[k][: len(block)]) - block)) <= 1e-12 * np.max(np.abs(full))
        assert blocks[k][len(block) :] == (0.0,) * (width - len(block))
    sums = np.cumsum([m.matrix() for m in frame.increments], axis=0)
    for cum, want in zip(frame.cumulative, sums):
        assert np.max(np.abs(cum.matrix() - want)) <= 1e-12 * np.max(np.abs(want))


def test_row_held_2q_frame_spectra_and_trajectories(xyi, xyi_fiducials):
    """A 2Q frame whose buckets hold fewer rows than its 1023 columns:
    every spectrum matches the dense projected reference and ends in one
    exact zero per missing row, and the directions certification tracks
    have the Rayleigh quotients, in the dense cumulative matrices, of the
    right singular vectors of the deepest rows."""
    gs, des = _frame_case("xycphase", xyi, xyi_fiducials)
    floor = FI.certification_clip_floor(FI.DEFAULT_SHOTS)
    q = direct_gauge_frame(gauge_tangent(gs).basis)[1]
    inc = [q.T @ m.matrix() @ q for m in FI.bucket_fims(gs, des, clip_floor=floor)]
    frame = FI.NongaugeFrame(gs, des)
    dim = frame.dim
    for series, matrices, held in (
        (FI.cumulative_series(des, frame), np.cumsum(inc, axis=0), frame.cumulative),
        (FI.incremental_series(des, frame), inc, frame.increments),
    ):
        for spectrum, matrix, m in zip(series.spectra, matrices, held):
            n_rows = len(m.rows)
            assert n_rows < dim
            want = np.linalg.eigvalsh(matrix)[::-1]
            got = np.array(spectrum[:dim])
            assert np.max(np.abs(got - want)) <= 1e-12 * want[0]
            assert list(got[n_rows:]) == [0.0] * (dim - n_rows)

    # the frame holds the unmapped rows; mapped here, their right singular
    # vectors are the tracked directions in the non-gauge frame
    rows = frame.cumulative[-1].rows @ q
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    svd_evals, svd_vecs = s[::-1] ** 2, vt[::-1].T
    evals = frame.deepest()
    # directions above 1e-8 of the largest information, ascending; the frame
    # keeps more, down to its rounding-noise cutoff
    n = int(np.sum(svd_evals > 1e-8 * svd_evals[-1]))
    assert 0 < n <= len(evals) < len(rows)
    assert np.max(np.abs(evals[-n:] - svd_evals[-n:])) <= 1e-12 * svd_evals[-1]
    dense = np.einsum("ik,lij,jk->lk", svd_vecs[:, -n:], np.cumsum(inc, axis=0), svd_vecs[:, -n:])
    traj = frame.trajectories(range(len(des.maxdepths)))[:, -n:]
    # each trajectory point within 1e-9 of its own size (1e-12 seen)
    assert np.all(np.abs(traj - dense) <= 1e-9 * np.abs(dense))
    assert np.max(np.abs(traj[-1] - evals[-n:])) <= 1e-12 * evals[-1]

    report = FI.certify_design(gs, des, frame=frame)
    unseen = dim - len(evals)
    assert len(report.slopes) == len(report.total_information) == dim
    assert report.total_information == [0.0] * unseen + evals.tolist()
    assert min(report.total_information) == 0.0
    assert report.slopes[:unseen] == [0.0] * unseen
    assert report.classifications()[dim - unseen : dim] == ["plateaued"] * unseen


# the 13 germs that standard 2Q germ selection picks (see tests/test_acceptance_2q.py)
STANDARD_GERMS_2Q = [
    "Gcphase", "Gix Gix Giy", "Gxi Gxi Gyi", "Giy Giy Gyi Gyi", "Gix Gix Gxi Gxi",
    "Gcphase Gix Gcphase Giy", "Gcphase Giy Gcphase Gyi", "Gix Giy Gxi Gyi",
    "Gcphase Gix Gcphase Gxi", "Gcphase Gyi Giy Giy", "Gix Gxi Gyi Giy",
    "Gcphase Gix Giy Gxi", "Gcphase Gxi Gyi Gix",
]


def test_counts_do_not_depend_on_circuit_order(xyi, xyi_fiducials):
    """Rounding noise, whose sign follows the circuit order, reads as no
    information in either held form, so every count is the same in each
    order.  The designs: the benchmark's wide 2Q design (germs Gxi and
    Gcphase Gxi Giy on 4 prep x 3 meas fiducials, L <= 4), 404 rows held
    as rows against 1263 parameters, about a quarter of its row Gram's
    eigenvalues noise; the 16-circuit XYI design (32 rows, held as rows
    against 43 parameters, more than its 31 non-gauge directions); the
    22-circuit XYI design (44 rows, held as a Gram at L = 4); and a 2Q
    random-FPR design of the standard germs (gamma 0.03, seed 1, L <= 16,
    833 circuits), held as Grams."""
    xycphase = builtin_gateset("xycphase")
    cases = [
        (
            xycphase,
            D.build_design(
                builtin_fiducials("xycphase", "prep")[:4],
                builtin_fiducials("xycphase", "meas")[:3],
                [Circuit(("Gxi",)), Circuit(("Gcphase", "Gxi", "Giy"))],
                D.default_schedule(4),
                gateset_labels=xycphase.labels,
            ),
            5,
        ),
        (xyi, _boundary_design(xyi, xyi_fiducials, 16), 5),
        (xyi, _boundary_design(xyi, xyi_fiducials, 22), 5),
        (
            xycphase,
            D.build_design(
                builtin_fiducials("xycphase", "prep"),
                builtin_fiducials("xycphase", "meas"),
                [Circuit(tuple(g.split())) for g in STANDARD_GERMS_2Q],
                D.default_schedule(16),
                D.FprPolicy(mode="random", gamma=0.03, seed=1),
                gateset_labels=xycphase.labels,
            ),
            3,
        ),
    ]
    assert [len(des.circuits) for _, des, _ in cases] == [101, 16, 22, 833]
    for gs, des, n_orders in cases:
        gs_eval = FI.default_eval_model(gs, seed=41 if gs is xyi else 97)
        counts = set()
        for seed in range(n_orders):
            order = np.random.default_rng(seed).permutation(len(des.circuits))
            shuffled = dataclasses.replace(
                des, circuits=tuple(des.circuits[i] for i in order), buckets=tuple(des.buckets[i] for i in order)
            )
            report = FI.certify_design(gs_eval, shuffled, target=gs)
            assert min(report.total_information) >= 0.0
            counts.add((report.growing, report.plateaued, tuple(report.insensitive)))
        assert len(counts) == 1, len(des.circuits)


# circuits: (meas fiducials, germs) of an XYI design on one prep fiducial at L <= 4
BOUNDARY_DESIGNS = {15: (3, 1), 16: (2, 3), 21: (5, 1), 22: (3, 3)}


def _boundary_design(xyi, xyi_fiducials, n_circuits):
    """An XYI design of three max depths: 15 circuits (30 rows, one below
    the 31 non-gauge directions), 16 (32 rows), 21 (42 rows, one below the
    43 parameters) or 22 (44 rows, held as a Gram at the deepest depth)."""
    n_meas, n_germs = BOUNDARY_DESIGNS[n_circuits]
    des = D.build_design(
        xyi_fiducials[:1], xyi_fiducials[:n_meas], GERMS[:n_germs], D.default_schedule(4), gateset_labels=xyi.labels
    )
    assert len(des.circuits) == n_circuits
    return des


@pytest.mark.parametrize("n_circuits", [15, 16, 21, 22])
def test_frames_either_side_of_the_row_held_boundary_match_the_dense_reference(xyi, xyi_fiducials, n_circuits):
    des = _boundary_design(xyi, xyi_fiducials, n_circuits)
    gs = FI.default_eval_model(xyi, seed=41)
    floor = FI.certification_clip_floor(FI.DEFAULT_SHOTS)
    q = direct_gauge_frame(gauge_tangent(gs).basis)[1]
    inc = np.stack([q.T @ m.matrix() @ q for m in FI.bucket_fims(gs, des, clip_floor=floor)])
    cum = np.cumsum(inc, axis=0)
    frame = FI.NongaugeFrame(gs, des)
    # up to 42 rows are held as rows, 44 as their Gram, one column per parameter
    assert (frame.cumulative[-1].rows is not None) == (n_circuits < 22)
    assert frame.cumulative[-1].width == 43
    evals, vecs = np.linalg.eigh(cum[-1])
    top = evals[-1]
    for series, matrices in ((FI.cumulative_series(des, frame), cum), (FI.incremental_series(des, frame), inc)):
        for spectrum, matrix in zip(series.spectra, matrices):
            assert list(spectrum[31:]) == [0.0] * 12
            assert np.max(np.abs(np.array(spectrum[:31]) - np.linalg.eigvalsh(matrix)[::-1])) <= 1e-12 * top

    # the resolved directions' Rayleigh quotients in the dense matrices
    n = int(np.sum(evals > 1e-8 * top))
    assert n >= 10
    dense = np.einsum("ik,lij,jk->lk", vecs[:, -n:], cum, vecs[:, -n:])
    traj = frame.trajectories(range(len(des.maxdepths)))[:, -n:]
    assert np.max(np.abs(traj - dense)) <= 1e-12 * top

    report = FI.certify_design(gs, des, target=xyi, frame=frame)
    assert np.max(np.abs(np.array(report.total_information) - evals)) <= 1e-12 * top
    n_fit = max(2, int(np.ceil(len(des.maxdepths) * FI.FIT_FRACTION)))
    slopes = np.polyfit(np.log(des.maxdepths[-n_fit:]), np.log(dense[-n_fit:]), 1)[0]
    assert np.max(np.abs(np.array(report.slopes[-n:]) - slopes)) <= 1e-9
    assert np.all(np.abs(slopes - FI.SLOPE_THRESHOLD) > 1e-6)
    assert report.classifications()[:n] == ["growing" if s >= FI.SLOPE_THRESHOLD else "plateaued" for s in slopes[::-1]]


@pytest.mark.parametrize("kind", ["cumulative", "incremental", "projected"])
@pytest.mark.parametrize("case", ["xyi-15", "xyi-16", "xyi-22", "xycphase"])
def test_row_held_certify_maps_no_rows_and_holds_them_once(tmp_path, monkeypatch, xyi, xyi_fiducials, case, kind):
    if case == "xycphase":
        gateset, op = "xycphase", "Gxi"
        des = _frame_case(case, xyi, xyi_fiducials)[1]
    else:
        gateset, op = "xyi", "Gx"
        des = _boundary_design(xyi, xyi_fiducials, int(case[-2:]))
    row_held = case != "xyi-22"
    design = tmp_path / "design.json"
    dataclasses.replace(des, gateset_ref=gateset).save(design)
    calls, frames = Counter(), []
    dormqr, frame_type = scipy.linalg.lapack.dormqr, FI.NongaugeFrame

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return wrapper

    def recorded(*args, **kwargs):
        frames.append(frame_type(*args, **kwargs))
        return frames[-1]

    monkeypatch.setattr(scipy.linalg.lapack, "dormqr", counted("dormqr", dormqr))
    monkeypatch.setattr(FI, "NongaugeFrame", recorded)
    code = cli.main(
        [
            "certify", "--gateset", gateset, "--design", str(design), "--kind", kind,
            *(["--op", op] if kind == "projected" else []),
            "--csv", str(tmp_path / "s.csv"), "--report", str(tmp_path / "r.json"),
        ]
    )
    assert code == 0 and len(frames) == 1
    frame = frames[0]
    # no frame maps a row into the non-gauge coordinates
    assert calls == Counter()
    if not row_held:
        # the deepest matrix is a Gram, one column per parameter
        assert frame.cumulative[-1].gram.shape == (frame.n_params, frame.n_params)
        return
    # every matrix is a view of one stack of all rows, one column per parameter
    stack = frame.cumulative[-1].rows.base
    n_rows = len(des.circuits) * (4 if gateset == "xycphase" else 2)
    assert stack.shape == (n_rows, frame.n_params)
    for m in frame.cumulative + frame.increments:
        assert m.rows.base is stack and np.shares_memory(m.rows, stack)
    assert sum(len(m.rows) for m in frame.increments) == n_rows


def test_row_held_frame_writes_its_rows_once():
    # XYCPHASE germs Gxi and Gcphase Gxi Giy on 4 prep x 3 meas fiducials at
    # L <= 4: 404 rows of 1263 parameters, a 4.1 MB stack.  Each row is
    # written once into it, and the 2.4 MB gauge tangent is gone before the
    # first is, so the build peaks at about 1.3 stacks; a copy of the rows,
    # or the tangent held beside them, would take it past 1.5
    gs = make_xycphase_gateset()
    des = D.build_design(
        builtin_fiducials("xycphase", "prep")[:4], builtin_fiducials("xycphase", "meas")[:3],
        [Circuit(("Gxi",)), Circuit(("Gcphase", "Gxi", "Giy"))], D.default_schedule(4), gateset_labels=gs.labels,
    )
    eval_gs = FI.default_eval_model(gs)
    tracemalloc.start()
    try:
        frame = FI.NongaugeFrame(eval_gs, des)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stack = frame.cumulative[-1].rows.base
    assert stack.shape == (4 * len(des.circuits), n_params(gs)) == (404, 1263)
    assert peak <= 1.5 * stack.nbytes


@pytest.mark.parametrize("n_prep, n_meas", [(4, 3), (None, None)], ids=["wide-rows", "grid-grams"])
def test_projected_report_is_the_cumulative_report_in_bytes(tmp_path, n_prep, n_meas):
    """The 2Q design of germs Gxi and Gcphase Gxi Giy at L <= 4 on 4 prep x
    3 meas fiducials (404 rows, held unmapped) and on the full fiducial
    grid (4040 rows, mapped and held as Grams)."""
    gs = builtin_gateset("xycphase")
    des = D.build_design(
        builtin_fiducials("xycphase", "prep")[:n_prep], builtin_fiducials("xycphase", "meas")[:n_meas],
        [Circuit(("Gxi",)), Circuit(("Gcphase", "Gxi", "Giy"))], D.default_schedule(4),
        gateset_labels=gs.labels, gateset_ref="xycphase",
    )
    assert (4 * len(des.circuits) < 1023) == (n_prep is not None)
    des.save(tmp_path / "design.json")
    reports = []
    for kind in ("cumulative", "projected"):
        reports.append(tmp_path / f"{kind}.json")
        code = cli.main(
            [
                "certify", "--gateset", "xycphase", "--design", str(tmp_path / "design.json"), "--kind", kind,
                *(["--op", "Gcphase"] if kind == "projected" else []), "--report", str(reports[-1]),
            ]
        )
        assert code == 0
    assert reports[0].read_bytes() == reports[1].read_bytes()


def test_nongauge_coordinates_rank_and_orthogonality(rng, xyi):
    core = rng.standard_normal((30, 5))
    near = core[:, 1] + 1e-12 * rng.standard_normal(30)  # dependent below the cutoff
    zero = np.zeros(30)
    basis = np.column_stack([zero, core, core[:, :2], 3.0 * core[:, 4], zero, near])
    coords = GaugeTangent(basis)
    assert (coords.rank, coords.n_params, coords.dim) == (5, 30, 25)
    # the dense reference frame the tests read in spans the complement
    rank, q2 = direct_gauge_frame(basis)
    assert rank == 5 and q2.shape == (30, 25)
    assert np.max(np.abs(q2.T @ q2 - np.eye(25))) <= 1e-12
    assert np.max(np.abs(core.T @ q2)) <= 1e-12 * np.max(np.abs(core))
    assert GaugeTangent(np.zeros((30, 3))).rank == 0
    for gs in (xyi, make_xycphase_gateset()):
        tangent = gauge_tangent(gs)
        assert tangent.rank == matrix_rank_rel(tangent.basis)


@pytest.mark.parametrize("kind", ["cumulative", "incremental"])
def test_certify_forms_only_frame_width_matrices(tmp_path, monkeypatch, kind):
    design = tmp_path / "design.json"
    argv = ["--gateset", "xyi", "--seed", "3", "--out", str(design)]
    assert cli.main(["design", "--germs", "bare", "--fpr", "full", "--Lmax", "8", *argv]) == 0
    shapes = []
    circuits_fim = FI.circuits_fim

    def recording(*args, **kwargs):
        fim = circuits_fim(*args, **kwargs)
        shapes.append(fim.gram.shape)
        return fim

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"certify called {name}")

        return call

    monkeypatch.setattr(FI, "circuits_fim", recording)
    monkeypatch.setattr(scipy.linalg.lapack, "dormqr", forbidden("dormqr"))
    code = cli.main(
        [
            "certify", "--gateset", "xyi", "--design", str(design), "--kind", kind,
            "--csv", str(tmp_path / "s.csv"), "--report", str(tmp_path / "r.json"),
        ]
    )
    assert code == 0
    # one Gram per max-depth bucket (L = 1, 2, 4, 8), one column per parameter,
    # and no row mapped into the non-gauge frame
    assert shapes == [(43, 43)] * 4


@pytest.mark.parametrize("kind", ["cumulative", "incremental", "projected"])
def test_certify_eigensolves_no_wider_than_the_rows(tmp_path, monkeypatch, kind):
    gs = make_xycphase_gateset()
    preps, meass = builtin_fiducials("xycphase", "prep")[:2], builtin_fiducials("xycphase", "meas")[:2]
    design = tmp_path / "design.json"
    D.build_design(
        preps, meass, [Circuit(("Gxi",))], D.default_schedule(4), gateset_labels=gs.labels, gateset_ref="xycphase"
    ).save(design)
    rows, widths = [], []
    circuits_fim = FI.circuits_fim

    def recording(*args, **kwargs):
        fim = circuits_fim(*args, **kwargs)
        rows.append(len(fim.rows))
        return fim

    def recorded(solve):
        def wrapper(a, *args, **kwargs):
            widths.append(a.shape)
            return solve(a, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(FI, "circuits_fim", recording)
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recorded(getattr(np.linalg, name)))
    code = cli.main(
        [
            "certify", "--gateset", "xycphase", "--design", str(design), "--kind", kind,
            *(["--op", "Gxi"] if kind == "projected" else []),
            "--csv", str(tmp_path / "s.csv"), "--report", str(tmp_path / "r.json"),
        ]
    )
    assert code == 0
    # one row-held matrix per bucket (L = 1, 2, 4); all of them together
    # are the deepest cumulative matrix, still fewer rows than 1023 columns
    assert len(rows) == 3 and sum(rows) < 1023
    # two gauge ranks, the frame's and amplifiable_count's, each from one
    # 240-wide gauge Gram; every Fisher solve is no wider than its rows
    gauge = (gs.dim**2 - gs.dim,) * 2
    fisher_widths = [shape for shape in widths if shape != gauge]
    assert len(widths) - len(fisher_widths) == 2 and sum(rows) < gauge[0]
    assert fisher_widths and all(shape[-1] <= sum(rows) for shape in fisher_widths)


@pytest.mark.parametrize("kind", ["cumulative", "incremental", "projected"])
def test_row_held_certify_takes_one_eigh_and_no_wide_svd(tmp_path, monkeypatch, kind):
    gs = make_xycphase_gateset()
    preps, meass = builtin_fiducials("xycphase", "prep")[:2], builtin_fiducials("xycphase", "meas")[:2]
    design = tmp_path / "design.json"
    des = D.build_design(
        preps, meass, [Circuit(("Gxi",))], D.default_schedule(4), gateset_labels=gs.labels, gateset_ref="xycphase"
    )
    des.save(design)
    shapes = {"eigh": [], "svd": []}

    def recorded(name, solve):
        def wrapper(a, *args, **kwargs):
            shapes[name].append(a.shape)
            return solve(a, *args, **kwargs)

        return wrapper

    for name in shapes:
        monkeypatch.setattr(np.linalg, name, recorded(name, getattr(np.linalg, name)))
    code = cli.main(
        [
            "certify", "--gateset", "xycphase", "--design", str(design), "--kind", kind,
            *(["--op", "Gxi"] if kind == "projected" else []),
            "--csv", str(tmp_path / "s.csv"), "--report", str(tmp_path / "r.json"),
        ]
    )
    assert code == 0
    # the deepest cumulative matrix: one row per circuit and outcome, 1023 wide
    m = gs.num_effects * D.circuit_count(des)
    # one eigh, of its rows' m x m Gram, and no SVD at all: both gauge
    # ranks come from eigvalsh of a Gram
    assert shapes["eigh"] == [(m, m)] and m < 1023
    assert shapes["svd"] == []


def test_frame_dim_is_the_targets(xyi):
    # certify takes the SPAM budget's non-gauge count from the frame, at the
    # evaluation model: both gauge tangents have full rank D^2 - D
    for gs, dim in ((xyi, 31), (make_xycphase_gateset(), 1023)):
        target, at_eval = gauge_tangent(gs), gauge_tangent(FI.default_eval_model(gs))
        assert target.dim == at_eval.dim == dim
        assert target.rank == at_eval.rank == gs.dim**2 - gs.dim


def test_certify_takes_no_qr_and_no_gauge_wide_svd(xyi, xyi_fiducials, monkeypatch):
    eval_model = FI.default_eval_model(xyi)
    design = D.build_design(xyi_fiducials, xyi_fiducials, GERMS, D.default_schedule(8), gateset_labels=xyi.labels)
    qrs, svds, grams = [], [], []

    def recorded(calls, f):
        def wrapper(a, *args, **kwargs):
            calls.append(a.shape)
            return f(a, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(scipy.linalg, "qr", recorded(qrs, scipy.linalg.qr))
    monkeypatch.setattr(np.linalg, "svd", recorded(svds, np.linalg.svd))
    monkeypatch.setattr(np.linalg, "eigvalsh", recorded(grams, np.linalg.eigvalsh))
    report = FI.certify_design(eval_model, design, target=xyi)
    assert qrs == [] and all(12 not in shape for shape in svds)
    # the frame's gauge rank, at the evaluation model, and amplifiable_count's,
    # at the target, each from one eigensolve of a 12-wide gauge Gram
    assert grams.count((12, 12)) == 2
    assert report.spam_budget == 31 - 25


def test_certify_needs_two_depths(eval_model, xyi_fiducials):
    des = D.build_design(xyi_fiducials, xyi_fiducials, GERMS, (1,), gateset_labels=eval_model.labels)
    with pytest.raises(FI.CertificationError, match="at least two"):
        FI.certify_design(eval_model, des)


def leaky_gauge_tangent(extra):
    """A stand-in for gauge_tangent whose basis has ``extra`` more random,
    independent columns, so its ``dim`` falls ``extra`` below the model's."""

    def tangent(gs):
        basis = gauge_tangent(gs).basis
        noise = np.random.default_rng(3).standard_normal((len(basis), extra))
        return GaugeTangent(np.column_stack([basis, noise]))

    return tangent


@pytest.mark.parametrize("n_circuits", [21, 22])
def test_frame_names_gauge_leaked_into_the_rows(xyi, xyi_fiducials, monkeypatch, n_circuits):
    """More directions above rounding noise than the frame's dimension is a
    named error, in either held form, not a crash on a negative count."""
    des = _boundary_design(xyi, xyi_fiducials, n_circuits)
    gs = FI.default_eval_model(xyi, seed=41)
    rank = len(FI.NongaugeFrame(gs, des).deepest())
    assert 2 < rank <= 31
    monkeypatch.setattr(FI, "gauge_tangent", leaky_gauge_tangent(31 - rank + 2))
    frame = FI.NongaugeFrame(gs, des)
    assert frame.dim == rank - 2 and (frame.cumulative[-1].rows is None) == (n_circuits == 22)
    match = f"has {rank} eigenvalues above rounding noise, more than the evaluation model's {rank - 2} non-gauge"
    with pytest.raises(FI.CertificationError, match=match):
        FI.certify_design(gs, des, target=xyi, frame=frame)


ROBUST_GERMS = [
    Circuit(tuple(g.split()))
    for g in (
        "Gi", "Gx", "Gy", "Gx Gy", "Gi Gi Gi Gi Gi Gy", "Gi Gi Gi Gi Gi Gx",
        "Gi Gi Gi Gx Gy Gy", "Gx Gx Gy Gx Gy Gy", "Gi Gi Gy Gx Gx Gx", "Gi Gi Gi Gi Gx Gy",
    )
]


def _property_designs(xyi, fids):
    """Two designs certified deficient and one well constructed."""
    cases = {"bare-16": (bare_germs(xyi), 16), "germs-32": (GERMS, 32), "robust-8": (ROBUST_GERMS, 8)}
    return {
        name: D.build_design(fids, fids, germs, D.default_schedule(lmax), gateset_labels=xyi.labels)
        for name, (germs, lmax) in cases.items()
    }


def test_certification_gauge_invariant(xyi, xyi_fiducials, eval_model):
    """Certifying at gauge-equivalent evaluation points gives the same
    verdict and insensitive list, and the same counts up to one direction.

    The Fisher matrices at the two points are congruent, not similar, so
    eigenvalues and slopes move, and a direction whose slope sits near the
    threshold or inside a near-degenerate eigenspace can change class: on
    ``germs-32`` about one transform in 20 moves one direction.  Without
    the gauge projection, the first transform of ``bare-16`` moves two.
    The rank-deficient 16-circuit design keeps exact counts at the point
    and under six transforms."""
    rng = np.random.default_rng(5)
    designs = _property_designs(xyi, xyi_fiducials)
    for name, des in designs.items():
        base = FI.certify_design(eval_model, des, target=xyi)
        assert base.well_constructed == (name == "robust-8")
        for _ in range(4):
            # trace-preserving: the generator's first row is zero
            kmat = np.zeros((4, 4))
            kmat[1:, :] = 0.05 * rng.standard_normal((3, 4))
            moved = apply_gauge_transform(eval_model, scipy.linalg.expm(kmat))
            report = FI.certify_design(moved, des, target=xyi)
            assert abs(report.growing - base.growing) <= 1, name
            assert report.well_constructed == base.well_constructed, name
            assert report.insensitive == base.insensitive, name
    # rank deficient and held as rows, more of them than the non-gauge
    # directions: every count is exact, as rounding noise reads as no
    # information
    des = _boundary_design(xyi, xyi_fiducials, 16)
    for k in range(7):
        kmat = np.zeros((4, 4))
        if k:
            kmat[1:, :] = 0.05 * rng.standard_normal((3, 4))
        report = FI.certify_design(apply_gauge_transform(eval_model, scipy.linalg.expm(kmat)), des, target=xyi)
        assert (report.growing, report.plateaued, len(report.insensitive)) == (7, 24, 25), k


def test_fisher_and_report_bit_identical_across_calls(xyi, xyi_fiducials, eval_model):
    for des in _property_designs(xyi, xyi_fiducials).values():
        fim = FI.circuits_fim(eval_model, des.circuits).gram
        assert np.array_equal(FI.circuits_fim(eval_model, des.circuits).gram, fim)
        first = FI.certify_design(eval_model, des, target=xyi).to_json_dict()
        assert FI.certify_design(eval_model, des, target=xyi).to_json_dict() == first


def test_design_fim_nongauge_rank_and_null_alignment(xyi, xyi_fiducials):
    eval_gs = perturbed_models(xyi, 1, 1e-3, seed=8)[0]
    des = D.build_design(
        xyi_fiducials, xyi_fiducials, GERMS, D.default_schedule(64), gateset_labels=xyi.labels
    )
    floor = FI.certification_clip_floor(FI.DEFAULT_SHOTS)
    fim = FI.circuits_fim(eval_gs, des.circuits, clip_floor=floor).matrix()
    evals, evecs = np.linalg.eigh(fim)
    tol = 1e-8 * evals[-1]
    assert np.sum(evals > tol) == 31
    null_vecs = evecs[:, evals <= tol]
    gauge = gauge_tangent(eval_gs).basis
    angles = scipy.linalg.subspace_angles(null_vecs, gauge)
    assert np.max(angles) < 1e-4


def test_block_series_matches_full_frame_projection(eval_model, xyi_fiducials):
    des = D.build_design(
        xyi_fiducials, xyi_fiducials, GERMS, D.default_schedule(32), gateset_labels=eval_model.labels
    )
    floor = FI.certification_clip_floor(FI.DEFAULT_SHOTS)
    inc = [m.matrix() for m in FI.bucket_fims(eval_model, des, clip_floor=floor)]
    for label in ("Gx", "rho"):
        sl = param_blocks(eval_model)[label]
        series = FI.block_series(des, FI.NongaugeFrame(eval_model, des), sl)
        assert len(series.spectra) == len(inc) == len(des.maxdepths)
        for spectrum, matrix in zip(series.spectra, inc):
            # the full-frame matrix with everything outside the block zeroed
            projected = np.zeros_like(matrix)
            projected[sl, sl] = matrix[sl, sl]
            full = np.linalg.eigvalsh(projected)[::-1]
            assert np.max(np.abs(np.array(spectrum) - full)) <= 1e-12 * full[0]


def test_spam_projected_series_flat(xyi, xyi_fiducials):
    eval_gs = FI.default_eval_model(xyi, seed=41)
    des = D.build_design(
        xyi_fiducials, xyi_fiducials, GERMS, D.default_schedule(256), gateset_labels=xyi.labels
    )
    frame = FI.NongaugeFrame(eval_gs, des)
    for label in ("rho", "meas"):
        proj = FI.block_series(des, frame, param_blocks(eval_gs)[label])
        tops = np.array([spec[0] for spec in proj.spectra])
        # flat within a factor of ~3 across depth buckets, no systematic growth
        later = tops[3:]
        assert np.max(later) <= 3.0 * np.min(later[later > 0])


def test_certification_csv_and_report(tmp_path, xyi, xyi_fiducials):
    eval_gs = FI.default_eval_model(xyi, seed=41)
    des = D.build_design(
        xyi_fiducials, xyi_fiducials, GERMS, D.default_schedule(32), gateset_labels=xyi.labels
    )
    report = FI.certify_design(eval_gs, des, target=xyi)
    assert report.growing + report.plateaued == 31
    assert report.spam_budget == 6
    path = tmp_path / "spec.csv"
    series = FI.cumulative_series(des, FI.NongaugeFrame(eval_gs, des))
    FI.series_to_csv(series, path, ["growing"] * 31)
    lines = path.read_text().splitlines()
    assert lines[0] == "L,eigenvalue_index,value,classification"
    assert len(lines) == 1 + len(des.maxdepths) * 43
    FI.report_to_json(report, tmp_path / "report.json")
    assert (tmp_path / "report.json").read_text().startswith("{")


def csv_writer_reference(series, path, classifications=None):
    """The spectra CSV written one ``csv.writer`` row at a time."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["L", "eigenvalue_index", "value", "classification"])
        for depth, spec in zip(series.maxdepths, series.spectra):
            for k, val in enumerate(spec):
                cls = "" if classifications is None or k >= len(classifications) else classifications[k]
                w.writerow([depth, k, repr(float(val)), cls])


def test_series_csv_bytes_equal_the_csv_writer_reference(tmp_path, xyi, xyi_fiducials):
    eval_gs = FI.default_eval_model(xyi, seed=41)
    des = D.build_design(
        xyi_fiducials, xyi_fiducials[:3], GERMS, D.default_schedule(16), gateset_labels=xyi.labels
    )
    frame = FI.NongaugeFrame(eval_gs, des)
    labels = FI.certify_design(eval_gs, des, target=xyi, frame=frame).classifications()
    assert labels.count("gauge") == 12 and len(labels) == 43
    for name, series, classes in (
        ("cumulative", FI.cumulative_series(des, frame), labels),
        ("incremental", FI.incremental_series(des, frame), None),
        ("projected", FI.block_series(des, frame, param_blocks(eval_gs)["Gx"]), None),
    ):
        got, want = tmp_path / f"{name}.csv", tmp_path / f"{name}-ref.csv"
        FI.series_to_csv(series, got, classes)
        csv_writer_reference(series, want, classes)
        assert got.read_bytes() == want.read_bytes(), name
        assert got.read_bytes().count(b"\r\n") == 1 + len(des.maxdepths) * 43


def test_cramer_rao_on_one_parameter_family(xyi, rng):
    """Empirical variance of an unbiased-ish estimator along one parameter
    direction is bounded below by the inverse Fisher information."""
    from gstdesign.model import probability_jacobian

    c = Circuit(("Gx",))
    theta0 = to_vector(xyi)
    # one-parameter family along the gradient of the first outcome
    grad = probability_jacobian(xyi, c)[0]
    direction = grad / np.linalg.norm(grad)

    def p_of_t(t):
        return circuit_probabilities(from_vector(xyi, theta0 + t * direction), c)

    # dp0/dt by central difference, used to invert the estimator
    h = 1e-6
    slope = (p_of_t(h)[0] - p_of_t(-h)[0]) / (2 * h)
    assert abs(slope) > 0.1

    shots = 1000
    fim = FI.circuit_fim(xyi, c, shots=shots)
    info = direction @ fim @ direction

    estimates = []
    p_true = p_of_t(0.0)[0]
    for _ in range(1000):
        counts = rng.binomial(shots, p_true)
        estimates.append((counts / shots - p_true) / slope)
    var = np.var(estimates)
    assert var >= 0.9 / info
