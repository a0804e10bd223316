import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gstdesign import design as D
from gstdesign import fpr as FP
from gstdesign import germs as G
from gstdesign.builtins import builtin_fiducials, make_xycphase_gateset
from gstdesign.model import (
    Circuit,
    circuit_ptm,
    effective_fiducial_effects,
    effective_fiducial_states,
    numerical_rank,
)

GERMS = [
    Circuit(("Gx",)),
    Circuit(("Gy",)),
    Circuit(("Gx", "Gx", "Gy")),
]


def test_keep_count_paper_fractions():
    assert FP.keep_count(0.125, 36) == 4
    assert FP.keep_count(0.03, 36) == 1
    assert FP.keep_count(1.0, 36) == 36
    # ceiling mode stays available behind the flag
    assert FP.keep_count(0.125, 36, rounding="ceil") == 5
    assert FP.keep_count(0.03, 36, rounding="ceil") == 2


@given(st.floats(0.001, 1.0), st.integers(1, 400))
def test_keep_count_bounds(gamma, n):
    k = FP.keep_count(gamma, n)
    assert 1 <= k <= n


def test_keep_count_rejects_bad_gamma():
    with pytest.raises(Exception):
        FP.keep_count(0.0, 36)
    with pytest.raises(Exception):
        FP.keep_count(1.5, 36)


def test_kite_jacobian_shapes(xyi, xyi_fiducials):
    germ = GERMS[0]
    kite = G.kite_structure(circuit_ptm(xyi, germ))
    jac = FP.kite_param_jacobian(xyi, [(0, 0)], xyi_fiducials, xyi_fiducials, kite)
    assert jac.shape == (xyi.num_effects, kite.num_params)
    full = [(j, i) for j in range(6) for i in range(6)]
    jac_full = FP.kite_param_jacobian(xyi, full, xyi_fiducials, xyi_fiducials, kite)
    assert jac_full.shape == (36 * xyi.num_effects, kite.num_params)


def test_kite_jacobian_matches_finite_differences(xyi, xyi_fiducials):
    germ = GERMS[2]
    kite = G.kite_structure(circuit_ptm(xyi, germ))
    pairs = [(0, 0), (2, 3), (5, 1)]
    jac = FP.kite_param_jacobian(xyi, pairs, xyi_fiducials, xyi_fiducials, kite)
    states = effective_fiducial_states(xyi, xyi_fiducials)
    effects = effective_fiducial_effects(xyi, xyi_fiducials)
    rows, cols = kite.coords
    base = kite.basis_inv @ circuit_ptm(xyi, germ) @ kite.basis
    m = xyi.num_effects
    step = 1e-6
    for col in range(0, rows.size, 2):
        u, v = rows[col], cols[col]
        kp, km = base.copy(), base.copy()
        kp[u, v] += step
        km[u, v] -= step
        gp = kite.basis @ kp @ kite.basis_inv
        gm = kite.basis @ km @ kite.basis_inv
        for r, (j, i) in enumerate(pairs):
            for t in range(m):
                fd = (effects[i * m + t] @ (gp - gm) @ states[j]) / (2 * step)
                assert abs(fd - jac[r * m + t, col]) < 1e-6


def per_element_kite_jacobian(gs, pairs, preps, meass, kite):
    """Reference: one scalar product per entry, each fiducial's matvec
    taken per row."""
    m = gs.num_effects
    states = effective_fiducial_states(gs, list(preps))
    effects = effective_fiducial_effects(gs, list(meass))
    us, vs = (idx.tolist() for idx in kite.coords)
    jac = np.empty((len(pairs) * m, len(us)), dtype=complex)
    for r, (j, i) in enumerate(pairs):
        right = kite.basis_inv @ states[j]
        for t in range(m):
            left = effects[i * m + t] @ kite.basis
            jac[r * m + t] = [left[u] * right[v] for u, v in zip(us, vs)]
    return jac


def test_kite_jacobian_equals_per_element_loop_in_bytes(xyi, xyi_fiducials):
    gs2 = make_xycphase_gateset()
    preps2, meass2 = builtin_fiducials("xycphase", "prep"), builtin_fiducials("xycphase", "meas")
    cases = [(xyi, xyi_fiducials, xyi_fiducials, germ) for germ in G.germ_candidate_pool(xyi.labels, 4)]
    cases += [
        (gs2, preps2, meass2, Circuit(tuple(germ.split())))
        for germ in ("Gxi", "Gcphase", "Gxi Gyi", "Gcphase Gxi Giy")
    ]
    kinds = set()
    for gs, preps, meass, germ in cases:
        kite = G.kite_structure(circuit_ptm(gs, germ))
        kinds.add(kite.basis.dtype.kind)
        full = [(j, i) for j in range(len(preps)) for i in range(len(meass))]
        for pairs in (full, full[::-3]):  # the grid, and pairs out of grid order
            jac = FP.kite_param_jacobian(gs, pairs, preps, meass, kite)
            ref = per_element_kite_jacobian(gs, pairs, preps, meass, kite)
            assert jac.dtype == ref.dtype and jac.strides == ref.strides
            assert jac.tobytes() == ref.tobytes()
    assert kinds == {"f", "c"}  # real and complex kites both


def test_per_germ_fpr_meets_threshold(xyi, xyi_fiducials):
    eps = 1.0 / 30.0
    result = FP.per_germ_fpr(xyi, xyi_fiducials, xyi_fiducials, GERMS, eps_lambda=eps, search_seed=5)
    for k in range(len(GERMS)):
        assert result.achieved_ratio[k] >= eps
        assert len(result.pairs_by_germ[k]) >= 1
        assert len(result.pairs_by_germ[k]) < 36  # actually reduced
    assert result.fell_back_to_full == set()


def test_per_germ_fpr_bad_eps(xyi, xyi_fiducials):
    with pytest.raises(ValueError):
        FP.per_germ_fpr(xyi, xyi_fiducials, xyi_fiducials, GERMS, eps_lambda=0.0)


def test_degenerate_search_falls_back_to_full_grid(xyi, xyi_fiducials):
    # a search that proposes nothing can only return the full grid
    result = FP.per_germ_fpr(
        xyi, xyi_fiducials, xyi_fiducials, GERMS[:1],
        eps_lambda=1.0, search_seed=0, candidates_per_size=0,
    )
    assert result.pairs_by_germ[0] == tuple((j, i) for j in range(6) for i in range(6))
    assert result.achieved_ratio[0] == 1.0
    assert result.fell_back_to_full == {0}


def test_baseline_dominance(xyi, xyi_fiducials):
    germ = GERMS[2]
    kite = G.kite_structure(circuit_ptm(xyi, germ))
    full = [(j, i) for j in range(6) for i in range(6)]
    jac_full = FP.kite_param_jacobian(xyi, full, xyi_fiducials, xyi_fiducials, kite)
    top_full = np.linalg.svd(jac_full, compute_uv=False)[0]
    rng = np.random.default_rng(0)
    for _ in range(10):
        size = int(rng.integers(1, 36))
        sel = rng.choice(36, size=size, replace=False)
        sub = [full[s] for s in sel]
        jac_sub = FP.kite_param_jacobian(xyi, sub, xyi_fiducials, xyi_fiducials, kite)
        assert np.linalg.svd(jac_sub, compute_uv=False)[0] <= top_full + 1e-10


def random_pairs(fids, germs, sched, gamma, seed):
    """Each plaquette's kept pairs under a random FPR policy, by (germ index, max depth)."""
    policy = D.FprPolicy(mode="random", gamma=gamma, seed=seed)
    plaqs = D.plaquettes(germs, sched, policy, len(fids), len(fids))
    return {(p.germ_index, p.max_depth): p.pairs for p in plaqs}


def test_random_fpr_reproducible_and_exact_counts(xyi_fiducials):
    sched = (1, 2, 4, 8, 16)
    a = random_pairs(xyi_fiducials, GERMS, sched, 0.125, seed=13)
    b = random_pairs(xyi_fiducials, GERMS, sched, 0.125, seed=13)
    assert a == b
    keep = FP.keep_count(0.125, 36)
    for pairs in a.values():
        assert len(pairs) == keep
        assert len(set(pairs)) == keep  # no duplicates within a plaquette


def test_random_fpr_plaquettes_draw_independently(xyi_fiducials):
    sched = (1, 2, 4, 8, 16, 32, 64)
    sets = random_pairs(xyi_fiducials, GERMS, sched, 0.125, seed=13)
    distinct = set(tuple(v) for v in sets.values())
    assert len(distinct) > 1  # not all plaquettes share one draw


def test_random_fpr_different_seeds_differ(xyi_fiducials):
    sched = (1, 2, 4, 8)
    a = random_pairs(xyi_fiducials, GERMS, sched, 0.125, seed=13)
    b = random_pairs(xyi_fiducials, GERMS, sched, 0.125, seed=14)
    assert a != b


def test_random_fpr_skips_repeated_powers(xyi_fiducials):
    # a length-3 germ has powers 1, 1, 2 at L = 3, 4, 6: no L=4 plaquette
    germ = Circuit(("Gx", "Gy", "Gi"))
    pairs = random_pairs(xyi_fiducials, [germ], (3, 4, 6), 0.125, seed=1)
    assert sorted(pairs) == [(0, 3), (0, 6)]


def exhaustive_per_germ_fpr(gs, preps, meass, germs, eps_lambda, search_seed, candidates_per_size=100, trace=None):
    """Reference search: every candidate of every size gets the exact SVD
    score and the stable sort's first maximum wins.  ``trace``, when given,
    collects ``(germ index, size, draws, scores)`` for every size tried."""
    m = gs.num_effects
    full_grid = [(j, i) for j in range(len(preps)) for i in range(len(meass))]
    pairs_by_germ, achieved = {}, {}
    for k, germ in enumerate(germs):
        kite = G.kite_structure(circuit_ptm(gs, germ), G.IDEAL_DEGENERACY_TOL)
        jac_full = FP.kite_param_jacobian(gs, full_grid, preps, meass, kite)
        svals = np.linalg.svd(jac_full, compute_uv=False)
        rank = numerical_rank(svals)
        lam_baseline = float(svals[rank - 1] ** 2)
        rng = np.random.default_rng(np.random.SeedSequence([int(search_seed), k]))
        found = None
        for size in range(max(1, math.ceil(rank / m)), len(full_grid)):
            batch = []
            for _ in range(candidates_per_size):
                sel = sorted(rng.choice(len(full_grid), size=size, replace=False).tolist())
                rows = np.concatenate([np.arange(r * m, (r + 1) * m) for r in sel])
                spec = np.sort(np.linalg.svd(jac_full[rows], compute_uv=False) ** 2)[::-1]
                batch.append((float(spec[rank - 1]) if spec.size >= rank else 0.0, sel))
            if trace is not None:
                trace.append((k, size, [sel for _, sel in batch], [lam for lam, _ in batch]))
            if not batch:
                continue
            batch.sort(key=lambda t: -t[0])
            lam, sel = batch[0]
            if lam >= eps_lambda * lam_baseline:
                found = (sel, lam / lam_baseline)
                break
        if found is None:
            pairs_by_germ[k], achieved[k] = tuple(full_grid), 1.0
        else:
            pairs_by_germ[k] = tuple(full_grid[r] for r in found[0])
            achieved[k] = found[1]
    return pairs_by_germ, achieved


def assert_matches_exhaustive(gs, preps, meass, germs, eps, seed, **kw):
    result = FP.per_germ_fpr(gs, preps, meass, germs, eps_lambda=eps, search_seed=seed, **kw)
    pairs, ratios = exhaustive_per_germ_fpr(gs, preps, meass, germs, eps, seed, **kw)
    assert result.pairs_by_germ == pairs
    assert result.achieved_ratio == ratios  # equal in bits
    return result


@pytest.mark.parametrize("seed, eps", [(0, 1.0 / 30.0), (3, 0.0333), (5, 0.1), (7, 0.5)])
def test_screened_search_equals_exhaustive_xyi(xyi, xyi_fiducials, seed, eps, monkeypatch):
    pool = G.germ_candidate_pool(xyi.labels, 3)
    assert_matches_exhaustive(xyi, xyi_fiducials, xyi_fiducials, pool, eps, seed)
    # a one-byte budget gathers every candidate's rows in a stack of its own
    monkeypatch.setattr(FP, "GERM_STACK_BYTES", 1)
    assert_matches_exhaustive(xyi, xyi_fiducials, xyi_fiducials, pool, eps, seed)


def test_screened_search_equals_exhaustive_2q():
    gs = make_xycphase_gateset()
    preps, meass = builtin_fiducials("xycphase", "prep"), builtin_fiducials("xycphase", "meas")
    # full rank on its kite: a one-column cap
    assert_matches_exhaustive(gs, preps, meass, [Circuit(("Gcphase", "Gxi", "Giy"))], 0.1, 11)
    # rank 88 of 96 kite coordinates: a 9-column cap
    result = assert_matches_exhaustive(gs, preps, meass, [Circuit(("Gxi",))], 0.1, 11, candidates_per_size=10)
    assert result.baseline_rank[0] == 88


def test_screen_holds_no_per_pair_grams():
    # Gcphase has 136 kite coordinates on a 144-pair grid, so one Gram per
    # pair would hold 144 x 136^2 complex values, 42.6 MB.  Building the
    # 576 x 136 full-grid Jacobian (1.25 MB) holds three arrays of its size
    # at once, and a stack gathers at most GERM_STACK_BYTES (0.5 MB) of
    # rows: 10 MB bounds both with room to spare.
    gs = make_xycphase_gateset()
    preps, meass = builtin_fiducials("xycphase", "prep"), builtin_fiducials("xycphase", "meas")
    tracemalloc.start()
    try:
        FP.per_germ_fpr(gs, preps, meass, [Circuit(("Gcphase",))], search_seed=11, candidates_per_size=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


@pytest.mark.parametrize("eps, seed", [(0.1, 3), (0.5, 3), (0.0333, 0), (0.5, 7)])
@pytest.mark.parametrize("germ, n_prep, n_meas", [("Gi", 3, 3), ("Gi Gx", 6, 2)])
def test_screened_search_equals_exhaustive_below_kite_width(xyi, xyi_fiducials, germ, n_prep, n_meas, eps, seed):
    # the smallest candidates hold fewer rows than kite coordinates, so
    # their Grams are rank deficient
    germs = [Circuit(tuple(germ.split()))]
    preps, meass = xyi_fiducials[:n_prep], xyi_fiducials[:n_meas]
    result = assert_matches_exhaustive(xyi, preps, meass, germs, eps, seed)
    m = xyi.num_effects
    first_size = math.ceil(result.baseline_rank[0] / m)
    assert first_size * m < G.kite_structure(circuit_ptm(xyi, germs[0])).num_params


def count_svds(monkeypatch) -> list:
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_exact_tie_goes_to_the_earliest_draw(xyi, xyi_fiducials, monkeypatch):
    # prep fiducials 0 and 1 are the same circuit, so sets that differ only
    # by swapping pair (0, 0) for (1, 0) have equal rows and equal scores
    f = xyi_fiducials
    preps, meass, germs = [f[1], f[1], f[2]], [f[0]], [GERMS[2]]
    trace = []
    pairs, ratios = exhaustive_per_germ_fpr(xyi, preps, meass, germs, 1e-3, 3, candidates_per_size=6, trace=trace)
    _, size, draws, scores = trace[-1]
    tied = [sel for sel, lam in zip(draws, scores) if lam == max(scores)]
    assert len({tuple(sel) for sel in tied}) >= 2  # distinct sets, equal in bits
    calls = count_svds(monkeypatch)
    result = FP.per_germ_fpr(xyi, preps, meass, germs, eps_lambda=1e-3, search_seed=3, candidates_per_size=6)
    assert result.pairs_by_germ == pairs and result.achieved_ratio == ratios
    full_grid = [(j, 0) for j in range(3)]
    assert result.pairs_by_germ[0] == tuple(full_grid[r] for r in tied[0])
    # every tied set survives the screen: the multi-survivor path ran
    scored = [shape for shape in calls if shape[0] == size * xyi.num_effects]
    assert len(scored) >= len(tied)


def test_screen_skips_sizes_without_exact_scores(xyi, xyi_fiducials, monkeypatch):
    calls = count_svds(monkeypatch)
    result = FP.per_germ_fpr(xyi, xyi_fiducials, xyi_fiducials, [GERMS[2]], eps_lambda=0.5, search_seed=7)
    rank = result.baseline_rank[0]
    sizes_tried = len(result.pairs_by_germ[0]) - math.ceil(rank / xyi.num_effects) + 1
    exact = len(calls) - 1  # one SVD is the full grid's baseline
    assert sizes_tried > 1 and 1 <= exact < sizes_tried  # some size needed no SVD at all
