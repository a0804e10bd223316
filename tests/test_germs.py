import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from gstdesign import germs as G
from gstdesign import held as H
from gstdesign.builtins import make_xycphase_gateset
from gstdesign.fisher import default_eval_model
from gstdesign.held import compressed_rows
from gstdesign.model import (
    Circuit,
    apply_gauge_transform,
    circuit_ptm,
    from_vector,
    gauge_tangent,
    matrix_rank_rel,
    n_params,
    non_gauge_count,
    param_blocks,
    to_vector,
)
from gstdesign.noise import NoiseSpec, perturbed_models, sample_noisy_gateset


def finite_power_twirl(tau, deriv, power):
    """Oracle: the repetition average (1/p) sum_i G^i D G^-i."""
    acc = np.zeros_like(deriv)
    fwd = np.eye(tau.shape[0])
    bwd = np.eye(tau.shape[0])
    taui = np.linalg.inv(tau)
    for _ in range(power):
        acc += fwd @ deriv @ bwd
        fwd = tau @ fwd
        bwd = bwd @ taui
    return acc / power


def test_idle_kite_is_single_full_block(xyi):
    kite = G.kite_structure(xyi.gates["Gi"])
    assert kite.blocks == ((0, 4),)
    assert kite.num_params == 16  # d^4


def test_gx_kite_blocks(xyi):
    # oracle: the rotation PTM has eigenvalues {1, 1, i, -i}
    evals = np.sort_complex(np.linalg.eigvals(xyi.gates["Gx"]))
    assert np.allclose(np.sort_complex(np.array([1, 1, 1j, -1j])), evals, atol=1e-12)
    kite = G.kite_structure(xyi.gates["Gx"])
    assert sorted(size for _, size in kite.blocks) == [1, 1, 2]
    assert kite.num_params == 6


def test_kite_coords_are_the_in_block_entries(xyi):
    kite = G.kite_structure(xyi.gates["Gx"])
    mask = np.zeros((4, 4), dtype=bool)
    for start, size in kite.blocks:
        mask[start : start + size, start : start + size] = True
    rows, cols = kite.coords
    assert rows.size == kite.num_params
    assert np.array_equal(rows, np.nonzero(mask)[0]) and np.array_equal(cols, np.nonzero(mask)[1])


def test_generic_matrix_kite_all_singletons(rng):
    mat = rng.standard_normal((4, 4))
    kite = G.kite_structure(mat)
    assert all(size == 1 for _, size in kite.blocks)
    assert kite.num_params == 4  # d^2


def test_kite_rejects_non_finite():
    bad = np.full((4, 4), np.nan)
    with pytest.raises(ValueError):
        G.kite_structure(bad)


def set_loop_clusters(evals, tol):
    """Reference: breadth-first clustering over index sets."""
    scale = float(np.max(np.abs(evals)))
    thresh = tol * (scale if scale > 0 else 1.0)
    unvisited = set(range(evals.size))
    clusters = []
    while unvisited:
        group = frontier = {min(unvisited)}
        while frontier:
            frontier = {j for i in frontier for j in unvisited - group if abs(evals[i] - evals[j]) <= thresh}
            group = group | frontier
        clusters.append(sorted(group))
        unvisited -= group
    return sorted(clusters, key=lambda g: g[0])


def test_cluster_eigenvalues_matches_set_loop(rng):
    tol = 1e-3
    spectra = [
        # a~b and b~c but not a~c: one cluster through the chain
        np.array([1.0, 1.0009, 1.0018, 0.5]),
        np.array([0.5, 1.0018 + 0j, 1.0, 1.0009, 0.2, 1.0027]),
        # chains in the complex plane, interleaved with singletons
        np.exp(1j * np.array([0.3, 0.3008, 2.0, 0.3016, -1.0, 2.0005])),
        np.zeros(5),
        np.ones(6),
        np.array([1.0, -1.0, 1j, -1j]),
    ]
    for _ in range(30):
        n = int(rng.integers(1, 17))
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        # degenerate copies, each within tol of its original
        copies = rng.choice(n, size=int(rng.integers(0, n + 1)))
        vals = np.concatenate([vals, vals[copies] + 1e-4 * rng.standard_normal(copies.size)])
        spectra.append(vals[rng.permutation(vals.size)])
    spectra += [np.linalg.eigvals(g) for g in make_xycphase_gateset().gates.values()]
    for evals in spectra:
        for t in (tol, 1e-9, 0.5):
            assert G._clusters(G._cluster_labels(evals[None], t)[0]) == set_loop_clusters(evals, t)
    assert G._clusters(G._cluster_labels(spectra[0][None], tol)[0]) == [[0, 1, 2], [3]]


def test_twirl_idempotent(xyi, rng):
    kite = G.kite_structure(xyi.gates["Gx"])
    for _ in range(5):
        sl = rng.standard_normal((4, 4))
        once = G.twirl_project(sl, kite)
        twice = G.twirl_project(once, kite)
        assert np.max(np.abs(twice - once)) < 1e-10


def test_twirl_fixes_commuting_slice(xyi):
    tau = xyi.gates["Gx"]
    kite = G.kite_structure(tau)
    commuting = 0.3 * np.eye(4) + 0.2 * tau + 0.1 * tau @ tau
    out = G.twirl_project(commuting, kite)
    assert np.max(np.abs(out - commuting)) < 1e-9


def test_twirl_on_idle_kite_is_identity_map(xyi, rng):
    kite = G.kite_structure(xyi.gates["Gi"])
    sl = rng.standard_normal((4, 4))
    assert np.max(np.abs(G.twirl_project(sl, kite) - sl)) < 1e-12


def test_finite_power_average_matches_projection(xyi, rng):
    # germs whose eigenvalue ratios are fourth roots of unity converge
    # exactly at powers divisible by four
    for labels in (("Gx",), ("Gy",), ("Gx", "Gx")):
        tau = circuit_ptm(xyi, Circuit(labels))
        kite = G.kite_structure(tau)
        gaps = [
            abs(a - b)
            for i, a in enumerate(kite.eigenvalues)
            for b in kite.eigenvalues[i + 1 :]
        ]
        assert min(gaps) >= 0.1
        sl = rng.standard_normal((4, 4))
        avg = finite_power_twirl(tau, sl, 512)
        proj = G.twirl_project(sl, kite)
        assert np.max(np.abs(avg - proj)) < 1e-3


def test_repetition_normalized_jacobian_bounded(xyi):
    # (1/p) d(tau^p)/dtheta stays bounded in p for a unitary germ
    tau = circuit_ptm(xyi, Circuit(("Gx", "Gy")))
    deriv = np.zeros((4, 4))
    deriv[2, 3] = 1.0
    norms = []
    for power in (1, 2, 4, 8, 16, 32, 64):
        total = np.zeros((4, 4))
        for i in range(power):
            total += np.linalg.matrix_power(tau, i) @ deriv @ np.linalg.matrix_power(tau, power - 1 - i)
        norms.append(np.linalg.norm(total) / power)
    assert max(norms) < 2 * norms[0] + 1e-9


def test_single_germ_stack_equals_jacobian(xyi):
    germ = Circuit(("Gx",))
    j_single = G.germ_twirled_jacobian(xyi, germ)
    stacked = G.germset_jacobian([xyi], [germ])[0]
    assert np.array_equal(j_single, stacked)


def test_stacking_preserves_row_blocks(xyi):
    germs = [Circuit(("Gx",)), Circuit(("Gy",))]
    stacked = G.germset_jacobian([xyi], germs)[0]
    j0 = G.germ_twirled_jacobian(xyi, germs[0])
    j1 = G.germ_twirled_jacobian(xyi, germs[1])
    assert np.array_equal(stacked[:16], j0)
    assert np.array_equal(stacked[16:], j1)


def twirled_jacobian_reference(model, germ, tol):
    """Per occurrence and per gate entry: twirl_project(sum_i suffix_i E_ab prefix_i)."""
    dim = model.dim
    kite = G.kite_structure(circuit_ptm(model, germ), tol)
    labels = germ.labels
    ref = np.zeros((dim * dim, n_params(model)))
    for lab, block in param_blocks(model).items():
        occurrences = [i for i, other in enumerate(labels) if other == lab]
        if not occurrences:
            continue  # SPAM blocks and gates absent from the germ stay zero
        for col, (a, b) in enumerate((a, b) for a in range(1, dim) for b in range(dim)):
            deriv = np.zeros((dim, dim))
            for i in occurrences:
                suffix = circuit_ptm(model, Circuit(labels[i + 1 :]))
                prefix = circuit_ptm(model, Circuit(labels[:i]))
                deriv = deriv + np.outer(suffix[:, a], prefix[b, :])
            ref[:, block.start + col] = G.twirl_project(deriv, kite).real.ravel()
    return ref


@pytest.mark.parametrize(
    "case, germ",
    [
        ("xyi", "Gi"),  # degenerate kite: one 4x4 block
        ("xyi", "Gi Gi Gx"),
        ("xyi", "Gx Gx Gy Gx Gy Gy"),
        ("perturbed", "Gi Gi Gx"),
        ("perturbed", "Gx Gy Gi"),
        ("xycphase", "Gcphase Gxi Giy"),
    ],
)
def test_twirled_jacobian_matches_per_occurrence_projection(xyi, case, germ):
    if case == "xyi":
        model, tol = xyi, G.IDEAL_DEGENERACY_TOL
    elif case == "perturbed":
        model, tol = perturbed_models(xyi, 1, 1e-3, seed=11)[0], G.PERTURBED_DEGENERACY_TOL
    else:
        model, tol = make_xycphase_gateset(), G.IDEAL_DEGENERACY_TOL
    germ = Circuit(tuple(germ.split()))
    ref = twirled_jacobian_reference(model, germ, tol)
    jac = G.germ_twirled_jacobian(model, germ, tol)
    assert np.max(np.abs(ref)) > 0.1
    assert np.max(np.abs(jac - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_twirled_jacobian_zero_columns_for_absent_gates(xyi):
    jac = G.germ_twirled_jacobian(xyi, Circuit(("Gx",)))
    blocks = param_blocks(xyi)
    assert np.count_nonzero(jac[:, blocks["Gy"]]) == 0
    assert np.count_nonzero(jac[:, blocks["rho"]]) == 0
    assert np.count_nonzero(jac[:, blocks["meas"]]) == 0


def test_twirled_jacobians_name_an_unknown_label(xyi):
    from gstdesign.model import GateSetError

    with pytest.raises(GateSetError, match="'Gz'"):
        G.germ_twirled_jacobians(xyi, [Circuit(("Gx",)), Circuit(("Gz",))])


def damped_xyi(xyi):
    """XYI with ``Gx[3, 0] = 0.01``: still trace preserving, no longer unital."""
    gx = xyi.gates["Gx"].copy()
    gx[3, 0] = 0.01
    return type(xyi)(gates={**xyi.gates, "Gx": gx}, prep=xyi.prep, effects=xyi.effects)


def random_tp_gauge(gs, rng):
    """A random TP gauge transform of ``gs``: ``expm(K)`` with K's first row zero."""
    kmat = np.zeros((gs.dim, gs.dim))
    kmat[1:] = 0.05 * rng.standard_normal((gs.dim - 1, gs.dim))
    return apply_gauge_transform(gs, scipy.linalg.expm(kmat))


def test_amplifiable_count_xyi(xyi):
    # consistency identity: non-gauge minus SPAM-dominated plateau count
    assert G.amplifiable_count(xyi) == 25 == 31 - 6


def test_amplifiable_count_perturbed_idle(xyi):
    single = type(xyi)(
        gates={"Gi": xyi.gates["Gi"]}, prep=xyi.prep, effects=xyi.effects
    )
    perturbed = perturbed_models(single, 1, 1e-3, seed=3)[0]
    assert G.amplifiable_count(perturbed) > 0


def test_amplifiable_count_xycphase():
    gs = make_xycphase_gateset()
    amp = G.amplifiable_count(gs)
    spam_non_gauge = non_gauge_count(gs) - amp
    assert non_gauge_count(gs) == 1023
    assert amp == 1023 - spam_non_gauge
    assert 0 < spam_non_gauge < 63  # fewer than the raw SPAM parameter count
    # perturbed gates stay unital: the target does not move
    assert G.amplifiable_count(perturbed_models(gs, 1, 1e-3, seed=5)[0]) == amp == 961


def test_amplifiable_count_drops_only_at_a_non_unital_gate(xyi):
    # diag(0, 1, 1, 1) commutes with every gate mapping the identity to
    # itself, so it moves no gate until one gate stops doing so
    unital = [
        xyi,
        *perturbed_models(xyi, 3, 1e-3, seed=5),
        sample_noisy_gateset(xyi, NoiseSpec("coherent-depol", 0.02, 0.01, 3)),
    ]
    assert [G.amplifiable_count(m) for m in unital] == [25] * 5
    assert G.amplifiable_count(damped_xyi(xyi)) == 24


@pytest.mark.parametrize("name", ["xyi", "xycphase"])
def test_gram_gauge_ranks_equal_the_svd_ranks(xyi, name):
    """Both gauge ranks, the full tangent's (behind ``non_gauge_count``) and
    its gate rows' (``amplifiable_count``), counted from a Gram's eigenvalues,
    equal the singular-value ranks of ``matrix_rank_rel`` on the target,
    its default evaluation model, perturbed and noisy models and three
    random TP gauge transforms (and, on XYI, a non-unital gate set)."""
    gs = xyi if name == "xyi" else make_xycphase_gateset()
    rng = np.random.default_rng(28)
    models = {
        "target": gs,
        "eval": default_eval_model(gs),
        **{f"perturbed-{k}": m for k, m in enumerate(perturbed_models(gs, 2, 1e-3, seed=5))},
        "coherent-depol": sample_noisy_gateset(gs, NoiseSpec("coherent-depol", 0.02, 0.01, 3)),
        **{f"gauge-{k}": random_tp_gauge(gs, rng) for k in range(3)},
    }
    if name == "xyi":
        models["damped"] = damped_xyi(xyi)
    width, amplifiable = gs.dim**2 - gs.dim, {"xyi": 25, "xycphase": 961}[name]
    for label, model in models.items():
        tangent = gauge_tangent(model)
        n_gate = param_blocks(model)["rho"].start
        svd_rank = matrix_rank_rel(tangent)
        svd_amplifiable = n_gate - matrix_rank_rel(tangent[:n_gate])
        gram_rank = n_params(model) - non_gauge_count(model)
        assert (gram_rank, G.amplifiable_count(model)) == (svd_rank, svd_amplifiable), label
        assert gram_rank == width, label
        assert svd_amplifiable == amplifiable - (label == "damped"), label


def test_amplifiable_count_and_standard_selection_run_no_qr(xyi, monkeypatch):
    # neither takes a QR: amplifiable_count ranks the gauge tangent's gate rows by their Gram
    calls = []
    monkeypatch.setattr(scipy.linalg, "qr", lambda *a, **k: calls.append(1))
    assert G.amplifiable_count(xyi) == 25
    assert G.amplifiable_count(make_xycphase_gateset()) == 961
    result = G.select_germs([xyi], G.germ_candidate_pool(xyi.labels, 6))
    assert result.targets == [25]
    assert calls == []


def test_bare_germ_rank_below_target_at_perturbed_model(xyi):
    model = perturbed_models(xyi, 1, 1e-3, seed=11)[0]
    jac = G.germset_jacobian([xyi, model], G.bare_germs(xyi))[1]
    target = G.amplifiable_count(model)
    # at least 3 amplifiable directions beyond SPAM are missed
    assert matrix_rank_rel(jac) <= target - 3


def test_candidate_pool_no_cycles_or_repeats(xyi):
    pool = G.germ_candidate_pool(xyi.labels, 4)
    seqs = set(g.labels for g in pool)
    assert ("Gx", "Gx") not in seqs  # power of Gx
    assert ("Gx", "Gy") in seqs
    assert ("Gy", "Gx") not in seqs  # cyclic rotation of GxGy
    assert ("Gx", "Gx", "Gy", "Gy") in seqs
    for g in pool:
        n = len(g.labels)
        rotations = [g.labels[k:] + g.labels[:k] for k in range(n)]
        assert g.labels == min(rotations)
        assert all(g.labels != r for r in rotations[1:])


def test_standard_selection_reaches_target(xyi):
    pool = G.germ_candidate_pool(xyi.labels, 6)
    result = G.select_germs([xyi], pool)
    assert result.targets == [25]
    assert result.ranks[0] >= 25
    # independent rank check through the stacked Jacobian's SVD
    jac = G.germset_jacobian([xyi], result.germs)[0]
    assert matrix_rank_rel(jac) == 25


@pytest.fixture(scope="module")
def robust_depth6(xyi):
    models = [xyi] + perturbed_models(xyi, 5, 1e-3, seed=2026)
    pool = G.germ_candidate_pool(xyi.labels, 6)
    return models, pool, G.select_germs(models, pool)


def test_robust_selection_covers_all_models(robust_depth6):
    models, _, result = robust_depth6
    assert all(r >= t for r, t in zip(result.ranks, result.targets))
    for jac, target in zip(G.germset_jacobian(models, result.germs), result.targets):
        assert matrix_rank_rel(jac) >= target


def test_pruning_skips_most_eigensolves(robust_depth6):
    models, pool, result = robust_depth6
    unpruned = sum((len(pool) - k) * len(models) for k in range(len(result.trajectory)))
    made = sum(step["eigensolves"] for step in result.trajectory)
    assert all(step["eigensolves"] >= len(models) for step in result.trajectory)
    assert made < unpruned / 2


def tie_rule_choice(keys, pool):
    """The candidate the tie rule picks from complete (shortfall, score) keys."""
    least = min(keys.values())
    window = [ci for ci, k in keys.items() if k[0] == least[0] and k[1] <= least[1] * (1 + G.SCORE_TIE_RTOL)]
    return min(window, key=lambda ci: (len(pool[ci].labels), pool[ci].labels))


def model_tols(models):
    return [G.IDEAL_DEGENERACY_TOL] + [G.PERTURBED_DEGENERACY_TOL] * (len(models) - 1)


def greedy_reference(models, pool, states, score_tests, join):
    """Greedy loop scoring every candidate on every model from each model's
    empty-set state: ``score_tests(mi, state, unused)`` gives each unused
    candidate's (rank, score) at model ``mi`` and ``join(mi, state, ci)``
    the model's state after ``ci`` joins."""
    targets = [G.amplifiable_count(m) for m in models]
    chosen, trajectory = [], []
    while True:
        unused = [ci for ci in range(len(pool)) if ci not in chosen]
        per_model = [score_tests(mi, states[mi], unused) for mi in range(len(models))]
        scored = {ci: [pm[k] for pm in per_model] for k, ci in enumerate(unused)}
        keys = {ci: max((max(t - r, 0), s) for t, (r, s) in zip(targets, sc)) for ci, sc in scored.items()}
        ci = tie_rule_choice(keys, pool)
        chosen.append(ci)
        states = [join(mi, states[mi], ci) for mi in range(len(models))]
        ranks = [r for r, _ in scored[ci]]
        trajectory.append(
            {"added": str(pool[ci]), "ranks": ranks, "worst_score": keys[ci][1], "shortfall": keys[ci][0]}
        )
        if keys[ci][0] <= 0:
            return [pool[ci] for ci in chosen], ranks, [s for _, s in scored[ci]], trajectory


def unpruned_select_germs(models, pool, score_fn="sum"):
    """Every candidate scored on every model, one test matrix per call,
    through the held-row scorer."""
    targets = [G.amplifiable_count(m) for m in models]
    held = G._held_candidates(models, pool, model_tols(models))

    def score_tests(mi, chosen, unused):
        out = []
        for ci in unused:
            ranks, scores, _ = G._test_ranks_and_scores(chosen, held[mi], [ci], targets[mi], score_fn)
            out.append((ranks.item(), scores.item()))
        return out

    def join(mi, chosen, ci):
        return G._joined(chosen, held[mi], ci)

    empty = [np.zeros((0, n_params(m))) for m in models]
    return greedy_reference(models, pool, empty, score_tests, join)


def dense_select_germs(models, pool, score_fn="sum"):
    """The dense-Gram oracle: each test Gram ``G_S + J_c^T J_c`` is formed
    ``n_params`` wide and eigensolved, whichever the score."""
    targets = [G.amplifiable_count(m) for m in models]
    weights = np.array([1.0 / len(g.labels) for g in pool])[:, None, None]
    grams = []  # per model, each candidate's J_c^T J_c
    for m, tol in zip(models, model_tols(models)):
        jac = G.germ_twirled_jacobians(m, pool, tol) * weights
        grams.append(jac.transpose(0, 2, 1) @ jac)

    def score_tests(mi, gram, unused):
        ranks, scores = G._gram_ranks_and_scores(np.linalg.eigvalsh(gram + grams[mi][unused]), targets[mi], score_fn)
        return list(zip(ranks.tolist(), scores.tolist()))

    def join(mi, gram, ci):
        return gram + grams[mi][ci]

    empty = [np.zeros((n_params(m), n_params(m))) for m in models]
    return greedy_reference(models, pool, empty, score_tests, join)


def drop_work_counts(trajectory):
    return [{k: v for k, v in step.items() if k not in ("eigensolves", "width")} for step in trajectory]


@pytest.mark.parametrize(
    "perturbed, score_fn",
    [(0, "sum"), (2, "sum"), (0, "min"), (2, "min")],
    ids=["standard", "robust", "standard-min", "robust-min"],
)
def test_pruned_selection_equals_unpruned(xyi, perturbed, score_fn):
    models = [xyi] + perturbed_models(xyi, perturbed, 1e-3, seed=5)
    pool = G.germ_candidate_pool(xyi.labels, 4)
    result = G.select_germs(models, pool, score_fn=score_fn)
    germs, ranks, scores, trajectory = unpruned_select_germs(models, pool, score_fn)
    assert result.germs == germs
    assert result.ranks == ranks
    assert result.scores == scores
    assert drop_work_counts(result.trajectory) == trajectory


# Relative tolerance of held-row scores against the dense-Gram oracle.  A
# score sums inverse eigenvalues, so its rounding grows with the ratio of the
# largest to the smallest counted one: scores near 1e7 (smallest counted
# eigenvalue about 1e-8 of the largest) differ by up to 1.1e-8 on XYI.
HELD_SCORE_RTOL = 1e-7


def assert_matches_dense_oracle(xyi, seed, depth, score_fn):
    # robust models drawn as `germs --seed` draws them
    models = [xyi] + ([] if seed is None else perturbed_models(xyi, 5, 1e-3, seed + 7919))
    pool = G.germ_candidate_pool(xyi.labels, depth)
    result = G.select_germs(models, pool, score_fn=score_fn)
    germs, ranks, scores, trajectory = dense_select_germs(models, pool, score_fn)
    assert result.germs == germs
    assert result.ranks == ranks
    np.testing.assert_allclose(result.scores, scores, rtol=HELD_SCORE_RTOL)
    held = drop_work_counts(result.trajectory)
    assert [{**step, "worst_score": 0.0} for step in held] == [{**step, "worst_score": 0.0} for step in trajectory]
    np.testing.assert_allclose(
        [step["worst_score"] for step in held], [step["worst_score"] for step in trajectory], rtol=HELD_SCORE_RTOL
    )


@pytest.mark.parametrize("depth", [4, 5, 6])
@pytest.mark.parametrize("seed", [None, 1, 2, 3, 7], ids=["standard", "seed1", "seed2", "seed3", "seed7"])
def test_held_scores_match_dense_oracle(xyi, seed, depth):
    assert_matches_dense_oracle(xyi, seed, depth, "sum")


@pytest.mark.parametrize("seed", [None, 1, 7], ids=["standard", "seed1", "seed7"])
def test_min_scores_match_dense_oracle(xyi, seed):
    # ``min`` keeps the eigensolve: the same oracle checks it
    assert_matches_dense_oracle(xyi, seed, 4, "min")


def test_update_matches_eigensolve_on_every_test(xyi):
    # robust selection at pool depth 6, design-1q's (seed 7) and seed 3's:
    # every unused candidate at every model and step.  The update's rank
    # cutoff counts the Schur complement's eigenvalues against a Rayleigh
    # quotient of the test Gram; a losing candidate at seed 7 has an
    # eigenvalue within 11% of the cutoff, so counting the residual's
    # eigenvalues instead would split the ranks.  That quotient can sit
    # under the eigensolve's scale: at seed 3, with 23 chosen rows, the
    # update counts Gx Gx Gx Gx Gy an eigenvalue 3.5% over its cutoff (rank
    # 24, score 3.4e11) that the eigensolve does not (rank 23, score 53.1),
    # so a test counting one within twice the cutoff is unsure and
    # eigensolved.  Scores far above the step's least count a tiny
    # eigenvalue that the eigensolve rounds: they differ by up to 7.4e-5
    # relative, all above 1.5e6 where the least is at most 93 (the update
    # is within 3e-15 of a 40-digit reference on the worst), so only those
    # within ten times the least are held to HELD_SCORE_RTOL.
    pool = G.germ_candidate_pool(xyi.labels, 6)
    names = [str(g) for g in pool]
    deferred = set()
    for seed in (7, 3):
        models = [xyi] + perturbed_models(xyi, 5, 1e-3, seed + 7919)
        targets = [G.amplifiable_count(m) for m in models]
        held = G._held_candidates(models, pool, model_tols(models))
        chosen = [np.zeros((0, n_params(m))) for m in models]
        used, steps = [], G.select_germs(models, pool).trajectory
        assert len(steps) == 10
        for step in steps:
            unused = [ci for ci in range(len(pool)) if ci not in used]
            for mi, cands in enumerate(held):
                ranks, scores, _, unsure = G._updated_ranks_and_scores(chosen[mi], cands, unused)
                eig_ranks, eig_scores, _ = G._eigensolved_ranks_and_scores(
                    chosen[mi], cands, unused, targets[mi], "sum"
                )
                assert (ranks <= targets[mi]).all()
                assert np.array_equal(ranks[~unsure], eig_ranks[~unsure])
                deferred.update((seed, len(chosen[mi]), names[unused[k]]) for k in np.flatnonzero(unsure))
                ranks, scores, _ = G._test_ranks_and_scores(chosen[mi], cands, unused, targets[mi], "sum")
                assert np.array_equal(ranks, eig_ranks)
                near = eig_scores <= 10 * eig_scores[eig_ranks == eig_ranks.max()].min()
                np.testing.assert_allclose(scores[near], eig_scores[near], rtol=HELD_SCORE_RTOL)
            used.append(names.index(step["added"]))
            chosen = [G._joined(c, cands, used[-1]) for c, cands in zip(chosen, held)]
    # the seed-3 case is one of the tests handed to the eigensolve
    assert (3, 23, "Gx Gx Gx Gx Gy") in deferred


def test_update_defers_to_eigensolve(xyi):
    # a rank past the target counts only the top eigenvalues, and a chosen
    # direction under the rank cutoff may go uncounted: both are eigensolved
    pool = G.germ_candidate_pool(xyi.labels, 4)
    held = G._held_candidates([xyi], pool, [G.IDEAL_DEGENERACY_TOL])[0]
    names = [str(g) for g in pool]
    chosen = G._joined(np.zeros((0, n_params(xyi))), held, names.index("Gx"))
    unused = [ci for ci in range(len(pool)) if pool[ci] != Circuit(("Gx",))]
    ranks, _, _, unsure = G._updated_ranks_and_scores(chosen, held, unused)
    over = ranks > 10
    assert not unsure.any() and 0 < over.sum() < len(unused)
    past = G._test_ranks_and_scores(chosen, held, unused, 10, "sum")
    eig = G._eigensolved_ranks_and_scores(chosen, held, unused, 10, "sum")
    assert np.array_equal(past[0], eig[0]) and np.array_equal(past[1][over], eig[1][over]) and past[2] == eig[2]
    np.testing.assert_allclose(past[1], eig[1], rtol=HELD_SCORE_RTOL)

    # a row orthogonal to the chosen ones, 1e-13 of their top eigenvalue
    faint = np.linalg.svd(chosen)[2][-1] * np.sqrt(1e-13 * np.sum(chosen[0] ** 2))
    tiny = np.concatenate([chosen, faint[None]])
    assert G._updated_ranks_and_scores(tiny, held, unused)[3].all()
    got = G._test_ranks_and_scores(tiny, held, unused, 25, "sum")
    eig = G._eigensolved_ranks_and_scores(tiny, held, unused, 25, "sum")
    assert np.array_equal(got[0], eig[0]) and np.array_equal(got[1], eig[1])


def test_tie_window():
    least = (0, 6735.308581028959)
    assert not G._past_window((0, 6735.308581030599), least)  # tied up to rounding
    assert G._past_window((0, least[1] * (1 + 2 * G.SCORE_TIE_RTOL)), least)
    assert G._past_window((1, 1.0), least)
    assert not G._past_window((0, float("inf")), (0, float("inf")))


def test_exact_tie_settled_by_labels(xyi, monkeypatch):
    # after Gi, Gx Gx Gy and Gx Gy Gy tie: the X/Y mirror of each other
    pool = G.germ_candidate_pool(xyi.labels, 4)
    names = [str(g) for g in pool]
    held = G._held_candidates([xyi], pool, [G.IDEAL_DEGENERACY_TOL])[0]
    chosen = G._joined(np.zeros((0, n_params(xyi))), held, names.index("Gi"))
    pair = [names.index("Gx Gx Gy"), names.index("Gx Gy Gy")]
    ranks, scores, _ = G._test_ranks_and_scores(chosen, held, pair, 25, "sum")
    assert ranks[0] == ranks[1] and not G._past_window((0, scores[1]), (0, scores[0]))
    assert not G._past_window((0, scores[0]), (0, scores[1]))

    expected = G.select_germs([xyi], pool).germs
    assert [str(g) for g in expected[:2]] == ["Gi", "Gx Gx Gy"]
    for budget in (H.STACK_BYTES, 1):
        monkeypatch.setattr(H, "STACK_BYTES", budget)
        for order in (pool[::-1], pool[5:] + pool[:5], sorted(pool, key=lambda g: g.labels[::-1])):
            assert G.select_germs([xyi], order).germs == expected


def test_trajectory_records_test_width(xyi):
    # a step's width is the widest matrix it solved.  The rank update of
    # ``sum`` solves r_c wide, and every unused candidate is tested at the
    # first model, so it is the widest unused r_c; ``min``'s eigensolved test
    # matrices are rank_S + r wide, the chosen set's compressed rows and the
    # widest candidate's
    pool = G.germ_candidate_pool(xyi.labels, 4)
    held = G._held_candidates([xyi], pool, [G.IDEAL_DEGENERACY_TOL])[0]
    held_ranks = np.array([len(rows) for rows in held])
    names = [str(g) for g in pool]
    assert sorted(set(held_ranks.tolist())) == [4, 6, 12]
    for score_fn, widths in (("sum", [12, 6, 6, 6]), ("min", [12, 24, 30, 34])):
        result = G.select_germs([xyi], pool, score_fn=score_fn)
        chosen, used = np.zeros((0, n_params(xyi))), []
        for step in result.trajectory:
            unused = [ci for ci in range(len(pool)) if ci not in used]
            if score_fn == "sum":
                assert step["width"] == held_ranks[unused].max()
            else:
                assert step["width"] == len(chosen) + held_ranks.max()
            used.append(names.index(step["added"]))
            chosen = G._joined(chosen, held, used[-1])
            assert len(chosen) == step["ranks"][0]
        assert [step["width"] for step in result.trajectory] == widths


def test_held_test_spectra_match_dense_2q():
    gs = make_xycphase_gateset()
    chosen_germs = ["Gcphase", "Gix Gix Giy"]
    cand_germs = ["Gxi Gxi Gyi", "Gcphase Gix Gcphase Giy", "Gix Gxi Gyi Giy"]
    pool = [Circuit(tuple(g.split())) for g in chosen_germs + cand_germs]
    held = G._held_candidates([gs], pool, [G.IDEAL_DEGENERACY_TOL])[0]
    held_ranks = np.array([len(rows) for rows in held])
    chosen = np.zeros((0, n_params(gs)))
    for ci in range(len(chosen_germs)):
        chosen = G._joined(chosen, held, ci)
    cands = list(range(len(chosen_germs), len(pool)))
    ranks, scores, width = G._test_ranks_and_scores(chosen, held, cands, 961, "sum")
    assert width == held_ranks[cands].max() < held_ranks.max()
    eig_ranks, eig_scores, eig_width = G._eigensolved_ranks_and_scores(chosen, held, cands, 961, "sum")
    assert eig_width == len(chosen) + held_ranks.max() < n_params(gs)
    assert np.array_equal(ranks, eig_ranks)
    np.testing.assert_allclose(scores, eig_scores, rtol=HELD_SCORE_RTOL)

    jacs = G.germ_twirled_jacobians(gs, pool) / np.array([len(g.labels) for g in pool])[:, None, None]
    gram = sum(j.T @ j for j in jacs[: len(chosen_germs)])
    for k, ci in enumerate(cands):
        dense = np.linalg.eigvalsh(gram + jacs[ci].T @ jacs[ci])[::-1]
        (dense_rank,), (dense_score,) = G._gram_ranks_and_scores(dense[None], 961, "sum")
        assert ranks[k] == dense_rank
        assert scores[k] == pytest.approx(dense_score, rel=HELD_SCORE_RTOL)
        # the held-row spectrum: the test matrix's eigenvalues, then exact zeros
        r = np.concatenate([chosen, held[ci]])
        thin = np.linalg.eigvalsh(r @ r.T)[::-1]
        np.testing.assert_allclose(thin[:dense_rank], dense[:dense_rank], rtol=0, atol=1e-12 * dense[0])


def test_greedy_rank_monotone(xyi):
    models = [xyi] + perturbed_models(xyi, 2, 1e-3, seed=5)
    pool = G.germ_candidate_pool(xyi.labels, 4)
    result = G.select_germs(models, pool)
    worst_prev = 0
    for step in result.trajectory:
        worst = min(step["ranks"])
        assert worst >= worst_prev
        worst_prev = worst


def test_bare_pool_fails_pretest(xyi):
    model = perturbed_models(xyi, 1, 1e-3, seed=11)[0]
    # the perturbed model sits second, so it is judged at the perturbed tolerance
    with pytest.raises(G.GermSelectionError, match="model 1: rank"):
        G.select_germs([xyi, model], G.bare_germs(xyi))


def test_pool_sum_copies_no_more_rows_than_its_gram(rng):
    # the pre-check sums the pool's F^T F from consecutive groups of at most
    # n_params candidate rows: 40 candidates of 150 rows on 200 columns hold
    # 9.6 MB, and the sum peaks at about 3.5 Grams of 0.32 MB, where one
    # concatenation of every row peaked at 31
    width = 200
    cands = [rng.standard_normal((150, width)) for _ in range(40)] + [np.zeros((0, width))]
    want = sum(c.T @ c for c in cands)
    tracemalloc.start()
    try:
        pooled = G._pooled(cands)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(pooled.gram - want)) <= 1e-12 * np.max(np.abs(want))
    assert peak <= 5 * want.nbytes
    # a pool with fewer rows than columns is held as its rows, in pool order
    assert G._pooled(cands[-1:] + cands[:1]).rows.tobytes() == cands[0].tobytes()


def test_empty_pool_raises_germ_selection_error(xyi):
    with pytest.raises(G.GermSelectionError, match="empty"):
        G.select_germs([xyi], [])


def test_no_models_raises_value_error(xyi):
    with pytest.raises(ValueError, match="at least one model"):
        G.select_germs([], G.germ_candidate_pool(xyi.labels, 2))


def test_models_in_another_gate_order_raise_value_error(xyi):
    # every model is built in the target's parameter columns
    reordered = dataclasses.replace(xyi, gates=dict(reversed(list(xyi.gates.items()))))
    with pytest.raises(ValueError, match="share gate labels"):
        G.select_germs([xyi, reordered], G.germ_candidate_pool(xyi.labels, 2))


def assert_same_kite(stacked, alone):
    assert stacked.eigenvalues == alone.eigenvalues and stacked.blocks == alone.blocks
    for a, b in ((stacked.basis, alone.basis), (stacked.basis_inv, alone.basis_inv)):
        assert a.dtype == b.dtype and a.strides == b.strides and np.array_equal(a, b)


def assert_stack_matches_batches_of_one(model, germs, tol):
    kites = G.kite_structures(np.stack([circuit_ptm(model, g) for g in germs]), tol)
    jacs = G.germ_twirled_jacobians(model, germs, tol)
    assert jacs.shape == (len(germs), model.dim**2, n_params(model))
    for germ, kite, jac in zip(germs, kites, jacs):
        assert_same_kite(kite, G.kite_structure(circuit_ptm(model, germ), tol))
        assert np.array_equal(jac, G.germ_twirled_jacobian(model, germ, tol))


def test_stacked_builds_match_batches_of_one(xyi):
    pool = G.germ_candidate_pool(xyi.labels, 6)
    models = [xyi] + perturbed_models(xyi, 5, 1e-3, seed=2026)
    tols = [G.IDEAL_DEGENERACY_TOL] + [G.PERTURBED_DEGENERACY_TOL] * 5
    for model, tol in zip(models, tols):
        assert_stack_matches_batches_of_one(model, pool, tol)
    xycphase = make_xycphase_gateset()
    germs = [Circuit(tuple(g.split())) for g in ("Gcphase Gxi Giy", "Gxi", "Gxi Giy Gcphase")]
    assert_stack_matches_batches_of_one(xycphase, germs, G.IDEAL_DEGENERACY_TOL)


def test_stack_mixing_real_and_complex_spectra(xyi):
    # Gi has a real spectrum and Gx a complex one: a stacked eig returns
    # complex arrays for both, yet Gi's kite must stay real
    ops = np.stack([xyi.gates["Gi"], xyi.gates["Gx"], xyi.gates["Gi"] @ xyi.gates["Gi"]])
    kites = G.kite_structures(ops)
    assert [k.basis.dtype.kind for k in kites] == ["f", "c", "f"]
    for op, kite in zip(ops, kites):
        assert_same_kite(kite, G.kite_structure(op))


def test_stack_with_defective_member(rng, monkeypatch):
    jordan = np.diag([1.0, 1.0, 0.5, 0.2])
    jordan[0, 1] = 1.0  # one 2x2 Jordan block: no eigenvector basis
    rotation = np.eye(4)
    rotation[1:3, 1:3] = [[0.6, -0.8], [0.8, 0.6]]
    ops = np.stack(
        [rng.standard_normal((4, 4)), jordan, np.diag([0.9, 0.3, 0.2, 0.1]), rotation, rng.standard_normal((4, 4))]
    )
    alone = [G.kite_structure(op) for op in ops]
    # the Frobenius bound screens every diagonalizable member: the exact
    # cond, an SVD, runs on the Jordan member alone
    cond, screened = np.linalg.cond, []
    monkeypatch.setattr(np.linalg, "cond", lambda x, *a: screened.append(len(x)) or cond(x, *a))
    kites = G.kite_structures(ops)
    assert screened == [1]
    assert kites[1].blocks == ((0, 2), (2, 1), (3, 1))
    assert np.linalg.cond(kites[1].basis) < 1e3  # the generalized eigenbasis
    for kite, ref in zip(kites, alone):
        assert_same_kite(kite, ref)

    # a stacked inverse that raises takes cond on every member first
    inv, raised = np.linalg.inv, []

    def inv_raising_once(a):
        if a.ndim == 3 and len(a) > 1 and not raised:
            raised.append(len(a))
            raise np.linalg.LinAlgError("Singular matrix")
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", inv_raising_once)
    screened.clear()
    for kite, ref in zip(G.kite_structures(ops), alone):
        assert_same_kite(kite, ref)
    assert raised and raised[0] in screened


def defective_xyi_models(xyi):
    """XYI with ``Gx`` replaced, and their degeneracy tolerances.  The
    first ``Gx`` has a complex pair 1e-13 off the real axis that is nearly
    defective: its kite falls back to generalized eigenspaces, which do not
    pair.  The next two are nearly defective with a real spectrum (gaps
    1e-10 and 1e-5): the first one's image Gram is not numerically positive
    definite, and the second shares its stack."""
    gx = np.diag([1.0, 1.0, 1.0, 0.2])
    gx[1, 2], gx[2, 1] = 1.0, -1e-26
    gxs = [gx]
    for gap in (1e-10, 1e-5):
        gxs.append(np.array([[1, 0, 0, 0], [0, 0.5, 1, 0], [0, 0, 0.5 + gap, 0], [0, 0, 0, 0.2]]))
    models = [dataclasses.replace(xyi, gates={**xyi.gates, "Gx": g}) for g in gxs]
    return models, [1e-12] * len(models)


def held_build_cases(xyi) -> dict:
    """(models, pool, tols) of the held-candidate builds checked against
    the dense Jacobians and against builds of one, by name."""
    pool6 = G.germ_candidate_pool(xyi.labels, 6)
    seed7 = [xyi] + perturbed_models(xyi, 5, 1e-3, 7 + 7919)
    xycphase = make_xycphase_gateset()
    two_q = [xycphase] + perturbed_models(xycphase, 1, 1e-3, 7 + 7919)
    pool2q = [Circuit(tuple(g.split())) for g in ("Gxi", "Gcphase", "Gcphase Gxi Giy")]
    defective, tols = defective_xyi_models(xyi)
    return {
        "xyi-target": ([xyi], pool6, [G.IDEAL_DEGENERACY_TOL]),
        "xyi-seed7": (seed7, pool6, model_tols(seed7)),
        "2q": (two_q, pool2q, model_tols(two_q)),
        "defective": (defective, G.germ_candidate_pool(xyi.labels, 2), tols),
    }


# Largest difference between a candidate's held Gram (its factor rows')
# and the Gram J^T J of its dense twirled Jacobian, relative to the dense
# Gram's largest entry.  Measured worst: 7.0e-15 on the XYI depth-6 pool,
# 3.0e-15 on the 2Q germs, 1.0e-15 on the defective models.
FACTOR_GRAM_RTOL = 1e-13


@pytest.mark.parametrize("case", ["xyi-target", "xyi-seed7", "2q", "defective"])
def test_factor_rows_match_dense_jacobians(xyi, case, monkeypatch):
    models, pool, tols = held_build_cases(xyi)[case]
    # the members' kinds: a real spectrum, conjugate pairs, an unpaired basis
    kinds = set()
    for factors in G._twirled_factors(models, pool, tols):
        k = np.arange(factors.partner.shape[1])
        for partner in factors.partner:
            kinds.add("real" if not np.iscomplexobj(factors.image) else "unpaired" if partner[0] < 0 else "paired")
            assert partner[0] < 0 or np.array_equal(partner[partner], k)
    assert kinds == ({"real", "paired", "unpaired"} if case == "defective" else {"real", "paired"})
    qr, factored = np.linalg.qr, []
    monkeypatch.setattr(np.linalg, "qr", lambda a, *args, **kw: factored.append(len(a)) or qr(a, *args, **kw))
    held = G._held_candidates(models, pool, tols)
    # only Gx and Gi Gx (the same operator) at the gap-1e-10 model fall
    # back from Cholesky to QR, each one alone
    assert factored == ([1, 1] if case == "defective" else [])
    weights = np.array([1.0 / len(g.labels) for g in pool])[:, None, None]
    for model, tol, cands in zip(models, tols, held):
        jac = G.germ_twirled_jacobians(model, pool, tol) * weights
        assert np.array_equal([len(rows) for rows in cands], compressed_rows(jac)[1])
        for c in range(len(pool)):
            dense = jac[c].T @ jac[c]
            gram = cands[c].T @ cands[c]
            assert np.abs(gram - dense).max() <= FACTOR_GRAM_RTOL * np.abs(dense).max()


@pytest.mark.parametrize("case", ["xyi-target", "xyi-seed7", "2q", "defective"])
def test_held_member_does_not_depend_on_its_stack(xyi, case):
    # all models in one pass give each model's candidates as a build of
    # that model alone, and each candidate as its batch of one
    models, pool, tols = held_build_cases(xyi)[case]
    for model, tol, held in zip(models, tols, G._held_candidates(models, pool, tols)):
        alone = G._held_candidates([model], pool, [tol])[0]
        for c, germ in enumerate(pool):
            (one,) = G._held_candidates([model], [germ], [tol])[0]
            for a in (alone[c], one):
                assert a.shape == held[c].shape and np.array_equal(a, held[c])


def test_selection_independent_of_stack_budget(xyi, monkeypatch):
    # under ``min`` a 1-byte budget pads each candidate's rows in a stack of its own
    models = [xyi] + perturbed_models(xyi, 2, 1e-3, seed=5)
    pool = G.germ_candidate_pool(xyi.labels, 4)
    default = {score_fn: G.select_germs(models, pool, score_fn=score_fn) for score_fn in ("sum", "min")}
    monkeypatch.setattr(H, "STACK_BYTES", 1)  # one germ or one Gram per stack
    for score_fn, result in default.items():
        assert G.select_germs(models, pool, score_fn=score_fn) == result


def test_held_candidates_keep_their_own_rows_2q():
    # each candidate is held as its own r_c compressed rows, copied out of
    # its build stack: the store is exactly those rows' bytes, and the build
    # peaks not far above it (42 MB against 33.6 MB, where rows padded to
    # the pool's widest rank and their Grams peaked at 116 MB)
    gs = make_xycphase_gateset()
    pool = G.germ_candidate_pool(gs.labels, 3)
    assert len(pool) == 55
    tracemalloc.start()
    try:
        (held,) = G._held_candidates([gs], pool, [G.IDEAL_DEGENERACY_TOL])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ranks = [compressed_rows(G.germ_twirled_jacobian(gs, g)[None] / len(g.labels))[1][0] for g in pool]
    for rows, rank in zip(held, ranks):
        assert rows.shape == (rank, n_params(gs)) and rows.flags.owndata
        assert np.all(np.any(rows != 0.0, axis=1))
    stored = sum(rows.nbytes for rows in held)
    assert stored == 8 * n_params(gs) * sum(ranks)
    assert peak < 1.5 * stored


def test_kite_basis_is_a_lone_eig_in_kite_order(xyi, rng):
    # bits and memory layout both: products with the basis downstream (FPR's
    # kite Jacobian) take their BLAS path, and so their rounding, from it
    gx_gy = circuit_ptm(xyi, Circuit(("Gx", "Gy")))
    for op in (xyi.gates["Gx"], xyi.gates["Gi"], gx_gy, rng.standard_normal((4, 4))):
        evals, evecs = np.linalg.eig(op)
        clusters = G._clusters(G._cluster_labels(evals[None], G.IDEAL_DEGENERACY_TOL)[0])
        order = [i for group in clusters for i in group]
        ref = evecs[:, order]
        kite = G.kite_structure(op)
        assert kite.basis.dtype == ref.dtype and kite.basis.strides == ref.strides
        assert np.array_equal(kite.basis, ref)
        assert np.array_equal(kite.basis_inv, np.linalg.inv(ref))
