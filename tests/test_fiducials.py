import numpy as np
import pytest

from gstdesign import fiducials as F
from gstdesign.builtins import make_xycphase_gateset
from gstdesign.model import Circuit


def test_standard_prep_fiducials_rank_and_spectrum(xyi, xyi_fiducials):
    # oracle: build the six effective states explicitly and eigendecompose
    # the 4x4 frame operator; the octahedral set gives {3, 1, 1, 1}
    from gstdesign.model import circuit_ptm

    states = np.vstack([circuit_ptm(xyi, f) @ xyi.prep for f in xyi_fiducials])
    frame_evals = np.sort(np.linalg.eigvalsh(states.T @ states))[::-1]
    assert np.allclose(frame_evals, [3, 1, 1, 1], atol=1e-12)

    score = F.fiducial_score(xyi, xyi_fiducials, "prep")
    assert score.rank == 4
    assert score.score > 0
    assert np.isclose(score.score, frame_evals[3], atol=1e-12)


def test_rank_deficient_set_scores_minus_inf(xyi):
    score = F.fiducial_score(xyi, [Circuit(())], "prep")
    assert score.rank < 4 and score.score == float("-inf")


def test_adding_fiducial_never_decreases_rank(xyi, xyi_fiducials):
    prev = 0
    for n in range(1, len(xyi_fiducials) + 1):
        rank = F.fiducial_score(xyi, xyi_fiducials[:n], "prep").rank
        assert rank >= prev
        prev = rank


def test_meas_rank_requirement_is_one_lower(xyi, xyi_fiducials):
    assert F.required_rank(xyi, "prep") == 4
    assert F.required_rank(xyi, "meas") == 3
    score = F.fiducial_score(xyi, xyi_fiducials, "meas")
    assert score.rank >= 3 and score.score > 0


def test_select_returns_minimal_pool_as_is(xyi, xyi_fiducials):
    chosen = F.select_fiducials(xyi, list(xyi_fiducials), "prep")
    assert F.fiducial_score(xyi, chosen, "prep").rank == 4
    assert set(c.labels for c in chosen) <= set(c.labels for c in xyi_fiducials)


def test_greedy_selection_from_depth3_pool(xyi):
    pool = F.fiducial_candidate_pool(xyi.labels, 3)
    assert Circuit(()) in pool and len(pool) == 1 + 3 + 9 + 27
    chosen = F.select_fiducials(xyi, pool, "prep")
    # frozen greedy output: a six-element octahedral frame with rank 4
    assert len(chosen) == 6
    score = F.fiducial_score(xyi, chosen, "prep")
    assert score.rank == 4
    assert np.isclose(score.score, 1.0, atol=1e-9)


def test_greedy_local_maximality(xyi):
    pool = F.fiducial_candidate_pool(xyi.labels, 3)
    chosen = F.select_fiducials(xyi, pool, "prep")
    full = F.fiducial_score(xyi, chosen, "prep").score
    for k in range(len(chosen)):
        reduced = chosen[:k] + chosen[k + 1 :]
        assert F.fiducial_score(xyi, reduced, "prep").score <= full + 1e-12


def test_non_ic_pool_reports_rank(xyi):
    # powers of Gx sweep the y-z circle: the frame spans only the identity,
    # y and z coordinates, so the pool rank is 3 of 4
    pool = [Circuit(("Gx",) * k) for k in range(8)]
    with pytest.raises(F.PoolNotInformationallyComplete) as err:
        F.select_fiducials(xyi, pool, "prep")
    assert err.value.rank == 3
    assert err.value.required == 4


def test_two_qubit_pattern_pool_selection():
    gs = make_xycphase_gateset()
    pool = F.per_qubit_pattern_pool(("Gxi", "Gyi"), ("Gix", "Giy"))
    assert len(pool) == 36
    chosen = F.select_fiducials(gs, pool, "prep", rel_improvement=0.05)
    assert F.fiducial_score(gs, chosen, "prep").rank == 16
