"""Fiducial pair reduction: structured per-germ search and random thinning.

Per-germ FPR reparameterizes each germ by its kite structure (entries
inside the commutant blocks, expressed in the germ's generalized
eigenbasis) and asks which fiducial pairs produce outcome probabilities
sensitive to those coordinates.  A random incremental search keeps the
smallest pair set whose Jacobian Gram spectrum retains at least a fraction
``eps_lambda`` of the full grid's smallest non-trivial eigenvalue, at the
full grid's rank.

The search scores a candidate exactly, by an SVD of its Jacobian rows,
only when it may be the accepted winner of its size.  Two stacked
eigensolves per size bound every candidate's score first: a cap from the
full grid's trailing eigenspace, then an estimate from the candidate's
gathered rows' Gram, each within ``SCREEN_RTOL`` times the Gram's trace
of exact arithmetic.  A stack gathers at most
:data:`~gstdesign.held.STACK_BYTES` of rows, and no per-pair Gram is
kept.  A candidate whose bound falls below the acceptance threshold or
strictly below another candidate's is provably not the winner, so the
chosen pairs and ratios are equal in bits to scoring every candidate (see
:func:`per_germ_fpr`).

Random FPR ignores the structure entirely: under
``FprPolicy(mode="random")`` each (germ, power) plaquette of
:func:`~gstdesign.design.plaquettes` independently keeps
``keep_count(gamma, n_pairs)`` pairs drawn without replacement.  The
count uses floor-with-minimum-one so that fractions of 12.5% and 3% of a
36-pair grid keep 4 and 1 pairs; a ceiling mode is available behind the
``rounding`` flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import held
from .design import FprPolicy, keep_count
from .germs import IDEAL_DEGENERACY_TOL, KiteStructure, kite_structure
from .model import (
    GateSet,
    circuit_ptm,
    effective_fiducial_effects,
    effective_fiducial_states,
    numerical_rank,
)

__all__ = [
    "PerGermFprResult",
    "keep_count",
    "kite_param_jacobian",
    "per_germ_fpr",
    "SCREEN_RTOL",
]

SCREEN_RTOL = 1e-10
"""Half-width, relative to the trace of a candidate's Gram ``G``, of the
screen's bounds on its score (see :func:`per_germ_fpr`).

The exact score ``s`` comes from a backward-stable SVD of the candidate's
rows, the screen's values from gathered rows' Grams and backward-stable
``eigvalsh`` calls, and the cap's trailing basis is orthonormal to
rounding.  Each rounding error is bounded by ``(rows + coords)`` times the
machine epsilon times ``||G|| <= trace(G)``, so the screen's values and
``s`` differ from exact arithmetic by a small multiple of
``(rows + coords) * 2.2e-16 * trace(G)``.  A 2Q grid has at most
4 * 144 = 576 rows and 256 kite coordinates: about 2e-13 of the trace, a
margin of more than 300x.  Over 1Q depth-4 and five 2Q germs the largest
gap seen was 1.3e-16 of the trace.
"""


def kite_param_jacobian(
    gs: GateSet, pairs, prep_fiducials, meas_fiducials, kite: KiteStructure
) -> np.ndarray:
    """Jacobian of pair probabilities with respect to kite coordinates.

    Rows run over (pair, outcome); columns over the in-block entries
    (``kite.coords``) of the germ superoperator written in its generalized
    eigenbasis, ``kite`` being the germ's kite structure, evaluated at the
    germ's value.  Entries are complex because the eigenbasis is; the
    derivative of ``<<E'| S K S^-1 |rho'>>`` in coordinate (u, v) is the
    exact product ``(E'^T S)_u (S^-1 rho')_v``.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("kite_param_jacobian needs at least one fiducial pair")
    m = gs.num_effects
    states = effective_fiducial_states(gs, list(prep_fiducials))
    effects = effective_fiducial_effects(gs, list(meas_fiducials))
    us, vs = kite.coords
    # one matvec per fiducial; row (r, t) of pair r = (j, i) takes effect
    # i*m + t and state j
    j, i = np.array(pairs).T
    left = np.array([e @ kite.basis for e in effects])[:, us][(i[:, None] * m + np.arange(m)).ravel()]
    right = np.array([kite.basis_inv @ s for s in states])[:, vs][np.repeat(j, m)]
    if not np.iscomplexobj(left):
        return (left * right).astype(complex)  # imaginary parts +0.0
    # real multiplies round as the scalar complex product does, which a
    # vectorised complex product does not
    jac = np.empty(left.shape, dtype=complex)
    jac.real = left.real * right.real - left.imag * right.imag
    jac.imag = left.real * right.imag + left.imag * right.real
    return jac


def _exact_score(blocks: np.ndarray, sel: np.ndarray, rank: int) -> float:
    """A candidate's score: the rank-th largest squared singular value of
    its pairs' rows, pair ``r`` owning the ``(m, width)`` block
    ``blocks[r]``.  A candidate has at least ``rank`` rows, and the full
    grid at least ``rank`` columns."""
    rows = blocks[sel].reshape(-1, blocks.shape[2])
    return float(np.linalg.svd(rows, compute_uv=False)[rank - 1] ** 2)


def _eigvalsh_at(blocks: np.ndarray, draws: np.ndarray, index: int) -> np.ndarray:
    """Ascending eigenvalue ``index`` of each draw's Gram ``R^H R``, ``R``
    being its pairs' rows of the ``(pairs, m, width)`` blocks, gathered at
    most :data:`~gstdesign.held.STACK_BYTES` at a time."""
    cands, size = draws.shape
    _, m, width = blocks.shape
    # a draw's gathered rows, size x m x width
    chunk = max(1, held.STACK_BYTES // (blocks.itemsize * size * m * width))
    out = []
    for lo in range(0, cands, chunk):
        rows = blocks[draws[lo : lo + chunk]].reshape(-1, size * m, width)
        out.append(np.linalg.eigvalsh(rows.conj().transpose(0, 2, 1) @ rows)[:, index])
    return np.concatenate(out)


class _PairScreen:
    """Bounds on the scores of one size's candidate pair sets.

    A candidate's score ``s`` is the rank-th largest eigenvalue of the Gram
    ``G = R^H R`` of its gathered rows ``R``.  Two stacked eigensolves bound
    it, each within ``delta = SCREEN_RTOL * trace(G)`` of exact arithmetic:

    * a cap: ``s`` is at most the top eigenvalue of ``W^H G W`` for any
      ``width - rank + 1`` orthonormal columns ``W`` (Courant-Fischer).
      ``W`` spans the full grid's trailing eigenvectors, so the cap solves
      the Grams of the rows ``R W``, ``width - rank + 1`` wide, one wide
      for a full-rank germ;
    * an estimate ``a``: the rank-th largest eigenvalue of ``G``.  ``G`` is
      ``width x width`` at every size, also for a candidate with fewer
      rows than that: its eigenvalues beyond the rows are zero, a candidate
      has at least ``rank`` rows, and the bound holds for a Gram of any
      rank.
    """

    def __init__(self, blocks: np.ndarray, rank: int):
        self.rank = rank
        self.blocks = blocks
        self.traces = np.sum(np.abs(blocks) ** 2, axis=(1, 2))
        width = blocks.shape[2]
        rows = blocks.reshape(-1, width)
        trailing = np.linalg.eigh(rows.conj().T @ rows)[1][:, : width - rank + 1]
        self._cap_blocks = blocks @ trailing

    def survivors(self, draws: np.ndarray, threshold: float) -> np.ndarray:
        """Indices, in draw order, of the candidates (rows of sorted pair
        indices) whose score may be the largest and reach ``threshold``:
        those whose cap and ``a + delta`` both reach ``threshold`` and
        whose ``a + delta`` reaches every capped-in candidate's
        ``a - delta``.  Every other candidate scores below the threshold or
        strictly below a survivor."""
        delta = SCREEN_RTOL * self.traces[draws].sum(axis=1)
        cap = _eigvalsh_at(self._cap_blocks, draws, self._cap_blocks.shape[2] - 1)
        idx = np.flatnonzero(cap + delta >= threshold)
        if not idx.size:
            return idx
        est = _eigvalsh_at(self.blocks, draws[idx], self.blocks.shape[2] - self.rank)
        upper, lower = est + delta[idx], est - delta[idx]
        return idx[upper >= max(threshold, lower.max())]


@dataclass
class PerGermFprResult:
    """Retained pairs and achieved eigenvalue ratios per germ index."""

    pairs_by_germ: dict[int, tuple[tuple[int, int], ...]]
    achieved_ratio: dict[int, float]
    baseline_rank: dict[int, int]
    eps_lambda: float
    fell_back_to_full: set[int] = field(default_factory=set)

    def to_policy(self) -> FprPolicy:
        return FprPolicy(
            mode="per-germ", eps_lambda=self.eps_lambda, pairs_by_germ=dict(self.pairs_by_germ)
        )


def per_germ_fpr(
    gs: GateSet,
    prep_fiducials,
    meas_fiducials,
    germs,
    eps_lambda: float = 1.0 / 30.0,
    search_seed: int = 0,
    candidates_per_size: int = 100,
) -> PerGermFprResult:
    """Random incremental pair search per germ (accept at eps_lambda ratio).

    For each germ the full-grid Jacobian sets the baseline: its rank k and
    its k-th largest Gram eigenvalue.  Candidate pair sets start at the
    size needed for rank k, draw ``candidates_per_size`` sets per size from
    a per-germ stream split off the master seed, and grow by one pair until
    a set's k-th Gram eigenvalue reaches ``eps_lambda`` times the baseline.
    A size's winner is its first candidate, in draw order, of largest
    score; a candidate's score is its k-th squared singular value.  If
    nothing short of the full grid is accepted the full grid is returned
    with a fallback flag.

    Each size's draws are screened before any is scored (see
    :class:`_PairScreen`).  With ``delta = SCREEN_RTOL * trace(G)`` for a
    candidate's gathered rows' Gram ``G``, a stacked cap ``c`` and a
    stacked estimate ``a`` satisfy ``s <= c + delta`` and
    ``|s - a| <= delta`` for the exact score ``s``.  A candidate with ``c + delta`` or ``a + delta`` below the
    threshold cannot be accepted, and one whose ``a + delta`` is below the
    largest ``a - delta`` scores strictly below that candidate; neither
    gets an SVD.  A size with no candidate left is rejected unscored.  The
    winner of an accepted size reaches the threshold and every score, so
    it and every candidate tying with it survive, and the first maximal
    survivor in draw order is the winner of scoring every candidate.  The
    draws use the random stream exactly as that exhaustive search does, so
    pairs and ratios are equal in bits to it.
    """
    if not (0.0 < eps_lambda <= 1.0):
        raise ValueError("eps_lambda must lie in (0, 1]")
    preps = list(prep_fiducials)
    meass = list(meas_fiducials)
    germs = list(germs)
    m = gs.num_effects
    full_grid = [(j, i) for j in range(len(preps)) for i in range(len(meass))]

    pairs_by_germ: dict[int, tuple[tuple[int, int], ...]] = {}
    achieved: dict[int, float] = {}
    base_rank: dict[int, int] = {}
    fallback: set[int] = set()

    for k, germ in enumerate(germs):
        kite = kite_structure(circuit_ptm(gs, germ), IDEAL_DEGENERACY_TOL)
        jac_full = kite_param_jacobian(gs, full_grid, preps, meass, kite)
        svals = np.linalg.svd(jac_full, compute_uv=False)
        rank = numerical_rank(svals)
        if rank == 0:
            raise ValueError(f"germ {germ} has a rank-0 full-grid Jacobian")
        lam_baseline = float(svals[rank - 1] ** 2)
        threshold = eps_lambda * lam_baseline
        base_rank[k] = rank
        screen = _PairScreen(jac_full.reshape(len(full_grid), m, -1), rank)
        rng = np.random.default_rng(np.random.SeedSequence([int(search_seed), k]))

        found = None
        start_size = max(1, math.ceil(rank / m))
        for size in range(start_size, len(full_grid)):
            draws = np.array([rng.choice(len(full_grid), size=size, replace=False) for _ in range(candidates_per_size)])
            if not len(draws):
                continue
            draws = np.sort(draws, axis=1)
            best = None
            for sel in draws[screen.survivors(draws, threshold)]:
                lam = _exact_score(screen.blocks, sel, rank)
                if best is None or lam > best[0]:
                    best = (lam, sel)
            if best is None:
                continue  # no candidate reaches the threshold
            lam, sel = best
            if lam >= threshold:
                found = (sel.tolist(), lam / lam_baseline)
                break
        if found is None:
            pairs_by_germ[k] = tuple(full_grid)
            achieved[k] = 1.0
            fallback.add(k)
        else:
            sel, ratio = found
            pairs_by_germ[k] = tuple(full_grid[r] for r in sel)
            achieved[k] = ratio

    return PerGermFprResult(
        pairs_by_germ=pairs_by_germ,
        achieved_ratio=achieved,
        baseline_rank=base_rank,
        eps_lambda=eps_lambda,
        fell_back_to_full=fallback,
    )
