"""Germ selection through commutant (kite) structure and twirled Jacobians.

Repeating a germ many times amplifies exactly the parameter directions
whose derivative survives projection onto the germ's commutant: in the
germ's generalized eigenbasis the commutant is block diagonal with one
block per unique eigenvalue (its "kite structure").  Stacking the projected
and matricized Jacobians of every germ in a set gives a matrix whose rank
counts the amplified directions; a germ set is amplificationally complete
(AC) for a model when that rank reaches the model's amplifiable-parameter
target.

The greedy selector grows a germ set one candidate at a time, judging each
test set by its worst score over all supplied models.  Supplying only the
target model yields the "standard" set; adding unitarily perturbed copies
of the target (which break accidental spectral degeneracies, most notably
the idle gate's) yields the "robust" set; the "bare" set is just the gates
themselves and is deliberately not AC.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    RANK_RTOL,
    Circuit,
    GateSet,
    GaugeTangent,
    circuit_ptm,
    gauge_tangent,
    matrix_rank_rel,
    n_params,
    param_blocks,
)

__all__ = [
    "KiteStructure",
    "GermSelectionError",
    "GermSelectionResult",
    "kite_structure",
    "twirl_project",
    "germ_twirled_jacobian",
    "germset_jacobian",
    "amplifiable_count",
    "germ_candidate_pool",
    "bare_germs",
    "select_germs",
    "IDEAL_DEGENERACY_TOL",
    "PERTURBED_DEGENERACY_TOL",
]

IDEAL_DEGENERACY_TOL = 1e-7
PERTURBED_DEGENERACY_TOL = 1e-10


class GermSelectionError(ValueError):
    """Candidate pool cannot amplify the requested parameters."""


@dataclass(frozen=True)
class KiteStructure:
    """Block-diagonal commutant description of one superoperator.

    ``basis`` columns are (generalized) eigenvectors ordered so that each
    unique eigenvalue's space is contiguous; ``blocks`` are (start, size)
    extents in that ordering; ``eigenvalues`` holds one representative per
    block.  ``num_params`` is the commutant dimension, sum of size^2.
    """

    eigenvalues: tuple[complex, ...]
    blocks: tuple[tuple[int, int], ...]
    basis: np.ndarray
    basis_inv: np.ndarray

    @property
    def num_params(self) -> int:
        return sum(s * s for _, s in self.blocks)

    def mask(self) -> np.ndarray:
        dim = self.basis.shape[0]
        m = np.zeros((dim, dim))
        for start, size in self.blocks:
            m[start : start + size, start : start + size] = 1.0
        return m


def _cluster_eigenvalues(evals: np.ndarray, tol: float) -> list[list[int]]:
    """Connected-component clustering of eigenvalues at relative tolerance."""
    scale = float(np.max(np.abs(evals)))
    thresh = tol * (scale if scale > 0 else 1.0)
    n = evals.size
    unvisited = set(range(n))
    clusters = []
    while unvisited:
        seed = min(unvisited)
        group = {seed}
        frontier = {seed}
        while frontier:
            nxt = set()
            for i in frontier:
                for j in list(unvisited - group):
                    if abs(evals[i] - evals[j]) <= thresh:
                        nxt.add(j)
            group |= nxt
            frontier = nxt
        clusters.append(sorted(group))
        unvisited -= group
    clusters.sort(key=lambda g: g[0])
    return clusters


def _generalized_eigenbasis(op: np.ndarray, clusters, evals) -> np.ndarray:
    """Schur-free fallback: null spaces of (A - lambda I)^k per cluster."""
    dim = op.shape[0]
    cols = []
    for group in clusters:
        lam = np.mean([evals[i] for i in group])
        k = len(group)
        m = np.linalg.matrix_power(op - lam * np.eye(dim), k)
        _, s, vh = np.linalg.svd(m)
        cols.append(vh.conj().T[:, dim - k :])
    return np.hstack(cols)


def kite_structure(op: np.ndarray, degeneracy_tol: float = IDEAL_DEGENERACY_TOL) -> KiteStructure:
    """Eigen-decompose ``op`` and group degenerate eigenvalues into blocks."""
    op = np.asarray(op)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError("kite_structure needs a square matrix")
    if not np.all(np.isfinite(op)):
        raise ValueError("kite_structure input has non-finite entries")
    evals, evecs = np.linalg.eig(op)
    clusters = _cluster_eigenvalues(evals, degeneracy_tol)

    order = [i for group in clusters for i in group]
    basis = evecs[:, order]
    # fall back to generalized eigenspaces when the eigenvector matrix is
    # defective (non-diagonalizable input)
    if np.linalg.cond(basis) > 1e12:
        basis = _generalized_eigenbasis(op, clusters, evals)
    basis_inv = np.linalg.inv(basis)

    blocks = []
    reps = []
    start = 0
    for group in clusters:
        blocks.append((start, len(group)))
        reps.append(complex(np.mean([evals[i] for i in group])))
        start += len(group)
    return KiteStructure(
        eigenvalues=tuple(reps),
        blocks=tuple(blocks),
        basis=basis,
        basis_inv=basis_inv,
    )


def twirl_project(deriv_slice: np.ndarray, kite: KiteStructure) -> np.ndarray:
    """Project a derivative slice onto the commutant of the kite's operator.

    Transform into the kite basis, zero everything outside the blocks and
    transform back; this is the infinite-power limit of the repetition
    average (1/p) sum_i G^i D G^-i.
    """
    if np.linalg.cond(kite.basis) > 1e10:
        raise ValueError("kite basis is too ill conditioned to project against")
    inner = kite.basis_inv @ deriv_slice @ kite.basis
    return kite.basis @ (inner * kite.mask()) @ kite.basis_inv


def germ_twirled_jacobian(
    model: GateSet, germ: Circuit, degeneracy_tol: float = IDEAL_DEGENERACY_TOL
) -> np.ndarray:
    """Matricized commutant-projected germ Jacobian, shape (D^2, n_params).

    Columns for parameters of gates absent from the germ (and all SPAM
    parameters) are zero.  Real part is returned: the projected derivative
    of a real matrix is real up to rounding because blocks of conjugate
    eigenvalues are projected symmetrically.
    """
    dim = model.dim
    npar = n_params(model)
    blocks = param_blocks(model)
    tau = circuit_ptm(model, germ)
    kite = kite_structure(tau, degeneracy_tol)
    mask = kite.mask()

    labels = germ.labels
    nlen = len(labels)
    prefix = [np.eye(dim)]
    for lab in labels:
        prefix.append(model.gates[lab] @ prefix[-1])
    suffix = [np.eye(dim)]
    for lab in reversed(labels):
        suffix.append(suffix[-1] @ model.gates[lab])
    suffix.reverse()  # suffix[i] = G_n ... G_{i+1}

    jac = np.zeros((dim * dim, npar))
    sinv = kite.basis_inv
    s = kite.basis
    for i in range(1, nlen + 1):
        lab = labels[i - 1]
        a_mat = sinv @ suffix[i]  # (dim, dim), column a picks suffix[:, a]
        b_mat = prefix[i - 1] @ s  # row b picks prefix[b, :]
        # twirled slice for entry (a, b):  S (mask * outer(a_mat[:,a], b_mat[b,:])) S^-1
        blk = np.einsum("xc,ca,cd,bd,dy->xyab", s, a_mat, mask, b_mat, sinv, optimize=True)
        cols = blk[:, :, 1:, :].reshape(dim * dim, (dim - 1) * dim)
        jac[:, blocks[lab]] += np.real(cols)
    return jac


def germset_jacobian(
    models: list[GateSet], germs, degeneracy_tols=None
) -> list[np.ndarray]:
    """Per-model vertical stack of each germ's twirled Jacobian."""
    germs = list(germs)
    if degeneracy_tols is None:
        degeneracy_tols = [IDEAL_DEGENERACY_TOL] * len(models)
    out = []
    for model, tol in zip(models, degeneracy_tols):
        rows = [germ_twirled_jacobian(model, g, tol) for g in germs]
        out.append(np.vstack(rows) if rows else np.zeros((0, n_params(model))))
    return out


def amplifiable_count(model: GateSet, tangent: GaugeTangent | None = None) -> int:
    """Gate parameters minus the gauge tangent's rank within gate coordinates.

    At an ideal (noise-free) target the similarity direction that rescales
    all traceless components moves no gate, so it drops out of the
    projected rank and is excluded from the count automatically; at
    perturbed models it re-enters and the target drops by one.  ``tangent``
    is ``gauge_tangent(model)`` when the caller already has it.
    """
    blocks = param_blocks(model)
    n_gate = sum(blocks[l].stop - blocks[l].start for l in model.gates)
    basis = (tangent or gauge_tangent(model)).basis
    gate_rows = np.vstack([basis[blocks[l], :] for l in model.gates])
    return n_gate - matrix_rank_rel(gate_rows)


def bare_germs(model: GateSet) -> list[Circuit]:
    return [Circuit((lab,)) for lab in model.gates]


def germ_candidate_pool(labels, max_depth: int = 6) -> list[Circuit]:
    """All gate sequences up to ``max_depth`` excluding cycles and repeats.

    A sequence is kept only if it is not a power of a shorter sequence and
    is the lexicographically smallest among its cyclic rotations (germ
    repetition makes rotations equivalent).
    """
    labels = tuple(labels)
    pool = []
    for depth in range(1, max_depth + 1):
        for combo in itertools.product(labels, repeat=depth):
            if any(combo == combo[k:] + combo[:k] for k in range(1, depth)):
                continue  # periodic -> power of a shorter germ (or keep min rotation)
            if combo != min(combo[k:] + combo[:k] for k in range(depth)):
                continue
            pool.append(Circuit(combo))
    return pool


def _gram_rank_and_score(gram_evals: np.ndarray, target: int, score_fn: str) -> tuple[int, float]:
    """Rank and inverse-eigenvalue score of a Jacobian Gram spectrum.

    The rank cutoff is the squared relative singular-value tolerance but
    floored at the symmetric-eigensolver noise scale (~1e-12 of the top
    eigenvalue), below which Gram eigenvalues are indistinguishable from
    zero in double precision.  The score counts the top min(rank, target)
    eigenvalues so that rank-deficient sets still compare usefully.
    """
    evals = np.clip(np.sort(gram_evals)[::-1], 0.0, None)
    top = evals[0] if evals.size else 0.0
    if top <= 0.0:
        return 0, float("inf")
    cutoff = top * max(RANK_RTOL**2, 1e-12)
    rank = int(np.sum(evals > cutoff))
    counted = evals[: min(rank, target)]
    if counted.size == 0:
        return rank, float("inf")
    if score_fn == "sum":
        return rank, float(np.sum(1.0 / counted))
    if score_fn == "min":
        return rank, float(1.0 / counted[-1])
    raise ValueError(f"unknown score_fn {score_fn!r}")


@dataclass
class GermSelectionResult:
    germs: list[Circuit]
    targets: list[int]
    ranks: list[int]
    scores: list[float]
    trajectory: list[dict] = field(default_factory=list)


def select_germs(
    models: list[GateSet],
    candidate_pool,
    score_fn: str = "sum",
    degeneracy_tols=None,
) -> GermSelectionResult:
    """Greedy worst-case-over-models germ selection.

    Each iteration tests the current set joined with every unused
    candidate, takes each test set's worst (rank, score) over the models
    and keeps the best test set; scores are sums (or the largest) of
    inverse Gram eigenvalues counted up to each model's amplifiable target,
    so a rank-deficient set scores infinitely badly.

    Each germ's Jacobian is scored divided by its length: a germ of length
    q only reaches power L/q at max depth L, so per-depth amplification is
    what the experiment actually buys.  A pool whose full Gram falls short
    of a model's target raises :class:`GermSelectionError` before any step.
    """
    pool = list(candidate_pool)
    if degeneracy_tols is None:
        degeneracy_tols = [IDEAL_DEGENERACY_TOL] + [PERTURBED_DEGENERACY_TOL] * (len(models) - 1)
    targets = [amplifiable_count(m) for m in models]

    # cache per-(candidate, model) Jacobians; their Grams J^T J add over a
    # germ set because stacking only appends rows
    jacobians = [[None] * len(models) for _ in pool]
    for ci, germ in enumerate(pool):
        weight = 1.0 / len(germ.labels)
        for mi, model in enumerate(models):
            j = germ_twirled_jacobian(model, germ, degeneracy_tols[mi])
            jacobians[ci][mi] = weight * j

    def gram_of(ci: int, mi: int) -> np.ndarray:
        j = jacobians[ci][mi]
        return j.T @ j

    deficits = []
    for mi, model in enumerate(models):
        total = sum(gram_of(ci, mi) for ci in range(len(pool)))
        rank, _ = _gram_rank_and_score(np.linalg.eigvalsh(total), targets[mi], score_fn)
        if rank < targets[mi]:
            deficits.append((mi, rank, targets[mi]))
    if deficits:
        msg = "; ".join(f"model {mi}: rank {r} of {t}" for mi, r, t in deficits)
        raise GermSelectionError(f"candidate pool is not amplificationally complete: {msg}")

    chosen_idx: list[int] = []
    chosen_grams = [np.zeros((n_params(m), n_params(m))) for m in models]
    trajectory: list[dict] = []

    def worst_over_models(test_grams) -> tuple[tuple[int, float], list[int], list[float]]:
        ranks, scores = [], []
        for mi in range(len(models)):
            rank, score = _gram_rank_and_score(
                np.linalg.eigvalsh(test_grams[mi]), targets[mi], score_fn
            )
            ranks.append(rank)
            scores.append(score)
        # worst model first by rank shortfall, then by score (lower = better)
        worst = max((max(t - r, 0), s) for t, r, s in zip(targets, ranks, scores))
        return worst, ranks, scores

    while True:
        (shortfall, _), ranks, scores = worst_over_models(chosen_grams)
        if shortfall <= 0 and chosen_idx:
            break
        best = None
        for ci in range(len(pool)):
            if ci in chosen_idx:
                continue
            test = [chosen_grams[mi] + gram_of(ci, mi) for mi in range(len(models))]
            (sfall, wscore), _, _ = worst_over_models(test)
            tie = (len(pool[ci].labels), pool[ci].labels)
            key = (sfall, float(np.round(wscore, 9)), tie)
            if best is None or key < best[0]:
                best = (key, ci, test)
        if best is None:
            raise GermSelectionError(
                "candidate pool exhausted before reaching the amplifiable target"
            )
        _, ci, test = best
        chosen_idx.append(ci)
        chosen_grams = test
        (shortfall, wscore), ranks, scores = worst_over_models(chosen_grams)
        trajectory.append(
            {
                "added": str(pool[ci]),
                "ranks": list(ranks),
                "worst_score": wscore,
                "shortfall": shortfall,
            }
        )

    return GermSelectionResult(
        germs=[pool[ci] for ci in chosen_idx],
        targets=targets,
        ranks=ranks,
        scores=scores,
        trajectory=trajectory,
    )
