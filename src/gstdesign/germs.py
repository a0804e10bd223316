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

Only work that can change the chosen set is done.  A germ's twirled
Jacobian is one matrix product per gate label, because the kite projector
factors through the commutant basis (see :func:`germ_twirled_jacobian`).
A greedy step stops scoring a candidate on further models as soon as its
worst score so far already loses to the step's best, which leaves the
chosen germs exactly as scoring every candidate on every model would (see
:func:`select_germs`).
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
    numerical_rank,
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
    "GRAM_RANK_RTOL",
]

IDEAL_DEGENERACY_TOL = 1e-7
PERTURBED_DEGENERACY_TOL = 1e-10
# Relative rank cutoff on Gram eigenvalues: the squared singular-value cutoff,
# floored at the symmetric eigensolver's noise scale (~1e-12 of the top
# eigenvalue), below which Gram eigenvalues are indistinguishable from zero
GRAM_RANK_RTOL = max(RANK_RTOL**2, 1e-12)


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

    @property
    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column indices of the in-block entries, block by block
        and row-major within a block: the commutant's coordinates."""
        inside = np.zeros((len(self.basis),) * 2, dtype=bool)
        for start, size in self.blocks:
            inside[start : start + size, start : start + size] = True
        return np.nonzero(inside)


def _cluster_eigenvalues(evals: np.ndarray, tol: float) -> list[list[int]]:
    """Connected-component clustering of eigenvalues at relative tolerance:
    ``i`` and ``j`` are joined when ``|evals[i] - evals[j]|`` is within
    ``tol`` of the largest modulus.  Each cluster lists its indices in
    ascending order; clusters are ordered by their smallest index."""
    scale = float(np.max(np.abs(evals)))
    thresh = tol * (scale if scale > 0 else 1.0)
    # transitive closure of the adjacency by boolean squaring, then each
    # index's component is named by the smallest index it reaches
    reach = np.abs(evals[:, None] - evals[None, :]) <= thresh
    while True:
        wider = reach @ reach
        if (wider == reach).all():
            break
        reach = wider
    clusters: dict[int, list[int]] = {}
    for i, first in enumerate(reach.argmax(axis=1).tolist()):
        clusters.setdefault(first, []).append(i)
    return list(clusters.values())


def _generalized_eigenbasis(op: np.ndarray, clusters, evals) -> np.ndarray:
    """Schur-free fallback: null spaces of (A - lambda I)^k per cluster."""
    dim = op.shape[0]
    cols = []
    for group in clusters:
        lam = evals[group].mean()
        k = len(group)
        m = np.linalg.matrix_power(op - lam * np.eye(dim), k)
        vh = np.linalg.svd(m)[2]
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
        reps.append(complex(evals[group].mean()))
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
    rows, cols = kite.coords
    projected = np.zeros_like(inner)
    projected[rows, cols] = inner[rows, cols]
    return kite.basis @ projected @ kite.basis_inv


def germ_twirled_jacobian(
    model: GateSet, germ: Circuit, degeneracy_tol: float = IDEAL_DEGENERACY_TOL
) -> np.ndarray:
    """Matricized commutant-projected germ Jacobian, shape (D^2, n_params).

    Column (a, b) of gate ``G`` is ``twirl_project(sum_i suffix_i E_ab
    prefix_i, kite)``, summed over the occurrences ``i`` of ``G`` in the
    germ ``tau = suffix_i G prefix_i``.  The kite projector keeps the
    kite-basis entries (c, d) that share a block, so with
    ``left_i = S^-1 suffix_i`` and ``right_i = prefix_i S`` the column is

        sum_(c,d) in blocks  S[:, c] S^-1[d, :] * sum_i left_i[c, a] right_i[b, d].

    The first factor depends only on the germ and the second only on the
    label, so each gate label costs one (D^2, m) @ (m, (D-1) D) product,
    m being the commutant dimension ``kite.num_params``.

    Columns for parameters of gates absent from the germ (and all SPAM
    parameters) are zero.  Real part is returned: the projected derivative
    of a real matrix is real up to rounding because blocks of conjugate
    eigenvalues are projected symmetrically.
    """
    dim = model.dim
    blocks = param_blocks(model)
    kite = kite_structure(circuit_ptm(model, germ), degeneracy_tol)
    s, sinv = kite.basis, kite.basis_inv
    c, d = kite.coords
    # column m: the commutant basis element S E_(c_m d_m) S^-1, flattened
    image = (s[:, None, c] * sinv.T[None, :, d]).reshape(dim * dim, c.size)

    labels = germ.labels
    prefix = [np.eye(dim)]  # prefix[i] = G_i ... G_1, the gates before occurrence i
    for lab in labels[:-1]:
        prefix.append(model.gates[lab] @ prefix[-1])
    suffix = [np.eye(dim)]  # suffix[i] = G_n ... G_(i+2), the gates after it
    for lab in reversed(labels[1:]):
        suffix.append(suffix[-1] @ model.gates[lab])
    suffix.reverse()
    # row 0 of every gate is fixed, so only a >= 1 has a parameter
    left = np.stack([(sinv @ suf[:, 1:])[c] for suf in suffix])  # (n, m, D-1)
    right = np.stack([(pre @ s)[:, d] for pre in prefix])  # (n, D, m)

    jac = np.zeros((dim * dim, n_params(model)))
    for lab in dict.fromkeys(labels):
        occ = [i for i, other in enumerate(labels) if other == lab]
        # coef[m, a, b] = sum_i left_i[c_m, a] right_i[b, d_m]
        coef = left[occ].transpose(1, 2, 0) @ right[occ].transpose(2, 0, 1)
        jac[:, blocks[lab]] = (image @ coef.reshape(c.size, -1)).real
    return jac


def _degeneracy_tols(count: int) -> list[float]:
    """Kite degeneracy tolerance per model position: the first model is the
    ideal target, the rest are perturbed copies of it."""
    return [IDEAL_DEGENERACY_TOL] + [PERTURBED_DEGENERACY_TOL] * (count - 1)


def germset_jacobian(models: list[GateSet], germs) -> list[np.ndarray]:
    """Per-model vertical stack of each germ's twirled Jacobian."""
    germs = list(germs)
    out = []
    for model, tol in zip(models, _degeneracy_tols(len(models))):
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

    The rank cutoff is :data:`GRAM_RANK_RTOL` of the top eigenvalue.  The
    score counts the top min(rank, target) eigenvalues so that
    rank-deficient sets still compare usefully.
    """
    evals = np.clip(np.sort(gram_evals)[::-1], 0.0, None)
    rank = numerical_rank(evals, GRAM_RANK_RTOL)
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
) -> GermSelectionResult:
    """Greedy worst-case-over-models germ selection.

    Each iteration tests the current set joined with every unused
    candidate, takes each test set's worst (rank, score) over the models
    and keeps the best test set; scores are sums (or the largest) of
    inverse Gram eigenvalues counted up to each model's amplifiable target,
    so a rank-deficient set scores infinitely badly.  ``models[0]`` is the
    ideal target and the rest are perturbed copies; the kite degeneracy
    tolerance follows from that position.

    Each germ's Jacobian is scored divided by its length: a germ of length
    q only reaches power L/q at max depth L, so per-depth amplification is
    what the experiment actually buys.  A pool whose full Gram falls short
    of a model's target raises :class:`GermSelectionError` before any step.

    A candidate's key is (worst shortfall, worst score rounded to 9
    decimals, length and labels), the worst being over models.  The worst
    over the models scored so far can only grow as more are scored, so a
    candidate is dropped as soon as that partial key exceeds the best
    complete key of the step: pruning is exact, every key that decides the
    step is complete and comes from the same ``eigvalsh`` calls.  Models
    are scored worst first, ordered by the current set's shortfall and
    then its score, so that the first model scored is the likeliest to
    rule a candidate out.  Each trajectory entry records the step's
    ``eigensolves``.
    """
    pool = list(candidate_pool)
    targets = [amplifiable_count(m) for m in models]

    # cache per-(candidate, model) Jacobians; their Grams J^T J add over a
    # germ set because stacking only appends rows
    jacobians = [[None] * len(models) for _ in pool]
    for ci, germ in enumerate(pool):
        weight = 1.0 / len(germ.labels)
        for mi, (model, tol) in enumerate(zip(models, _degeneracy_tols(len(models)))):
            jacobians[ci][mi] = weight * germ_twirled_jacobian(model, germ, tol)

    def gram_of(ci: int, mi: int) -> np.ndarray:
        j = jacobians[ci][mi]
        return j.T @ j

    def rank_and_score(gram: np.ndarray, mi: int) -> tuple[int, float]:
        return _gram_rank_and_score(np.linalg.eigvalsh(gram), targets[mi], score_fn)

    def shortfall(mi: int, rank: int) -> int:
        return max(targets[mi] - rank, 0)

    deficits = []
    for mi in range(len(models)):
        rank, _ = rank_and_score(sum(gram_of(ci, mi) for ci in range(len(pool))), mi)
        if rank < targets[mi]:
            deficits.append((mi, rank, targets[mi]))
    if deficits:
        msg = "; ".join(f"model {mi}: rank {r} of {t}" for mi, r, t in deficits)
        raise GermSelectionError(f"candidate pool is not amplificationally complete: {msg}")

    chosen_idx: list[int] = []
    chosen_grams = [np.zeros((n_params(m), n_params(m))) for m in models]
    # the empty set's Grams are zero: rank 0 and an infinite score everywhere
    ranks = [0] * len(models)
    scores = [float("inf")] * len(models)
    trajectory: list[dict] = []

    while True:
        order = sorted(
            range(len(models)), key=lambda mi: (shortfall(mi, ranks[mi]), scores[mi]), reverse=True
        )
        best = None
        eigensolves = 0
        for ci in range(len(pool)):
            if ci in chosen_idx:
                continue
            tie = (len(pool[ci].labels), pool[ci].labels)
            test = [None] * len(models)
            test_ranks = [0] * len(models)
            test_scores = [0.0] * len(models)
            worst = (-1, -math.inf)  # below every (shortfall, score)
            for mi in order:
                test[mi] = chosen_grams[mi] + gram_of(ci, mi)
                test_ranks[mi], test_scores[mi] = rank_and_score(test[mi], mi)
                eigensolves += 1
                worst = max(worst, (shortfall(mi, test_ranks[mi]), test_scores[mi]))
                key = (worst[0], float(np.round(worst[1], 9)), tie)
                if best is not None and key > best[0]:
                    break  # a lower bound on the final key already loses
            else:
                if best is None or key < best[0]:
                    best = (key, ci, test, test_ranks, test_scores, worst)
        if best is None:
            raise GermSelectionError(
                "candidate pool exhausted before reaching the amplifiable target"
            )
        _, ci, chosen_grams, ranks, scores, (worst_shortfall, worst_score) = best
        chosen_idx.append(ci)
        trajectory.append(
            {
                "added": str(pool[ci]),
                "ranks": list(ranks),
                "worst_score": worst_score,
                "shortfall": worst_shortfall,
                "eigensolves": eigensolves,
            }
        )
        if worst_shortfall <= 0:
            break

    return GermSelectionResult(
        germs=[pool[ci] for ci in chosen_idx],
        targets=targets,
        ranks=ranks,
        scores=scores,
        trajectory=trajectory,
    )
