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

Work is done in stacks, on held rows, and only work that can change the
chosen set is done.  A germ's twirled Jacobian is one matrix product per
gate label, because the kite projector factors through the commutant
basis, and all germs of one length are built together: stacked prefix and
suffix products, one stacked eigendecomposition, condition number and
inverse per spectrum type, and one contraction per label (see
:func:`germ_twirled_jacobians`).  Each member comes out bit for bit as its
batch of one, which is what :func:`kite_structure` and
:func:`germ_twirled_jacobian` are.  Selection holds each candidate's
Jacobian, and each model's chosen set, only as compressed rows
(:mod:`gstdesign.held`): ``r_c`` rows for a candidate, ``rank_S`` for the
set.  The default ``sum`` score of a test set is then a rank-``r_c``
update of the chosen set's (see :func:`_updated_ranks_and_scores`): every
solve is ``r_c`` wide, at most 12 on XYI and 126 on XYCPHASE, not the
``n_params``-wide test Gram.  The ``min`` score needs the smallest
eigenvalue, so it takes ``eigvalsh(R R^T)`` for the stacked rows ``R``,
``rank_S + r`` wide with ``r`` the widest ``r_c`` of the pool.  A greedy
step scores its first model for every candidate in stacks, then completes
candidates in order of that lower bound, in batches that double in size,
dropping each one whose bound lies past the tie window of the least
complete key.  Ties within that window go to the (length, labels) that
sorts first, which leaves the chosen germs exactly as scoring every
candidate on every model would (see :func:`select_germs`).  Stacks hold at
most :data:`GERM_STACK_BYTES` of working arrays.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .held import HeldFim, compressed_rows
from .model import (
    GRAM_RANK_RTOL,
    Circuit,
    GateSet,
    gauge_tangent,
    gram_rank,
    n_params,
    numerical_rank,
    param_blocks,
    require_labels,
)

__all__ = [
    "KiteStructure",
    "GermSelectionError",
    "GermSelectionResult",
    "kite_structure",
    "kite_structures",
    "twirl_project",
    "germ_twirled_jacobian",
    "germ_twirled_jacobians",
    "germset_jacobian",
    "amplifiable_count",
    "germ_candidate_pool",
    "bare_germs",
    "select_germs",
    "IDEAL_DEGENERACY_TOL",
    "PERTURBED_DEGENERACY_TOL",
    "GRAM_RANK_RTOL",
    "GERM_STACK_BYTES",
    "SCORE_TIE_RTOL",
]

IDEAL_DEGENERACY_TOL = 1e-7
PERTURBED_DEGENERACY_TOL = 1e-10
# Working-array budget of one stack: Jacobians built together, or tests
# scored together in a greedy step.  It bounds the memory stacking adds.  A
# rank update holds a candidate's rows and their residual, r_c x n_params
# each, and three scaled cross blocks, r_c x rank_S: on XYI at most 12 x
# (86 + 75) values (15 KB), so 33 share a stack, and on XYCPHASE up to
# 126 x (2526 + 2883) (5.5 MB), a stack of one.  A ``min`` test matrix is
# rank_S + r wide: at most 37 on XYI (11 KB), so 47 share a stack, and up
# to 1087 on XYCPHASE (9.5 MB).  A 2Q germ's build is a stack of one.  A
# per-germ FPR candidate's gathered rows are size x m x kite coordinates:
# on XYI at most 35 x 2 x 16 values (18 KB), so 29 share a stack, and on a
# full-rank 2Q kite of 136 coordinates at least 34 x 4 x 136 (0.3 MB), a
# stack of one.
GERM_STACK_BYTES = 1 << 19
# Relative width of the window in which test-set scores tie: among the
# candidates of least shortfall scoring within it of the least score, the
# one whose (length, labels) sorts first is chosen, so rounding never
# decides between exactly tied germs
SCORE_TIE_RTOL = 1e-9


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


def _cluster_labels(evals: np.ndarray, tol: float) -> np.ndarray:
    """Connected-component clustering of a stack of spectra ``(N, D)`` at
    relative tolerance: ``i`` and ``j`` of one member are joined when
    ``|evals[i] - evals[j]|`` is within ``tol`` of that member's largest
    modulus.  Each eigenvalue is labelled by the smallest index of its
    component."""
    scale = np.max(np.abs(evals), axis=-1)
    thresh = tol * np.where(scale > 0, scale, 1.0)
    # transitive closure of the adjacency by boolean squaring, then each
    # index's component is named by the smallest index it reaches
    reach = np.abs(evals[:, :, None] - evals[:, None, :]) <= thresh[:, None, None]
    while True:
        wider = reach @ reach
        if (wider == reach).all():
            break
        reach = wider
    return reach.argmax(axis=-1)


def _clusters(labels: np.ndarray) -> list[list[int]]:
    """Index lists of one member's clusters, ascending within a cluster and
    ordered by their smallest index."""
    clusters: dict[int, list[int]] = {}
    for i, first in enumerate(labels.tolist()):
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


@dataclass(frozen=True)
class _KiteStack:
    """Kite structures of the members ``members`` of a stack, in arrays of
    one dtype: ``labels[n, i]`` is eigenvalue ``i``'s cluster (see
    :func:`_cluster_labels`) and ``order`` the kite order of the eig
    indices, clusters by smallest index and ascending within one."""

    members: np.ndarray
    evals: np.ndarray
    labels: np.ndarray
    order: np.ndarray
    basis: np.ndarray
    basis_inv: np.ndarray

    def in_block(self) -> np.ndarray:
        """``(N, D, D)`` mask of kite-basis entries that share a block."""
        ordered = np.take_along_axis(self.labels, self.order, axis=1)
        return ordered[:, :, None] == ordered[:, None, :]


def _kite_stacks(ops: np.ndarray, tol: float) -> list[_KiteStack]:
    """Kite structures of a stack of operators ``(N, D, D)``, one stacked
    solve of each kind per spectrum type.

    A stacked ``np.linalg.eig`` returns complex arrays for every member once
    any member has a complex eigenvalue, where a lone call on a
    real-spectrum matrix returns real ones, and the later ``cond`` and
    ``inv`` then run in other arithmetic.  Members with a real spectrum are
    therefore taken back to real arrays and solved apart from the rest, so
    that each member's kite is bit for bit that of its batch of one.
    """
    if not np.all(np.isfinite(ops)):
        raise ValueError("kite_structure input has non-finite entries")
    evals, evecs = np.linalg.eig(ops)
    members = np.arange(len(ops))
    groups = [(members, evals, evecs)]
    if np.iscomplexobj(evals) and not np.iscomplexobj(ops):
        real = np.all(evals.imag == 0.0, axis=1)
        as_real = [np.ascontiguousarray(a[real].real) for a in (evals, evecs)]
        groups = [(members[real], *as_real), (members[~real], evals[~real], evecs[~real])]
    stacks = []
    for members, evals, evecs in groups:
        if members.size == 0:
            continue
        labels = _cluster_labels(evals, tol)
        order = np.argsort(labels, axis=1, kind="stable")
        # columns in kite order, each member column-major as a lone
        # ``evecs[:, order]`` is: later products take their BLAS path from it
        basis = np.take_along_axis(evecs.transpose(0, 2, 1), order[:, :, None], axis=1)
        basis = basis.transpose(0, 2, 1)
        # fall back to generalized eigenspaces where the eigenvector matrix
        # is defective (non-diagonalizable input), one member at a time
        for n in np.flatnonzero(np.linalg.cond(basis) > 1e12):
            basis[n] = _generalized_eigenbasis(ops[members[n]], _clusters(labels[n]), evals[n])
        stacks.append(_KiteStack(members, evals, labels, order, basis, np.linalg.inv(basis)))
    return stacks


def kite_structures(ops, degeneracy_tol: float = IDEAL_DEGENERACY_TOL) -> list[KiteStructure]:
    """Kite structures of a stack of operators ``(N, D, D)``, each equal bit
    for bit to :func:`kite_structure` of that member alone."""
    ops = np.asarray(ops)
    if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
        raise ValueError("kite_structures needs a stack of square matrices")
    kites: list[KiteStructure] = [None] * len(ops)
    for stack in _kite_stacks(ops, degeneracy_tol):
        for n, member in enumerate(stack.members.tolist()):
            clusters = _clusters(stack.labels[n])
            sizes = [len(group) for group in clusters]
            kites[member] = KiteStructure(
                eigenvalues=tuple(complex(stack.evals[n][group].mean()) for group in clusters),
                blocks=tuple(zip(itertools.accumulate([0] + sizes[:-1]), sizes)),
                basis=stack.basis[n],
                basis_inv=stack.basis_inv[n],
            )
    return kites


def kite_structure(op: np.ndarray, degeneracy_tol: float = IDEAL_DEGENERACY_TOL) -> KiteStructure:
    """Eigen-decompose ``op`` and group degenerate eigenvalues into blocks."""
    op = np.asarray(op)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError("kite_structure needs a square matrix")
    return kite_structures(op[None], degeneracy_tol)[0]


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


def germ_twirled_jacobians(
    model: GateSet, germs, degeneracy_tol: float = IDEAL_DEGENERACY_TOL
) -> np.ndarray:
    """Matricized commutant-projected Jacobians of ``germs``, shape
    ``(len(germs), D^2, n_params)``.

    Column (a, b) of gate ``G`` is ``twirl_project(sum_i suffix_i E_ab
    prefix_i, kite)``, summed over the occurrences ``i`` of ``G`` in the
    germ ``tau = suffix_i G prefix_i``.  The kite projector keeps the
    kite-basis entries (c, d) that share a block, so with
    ``left_i = S^-1 suffix_i`` and ``right_i = prefix_i S`` the column is

        sum_(c,d) in blocks  S[:, c] S^-1[d, :] * sum_i left_i[c, a] right_i[b, d].

    The first factor depends only on the germ and the second only on the
    label, so each gate label costs one (D^2, m) @ (m, (D-1) D) product,
    m being the commutant dimension ``kite.num_params``.

    Germs are built in stacks of one length, at most
    :data:`GERM_STACK_BYTES` of working arrays at a time: the prefix and
    suffix products are stacked matmuls, the kites come from
    :func:`_kite_stacks`, and each label's coefficients are one contraction
    over the members of equal commutant dimension, the occurrence sum
    running over every position with weight one or zero.  A member's
    Jacobian does not depend on the stack it is built in.

    Columns for parameters of gates absent from a germ (and all SPAM
    parameters) are zero.  Real part is returned: the projected derivative
    of a real matrix is real up to rounding because blocks of conjugate
    eigenvalues are projected symmetrically.
    """
    germs = list(germs)
    jac = np.zeros((len(germs), model.dim**2, n_params(model)))
    for idx, block in _twirled_jacobian_stacks(model, germs, degeneracy_tol):
        jac[idx] = block
    return jac


def _twirled_jacobian_stacks(model: GateSet, germs: list[Circuit], tol: float):
    """Yield (indices into ``germs``, their twirled Jacobians) stack by
    stack, as :func:`germ_twirled_jacobians` builds them.  The empty germ,
    whose Jacobian is zero, is in no stack."""
    dim = model.dim
    labels = list(model.gates)
    gates = np.stack([model.gates[lab] for lab in labels])
    position = {lab: i for i, lab in enumerate(labels)}
    require_labels(model, [germ.labels for germ in germs])
    by_length: dict[int, list[int]] = {}
    for gi, germ in enumerate(germs):
        if germ.labels:  # the empty germ has no gate columns
            by_length.setdefault(len(germ.labels), []).append(gi)

    blocks = param_blocks(model)
    columns = [blocks[lab] for lab in labels]
    # image, coefficients and product: at most three complex (D^2, D^2) arrays a member
    chunk = max(1, GERM_STACK_BYTES // (3 * 16 * dim**4))
    for members in by_length.values():
        for lo in range(0, len(members), chunk):
            idx = np.array(members[lo : lo + chunk])
            seq = np.array([[position[lab] for lab in germs[gi].labels] for gi in idx])
            jac = np.zeros((len(idx), dim * dim, n_params(model)))
            for rows, cols, block in _twirled_jacobian_stack(gates, seq, columns, tol):
                jac[rows, :, cols] = block
            yield idx, jac


def _twirled_jacobian_stack(gates, seq, columns, tol):
    """Twirled Jacobians of the germs ``seq`` ``(N, n)``, gate indices into
    ``gates`` in time order, all of one length ``n``.  Yields each nonzero
    block as (germs, gate columns, values)."""
    length = seq.shape[1]
    dim = gates.shape[1]
    ops = gates[seq]  # ops[:, i] is the gate at occurrence position i
    prefix = np.empty_like(ops)  # prefix[:, i] = G_i ... G_1, the gates before position i
    prefix[:, 0] = np.eye(dim)
    for i in range(1, length):
        prefix[:, i] = ops[:, i - 1] @ prefix[:, i - 1]
    suffix = np.empty_like(ops)  # suffix[:, i] = G_n ... G_(i+2), the gates after it
    suffix[:, -1] = np.eye(dim)
    for i in range(length - 2, -1, -1):
        suffix[:, i] = suffix[:, i + 1] @ ops[:, i + 1]
    taus = ops[:, -1] @ prefix[:, -1]

    for stack in _kite_stacks(taus, tol):
        inside = stack.in_block()
        sizes = inside.sum(axis=(1, 2))
        for size in np.unique(sizes).tolist():
            sub = np.flatnonzero(sizes == size)
            germ = stack.members[sub]
            s, sinv = stack.basis[sub], stack.basis_inv[sub]
            # (c, d): each member's in-block entries, row-major
            _, c, d = np.nonzero(inside[sub])
            c, d = c.reshape(sub.size, size), d.reshape(sub.size, size)
            # column m: the commutant basis element S E_(c_m d_m) S^-1, flattened
            s_c = np.take_along_axis(s, c[:, None, :], axis=2)
            sinv_d = np.take_along_axis(sinv, d[:, :, None], axis=1)
            image = s_c[:, :, None, :] * sinv_d.transpose(0, 2, 1)[:, None, :, :]
            image = image.reshape(sub.size, dim * dim, size)
            # row 0 of every gate is fixed, so only a >= 1 has a parameter
            left = sinv[:, None] @ suffix[germ][..., 1:]  # (members, n, D, D-1)
            left = np.take_along_axis(left, c[:, None, :, None], axis=2)
            right = np.take_along_axis(prefix[germ] @ s[:, None], d[:, None, None, :], axis=3)
            for gate, cols in enumerate(columns):
                occurs = seq[germ] == gate  # (members, n)
                present = occurs.any(axis=1)
                if not present.any():
                    continue
                weights = occurs[present].astype(float)[:, :, None, None]
                # coef[m, a, b] = sum_i [G at i] left_i[c_m, a] right_i[b, d_m]
                coef = (left[present] * weights).transpose(0, 2, 3, 1)
                coef = coef @ right[present].transpose(0, 3, 1, 2)
                flat = coef.reshape(coef.shape[0], size, -1)
                yield germ[present], cols, (image[present] @ flat).real


def germ_twirled_jacobian(
    model: GateSet, germ: Circuit, degeneracy_tol: float = IDEAL_DEGENERACY_TOL
) -> np.ndarray:
    """One germ's twirled Jacobian, shape (D^2, n_params): the batch of one
    of :func:`germ_twirled_jacobians`."""
    return germ_twirled_jacobians(model, [germ], degeneracy_tol)[0]


def _degeneracy_tols(count: int) -> list[float]:
    """Kite degeneracy tolerance per model position: the first model is the
    ideal target, the rest are perturbed copies of it."""
    return [IDEAL_DEGENERACY_TOL] + [PERTURBED_DEGENERACY_TOL] * (count - 1)


def germset_jacobian(models: list[GateSet], germs) -> list[np.ndarray]:
    """Per-model vertical stack of each germ's twirled Jacobian."""
    germs = list(germs)
    return [
        germ_twirled_jacobians(model, germs, tol).reshape(-1, n_params(model))
        for model, tol in zip(models, _degeneracy_tols(len(models)))
    ]


def amplifiable_count(model: GateSet) -> int:
    """Gate parameters minus the gauge tangent's rank within gate coordinates.

    The gauge direction ``diag(0, 1, ..., 1)``, which rescales all
    traceless components, commutes with every unital gate (one whose first
    column is ``(1, 0, ..., 0)``: it maps the identity to itself).  While
    every gate is unital it moves no gate, drops out of the projected rank
    and is excluded from the count automatically; ideal targets, coherent
    perturbations and depolarization all keep gates unital.  A non-unital
    gate brings it back and the target drops by one.  The rank is the
    :func:`~gstdesign.model.gram_rank` of the gate rows' Gram.
    """
    # gates lead the parameter order, so their rows are the basis's first
    n_gate = param_blocks(model)["rho"].start
    gate_rows = gauge_tangent(model).basis[:n_gate]
    return n_gate - gram_rank(gate_rows.T @ gate_rows)


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


def _gram_ranks_and_scores(
    gram_evals: np.ndarray, target: int, score_fn: str
) -> tuple[np.ndarray, np.ndarray]:
    """Ranks and inverse-eigenvalue scores of a stack of Gram spectra, one
    per row.

    Ranks follow :func:`~gstdesign.model.gram_rank`'s rule.  The score
    counts the top min(rank, target) eigenvalues so that
    rank-deficient sets still compare usefully.  Rows counting the same
    number of eigenvalues are summed together along the last axis, so each
    score is summed in the order of its spectrum alone.
    """
    if score_fn not in ("sum", "min"):
        raise ValueError(f"unknown score_fn {score_fn!r}")
    evals = np.clip(np.sort(gram_evals, axis=-1)[:, ::-1], 0.0, None)
    ranks = numerical_rank(evals, GRAM_RANK_RTOL)
    counted = np.minimum(ranks, target)
    scores = np.full(len(evals), np.inf)
    for length in np.unique(counted[counted > 0]).tolist():
        rows = np.flatnonzero(counted == length)
        if score_fn == "sum":
            scores[rows] = np.sum(1.0 / evals[rows, :length], axis=1)
        else:
            scores[rows] = 1.0 / evals[rows, length - 1]
    return ranks, scores


@dataclass(frozen=True)
class _HeldCandidates:
    """Every candidate's weighted twirled Jacobian at one model, held as
    compressed rows (:func:`~gstdesign.held.compressed_rows`): ``rows``
    ``(N, r, n_params)`` are candidate ``c``'s ``ranks[c]`` rows followed by
    zero rows up to the widest rank ``r`` of the pool, and ``grams`` their
    ``(N, r, r)`` row Grams."""

    rows: np.ndarray
    ranks: np.ndarray
    grams: np.ndarray


def _held_candidates(model: GateSet, pool: list[Circuit], tol: float) -> _HeldCandidates:
    """Each candidate's twirled Jacobian divided by its length, compressed
    stack by stack as it is built, so no more than one stack of Jacobians
    is held at a time."""
    parts = []
    for idx, jac in _twirled_jacobian_stacks(model, pool, tol):
        jac *= np.array([1.0 / len(pool[gi].labels) for gi in idx])[:, None, None]
        parts.append((idx, *compressed_rows(jac)))
    rows = np.zeros((len(pool), max(kept.shape[1] for _, kept, _ in parts), n_params(model)))
    ranks = np.zeros(len(pool), dtype=int)
    for idx, kept, rank in parts:
        rows[idx, : kept.shape[1]] = kept
        ranks[idx] = rank
    return _HeldCandidates(rows, ranks, rows @ rows.transpose(0, 2, 1))


def _test_ranks_and_scores(
    chosen: np.ndarray, cands: _HeldCandidates, idx: list[int], target: int, score_fn: str
) -> tuple[np.ndarray, np.ndarray, int]:
    """Ranks and scores of the chosen set joined with each candidate of
    ``idx``, and the width of the widest matrix solved for them.

    ``sum`` scores come from :func:`_updated_ranks_and_scores`, whose
    solves are ``r_c`` wide.  ``min`` scores need the smallest counted
    eigenvalue, so they come from :func:`_eigensolved_ranks_and_scores`,
    and so does every test the update cannot score exactly: one whose rank
    passes the target counts only its top eigenvalues, one whose chosen
    set holds a direction at or under the rank cutoff may not count it,
    and one that counts a direction within a factor of two of the update's
    cutoff, the slack of its scale, may count one the eigensolve does not.
    """
    if score_fn not in ("sum", "min"):
        raise ValueError(f"unknown score_fn {score_fn!r}")
    if score_fn == "min":
        return _eigensolved_ranks_and_scores(chosen, cands, idx, target, score_fn)
    ranks, scores, width, unsure = _updated_ranks_and_scores(chosen, cands, idx)
    redo = np.flatnonzero(unsure | (ranks > target))
    if redo.size:
        ranks[redo], scores[redo], wide = _eigensolved_ranks_and_scores(
            chosen, cands, [idx[k] for k in redo], target, score_fn
        )
        width = max(width, wide)
    return ranks, scores, width


def _eigensolved_ranks_and_scores(
    chosen: np.ndarray, cands: _HeldCandidates, idx: list[int], target: int, score_fn: str
) -> tuple[np.ndarray, np.ndarray, int]:
    """Ranks and scores of the chosen set joined with each candidate of
    ``idx`` from the test spectra, and the width of their test matrices.

    Candidate ``c``'s test matrix is ``R R^T`` for the stacked rows
    ``R = [S; C_c]``, ``S`` the chosen set's compressed rows and ``C_c``
    the candidate's padded rows: its nonzero spectrum is that of the test
    Gram ``S^T S + C_c^T C_c``, and the exact zeros past its width score
    nothing.  ``S S^T`` and ``C_c C_c^T`` are shared and precomputed, so a
    test costs the cross block ``C_c S^T`` and one ``eigvalsh``,
    ``rank_S + r`` wide with ``r`` the widest ``r_c`` of the pool.  Every
    test matrix of one chosen set and model has the same width, so a
    stacked ``eigvalsh`` of at most :data:`GERM_STACK_BYTES` of them gives
    each member the bits of its own call.
    """
    split = len(chosen)
    width = split + cands.rows.shape[1]
    top = chosen @ chosen.T
    chunk = max(1, GERM_STACK_BYTES // (8 * width * width))
    spectra = []
    for lo in range(0, len(idx), chunk):
        sub = idx[lo : lo + chunk]
        cross = cands.rows[sub] @ chosen.T
        test = np.empty((len(sub), width, width))
        test[:, :split, :split] = top
        test[:, split:, :split] = cross
        test[:, :split, split:] = cross.transpose(0, 2, 1)
        test[:, split:, split:] = cands.grams[sub]
        spectra.append(np.linalg.eigvalsh(test))
    ranks, scores = _gram_ranks_and_scores(np.concatenate(spectra), target, score_fn)
    return ranks, scores, width


def _updated_ranks_and_scores(
    chosen: np.ndarray, cands: _HeldCandidates, idx: list[int]
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Ranks and ``sum`` scores of the chosen set joined with each
    candidate of ``idx`` by a rank-``r_c`` update, the widest ``r_c``, and
    a mask of the tests the eigensolve may rank otherwise (see *Rank
    cutoff*).

    The chosen rows ``S`` have a diagonal row Gram ``Λ`` (compression
    rotates them onto its eigenvectors), so ``S = Λ^(1/2) Q`` with
    orthonormal ``Q``.  A candidate's rows ``C`` split into ``X Q``, with
    ``X = C Sᵀ Λ^(-1/2)``, and the residual rows ``C - X Q``, orthogonal to
    the chosen span, whose row Gram is ``P = Z Zᵀ``.  In an orthonormal
    basis of the joint span the test Gram is
    ``[[Λ + XᵀX, XᵀZ], [ZᵀX, ZᵀZ]]``.  With ``W = I + X Λ⁻¹ Xᵀ = L Lᵀ``
    the Woodbury identity inverts its first block, and the Schur
    complement of that block is ``T = Zᵀ W⁻¹ Z``, whose nonzero
    eigenvalues ``t_j`` are those of ``L⁻¹ P L⁻ᵀ``, with eigenvectors
    ``v_j``.  With ``U = C Sᵀ Λ^(-3/2)`` the trace of the test Gram's
    inverse, the score, is

        tr Λ⁻¹ + Σ_j 1/t_j - Σ_k ||Uᵀ L⁻ᵀ v_k||²,

    ``j`` over the counted directions and ``k`` over the others.  ``P``
    is formed from the residual rows, not as ``C Cᵀ - X Xᵀ``, whose
    cancellation rounds a small ``t_j``: the last step of robust XYI
    selection at pool depth 4 (seeds 1 and 7) adds a direction of
    eigenvalue 1.7e-8, and its score then agrees with a 40-digit reference
    to 1.3e-13, where the difference of Grams is off by 3e-9.

    *Rank cutoff:* the joint rank is ``rank_S`` plus the count of ``t_j``
    above :data:`GRAM_RANK_RTOL` of ``ρ``, the largest of the diagonal
    entries ``Λ_i + ||X e_i||²`` and the candidate's top ``C Cᵀ``
    eigenvalue.  Each is a Rayleigh quotient of the test Gram, so the
    cutoff is at most the eigensolve's and at least half of it.  The
    Schur complement's eigenvalues, not ``P``'s, are counted because a
    small eigenvalue of the test Gram follows them: on the robust XYI
    selection (seed 7, pool depth 6) a losing candidate has one within 11%
    of the cutoff, which ``P`` puts on the other side.  A test is unsure
    when its chosen set holds a direction at or under the cutoff, or when
    it counts a ``t_j`` at most twice the cutoff, which may lie under the
    eigensolve's (robust XYI, seed 3, pool depth 6: ``Gx Gx Gx Gx Gy``
    gets rank 24 from the update, 23 from the eigensolve).  A direction left
    uncounted is left out of the score, so the score is that of the test
    Gram on the counted directions.

    Every solve is ``r_c`` wide.  Candidates are stacked by their ``r_c``,
    at most :data:`GERM_STACK_BYTES` of cross blocks at a time, so a
    candidate's result is that of its batch of one.
    """
    lam = np.einsum("ij,ij->i", chosen, chosen)
    scale = np.sqrt(lam)
    trace, floor = np.sum(1.0 / lam), lam.min(initial=np.inf)
    ranks = np.zeros(len(idx), dtype=int)
    scores = np.zeros(len(idx))
    unsure = np.zeros(len(idx), dtype=bool)
    by_rank: dict[int, list[int]] = {}
    for k, ci in enumerate(idx):
        by_rank.setdefault(int(cands.ranks[ci]), []).append(k)
    for width, members in by_rank.items():
        chunk = max(1, GERM_STACK_BYTES // (8 * max(width, 1) * (2 * chosen.shape[1] + 3 * len(chosen))))
        for lo in range(0, len(members), chunk):
            sub = members[lo : lo + chunk]
            ci = [idx[k] for k in sub]
            rows = cands.rows[ci, :width]
            x = rows @ chosen.T / scale
            y = x / scale
            resid = rows - y @ chosen
            # candidate rows come largest first: its top eigenvalue is its Gram's first entry
            rho = np.max(lam + np.einsum("nij,nij->nj", x, x), axis=1, initial=0.0)
            cutoff = GRAM_RANK_RTOL * np.maximum(rho, np.max(cands.grams[ci, :1, 0], axis=1, initial=0.0))
            inv_low = np.linalg.inv(np.linalg.cholesky(np.eye(width) + y @ y.transpose(0, 2, 1)))
            t, v = np.linalg.eigh(inv_low @ (resid @ resid.transpose(0, 2, 1)) @ inv_low.transpose(0, 2, 1))
            spread = v.transpose(0, 2, 1) @ inv_low @ (y / scale)
            counted = t > cutoff[:, None]
            # a counted direction adds 1/t_j; any other takes back its share of tr(W⁻¹ U Uᵀ)
            terms = np.divide(1.0, t, out=-np.einsum("nij,nij->ni", spread, spread), where=counted)
            ranks[sub] = len(chosen) + np.count_nonzero(counted, axis=1)
            scores[sub] = trace + np.sum(terms, axis=1)
            unsure[sub] = (floor <= cutoff) | np.any(counted & (t <= 2 * cutoff[:, None]), axis=1)
    scores[ranks == 0] = np.inf
    return ranks, scores, max(by_rank, default=0), unsure


def _joined(chosen: np.ndarray, cands: _HeldCandidates, ci: int) -> np.ndarray:
    """The chosen set's compressed rows after candidate ``ci`` joins it."""
    return compressed_rows(np.concatenate([chosen, cands.rows[ci, : cands.ranks[ci]]])[None])[0][0]


def _past_window(key: tuple[int, float], least: tuple[int, float]) -> bool:
    """Whether a (shortfall, score) ``key`` lies past the tie window of the
    least key: a larger shortfall, or a score more than
    :data:`SCORE_TIE_RTOL` above the least's."""
    return key[0] > least[0] or (key[0] == least[0] and key[1] > least[1] * (1.0 + SCORE_TIE_RTOL))


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
    candidate, takes each test set's worst (shortfall, score) over the
    models and keeps the best test set; scores are sums (or the largest)
    of inverse Gram eigenvalues counted up to each model's amplifiable
    target, so a rank-deficient set scores infinitely badly.  ``models[0]``
    is the ideal target and the rest are perturbed copies; the kite
    degeneracy tolerance follows from that position.

    Each germ's Jacobian is scored divided by its length: a germ of length
    q only reaches power L/q at max depth L, so per-depth amplification is
    what the experiment actually buys.  Every candidate's Jacobian is built
    up front, one stacked build per model and germ length, and held only
    as its compressed rows, ``r_c`` of them (see :mod:`gstdesign.held`);
    each model's chosen set is held the same way, ``rank_S`` rows.  Tests
    are scored by :func:`_test_ranks_and_scores`: a ``sum`` score by a
    rank-``r_c`` update of the chosen set, whose solves are ``r_c`` wide,
    and a ``min`` score from an eigensolved test matrix ``rank_S + r``
    wide, ``r`` the widest ``r_c`` of the pool at that model, so no test
    solves the ``n_params``-wide Gram.  Compression drops directions below
    :data:`~gstdesign.held.COMPRESS_RTOL` of a matrix's top eigenvalue, so
    each test eigenvalue lies within that of the dense test Gram's (Weyl's
    inequality): an eigensolved rank can differ from the dense one only
    through an eigenvalue within 1% of the :data:`GRAM_RANK_RTOL` cutoff;
    a test whose update counts an eigenvalue within a factor of two of its
    cutoff, the slack of the update's cutoff scale, is eigensolved.  A pool
    whose full Gram falls short of a model's target raises
    :class:`GermSelectionError` before any step; so does an empty pool,
    and an empty model list raises ``ValueError``.

    The chosen test set is settled by a tie window, not by the last bits
    of a score: take the least (shortfall, score) over all candidates,
    then, among the candidates with that shortfall and a score within
    :data:`SCORE_TIE_RTOL` (relative) of the least, the one whose (length,
    labels) sorts first.  Models are scored worst first, ordered by the
    current set's shortfall and then its score.  A step scores the first
    model for every unused candidate in stacks; a partial worst over the
    models scored so far is a lower bound on a candidate's final one.
    Candidates are completed in ascending order of that bound, in batches
    of 1, 2, 4, ... candidates, each batch model by model in one stack per
    model.  Before each stack, and after each batch, every candidate whose
    bound lies past the window of the least complete key is dropped.  Such
    a candidate can neither be the least nor fall inside the final window,
    so the chosen germs are exactly those of scoring every candidate on
    every model.  Each trajectory entry records the step's
    ``eigensolves``, the tests it scored, and its ``width``, the widest
    matrix it solved: the widest ``r_c`` it tested under ``sum``, the test
    matrices' ``rank_S + r`` under ``min``.
    """
    if not models:
        raise ValueError("germ selection needs at least one model")
    pool = list(candidate_pool)
    if not pool:
        raise GermSelectionError("candidate pool is empty")
    targets = [amplifiable_count(m) for m in models]
    held = [_held_candidates(m, pool, tol) for m, tol in zip(models, _degeneracy_tols(len(models)))]

    deficits = []
    for mi, cands in enumerate(held):
        live = cands.rows[np.arange(cands.rows.shape[1]) < cands.ranks[:, None]]
        (rank,), _ = _gram_ranks_and_scores(HeldFim.from_rows(live).eigvalsh()[None], targets[mi], score_fn)
        if rank < targets[mi]:
            deficits.append((mi, rank, targets[mi]))
    if deficits:
        msg = "; ".join(f"model {mi}: rank {r} of {t}" for mi, r, t in deficits)
        raise GermSelectionError(f"candidate pool is not amplificationally complete: {msg}")

    def shortfall(mi: int, rank: int) -> int:
        return max(targets[mi] - rank, 0)

    chosen_idx: list[int] = []
    # the empty set: no rows, rank 0 and an infinite score everywhere
    chosen = [np.zeros((0, n_params(m))) for m in models]
    ranks = [0] * len(models)
    scores = [float("inf")] * len(models)
    trajectory: list[dict] = []
    while True:
        order = sorted(
            range(len(models)), key=lambda mi: (shortfall(mi, ranks[mi]), scores[mi]), reverse=True
        )
        # per candidate: (rank, score) at each model tested so far, and the
        # worst (shortfall, score) over them, a lower bound on its key
        tested: dict[int, dict[int, tuple[int, float]]] = {
            ci: {} for ci in range(len(pool)) if ci not in chosen_idx
        }
        if not tested:
            raise GermSelectionError("candidate pool exhausted before reaching the amplifiable target")
        worst: dict[int, tuple[int, float]] = {}
        widths = []

        def test(mi: int, cands: list[int]) -> None:
            cand_ranks, cand_scores, width = _test_ranks_and_scores(
                chosen[mi], held[mi], cands, targets[mi], score_fn
            )
            widths.append(width)
            for ci, rank, score in zip(cands, cand_ranks.tolist(), cand_scores.tolist()):
                tested[ci][mi] = (rank, score)
                worst[ci] = max(worst.get(ci, (-1, 0.0)), (shortfall(mi, rank), score))

        test(order[0], list(tested))
        pending = sorted(tested, key=worst.__getitem__)
        least = None
        size = 1
        while pending:
            batch, pending = pending[:size], pending[size:]
            for mi in order[1:]:
                batch = [ci for ci in batch if least is None or not _past_window(worst[ci], least)]
                if not batch:
                    break
                test(mi, batch)
            for ci in batch:  # complete: tested on every model
                least = worst[ci] if least is None else min(least, worst[ci])
            pending = [ci for ci in pending if not _past_window(worst[ci], least)]
            size *= 2
        # least is now the least key of all: every other one is past its window
        window = [ci for ci in tested if len(tested[ci]) == len(models) and not _past_window(worst[ci], least)]
        ci = min(window, key=lambda ci: (len(pool[ci].labels), pool[ci].labels))

        chosen_idx.append(ci)
        chosen = [_joined(c, cands, ci) for c, cands in zip(chosen, held)]
        ranks = [tested[ci][mi][0] for mi in range(len(models))]
        scores = [tested[ci][mi][1] for mi in range(len(models))]
        trajectory.append(
            {
                "added": str(pool[ci]),
                "ranks": list(ranks),
                "worst_score": worst[ci][1],
                "shortfall": worst[ci][0],
                "eigensolves": sum(len(t) for t in tested.values()),
                "width": max(widths),
            }
        )
        if worst[ci][0] <= 0:
            break

    return GermSelectionResult(
        germs=[pool[ci] for ci in chosen_idx],
        targets=targets,
        ranks=ranks,
        scores=scores,
        trajectory=trajectory,
    )
