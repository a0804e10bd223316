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
chosen set is done.  The kite projector factors through the commutant
basis, so a germ's twirled Jacobian is ``Re(A C)``: ``A`` holds the ``D^2``
entries of the m commutant basis elements, m the commutant dimension, and
``C`` their ``m x n_params`` coefficients, one contraction per gate label.
All (model, germ) members of one length are built together, over every
model at once: stacked prefix and suffix products, one stacked
eigendecomposition and inverse per spectrum type, an exact condition
number only where a Frobenius bound flags a defective basis, and one
contraction per label (see :func:`germ_twirled_jacobians`).  Each member
comes out bit for bit as its batch of one, which is what
:func:`kite_structure` and :func:`germ_twirled_jacobian` are.  Selection
forms no ``D^2``-row Jacobian: pairing each commutant coordinate with its
conjugate makes the factor real, ``J = A_r C_r`` with m columns, and a
candidate is compressed from the m rows ``R C_r``, ``R^T R = A_r^T A_r``
(see :meth:`_TwirledFactors.held_rows`).  Selection holds each candidate's
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
most :data:`gstdesign.held.STACK_BYTES` of working arrays.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import held
from .held import HeldFim, compressed_rows
from .model import (
    GRAM_RANK_RTOL,
    Circuit,
    GateSet,
    amplifiable_count,
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
    "SCORE_TIE_RTOL",
]

IDEAL_DEGENERACY_TOL = 1e-7
PERTURBED_DEGENERACY_TOL = 1e-10
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


def _cluster_labels(evals: np.ndarray, tols) -> np.ndarray:
    """Connected-component clustering of a stack of spectra ``(N, D)`` at
    relative tolerance: ``i`` and ``j`` of member ``n`` are joined when
    ``|evals[i] - evals[j]|`` is within ``tols[n]`` of that member's
    largest modulus (a scalar ``tols`` serves every member).  Each
    eigenvalue is labelled by the smallest index of its component."""
    scale = np.max(np.abs(evals), axis=-1)
    thresh = tols * np.where(scale > 0, scale, 1.0)
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


# Condition number of an eigenvector basis past which it is taken as
# defective and replaced by generalized eigenspaces
DEFECTIVE_COND = 1e12


@dataclass(frozen=True)
class _KiteStack:
    """Kite structures of the members ``members`` of a stack, in arrays of
    one dtype: ``labels[n, i]`` is eigenvalue ``i``'s cluster (see
    :func:`_cluster_labels`) and ``order`` the kite order of the eig
    indices, clusters by smallest index and ascending within one.
    ``partner[n, k]`` is the kite column whose basis vector is exactly the
    complex conjugate of column ``k``'s, or ``-1`` throughout for a member
    whose basis does not pair that way (a real basis pairs each column with
    itself)."""

    members: np.ndarray
    evals: np.ndarray
    labels: np.ndarray
    order: np.ndarray
    basis: np.ndarray
    basis_inv: np.ndarray
    partner: np.ndarray

    def in_block(self) -> np.ndarray:
        """``(N, D, D)`` mask of kite-basis entries that share a block."""
        ordered = np.take_along_axis(self.labels, self.order, axis=1)
        return ordered[:, :, None] == ordered[:, None, :]


def _kite_stacks(ops: np.ndarray, tols: np.ndarray) -> list[_KiteStack]:
    """Kite structures of a stack of operators ``(N, D, D)``, member ``n``
    clustered at degeneracy tolerance ``tols[n]``, one stacked solve of
    each kind per spectrum type.

    A stacked ``np.linalg.eig`` returns complex arrays for every member once
    any member has a complex eigenvalue, where a lone call on a
    real-spectrum matrix returns real ones, and the later ``inv`` and
    ``cond`` then run in other arithmetic.  Members with a real spectrum are
    therefore taken back to real arrays and solved apart from the rest, so
    that each member's kite is bit for bit that of its batch of one.

    On a real matrix ``eig`` returns each complex pair at adjacent indices,
    positive imaginary part first, and the two eigenvectors as exact
    conjugates: that gives ``partner``, checked bit for bit on the final
    basis, so a generalized-eigenbasis fallback is unpaired.
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
        labels = _cluster_labels(evals, tols[members])
        order = np.argsort(labels, axis=1, kind="stable")
        # columns in kite order, each member column-major as a lone
        # ``evecs[:, order]`` is: later products take their BLAS path from it
        basis = np.take_along_axis(evecs.transpose(0, 2, 1), order[:, :, None], axis=1)
        basis = basis.transpose(0, 2, 1)
        basis_inv = _nondefective_inverse(ops[members], basis, labels, evals)
        stacks.append(
            _KiteStack(members, evals, labels, order, basis, basis_inv, _conjugate_partners(evals, order, basis))
        )
    return stacks


def _nondefective_inverse(ops, basis, labels, evals) -> np.ndarray:
    """Replace in place each member's ``basis`` whose condition number
    passes :data:`DEFECTIVE_COND` (non-diagonalizable input) by its
    generalized eigenspaces, one member at a time, and return the inverse
    of every final basis.

    ``cond_2(S) <= ||S||_F ||S^-1||_F``, so the exact ``cond``, an SVD, runs
    only on members whose bound from the stacked inverse passes half the
    cutoff; the half covers the rounding of a computed inverse.  A stacked
    inverse that raises (an exactly singular member) takes ``cond`` on
    every member first.  Either way the same members fall back and each
    member's inverse is that of its batch of one.
    """
    try:
        inv = np.linalg.inv(basis)
    except np.linalg.LinAlgError:
        inv, flagged = None, np.arange(len(basis))
    else:
        bound = np.linalg.norm(basis, axis=(1, 2)) * np.linalg.norm(inv, axis=(1, 2))
        flagged = np.flatnonzero(~(bound <= 0.5 * DEFECTIVE_COND))
    if flagged.size:
        flagged = flagged[np.linalg.cond(basis[flagged]) > DEFECTIVE_COND]
    for n in flagged:
        basis[n] = _generalized_eigenbasis(ops[n], _clusters(labels[n]), evals[n])
    if inv is None:
        return np.linalg.inv(basis)
    if flagged.size:
        inv[flagged] = np.linalg.inv(basis[flagged])
    return inv


def _conjugate_partners(evals, order, basis) -> np.ndarray:
    """:attr:`_KiteStack.partner` of a stack's kite bases."""
    count, dim = order.shape
    if not np.iscomplexobj(basis):
        return np.tile(np.arange(dim), (count, 1))
    # eig index of each eigenvalue's conjugate: the next one for a positive
    # imaginary part, the previous one for a negative one
    conj = np.clip(np.arange(dim) + np.sign(evals.imag).astype(int), 0, dim - 1)
    position = np.argsort(order, axis=1)
    partner = np.take_along_axis(position, np.take_along_axis(conj, order, axis=1), axis=1)
    paired = np.all(np.take_along_axis(basis, partner[:, None, :], axis=2) == basis.conj(), axis=(1, 2))
    partner[~paired] = -1
    return partner


def kite_structures(ops, degeneracy_tol: float = IDEAL_DEGENERACY_TOL) -> list[KiteStructure]:
    """Kite structures of a stack of operators ``(N, D, D)``, each equal bit
    for bit to :func:`kite_structure` of that member alone."""
    ops = np.asarray(ops)
    if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
        raise ValueError("kite_structures needs a stack of square matrices")
    kites: list[KiteStructure] = [None] * len(ops)
    for stack in _kite_stacks(ops, np.full(len(ops), degeneracy_tol)):
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
    label, so the Jacobian is ``Re(A C)``: ``A`` is ``(D^2, m)``, its
    columns the commutant basis elements ``S E_cd S^-1``, and ``C`` is
    ``(m, n_params)``, m being the commutant dimension ``kite.num_params``
    (see :func:`_twirled_factors`).  A member's Jacobian does not depend on
    the stack it is built in.

    Columns for parameters of gates absent from a germ (and all SPAM
    parameters) are zero.  Real part is returned: the projected derivative
    of a real matrix is real up to rounding because blocks of conjugate
    eigenvalues are projected symmetrically.
    """
    germs = list(germs)
    jac = np.zeros((len(germs), model.dim**2, n_params(model)))
    for factors in _twirled_factors([model], germs, [degeneracy_tol]):
        jac[factors.germs] = (factors.image @ factors.coef).real
    return jac


@dataclass(frozen=True)
class _TwirledFactors:
    """Twirled Jacobians ``Re(image @ coef)`` of a stack of (model, germ)
    members of one length and one commutant dimension ``m``: ``image`` is
    ``(N, D^2, m)``, ``coef`` ``(N, m, n_params)``, both complex unless
    every member's spectrum is real, and ``partner[n]`` maps each in-block
    coordinate to its conjugate coordinate, ``-1`` throughout where the
    kite basis is unpaired (see :attr:`_KiteStack.partner`)."""

    models: np.ndarray
    germs: np.ndarray
    image: np.ndarray
    coef: np.ndarray
    partner: np.ndarray

    def held_rows(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(members, rows ``F``) with ``F^T F = J^T J`` for each member's
        Jacobian ``J``, m rows per paired member and 2m per unpaired one:
        ``F`` never has ``D^2`` rows.

        Pairing each coordinate ``(c, d)`` with its conjugate
        ``(c̄, d̄)``, whose image and coefficients are the conjugates of its
        own, gives a real factor ``J = A_r C_r`` of m columns: coordinate
        ``k`` of a pair ``k < k̄`` takes ``sqrt(2) Re`` of ``k``'s image
        column and coefficient row, ``k̄`` takes ``sqrt(2) Im`` of the
        column and ``-sqrt(2) Im`` of the row, and a self-conjugate
        coordinate takes the real parts.  With ``R^T R = A_r^T A_r`` (an
        m x m Cholesky) the rows are ``R C_r``.  An unpaired member's rows
        are ``[Re K; Im K]`` for ``K = L C``, ``L^H L = A^H A``: their Gram
        is ``Re((AC)^H AC)``, ``J^T J`` up to the rounding of ``Im(AC)``.
        """
        paired = self.partner[:, 0] >= 0
        out = []
        if paired.any():
            image, coef = self.image[paired], self.coef[paired]
            if np.iscomplexobj(image):
                k = np.arange(image.shape[-1])
                partner = self.partner[paired]
                lead = np.minimum(partner, k)  # a pair's coordinate of lower index
                im = partner < k  # a pair's other coordinate takes the imaginary parts
                weight = np.where(partner == k, 1.0, np.sqrt(2.0))
                member = np.arange(len(lead))[:, None]
                # each real coordinate's part of its lead, from the (Re, Im) real views
                image = image.view(float).reshape(*image.shape, 2)[member, :, lead, im.astype(int)]
                image = image.transpose(0, 2, 1) * weight[:, None, :]
                coef = coef.view(float).reshape(*coef.shape, 2)[member, lead, :, im.astype(int)]
                coef *= np.where(im, -weight, weight)[:, :, None]
            out.append((np.flatnonzero(paired), _gram_root(image) @ coef))
        if not paired.all():
            k = _gram_root(self.image[~paired]) @ self.coef[~paired]
            out.append((np.flatnonzero(~paired), np.concatenate([k.real, k.imag], axis=1)))
        return out


def _gram_root(a: np.ndarray) -> np.ndarray:
    """Upper triangular ``R`` with ``R^H R = a^H a`` for each member of a
    stack ``(N, rows, m)`` of full column rank: the Cholesky factor of the
    m x m Gram, or, where that Gram is not numerically positive definite,
    the ``R`` of a QR decomposition.  A member's ``R`` is that of its batch
    of one."""
    try:
        return np.linalg.cholesky(a.conj().transpose(0, 2, 1) @ a, upper=True)
    except np.linalg.LinAlgError:
        if len(a) > 1:
            return np.stack([_gram_root(member[None])[0] for member in a])
        return np.linalg.qr(a, mode="r")


def _twirled_factors(models: list[GateSet], germs: list[Circuit], tols):
    """Yield the :class:`_TwirledFactors` of every (model, germ) member,
    ``tols[mi]`` being model ``mi``'s degeneracy tolerance.

    Members of one length are built together across all models, which
    must share the gate labels and dimension of ``models[0]``, in stacks of
    at most :data:`~gstdesign.held.STACK_BYTES` of working arrays: the
    prefix and suffix products are stacked matmuls and the kites come from
    :func:`_kite_stacks`.  Each kite stack's members of one commutant
    dimension are then factored in stacks of their own, each label's
    coefficients one contraction over them, the occurrence sum running
    over every position with weight one or zero.  The empty germ, whose
    Jacobian is zero, is in no stack.
    """
    dim = models[0].dim
    labels = list(models[0].gates)
    if any(m.dim != dim or list(m.gates) != labels for m in models):
        raise ValueError("models built together must share gate labels and dimension")
    require_labels(models[0], [germ.labels for germ in germs])
    gates = np.stack([m.gates[lab] for m in models for lab in labels])
    position = {lab: i for i, lab in enumerate(labels)}
    by_length: dict[int, list[tuple[int, int]]] = {}
    for gi, germ in enumerate(germs):
        if germ.labels:  # the empty germ has no gate columns
            by_length.setdefault(len(germ.labels), []).extend((mi, gi) for mi in range(len(models)))

    blocks = param_blocks(models[0])
    columns = [blocks[lab] for lab in labels]
    tols = np.asarray(tols, dtype=float)
    for length, members in by_length.items():
        # real gates and their prefix and suffix products, and the complex
        # eigenvectors, kite basis and inverse: (24 length + 56) D^2 bytes a member
        chunk = max(1, held.STACK_BYTES // ((24 * length + 56) * dim**2))
        for lo in range(0, len(members), chunk):
            mis, gis = np.array(members[lo : lo + chunk]).T
            seq = np.array([[position[lab] for lab in germs[gi].labels] for gi in gis])
            ops = gates[mis[:, None] * len(labels) + seq]
            for member, *factors in _twirled_factor_stacks(ops, tols[mis], seq, columns, n_params(models[0])):
                yield _TwirledFactors(mis[member], gis[member], *factors)


def _twirled_factor_stacks(ops, tols, seq, columns, width):
    """Yield (members, image, coef, partner) of :class:`_TwirledFactors`
    for the germs ``ops`` ``(N, n, D, D)``, the gates of each in time
    order, all of one length ``n``, members numbered by their position in
    ``ops``; ``seq`` holds the gates' label indices, whose parameters are
    ``columns[label]`` of ``width``."""
    length, dim = ops.shape[1:3]
    prefix = np.empty_like(ops)  # prefix[:, i] = G_i ... G_1, the gates before position i
    prefix[:, 0] = np.eye(dim)
    for i in range(1, length):
        prefix[:, i] = ops[:, i - 1] @ prefix[:, i - 1]
    suffix = np.empty_like(ops)  # suffix[:, i] = G_n ... G_(i+2), the gates after it
    suffix[:, -1] = np.eye(dim)
    for i in range(length - 2, -1, -1):
        suffix[:, i] = suffix[:, i + 1] @ ops[:, i + 1]
    taus = ops[:, -1] @ prefix[:, -1]

    for stack in _kite_stacks(taus, tols):
        inside = stack.in_block()
        sizes = inside.sum(axis=(1, 2))
        for size in np.unique(sizes).tolist():
            same = np.flatnonzero(sizes == size)
            # complex image and coefficients, (D^2 + n_params) m values, the
            # products they come from, 2 length D^2, and up to four real
            # m x n_params arrays of held rows
            per_member = 16 * (dim * dim + width) * size + 32 * length * dim * dim + 32 * size * width
            chunk = max(1, held.STACK_BYTES // per_member)
            for lo in range(0, same.size, chunk):
                sub = same[lo : lo + chunk]
                member = stack.members[sub]
                yield member, *_factor(
                    stack.basis[sub], stack.basis_inv[sub], stack.partner[sub], inside[sub],
                    prefix[member], suffix[member], seq[member], columns, width,
                )


def _factor(s, sinv, p, inside, prefix, suffix, seq, columns, width):
    """Image ``A``, coefficients ``C`` and coordinate partners (see
    :class:`_TwirledFactors`) of a stack of members of one commutant
    dimension, from their kite bases ``s``, inverses ``sinv``, column
    partners ``p``, in-block masks ``inside``, prefix and suffix products
    and label sequences."""
    count, dim = s.shape[:2]
    size = int(inside[0].sum())
    # (c, d): each member's in-block entries, row-major
    _, c, d = np.nonzero(inside)
    c, d = c.reshape(count, size), d.reshape(count, size)
    # column m: the commutant basis element S E_(c_m d_m) S^-1, flattened
    s_c = np.take_along_axis(s, c[:, None, :], axis=2)
    sinv_d = np.take_along_axis(sinv, d[:, :, None], axis=1)
    image = s_c[:, :, None, :] * sinv_d.transpose(0, 2, 1)[:, None, :, :]
    image = image.reshape(count, dim * dim, size)
    # row 0 of every gate is fixed, so only a >= 1 has a parameter
    left = sinv[:, None] @ suffix[..., 1:]  # (members, n, D, D-1)
    left = np.take_along_axis(left, c[:, None, :, None], axis=2)
    right = np.take_along_axis(prefix @ s[:, None], d[:, None, None, :], axis=3)
    coef = np.zeros((count, size, width), dtype=image.dtype)
    for gate, cols in enumerate(columns):
        occurs = seq == gate  # (members, n)
        present = np.flatnonzero(occurs.any(axis=1))
        if not present.size:
            continue
        weights = occurs[present].astype(float)[:, :, None, None]
        # coef[m, a, b] = sum_i [G at i] left_i[c_m, a] right_i[b, d_m]
        block = (left[present] * weights).transpose(0, 2, 3, 1)
        block = block @ right[present].transpose(0, 3, 1, 2)
        coef[present, :, cols] = block.reshape(present.size, size, -1)
    # each in-block coordinate's conjugate, by its index among them
    index = np.full((count, dim, dim), -1)
    rows = np.arange(count)[:, None]
    index[rows, c, d] = np.arange(size)
    partner = index[rows, np.take_along_axis(p, c, axis=1), np.take_along_axis(p, d, axis=1)]
    partner[np.any(partner < 0, axis=1) | (p[:, 0] < 0)] = -1
    return image, coef, partner


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


def _held_candidates(models: list[GateSet], pool: list[Circuit], tols) -> list[list[np.ndarray]]:
    """Each candidate's twirled Jacobian divided by its length, at each
    model, held as its own ``r_c x n_params`` compressed rows
    (:func:`~gstdesign.held.compressed_rows`), largest first; the empty
    germ holds none.  The rows are compressed from the factor rows
    (:meth:`_TwirledFactors.held_rows`) stack by stack as they are built and
    copied out of their stack, so no stack's padding outlives it: no
    ``D^2``-row Jacobian, Gram or eigensolve is formed, and no more than
    one stack of factors is held at a time.  Every model is built in the
    same stacks, and each model's candidates come out bit for bit as a
    build of that model alone."""
    empty = np.zeros((0, n_params(models[0])))
    store = [[empty] * len(pool) for _ in models]
    for factors in _twirled_factors(models, pool, tols):
        scale = 1.0 / len(pool[factors.germs[0]].labels)
        for sub, rows in factors.held_rows():
            rows *= scale
            kept, ranks = compressed_rows(rows)
            for mi, gi, member, rank in zip(factors.models[sub], factors.germs[sub], kept, ranks):
                store[mi][gi] = member[:rank].copy()
    return store


def _test_ranks_and_scores(
    chosen: np.ndarray, cands: list[np.ndarray], idx: list[int], target: int, score_fn: str
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
    chosen: np.ndarray, cands: list[np.ndarray], idx: list[int], target: int, score_fn: str
) -> tuple[np.ndarray, np.ndarray, int]:
    """Ranks and scores of the chosen set joined with each candidate of
    ``idx`` from the test spectra, and the width of their test matrices.

    Candidate ``c``'s test matrix is ``R R^T`` for the stacked rows
    ``R = [S; C_c]``, ``S`` the chosen set's compressed rows and ``C_c``
    the candidate's, padded with zero rows to the widest ``r_c`` of the
    pool, ``r``, as each stack is formed: its nonzero spectrum is that of
    the test Gram ``S^T S + C_c^T C_c``, and the exact zeros past its width
    score nothing.  Compressed rows are orthogonal, so ``S S^T`` and
    ``C_c C_c^T`` are diagonal, their squared row norms, and a test costs
    the cross block ``C_c S^T`` and one ``eigvalsh``, ``rank_S + r`` wide.
    Every test matrix of one chosen set and model has the same width, so a
    stacked ``eigvalsh`` of at most :data:`~gstdesign.held.STACK_BYTES` of
    them gives each member the bits of its own call.
    """
    split, widest = len(chosen), max(map(len, cands))
    width = split + widest
    lam = np.einsum("ij,ij->i", chosen, chosen)
    # a test's padded candidate rows, r x n_params, and its test matrix, rank_S + r wide
    chunk = max(1, held.STACK_BYTES // (8 * (widest * chosen.shape[1] + width * width)))
    spectra = []
    for lo in range(0, len(idx), chunk):
        sub = idx[lo : lo + chunk]
        rows = np.zeros((len(sub), widest, chosen.shape[1]))
        for k, ci in enumerate(sub):
            rows[k, : len(cands[ci])] = cands[ci]
        cross = rows @ chosen.T
        test = np.zeros((len(sub), width, width))
        test[:, split:, :split] = cross
        test[:, :split, split:] = cross.transpose(0, 2, 1)
        diagonal = np.einsum("nii->ni", test)  # a writable view
        diagonal[:, :split] = lam
        diagonal[:, split:] = np.einsum("nij,nij->ni", rows, rows)
        spectra.append(np.linalg.eigvalsh(test))
    ranks, scores = _gram_ranks_and_scores(np.concatenate(spectra), target, score_fn)
    return ranks, scores, width


def _updated_ranks_and_scores(
    chosen: np.ndarray, cands: list[np.ndarray], idx: list[int]
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
    at most :data:`~gstdesign.held.STACK_BYTES` of cross blocks at a time,
    so a candidate's result is that of its batch of one.
    """
    lam = np.einsum("ij,ij->i", chosen, chosen)
    scale = np.sqrt(lam)
    trace, floor = np.sum(1.0 / lam), lam.min(initial=np.inf)
    ranks = np.zeros(len(idx), dtype=int)
    scores = np.zeros(len(idx))
    unsure = np.zeros(len(idx), dtype=bool)
    by_rank: dict[int, list[int]] = {}
    for k, ci in enumerate(idx):
        by_rank.setdefault(len(cands[ci]), []).append(k)
    for width, members in by_rank.items():
        # a test's rows and residual, r_c x n_params each, and three r_c x rank_S cross blocks
        chunk = max(1, held.STACK_BYTES // (8 * max(width, 1) * (2 * chosen.shape[1] + 3 * len(chosen))))
        for lo in range(0, len(members), chunk):
            sub = members[lo : lo + chunk]
            ci = [idx[k] for k in sub]
            rows = np.stack([cands[c] for c in ci])
            x = rows @ chosen.T / scale
            y = x / scale
            resid = rows - y @ chosen
            # candidate rows come largest first: its top eigenvalue is its first row's squared norm
            rho = np.max(lam + np.einsum("nij,nij->nj", x, x), axis=1, initial=0.0)
            cutoff = GRAM_RANK_RTOL * np.maximum(rho, np.sum(rows[:, :1] ** 2, axis=(1, 2)))
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


def _joined(chosen: np.ndarray, cands: list[np.ndarray], ci: int) -> np.ndarray:
    """The chosen set's compressed rows after candidate ``ci`` joins it."""
    return compressed_rows(np.concatenate([chosen, cands[ci]])[None])[0][0]


def _pooled(cands: list[np.ndarray]) -> HeldFim:
    """The whole pool's matrix, the sum of every candidate's ``F^T F``:
    summed through :class:`HeldFim` from consecutive groups of candidates,
    each group no more rows than the width, so no copy of the held rows
    is larger than the ``n_params``-wide Gram the sum forms."""
    width = cands[0].shape[1]
    groups, size = [[]], 0
    for rows in cands:
        if size + len(rows) > width:
            groups.append([])
            size = 0
        groups[-1].append(rows)
        size += len(rows)
    return sum((HeldFim.from_rows(np.concatenate(group)) for group in groups), HeldFim(rows=np.zeros((0, width))))


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
    up front, every model in the same stacks (see :func:`_held_candidates`),
    and held only as its own compressed rows, ``r_c`` of them (see
    :mod:`gstdesign.held`), with no padding to the pool's widest rank and
    no Gram; each model's chosen set is held the same way, ``rank_S``
    rows.  Tests are scored by :func:`_test_ranks_and_scores`: a ``sum``
    score by a rank-``r_c`` update of the chosen set, whose solves are
    ``r_c`` wide, and a ``min`` score from an eigensolved test matrix
    ``rank_S + r`` wide, ``r`` the widest ``r_c`` of the pool at that model,
    so no test solves the ``n_params``-wide Gram.  Compression drops directions below
    :data:`~gstdesign.held.COMPRESS_RTOL` of a matrix's top eigenvalue, so
    each test eigenvalue lies within that of the dense test Gram's (Weyl's
    inequality): an eigensolved rank can differ from the dense one only
    through an eigenvalue within 1% of the :data:`GRAM_RANK_RTOL` cutoff;
    a test whose update counts an eigenvalue within a factor of two of its
    cutoff, the slack of the update's cutoff scale, is eigensolved.  A pool
    whose full Gram falls short of a model's target raises
    :class:`GermSelectionError` before any step; so does an empty pool.
    An empty model list raises ``ValueError``, and so do models that do
    not list the target's gate labels in its order, as perturbed copies
    (:func:`~gstdesign.noise.perturbed_models`) do.

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
    candidates = _held_candidates(models, pool, _degeneracy_tols(len(models)))

    deficits = []
    for mi, cands in enumerate(candidates):
        pooled = _pooled(cands).eigvalsh()
        (rank,), _ = _gram_ranks_and_scores(pooled[None], targets[mi], score_fn)
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
                chosen[mi], candidates[mi], cands, targets[mi], score_fn
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
        chosen = [_joined(c, cands, ci) for c, cands in zip(chosen, candidates)]
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
