"""Informationally complete fiducial selection via Gram-matrix spectra.

Effective preparations ``F_j rho`` must span all of Hilbert-Schmidt space
(rank d^2); effective measurement effects only need rank d^2 - 1 because
probability conservation fixes one direction.  Candidate sets are scored by
the smallest eigenvalue among the required number of leading Gram
eigenvalues, and selection greedily adds the candidate that most improves
(rank, score), stopping once no single addition helps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .model import (
    TP_TOL,
    Circuit,
    GateSet,
    effective_fiducial_effects,
    effective_fiducial_states,
    numerical_rank,
)

__all__ = [
    "PoolNotInformationallyComplete",
    "FiducialScore",
    "fiducial_score",
    "fiducial_candidate_pool",
    "per_qubit_pattern_pool",
    "qubit_gate_pairs",
    "select_fiducials",
]

NEG_INF = float("-inf")


class PoolNotInformationallyComplete(ValueError):
    def __init__(self, kind: str, rank: int, required: int):
        self.kind = kind
        self.rank = rank
        self.required = required
        super().__init__(
            f"{kind} candidate pool is not informationally complete: "
            f"Gram rank {rank} of {required}"
        )


@dataclass(frozen=True)
class FiducialScore:
    rank: int
    required_rank: int
    score: float  # smallest of the required leading Gram eigenvalues, -inf if rank short
    spectrum: tuple[float, ...]


def _effective_vectors(gs: GateSet, fids, kind: str) -> list[np.ndarray]:
    if kind == "prep":
        return effective_fiducial_states(gs, list(fids))
    if kind == "meas":
        return effective_fiducial_effects(gs, list(fids))
    raise ValueError("kind must be 'prep' or 'meas'")


def required_rank(gs: GateSet, kind: str) -> int:
    return gs.dim if kind == "prep" else gs.dim - 1


def fiducial_score(gs: GateSet, fids, kind: str) -> FiducialScore:
    """Rank and smallest non-trivial Gram eigenvalue of a fiducial set."""
    if not fids:
        raise ValueError("fiducial set must be nonempty")
    vecs = _effective_vectors(gs, fids, kind)
    svals = np.linalg.svd(np.vstack(vecs), compute_uv=False)
    rank = numerical_rank(svals)
    req = required_rank(gs, kind)
    evals = np.zeros(max(req, svals.size))
    evals[: svals.size] = svals**2
    score = float(evals[req - 1]) if rank >= req else NEG_INF
    return FiducialScore(rank=rank, required_rank=req, score=score, spectrum=tuple(evals[: svals.size]))


def fiducial_candidate_pool(labels, max_depth: int = 3) -> list[Circuit]:
    """The empty circuit plus all gate sequences up to ``max_depth``."""
    pool = [Circuit(())]
    for depth in range(1, max_depth + 1):
        pool.extend(Circuit(combo) for combo in itertools.product(labels, repeat=depth))
    return pool


# label-index sequences applied to each qubit's (x, y) gate pair; they
# mirror the single-qubit octahedral fiducials
QUBIT_PATTERNS = ((), (0,), (1,), (0, 0), (0, 0, 0), (1, 1, 1))


def qubit_gate_pairs(gs: GateSet) -> tuple[tuple[str, str], tuple[str, str]]:
    """Each qubit's two single-qubit gate labels, in the gate set's order,
    for :func:`per_qubit_pattern_pool`.

    Pauli string ``P_a (x) P_b`` is basis index ``4 a + b``, ``a`` on qubit 0.
    A gate acts on qubit 0 alone when it fixes every string with ``a = 0``
    (to :data:`~gstdesign.model.TP_TOL`) and on qubit 1 alone when it fixes
    every string with ``b = 0``; a gate that fixes both is an idle and
    belongs to neither.  Raises :class:`ValueError` unless the gate set is
    two-qubit with exactly two such gates on each qubit.
    """
    if gs.num_qubits != 2:
        raise ValueError(f"per-qubit fiducial patterns need a two-qubit gate set, not a {gs.num_qubits}-qubit one")
    eye = np.eye(gs.dim)
    q0, q1 = (
        {label for label, g in gs.gates.items() if np.max(np.abs(g[:, cols] - eye[:, cols])) <= TP_TOL}
        for cols in (np.arange(4), np.arange(0, 16, 4))
    )
    pairs = (
        tuple(label for label in gs.gates if label in q0 - q1),
        tuple(label for label in gs.gates if label in q1 - q0),
    )
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError(f"per-qubit fiducial patterns need two gates on each qubit; the gate set has {pairs}")
    return pairs


def per_qubit_pattern_pool(q0_labels, q1_labels) -> list[Circuit]:
    """Two-qubit candidates: one of ``QUBIT_PATTERNS`` per qubit, concatenated."""
    pool = []
    for pat0, pat1 in itertools.product(QUBIT_PATTERNS, repeat=2):
        labels = tuple(q0_labels[i] for i in pat0) + tuple(q1_labels[i] for i in pat1)
        pool.append(Circuit(labels))
    return pool


def _greedy_key(gs, chosen, candidate, kind, req):
    s = fiducial_score(gs, chosen + [candidate], kind)
    capped = min(s.rank, req)
    lam = s.spectrum[capped - 1] if capped >= 1 else 0.0
    # quantize so the gate-count tie-break is not defeated by fp jitter
    return capped, float(np.round(lam, 10))


def select_fiducials(gs: GateSet, pool, kind: str, rel_improvement: float = 1e-9) -> list[Circuit]:
    """Greedy add-one fiducial selection over a candidate pool.

    The whole pool is scored first and must meet the rank requirement.
    Growth stops when the best single addition no longer raises the score
    by more than ``rel_improvement`` (relative); ties break toward fewer
    total gate operations, then lexicographic label order, so the result is
    deterministic for a given pool.
    """
    pool = list(pool)
    req = required_rank(gs, kind)
    whole = fiducial_score(gs, pool, kind)
    if whole.rank < req:
        raise PoolNotInformationallyComplete(kind, whole.rank, req)

    chosen: list[Circuit] = []
    best_key = (0, 0.0)
    remaining = list(pool)
    while remaining:
        scored = []
        for cand in remaining:
            key = _greedy_key(gs, chosen, cand, kind, req)
            scored.append((key, (len(cand.labels), cand.labels), cand))
        # max key; ties -> fewest gates, then lexicographic labels
        scored.sort(key=lambda t: (-t[0][0], -t[0][1], t[1]))
        key, _, cand = scored[0]
        improved = key[0] > best_key[0] or (
            key[0] == best_key[0]
            and key[1] > best_key[1] * (1.0 + rel_improvement) + rel_improvement**2
        )
        if not improved:
            break
        chosen.append(cand)
        remaining.remove(cand)
        best_key = key
    return chosen
