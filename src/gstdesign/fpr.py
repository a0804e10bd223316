"""Fiducial pair reduction: structured per-germ search and random thinning.

Per-germ FPR reparameterizes each germ by its kite structure (entries
inside the commutant blocks, expressed in the germ's generalized
eigenbasis) and asks which fiducial pairs produce outcome probabilities
sensitive to those coordinates.  A random incremental search keeps the
smallest pair set whose Jacobian Gram spectrum retains at least a fraction
``eps_lambda`` of the full grid's smallest non-trivial eigenvalue, at the
full grid's rank.

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
]


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
    all_effects = effective_fiducial_effects(gs, list(meas_fiducials))
    us, vs = (idx.tolist() for idx in kite.coords)
    jac = np.empty((len(pairs) * m, len(us)), dtype=complex)
    for r, (j, i) in enumerate(pairs):
        right = kite.basis_inv @ states[j]
        for t in range(m):
            left = all_effects[i * m + t] @ kite.basis
            jac[r * m + t] = [left[u] * right[v] for u, v in zip(us, vs)]
    return jac


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
    If nothing short of the full grid is accepted the full grid is returned
    with a fallback flag.
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
        base_rank[k] = rank
        # row cache: pair r occupies rows [r*m, (r+1)*m)
        rng = np.random.default_rng(np.random.SeedSequence([int(search_seed), k]))

        found = None
        start_size = max(1, math.ceil(rank / m))
        for size in range(start_size, len(full_grid)):
            # draw the whole batch for this size, then test best ratio first
            # (the candidate generator is free; ordering by quality keeps the
            # accepted set well away from the eps_lambda floor)
            batch = []
            for _ in range(candidates_per_size):
                sel = sorted(rng.choice(len(full_grid), size=size, replace=False).tolist())
                rows = np.concatenate([np.arange(r * m, (r + 1) * m) for r in sel])
                spec = np.sort(np.linalg.svd(jac_full[rows], compute_uv=False) ** 2)[::-1]
                lam = float(spec[rank - 1]) if spec.size >= rank else 0.0
                batch.append((lam, sel))
            if not batch:
                continue
            batch.sort(key=lambda t: -t[0])
            lam, sel = batch[0]
            if lam >= eps_lambda * lam_baseline:
                found = (sel, lam / lam_baseline)
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
