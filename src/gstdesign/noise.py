"""Noise-model sampling and multinomial dataset simulation.

Two noise classes are supported: coherent-only, where every gate is
preceded by nothing and followed by a random small unitary
``expm(sum_a h_a H_a)`` with Hamiltonian-generator weights drawn i.i.d.
from N(0, sigma); and coherent+depolarization, which additionally applies
a uniform depolarizing factor ``diag(1, 1-eta, ..., 1-eta)`` after each
gate.  SPAM is left untouched.  The same sampler doubles as the source of
"unitarily perturbed" models for robust germ selection and for Fisher
certification evaluation points.

The exponential is this module's own :func:`_expm`: scaling and squaring
of a degree-18 Taylor polynomial, matrix products only, so sampling a
noisy model needs nothing beyond NumPy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .design import ExperimentDesign, design_probabilities
from .model import (
    Circuit,
    GateSet,
    circuits_probabilities,
    depolarizing_ptm,
    hamiltonian_generator_ptms,
    write_json,
)

__all__ = [
    "NoiseSpec",
    "NonFiniteModelError",
    "Dataset",
    "sample_noisy_gateset",
    "perturbed_models",
    "simulate_dataset",
    "log_likelihood",
    "PROB_CLIP_FLOOR",
]

# probabilities are clipped to [PROB_CLIP_FLOOR, 1] wherever their inverse
# or logarithm is taken
PROB_CLIP_FLOOR = 1e-10


@dataclass(frozen=True)
class NoiseSpec:
    """kind in {"coherent-only", "coherent-depol"}; sigma >= 0; eta in [0, 1),
    and 0 for coherent-only, which has no depolarization."""

    kind: str = "coherent-only"
    sigma: float = 0.01
    eta: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("coherent-only", "coherent-depol"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if not (0.0 <= self.eta < 1.0):
            raise ValueError("eta must lie in [0, 1)")
        if self.kind == "coherent-only" and self.eta != 0.0:
            raise ValueError("coherent-only noise has no depolarization: eta must be 0")


class NonFiniteModelError(ValueError):
    """A sampled noisy gate would not be finite: sigma overflows floating point."""


# :func:`_expm` scales its argument to a 1-norm of at most _EXPM_THETA, where
# the degree-18 Taylor remainder (1.09**19 / 19! < 5e-17) is below rounding.
_EXPM_THETA = 1.09
_EXPM_DEGREE = 18
# Each squaring about doubles the rounding error, so past this 1-norm (52
# squarings) the error reaches order one; such a generator is refused.
_EXPM_NORM_LIMIT = 2.0**52


def _expm(a: np.ndarray, norm: float) -> np.ndarray:
    """``expm(a)`` for a generator ``a`` of 1-norm ``norm`` (finite, below
    :data:`_EXPM_NORM_LIMIT`): ``a`` is halved ``s`` times to a 1-norm of at
    most :data:`_EXPM_THETA` (exact, by powers of two), its Taylor
    polynomial of degree :data:`_EXPM_DEGREE` is summed by Horner's rule and
    the sum squared ``s`` times.  A generator with a zero first row and
    column gives exactly ``e_0`` there."""
    s = math.ceil(math.log2(norm / _EXPM_THETA)) if norm > _EXPM_THETA else 0
    a = a / 2.0**s
    eye = np.eye(len(a))
    out = eye
    for k in range(_EXPM_DEGREE, 0, -1):
        out = eye + (a @ out) / k
    for _ in range(s):
        out = out @ out
    return out


def sample_noisy_gateset(target: GateSet, spec: NoiseSpec) -> GateSet:
    """Apply per-gate sampled coherent error (and optional depolarization).

    Each gate becomes ``D_eta . expm(sum_a h_a H_a) . G`` with independent
    weights per gate; the error factor acts after the gate.  The weights
    are drawn gate by gate in sorted label order, so the noisy model does
    not depend on the order the target lists its gates in (a saved and
    loaded gate set lists them sorted); the gates come back in the
    target's order.  With sigma = eta = 0 the target is returned
    unchanged.  The error factor is :func:`_expm` of the generator, whose
    entries agree to about 1e-13 with a Padé-based reference exponential
    for sigma up to 1.  A generator whose 1-norm is not finite or at least
    ``2**52`` (where squaring makes rounding errors of order one) raises
    :class:`NonFiniteModelError`; below that the noisy gates of a finite
    target are finite.
    """
    if spec.sigma == 0.0 and spec.eta == 0.0:
        return target
    gens = hamiltonian_generator_ptms(target.num_qubits)
    depol = depolarizing_ptm(target.dim, spec.eta) if spec.kind == "coherent-depol" else None
    rng = np.random.default_rng(np.random.SeedSequence([int(spec.seed), 0x6E6F6973]))
    gates = {}
    for label in sorted(target.gates):
        g = target.gates[label]
        weights = rng.normal(0.0, spec.sigma, size=len(gens))
        generator = sum(w * h for w, h in zip(weights, gens))
        norm = float(np.abs(generator).sum(axis=0).max())
        if not norm < _EXPM_NORM_LIMIT:
            raise NonFiniteModelError(f"noise sigma {spec.sigma:g} makes gate {label!r} non-finite")
        noisy = _expm(generator, norm) @ g
        gates[label] = noisy if depol is None else depol @ noisy
    gates = {label: gates[label] for label in target.gates}
    return GateSet(gates, target.prep, target.effects, target.two_qubit_labels)


def perturbed_models(target: GateSet, count: int, sigma: float, seed: int) -> list[GateSet]:
    """Independent coherent-only perturbations of the target."""
    return [
        sample_noisy_gateset(target, NoiseSpec("coherent-only", sigma, 0.0, seed + k))
        for k in range(count)
    ]


@dataclass(frozen=True)
class Dataset:
    """Outcome counts per circuit; rows of ``counts`` sum to ``shots``."""

    circuits: tuple[Circuit, ...]
    counts: np.ndarray  # (n_circuits, n_outcomes) int64
    shots: int

    def to_json_dict(self) -> dict:
        return {
            "shots": self.shots,
            "circuits": [list(c.labels) for c in self.circuits],
            "counts": self.counts.tolist(),
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "Dataset":
        return Dataset(
            circuits=tuple(Circuit(tuple(c)) for c in doc["circuits"]),
            counts=np.array(doc["counts"], dtype=np.int64),
            shots=int(doc["shots"]),
        )

    def save(self, path) -> None:
        write_json(path, self.to_json_dict())

    @staticmethod
    def load(path) -> "Dataset":
        with open(path) as f:
            return Dataset.from_json_dict(json.load(f))


def _validated_probabilities(probs: np.ndarray, circuits) -> np.ndarray:
    """Every row of ``probs`` clipped at 0 and divided by its sum, all rows
    at once (each keeps the bits of ``p / p.sum()``).  The first circuit in
    circuit order with a probability below ``-1e-9``, or with clipped
    probabilities summing to more than ``1e-6`` off 1, raises ValueError."""
    clipped = np.clip(probs, 0.0, None)
    totals = clipped.sum(axis=1)
    negative = probs.min(axis=1) < -1e-9
    invalid = negative | (np.abs(totals - 1.0) > 1e-6)
    if invalid.any():
        idx = int(np.argmax(invalid))
        if negative[idx]:
            raise ValueError(f"model predicts negative probability {probs[idx].min():.3e} for {circuits[idx]}")
        raise ValueError(f"model probabilities sum to {totals[idx]:.6f} for {circuits[idx]}")
    return clipped / totals[:, None]


def simulate_dataset(gs: GateSet, circuits_or_design, shots: int, seed: int) -> Dataset:
    """Draw multinomial counts for every circuit of a circuit sequence or of
    an :class:`~gstdesign.design.ExperimentDesign`, one RNG stream per
    circuit (``SeedSequence([seed, index])`` in circuit order).

    This is the one place that tells a design from a circuit list: a
    design's probabilities come from
    :func:`~gstdesign.design.design_probabilities`, a sequence's from
    :func:`~gstdesign.model.circuits_probabilities`.  Both check every
    label first; all rows are then validated in one pass before any draw,
    and an error names the first invalid circuit in circuit order.
    """
    if isinstance(circuits_or_design, ExperimentDesign):
        circuits = circuits_or_design.circuits
        probs = design_probabilities(gs, circuits_or_design)
    else:
        circuits = tuple(circuits_or_design)
        probs = circuits_probabilities(gs, circuits)
    probs = _validated_probabilities(probs, circuits)
    counts = np.zeros((len(circuits), gs.num_effects), dtype=np.int64)
    for idx, p in enumerate(probs):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), idx]))
        counts[idx] = rng.multinomial(shots, p)
    return Dataset(circuits=circuits, counts=counts, shots=shots)


def log_likelihood(gs: GateSet, dataset: Dataset) -> float:
    """Multinomial log likelihood of the dataset under the gate set, its
    probabilities from :func:`~gstdesign.model.circuits_probabilities`,
    the walk :func:`simulate_dataset` takes for a circuit list (a design's
    body walk agrees with it to rounding); the first circuit with an
    unknown label raises :class:`~gstdesign.model.GateSetError`."""
    total = 0.0
    shots = dataset.shots
    probs = circuits_probabilities(gs, dataset.circuits)
    for p, n in zip(probs, dataset.counts):
        p = np.clip(p, PROB_CLIP_FLOOR, 1.0)
        total += math.lgamma(shots + 1) - sum(math.lgamma(k + 1) for k in n.tolist()) + float(n @ np.log(p))
    return float(total)
