"""Noise-model sampling and multinomial dataset simulation.

Two noise classes are supported: coherent-only, where every gate is
preceded by nothing and followed by a random small unitary
``expm(sum_a h_a H_a)`` with Hamiltonian-generator weights drawn i.i.d.
from N(0, sigma); and coherent+depolarization, which additionally applies
a uniform depolarizing factor ``diag(1, 1-eta, ..., 1-eta)`` after each
gate.  SPAM is left untouched.  The same sampler doubles as the source of
"unitarily perturbed" models for robust germ selection and for Fisher
certification evaluation points.
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
    """kind in {"coherent-only", "coherent-depol"}; sigma >= 0; eta in [0, 1)."""

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


class NonFiniteModelError(ValueError):
    """A sampled noisy gate has a non-finite entry: sigma overflows floating point."""


def sample_noisy_gateset(target: GateSet, spec: NoiseSpec) -> GateSet:
    """Apply per-gate sampled coherent error (and optional depolarization).

    Each gate becomes ``D_eta . expm(sum_a h_a H_a) . G`` with independent
    weights per gate; the error factor acts after the gate.  The weights
    are drawn gate by gate in sorted label order, so the noisy model does
    not depend on the order the target lists its gates in (a saved and
    loaded gate set lists them sorted); the gates come back in the
    target's order.  With sigma = eta = 0 the target is returned
    unchanged.  A gate with a non-finite entry raises
    :class:`NonFiniteModelError`.
    """
    if spec.sigma == 0.0 and (spec.kind == "coherent-only" or spec.eta == 0.0):
        return target
    import scipy.linalg  # deferred: noiseless commands start without SciPy

    gens = hamiltonian_generator_ptms(target.num_qubits)
    depol = depolarizing_ptm(target.dim, spec.eta) if spec.kind == "coherent-depol" else None
    rng = np.random.default_rng(np.random.SeedSequence([int(spec.seed), 0x6E6F6973]))
    gates = {}
    for label in sorted(target.gates):
        g = target.gates[label]
        weights = rng.normal(0.0, spec.sigma, size=len(gens))
        generator = sum(w * h for w, h in zip(weights, gens))
        err = scipy.linalg.expm(generator)
        noisy = err @ g
        if depol is not None:
            noisy = depol @ noisy
        if not np.all(np.isfinite(noisy)):
            raise NonFiniteModelError(f"noise sigma {spec.sigma:g} makes gate {label!r} non-finite")
        gates[label] = noisy
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
