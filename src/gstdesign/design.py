"""Plaquette-structured circuit lists for GST experiments.

A design is the LGST base layer (``F_j H_i`` and ``F_j G_k H_i`` for every
bare gate) plus one plaquette per (germ, max depth) holding the retained
fiducial pairs; every plaquette circuit is ``F_j g_k^p H_i`` with the germ
power ``p`` the largest repetition count that fits inside the depth limit.
Circuits are deduplicated on their exact label sequence and each unique
circuit is bucketed at the smallest max depth at which it first appears,
which is what the Fisher-information series consume.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .model import Circuit, CircuitStructure

__all__ = [
    "DesignError",
    "FprPolicy",
    "Plaquette",
    "ExperimentDesign",
    "default_schedule",
    "validate_schedule",
    "germ_power",
    "build_design",
    "circuit_count",
    "count_by_depth",
]


class DesignError(ValueError):
    """Inconsistent design inputs (empty lists, bad schedule, empty plaquette)."""


def default_schedule(l_max: int) -> tuple[int, ...]:
    """Powers of two 1, 2, 4, ..., l_max."""
    if l_max < 1:
        raise DesignError("l_max must be >= 1")
    out = []
    l = 1
    while l <= l_max:
        out.append(l)
        l *= 2
    return tuple(out)


def validate_schedule(maxdepths) -> tuple[int, ...]:
    sched = tuple(int(l) for l in maxdepths)
    if not sched or sched[0] < 1 or any(b <= a for a, b in zip(sched, sched[1:])):
        raise DesignError(f"maxdepths must be positive and strictly increasing, got {sched}")
    return sched


def germ_power(germ: Circuit, max_depth: int) -> int:
    """Largest p with len(germ) * p <= max_depth (0 if the germ is too long)."""
    depth = len(germ)
    if depth < 1:
        raise DesignError("germs must have depth >= 1")
    if max_depth < 1:
        raise DesignError("max_depth must be >= 1")
    return max_depth // depth


@dataclass(frozen=True)
class FprPolicy:
    """Which fiducial pairs each plaquette keeps.

    mode "full": the whole grid.  mode "per-germ": ``pairs_by_germ`` maps a
    germ index to the retained (prep, meas) index pairs, reused at every
    depth.  mode "random": each (germ, depth) plaquette independently keeps
    ``keep_count(gamma, n_pairs)`` pairs drawn without replacement from a
    stream seeded by (seed, germ index, depth).
    """

    mode: str = "full"
    gamma: float | None = None
    seed: int | None = None
    rounding: str = "floor"
    eps_lambda: float | None = None
    pairs_by_germ: dict[int, tuple[tuple[int, int], ...]] | None = None

    def __post_init__(self):
        if self.mode not in ("full", "per-germ", "random"):
            raise DesignError(f"unknown fpr mode {self.mode!r}")
        if self.mode == "random":
            if self.gamma is None or not (0.0 < self.gamma <= 1.0):
                raise DesignError("random FPR needs gamma in (0, 1]")
            if self.seed is None:
                raise DesignError("random FPR needs a seed")
        if self.mode == "per-germ" and not self.pairs_by_germ:
            raise DesignError("per-germ FPR needs a nonempty pairs_by_germ map")

    def to_json_dict(self) -> dict:
        doc: dict = {"mode": self.mode}
        if self.mode == "random":
            doc.update(gamma=self.gamma, seed=self.seed, rounding=self.rounding)
        if self.mode == "per-germ":
            if self.eps_lambda is not None:
                doc["eps_lambda"] = self.eps_lambda
            doc["pairs_by_germ"] = {
                str(k): [list(p) for p in v] for k, v in sorted(self.pairs_by_germ.items())
            }
        return doc

    @staticmethod
    def from_json_dict(doc: dict) -> "FprPolicy":
        mode = doc["mode"]
        if mode == "per-germ":
            pairs = {
                int(k): tuple((int(a), int(b)) for a, b in v)
                for k, v in doc["pairs_by_germ"].items()
            }
            return FprPolicy(mode=mode, eps_lambda=doc.get("eps_lambda"), pairs_by_germ=pairs)
        if mode == "random":
            return FprPolicy(
                mode=mode,
                gamma=doc["gamma"],
                seed=doc["seed"],
                rounding=doc.get("rounding", "floor"),
            )
        return FprPolicy(mode="full")


@dataclass(frozen=True)
class Plaquette:
    germ_index: int
    max_depth: int
    power: int
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ExperimentDesign:
    prep_fiducials: tuple[Circuit, ...]
    meas_fiducials: tuple[Circuit, ...]
    germs: tuple[Circuit, ...]
    maxdepths: tuple[int, ...]
    fpr_policy: FprPolicy
    plaquettes: tuple[Plaquette, ...]
    circuits: tuple[Circuit, ...]
    # per-circuit smallest max depth at which the circuit enters the design
    buckets: tuple[int, ...]
    gateset_ref: str = ""
    provenance: dict[int, tuple[str, ...]] = field(default_factory=dict, compare=False)

    def circuits_up_to(self, max_depth: int) -> list[Circuit]:
        return [c for c, b in zip(self.circuits, self.buckets) if b <= max_depth]

    def to_json_dict(self) -> dict:
        return {
            "gateset_ref": self.gateset_ref,
            "fiducials": {
                "prep": [list(f.labels) for f in self.prep_fiducials],
                "meas": [list(f.labels) for f in self.meas_fiducials],
            },
            "germs": [list(g.labels) for g in self.germs],
            "maxdepths": list(self.maxdepths),
            "fpr_policy": self.fpr_policy.to_json_dict(),
            "plaquettes": [
                {
                    "germ": p.germ_index,
                    "L": p.max_depth,
                    "power": p.power,
                    "pairs": [list(q) for q in p.pairs],
                }
                for p in self.plaquettes
            ],
            "circuits": [{"labels": list(c.labels), "L": b} for c, b in zip(self.circuits, self.buckets)],
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "ExperimentDesign":
        """Parse a design document; raises :class:`DesignError` when keys are
        missing or malformed, or a circuit's bucket is not in ``maxdepths``."""
        try:
            design = ExperimentDesign(
                prep_fiducials=tuple(Circuit(tuple(f)) for f in doc["fiducials"]["prep"]),
                meas_fiducials=tuple(Circuit(tuple(f)) for f in doc["fiducials"]["meas"]),
                germs=tuple(Circuit(tuple(g)) for g in doc["germs"]),
                maxdepths=validate_schedule(doc["maxdepths"]),
                fpr_policy=FprPolicy.from_json_dict(doc["fpr_policy"]),
                plaquettes=tuple(
                    Plaquette(
                        germ_index=p["germ"],
                        max_depth=p["L"],
                        power=p["power"],
                        pairs=tuple((int(a), int(b)) for a, b in p["pairs"]),
                    )
                    for p in doc["plaquettes"]
                ),
                circuits=tuple(Circuit(tuple(c["labels"])) for c in doc["circuits"]),
                buckets=tuple(c["L"] for c in doc["circuits"]),
                gateset_ref=doc.get("gateset_ref", ""),
            )
            stray = sorted(set(design.buckets) - set(design.maxdepths))
        except DesignError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise DesignError(f"malformed design document ({type(exc).__name__}: {exc})") from None
        if stray:
            raise DesignError(f"circuit buckets {stray} are not in maxdepths {design.maxdepths}")
        return design

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json_dict(), f, indent=1, sort_keys=True)

    @staticmethod
    def load(path) -> "ExperimentDesign":
        """Read a design file; :class:`DesignError` when it is not valid JSON
        or not a valid design document."""
        with open(path) as f:
            try:
                doc = json.load(f)
            except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
                raise DesignError(f"not a JSON document ({exc})") from None
        return ExperimentDesign.from_json_dict(doc)

    def circuit_text(self) -> str:
        """Newline-delimited export, one space-separated label sequence per line."""
        return "\n".join(str(c) for c in self.circuits) + "\n"


def keep_count(gamma: float, n_pairs: int, rounding: str = "floor") -> int:
    """Retained pair count for random FPR; floor mode keeps at least one pair."""
    if not (0.0 < gamma <= 1.0):
        raise DesignError("gamma must lie in (0, 1]")
    if rounding == "floor":
        return max(1, int(np.floor(gamma * n_pairs)))
    if rounding == "ceil":
        return int(np.ceil(gamma * n_pairs))
    raise DesignError(f"unknown rounding {rounding!r}")


def random_pairs_for_plaquette(
    policy: FprPolicy, germ_index: int, max_depth: int, n_prep: int, n_meas: int
) -> tuple[tuple[int, int], ...]:
    n_pairs = n_prep * n_meas
    keep = keep_count(policy.gamma, n_pairs, policy.rounding)
    rng = np.random.default_rng(np.random.SeedSequence([int(policy.seed), germ_index, max_depth]))
    chosen = rng.choice(n_pairs, size=keep, replace=False)
    return tuple(sorted((int(k) // n_meas, int(k) % n_meas) for k in chosen))


def build_design(
    prep_fiducials,
    meas_fiducials,
    germs,
    maxdepths,
    fpr_policy: FprPolicy | None = None,
    gateset_labels=None,
    gateset_ref: str = "",
) -> ExperimentDesign:
    """Assemble the deduplicated circuit list of a GST experiment.

    ``gateset_labels`` supplies the bare gates of the LGST base layer; when
    omitted it defaults to the distinct labels appearing in germs and
    fiducials.  Plaquettes whose power repeats the previous depth's power
    for the same germ are skipped since their circuits already exist.
    """
    preps = tuple(prep_fiducials)
    meass = tuple(meas_fiducials)
    germs = tuple(germs)
    if not preps or not meass:
        raise DesignError("fiducial lists must be nonempty")
    sched = validate_schedule(maxdepths)
    policy = fpr_policy or FprPolicy()

    if gateset_labels is None:
        seen = {}
        for c in list(preps) + list(meass) + list(germs):
            for lab in c.labels:
                seen[lab] = True
        gateset_labels = tuple(seen)

    circuits: list[Circuit] = []
    buckets: list[int] = []
    provenance: dict[int, list[str]] = {}
    index_of: dict[tuple[str, ...], int] = {}

    def emit(circuit: Circuit, bucket: int, tag: str) -> None:
        idx = index_of.get(circuit.labels)
        if idx is None:
            idx = len(circuits)
            index_of[circuit.labels] = idx
            circuits.append(circuit)
            buckets.append(bucket)
            provenance[idx] = []
        provenance[idx].append(tag)

    base_bucket = sched[0]
    for j, fj in enumerate(preps):
        for i, hi in enumerate(meass):
            emit(fj + hi, base_bucket, f"base:{j},{i}")
    for k, lab in enumerate(gateset_labels):
        mid = Circuit((lab,))
        for j, fj in enumerate(preps):
            for i, hi in enumerate(meass):
                emit(fj + mid + hi, base_bucket, f"base:{lab}:{j},{i}")

    full_grid = tuple((j, i) for j in range(len(preps)) for i in range(len(meass)))
    plaquettes: list[Plaquette] = []
    for k, germ in enumerate(germs):
        prev_power = 0
        for depth in sched:
            power = germ_power(germ, depth)
            if power < 1 or power == prev_power:
                prev_power = power if power >= 1 else prev_power
                continue
            prev_power = power
            if policy.mode == "full":
                pairs = full_grid
            elif policy.mode == "per-germ":
                pairs = policy.pairs_by_germ.get(k)
                if not pairs:
                    raise DesignError(f"per-germ policy has no pairs for germ index {k}")
            else:
                pairs = random_pairs_for_plaquette(policy, k, depth, len(preps), len(meass))
            if not pairs:
                raise DesignError(f"empty fiducial-pair set for germ {k} at L={depth}")
            repeated = germ.repeated(power)
            for j, i in pairs:
                circ = Circuit(
                    preps[j].labels + repeated.labels + meass[i].labels,
                    structure=CircuitStructure(j, k, power, i),
                )
                emit(circ, depth, f"plaq:{k}@{depth}:{j},{i}")
            plaquettes.append(Plaquette(k, depth, power, tuple(pairs)))

    return ExperimentDesign(
        prep_fiducials=preps,
        meas_fiducials=meass,
        germs=germs,
        maxdepths=sched,
        fpr_policy=policy,
        plaquettes=tuple(plaquettes),
        circuits=tuple(circuits),
        buckets=tuple(buckets),
        gateset_ref=gateset_ref,
        provenance={k: tuple(v) for k, v in provenance.items()},
    )


def circuit_count(design: ExperimentDesign) -> int:
    return len(design.circuits)


def count_by_depth(design: ExperimentDesign) -> dict[int, int]:
    """Cumulative deduplicated circuit count at each scheduled max depth."""
    buckets = np.asarray(design.buckets)
    return {l: int(np.sum(buckets <= l)) for l in design.maxdepths}
