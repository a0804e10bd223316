"""Plaquette-structured circuit lists for GST experiments.

A design is the LGST base layer (``F_j H_i`` and ``F_j G_k H_i`` for every
bare gate) plus one plaquette per (germ, max depth) holding the retained
fiducial pairs; every plaquette circuit is ``F_j g_k^p H_i`` with the germ
power ``p`` the largest repetition count that fits inside the depth limit.
:func:`plaquettes` is the one place that decides which plaquettes exist and
which pairs they keep, :func:`plaquette_circuits` the one place that
expands a plaquette into circuits, :attr:`ExperimentDesign.pair_index`
the one map from plaquette pairs to circuits, and :func:`design_bodies`
the one walk over them: simulation (:func:`design_probabilities`) and
certification (:func:`gstdesign.fisher.bucket_jacobians`) walk its
bodies, give each circuit to the first body that reaches it, and walk
the circuits no body reaches one at a time.  Circuits are deduplicated
on their exact label sequence and each unique circuit is bucketed at the
smallest max depth at which it appears, which is what the
Fisher-information series consume.

Loading a design checks it against its plaquettes: the stored (germ, L,
power) list must be the one :func:`plaquettes` gives for the stored germs,
schedule and policy; every plaquette's pairs must be distinct, inside the
fiducial grid and equal to the policy's pairs (for a random policy, only
their count is checked, since numpy does not promise the same random
stream across versions); no circuit may be listed twice; and every
plaquette circuit must be present with a bucket no deeper than its
plaquette's ``L``.  Circuit order is free.  A plaquette whose germ power is
longer than every listed circuit is reported missing without expanding it.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .model import (
    Circuit,
    GateSet,
    circuits_probabilities,
    fiducial_outcomes,
    require_labels,
    write_json,
)

__all__ = [
    "DesignError",
    "FprPolicy",
    "Plaquette",
    "ExperimentDesign",
    "default_schedule",
    "validate_schedule",
    "germ_power",
    "plaquettes",
    "plaquette_circuits",
    "build_design",
    "design_probabilities",
    "design_bodies",
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
            pairs = {int(k): tuple((int(a), int(b)) for a, b in v) for k, v in doc["pairs_by_germ"].items()}
            return FprPolicy(mode=mode, eps_lambda=doc.get("eps_lambda"), pairs_by_germ=pairs)
        if mode == "random":
            return FprPolicy(mode=mode, gamma=doc["gamma"], seed=doc["seed"], rounding=doc.get("rounding", "floor"))
        return FprPolicy(mode=mode)

    def pairs(self, germ_index: int, max_depth: int, n_prep: int, n_meas: int) -> tuple[tuple[int, int], ...]:
        """The (prep, meas) index pairs the (germ, max depth) plaquette keeps."""
        if self.mode == "full":
            return tuple((j, i) for j in range(n_prep) for i in range(n_meas))
        if self.mode == "per-germ":
            pairs = self.pairs_by_germ.get(germ_index)
            if not pairs:
                raise DesignError(f"per-germ policy has no pairs for germ index {germ_index}")
            return tuple(pairs)
        n_pairs = n_prep * n_meas
        keep = keep_count(self.gamma, n_pairs, self.rounding)
        rng = np.random.default_rng(np.random.SeedSequence([int(self.seed), germ_index, max_depth]))
        chosen = rng.choice(n_pairs, size=keep, replace=False)
        return tuple(sorted((int(k) // n_meas, int(k) % n_meas) for k in chosen))


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
                {"germ": p.germ_index, "L": p.max_depth, "power": p.power, "pairs": [list(q) for q in p.pairs]}
                for p in self.plaquettes
            ],
            "circuits": [{"labels": list(c.labels), "L": b} for c, b in zip(self.circuits, self.buckets)],
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "ExperimentDesign":
        """Parse a design document; raises :class:`DesignError` when keys are
        missing or malformed, a circuit's bucket is not in ``maxdepths``, or
        the circuits do not match the plaquettes (see the module docstring)."""
        try:
            design = ExperimentDesign(
                prep_fiducials=tuple(Circuit(tuple(f)) for f in doc["fiducials"]["prep"]),
                meas_fiducials=tuple(Circuit(tuple(f)) for f in doc["fiducials"]["meas"]),
                germs=tuple(Circuit(tuple(g)) for g in doc["germs"]),
                maxdepths=validate_schedule(doc["maxdepths"]),
                fpr_policy=FprPolicy.from_json_dict(doc["fpr_policy"]),
                plaquettes=tuple(
                    Plaquette(p["germ"], p["L"], p["power"], tuple((int(a), int(b)) for a, b in p["pairs"]))
                    for p in doc["plaquettes"]
                ),
                circuits=tuple(Circuit(tuple(c["labels"])) for c in doc["circuits"]),
                buckets=tuple(c["L"] for c in doc["circuits"]),
                gateset_ref=doc.get("gateset_ref", ""),
            )
            stray = sorted(set(design.buckets) - set(design.maxdepths))
            if stray:
                raise DesignError(f"circuit buckets {stray} are not in maxdepths {design.maxdepths}")
            _check_plaquettes(design)
        except DesignError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise DesignError(f"malformed design document ({type(exc).__name__}: {exc})") from None
        return design

    def save(self, path) -> None:
        write_json(path, self.to_json_dict())

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

    @functools.cached_property
    def _index_of(self) -> dict[tuple[str, ...], int]:
        """The index in ``circuits`` of each circuit's label sequence."""
        return {c.labels: n for n, c in enumerate(self.circuits)}

    @functools.cached_property
    def pair_index(self) -> tuple[tuple[int, ...], ...]:
        """For each plaquette, the index in ``circuits`` of each kept pair's
        circuit ``F_j g^p H_i``, or -1 where the design lacks that circuit:
        the one map from plaquette pairs to circuits.  A plaquette whose
        germ power alone is longer than the longest listed circuit lacks
        every circuit, and none of its circuits is built."""
        index_of = self._index_of
        longest = max(map(len, self.circuits), default=0)

        def indices(p: Plaquette) -> tuple[int, ...]:
            germ = self.germs[p.germ_index]
            if len(germ) * p.power > longest:
                return (-1,) * len(p.pairs)
            circuits = plaquette_circuits(self.prep_fiducials, self.meas_fiducials, germ, p)
            return tuple(index_of.get(c.labels, -1) for c in circuits)

        return tuple(map(indices, self.plaquettes))

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


def plaquettes(germs, maxdepths, policy: FprPolicy, n_prep: int, n_meas: int) -> tuple[Plaquette, ...]:
    """The plaquettes of a design, germ by germ in schedule order.

    One plaquette per (germ, max depth) whose germ power is at least 1 and
    differs from that germ's power at the previous depth (a repeated power
    would repeat the previous plaquette's circuits); each holds the pairs
    ``policy`` keeps.
    """
    out = []
    for k, germ in enumerate(germs):
        prev_power = 0
        for depth in maxdepths:
            power = germ_power(germ, depth)
            if power >= 1 and power != prev_power:
                out.append(Plaquette(k, depth, power, policy.pairs(k, depth, n_prep, n_meas)))
                prev_power = power
    return tuple(out)


def plaquette_circuits(preps, meass, germ: Circuit, plaquette: Plaquette) -> list[Circuit]:
    """The circuits ``F_j g^p H_i`` of ``plaquette``, in pair order."""
    body = germ.labels * plaquette.power
    return [Circuit(preps[j].labels + body + meass[i].labels) for j, i in plaquette.pairs]


def _check_plaquettes(design: ExperimentDesign) -> None:
    """Raise :class:`DesignError` unless the circuits of ``design`` match its
    plaquettes and the plaquettes match its germs, schedule and policy."""
    preps, meass, policy = design.prep_fiducials, design.meas_fiducials, design.fpr_policy
    expected = plaquettes(design.germs, design.maxdepths, policy, len(preps), len(meass))
    have = [(p.germ_index, p.max_depth, p.power) for p in design.plaquettes]
    want = [(p.germ_index, p.max_depth, p.power) for p in expected]
    for n, (h, w) in enumerate(itertools.zip_longest(have, want)):
        if h != w:
            raise DesignError(
                f"plaquette {n} is (germ, L, power) {h}, but the germs, maxdepths and fpr_policy give {w}"
            )
    if len({c.labels for c in design.circuits}) != len(design.circuits):
        raise DesignError("a circuit is listed more than once")
    for p, e in zip(design.plaquettes, expected):
        where = f"plaquette (germ {p.germ_index}, L={p.max_depth})"
        if len(set(p.pairs)) != len(p.pairs):
            raise DesignError(f"{where} repeats a fiducial pair")
        if not all(0 <= j < len(preps) and 0 <= i < len(meass) for j, i in p.pairs):
            raise DesignError(f"{where} has a pair outside the {len(preps)}x{len(meass)} fiducial grid")
        same = len(p.pairs) == len(e.pairs) if policy.mode == "random" else p.pairs == e.pairs
        if not same:
            raise DesignError(f"{where} does not keep the pairs of its {policy.mode!r} fpr_policy")
    for p, indices in zip(design.plaquettes, design.pair_index):
        where = f"plaquette (germ {p.germ_index}, L={p.max_depth})"
        for (j, i), idx in zip(p.pairs, indices):
            if idx < 0 or design.buckets[idx] > p.max_depth:
                state = "missing" if idx < 0 else f"bucketed at L={design.buckets[idx]}"
                length = len(preps[j]) + len(design.germs[p.germ_index]) * p.power + len(meass[i])
                raise DesignError(f"{where}: the circuit of pair {(j, i)}, {length} labels long, is {state}")


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
    fiducials.  The plaquettes are those of :func:`plaquettes`.
    """
    preps = tuple(prep_fiducials)
    meass = tuple(meas_fiducials)
    germs = tuple(germs)
    if not preps or not meass:
        raise DesignError("fiducial lists must be nonempty")
    sched = validate_schedule(maxdepths)
    policy = fpr_policy or FprPolicy()
    if gateset_labels is None:
        gateset_labels = tuple(dict.fromkeys(lab for c in preps + meass + germs for lab in c.labels))

    circuits: list[Circuit] = []
    buckets: list[int] = []
    index_of: dict[tuple[str, ...], int] = {}

    def emit(circuit: Circuit, bucket: int) -> None:
        idx = index_of.get(circuit.labels)
        if idx is None:
            index_of[circuit.labels] = len(circuits)
            circuits.append(circuit)
            buckets.append(bucket)
        elif bucket < buckets[idx]:
            buckets[idx] = bucket

    for mid in [Circuit(())] + [Circuit((lab,)) for lab in gateset_labels]:
        for fj in preps:
            for hi in meass:
                emit(fj + mid + hi, sched[0])
    plaqs = plaquettes(germs, sched, policy, len(preps), len(meass))
    for p in plaqs:
        for circuit in plaquette_circuits(preps, meass, germs[p.germ_index], p):
            emit(circuit, p.max_depth)

    return ExperimentDesign(
        prep_fiducials=preps,
        meas_fiducials=meass,
        germs=germs,
        maxdepths=sched,
        fpr_policy=policy,
        plaquettes=plaqs,
        circuits=tuple(circuits),
        buckets=tuple(buckets),
        gateset_ref=gateset_ref,
    )


def design_probabilities(gs: GateSet, design: ExperimentDesign) -> np.ndarray:
    """Outcome probabilities of the circuits of ``design``, in circuit
    order.  Labels are checked first: the circuits' in circuit order, then
    the fiducials' and germs'.  The bodies of :func:`design_bodies` take
    one block walk (:func:`~gstdesign.model.fiducial_outcomes`), and each
    body's outcomes go to the circuits it owns; they equal the one-circuit
    reference to rounding (the tests bound it by ``4e-15``).  The circuits
    no body reaches take :func:`~gstdesign.model.circuits_probabilities`."""
    circuits = design.circuits
    structure = design.prep_fiducials + design.meas_fiducials + design.germs
    require_labels(gs, [c.labels for c in circuits + structure])
    probs = np.zeros((len(circuits), gs.num_effects))
    bodies, rest = design_bodies(design, gs.labels)
    for n, outcomes in fiducial_outcomes(gs, design.prep_fiducials, design.meas_fiducials, [b for b, _ in bodies]):
        for j, i, idx in bodies[n][1]:
            probs[idx] = outcomes[i, :, j]
    probs[rest] = circuits_probabilities(gs, [circuits[k] for k in rest])
    return probs


def design_bodies(design: ExperimentDesign, labels) -> tuple[list, list[int]]:
    """The bodies of ``design`` in walk order, each as ``(body, owned)``,
    and the indices of the circuits no body reaches.

    A body is a label sequence that circuits ``F_j body H_i`` share.  Walk
    order is the base layer's bodies, the empty one and then each of the
    gate ``labels``, over the whole fiducial grid, followed by each
    plaquette's germ power over its pairs (through
    :attr:`ExperimentDesign.pair_index`).  ``owned`` lists ``(j, i, n)``
    for each pair ``(j, i)`` whose circuit ``F_j body H_i`` is
    ``circuits[n]``, in walk order.  A circuit two bodies reach is owned by
    the first one in walk order, a body met twice is one body, and a body
    that owns no circuit is left out; none of this depends on the order of
    ``circuits``.
    """
    preps, meass = design.prep_fiducials, design.meas_fiducials
    grid = [(j, i) for j in range(len(preps)) for i in range(len(meass))]
    walk = [
        (mid, grid, [design._index_of.get(preps[j].labels + mid + meass[i].labels, -1) for j, i in grid])
        for mid in [()] + [(label,) for label in labels]
    ]
    walk += [
        (design.germs[p.germ_index].labels * p.power, p.pairs, indices)
        for p, indices in zip(design.plaquettes, design.pair_index)
    ]
    reached = np.zeros(len(design.circuits), dtype=bool)
    bodies: dict[tuple[str, ...], list[tuple[int, int, int]]] = {}
    for body, pairs, indices in walk:
        for (j, i), n in zip(pairs, indices):
            if n >= 0 and not reached[n]:
                reached[n] = True
                bodies.setdefault(body, []).append((j, i, n))
    return list(bodies.items()), np.flatnonzero(~reached).tolist()


def count_by_depth(design: ExperimentDesign) -> dict[int, int]:
    """Cumulative deduplicated circuit count at each scheduled max depth."""
    buckets = np.asarray(design.buckets)
    return {l: int(np.sum(buckets <= l)) for l in design.maxdepths}
