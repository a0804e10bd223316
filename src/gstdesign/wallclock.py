"""Wall-clock cost model for running an experiment design on hardware.

Execution time charges every shot of every circuit a measure/reset period
plus one period per layer, where a layer costs the two-qubit gate time if
any of its components is a two-qubit gate and the one-qubit time otherwise
(GST circuits are serial label sequences, so each label is one layer).
Upload time charges the interbatch latency once per (batch of circuits) x
(round of shots).  Total wall time is the sum of the two.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

from .design import ExperimentDesign

__all__ = [
    "DeviceParams",
    "circuit_exec_time",
    "upload_time",
    "estimate",
]


@dataclass(frozen=True)
class DeviceParams:
    name: str
    t_1q: float
    t_2q: float
    t_measure_reset: float
    t_latency: float
    circuits_per_batch: int
    shots_per_circuit_per_batch: int

    def __post_init__(self):
        for field_name in (
            "t_1q",
            "t_2q",
            "t_measure_reset",
            "t_latency",
            "circuits_per_batch",
            "shots_per_circuit_per_batch",
        ):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"device parameter {field_name} must be positive")

    @staticmethod
    def from_json_dict(doc: dict) -> "DeviceParams":
        return DeviceParams(
            name=doc.get("name", "device"),
            t_1q=float(doc["t_1q"]),
            t_2q=float(doc["t_2q"]),
            t_measure_reset=float(doc["t_measure_reset"]),
            t_latency=float(doc["t_latency"]),
            circuits_per_batch=int(doc["circuits_per_batch"]),
            shots_per_circuit_per_batch=int(doc["shots_per_circuit_per_batch"]),
        )

    @staticmethod
    def load(path) -> "DeviceParams":
        with open(path) as f:
            return DeviceParams.from_json_dict(json.load(f))


def circuit_exec_time(circuits, n_shots: int, dev: DeviceParams, two_qubit_labels=frozenset()) -> float:
    """Total execution seconds for explicit circuits (exact layer accounting).

    Computed from label totals, ``n_shots * (N t_measure_reset + n_1q t_1q +
    n_2q t_2q)`` over ``N`` circuits holding ``n_1q`` one-qubit and ``n_2q``
    two-qubit labels; both counts run in C (``len`` and ``tuple.count``).
    """
    sequences = [c.labels for c in circuits]
    n_labels = sum(map(len, sequences))
    n_2q = sum(sum(map(tuple.count, sequences, itertools.repeat(lab))) for lab in frozenset(two_qubit_labels))
    return n_shots * (
        len(sequences) * dev.t_measure_reset + (n_labels - n_2q) * dev.t_1q + n_2q * dev.t_2q
    )


def upload_time(n_circuits: int, n_shots: int, dev: DeviceParams) -> float:
    """Latency per batch times the number of batches and shot rounds."""
    if n_shots <= 0:
        raise ValueError("n_shots must be positive")
    batches = math.ceil(n_circuits / dev.circuits_per_batch)
    rounds = math.ceil(n_shots / dev.shots_per_circuit_per_batch)
    return dev.t_latency * batches * rounds


def _approx_exec_time(
    n_circuits: int, n_shots: int, dev: DeviceParams, mean_depth: float, two_qubit_fraction: float
) -> float:
    layer = two_qubit_fraction * dev.t_2q + (1.0 - two_qubit_fraction) * dev.t_1q
    return n_circuits * n_shots * (dev.t_measure_reset + mean_depth * layer)


def estimate(
    design_or_counts,
    n_shots: int,
    dev: DeviceParams,
    two_qubit_labels=None,
    mean_depth: float = 0.0,
    two_qubit_fraction: float = 0.0,
) -> dict:
    """Wall-clock report {T_c, T_u, total, ...} for a design or a count.

    With an :class:`ExperimentDesign` the layer accounting is exact.  With
    a bare circuit count the execution time is approximate and the report
    records the assumed mean depth and two-qubit layer fraction.
    """
    if isinstance(design_or_counts, ExperimentDesign):
        design = design_or_counts
        labels = frozenset(two_qubit_labels or ())
        n_circ = len(design.circuits)
        t_c = circuit_exec_time(design.circuits, n_shots, dev, labels)
        mode = "exact"
        assumptions = {}
    else:
        n_circ = int(design_or_counts)
        t_c = _approx_exec_time(n_circ, n_shots, dev, mean_depth, two_qubit_fraction)
        mode = "approximate"
        assumptions = {"mean_depth": mean_depth, "two_qubit_fraction": two_qubit_fraction}
    t_u = upload_time(n_circ, n_shots, dev)
    return {
        "device": dev.name,
        "n_circuits": n_circ,
        "n_shots": n_shots,
        "T_c": t_c,
        "T_u": t_u,
        "total": t_c + t_u,
        "mode": mode,
        **assumptions,
    }
