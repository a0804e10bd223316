"""Bundled target gate sets, fiducial lists and device parameter files.

The JSON assets under ``gstdesign/data`` are committed to the repository so
that selection, certification and wall-clock runs work offline; this module
both loads them and knows how to rebuild them (see
``scripts/make_builtin_assets.py``).
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .model import (
    Circuit,
    GateSet,
    density_to_statevec,
    effect_to_covec,
    unitary_to_ptm,
)

__all__ = [
    "BUILTIN_GATESETS",
    "BUILTIN_DEVICES",
    "make_xyi_gateset",
    "make_xycphase_gateset",
    "builtin_gateset",
    "builtin_device_doc",
    "builtin_fiducials",
    "standard_xyi_fiducials",
]

BUILTIN_GATESETS = ("xyi", "xycphase")
BUILTIN_DEVICES = ("transmons", "trapped_ions", "simos")

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def _rot(pauli: np.ndarray, angle: float) -> np.ndarray:
    """``expm(-i angle pauli / 2)`` in closed form, since ``pauli @ pauli = I``."""
    return np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * pauli


def _comp_basis_effects(num_qubits: int) -> list[np.ndarray]:
    d = 2**num_qubits
    effects = []
    for k in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[k, k] = 1.0
        effects.append(effect_to_covec(e))
    return effects


def make_xyi_gateset() -> GateSet:
    """Idle, X(pi/2) and Y(pi/2) with |0> prep and computational measurement."""
    rho0 = np.zeros((2, 2), dtype=complex)
    rho0[0, 0] = 1.0
    return GateSet(
        gates={
            "Gi": np.eye(4),
            "Gx": unitary_to_ptm(_rot(_SX, np.pi / 2)),
            "Gy": unitary_to_ptm(_rot(_SY, np.pi / 2)),
        },
        prep=density_to_statevec(rho0),
        effects=tuple(_comp_basis_effects(1)),
    )


def make_xycphase_gateset() -> GateSet:
    """Per-qubit X/Y(pi/2) plus CPHASE, |00> prep, computational measurement."""
    eye2 = np.eye(2, dtype=complex)
    ux = _rot(_SX, np.pi / 2)
    uy = _rot(_SY, np.pi / 2)
    ucz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    rho00 = np.zeros((4, 4), dtype=complex)
    rho00[0, 0] = 1.0
    return GateSet(
        gates={
            "Gxi": unitary_to_ptm(np.kron(ux, eye2)),
            "Gyi": unitary_to_ptm(np.kron(uy, eye2)),
            "Gix": unitary_to_ptm(np.kron(eye2, ux)),
            "Giy": unitary_to_ptm(np.kron(eye2, uy)),
            "Gcphase": unitary_to_ptm(ucz),
        },
        prep=density_to_statevec(rho00),
        effects=tuple(_comp_basis_effects(2)),
        two_qubit_labels=frozenset({"Gcphase"}),
    )


def standard_xyi_fiducials() -> list[Circuit]:
    """The six octahedral fiducials: {}, Gx, Gy, GxGx, GxGxGx, GyGyGy."""
    seqs = [(), ("Gx",), ("Gy",), ("Gx", "Gx"), ("Gx", "Gx", "Gx"), ("Gy", "Gy", "Gy")]
    return [Circuit(s) for s in seqs]


def _data_text(name: str) -> str:
    return resources.files("gstdesign.data").joinpath(name).read_text()


def builtin_gateset(name: str) -> GateSet:
    if name not in BUILTIN_GATESETS:
        raise KeyError(f"unknown builtin gate set {name!r}; have {BUILTIN_GATESETS}")
    return GateSet.from_json_dict(json.loads(_data_text(f"{name}.json")))


def builtin_device_doc(name: str) -> dict:
    if name not in BUILTIN_DEVICES:
        raise KeyError(f"unknown builtin device {name!r}; have {BUILTIN_DEVICES}")
    return json.loads(_data_text(f"devices/{name}.json"))


def builtin_fiducials(gateset_name: str, kind: str) -> list[Circuit]:
    """Bundled prep/meas fiducial list for a builtin gate set."""
    if kind not in ("prep", "meas"):
        raise ValueError("kind must be 'prep' or 'meas'")
    doc = json.loads(_data_text(f"fiducials_{gateset_name}.json"))
    return [Circuit(tuple(labels)) for labels in doc[kind]]
