#!/usr/bin/env python3
"""Regenerate the JSON assets bundled under src/gstdesign/data.

Gate sets are built from exact unitaries; the two-qubit fiducial lists are
frozen output of the greedy selector over per-qubit patterns so they stay
reproducible; device parameter files hold representative published hardware
numbers.  Run from the repository root:

    python3 scripts/make_builtin_assets.py
"""

import json
import pathlib

from gstdesign.builtins import (
    make_xycphase_gateset,
    make_xyi_gateset,
    standard_xyi_fiducials,
)
from gstdesign.fiducials import per_qubit_pattern_pool, qubit_gate_pairs, select_fiducials

DATA = pathlib.Path(__file__).resolve().parent.parent / "src" / "gstdesign" / "data"

DEVICES = {
    "transmons": {
        "name": "transmons",
        "t_1q": 20e-9,
        "t_2q": 200e-9,
        "t_measure_reset": 1e-6,
        "t_latency": 1.0,
        "circuits_per_batch": 100,
        "shots_per_circuit_per_batch": 100,
    },
    "trapped_ions": {
        "name": "trapped_ions",
        "t_1q": 10e-6,
        "t_2q": 200e-6,
        "t_measure_reset": 3.5e-3,
        "t_latency": 1.0,
        "circuits_per_batch": 200,
        "shots_per_circuit_per_batch": 100,
    },
    "simos": {
        "name": "simos",
        "t_1q": 0.5e-6,
        "t_2q": 1e-6,
        "t_measure_reset": 200e-6,
        "t_latency": 300.0,
        "circuits_per_batch": 2500,
        "shots_per_circuit_per_batch": 100,
    },
}


def dump(path: pathlib.Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {path}")


def main() -> None:
    xyi = make_xyi_gateset()
    dump(DATA / "xyi.json", xyi.to_json_dict())
    xycphase = make_xycphase_gateset()
    dump(DATA / "xycphase.json", xycphase.to_json_dict())

    fids_1q = standard_xyi_fiducials()
    dump(
        DATA / "fiducials_xyi.json",
        {
            "prep": [list(c.labels) for c in fids_1q],
            "meas": [list(c.labels) for c in fids_1q],
        },
    )

    # a 5% relative-improvement bar keeps the two-qubit lists compact
    # (18 preps / 8 meas) while staying informationally complete
    pool = per_qubit_pattern_pool(*qubit_gate_pairs(xycphase))
    preps = select_fiducials(xycphase, pool, "prep", rel_improvement=0.05)
    meass = select_fiducials(xycphase, pool, "meas", rel_improvement=0.05)
    dump(
        DATA / "fiducials_xycphase.json",
        {
            "prep": [list(c.labels) for c in preps],
            "meas": [list(c.labels) for c in meass],
        },
    )

    for name, doc in DEVICES.items():
        dump(DATA / "devices" / f"{name}.json", doc)


if __name__ == "__main__":
    main()
