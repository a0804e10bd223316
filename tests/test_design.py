import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gstdesign import design as D
from gstdesign.builtins import standard_xyi_fiducials
from gstdesign.model import Circuit

GERMS = [
    Circuit(("Gi",)),
    Circuit(("Gx",)),
    Circuit(("Gy",)),
    Circuit(("Gx", "Gy")),
    Circuit(("Gx", "Gx", "Gy")),
]


def test_germ_power_examples():
    assert D.germ_power(Circuit(("Gx",) * 3), 8) == 2
    assert D.germ_power(Circuit(("Gx",)), 1024) == 1024
    assert D.germ_power(Circuit(("Gx",) * 5), 4) == 0


@given(st.integers(1, 12), st.integers(1, 4096))
def test_germ_power_is_largest_fit(depth, max_depth):
    p = D.germ_power(Circuit(("Gx",) * depth), max_depth)
    assert depth * p <= max_depth
    assert depth * (p + 1) > max_depth


def test_schedule_validation():
    assert D.default_schedule(8) == (1, 2, 4, 8)
    with pytest.raises(D.DesignError):
        D.validate_schedule([4, 2])
    with pytest.raises(D.DesignError):
        D.validate_schedule([0, 1])


def test_full_policy_plaquettes_have_36_pairs(xyi, xyi_fiducials):
    des = D.build_design(
        xyi_fiducials, xyi_fiducials, GERMS, D.default_schedule(64), gateset_labels=xyi.labels
    )
    assert all(len(p.pairs) == 36 for p in des.plaquettes)


def test_empty_germ_list_gives_base_only(xyi, xyi_fiducials):
    des = D.build_design(
        xyi_fiducials, xyi_fiducials, [], D.default_schedule(8), gateset_labels=xyi.labels
    )
    # base layer: F H plus F G_k H for three gates, deduplicated
    assert des.plaquettes == ()
    assert 36 < D.circuit_count(des) <= 36 * 4
    assert all(b == 1 for b in des.buckets)


def test_random_gamma_one_equals_full(xyi, xyi_fiducials):
    full = D.build_design(
        xyi_fiducials, xyi_fiducials, GERMS, D.default_schedule(32), gateset_labels=xyi.labels
    )
    rand = D.build_design(
        xyi_fiducials,
        xyi_fiducials,
        GERMS,
        D.default_schedule(32),
        D.FprPolicy(mode="random", gamma=1.0, seed=5),
        gateset_labels=xyi.labels,
    )
    assert rand.circuits == full.circuits
    assert rand.buckets == full.buckets


def test_seed_determinism_byte_identical(xyi, xyi_fiducials):
    docs = []
    for _ in range(2):
        des = D.build_design(
            xyi_fiducials,
            xyi_fiducials,
            GERMS,
            D.default_schedule(64),
            D.FprPolicy(mode="random", gamma=0.125, seed=7),
            gateset_labels=xyi.labels,
        )
        docs.append(json.dumps(des.to_json_dict(), sort_keys=True))
    assert docs[0] == docs[1]


def test_counts_monotone_in_lmax(xyi, xyi_fiducials):
    prev = 0
    for lmax in (1, 2, 4, 8, 16, 32, 64, 128):
        des = D.build_design(
            xyi_fiducials, xyi_fiducials, GERMS, D.default_schedule(lmax), gateset_labels=xyi.labels
        )
        count = D.circuit_count(des)
        assert count >= prev
        prev = count


def test_count_by_depth_cumulative(xyi, xyi_fiducials):
    des = D.build_design(
        xyi_fiducials, xyi_fiducials, GERMS, D.default_schedule(64), gateset_labels=xyi.labels
    )
    counts = D.count_by_depth(des)
    values = list(counts.values())
    assert values == sorted(values)
    assert values[-1] == D.circuit_count(des)


def test_plaquette_contributes_at_most_grid_size(xyi, xyi_fiducials):
    sched = D.default_schedule(64)
    prev_counts = None
    for lmax in sched:
        des = D.build_design(
            xyi_fiducials, xyi_fiducials, GERMS, D.default_schedule(lmax), gateset_labels=xyi.labels
        )
        count = D.circuit_count(des)
        if prev_counts is not None:
            assert count - prev_counts <= len(GERMS) * 36
        prev_counts = count


def test_nesting(xyi, xyi_fiducials):
    big = D.build_design(
        xyi_fiducials, xyi_fiducials, GERMS, D.default_schedule(128), gateset_labels=xyi.labels
    )
    small = D.build_design(
        xyi_fiducials, xyi_fiducials, GERMS, D.default_schedule(64), gateset_labels=xyi.labels
    )
    big_set = set(c.labels for c in big.circuits)
    assert all(c.labels in big_set for c in small.circuits)

    # random FPR also nests: plaquette draws key on (germ, depth), not position
    pol = D.FprPolicy(mode="random", gamma=0.25, seed=9)
    bigr = D.build_design(
        xyi_fiducials, xyi_fiducials, GERMS, D.default_schedule(128), pol, gateset_labels=xyi.labels
    )
    smallr = D.build_design(
        xyi_fiducials, xyi_fiducials, GERMS, D.default_schedule(64), pol, gateset_labels=xyi.labels
    )
    bigr_set = set(c.labels for c in bigr.circuits)
    assert all(c.labels in bigr_set for c in smallr.circuits)


def test_serialization_roundtrip_preserves_counts(xyi, xyi_fiducials, tmp_path):
    des = D.build_design(
        xyi_fiducials,
        xyi_fiducials,
        GERMS,
        D.default_schedule(64),
        D.FprPolicy(mode="random", gamma=0.5, seed=3),
        gateset_labels=xyi.labels,
    )
    path = tmp_path / "design.json"
    des.save(path)
    loaded = D.ExperimentDesign.load(path)
    assert loaded.circuits == des.circuits
    assert loaded.buckets == des.buckets
    assert D.count_by_depth(loaded) == D.count_by_depth(des)
    assert loaded.fpr_policy == des.fpr_policy


def test_random_policy_retains_exact_keep_count(xyi, xyi_fiducials):
    pol = D.FprPolicy(mode="random", gamma=0.125, seed=21)
    des = D.build_design(
        xyi_fiducials, xyi_fiducials, GERMS, D.default_schedule(64), pol, gateset_labels=xyi.labels
    )
    keep = D.keep_count(0.125, 36)
    assert all(len(p.pairs) == keep for p in des.plaquettes)


def test_circuit_text_roundtrip(xyi, xyi_fiducials):
    des = D.build_design(
        xyi_fiducials, xyi_fiducials, GERMS, D.default_schedule(4), gateset_labels=xyi.labels
    )
    lines = des.circuit_text().splitlines()
    assert len(lines) == D.circuit_count(des)
    parsed = [Circuit.from_str(line) for line in lines]
    assert tuple(parsed) == des.circuits


def test_deep_design_skips_oversized_germs(xyi, xyi_fiducials):
    germ = Circuit(("Gx", "Gy", "Gx", "Gy", "Gi"))  # depth 5
    des = D.build_design(
        xyi_fiducials, xyi_fiducials, [germ], D.default_schedule(4), gateset_labels=xyi.labels
    )
    assert des.plaquettes == ()  # power 0 everywhere: plaquettes omitted


def test_power_repeat_plaquettes_skipped(xyi, xyi_fiducials):
    germ = Circuit(("Gx", "Gy", "Gi"))  # depth 3
    des = D.build_design(
        xyi_fiducials, xyi_fiducials, [germ], (3, 4, 6), gateset_labels=xyi.labels
    )
    # powers at L=3,4,6 are 1,1,2: the L=4 plaquette duplicates L=3 and is skipped
    assert [(p.max_depth, p.power) for p in des.plaquettes] == [(3, 1), (6, 2)]


def test_shared_circuit_is_bucketed_at_its_smallest_depth(xyi, xyi_fiducials):
    # F_0 (Gx Gx Gx Gy Gy) H_1 of germ 2's L=8 plaquette is also
    # F_3 (Gx Gy Gy) H_1 of germ 3's L=4 plaquette
    germs = [Circuit(g.split()) for g in ("Gi", "Gx Gx Gy", "Gx Gx Gx Gy Gy", "Gx Gy Gy")]
    des = D.build_design(
        xyi_fiducials, xyi_fiducials, germs, D.default_schedule(8), gateset_labels=xyi.labels
    )
    buckets = dict(zip(des.circuits, des.buckets))
    assert buckets[Circuit("Gx Gx Gx Gy Gy Gx".split())] == 4
    for p in des.plaquettes:
        circuits = D.plaquette_circuits(xyi_fiducials, xyi_fiducials, germs[p.germ_index], p)
        assert all(buckets[c] <= p.max_depth for c in circuits)


def test_circuit_order_is_free_on_load(xyi, xyi_fiducials):
    des = D.build_design(
        xyi_fiducials, xyi_fiducials, GERMS, D.default_schedule(16),
        D.FprPolicy(mode="random", gamma=0.25, seed=2), gateset_labels=xyi.labels,
    )
    doc = des.to_json_dict()
    doc["circuits"].reverse()
    loaded = D.ExperimentDesign.from_json_dict(doc)
    assert dict(zip(loaded.circuits, loaded.buckets)) == dict(zip(des.circuits, des.buckets))


def test_pair_index_points_each_pair_at_its_circuit(xyi, xyi_fiducials):
    import dataclasses

    des = D.build_design(
        xyi_fiducials, xyi_fiducials, GERMS, D.default_schedule(16),
        D.FprPolicy(mode="random", gamma=0.25, seed=2), gateset_labels=xyi.labels,
    )
    assert len(des.pair_index) == len(des.plaquettes)
    for p, indices in zip(des.plaquettes, des.pair_index):
        circuits = D.plaquette_circuits(xyi_fiducials, xyi_fiducials, GERMS[p.germ_index], p)
        assert [des.circuits[idx] for idx in indices] == circuits
    # a design without the last circuit lacks it, and the pair that names it reads -1
    dropped = dataclasses.replace(des, circuits=des.circuits[:-1], buckets=des.buckets[:-1])
    last = len(des.circuits) - 1
    assert any(last in row for row in des.pair_index)
    assert [[-1 if idx == last else idx for idx in row] for row in des.pair_index] == [
        list(row) for row in dropped.pair_index
    ]


FIDUCIALS = standard_xyi_fiducials()
LABELS = ("Gi", "Gx", "Gy")
germ_lists = st.lists(
    st.lists(st.sampled_from(LABELS), min_size=1, max_size=4).map(Circuit), max_size=4
)
schedules = st.sets(st.integers(1, 24), min_size=1, max_size=5).map(sorted)


@st.composite
def design_inputs(draw):
    preps = FIDUCIALS[: draw(st.integers(1, 4))]
    meass = FIDUCIALS[-draw(st.integers(1, 4)) :]
    germs = draw(germ_lists)
    grid = [(j, i) for j in range(len(preps)) for i in range(len(meass))]
    mode = draw(st.sampled_from(["full", "random", "per-germ"]))
    if mode == "random":
        policy = D.FprPolicy(
            mode="random",
            gamma=draw(st.floats(0.01, 1.0)),
            seed=draw(st.integers(0, 2**31)),
            rounding=draw(st.sampled_from(["floor", "ceil"])),
        )
    elif mode == "per-germ":
        pairs = st.lists(st.sampled_from(grid), min_size=1, unique=True).map(tuple)
        policy = D.FprPolicy(
            mode="per-germ", pairs_by_germ={k: draw(pairs) for k in range(max(1, len(germs)))}
        )
    else:
        policy = D.FprPolicy()
    return preps, meass, germs, draw(schedules), policy


@given(design_inputs())
def test_save_load_preserves_design(inputs):
    preps, meass, germs, sched, policy = inputs
    des = D.build_design(preps, meass, germs, sched, policy, gateset_labels=LABELS)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "design.json")
        des.save(path)
        loaded = D.ExperimentDesign.load(path)
    assert loaded.circuits == des.circuits
    assert loaded.buckets == des.buckets
    assert loaded.plaquettes == des.plaquettes
    assert loaded.fpr_policy == des.fpr_policy


@given(germ_lists, schedules)
def test_random_fpr_gives_the_design_plaquettes(germs, sched):
    policy = D.FprPolicy(mode="random", gamma=0.25, seed=1)
    des = D.build_design(FIDUCIALS, FIDUCIALS, germs, sched, policy)
    plaqs = D.plaquettes(germs, sched, policy, len(FIDUCIALS), len(FIDUCIALS))
    pairs = {(p.germ_index, p.max_depth): p.pairs for p in plaqs}
    assert pairs == {(p.germ_index, p.max_depth): p.pairs for p in des.plaquettes}
