import json
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from gstdesign import noise as N
from gstdesign.builtins import builtin_gateset, make_xycphase_gateset
from gstdesign.fisher import default_eval_model
from gstdesign.model import (
    Circuit,
    GateSet,
    circuit_probabilities,
    circuits_probabilities,
    hamiltonian_generator_ptms,
)


def test_zero_noise_returns_target_exactly(xyi):
    out = N.sample_noisy_gateset(xyi, N.NoiseSpec("coherent-only", 0.0, 0.0, 1))
    assert out is xyi


def same_operations(a, b):
    """Equal gates under each label and equal SPAM, entry for entry."""
    return (
        a.gates.keys() == b.gates.keys()
        and all(np.array_equal(a.gates[label], b.gates[label]) for label in a.gates)
        and np.array_equal(a.prep, b.prep)
        and all(np.array_equal(x, y) for x, y in zip(a.effects, b.effects, strict=True))
    )


def test_noisy_models_do_not_depend_on_gate_order(tmp_path):
    built, bundled = make_xycphase_gateset(), builtin_gateset("xycphase")
    # the builder lists the gates as Gxi, Gyi, Gix, Giy, Gcphase, and a saved
    # gate set loads them sorted
    assert list(built.gates) != sorted(built.gates) and list(bundled.gates) == sorted(built.gates)
    assert same_operations(built, bundled)
    built.save(tmp_path / "xycphase.json")
    loaded = GateSet.load(tmp_path / "xycphase.json")
    spec = N.NoiseSpec("coherent-depol", 1e-2, 1e-3, 7)
    noisy, reloaded = N.sample_noisy_gateset(built, spec), N.sample_noisy_gateset(loaded, spec)
    # each keeps its target's gate order, and a round trip draws the same gates
    assert list(noisy.gates) == list(built.gates) and list(reloaded.gates) == list(loaded.gates)
    assert same_operations(noisy, reloaded)
    # the built and the bundled gate set have the same default evaluation model
    assert same_operations(default_eval_model(built), default_eval_model(bundled))


@pytest.mark.parametrize("kind", ["coherent-only", "coherent-depol"])
def test_non_finite_noisy_model_raises_named_error(xyi, kind):
    with pytest.raises(N.NonFiniteModelError, match="non-finite"):
        N.sample_noisy_gateset(xyi, N.NoiseSpec(kind, 1e300, 0.001 if kind == "coherent-depol" else 0.0, 1))


def sampled_generators(num_qubits, sigma):
    """One random ``sum_a h_a H_a`` for each of 50 seeds, weights from N(0, sigma)."""
    gens = np.array(hamiltonian_generator_ptms(num_qubits))
    for seed in range(50):
        yield np.tensordot(np.random.default_rng(seed).normal(0.0, sigma, len(gens)), gens, 1)


def expm(a):
    return N._expm(a, float(np.abs(a).sum(axis=0).max()))


@pytest.mark.parametrize("num_qubits", [1, 2])
@pytest.mark.parametrize("sigma", [1e-3, 1e-2, 1e-1, 1.0])
def test_expm_agrees_with_scipy(num_qubits, sigma):
    for a in sampled_generators(num_qubits, sigma):
        assert np.max(np.abs(expm(a) - scipy.linalg.expm(a))) < 1e-13


@pytest.mark.parametrize("num_qubits", [1, 2])
@pytest.mark.parametrize("sigma", [1e-3, 1e-2, 1e-1, 1.0])
def test_expm_is_orthogonal_and_fixes_the_trace_direction(num_qubits, sigma):
    for a in sampled_generators(num_qubits, sigma):
        err = expm(a)
        eye = np.eye(len(a))
        assert np.max(np.abs(err.T @ err - eye)) < 1e-14
        assert np.array_equal(err[0], eye[0]) and np.array_equal(err[:, 0], eye[0])


@pytest.mark.parametrize("gateset", ["xyi", "xycphase"])
@pytest.mark.parametrize("kind", ["coherent-only", "coherent-depol"])
def test_huge_sigma_raises_named_error_for_every_seed(gateset, kind):
    target = builtin_gateset(gateset)
    for seed in range(20):
        with pytest.raises(N.NonFiniteModelError, match="non-finite"):
            N.sample_noisy_gateset(target, N.NoiseSpec(kind, 1e300, 0.001 if kind == "coherent-depol" else 0.0, seed))


def test_spec_validation():
    with pytest.raises(ValueError):
        N.NoiseSpec("weird", 0.01, 0.0, 1)
    with pytest.raises(ValueError):
        N.NoiseSpec("coherent-only", -1.0, 0.0, 1)
    with pytest.raises(ValueError):
        N.NoiseSpec("coherent-depol", 0.01, 1.0, 1)
    with pytest.raises(ValueError, match="eta must be 0"):
        N.NoiseSpec("coherent-only", 0.01, 0.5, 1)


def test_coherent_error_factor_is_orthogonal(xyi):
    spec = N.NoiseSpec("coherent-only", 0.01, 0.0, 7)
    noisy = N.sample_noisy_gateset(xyi, spec)
    for label in xyi.gates:
        err = noisy.gates[label] @ np.linalg.inv(xyi.gates[label])
        assert np.max(np.abs(err.T @ err - np.eye(4))) < 1e-9
        # TP: first row preserved exactly up to rounding
        assert np.max(np.abs(noisy.gates[label][0] - [1, 0, 0, 0])) < 1e-12
    # SPAM untouched
    assert np.array_equal(noisy.prep, xyi.prep)


def test_paper_regime_samples(xyi):
    spec = N.NoiseSpec("coherent-depol", 0.01, 0.001, 17)
    noisy = N.sample_noisy_gateset(xyi, spec)
    noisy.validate()
    for label in xyi.gates:
        assert np.max(np.abs(noisy.gates[label] - xyi.gates[label])) < 0.2


def test_depolarization_shrinks_bloch_block(xyi):
    eta = 0.25
    spec = N.NoiseSpec("coherent-depol", 0.0, eta, 3)
    noisy = N.sample_noisy_gateset(xyi, spec)
    for label in xyi.gates:
        g = xyi.gates[label]
        got = noisy.gates[label]
        assert np.allclose(got[0], g[0], atol=1e-12)
        assert np.allclose(got[1:], (1 - eta) * g[1:], atol=1e-12)


def test_noise_seed_determinism(xyi):
    a = N.sample_noisy_gateset(xyi, N.NoiseSpec("coherent-only", 0.01, 0.0, 5))
    b = N.sample_noisy_gateset(xyi, N.NoiseSpec("coherent-only", 0.01, 0.0, 5))
    c = N.sample_noisy_gateset(xyi, N.NoiseSpec("coherent-only", 0.01, 0.0, 6))
    for label in xyi.gates:
        assert np.array_equal(a.gates[label], b.gates[label])
    assert any(not np.array_equal(a.gates[label], c.gates[label]) for label in xyi.gates)


def test_perturbed_models_distinct(xyi):
    models = N.perturbed_models(xyi, 5, 1e-3, seed=2)
    assert len(models) == 5
    mats = [m.gates["Gx"].tobytes() for m in models]
    assert len(set(mats)) == 5


def test_dataset_deterministic_outcome(xyi):
    ds = N.simulate_dataset(xyi, [Circuit(())], shots=500, seed=3)
    assert ds.counts.tolist() == [[500, 0]]


def test_dataset_counts_sum_to_shots(xyi, rng):
    circuits = [Circuit(tuple(rng.choice(["Gi", "Gx", "Gy"], size=rng.integers(0, 10)))) for _ in range(20)]
    ds = N.simulate_dataset(xyi, circuits, shots=1000, seed=4)
    assert np.all(ds.counts.sum(axis=1) == 1000)
    assert np.all(ds.counts >= 0)


def test_dataset_seed_determinism_byte_identical(xyi, tmp_path):
    circuits = [Circuit(("Gx",)), Circuit(("Gy", "Gx"))]
    paths = []
    for k in range(2):
        ds = N.simulate_dataset(xyi, circuits, shots=1000, seed=11)
        p = tmp_path / f"d{k}.json"
        ds.save(p)
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


def test_dataset_roundtrip(xyi, tmp_path):
    circuits = [Circuit(("Gx",))]
    ds = N.simulate_dataset(xyi, circuits, shots=100, seed=1)
    p = tmp_path / "ds.json"
    ds.save(p)
    loaded = N.Dataset.load(p)
    assert loaded.shots == 100
    assert loaded.circuits == ds.circuits
    assert np.array_equal(loaded.counts, ds.counts)


def test_empirical_frequencies_concentrate(xyi, rng):
    shots = 100_000
    circuits = []
    while len(circuits) < 60:
        c = Circuit(tuple(rng.choice(["Gi", "Gx", "Gy"], size=rng.integers(1, 12))))
        circuits.append(c)
    ds = N.simulate_dataset(xyi, circuits, shots=shots, seed=12)
    good = 0
    for c, counts in zip(ds.circuits, ds.counts):
        p = circuit_probabilities(xyi, c)
        f = counts / shots
        bound = 5 * np.sqrt(np.clip(p * (1 - p), 0, None) / shots)
        if np.all(np.abs(f - p) <= bound + 1e-12):
            good += 1
    assert good >= 0.99 * len(circuits) - 1


def test_loglikelihood_zero_for_deterministic(xyi):
    ds = N.Dataset(circuits=(Circuit(()),), counts=np.array([[400, 0]]), shots=400)
    assert abs(N.log_likelihood(xyi, ds)) < 1e-9


def test_loglikelihood_matches_multinomial_pmf(xyi, rng):
    # restrict to circuits where the clip floor is inactive so the pmf
    # oracle and the clipped sum describe the same distribution
    circuits = []
    while len(circuits) < 10:
        c = Circuit(tuple(rng.choice(["Gi", "Gx", "Gy"], size=5)))
        if np.min(circuit_probabilities(xyi, c)) > 1e-6:
            circuits.append(c)
    ds = N.simulate_dataset(xyi, circuits, shots=200, seed=8)
    expected = 0.0
    for c, counts in zip(ds.circuits, ds.counts):
        p = circuit_probabilities(xyi, c)
        expected += scipy.stats.multinomial.logpmf(counts, 200, p / p.sum())
    got = N.log_likelihood(xyi, ds)
    assert abs(got - expected) < 1e-9


def test_likelihood_dominance(xyi, rng):
    from gstdesign.model import from_vector, to_vector

    theta0 = to_vector(xyi)
    circuits = [Circuit(tuple(rng.choice(["Gi", "Gx", "Gy"], size=6))) for _ in range(15)]
    wins = 0
    trials = 40
    for t in range(trials):
        ds = N.simulate_dataset(xyi, circuits, shots=500, seed=100 + t)
        l_true = N.log_likelihood(xyi, ds)
        other = from_vector(xyi, theta0 + 0.2 * np.random.default_rng(t).standard_normal(43))
        if l_true >= N.log_likelihood(other, ds):
            wins += 1
    assert wins >= 0.95 * trials

def shuffled_design_circuits(xyi, xyi_fiducials, seed):
    from gstdesign import design as D
    from gstdesign.germs import bare_germs

    design = D.build_design(
        xyi_fiducials, xyi_fiducials, bare_germs(xyi) + [Circuit(("Gx", "Gy"))], D.default_schedule(16),
        gateset_labels=xyi.labels,
    )
    circuits = list(design.circuits)
    order = np.random.default_rng(seed).permutation(len(circuits))
    return [circuits[i] for i in order]


def test_prefix_walk_equals_circuit_probabilities_in_bits(xyi, xyi_fiducials):
    noisy = N.sample_noisy_gateset(xyi, N.NoiseSpec("coherent-depol", 0.02, 0.01, 3))
    circuits = shuffled_design_circuits(xyi, xyi_fiducials, seed=4)
    circuits += [Circuit(()), circuits[0], Circuit(circuits[1].labels[:1])]  # empty, repeated, a prefix
    probs = circuits_probabilities(noisy, tuple(circuits))
    for c, p in zip(circuits, probs):
        assert p.tobytes() == circuit_probabilities(noisy, c).tobytes()


def test_simulate_and_likelihood_equal_per_circuit_reference(xyi, xyi_fiducials):
    circuits = shuffled_design_circuits(xyi, xyi_fiducials, seed=9)
    ds = N.simulate_dataset(xyi, circuits, shots=300, seed=21)
    expected, total = [], 0.0
    for idx, c in enumerate(circuits):
        p = np.clip(circuit_probabilities(xyi, c), 0.0, None)
        rng = np.random.default_rng(np.random.SeedSequence([21, idx]))
        expected.append(rng.multinomial(300, p / p.sum()))
        q = np.clip(circuit_probabilities(xyi, c), N.PROB_CLIP_FLOOR, 1.0)
        n = expected[-1]
        total += math.lgamma(301) - sum(math.lgamma(k + 1) for k in n.tolist()) + float(n @ np.log(q))
    assert np.array_equal(ds.counts, np.array(expected))
    assert N.log_likelihood(xyi, ds) == total


def test_invalid_circuit_error_names_the_first_in_circuit_order(xyi):
    from gstdesign.model import GateSetError

    # "Ga" sorts first, but "Gq" comes first in circuit order
    circuits = [Circuit(("Gx",)), Circuit(("Gx", "Gq")), Circuit(("Ga",))]
    with pytest.raises(GateSetError, match="'Gq'"):
        N.simulate_dataset(xyi, circuits, shots=10, seed=1)
    ds = N.Dataset(circuits=tuple(circuits), counts=np.zeros((3, 2), dtype=np.int64), shots=0)
    with pytest.raises(GateSetError, match="'Gq'"):
        N.log_likelihood(xyi, ds)


# A design's probabilities take the per-germ block walk, whose products group
# terms differently from the one-circuit reference; on the bundled gate sets the
# two differ by at most 1.6e-15.
DESIGN_WALK_ATOL = 4e-15

XYI_GERMS = ("Gi", "Gx", "Gy", "Gx Gy", "Gx Gx Gy", "Gx Gy Gi")
XYCPHASE_GERMS = ("Gxi", "Gcphase Gxi Giy", "Gix Gix Giy")


def walk_design(name, mode, lmax):
    from gstdesign import builtins as bi
    from gstdesign import design as D

    germs = [Circuit(tuple(g.split())) for g in (XYI_GERMS if name == "xyi" else XYCPHASE_GERMS)]
    preps, meass = bi.builtin_fiducials(name, "prep"), bi.builtin_fiducials(name, "meas")
    policy = {
        "full": D.FprPolicy(),
        "random": D.FprPolicy("random", gamma=0.2, seed=4),
        "per-germ": D.FprPolicy("per-germ", pairs_by_germ={
            k: ((k % len(preps), 0), (len(preps) - 1, len(meass) - 1), (1, k % len(meass))) for k in range(len(germs))
        }),
    }[mode]
    gs = bi.builtin_gateset(name)
    design = D.build_design(preps, meass, germs, D.default_schedule(lmax), policy, gateset_labels=gs.labels)
    return N.sample_noisy_gateset(gs, N.NoiseSpec("coherent-depol", 0.01, 0.001, 5)), design


def shuffled(design, seed, extra=()):
    """``design`` with ``extra`` circuits appended and every circuit reordered."""
    import dataclasses

    circuits = design.circuits + tuple(extra)
    buckets = design.buckets + (design.maxdepths[0],) * len(extra)
    order = np.random.default_rng(seed).permutation(len(circuits))
    return dataclasses.replace(
        design, circuits=tuple(circuits[i] for i in order), buckets=tuple(buckets[i] for i in order)
    )


@pytest.mark.parametrize(
    "name, mode, lmax",
    [
        ("xyi", "full", 256), ("xyi", "per-germ", 1024), ("xyi", "random", 1024),
        ("xycphase", "full", 16), ("xycphase", "per-germ", 64), ("xycphase", "random", 256),
    ],
)
def test_design_walk_equals_circuit_probabilities(name, mode, lmax):
    from gstdesign import design as D

    gs, design = walk_design(name, mode, lmax)
    # a circuit outside every plaquette, and one deeper than any plaquette circuit
    outside = [Circuit(design.germs[-1].labels * 3 + design.germs[0].labels), Circuit(design.germs[0].labels * 2000)]
    design = shuffled(design, seed=lmax, extra=outside)
    probs = D.design_probabilities(gs, design)
    reference = np.array([circuit_probabilities(gs, c) for c in design.circuits])
    assert np.max(np.abs(probs - reference)) <= DESIGN_WALK_ATOL
    for c in outside:
        idx = design.circuits.index(c)
        assert probs[idx].tobytes() == reference[idx].tobytes()  # the one-state walk, bit for bit


def test_design_walk_fills_a_circuit_two_plaquettes_reach(xyi, xyi_fiducials):
    from gstdesign import design as D

    # at L = 2, "Gx" to the power 2 and "Gx Gx" to the power 1 give the same circuits
    design = D.build_design(
        xyi_fiducials, xyi_fiducials, [Circuit(("Gx",)), Circuit(("Gx", "Gx"))], D.default_schedule(2),
        gateset_labels=xyi.labels,
    )
    reached = [
        {c.labels for c in D.plaquette_circuits(design.prep_fiducials, design.meas_fiducials, design.germs[p.germ_index], p)}
        for p in design.plaquettes if p.max_depth == 2
    ]
    assert len(reached) == 2 and reached[0] == reached[1]
    gs = N.sample_noisy_gateset(xyi, N.NoiseSpec("coherent-depol", 0.02, 0.01, 3))
    probs = D.design_probabilities(gs, design)
    reference = np.array([circuit_probabilities(gs, c) for c in design.circuits])
    assert np.max(np.abs(probs - reference)) <= DESIGN_WALK_ATOL


def test_design_walk_counts_equal_circuit_list_counts():
    gs, design = walk_design("xyi", "random", 1024)
    by_design = N.simulate_dataset(gs, design, shots=1000, seed=5)
    by_list = N.simulate_dataset(gs, list(design.circuits), shots=1000, seed=5)
    assert by_design.circuits == design.circuits
    assert np.array_equal(by_design.counts, by_list.counts)


def test_design_with_an_unknown_fiducial_or_germ_label_raises(xyi, xyi_fiducials):
    import dataclasses

    from gstdesign import design as D
    from gstdesign.model import GateSetError

    design = D.build_design(xyi_fiducials[:2], xyi_fiducials, [Circuit(("Gx",))], D.default_schedule(4))
    for part in ("prep_fiducials", "meas_fiducials", "germs"):
        # a fiducial or germ no circuit uses, with a label the gate set lacks
        lacking = dataclasses.replace(design, **{part: getattr(design, part) + (Circuit(("Gq",)),)})
        with pytest.raises(GateSetError, match="'Gq'"):
            D.design_probabilities(xyi, lacking)
        with pytest.raises(GateSetError, match="'Gq'"):
            N.simulate_dataset(xyi, lacking, shots=10, seed=1)


def test_design_walk_errors_name_the_first_circuit_in_circuit_order(xyi):
    import re

    from gstdesign.model import GateSet, GateSetError

    _, design = walk_design("xyi", "full", 8)
    design = shuffled(design, seed=2)
    lacking = GateSet({k: g for k, g in xyi.gates.items() if k not in ("Gi", "Gy")}, xyi.prep, xyi.effects)
    first = next(lab for c in design.circuits for lab in c.labels if lab in ("Gi", "Gy"))
    with pytest.raises(GateSetError, match=f"'{first}'"):
        N.simulate_dataset(lacking, design, shots=10, seed=1)
    # Gx stretches the Bloch ball, so deep enough circuits predict negative probabilities
    stretched = GateSet({**xyi.gates, "Gx": np.diag([1.0, 1.3, 1.3, 1.3]) @ xyi.gates["Gx"]}, xyi.prep, xyi.effects)
    reference = [circuit_probabilities(stretched, c) for c in design.circuits]
    bad = [c for c, p in zip(design.circuits, reference) if np.min(p) < -1e-9]
    assert bad and bad[0] != min(bad, key=lambda c: c.labels)  # circuit order is not walk order
    with pytest.raises(ValueError, match=f"negative probability .* for {re.escape(str(bad[0]))}$"):
        N.simulate_dataset(stretched, design, shots=10, seed=1)


@pytest.mark.parametrize("n_effects", [2, 4])
def test_validation_of_all_rows_keeps_each_rows_bits(rng, n_effects):
    probs = rng.random((500, n_effects)) * rng.choice([1e-6, 1.0, 1e3], size=(500, n_effects))
    probs[::7, 0] = 0.0
    probs /= probs.sum(axis=1, keepdims=True)
    probs[::7, 0] = -1e-12  # clipped to 0 again
    circuits = [Circuit(("Gx",) * k) for k in range(len(probs))]
    want = [np.clip(p, 0.0, None) / np.clip(p, 0.0, None).sum() for p in probs]
    assert np.array_equal(N._validated_probabilities(probs, circuits), np.array(want))


def test_validation_of_all_rows_names_the_first_invalid_circuit():
    import re

    circuits = [Circuit(("Gx",) * k) for k in range(6)]

    def check(rows, message, idx):
        with pytest.raises(ValueError, match=f"{message} for {re.escape(str(circuits[idx]))}$"):
            N._validated_probabilities(np.array(rows), circuits)

    ok = [0.25, 0.75]
    check([ok, ok, [0.5, 0.6], ok, [-0.1, 1.1], ok], "probabilities sum to 1.100000", 2)
    check([ok, [-0.1, 1.1], ok, [0.5, 0.6], ok, ok], r"negative probability -1\.000e-01", 1)
    # a row both negative and off 1 reports the negative entry, as one circuit at a time did
    check([ok, ok, ok, [-0.2, 0.6], ok, [-0.1, 1.1]], r"negative probability -2\.000e-01", 3)


def test_cached_generators_keep_every_sampled_model_and_dataset_in_bits(xyi, xyi_fiducials, monkeypatch):
    from gstdesign import design as D
    from gstdesign import model as M

    des = D.build_design(
        xyi_fiducials, xyi_fiducials, [Circuit(("Gx",)), Circuit(("Gx", "Gy"))], D.default_schedule(8),
        gateset_labels=xyi.labels,
    )
    spec = N.NoiseSpec("coherent-depol", 0.01, 0.001, 17)

    def sample():
        noisy = N.sample_noisy_gateset(xyi, spec)
        models = N.perturbed_models(xyi, 3, 1e-3, seed=5)
        return noisy, models, N.simulate_dataset(noisy, des, 1000, seed=9)

    cached = sample()
    # a fresh build of the generators at every call, as before they were cached
    monkeypatch.setattr(N, "hamiltonian_generator_ptms", M.hamiltonian_generator_ptms.__wrapped__)
    fresh = sample()
    for got, want in zip([cached[0], *cached[1]], [fresh[0], *fresh[1]]):
        assert all(got.gates[k].tobytes() == want.gates[k].tobytes() for k in xyi.gates)
    assert cached[2].counts.tobytes() == fresh[2].counts.tobytes()
