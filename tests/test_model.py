import numpy as np
import pytest
import scipy.linalg

from conftest import direct_gauge_frame, random_circuit
from gstdesign import model as M
from gstdesign.builtins import builtin_gateset, make_xycphase_gateset, make_xyi_gateset
from gstdesign.noise import NoiseSpec, sample_noisy_gateset

LABELS = ("Gi", "Gx", "Gy")


def rotation_ptm_x(theta):
    """Independent construction of the X-rotation PTM from the Bloch picture:
    Y -> cos Y + sin Z, Z -> -sin Y + cos Z (basis order I, X, Y, Z)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, c, -s], [0, 0, s, c]], dtype=float
    )


def test_trivial_probabilities(xyi):
    assert np.allclose(M.circuit_probabilities(xyi, M.Circuit(())), [1, 0], atol=1e-12)
    assert np.allclose(M.circuit_probabilities(xyi, M.Circuit(("Gx", "Gx"))), [0, 1], atol=1e-12)
    assert np.allclose(M.circuit_probabilities(xyi, M.Circuit(("Gx",))), [0.5, 0.5], atol=1e-12)


def test_unknown_label_raises(xyi):
    with pytest.raises(M.GateSetError):
        M.circuit_probabilities(xyi, M.Circuit(("Gz",)))


def test_gate_ptm_matches_bloch_rotation(xyi):
    assert np.allclose(xyi.gates["Gx"], rotation_ptm_x(np.pi / 2), atol=1e-12)


def test_probability_normalization_random_circuits(xyi, rng):
    for _ in range(50):
        c = random_circuit(rng)
        p = M.circuit_probabilities(xyi, c)
        assert abs(p.sum() - 1.0) < 1e-10


def test_effective_prep_states(xyi, xyi_fiducials):
    states = M.effective_fiducial_states(xyi, xyi_fiducials)
    # empty fiducial leaves the native prep unchanged
    assert np.allclose(states[0], xyi.prep, atol=1e-15)
    # oracle: [Gx] maps |0> to the -Y Bloch eigenstate, by direct product
    # with the independently built rotation PTM
    expected = rotation_ptm_x(np.pi / 2) @ xyi.prep
    assert np.allclose(states[1], expected, atol=1e-12)
    assert np.allclose(expected, [1 / np.sqrt(2), 0, -1 / np.sqrt(2), 0], atol=1e-12)


def test_effective_effects_ordering(xyi, xyi_fiducials):
    effects = M.effective_fiducial_effects(xyi, xyi_fiducials)
    m = xyi.num_effects
    assert len(effects) == len(xyi_fiducials) * m == 12
    # index i maps to fiducial i // m with native outcome i % m varying fastest
    for i in (0, 1, 2, 5, 11):
        fid = xyi_fiducials[i // m]
        native = xyi.effects[i % m]
        expected = native @ M.circuit_ptm(xyi, fid)
        assert np.allclose(effects[i], expected, atol=1e-14)


def test_param_counts(xyi):
    assert M.n_params(xyi) == 43
    theta = M.to_vector(xyi)
    assert theta.shape == (43,)


def test_vector_roundtrip(xyi, rng):
    theta = M.to_vector(xyi) + 0.1 * rng.standard_normal(43)
    gs = M.from_vector(xyi, theta)
    assert np.allclose(M.to_vector(gs), theta, atol=1e-15)
    gs.validate()  # TP structure survives the roundtrip


def test_jacobian_zero_column_for_absent_gate(xyi):
    jac = M.probability_jacobian(xyi, M.Circuit(("Gx", "Gx")))
    blocks = M.param_blocks(xyi)
    assert np.count_nonzero(jac[:, blocks["Gy"]]) == 0
    assert np.count_nonzero(jac[:, blocks["Gi"]]) == 0


def finite_difference_jacobian(template, theta, circuit, step):
    out = np.empty((template.num_effects, theta.size))
    for n in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[n] += step
        tm[n] -= step
        out[:, n] = (
            M.circuit_probabilities(M.from_vector(template, tp), circuit)
            - M.circuit_probabilities(M.from_vector(template, tm), circuit)
        ) / (2 * step)
    return out


def test_jacobian_matches_finite_differences(xyi, rng):
    theta = M.to_vector(xyi) + 0.05 * rng.standard_normal(43)
    gs = M.from_vector(xyi, theta)
    for _ in range(5):
        c = random_circuit(rng, max_depth=16)
        jac = M.probability_jacobian(gs, c)
        fd = finite_difference_jacobian(xyi, theta, c, 1e-6)
        assert np.max(np.abs(jac - fd)) < 1e-6


def test_hessian_matches_finite_differences(xyi, rng):
    theta = M.to_vector(xyi) + 0.05 * rng.standard_normal(43)
    gs = M.from_vector(xyi, theta)
    c = random_circuit(rng, max_depth=12)
    hess = M.probability_hessian(gs, c)
    step = 2e-4
    for n in range(0, 43, 7):  # spot-check rows; full grid is criterion 3's job
        tp, tm = theta.copy(), theta.copy()
        tp[n] += step
        tm[n] -= step
        fd_row = (
            M.probability_jacobian(M.from_vector(xyi, tp), c)
            - M.probability_jacobian(M.from_vector(xyi, tm), c)
        ) / (2 * step)
        assert np.max(np.abs(hess[:, n, :] - fd_row)) < 1e-6


def test_hessian_slices_sum_to_zero(xyi, rng):
    theta = M.to_vector(xyi) + 0.05 * rng.standard_normal(43)
    gs = M.from_vector(xyi, theta)
    for _ in range(3):
        c = random_circuit(rng, max_depth=10)
        hess = M.probability_hessian(gs, c)
        assert np.max(np.abs(hess.sum(axis=0))) < 1e-9
        assert np.max(np.abs(hess - np.swapaxes(hess, 1, 2))) < 1e-12


def tangent_rank(basis):
    """The Gram rank of a gauge tangent basis, as ``non_gauge_count`` takes it."""
    return M.gram_rank(basis.T @ basis)


def test_gauge_counts_xyi(xyi):
    assert M.non_gauge_count(xyi) == 31
    assert tangent_rank(M.gauge_tangent(xyi)) == 12


def test_gauge_counts_xycphase():
    gs = make_xycphase_gateset()
    assert M.n_params(gs) == 1263
    assert M.non_gauge_count(gs) == 1023


def reference_gauge_tangent_basis(gs):
    """Per-generator construction: column (a, b) is the parameter-space image
    of K = E_ab, gates moving by K G - G K, the prep by K rho, effects by -E K."""
    dim = gs.dim
    blocks = M.param_blocks(gs)
    meas = blocks["meas"]
    gens = [(a, b) for a in range(1, dim) for b in range(dim)]
    basis = np.zeros((M.n_params(gs), len(gens)))
    for col, (a, b) in enumerate(gens):
        for label, g in gs.gates.items():
            # row a picks up G[b, :], column b drops G[:, a]
            delta = np.zeros((dim, dim))
            delta[a, :] += g[b, :]
            delta[:, b] -= g[:, a]
            basis[blocks[label], col] = delta[1:, :].ravel()
        basis[blocks["rho"].start + a - 1, col] = gs.prep[b]
        for l in range(gs.num_effects - 1):
            basis[meas.start + l * dim + b, col] = -gs.effects[l][a]
    return basis


@pytest.mark.parametrize("name", ["xyi", "xycphase", "xyi-perturbed", "xycphase-coherent-depol"])
def test_gauge_tangent_matches_per_generator_reference(xyi, rng, name):
    if name == "xyi":
        gs = xyi
    elif name == "xycphase":
        gs = make_xycphase_gateset()
    elif name == "xyi-perturbed":
        gs = M.from_vector(xyi, M.to_vector(xyi) + 0.05 * rng.standard_normal(43))
    else:
        gs = sample_noisy_gateset(make_xycphase_gateset(), NoiseSpec("coherent-depol", 1e-2, 1e-3, 5))
    basis = M.gauge_tangent(gs)
    assert np.array_equal(basis, reference_gauge_tangent_basis(gs))
    # no negative zeros, so no product of the basis depends on how a zero was made
    assert not np.any(np.signbit(basis) & (basis == 0.0))
    # the Gram rank agrees with the singular-value rank
    assert tangent_rank(basis) == M.matrix_rank_rel(basis)
    assert M.non_gauge_count(gs) == M.n_params(gs) - tangent_rank(basis)


def kron_gauge_tangent_basis(gs):
    """The Kronecker-product formula: ``kron(I', G^T) - kron(G', I)`` per
    gate, ``kron(I', rho^T)`` for the prep, ``-kron(E[1:], I)`` per free
    effect, stacked and made free of negative zeros by adding ``0.0``."""
    eye = np.eye(gs.dim)
    blocks = [np.kron(eye[1:, 1:], g.T) - np.kron(g[1:, 1:], eye) for g in gs.gates.values()]
    blocks.append(np.kron(eye[1:, 1:], gs.prep))
    blocks.extend(-np.kron(e[1:], eye) for e in gs.effects[:-1])
    return np.vstack(blocks) + 0.0


@pytest.mark.parametrize("name", ["xyi", "xycphase", "xycphase-perturbed"])
def test_gauge_tangent_basis_equals_the_kron_formula(name):
    gs = builtin_gateset(name.split("-")[0])
    if name.endswith("perturbed"):
        gs = sample_noisy_gateset(gs, NoiseSpec("coherent-depol", 1e-2, 1e-3, 7))
    basis = M.gauge_tangent(gs)
    want = kron_gauge_tangent_basis(gs)
    assert np.array_equal(basis, want)
    # equal signs of zeros too, so every product of the basis sees the same entries
    assert np.array_equal(np.signbit(basis), np.signbit(want))


def test_gauge_tangent_rank_boundary(rng):
    """The Gram rank counts a singular value above ``sqrt(GRAM_RANK_RTOL)``
    (1e-6) of the largest and drops one below ``RANK_RTOL`` (1e-8) as the
    SVD rank does; between the two only the SVD rank counts it."""
    core = rng.standard_normal((30, 5))

    def dependent(eps):
        return core[:, 0] + eps * rng.standard_normal(30)

    basis = np.column_stack([core, dependent(1e-4), dependent(1e-10)])
    svals = np.linalg.svd(basis, compute_uv=False)
    assert svals[5] > 1e-5 * svals[0] and svals[6] < 1e-9 * svals[0]
    assert tangent_rank(basis) == M.matrix_rank_rel(basis) == 6
    between = np.column_stack([core, dependent(1e-7)])
    svals = np.linalg.svd(between, compute_uv=False)
    assert M.RANK_RTOL * svals[0] < svals[5] < np.sqrt(M.GRAM_RANK_RTOL) * svals[0]
    assert (tangent_rank(between), M.matrix_rank_rel(between)) == (5, 6)


@pytest.mark.parametrize("name", ["xyi", "xycphase"])
def test_gauge_tangent_rank_equals_direct_qr_rank(name, monkeypatch):
    gs = builtin_gateset(name)
    qr_rank, _ = direct_gauge_frame(M.gauge_tangent(gs))
    widths = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(a, *args, **kwargs):
        widths.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("the gauge rank takes no QR and no SVD")

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    monkeypatch.setattr(np.linalg, "svd", forbidden)
    monkeypatch.setattr(scipy.linalg, "qr", forbidden)
    # the rank from one eigensolve of the (D^2 - D)-wide Gram is the pivoted QR's
    assert qr_rank == gs.dim**2 - gs.dim
    assert M.non_gauge_count(gs) == M.n_params(gs) - qr_rank
    assert widths == [(gs.dim**2 - gs.dim,) * 2]


def test_gauge_tangent_takes_one_gram_eigensolve_on_first_use(xyi, monkeypatch):
    """Building the tangent solves nothing; each non-gauge count takes one
    eigensolve of its Gram."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    assert M.gauge_tangent(xyi).shape == (43, 12)
    assert calls == []
    assert M.non_gauge_count(xyi) == 31
    assert calls == [(12, 12)]


@pytest.mark.parametrize("name, make", [("xyi", make_xyi_gateset), ("xycphase", make_xycphase_gateset)])
def test_made_gatesets_equal_bundled_json_in_bits(name, make):
    made, bundled = make(), builtin_gateset(name)
    assert sorted(made.gates) == sorted(bundled.gates)  # the JSON sorts its keys
    for label in made.gates:
        assert made.gates[label].tobytes() == bundled.gates[label].tobytes()
    assert made.prep.tobytes() == bundled.prep.tobytes()
    assert [e.tobytes() for e in made.effects] == [e.tobytes() for e in bundled.effects]
    assert made.two_qubit_labels == bundled.two_qubit_labels


def test_gauge_direction_keeps_probabilities_first_order(xyi, rng):
    theta = M.to_vector(xyi) + 0.01 * rng.standard_normal(43)
    gs = M.from_vector(xyi, theta)
    basis = M.gauge_tangent(gs)
    eps = 1e-5
    col = basis[:, 5] / np.linalg.norm(basis[:, 5])
    moved = M.from_vector(xyi, theta + eps * col)
    for _ in range(10):
        c = random_circuit(rng, max_depth=12)
        dp = M.circuit_probabilities(moved, c) - M.circuit_probabilities(gs, c)
        assert np.max(np.abs(dp)) < 1e-8


def test_gauge_transform_identity(xyi):
    out = M.apply_gauge_transform(xyi, np.eye(4))
    for k in xyi.gates:
        assert np.allclose(out.gates[k], xyi.gates[k], atol=1e-15)
    assert np.allclose(out.prep, xyi.prep, atol=1e-15)


def test_gauge_transform_preserves_probabilities(xyi, rng):
    kmat = np.zeros((4, 4))
    kmat[1:, :] = 0.2 * rng.standard_normal((3, 4))
    mat = scipy.linalg.expm(kmat)
    transformed = M.apply_gauge_transform(xyi, mat)
    for _ in range(100):
        c = random_circuit(rng)
        p0 = M.circuit_probabilities(xyi, c)
        p1 = M.circuit_probabilities(transformed, c)
        assert np.max(np.abs(p0 - p1)) < 1e-9


def test_unitary_gauge_transform_stays_tp(xyi):
    mat = M.unitary_to_ptm(scipy.linalg.expm(-0.3j * np.array([[0, 1], [1, 0]])))
    out = M.apply_gauge_transform(xyi, mat)
    out.validate()  # first rows still (1, 0, 0, 0)


def test_singular_gauge_transform_rejected(xyi):
    bad = np.zeros((4, 4))
    bad[0, 0] = 1.0
    with pytest.raises(M.GateSetError):
        M.apply_gauge_transform(xyi, bad)


def test_gateset_json_roundtrip(xyi, tmp_path):
    path = tmp_path / "gs.json"
    xyi.save(path)
    loaded = M.GateSet.load(path)
    for k in xyi.gates:
        assert np.array_equal(loaded.gates[k], xyi.gates[k])
    assert np.array_equal(loaded.prep, xyi.prep)
    assert all(np.array_equal(a, b) for a, b in zip(loaded.effects, xyi.effects))


def test_effects_sum_to_trace_covector(xyi):
    total = np.sum(xyi.effect_matrix(), axis=0)
    assert np.allclose(total, [np.sqrt(2), 0, 0, 0], atol=1e-12)
    assert abs(xyi.prep[0] - 1 / np.sqrt(2)) < 1e-12


def hamiltonian_generators_by_trace(num_qubits):
    """Reference: each entry as its own trace, ``Re tr(P_j^dag (-i [P_a, P_k]))``."""
    paulis_norm = M.pauli_matrices(num_qubits)
    paulis_raw = M.pauli_matrices(num_qubits, normalized=False)
    dim = len(paulis_norm)
    gens = []
    for a in range(1, dim):
        pa = paulis_raw[a]
        h = np.empty((dim, dim))
        for k in range(dim):
            comm = -1j * (pa @ paulis_norm[k] - paulis_norm[k] @ pa)
            for j in range(dim):
                h[j, k] = np.real(np.trace(paulis_norm[j].conj().T @ comm))
        gens.append(h)
    return gens


@pytest.mark.parametrize("num_qubits", [1, 2])
def test_hamiltonian_generators_match_trace_reference(num_qubits):
    gens = M.hamiltonian_generator_ptms(num_qubits)
    ref = hamiltonian_generators_by_trace(num_qubits)
    assert len(gens) == len(ref) == 4**num_qubits - 1
    for h, r in zip(gens, ref):
        assert h.shape == r.shape and h.dtype == r.dtype
        # bit for bit, down to the sign of every zero
        assert np.array_equal(h, r) and np.array_equal(np.signbit(h), np.signbit(r))
        assert np.array_equal(h, -h.T)


@pytest.mark.parametrize("num_qubits", [1, 2])
def test_hamiltonian_generators_are_cached_read_only_and_equal_a_fresh_build(num_qubits):
    cached = M.hamiltonian_generator_ptms(num_qubits)
    assert M.hamiltonian_generator_ptms(num_qubits) is cached
    fresh = M.hamiltonian_generator_ptms.__wrapped__(num_qubits)
    assert fresh is not cached and len(fresh) == len(cached) == 4**num_qubits - 1
    for h, f in zip(cached, fresh):
        assert h.tobytes() == f.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            h[0, 0] = 1.0
        with pytest.raises(ValueError):
            h.flags.writeable = True
