"""Gate set models in the Pauli transfer matrix (PTM) representation.

Conventions used throughout the package:

- Operators are expressed in the normalized Pauli basis ``{P_0 = I/sqrt(d),
  P_1, ...}`` of Hilbert-Schmidt space, so a channel is a real ``D x D``
  matrix with ``D = d**2``, a state is a length-``D`` vector and a
  measurement effect is a length-``D`` covector.  Outcome probabilities are
  plain dot products ``E . (G_n ... G_1 rho)``.
- A trace-preserving (TP) map has first row ``(1, 0, ..., 0)``, a trace-1
  state has first entry ``1/sqrt(d)`` and the effects of one complete
  measurement sum to the trace covector ``(sqrt(d), 0, ..., 0)``.
- The free model parameters of a TP gate set are: every gate entry except
  the first row of each gate, every prep entry except the first, and every
  entry of all effects but the last one (which is the completeness
  complement).  ``to_vector`` / ``from_vector`` map between gate sets and
  this flat parameter vector; ``param_blocks`` names the per-operation
  blocks ("rho" and "meas" for the SPAM blocks).

Derivatives of circuit probabilities are computed analytically, never by
automatic differentiation, from two stack walks that raise
:class:`GateSetError` on an unknown label: ``_forward`` carries a state, a
block of states or a matrix through a label sequence, ``_backward``
carries rows back from its end, and each keeps the product at every
position.  A depth-n circuit costs O(n) small matrix products for the
Jacobian and O(n^2) for the Hessian.

Each probability comes from one walk: :func:`circuits_probabilities`
carries the prep state through circuits sharing label prefixes,
:func:`fiducial_outcomes` the prep-fiducial states through label bodies,
from the fiducial vectors :func:`fiducial_jacobians` uses, and
:func:`probability_jacobian`'s row 0, over effect 0's columns, is the
output state ``v``.  Designs are :mod:`gstdesign.design`'s concern.

Jacobians come one circuit at a time from :func:`probability_jacobian`,
the reference, or one body at a time from :func:`fiducial_jacobians`:
for circuits ``F_j body H_i`` that share a label sequence ``body``, the
prep-fiducial states are carried forward and the effect rows backward
through the body once, and each gate label's columns for a grid of
fiducial pairs are one product over its positions, in chunks of at most
:data:`gstdesign.held.STACK_BYTES`.  The caller
(:func:`gstdesign.fisher.bucket_jacobians`) walks the bodies of
:func:`gstdesign.design.design_bodies`, in an order fixed by the design's
structure, not by its circuit list, and falls back to
:func:`probability_jacobian` for a circuit no body reaches.  The two
agree to rounding: within 4e-15 of each circuit's largest Jacobian entry
on XYI designs to L = 1024 and XYCPHASE designs to L = 16, which keeps
one circuit's :func:`gstdesign.fisher.circuit_fim` within 1e-12 of its
largest entry at the certification clip floor.

Gauge counts are Gram ranks (:func:`gram_rank`) of :func:`gauge_tangent`:
:func:`non_gauge_count`, the width certification reads spectra in, and
:func:`amplifiable_count`, the gate directions germ selection aims at.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import held

__all__ = [
    "GateSetError",
    "Circuit",
    "GateSet",
    "pauli_matrices",
    "unitary_to_ptm",
    "density_to_statevec",
    "effect_to_covec",
    "depolarizing_ptm",
    "hamiltonian_generator_ptms",
    "circuit_ptm",
    "circuit_probabilities",
    "circuits_probabilities",
    "fiducial_outcomes",
    "require_labels",
    "effective_fiducial_states",
    "effective_fiducial_effects",
    "param_blocks",
    "n_params",
    "to_vector",
    "from_vector",
    "probability_jacobian",
    "fiducial_jacobians",
    "probability_hessian",
    "gauge_tangent",
    "non_gauge_count",
    "amplifiable_count",
    "apply_gauge_transform",
    "gram_rank",
    "matrix_rank_rel",
    "numerical_rank",
    "GRAM_RANK_RTOL",
    "RANK_RTOL",
    "TP_TOL",
    "write_json",
]

# Relative cutoff of :func:`numerical_rank` on singular values.
RANK_RTOL = 1e-8
# Relative cutoff of :func:`gram_rank` on Gram eigenvalues: the squared
# singular-value cutoff, floored at the eigensolver's noise scale (~1e-12)
GRAM_RANK_RTOL = max(RANK_RTOL**2, 1e-12)
# Largest departure from trace preservation that :meth:`GateSet.validate` accepts.
TP_TOL = 1e-12

_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class GateSetError(ValueError):
    """Invalid gate set content or an unresolvable circuit label."""


def write_json(path, doc) -> None:
    """Write ``doc`` to ``path`` as one line of compact JSON with sorted keys
    and a final newline.  Every JSON file the package writes goes through
    here: ``json.dumps`` without ``indent`` runs CPython's C encoder, and
    floats are written by ``float.__repr__``, so they read back exactly.
    The text is encoded before the file is opened, so a document that does
    not encode leaves no file behind."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    with open(path, "w") as f:
        f.write(text + "\n")


def numerical_rank(values, rtol: float = RANK_RTOL):
    """Number of entries above ``rtol`` times the first of a descending
    sequence whose first entry is its largest (singular values at
    :data:`RANK_RTOL`, Gram eigenvalues at :data:`GRAM_RANK_RTOL`); for a
    stack of such sequences along the last axis, an array of counts."""
    ranks = np.sum(np.asarray(values) > rtol * np.asarray(values)[..., :1], axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


def matrix_rank_rel(a: np.ndarray) -> int:
    """Rank of ``a`` counting singular values above ``RANK_RTOL * s_max``."""
    return numerical_rank(np.linalg.svd(a, compute_uv=False)) if a.size else 0


def gram_rank(gram: np.ndarray) -> int:
    """Rank of ``a`` from its Gram ``gram = a^T a``: the number of
    eigenvalues above :data:`GRAM_RANK_RTOL` times the largest, from one
    ``eigvalsh``.  It is :func:`matrix_rank_rel` of ``a`` except for a
    singular value between ``RANK_RTOL`` and ``sqrt(GRAM_RANK_RTOL)``
    (1e-8 to 1e-6) of the largest, which only the latter counts."""
    return numerical_rank(np.linalg.eigvalsh(gram)[::-1], GRAM_RANK_RTOL)


def pauli_matrices(num_qubits: int, normalized: bool = True) -> list[np.ndarray]:
    """All n-qubit Pauli strings, identity first, optionally HS-normalized."""
    mats = []
    for combo in itertools.product("IXYZ", repeat=num_qubits):
        m = _PAULI_1Q[combo[0]]
        for c in combo[1:]:
            m = np.kron(m, _PAULI_1Q[c])
        mats.append(m)
    if normalized:
        d = 2**num_qubits
        mats = [m / math.sqrt(d) for m in mats]
    return mats


def _num_qubits_from_dim(dim: int) -> int:
    d = math.isqrt(dim)
    if d * d != dim:
        raise GateSetError(f"superoperator dimension {dim} is not a perfect square")
    n = d.bit_length() - 1
    if 2**n != d:
        raise GateSetError(f"Hilbert space dimension {d} is not a power of two")
    return n


def unitary_to_ptm(u: np.ndarray) -> np.ndarray:
    """PTM of the unitary channel rho -> U rho U^dag (real output)."""
    d = u.shape[0]
    paulis = pauli_matrices(_num_qubits_from_dim(d * d))
    dim = d * d
    ptm = np.empty((dim, dim))
    conj = [u @ p @ u.conj().T for p in paulis]
    for i, pi in enumerate(paulis):
        for j in range(dim):
            ptm[i, j] = np.real(np.trace(pi.conj().T @ conj[j]))
    return ptm


def density_to_statevec(rho: np.ndarray) -> np.ndarray:
    """Expand a density matrix in the normalized Pauli basis."""
    d = rho.shape[0]
    paulis = pauli_matrices(_num_qubits_from_dim(d * d))
    return np.array([np.real(np.trace(p.conj().T @ rho)) for p in paulis])


def effect_to_covec(effect: np.ndarray) -> np.ndarray:
    """Expand a POVM effect in the normalized Pauli basis (same map as states)."""
    return density_to_statevec(effect)


def depolarizing_ptm(dim: int, eta: float) -> np.ndarray:
    """Uniform depolarization: identity on P_0, shrink by (1 - eta) elsewhere."""
    m = np.eye(dim) * (1.0 - eta)
    m[0, 0] = 1.0
    return m


@functools.cache
def hamiltonian_generator_ptms(num_qubits: int) -> tuple[np.ndarray, ...]:
    """PTM adjoint representations of ``rho -> -i [P_a, rho]``.

    One generator per non-identity (unnormalized) Pauli string ``P_a``; the
    returned matrices are real and antisymmetric, so ``expm(sum h_a H_a)``
    is orthogonal and TP.  Entry ``(j, k)`` of generator ``a`` is
    ``Re tr(P_j^dag (-i [P_a, P_k]))`` in the normalized basis, formed for
    every ``(a, j, k)`` by one broadcast commutator and one contraction.
    Built once per qubit count; the cached matrices are read-only.
    """
    paulis_norm = np.array(pauli_matrices(num_qubits))
    paulis_raw = np.array(pauli_matrices(num_qubits, normalized=False))[1:, None]
    comm = -1j * (paulis_raw @ paulis_norm - paulis_norm @ paulis_raw)  # (a, k, d, d)
    gens = np.einsum("jyx,akyx->ajk", paulis_norm.conj(), comm).real.copy()
    gens.flags.writeable = False
    return tuple(gens)


# ---------------------------------------------------------------------------
# Circuits


@dataclass(frozen=True)
class Circuit:
    """An ordered gate-label sequence."""

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))

    def __len__(self) -> int:
        return len(self.labels)

    def __add__(self, other: "Circuit") -> "Circuit":
        return Circuit(self.labels + other.labels)

    def __str__(self) -> str:
        return "{}" if not self.labels else " ".join(self.labels)

    @staticmethod
    def from_str(text: str) -> "Circuit":
        text = text.strip()
        if text in ("", "{}"):
            return Circuit(())
        return Circuit(tuple(text.split()))


# ---------------------------------------------------------------------------
# Gate sets


@dataclass(frozen=True)
class GateSet:
    """Gates (PTMs), one state prep and one measurement, plus gate arities.

    ``effects`` holds the full measurement (all m outcomes, including the
    completeness complement).  Arrays are frozen read-only at construction;
    all operations on gate sets are pure functions.
    """

    gates: dict[str, np.ndarray]
    prep: np.ndarray
    effects: tuple[np.ndarray, ...]
    two_qubit_labels: frozenset[str] = frozenset()

    def __post_init__(self):
        gates = {k: np.array(v, dtype=float) for k, v in self.gates.items()}
        prep = np.array(self.prep, dtype=float)
        effects = tuple(np.array(e, dtype=float) for e in self.effects)
        for g in gates.values():
            g.flags.writeable = False
        prep.flags.writeable = False
        for e in effects:
            e.flags.writeable = False
        object.__setattr__(self, "gates", gates)
        object.__setattr__(self, "prep", prep)
        object.__setattr__(self, "effects", effects)
        object.__setattr__(self, "two_qubit_labels", frozenset(self.two_qubit_labels))

    @property
    def dim(self) -> int:
        """Superoperator dimension D = d**2."""
        return self.prep.shape[0]

    @property
    def num_effects(self) -> int:
        return len(self.effects)

    @property
    def num_qubits(self) -> int:
        return _num_qubits_from_dim(self.dim)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.gates)

    def effect_matrix(self) -> np.ndarray:
        return np.vstack(self.effects)

    def validate(self) -> None:
        """Check a ``4**n`` dimension and the shape/finite/TP invariants;
        raises :class:`GateSetError`."""
        dim = self.dim
        d = 2 ** _num_qubits_from_dim(dim)
        if not (np.all(np.isfinite(self.prep)) and all(np.all(np.isfinite(e)) for e in self.effects)):
            raise GateSetError("prep or effects have non-finite entries")
        if self.num_effects < 2:
            raise GateSetError("a measurement needs at least two effects")
        for label, g in self.gates.items():
            if g.shape != (dim, dim):
                raise GateSetError(f"gate {label!r} has shape {g.shape}, wanted {(dim, dim)}")
            if not np.all(np.isfinite(g)):
                raise GateSetError(f"gate {label!r} has non-finite entries")
            if np.max(np.abs(g[0] - np.eye(dim)[0])) > TP_TOL:
                raise GateSetError(f"gate {label!r} is not trace preserving")
        if abs(self.prep[0] - 1.0 / math.sqrt(d)) > TP_TOL:
            raise GateSetError("prep first entry must be 1/sqrt(d)")
        total = np.sum(self.effect_matrix(), axis=0)
        if np.max(np.abs(total - math.sqrt(d) * np.eye(dim)[0])) > 1e-10:
            raise GateSetError("effects do not sum to the trace covector")

    # -- JSON interface ----------------------------------------------------

    def to_json_dict(self) -> dict:
        out = {
            "dim": self.dim,
            "convention": "pauli-normalized",
            "gates": {k: v.tolist() for k, v in self.gates.items()},
            "prep": self.prep.tolist(),
            "effects": [e.tolist() for e in self.effects],
        }
        if self.two_qubit_labels:
            out["two_qubit_gates"] = sorted(self.two_qubit_labels)
        return out

    @staticmethod
    def from_json_dict(doc: dict) -> "GateSet":
        if doc.get("convention", "pauli-normalized") != "pauli-normalized":
            raise GateSetError(f"unsupported basis convention {doc.get('convention')!r}")
        gs = GateSet(
            gates={k: np.array(v, float) for k, v in doc["gates"].items()},
            prep=np.array(doc["prep"], float),
            effects=tuple(np.array(e, float) for e in doc["effects"]),
            two_qubit_labels=frozenset(doc.get("two_qubit_gates", ())),
        )
        if gs.dim != doc["dim"]:
            raise GateSetError("declared dim does not match operator shapes")
        return gs

    def save(self, path) -> None:
        write_json(path, self.to_json_dict())

    @staticmethod
    def load(path) -> "GateSet":
        with open(path) as f:
            return GateSet.from_json_dict(json.load(f))


def _gate(gs: GateSet, label: str) -> np.ndarray:
    try:
        return gs.gates[label]
    except KeyError:
        raise GateSetError(f"unknown gate label {label!r}") from None


def circuit_ptm(gs: GateSet, circuit: Circuit) -> np.ndarray:
    """Product PTM G_1 -> ... -> G_n of a circuit (time order left to right)."""
    out = np.eye(gs.dim)
    for label in circuit.labels:
        out = _gate(gs, label) @ out
    return out


def circuit_probabilities(gs: GateSet, circuit: Circuit) -> np.ndarray:
    """Outcome probabilities ``p_j = E_j . (G_n ... G_1 rho)``."""
    v = gs.prep
    for label in circuit.labels:
        v = _gate(gs, label) @ v
    return gs.effect_matrix() @ v


def _prefix_walk(gs: GateSet, start: np.ndarray, sequences):
    """Yield ``(n, state)`` for every label sequence: ``start`` (a state,
    or a ``D x k`` block of states) carried through the gates of
    ``sequences[n]`` in time order.

    Sequences are visited in sorted label order over a stack of states, the
    state after each prefix of the previous sequence, and each sequence
    starts from its longest common prefix with the previous one.  ``state``
    is a view into that stack, valid until the next step.
    """
    states = np.empty((max(map(len, sequences), default=0) + 1, *start.shape))
    states[0] = start
    path: tuple[str, ...] = ()  # the previous sequence; states[d] follows path[:d]
    for n in sorted(range(len(sequences)), key=sequences.__getitem__):
        labels = sequences[n]
        depth = min(len(labels), len(path))
        if labels[:depth] != path[:depth]:
            depth = next(d for d, (a, b) in enumerate(zip(labels, path)) if a != b)
        for d in range(depth, len(labels)):
            np.matmul(gs.gates[labels[d]], states[d], out=states[d + 1])
        path = labels
        yield n, states[len(labels)]


def require_labels(gs: GateSet, sequences) -> None:
    """Raise :class:`GateSetError` naming the first label of the label
    sequences ``sequences``, in order, that ``gs`` lacks."""
    if not set().union(*sequences) <= gs.gates.keys():
        first = next(label for labels in sequences for label in labels if label not in gs.gates)
        raise GateSetError(f"unknown gate label {first!r}")


def circuits_probabilities(gs: GateSet, circuits) -> np.ndarray:
    """Outcome probabilities of a sequence of circuits, one row each in
    circuit order, from one walk per distinct label prefix.  Labels are
    checked first (:func:`require_labels`).  Each circuit sees the same
    ``G @ v`` and ``E @ v`` products as in :func:`circuit_probabilities`,
    the one-circuit reference, so its probabilities equal it bit for bit."""
    sequences = [c.labels for c in circuits]
    require_labels(gs, sequences)
    probs = np.zeros((len(sequences), gs.num_effects))
    effects = gs.effect_matrix()
    for n, state in _prefix_walk(gs, gs.prep, sequences):
        probs[n] = effects @ state
    return probs


def fiducial_outcomes(gs: GateSet, prep_fiducials, meas_fiducials, bodies):
    """Yield ``(n, outcomes)`` for each label sequence ``bodies[n]`` in
    walk order, ``outcomes[i, l, j]`` the probability of outcome ``l`` of
    ``F_j bodies[n] H_i``.  The block ``[F_1 rho ... F_k rho]`` is carried
    through the bodies, and each ends with one product of the effect rows
    ``E_l H_i`` with it, both walked through the fiducials as in
    :func:`fiducial_jacobians`: equal to :func:`circuit_probabilities` to
    rounding, not bit for bit.  Unknown labels raise :class:`GateSetError`.
    """
    require_labels(gs, [c.labels for c in (*prep_fiducials, *meas_fiducials)] + list(bodies))
    block = np.column_stack([_forward(gs, gs.prep, f.labels)[-1] for f in prep_fiducials])
    effect_rows = np.vstack([_backward(gs, gs.effect_matrix(), f.labels)[0] for f in meas_fiducials])
    for n, states in _prefix_walk(gs, block, bodies):
        yield n, (effect_rows @ states).reshape(len(meas_fiducials), gs.num_effects, len(prep_fiducials))


def effective_fiducial_states(gs: GateSet, prep_fids: list[Circuit]) -> list[np.ndarray]:
    """States reached by each prep fiducial: ``rho'_j = F_j rho``."""
    return [circuit_ptm(gs, f) @ gs.prep for f in prep_fids]


def effective_fiducial_effects(gs: GateSet, meas_fids: list[Circuit]) -> list[np.ndarray]:
    """Effective effects ``E'_i``, one per (measurement fiducial, outcome).

    The flat index runs over fiducials with the native outcome varying
    fastest: ``E'_i = E_{i mod m} . H_{i // m}`` for a measurement with
    m outcomes.
    """
    out = []
    for fid in meas_fids:
        hmat = circuit_ptm(gs, fid)
        for e in gs.effects:
            out.append(e @ hmat)
    return out


# ---------------------------------------------------------------------------
# Parameter map


def param_blocks(gs: GateSet) -> dict[str, slice]:
    """Contiguous parameter blocks per operation, gates first then SPAM.

    Gate blocks exclude each gate's fixed first row; "rho" excludes the
    fixed first entry; "meas" covers all effects but the final complement.
    """
    dim = gs.dim
    blocks: dict[str, slice] = {}
    start = 0
    per_gate = (dim - 1) * dim
    for label in gs.gates:
        blocks[label] = slice(start, start + per_gate)
        start += per_gate
    blocks["rho"] = slice(start, start + dim - 1)
    start += dim - 1
    n_meas = (gs.num_effects - 1) * dim
    blocks["meas"] = slice(start, start + n_meas)
    return blocks


def n_params(gs: GateSet) -> int:
    dim = gs.dim
    return len(gs.gates) * (dim - 1) * dim + (dim - 1) + (gs.num_effects - 1) * dim


def to_vector(gs: GateSet) -> np.ndarray:
    """Flatten the free coordinates of ``gs`` into a parameter vector."""
    parts = [g[1:, :].ravel() for g in gs.gates.values()]
    parts.append(gs.prep[1:])
    parts.extend(gs.effects[:-1])
    return np.concatenate(parts)


def from_vector(template: GateSet, theta: np.ndarray) -> GateSet:
    """Rebuild a gate set from a parameter vector, keeping TP-fixed entries."""
    dim = template.dim
    d = math.isqrt(dim)
    theta = np.asarray(theta, float)
    if theta.shape != (n_params(template),):
        raise GateSetError(f"parameter vector has length {theta.size}, wanted {n_params(template)}")
    pos = 0
    gates = {}
    for label in template.gates:
        g = np.zeros((dim, dim))
        g[0, 0] = 1.0
        g[1:, :] = theta[pos : pos + (dim - 1) * dim].reshape(dim - 1, dim)
        pos += (dim - 1) * dim
        gates[label] = g
    prep = np.empty(dim)
    prep[0] = 1.0 / math.sqrt(d)
    prep[1:] = theta[pos : pos + dim - 1]
    pos += dim - 1
    effects = []
    trace_covec = np.zeros(dim)
    trace_covec[0] = math.sqrt(d)
    acc = np.zeros(dim)
    for _ in range(template.num_effects - 1):
        e = theta[pos : pos + dim].copy()
        pos += dim
        effects.append(e)
        acc += e
    effects.append(trace_covec - acc)
    return GateSet(gates, prep, tuple(effects), template.two_qubit_labels)


# ---------------------------------------------------------------------------
# Analytic derivatives


def _forward(gs: GateSet, start: np.ndarray, labels) -> np.ndarray:
    """The stack of ``start`` (a state, a ``D x k`` block of states or a
    matrix) carried forward through ``labels``: entry ``t`` is
    ``G_t ... G_1 start``, for ``t = 0..n``."""
    stack = np.empty((len(labels) + 1, *start.shape))
    stack[0] = state = start
    for t, label in enumerate(labels, start=1):
        state = np.matmul(_gate(gs, label), state, out=stack[t])
    return stack


def _backward(gs: GateSet, end: np.ndarray, labels) -> np.ndarray:
    """The stack of the rows ``end`` carried backward through ``labels``:
    entry ``t`` is ``end G_n ... G_{t+1}``, for ``t = 0..n``."""
    stack = np.empty((len(labels) + 1, *end.shape))
    stack[-1] = rows = end
    for t in range(len(labels), 0, -1):
        rows = np.matmul(rows, _gate(gs, labels[t - 1]), out=stack[t - 1])
    return stack


def _effect_sign_matrix(m: int) -> np.ndarray:
    """s[j, l] = d p_j / d (E_l entries) sign; the last effect is -sum of others."""
    s = np.zeros((m, m - 1))
    s[: m - 1, :] = np.eye(m - 1)
    s[m - 1, :] = -1.0
    return s


def probability_jacobian(gs: GateSet, circuit: Circuit) -> np.ndarray:
    """d p_j / d theta, shape (num_effects, n_params).

    A gate appearing r times in the circuit contributes r rank-1 terms to
    its block, one per occurrence, via cached prefix states and suffix
    effect rows.
    """
    dim = gs.dim
    m = gs.num_effects
    labels = circuit.labels
    blocks = param_blocks(gs)
    jac = np.zeros((m, n_params(gs)))

    states = _forward(gs, gs.prep, labels)
    rows = _backward(gs, gs.effect_matrix(), labels)

    for i, label in enumerate(labels, start=1):
        contrib = np.einsum("ja,b->jab", rows[i][:, 1:], states[i - 1])
        jac[:, blocks[label]] += contrib.reshape(m, -1)

    jac[:, blocks["rho"]] = rows[0][:, 1:]

    sgn = _effect_sign_matrix(m)
    final_state = states[-1]
    meas = blocks["meas"]
    for l in range(m - 1):
        jac[:, meas.start + l * dim : meas.start + (l + 1) * dim] = np.outer(sgn[:, l], final_state)
    return jac


def fiducial_jacobians(gs: GateSet, prep_fiducials, meas_fiducials, body, pairs) -> np.ndarray:
    """Probability Jacobians of the circuits ``F_j body H_i``, one for
    each ``(j, i)`` of ``pairs``, shape ``(len(pairs), num_effects,
    n_params)``; an unknown label raises :class:`GateSetError`.

    The block of prep-fiducial states ``[F_j rho]`` is carried forward
    through the label sequence ``body`` once, and the block of effect rows
    ``[E_l H_i]`` backward through it once.  A gate label's columns are
    then one product over the label's positions in the body for each grid
    of pairs (prep fiducials that share their measurement fiducials),
    taken in chunks of at most :data:`gstdesign.held.STACK_BYTES` of
    gathered states and rows.  Positions inside the fiducials are taken
    per fiducial.  Equal to :func:`probability_jacobian`, the one-circuit
    reference, to rounding, not bit for bit.
    """
    dim, m = gs.dim, gs.num_effects
    blocks = param_blocks(gs)
    preps = sorted({j for j, _ in pairs})
    meass = sorted({i for _, i in pairs})
    col_of = [preps.index(j) for j, _ in pairs]
    row_of = [meass.index(i) for _, i in pairs]
    prep_states = [_forward(gs, gs.prep, prep_fiducials[j].labels) for j in preps]
    meas_rows = [_backward(gs, gs.effect_matrix(), meas_fiducials[i].labels) for i in meass]

    # states[t] is the state block after t body labels, effects[t] the effect
    # rows that reach it from the body's end
    states = _forward(gs, np.column_stack([s[-1] for s in prep_states]), body)
    effects = _backward(gs, np.vstack([r[0] for r in meas_rows]), body).reshape(len(body) + 1, len(meass), m, dim)

    jac = np.zeros((len(pairs), m, n_params(gs)))
    _add_body_columns(jac, gs, body, states, effects, col_of, row_of)

    for c, before in enumerate(prep_states):
        n = [k for k, cc in enumerate(col_of) if cc == c]
        labels = prep_fiducials[preps[c]].labels
        after = _backward(gs, effects[0, [row_of[k] for k in n]], labels)
        for s in range(len(labels), 0, -1):
            jac[n, :, blocks[labels[s - 1]]] += (after[s][..., 1:, None] * before[s - 1]).reshape(len(n), m, -1)
        jac[n, :, blocks["rho"]] = after[0][..., 1:]

    final = np.empty((len(pairs), dim))
    for r, rows in enumerate(meas_rows):
        n = [k for k, rr in enumerate(row_of) if rr == r]
        labels = meas_fiducials[meass[r]].labels
        state = _forward(gs, states[-1][:, np.array(col_of)[n]], labels)
        for s, label in enumerate(labels, start=1):
            jac[n, :, blocks[label]] += (rows[s][:, 1:, None] * state[s - 1].T[:, None, None]).reshape(len(n), m, -1)
        final[n] = state[-1].T

    sgn = _effect_sign_matrix(m)
    jac[:, :, blocks["meas"]] = (sgn[:, :, None] * final[:, None, None, :]).reshape(len(pairs), m, -1)
    return jac


def _add_body_columns(jac, gs: GateSet, body, states, effects, col_of, row_of) -> None:
    """Add the body's gate positions to ``jac``, whose pair ``n`` is column
    ``col_of[n]`` of ``states`` and row block ``row_of[n]`` of ``effects``:
    per label, one product over its positions per grid of pairs (prep
    columns that share their row blocks), at most
    :data:`~gstdesign.held.STACK_BYTES` of gathered rows at a time."""
    if not body:
        return
    dim, m = gs.dim, gs.num_effects
    blocks = param_blocks(gs)
    rows_of: dict[int, list[int]] = {}
    for c, r in zip(col_of, row_of):
        rows_of.setdefault(c, []).append(r)
    grids: dict[tuple, list[int]] = {}
    for c, rows in rows_of.items():
        grids.setdefault(tuple(sorted(rows)), []).append(c)
    picks = []  # per grid: its rows and columns, its pairs and their cells in it
    for rows, cols in grids.items():
        n = [k for k, c in enumerate(col_of) if c in cols]
        cells = ([rows.index(row_of[k]) for k in n], [cols.index(col_of[k]) for k in n])
        picks.append((list(rows), cols, n, cells))
    # a position's effect rows, meas x m x (D - 1), and states, D x preps
    chunk = max(1, held.STACK_BYTES // (8 * (effects.shape[1] * m * (dim - 1) + dim * states.shape[2])))
    for label in dict.fromkeys(body):
        positions = np.array([t for t, lab in enumerate(body) if lab == label])
        for lo in range(0, len(positions), chunk):
            at = positions[lo : lo + chunk]
            after, before = effects[at + 1, :, :, 1:], states[at]
            for rows, cols, n, (r, c) in picks:
                left = after[:, rows].reshape(len(at), -1)
                right = before[:, :, cols].reshape(len(at), -1)
                # np.dot, not matmul: one position leaves left.T a unit axis, on
                # which matmul skips BLAS and runs several times slower
                grid = np.dot(left.T, right).reshape(len(rows), m, dim - 1, dim, len(cols))
                jac[n, :, blocks[label]] += grid[r, :, :, :, c].reshape(len(r), m, -1)


def probability_hessian(gs: GateSet, circuit: Circuit) -> np.ndarray:
    """d^2 p_j / d theta^2, shape (num_effects, n_params, n_params).

    O(depth^2) small matrix products; intended for short circuits (tests,
    Fisher-information cross checks), not for deep germ-power circuits.
    """
    dim = gs.dim
    m = gs.num_effects
    labels = circuit.labels
    n = len(labels)
    npar = n_params(gs)
    blocks = param_blocks(gs)
    hess = np.zeros((m, npar, npar))

    states = _forward(gs, gs.prep, labels)
    rows = _backward(gs, gs.effect_matrix(), labels)
    prefix_mats = _forward(gs, np.eye(dim), labels)  # prefix_mats[i] = G_i ... G_1
    suffix_mats = _backward(gs, np.eye(dim), labels)  # suffix_mats[i] = G_n ... G_{i+1}

    sgn = _effect_sign_matrix(m)
    meas = blocks["meas"]
    rho = blocks["rho"]

    def add_sym(rows_slice: slice, cols_slice: slice, block: np.ndarray) -> None:
        hess[:, rows_slice, cols_slice] += block
        hess[:, cols_slice, rows_slice] += np.swapaxes(block, 1, 2)

    for i in range(1, n + 1):
        k_i = labels[i - 1]
        s_prev = states[i - 1]
        # gate(i) x gate(i2) for i2 > i, mid the product of the gates between them
        for i2, mid in zip(range(i + 1, n + 1), _forward(gs, np.eye(dim), labels[i : n - 1])):
            # [j, (a,b), (c,d)] = rows[i2][j,c] * mid[d,a] * s_prev[b]
            blk = np.einsum("jc,da,b->jabcd", rows[i2][:, 1:], mid[:, 1:], s_prev)
            blk = blk.reshape(m, (dim - 1) * dim, (dim - 1) * dim)
            add_sym(blocks[k_i], blocks[labels[i2 - 1]], blk)
        # gate(i) x rho
        blk = np.einsum("ja,bc->jabc", rows[i][:, 1:], prefix_mats[i - 1][:, 1:])
        add_sym(blocks[k_i], rho, blk.reshape(m, (dim - 1) * dim, dim - 1))
        # gate(i) x effect l
        for l in range(m - 1):
            blk = np.einsum("j,ca,b->jabc", sgn[:, l], suffix_mats[i][:, 1:], s_prev)
            cols = slice(meas.start + l * dim, meas.start + (l + 1) * dim)
            add_sym(blocks[k_i], cols, blk.reshape(m, (dim - 1) * dim, dim))

    # rho x effect l
    full = prefix_mats[n]
    for l in range(m - 1):
        blk = np.einsum("j,cb->jbc", sgn[:, l], full[:, 1:])
        cols = slice(meas.start + l * dim, meas.start + (l + 1) * dim)
        add_sym(rho, cols, blk)

    return hess


# ---------------------------------------------------------------------------
# Gauge structure


def gauge_tangent(gs: GateSet) -> np.ndarray:
    """Parameter-space images of the infinitesimal TP gauge generators, an
    ``n_params x (D^2 - D)`` basis.

    Column ``(a - 1) D + b`` is the generator ``K = E_ab`` (a >= 1, so the
    first row stays zero): gates move by ``K G - G K``, the prep by
    ``K rho`` and effects by ``-E K``.  In the row-major parameter layout
    each operation's block is one Kronecker product: ``kron(I', G^T) -
    kron(G', I)`` for a gate (primes drop the first row and column),
    ``kron(I', rho^T)`` for the prep and ``-kron(E[1:], I)`` for a free
    effect.  Each block is written by index into one zeroed array, which
    gives the Kronecker products' bits up to the sign of zeros.  Adding
    ``0.0`` then makes every zero positive, so the basis, and any product
    or factorization of it, does not depend on how each zero was
    produced.
    """
    dim = gs.dim
    blocks = param_blocks(gs)
    basis = np.zeros((n_params(gs), (dim - 1) * dim))
    inner, outer = np.arange(dim - 1), np.arange(dim)
    for label, g in gs.gates.items():
        # entry ((a, b), (c, d)) is delta_ac G[d, b] - G[a + 1, c + 1] delta_bd
        block = basis[blocks[label]].reshape(dim - 1, dim, dim - 1, dim)
        block[inner, :, inner, :] = g.T
        block[:, outer, :, outer] -= g[1:, 1:]
    basis[blocks["rho"]].reshape(dim - 1, dim - 1, dim)[inner, inner, :] = gs.prep
    for l, e in enumerate(gs.effects[:-1]):
        rows = slice(blocks["meas"].start + l * dim, blocks["meas"].start + (l + 1) * dim)
        basis[rows].reshape(dim, dim - 1, dim)[outer, :, outer] = -e[1:]
    basis += 0.0
    return basis


def non_gauge_count(gs: GateSet) -> int:
    """Number of physically observable parameters: ``n_params`` minus the
    :func:`gram_rank` of the gauge tangent's ``(D^2 - D)``-wide Gram.

    This is the frame width certification reads spectra in.  The tangent
    loses rank below ``D^2 - D`` only where a nonzero TP generator fixes
    every gate, the prep and the effects.  On the bundled targets and
    their default evaluation models it has full rank (31 non-gauge
    parameters on XYI, 1023 on XYCPHASE): the kept singular values are at
    least 0.10 of the largest (0.23 on the gate rows) and the dropped ones
    at most 2.3e-16, far from the cutoff.
    """
    basis = gauge_tangent(gs)
    return n_params(gs) - gram_rank(basis.T @ basis)


def amplifiable_count(gs: GateSet) -> int:
    """Gate parameters minus the gauge tangent's rank within gate coordinates.

    The gauge direction ``diag(0, 1, ..., 1)``, which rescales all
    traceless components, commutes with every unital gate (one whose first
    column is ``(1, 0, ..., 0)``: it maps the identity to itself).  While
    every gate is unital it moves no gate, drops out of the projected rank
    and is excluded from the count automatically; ideal targets, coherent
    perturbations and depolarization all keep gates unital.  A non-unital
    gate brings it back and the target drops by one.  The rank is the
    :func:`gram_rank` of the gate rows' Gram.
    """
    # gates lead the parameter order, so their rows are the basis's first
    n_gate = param_blocks(gs)["rho"].start
    gate_rows = gauge_tangent(gs)[:n_gate]
    return n_gate - gram_rank(gate_rows.T @ gate_rows)


def apply_gauge_transform(gs: GateSet, mat: np.ndarray) -> GateSet:
    """Similarity-transform every operation: G -> M G M^-1, rho -> M rho, E -> E M^-1."""
    mat = np.asarray(mat, float)
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond >= 1e8:
        raise GateSetError(f"gauge transform is singular or ill conditioned (cond={cond:.3g})")
    minv = np.linalg.inv(mat)
    return GateSet(
        gates={k: mat @ g @ minv for k, g in gs.gates.items()},
        prep=mat @ gs.prep,
        effects=tuple(e @ minv for e in gs.effects),
        two_qubit_labels=gs.two_qubit_labels,
    )
