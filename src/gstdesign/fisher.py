"""Fisher-information assembly and experiment-design certification.

Per circuit the Fisher information under multinomial sampling is
``N_c sum_i (1/p_i) (grad p_i)(grad p_i)^T`` (the Hessian terms cancel
because outcome probabilities sum to one); information is additive over
circuits, so a design's matrix is the sum over its circuit list.  Row 0
of a circuit's Jacobian, in the columns of effect 0, is its output state
``v``, so its probabilities are ``p = E v`` with no second walk.  Each
circuit's weighted rows ``sqrt(N_c / p_i) grad p_i`` are written once,
in place, into a stack ``W`` of ``FIM_BLOCK`` circuits, and the blocks
are added in row order as :class:`HeldFim` sums (:func:`circuits_fim`).
The block size bounds the memory of ``W``; the summation order is fixed,
so the result depends on nothing but the rows and the BLAS build (BLAS
threading may change the last bits of the products).

Series bucket each deduplicated circuit at the smallest max depth at
which it enters the design.  :func:`bucket_fims` builds the incremental
matrix of each bucket once; cumulative matrices are their prefix sums.
Its Jacobians come from one walk per *body* (:func:`bucket_jacobians`),
the label sequence that circuits ``F_j body H_i`` share: a plaquette's
germ power, or a base-layer body (the empty one or one gate).
:func:`~gstdesign.model.fiducial_jacobians` carries the prep-fiducial
states forward and the effect rows backward through the body once and
gives the rows of all its pairs.  A circuit that no body reaches falls
back to :func:`~gstdesign.model.probability_jacobian`, the one-circuit
reference.  In each bucket the rows come body by body in walk order,
then the fallback circuits sorted by labels, and a circuit two bodies
reach belongs to the first; so the sums do not depend on the order of
the design's circuit list.  The walk agrees with the reference to
rounding, not bit for bit.  On XYI designs to L = 1024 and XYCPHASE
designs to L = 16 its Jacobian entries are within 4e-15 of each
circuit's largest one, and one circuit's Fisher matrix is within 1e-12
of :func:`circuit_fim`'s largest entry at the certification clip floor;
at the hard floor ``PROB_CLIP_FLOOR`` it is within 1e-8, because ``1/p``
magnifies the rounding of probabilities near zero.

Each sum has one column per parameter and is held by its smaller side
(:class:`~gstdesign.held.HeldFim`): as its rows ``F`` while they are
fewer than its width, so a two-qubit bucket of a few hundred rows is
never squared into a 1263-wide matrix of rounding noise, and as its Gram
``F^T F`` from then on.  Both forms are read by :mod:`gstdesign.held`'s
two rules: rounding-noise eigenvalues read ``0.0``, and Rayleigh
quotients come from the rows or the Gram.
When a whole design has fewer rows than parameters, :func:`bucket_fims`
writes its rows once, in :func:`bucket_jacobians` order, into one stack
allocated up front, which every bucket matrix and every cumulative
matrix views.

Spectra are read in the non-gauge frame of the model the matrices were
evaluated at (:class:`NongaugeFrame`), but no row is mapped into it:
outcome probabilities are gauge invariant at that model, so ``W Q1 = 0``
for its gauge directions ``Q1``, and each matrix's spectrum is its
non-gauge spectrum plus one rounding-level eigenvalue per gauge
direction, which the noise rule reads as ``0.0``.  The frame is the one
source of every series, and its dimension is ``n_params`` less the gauge
tangent's rank; a series lists the non-gauge eigenvalues in descending
order followed by one ``0.0`` per gauge direction, which is the
full-frame spectrum in exact arithmetic.  A projected series slices one
operation's block from the same matrices.

Certification (:func:`certify_design`) classifies each eigen-direction
of the deepest cumulative matrix, at a point unitarily perturbed off the
target (degenerate spectra at the exact target hide the standard germ
set's deficiencies), as growing or plateaued from the log-log slope of
its Rayleigh quotient across depths.  A well-constructed design plateaus
only in SPAM-dominated directions, which no germ repetition can amplify.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .design import ExperimentDesign, design_bodies
from .germs import GERM_STACK_BYTES, amplifiable_count
from .held import HeldFim, above_noise, padded_spectrum
from .model import (
    Circuit,
    GateSet,
    circuit_probabilities,
    fiducial_jacobians,
    gauge_tangent,
    n_params,
    param_blocks,
    probability_hessian,
    probability_jacobian,
    require_labels,
    write_json,
)
from .noise import PROB_CLIP_FLOOR, NoiseSpec, sample_noisy_gateset

__all__ = [
    "FisherSeries",
    "HeldFim",
    "NongaugeFrame",
    "CertificationError",
    "CertificationReport",
    "circuit_fim",
    "circuit_fim_hessian_form",
    "circuits_fim",
    "bucket_fims",
    "bucket_jacobians",
    "cumulative_series",
    "incremental_series",
    "block_series",
    "require_certifiable",
    "certify_design",
    "default_eval_model",
    "series_to_csv",
    "DEFAULT_SHOTS",
    "FIM_BLOCK",
    "SLOPE_THRESHOLD",
    "FIT_FRACTION",
    "INSENSITIVE_REL",
]

DEFAULT_SHOTS = 1000
# circuits per added block of rows W, which bounds its memory; a two-qubit W is about 10 MB
FIM_BLOCK = 256
# certification: a direction grows when its log-log slope, fitted over the
# trailing FIT_FRACTION of the schedule, reaches SLOPE_THRESHOLD; it is
# insensitive below INSENSITIVE_REL times the deepest layer's median information
SLOPE_THRESHOLD = 0.8
FIT_FRACTION = 0.5
INSENSITIVE_REL = 1e-6


def circuit_fim(
    gs: GateSet, circuit: Circuit, shots: int = DEFAULT_SHOTS, clip_floor: float = PROB_CLIP_FLOOR
) -> np.ndarray:
    """Outer-product form ``N_c sum_i (1/p_i) grad p_i grad p_i^T`` of one
    circuit, the reference for :func:`circuits_fim`.

    Probabilities are clipped to ``[clip_floor, 1]`` inside the inverse, so
    exact zeros never divide out.
    """
    jac = probability_jacobian(gs, circuit)
    p = np.clip(circuit_probabilities(gs, circuit), clip_floor, 1.0)
    return shots * (jac.T @ (jac / p[:, None]))


def circuit_fim_hessian_form(
    gs: GateSet, circuit: Circuit, shots: int = DEFAULT_SHOTS, clip_floor: float = PROB_CLIP_FLOOR
) -> np.ndarray:
    """Hessian-inclusive form; equals the outer-product form when the
    probabilities are normalized (the Hessian slices sum to zero)."""
    jac = probability_jacobian(gs, circuit)
    hess = probability_hessian(gs, circuit)
    p = np.clip(circuit_probabilities(gs, circuit), clip_floor, 1.0)
    return shots * (jac.T @ (jac / p[:, None]) - hess.sum(axis=0))


def circuits_fim(
    gs: GateSet,
    circuits,
    shots: int = DEFAULT_SHOTS,
    clip_floor: float = PROB_CLIP_FLOOR,
    *,
    jacobians=None,
    out: np.ndarray | None = None,
) -> HeldFim:
    """Summed Fisher matrix of ``circuits``, one column per parameter.

    Each circuit's weighted rows are written once, in circuit order.
    ``out``, when given, receives all of them (one row per circuit and
    outcome, such as a bucket's slice of :func:`bucket_fims`' stack) and
    is returned held by its smaller side.  Otherwise the sum is the empty
    matrix plus, in order, the rows ``W`` of each block of ``FIM_BLOCK``
    circuits, so :class:`HeldFim`'s sum decides whether the result is
    held as its rows or as its Gram (see the module docstring).

    ``jacobians``, when given, yields each circuit's probability Jacobian
    in circuit order (as :func:`bucket_jacobians` does); otherwise each comes
    from :func:`~gstdesign.model.probability_jacobian`.
    """
    circuits = list(circuits)
    if jacobians is None:
        jacobians = (probability_jacobian(gs, c) for c in circuits)
    jacobians = iter(jacobians)
    if out is not None:
        return HeldFim.from_rows(_weighted_rows(gs, circuits, jacobians, shots, clip_floor, out))
    width, per = n_params(gs), gs.num_effects
    total = HeldFim(rows=np.zeros((0, width)))
    for lo in range(0, len(circuits), FIM_BLOCK):
        block = circuits[lo : lo + FIM_BLOCK]
        total += HeldFim.from_rows(
            _weighted_rows(gs, block, jacobians, shots, clip_floor, np.empty((len(block) * per, width)))
        )
    return total


def _weighted_rows(
    gs: GateSet, circuits: list, jacobians, shots: int, clip_floor: float, out: np.ndarray
) -> np.ndarray:
    """Write ``sqrt(N_c / p_i) grad p_i`` of each of ``circuits``, drawing
    its Jacobian from ``jacobians``, into consecutive rows of ``out``."""
    effects, per = gs.effect_matrix(), gs.num_effects
    # row 0 of a Jacobian, in effect 0's columns, is the circuit's output state v
    meas = param_blocks(gs)["meas"].start
    for k, (_, jac) in enumerate(zip(circuits, jacobians)):
        p = np.clip(effects @ jac[0, meas : meas + gs.dim], clip_floor, 1.0)
        np.multiply(jac, np.sqrt(shots / p)[:, None], out=out[k * per : (k + 1) * per])
    return out


def certification_clip_floor(shots: int) -> float:
    """Probability floor used for certification: the resolution scale of
    ``shots`` samples.  Outcomes rarer than one event per shot budget are
    statistically indistinguishable from zero, and letting their inverse
    run to the hard clip floor floods the spectra with depth-independent
    information that masks the growth signature certification looks for."""
    return max(PROB_CLIP_FLOOR, 1.0 / shots)


@dataclass(frozen=True)
class FisherSeries:
    """Eigen-spectra of Fisher matrices across the depth schedule."""

    maxdepths: tuple[int, ...]
    spectra: tuple[tuple[float, ...], ...]  # per depth, one value per parameter, largest first


def bucket_jacobians(gs: GateSet, design: ExperimentDesign):
    """Yield, for each max-depth bucket in schedule order, its circuits in
    row order and an iterator over their probability Jacobians.

    Circuits some body reaches come first, body by body in walk order
    (:func:`~gstdesign.design.design_bodies`), each body's from one
    :func:`~gstdesign.model.fiducial_jacobians` walk; the circuits no body
    reaches follow, sorted by labels, each from
    :func:`~gstdesign.model.probability_jacobian`.  Neither order depends
    on the order of the design's circuit list.  Labels are checked first
    (:func:`~gstdesign.model.require_labels`)."""
    require_labels(gs, [c.labels for c in design.circuits])
    bodies, rest = design_bodies(design, gs.labels)
    walks: dict[int, dict] = {depth: {} for depth in design.maxdepths}
    for body, owned in bodies:
        for j, i, n in owned:
            walks[design.buckets[n]].setdefault(body, []).append((j, i, n))
    for depth in design.maxdepths:
        fallback = sorted((design.circuits[n] for n in rest if design.buckets[n] == depth), key=lambda c: c.labels)
        owned = [design.circuits[n] for pairs in walks[depth].values() for _, _, n in pairs]
        yield owned + fallback, _walk_jacobians(gs, design, walks[depth], fallback)


def _walk_jacobians(gs: GateSet, design: ExperimentDesign, walks: dict, fallback: list[Circuit]):
    """Each circuit's Jacobian in :func:`bucket_jacobians`' row order."""
    for body, pairs in walks.items():
        yield from fiducial_jacobians(
            gs, design.prep_fiducials, design.meas_fiducials, body, [(j, i) for j, i, _ in pairs], GERM_STACK_BYTES
        )
    for c in fallback:
        yield probability_jacobian(gs, c)


def bucket_fims(
    gs: GateSet,
    design: ExperimentDesign,
    shots: int = DEFAULT_SHOTS,
    clip_floor: float = PROB_CLIP_FLOOR,
) -> tuple[HeldFim, ...]:
    """Incremental Fisher matrix of each max-depth bucket, in schedule order,
    one column per parameter, each a :func:`circuits_fim` sum held by
    :class:`HeldFim`'s rule: the one place a design's per-bucket matrices
    are built.  Rows come from :func:`bucket_jacobians`.

    When the whole design has fewer weighted rows than parameters, one
    ``(rows, n_params)`` stack is allocated up front and each bucket's
    rows are written once, in :func:`bucket_jacobians` order, into its
    slice: every bucket matrix is a row-held view of that stack (its
    ``rows.base``)."""
    stack = np.empty((len(design.circuits) * gs.num_effects, n_params(gs))) if _rows_held(gs, design) else None
    fims, lo = [], 0
    for circuits, jacobians in bucket_jacobians(gs, design):
        hi = lo + len(circuits) * gs.num_effects
        out = None if stack is None else stack[lo:hi]
        fims.append(circuits_fim(gs, circuits, shots, clip_floor, jacobians=jacobians, out=out))
        lo = hi
    return tuple(fims)


def _rows_held(gs: GateSet, design: ExperimentDesign) -> bool:
    """Whether ``design``'s summed Fisher matrix at ``gs`` is held as its
    rows: one per circuit and outcome, fewer than the parameters."""
    return len(design.circuits) * gs.num_effects < n_params(gs)


class NongaugeFrame:
    """A design's bucket matrices, read in the non-gauge frame of one model.

    The :func:`~gstdesign.model.gauge_tangent` of ``gs`` is taken once; its
    Gram rank gives the non-gauge dimension ``dim``, and the dense tangent
    is dropped before any row is written.  ``increments`` (the
    design's :func:`bucket_fims`, built once) and their prefix sums
    ``cumulative`` are :class:`HeldFim` sums, one column per parameter,
    held by its smaller-side rule.  No row is mapped into the frame:
    outcome probabilities are gauge invariant at the frame's model, so
    ``W Q1 = 0`` for its gauge directions ``Q1``, and a matrix's spectrum
    is its ``dim`` non-gauge eigenvalues plus one rounding-level eigenvalue
    per gauge direction, which :func:`~gstdesign.held.padded_spectrum`
    reads as ``0.0``.  Every spectrum is the first ``dim`` entries of the
    held matrix's padded spectrum.  Probabilities are clipped at
    :func:`certification_clip_floor` of ``shots``.

    Eigensolves are cached, so no matrix is solved twice.  The deepest
    cumulative matrix is solved by one ``eigh`` of its Gram or, when it
    is row-held, of its ``m x m`` row Gram ``G = F F^T``; the eigenpairs
    above rounding noise are the tracked directions (:meth:`deepest`).
    More than ``dim`` of them means gauge has leaked into the rows, and
    raises :class:`CertificationError`.  When the deepest matrix is
    row-held (fewer rows than ``n_params``), so is every other one: the
    rows are written once, in :func:`bucket_jacobians` order, into the one
    stack :func:`bucket_fims` allocates, bucket matrix ``k`` is a view of
    its rows of the stack and cumulative matrix ``k`` a view of the first
    ``m_k`` rows, its trajectories are prefix sums
    (:meth:`trajectories`), and any other spectrum is ``eigvalsh`` of a
    diagonal block of ``G``.  No eigensolve is wider than the rows it
    comes from.
    """

    def __init__(self, gs: GateSet, design: ExperimentDesign, shots: int = DEFAULT_SHOTS):
        tangent = gauge_tangent(gs)
        self.n_params, self.dim = tangent.n_params, tangent.dim
        del tangent  # dense, n_params x (D^2 - D): dropped before any row exists
        self.increments = bucket_fims(gs, design, shots, certification_clip_floor(shots))
        self._row_held = _rows_held(gs, design)
        # where each cumulative matrix ends: its row count when row-held, else
        # its bucket count
        if self._row_held:
            # every bucket is a view of one stack, and so is each prefix of it
            self._ends = np.cumsum([len(m.rows) for m in self.increments]).tolist()
            stack = self.increments[0].rows.base
            self.cumulative = self.increments[:1] + tuple(HeldFim(rows=stack[:hi]) for hi in self._ends[1:])
        else:
            self._ends = list(range(1, len(self.increments) + 1))
            self.cumulative = tuple(itertools.accumulate(self.increments))
        self._spectra: dict[tuple[int, int], np.ndarray] = {}

    @cached_property
    def _row_gram(self) -> np.ndarray:
        """``F F^T`` of a row-held deepest cumulative matrix's rows ``F``."""
        rows = self.cumulative[-1].rows
        return rows @ rows.T

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenpairs above rounding noise of the deepest
        cumulative matrix's Gram, or of its row Gram when it is row-held;
        :class:`CertificationError` when there are more than ``dim``."""
        evals, vecs = np.linalg.eigh(self._row_gram if self._row_held else self.cumulative[-1].gram)
        noise = len(evals) - np.count_nonzero(above_noise(evals))
        if len(evals) - noise > self.dim:
            raise CertificationError(
                f"the deepest Fisher matrix has {len(evals) - noise} eigenvalues above rounding noise, more than"
                f" the evaluation model's {self.dim} non-gauge directions: gauge has leaked into its rows"
            )
        return evals[noise:], vecs[:, noise:]

    def deepest(self) -> np.ndarray:
        """Ascending information of the directions certification tracks:
        the deepest cumulative matrix's eigenvalues above rounding noise."""
        return self._eigh[0]

    def spectrum(self, cumulative: bool, index: int) -> np.ndarray:
        """Non-gauge eigenvalues, descending, of bucket matrix ``index`` or,
        when ``cumulative``, of its prefix sum: the first ``dim`` entries
        of its spectrum by :func:`~gstdesign.held.padded_spectrum`'s rule."""
        index = range(len(self.increments))[index]  # -1 and the last index share a cache entry
        # the matrix's span lo:hi of the deepest one's rows, or of the buckets;
        # a first bucket shares its entry with the first cumulative matrix
        key = (0 if cumulative or index == 0 else self._ends[index - 1], self._ends[index])
        if key not in self._spectra:
            if key == (0, self._ends[-1]):
                spectrum = padded_spectrum(self._eigh[0], self.n_params)
            elif self._row_held:
                rows = slice(*key)
                spectrum = padded_spectrum(np.linalg.eigvalsh(self._row_gram[rows, rows]), self.n_params)
            else:
                spectrum = (self.cumulative if key[0] == 0 else self.increments)[index].eigvalsh()
            self._spectra[key] = spectrum[: self.dim]
        return self._spectra[key]

    def trajectories(self, indices) -> np.ndarray:
        """``v^T M v`` for each direction ``v`` :meth:`deepest` lists (one
        output column each) and each cumulative matrix ``M`` in ``indices``
        (one output row each).  For a Gram-held deepest matrix ``v`` is its
        eigenvector and each ``M`` gives :meth:`HeldFim.rayleigh`.  For a
        row-held one, row Gram eigenpair ``(lambda, u)`` has direction
        ``v = F^T u / sqrt(lambda)``, and ``M``'s rows are the first ``m_k``
        of ``F``, so ``||F_k v||^2 = lambda sum_{i < m_k} u_i^2``: a prefix
        sum of ``u^2``, with ``v`` never formed."""
        evals, vecs = self._eigh
        if self._row_held:
            sums = np.cumsum(np.vstack([np.zeros(len(evals)), vecs**2]), axis=0)
            return evals * sums[[self._ends[i] for i in indices]]
        return np.array([self.cumulative[i].rayleigh(vecs) for i in indices])


def _frame_series(design: ExperimentDesign, frame: NongaugeFrame, cumulative: bool) -> FisherSeries:
    """Each depth's non-gauge eigenvalues in descending order followed by
    ``0.0`` for each gauge direction, one value per parameter.  At the
    frame's model the gauge directions carry no information, so in exact
    arithmetic this is the spectrum of the full-frame matrix."""
    gauge = (0.0,) * (frame.n_params - frame.dim)
    return FisherSeries(
        maxdepths=design.maxdepths,
        spectra=tuple(
            tuple(frame.spectrum(cumulative, k).tolist()) + gauge for k in range(len(design.maxdepths))
        ),
    )


def cumulative_series(design: ExperimentDesign, frame: NongaugeFrame) -> FisherSeries:
    """Series of the frame's cumulative matrices (see :func:`_frame_series`)."""
    return _frame_series(design, frame, True)


def incremental_series(design: ExperimentDesign, frame: NongaugeFrame) -> FisherSeries:
    """Series of the frame's bucket matrices (see :func:`_frame_series`)."""
    return _frame_series(design, frame, False)


def block_series(design: ExperimentDesign, frame: NongaugeFrame, columns: slice) -> FisherSeries:
    """Series of each bucket matrix restricted to one operation's parameter
    block ``columns`` (its :func:`~gstdesign.model.param_blocks` entry) and
    zero elsewhere: each block, sliced from the frame's ``increments`` and
    held by :class:`HeldFim`'s rule, gives its eigenvalues and one ``0.0``
    per other parameter."""
    blocks = (
        HeldFim(gram=m.gram[columns, columns]) if m.rows is None else HeldFim.from_rows(m.rows[:, columns])
        for m in frame.increments
    )
    return FisherSeries(
        maxdepths=design.maxdepths,
        spectra=tuple(
            tuple(np.concatenate([m.eigvalsh(), np.zeros(frame.n_params - m.width)]).tolist()) for m in blocks
        ),
    )


@dataclass
class CertificationReport:
    """``slopes`` has one entry per direction, in ascending order of
    ``total_information``; the counts and verdict follow from :meth:`classifications`."""

    maxdepths: tuple[int, ...]
    spam_budget: int
    slopes: list[float]
    total_information: list[float]
    insensitive: list[int]
    gauge_null_count: int

    def classifications(self) -> list[str]:
        """One label per row of a cumulative series: row ``k`` is the
        direction with the ``k``-th largest deepest-depth eigenvalue,
        ``growing`` or ``plateaued``, then one ``gauge`` per gauge direction."""
        labels = ["growing" if s >= SLOPE_THRESHOLD else "plateaued" for s in reversed(self.slopes)]
        return labels + ["gauge"] * self.gauge_null_count

    @property
    def growing(self) -> int:
        return self.classifications().count("growing")

    @property
    def plateaued(self) -> int:
        return len(self.slopes) - self.growing

    @property
    def well_constructed(self) -> bool:
        return self.plateaued <= self.spam_budget

    @property
    def verdict(self) -> str:
        return "well-constructed" if self.well_constructed else "not-amplificationally-complete"

    def to_json_dict(self) -> dict:
        return {
            "maxdepths": list(self.maxdepths),
            "growing": self.growing,
            "plateaued": self.plateaued,
            "spam_budget": self.spam_budget,
            "verdict": self.verdict,
            "slopes": self.slopes,
            "total_information": self.total_information,
            "insensitive_directions": self.insensitive,
            "gauge_null_count": self.gauge_null_count,
        }


class CertificationError(ValueError):
    """A design that certification cannot classify."""


def default_eval_model(target: GateSet, seed: int = 97, sigma: float = 1e-3) -> GateSet:
    """Seeded coherent perturbation of the target, the recommended
    evaluation point for certification."""
    return sample_noisy_gateset(target, NoiseSpec("coherent-only", sigma, 0.0, seed))


def require_certifiable(design: ExperimentDesign) -> None:
    """Raise :class:`CertificationError` for a design with fewer than two
    max depths, before any Fisher matrix is built for it."""
    if len(design.maxdepths) < 2:
        raise CertificationError(
            f"certification fits log-log slopes across max depths and needs at least two;"
            f" the design has maxdepths {list(design.maxdepths)}"
        )


def certify_design(
    gs_eval: GateSet,
    design: ExperimentDesign,
    target: GateSet | None = None,
    shots: int = DEFAULT_SHOTS,
    frame: NongaugeFrame | None = None,
) -> CertificationReport:
    """Classify every non-gauge direction of the cumulative series.

    Spectra are read in the non-gauge frame of the evaluation point (see
    :class:`NongaugeFrame`), where the gauge directions carry only
    rounding noise.  The classified directions are the deepest cumulative
    matrix's eigen-directions above rounding noise, in ascending order of
    its eigenvalues, which are the report's ``total_information``; the
    noise directions and those outside a row-held matrix's span come
    first with exactly ``0.0`` information and slope ``0.0``
    (plateaued).  Each tracked direction's trajectory is its Rayleigh
    quotient at the fitted shallower depths (tracking fixed directions
    avoids the relabeling artifacts that sorted-eigenvalue trajectories
    suffer when curves cross; see :meth:`NongaugeFrame.trajectories`).
    A direction grows if the least-squares log-log slope over the
    trailing ``FIT_FRACTION`` of the schedule reaches ``SLOPE_THRESHOLD``,
    so at least two max depths are needed (see
    :func:`require_certifiable`).  The SPAM budget (expected plateau
    count) is the frame's non-gauge dimension minus the target's
    amplifiable parameter count; the design is well constructed when no
    more than that many directions plateau.  The frame's dimension is the
    target's whenever both gauge tangents have full rank ``D^2 - D``: a
    tangent loses rank only where a nonzero TP generator fixes every gate,
    the prep and the effects.  The bundled targets and their default
    evaluation models have full rank (31 non-gauge parameters on XYI, 1023
    on XYCPHASE).  Both gauge ranks come from ``(D^2 - D)``-wide Grams.

    Insensitive directions are flagged from the deepest incremental
    matrix: eigenvalues below ``INSENSITIVE_REL`` times its median mark
    parameter directions about which the deepest circuit layer teaches
    essentially nothing (sparse fiducial-pair sampling produces exact
    rank deficits there); they are indices into its descending spectrum,
    whose exact zeros are always among them.

    Certification clips probabilities at the shot-resolution scale (see
    :func:`certification_clip_floor`) rather than the hard floor.
    ``frame`` holds the design's bucket matrices at that floor, read in
    the non-gauge frame of ``gs_eval``; it is built when not given, and
    the eigensolves done here are cached on it for the caller's spectra.
    A frame whose deepest matrix has more directions above noise than
    its dimension raises :class:`CertificationError`.
    """
    require_certifiable(design)
    target = target or gs_eval
    frame = frame or NongaugeFrame(gs_eval, design, shots)

    depths = np.asarray(design.maxdepths, float)
    n_fit = max(2, int(np.ceil(len(depths) * FIT_FRACTION)))

    evals = frame.deepest()
    # traj[depth, k] over the fitted depths: the Rayleigh quotient of direction
    # k at each shallower depth, its eigenvalue at the deepest
    traj = np.vstack([frame.trajectories(range(len(depths) - n_fit, len(depths) - 1)), evals])
    fitted = np.polyfit(np.log(depths[-n_fit:]), np.log(np.maximum(traj, 1e-300)), 1)[0]
    # directions outside a row-held deepest matrix's rows, or at rounding
    # noise, carry no information
    unseen = np.zeros(frame.dim - len(evals))
    slopes, total_information = np.concatenate([unseen, fitted]), np.concatenate([unseen, evals])

    spam_budget = frame.dim - amplifiable_count(target)

    # information delivered by the deepest layer alone
    inc_evals = frame.spectrum(False, -1)
    insensitive = np.flatnonzero(inc_evals <= INSENSITIVE_REL * np.median(inc_evals))

    return CertificationReport(
        maxdepths=design.maxdepths,
        spam_budget=int(spam_budget),
        slopes=slopes.tolist(),
        total_information=total_information.tolist(),
        insensitive=insensitive.tolist(),
        gauge_null_count=frame.n_params - frame.dim,
    )


def series_to_csv(series: FisherSeries, path, classifications=None) -> None:
    """Columns: L, eigenvalue index, value, classification; written as
    ``csv.writer`` would (CRLF line ends, no quoting: no cell holds a
    comma or a quote), from one joined string."""
    classes = list(classifications or ())
    lines = ["L,eigenvalue_index,value,classification"]
    for depth, spec in zip(series.maxdepths, series.spectra):
        labels = classes[: len(spec)] + [""] * (len(spec) - len(classes))
        lines.extend(f"{depth},{k},{float(val)!r},{cls}" for k, (val, cls) in enumerate(zip(spec, labels)))
    with open(path, "w", newline="") as f:
        f.write("\r\n".join(lines) + "\r\n")


def report_to_json(report: CertificationReport, path) -> None:
    write_json(path, report.to_json_dict())
