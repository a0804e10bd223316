"""Which gstdesign functions the traced run wraps, and the per-layer metrics.

Every span wraps a function the CLI reaches through a module's public
surface (``cli._write_json`` is the one private writer, the CLI's own
JSON output path).  ``install`` patches them with a :class:`Tracer`;
``layer_metrics`` turns one traced operation into the ``per_layer``
metrics of ``BENCHMARK.json``.

Times named after a function (``model.jacobian_s``, ``germs.kite_s``, ...)
are inclusive.  ``fisher.outer_s`` is the self time of ``circuit_fim``
(the outer products, without the Jacobian and probabilities it calls),
``fisher.reduce_s`` the self time of ``circuits_fim`` (the pairwise
reduction and chunking), and ``*self_s`` the self time of the named span.
``numpy.linalg`` calls are children of the innermost open span and are
reported as ``<layer>.eig_*`` / ``fpr.svd_*``.
"""

from __future__ import annotations

import os

from tracer import Tracer

# symmetric eigensolves; the general ``eig`` inside kite_structure is part of germs.kite
EIG = ("eigh", "eigvalsh")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_labels(tr, args, kwargs, result):
    tr.counters["model.jacobian_labels"] += len(_arg(args, kwargs, 1, "circuit"))


def _count_circuits_in(tr, args, kwargs, result):
    tr.counters["fisher.circuits_in"] += len(_arg(args, kwargs, 1, "circuits"))


def _count_greedy_steps(tr, args, kwargs, result):
    tr.counters["germs.greedy_steps"] += len(result.trajectory)


def _count_built(tr, args, kwargs, result):
    tr.counters["design.circuits"] = len(result.circuits)


def _count_loaded(tr, args, kwargs, result):
    tr.counters["design.circuits"] = len(result.circuits)
    tr.counters["design.json_bytes"] = os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_simulated(tr, args, kwargs, result):
    tr.counters["noise.simulated_circuits"] += len(result.circuits)


# (module, function, span name, counter hook)
FUNCTION_SPANS = (
    ("gstdesign.model", "probability_jacobian", "model.jacobian", _count_labels),
    ("gstdesign.model", "circuit_probabilities", "model.probabilities", None),
    ("gstdesign.model", "gauge_tangent", "model.gauge", None),
    ("gstdesign.fisher", "circuit_fim", "fisher.outer", None),
    ("gstdesign.fisher", "circuits_fim", "fisher.circuits_fim", _count_circuits_in),
    ("gstdesign.fisher", "cumulative_series", "fisher.series", None),
    ("gstdesign.fisher", "incremental_series", "fisher.series", None),
    ("gstdesign.fisher", "certify_design", "fisher.certify", None),
    ("gstdesign.fpr", "per_germ_fpr", "fpr.per_germ", None),
    ("gstdesign.fpr", "kite_param_jacobian", "fpr.kite_jacobian", None),
    ("gstdesign.germs", "select_germs", "germs.select", _count_greedy_steps),
    ("gstdesign.germs", "germ_twirled_jacobian", "germs.twirled_jacobian", None),
    ("gstdesign.germs", "kite_structure", "germs.kite", None),
    ("gstdesign.design", "build_design", "design.build", _count_built),
    ("gstdesign.noise", "simulate_dataset", "noise.simulate", _count_simulated),
    ("gstdesign.wallclock", "estimate", "wallclock.estimate", None),
    ("gstdesign.fisher", "series_to_csv", "cli.write", None),
    ("gstdesign.fisher", "report_to_json", "cli.write", None),
    ("gstdesign.cli", "_write_json", "cli.write", None),
)

# (module, Class.method, span name, counter hook)
METHOD_SPANS = (
    ("gstdesign.design", "ExperimentDesign.load", "design.load", _count_loaded),
    ("gstdesign.design", "ExperimentDesign.save", "cli.write", None),
    ("gstdesign.noise", "Dataset.save", "cli.write", None),
)


def install(tracer: Tracer) -> None:
    """Patch every span of the tables above, and numpy.linalg."""
    import gstdesign.cli  # noqa: F401  (loads every module the spans name)

    for module, attr, name, hook in FUNCTION_SPANS:
        if tracer.patch_function(module, attr, name, hook) == 0:
            raise RuntimeError(f"no call site found for {module}.{attr}")
    for module, qualname, name, hook in METHOD_SPANS:
        tracer.patch_method(module, qualname, name, hook)
    tracer.patch_linalg()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced operation (name -> value)."""
    c = tr.counters
    jac = tr.get("model.jacobian")
    fisher_eig = tr.linalg("fisher.", EIG)
    fpr_svd = tr.linalg("fpr.", ("svd",))
    scored = tr.linalg("fpr.per_germ", ("svd",)).calls
    kite_jac = tr.get("fpr.kite_jacobian")
    twirled = tr.get("germs.twirled_jacobian")
    kite = tr.get("germs.kite")
    germs_eig = tr.linalg("germs.", EIG)
    return {
        "model.jacobian_calls": jac.calls,
        "model.jacobian_s": jac.total_s,
        "model.jacobian_us_per_label": 1e6 * _ratio(jac.total_s, c["model.jacobian_labels"]),
        "model.probabilities_s": tr.get("model.probabilities").total_s,
        "model.gauge_s": tr.get("model.gauge").total_s,
        "fisher.circuits_in": c["fisher.circuits_in"],
        "fisher.recompute_ratio": _ratio(c["fisher.circuits_in"], c["design.circuits"]),
        "fisher.outer_s": tr.get("fisher.outer").self_s,
        "fisher.reduce_s": tr.get("fisher.circuits_fim").self_s,
        "fisher.eig_calls": fisher_eig.calls,
        "fisher.eig_s": fisher_eig.total_s,
        "fisher.certify_self_s": tr.get("fisher.certify").self_s,
        "fpr.svd_calls": fpr_svd.calls,
        "fpr.svd_s": fpr_svd.total_s,
        "fpr.kite_jacobian_s": kite_jac.total_s,
        # one baseline SVD per germ, then one per scored candidate set
        "fpr.candidates_per_germ": _ratio(scored - kite_jac.calls, kite_jac.calls),
        "fpr.self_s": tr.get("fpr.per_germ").self_s,
        "germs.twirled_jacobian_calls": twirled.calls,
        "germs.twirled_jacobian_s": twirled.total_s,
        "germs.kite_calls": kite.calls,
        "germs.kite_s": kite.total_s,
        "germs.eig_calls": germs_eig.calls,
        "germs.eig_s": germs_eig.total_s,
        "germs.greedy_steps": c["germs.greedy_steps"],
        "germs.select_self_s": tr.get("germs.select").self_s,
        "design.build_s": tr.get("design.build").total_s,
        "design.circuits": c["design.circuits"],
        "design.load_s": tr.get("design.load").total_s,
        "design.json_bytes": c["design.json_bytes"],
        "noise.simulate_s": tr.get("noise.simulate").total_s,
        "noise.simulated_circuits": c["noise.simulated_circuits"],
        "wallclock.estimate_s": tr.get("wallclock.estimate").total_s,
        "cli.write_s": tr.get("cli.write").total_s,
    }


LAYER_UNITS = {
    name: (
        "us" if name.endswith("_us_per_label")
        else "s" if name.endswith("_s")
        else "ratio" if name.endswith("_ratio")
        else "bytes" if name.endswith("_bytes")
        else "count"
    )
    for name in layer_metrics(Tracer())
}
