"""Which qcap callables the traced run wraps, and the per-layer metrics.

The layers are qcap's modules.  ``instrumentation`` lists every replacement
as an ``(owner, attribute, make)`` triple for :func:`tracer.patched`;
``per_layer_metrics`` turns one traced pass into the metrics named in
BENCHMARK.json.
"""
from __future__ import annotations

import functools

import numpy as np

import qcap.capacity
import qcap.channels
import qcap.converse
import qcap.information
import qcap.io
import qcap.ki
import qcap.optimize
import qcap.states
import qcap.tradeoff
import qcap.typicality

from tracer import Tracer


def instrumentation(tr: Tracer) -> list:
    def wrap(name, after=None):
        return lambda fn: tr.wrap(name, fn, after)

    def entropy_after(result, args, kwargs):
        shape = np.shape(args[0])
        mats = int(np.prod(shape[:-2], dtype=np.int64))
        tr.count("linalg.entropy_mats", mats)
        tr.count("linalg.entropy_dim3", mats * shape[-1] ** 3)

    def wrap_maximize(fn):
        @functools.wraps(fn)
        def maximize(objective, theta0, *args, **kwargs):
            def counted(batch):
                tr.count("optimize.calls")
                tr.count("optimize.rows", len(batch))
                with tr.span("optimize.objective"):
                    return objective(batch)
            with tr.span("optimize.maximize"):
                return fn(counted, theta0, *args, **kwargs)
        return maximize

    def solve_after(result, args, kwargs):
        tr.count("tradeoff.fell_back", int(result.fell_back))

    def curve_after(curve, args, kwargs):
        tr.count("tradeoff.curve_solves", len(curve.achieved))
        tr.count("tradeoff.witnessed_vertices", sum(not p.synthetic for p in curve.points))

    def grid_after(ests, args, kwargs):
        tr.count("converse.inherited", sum(b.witness_isometry is a.witness_isometry
                                           for a, b in zip(ests, ests[1:])))

    def ki_after(kid, args, kwargs):
        tr.peak("ki.reconstruction_err", kid.reconstruction_error)

    def algebra_after(alg, args, kwargs):
        tr.count("ki.algebra_dim", alg.dim)

    def project_after(proj, args, kwargs):
        tr.count("typicality.kept_strings", len(proj.kept_strings))

    def validate_after(result, args, kwargs):
        tr.peak("states.validate_max_dim", args[0].space.dim)

    entropy = wrap("linalg.entropy", entropy_after)
    power = wrap("channels.power")
    serialize = wrap("io.serialize")
    return [
        (qcap.tradeoff, "batched_entropy", entropy),
        (qcap.converse, "batched_entropy", entropy),
        (qcap.information, "batched_entropy", entropy),
        (qcap.converse, "phase_fixed_qr", wrap("linalg.qr")),
        (qcap.optimize, "maximize", wrap_maximize),
        (qcap.converse, "maximize", wrap_maximize),
        (qcap.optimize, "_gradient", lambda fn: tr.wrap("optimize.gradient", fn)),
        (qcap.tradeoff._EnsembleProblem, "rates", wrap("tradeoff.objective")),
        (qcap.tradeoff, "optimize_scalarized", wrap("tradeoff.solve", solve_after)),
        (qcap.tradeoff, "compute_curve", wrap("tradeoff.curve", curve_after)),
        (qcap.tradeoff, "channel_power", power),
        (qcap.channels, "channel_power", power),
        (qcap.tradeoff, "generalized_information", wrap("information")),
        (qcap.capacity, "intersect", wrap("capacity.intersect")),
        (qcap.converse, "_estimate", wrap("converse.estimate")),
        (qcap.converse._GadgetProblem, "evaluate", wrap("converse.objective")),
        (qcap.converse, "extend_source", wrap("converse.extend")),
        (qcap.converse, "gadget_grid", wrap("converse.grid", grid_after)),
        (qcap.ki, "ki_decompose", wrap("ki.decompose", ki_after)),
        (qcap.ki, "steered_operators", wrap("ki.steer")),
        (qcap.ki, "generate_algebra", wrap("ki.generate", algebra_after)),
        (qcap.ki, "decompose_algebra", wrap("ki.split")),
        (qcap.typicality, "project_and_renormalize", wrap("typicality.project", project_after)),
        (qcap.typicality, "conditional_typical_projector", wrap("typicality.cond_projector")),
        (qcap.typicality, "typical_count", wrap("typicality.count")),
        (qcap.typicality, "typical_mass", wrap("typicality.count")),
        (qcap.states.DensityMatrix, "__post_init__", wrap("states.validate", validate_after)),
        (qcap.io, "dumps_canonical", serialize),
        (qcap.io, "curve_to_json", serialize),
        (qcap.io, "report_to_json", serialize),
        (qcap.io, "kid_to_json", serialize),
        (qcap.io, "ensemble_to_json", serialize),
        (qcap.io, "matrix_to_json", serialize),
    ]


def _per(total: float, n: float) -> float:
    return total / n if n else 0.0


def per_layer_metrics(tr: Tracer, trace_overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    c = tr.counts
    totals = tr.totals()

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def inclusive(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[2]

    solves = calls("tradeoff.solve")
    estimates = calls("converse.estimate")
    return {
        "linalg.entropy_s": (inclusive("linalg.entropy"), "s"),
        "linalg.entropy_calls": (calls("linalg.entropy"), "count"),
        "linalg.entropy_mats": (c.get("linalg.entropy_mats", 0), "count"),
        "linalg.entropy_dim3": (c.get("linalg.entropy_dim3", 0), "count"),
        "linalg.qr_s": (inclusive("linalg.qr"), "s"),
        "optimize.runs": (calls("optimize.maximize"), "count"),
        "optimize.calls": (c.get("optimize.calls", 0), "count"),
        "optimize.rows": (c.get("optimize.rows", 0), "count"),
        "optimize.iters": (calls("optimize.gradient"), "count"),
        "optimize.self_s": (self_s("optimize.maximize") + self_s("optimize.gradient"), "s"),
        "tradeoff.objective_s": (inclusive("tradeoff.objective"), "s"),
        "tradeoff.objective_self_s": (self_s("tradeoff.objective"), "s"),
        "tradeoff.solves": (solves, "count"),
        "tradeoff.solve_s": (_per(inclusive("tradeoff.solve"), solves), "s"),
        "tradeoff.fell_back": (c.get("tradeoff.fell_back", 0), "count"),
        "tradeoff.useful_ratio": (_per(c.get("tradeoff.witnessed_vertices", 0),
                                       c.get("tradeoff.curve_solves", 0)), "ratio"),
        "channels.power_s": (inclusive("channels.power"), "s"),
        "information.calls": (calls("information"), "count"),
        "information.s": (inclusive("information"), "s"),
        "capacity.intersect_calls": (calls("capacity.intersect"), "count"),
        "capacity.intersect_s": (inclusive("capacity.intersect"), "s"),
        "converse.estimates": (estimates, "count"),
        "converse.estimate_s": (_per(inclusive("converse.estimate"), estimates), "s"),
        "converse.objective_s": (inclusive("converse.objective"), "s"),
        "converse.objective_self_s": (self_s("converse.objective"), "s"),
        "converse.extend_s": (inclusive("converse.extend"), "s"),
        "converse.inherited": (c.get("converse.inherited", 0), "count"),
        "ki.decompositions": (calls("ki.decompose"), "count"),
        "ki.decompose_s": (inclusive("ki.decompose"), "s"),
        "ki.steer_s": (inclusive("ki.steer"), "s"),
        "ki.generate_s": (inclusive("ki.generate"), "s"),
        "ki.split_s": (inclusive("ki.split"), "s"),
        "ki.algebra_dim": (c.get("ki.algebra_dim", 0), "count"),
        "ki.reconstruction_err": (tr.maxima.get("ki.reconstruction_err", 0.0), "tdist"),
        "typicality.projections": (calls("typicality.project"), "count"),
        "typicality.project_s": (inclusive("typicality.project"), "s"),
        "typicality.cond_projector_s": (inclusive("typicality.cond_projector"), "s"),
        "typicality.kept_strings": (c.get("typicality.kept_strings", 0), "count"),
        "typicality.count_s": (inclusive("typicality.count"), "s"),
        "states.validate_calls": (calls("states.validate"), "count"),
        "states.validate_s": (inclusive("states.validate"), "s"),
        "states.validate_max_dim": (tr.maxima.get("states.validate_max_dim", 0), "dim"),
        "io.serialize_s": (inclusive("io.serialize"), "s"),
        "trace_overhead_s": (trace_overhead_s, "s"),
    }
