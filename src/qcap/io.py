"""JSON and CSV serialization for states, channels, ensembles, and reports.

Complex numbers are encoded as two-element [re, im] lists so every file is
plain JSON.  Emitters produce canonical text (sorted keys, two-space indent,
trailing newline) so identical inputs yield byte-identical artifacts.
"""
from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .capacity import CapacityReport, Slope
from .channels import QuantumChannel, channel_from_name
from .errors import ValidationError
from .information import CQEnsemble
from .ki import KIDecomposition
from .spaces import TensorSpace
from .states import DensityMatrix
from .tradeoff import TradeoffCurve


def dumps_canonical(obj: Any) -> str:
    """Deterministic JSON text for any tree of plain Python values."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from exc


def save_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _require(obj: Any, key: str, context: str) -> Any:
    if not isinstance(obj, dict):
        raise ValidationError(f"{context}: expected a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ValidationError(f"{context}: missing required key {key!r}")
    return obj[key]


def _number(value: Any, context: str, integer: bool = False) -> float | int:
    """A JSON number, checked finite and, if ``integer``, integral."""
    valid = (isinstance(value, int) and not isinstance(value, bool)
             or isinstance(value, float) and math.isfinite(value)
             and (value.is_integer() or not integer))
    if not valid:
        kind = "an integer" if integer else "a finite number"
        raise ValidationError(f"{context}: expected {kind}, got {value!r}")
    return int(value) if integer else float(value)


def _complex_array(data: Any, rank: int, context: str) -> np.ndarray:
    """A rank-``rank`` complex array from nested lists of [re, im] pairs."""
    try:
        arr = np.asarray(data)
    except ValueError as exc:
        raise ValidationError(f"{context}: ragged array: {exc}") from exc
    if arr.dtype.kind not in "iuf" or arr.ndim != rank + 1 or arr.shape[-1] != 2:
        raise ValidationError(
            f"{context}: expected a rank-{rank} array of numeric [re, im] pairs, "
            f"got {arr.dtype.name} shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def matrix_to_json(matrix: np.ndarray) -> list:
    m = np.asarray(matrix, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def state_to_json(state: DensityMatrix) -> dict:
    return {"dims": [[label, dim] for label, dim in state.space.subsystems],
            "matrix": matrix_to_json(state.matrix)}


def state_from_json(data: Any) -> DensityMatrix:
    dims = _require(data, "dims", "state")
    if not isinstance(dims, list) or not dims:
        raise ValidationError("state: 'dims' must be a non-empty list of [label, dim]")
    subsystems = []
    for item in dims:
        if (not isinstance(item, (list, tuple)) or len(item) != 2
                or not isinstance(item[0], str)):
            raise ValidationError(f"state: bad subsystem entry {item!r}")
        dim = _number(item[1], f"state: dimension of {item[0]!r}", integer=True)
        subsystems.append((item[0], dim))
    space = TensorSpace.of(*subsystems)
    matrix = _complex_array(_require(data, "matrix", "state"), 2, "state.matrix")
    return DensityMatrix(space, matrix)


def channel_to_json(channel: QuantumChannel) -> dict:
    return {"dim_in": channel.dim_in, "dim_out": channel.dim_out,
            "kraus": [matrix_to_json(k) for k in channel.kraus]}


def channel_from_json(data: Any) -> QuantumChannel:
    dim_in = _number(_require(data, "dim_in", "channel"), "channel.dim_in", integer=True)
    dim_out = _number(_require(data, "dim_out", "channel"), "channel.dim_out", integer=True)
    kraus_raw = _require(data, "kraus", "channel")
    if not isinstance(kraus_raw, list) or not kraus_raw:
        raise ValidationError("channel: 'kraus' must be a non-empty list")
    kraus = [_complex_array(k, 2, f"channel.kraus[{i}]")
             for i, k in enumerate(kraus_raw)]
    return QuantumChannel(dim_in=dim_in, dim_out=dim_out, kraus=tuple(kraus))


def ensemble_to_json(ensemble: CQEnsemble) -> dict:
    return {"dim_A": ensemble.dim_a, "dim_R": ensemble.dim_r,
            "entries": [{"p": float(p), "vector": matrix_to_json(v)}
                        for p, v in zip(ensemble.probs, ensemble.vectors)]}


def ensemble_from_json(data: Any) -> CQEnsemble:
    dim_a = _number(_require(data, "dim_A", "ensemble"), "ensemble.dim_A", integer=True)
    dim_r = _number(_require(data, "dim_R", "ensemble"), "ensemble.dim_R", integer=True)
    entries = _require(data, "entries", "ensemble")
    if not isinstance(entries, list) or not entries:
        raise ValidationError("ensemble: 'entries' must be a non-empty list")
    probs = []
    vectors = []
    for i, entry in enumerate(entries):
        context = f"ensemble.entries[{i}]"
        probs.append(_number(_require(entry, "p", context), f"{context}.p"))
        vec = _complex_array(_require(entry, "vector", context), 1, f"{context}.vector")
        if vec.size != dim_a * dim_r:
            raise ValidationError(
                f"ensemble.entries[{i}]: vector length {vec.size} differs "
                f"from dim_A * dim_R = {dim_a * dim_r}")
        vectors.append(vec)
    return CQEnsemble(dim_a=dim_a, dim_r=dim_r, probs=np.asarray(probs),
                      vectors=np.stack(vectors, axis=0))


def resolve_channel(text: str) -> QuantumChannel:
    """A channel from either a name string like 'dephasing(0.1)' or a JSON path."""
    if "(" in text:
        return channel_from_name(text)
    return channel_from_json(load_json(text))


def slope_to_json(slope: Slope) -> dict:
    if slope.degenerate:
        return {"kind": "degenerate"}
    if slope.infinite:
        return {"kind": "infinite"}
    return {"kind": "finite", "value": float(slope.value)}


def kid_to_json(kid: KIDecomposition) -> dict:
    return {
        "system": list(kid.system_labels),
        "reference": list(kid.ref_labels),
        "dim_system": kid.dim_a,
        "dim_reference": kid.dim_r,
        "dead_dim": kid.dead_dim,
        "blocks": [{"prob": float(b.prob), "dim_q": b.dim_q, "dim_n": b.dim_n}
                   for b in kid.blocks],
        "entropy_classical": kid.s_c,
        "entropy_quantum_given_classical": kid.s_q_given_c,
        "entropy_joint": kid.s_cq,
        "reconstruction_error": kid.reconstruction_error,
    }


def curve_to_json(curve: TradeoffCurve) -> dict:
    return {
        "level_l": curve.level_l,
        "c_q_endpoint": float(curve.c_q_endpoint),
        "c_c_endpoint": float(curve.c_c_endpoint),
        "points": [{"r_q": float(p.r_q), "r_c": float(p.r_c),
                    "weight_t": (None if p.synthetic else float(p.weight_t)),
                    "synthetic": bool(p.synthetic)}
                   for p in curve.points],
    }


def curve_to_csv(curve: TradeoffCurve) -> str:
    lines = ["r_q,r_c,weight_t,synthetic"]
    for p in curve.points:
        t_text = "" if p.synthetic else format(float(p.weight_t), ".17g")
        lines.append(f"{float(p.r_q):.17g},{float(p.r_c):.17g},{t_text},"
                     f"{int(p.synthetic)}")
    return "\n".join(lines) + "\n"


def report_to_json(report: CapacityReport) -> dict:
    return {
        "slope": slope_to_json(report.slope),
        "level_l": report.level_l,
        "r_q_star": float(report.r_q_star),
        "r_c_star": float(report.r_c_star),
        "c_g": float(report.c_g),
        "copies_per_use": (None if report.copies_per_use is None
                           else float(report.copies_per_use)),
        "entropy_classical": report.s_c,
        "entropy_quantum_given_classical": report.s_q_given_c,
        "entropy_joint": report.s_cq,
        "curve": curve_to_json(report.curve),
    }
