"""The benchmark's four workloads: inputs, job lists, and per-job checks.

A workload builds its inputs from the workload seed (``setup``) and returns
a list of jobs.  A job's ``run`` is the timed part: the qcap call plus the
canonical JSON of its result, whose SHA-256 is the job's digest.  Its
``check`` runs afterwards, untimed and untraced, and returns the problems
found (an empty list when the output matches its reference) together with
the quality figures the job contributes.

qcap is reached through module attributes (``qcap.tradeoff.compute_curve``
rather than a name imported once), so the tracer's replacements apply.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import qcap.capacity
import qcap.channels
import qcap.converse
import qcap.errors
import qcap.information
import qcap.io
import qcap.ki
import qcap.linalg
import qcap.sampling
import qcap.tradeoff
import qcap.typicality
from qcap.spaces import TensorSpace
from qcap.states import DensityMatrix

import reference

ENDPOINT_TOL = 1e-6
WITNESS_TOL = 1e-9
# Fidelity sums square roots of eigenvalues, and sqrt turns a rounding error
# of 1e-17 in an eigenvalue near 0 into about 3e-9: re-evaluating a witness
# in a batch of one reproduces a fidelity only to about that.
FIDELITY_REEVAL_TOL = 1e-7
FEASIBILITY_SLACK = 1e-6
ANCHOR_TOL = 1e-3
KI_TOL = 1e-8
TRACE_TOL = 1e-9
MASS_ROUNDOFF = 1e-12


@dataclass
class Checked:
    problems: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


@dataclass
class Job:
    name: str
    run: Callable[[dict], tuple[Any, str]]     # ctx -> (result, canonical text)
    check: Callable[[Any, dict], Checked]      # (result, ctx) -> Checked


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int, bool], dict]           # (seed, small) -> inputs
    jobs: Callable[[dict, int, bool], list[Job]]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical(obj) -> str:
    return qcap.io.dumps_canonical(obj)


def _reevaluate(ensemble, power, l: int) -> tuple[float, float]:
    """Per-use (r_q, r_c) of a witness, recomputed from scratch."""
    info = qcap.information.generalized_information(ensemble, power)
    return max(info.r_q, 0.0) / l, info.r_c / l


# --------------------------------------------------------------- frontier_l1

def _cqr(dim_c: int, dim_q: int, dim_r: int, matrix) -> DensityMatrix:
    space = TensorSpace.of(("C", dim_c), ("Q", dim_q), ("R", dim_r))
    return DensityMatrix(space, matrix)


def _classical_source(probs) -> DensityMatrix:
    """Classical symbols with perfect copies held by the reference."""
    k = len(probs)
    m = np.zeros((k * k, k * k), dtype=complex)
    view = m.reshape(k, k, k, k)
    for c, p in enumerate(probs):
        view[c, c, c, c] = p
    return _cqr(k, 1, k, m)


def _pure_block_source(vec, dim_q: int, dim_r: int) -> DensityMatrix:
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return _cqr(1, dim_q, dim_r, np.outer(v, v.conj()))


def _bit_times_ebit_source() -> DensityMatrix:
    """S_C = S_{Q|C} = 1: R holds a copy of the bit and an ebit partner."""
    m = np.zeros((16, 16), dtype=complex)
    view = m.reshape(2, 8, 2, 8)
    for c in range(2):
        v = np.zeros(8, dtype=complex)
        for i in range(2):
            v[i * 4 + c * 2 + i] = 1.0 / np.sqrt(2.0)
        view[c, :, c, :] = 0.5 * np.outer(v, v.conj())
    return _cqr(2, 2, 4, m)


def _bell_pair() -> DensityMatrix:
    v = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    return DensityMatrix(TensorSpace.of(("A", 2), ("R", 2)), np.outer(v, v.conj()))


def _classical_bit() -> DensityMatrix:
    return DensityMatrix(TensorSpace.of(("A", 2), ("R", 2)), np.diag([0.5, 0, 0, 0.5]))


def _frontier_l1_setup(seed: int, small: bool) -> dict:
    return {
        "dephasing": qcap.channels.channel_from_name("dephasing(0.1)"),
        "erasure": qcap.channels.channel_from_name("erasure(0.2)"),
        "sources": {"classical bit": (_classical_bit(), None),
                    "bell pair": (_bell_pair(), None),
                    "bit x ebit": (_bit_times_ebit_source(), ("C", "Q"))},
    }


def _check_curve(curve, channel, exact: tuple[float, float]) -> Checked:
    out = Checked()
    c_q, c_c = exact
    out.expect(abs(curve.c_q_endpoint - c_q) <= ENDPOINT_TOL,
               f"c_q {curve.c_q_endpoint!r} differs from {c_q!r}")
    out.expect(abs(curve.c_c_endpoint - c_c) <= ENDPOINT_TOL,
               f"c_c {curve.c_c_endpoint!r} differs from {c_c!r}")
    try:
        qcap.tradeoff.validate_envelope(curve.points)
    except qcap.errors.QcapError as exc:
        out.problems.append(f"envelope invalid: {exc}")
    power = qcap.channels.channel_power(channel, curve.level_l)
    witness = 0.0
    for p in curve.achieved:
        r_q, r_c = _reevaluate(p.witness, power, curve.level_l)
        out.expect(abs(r_q - p.r_q) <= WITNESS_TOL and abs(r_c - p.r_c) <= WITNESS_TOL,
                   f"witness at t={p.weight_t} re-evaluates to ({r_q}, {r_c}), "
                   f"recorded ({p.r_q}, {p.r_c})")
        witness += (1.0 - p.weight_t) * p.r_c + p.weight_t * p.r_q
    out.quality["witness_value"] = witness
    return out


def _frontier_l1_jobs(inputs: dict, seed: int, small: bool) -> list[Job]:
    opts = (qcap.tradeoff.OptimizerOptions(restarts=0, max_iters=2, seed=seed) if small
            else qcap.tradeoff.OptimizerOptions(restarts=4, max_iters=50, seed=seed))
    grids = {"dephasing": 3 if small else 11, "erasure": 2 if small else 3}
    exact = {"dephasing": reference.dephasing_endpoints(0.1),
             "erasure": reference.erasure_endpoints(0.2)}

    def curve_job(key: str) -> Job:
        def run(ctx):
            curve = qcap.tradeoff.compute_curve(
                inputs[key], l=1, t_grid=qcap.tradeoff.default_t_grid(grids[key]), opts=opts)
            ctx[key] = curve
            return curve, _canonical(qcap.io.curve_to_json(curve))

        def check(curve, ctx):
            out = _check_curve(curve, inputs[key], exact[key])
            if key == "dephasing":
                out.quality["frontier_gap_bits"] = reference.frontier_gap(
                    0.1, [(p.r_q, p.r_c) for p in curve.points],
                    curve.c_q_endpoint, curve.c_c_endpoint)
            return out
        return Job(f"curve {key}", run, check)

    def capacity_job(label: str) -> Job:
        state, system = inputs["sources"][label]

        def run(ctx):
            kid = qcap.ki.ki_decompose(state, system=system, seed=seed)
            report = qcap.capacity.capacity_from_curve(ctx["dephasing"], kid)
            return report, _canonical(qcap.io.report_to_json(report))

        def check(report, ctx):
            out = Checked()
            c_q, c_c = reference.dephasing_endpoints(0.1)
            if label == "classical bit":
                out.expect(report.slope.infinite, f"slope {report.slope} is not infinite")
                out.expect(abs(report.c_g - c_c) <= ENDPOINT_TOL, f"c_g {report.c_g} != {c_c}")
            elif label == "bell pair":
                out.expect(report.slope.value == 0.0, f"slope {report.slope} is not 0")
                out.expect(abs(report.c_g - c_q) <= ENDPOINT_TOL, f"c_g {report.c_g} != {c_q}")
            else:
                exact_cg = reference.dephasing_slope_one_cg(0.1)
                out.expect(abs(report.slope.value - 1.0) <= 1e-9,
                           f"slope {report.slope} is not 1")
                # the witnessed envelope lies inside the true region
                out.expect(report.c_g <= exact_cg + WITNESS_TOL,
                           f"c_g {report.c_g} exceeds the exact {exact_cg}")
                out.quality["c_g_err_bits"] = abs(report.c_g - exact_cg)
            return out
        return Job(f"capacity {label}", run, check)

    return [curve_job("dephasing"), curve_job("erasure"),
            capacity_job("classical bit"), capacity_job("bell pair"),
            capacity_job("bit x ebit")]


FRONTIER_L1 = Workload(
    "frontier_l1",
    "Many tiny level-1 calls (108 parameters, eigensolves of at most 4x4) checked "
    "against the closed-form dephasing curve and endpoints.",
    _frontier_l1_setup, _frontier_l1_jobs)


# --------------------------------------------------------------- frontier_l2

def _frontier_l2_setup(seed: int, small: bool) -> dict:
    chans = {"dephasing": qcap.channels.channel_from_name("dephasing(0.1)"),
             "amplitude_damping": qcap.channels.channel_from_name("amplitude_damping(0.3)")}
    return {key: (ch, qcap.channels.channel_power(ch, 2)) for key, ch in chans.items()}


def _dephasing_scalarized_bound(p: float, t: float) -> float:
    """max over the single-letter dephasing region of (1-t) r_c + t r_q."""
    r_q, r_c = reference.dephasing_curve(p, np.linspace(0.0, 0.5, 20001))
    return float(np.max((1.0 - t) * r_c + t * r_q))


def _frontier_l2_jobs(inputs: dict, seed: int, small: bool) -> list[Job]:
    opts = qcap.tradeoff.OptimizerOptions(restarts=0, max_iters=1 if small else 4, seed=seed)
    t = 0.5

    def job(key: str) -> Job:
        channel, power = inputs[key]

        def run(ctx):
            res = qcap.tradeoff.optimize_scalarized(channel, 2, t, opts)
            text = _canonical({"r_q": res.r_q, "r_c": res.r_c, "value": res.value,
                               "weight_t": res.weight_t, "fell_back": res.fell_back,
                               "ensemble": qcap.io.ensemble_to_json(res.ensemble)})
            return res, text

        def check(res, ctx):
            out = Checked()
            r_q, r_c = _reevaluate(res.ensemble, power, 2)
            out.expect(abs(r_q - res.r_q) <= WITNESS_TOL and abs(r_c - res.r_c) <= WITNESS_TOL,
                       f"witness re-evaluates to ({r_q}, {r_c}), recorded ({res.r_q}, {res.r_c})")
            out.expect(abs(res.value - ((1 - t) * res.r_c + t * res.r_q)) <= WITNESS_TOL,
                       "recorded value is not the scalarized rates")
            out.expect(0.0 <= res.r_q <= 1.0 and 0.0 <= res.r_c <= 1.0,
                       f"rates ({res.r_q}, {res.r_c}) outside [0, 1]")
            if key == "dephasing":
                # the 20001-point grid puts the bound within 1e-8 of the true optimum
                bound = _dephasing_scalarized_bound(0.1, t)
                out.expect(res.value <= bound + ENDPOINT_TOL,
                           f"value {res.value} exceeds the single-letter optimum {bound}")
            out.quality["witness_value"] = res.value
            return out
        return Job(f"scalarized {key}", run, check)

    return [job("dephasing"), job("amplitude_damping")]


FRONTIER_L2 = Workload(
    "frontier_l2",
    "Few large level-2 batches (594 parameters, 1188-row gradients, 16x16 S(BR)): "
    "the same optimizer path where per-call overhead matters little.",
    _frontier_l2_setup, _frontier_l2_jobs)


# ------------------------------------------------------------------ converse

def _converse_setup(seed: int, small: bool) -> dict:
    rng = qcap.sampling.seed_rng(seed, "perfbench", "converse-sources")
    two = np.zeros((2, 4, 2, 4), dtype=complex)
    for c, p in enumerate((0.6, 0.4)):
        two[c, :, c, :] = p * qcap.sampling.random_state(
            TensorSpace.of(("Q", 2), ("R", 2)), rng).matrix
    states = {"uniform bit": _classical_source((0.5, 0.5)),
              "pure ebit": _pure_block_source([1, 0, 0, 1], 2, 2),
              "two mixed blocks": _cqr(2, 2, 2, two.reshape(8, 8)),
              "bit x ebit": _bit_times_ebit_source()}
    return {name: qcap.converse.extend_source(state) for name, state in states.items()}


CONVERSE_GRIDS = {"uniform bit": (0.0, 0.1, 0.3), "pure ebit": (0.0, 0.1, 0.3),
                  "two mixed blocks": (0.1,), "bit x ebit": (0.0, 0.1)}
# With one random restart, whether a grid escapes the identity start is close
# to a coin flip per optimizer seed, and moves the grid's sum by a bit.  The
# cheap |C||Q| = 2 grids therefore run at CONVERSE_REPEATS optimizer seeds,
# seed * CONVERSE_REPEATS + k, and contribute the median of their sums to
# witness_value; the |C||Q| = 4 grids run once, at the workload seed, and
# are checked and timed but left out of witness_value.
CONVERSE_REPEATED = ("uniform bit", "pure ebit")
CONVERSE_REPEATS = 5


def _converse_jobs(inputs: dict, seed: int, small: bool) -> list[Job]:
    def opts(s: int):
        if small:
            return qcap.converse.ConverseOptions(restarts=1, iters_per_stage=1, stages=1, seed=s)
        return qcap.converse.ConverseOptions(restarts=1, iters_per_stage=4, stages=2, seed=s)
    grids = {"uniform bit": (0.0, 0.1)} if small else CONVERSE_GRIDS
    repeats = 2 if small else CONVERSE_REPEATS

    def job(name: str, kind: str) -> Job:
        src = inputs[name]
        repeated = name in CONVERSE_REPEATED
        seeds = [seed * repeats + k for k in range(repeats)] if repeated else [seed]

        def run(ctx):
            grid_list = [qcap.converse.gadget_grid(src, grids[name], kind, opts(s))
                         for s in seeds]
            text = _canonical([[{"kind": e.kind, "epsilon": e.epsilon, "value": e.value,
                                 "achieved_fidelity": e.achieved_fidelity,
                                 "witness": qcap.io.matrix_to_json(e.witness_isometry)}
                                for e in ests] for ests in grid_list])
            return grid_list, text

        def check(grid_list, ctx):
            out = Checked()
            for s, ests in zip(seeds, grid_list):
                for e in ests:
                    out.expect(e.achieved_fidelity >= 1.0 - e.epsilon - FEASIBILITY_SLACK,
                               f"seed {s} eps={e.epsilon}: fidelity {e.achieved_fidelity} "
                               "below the floor")
                    if e.epsilon == 0.0:
                        out.expect(e.value <= ANCHOR_TOL,
                                   f"seed {s}: eps=0 anchor {e.value} above 1e-3")
                    value, fid = qcap.converse.evaluate_isometry(src, kind, e.witness_isometry)
                    out.expect(abs(value - e.value) <= WITNESS_TOL
                               and abs(fid - e.achieved_fidelity) <= FIDELITY_REEVAL_TOL,
                               f"seed {s} eps={e.epsilon}: witness re-evaluates to "
                               f"({value}, {fid})")
                for a, b in zip(ests, ests[1:]):
                    out.expect(b.value >= a.value,
                               f"seed {s}: grid not monotone at eps={b.epsilon}")
            if repeated:
                out.quality["witness_value"] = float(np.median(
                    [sum(e.value for e in ests) for ests in grid_list]))
            return out
        return Job(f"{kind} {name}", run, check)

    return [job(name, kind) for name in grids for kind in ("Y", "W")]


CONVERSE = Workload(
    "converse",
    "Penalized isometry searches where entropy is 7-15% of the time and einsum "
    "plus fidelity the rest; a gain on the frontier must not cost this.",
    _converse_setup, _converse_jobs)


# ----------------------------------------------------------------- structure

def _planted(rng, d_target: int | None = None):
    """A state assembled from known KI blocks and scrambled by a random unitary.

    Without ``d_target`` the block shapes are drawn as in qcap's own planted
    KI tests (d_A <= 9); with it, blocks are drawn until d_A equals it.
    Returns the state, the planted (dim_q, dim_n, prob) triples, the planted
    dead dimension, and the planted (S_C, S_{Q|C}).
    """
    dims: list[tuple[int, int]] = []
    total = 0
    if d_target is None:
        for _ in range(int(rng.integers(1, 4))):
            dq, dn = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            if total + dq * dn > 8:
                break
            dims.append((dq, dn))
            total += dq * dn
        if not dims:
            dims, total = [(1, 1)], 1
        dead = int(rng.integers(0, 2))
    else:
        while total < d_target:
            dq, dn = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            if total + dq * dn <= d_target:
                dims.append((dq, dn))
                total += dq * dn
        dead = 0
    d_a = total + dead
    d_r = max(max(d for d, _ in dims) + int(rng.integers(0, 2)), 2)
    p = rng.dirichlet(np.ones(len(dims)) * 3.0)
    m = np.zeros((d_a, d_r, d_a, d_r), dtype=complex)
    off = 0
    s_q_given_c = 0.0
    for (dq, dn), pc in zip(dims, p):
        omega = qcap.sampling.random_state(TensorSpace.of(("Q", dq), ("R", d_r)), rng).matrix
        mu = qcap.sampling.random_state(TensorSpace.single("N", dn), rng).matrix
        omega4 = omega.reshape(dq, d_r, dq, d_r)
        s_q_given_c += pc * qcap.linalg.entropy_of_matrix(omega4.trace(axis1=1, axis2=3))
        block = pc * np.einsum("qrps,nm->qnrpms", omega4, mu)
        d_block = dq * dn
        m[off:off + d_block, :, off:off + d_block, :] = block.reshape(
            d_block, d_r, d_block, d_r)
        off += d_block
    v = qcap.sampling.random_unitary(d_a, rng).conj().T
    m = np.einsum("pa,arbs,qb->prqs", v, m, v.conj())
    rho = DensityMatrix(TensorSpace.of(("A", d_a), ("R", d_r)), m.reshape(d_a * d_r, -1))
    expected = sorted((dq, dn, float(pc)) for (dq, dn), pc in zip(dims, p))
    entropies = (qcap.linalg.entropy_from_probs(np.asarray(p)), s_q_given_c)
    return rho, expected, dead, entropies


def _block_source(rng, d_c: int, d_q: int, d_r: int) -> DensityMatrix:
    probs = rng.uniform(0.3, 0.7, size=d_c)
    probs = probs / probs.sum()
    m = np.zeros((d_c, d_q * d_r, d_c, d_q * d_r), dtype=complex)
    for c in range(d_c):
        m[c, :, c, :] = probs[c] * qcap.sampling.random_state(
            TensorSpace.of(("Q", d_q), ("R", d_r)), rng).matrix
    n = d_c * d_q * d_r
    return _cqr(d_c, d_q, d_r, m.reshape(n, n))


def _structure_setup(seed: int, small: bool) -> dict:
    rng = qcap.sampling.seed_rng(seed, "perfbench", "structure")
    planted = [_planted(rng) for _ in range(5 if small else 50)]
    planted += [_planted(rng, d) for d in ((6,) if small else (8, 10, 12))]
    generic = [qcap.sampling.random_state(TensorSpace.of(("A", d), ("R", 2)), rng)
               for d in ((4,) if small else (8, 10, 12))]
    sources = [("C2Q2R2", _block_source(rng, 2, 2, 2), 2 if small else 3),
               ("C2Q2R1", _block_source(rng, 2, 2, 1), 2 if small else 5)]
    typical = [(n, rng.dirichlet(np.ones(3) * 4.0))
               for n in ((40, 60) if small else (300, 2000))]
    return {"planted": planted, "generic": generic, "sources": sources,
            "typical": typical}


TYPICAL_DELTA = 0.02
PROJECTION_DELTAS = (0.3, 0.45)


def _structure_jobs(inputs: dict, seed: int, small: bool) -> list[Job]:
    jobs: list[Job] = []

    def ki_job(label: str, rho, expected, dead, entropies) -> Job:
        def run(ctx):
            kid = qcap.ki.ki_decompose(rho, seed=seed)
            return kid, _canonical(qcap.io.kid_to_json(kid))

        def check(kid, ctx):
            out = Checked()
            out.expect(kid.reconstruction_error <= KI_TOL,
                       f"reconstruction residual {kid.reconstruction_error:.2e}")
            got = sorted((b.dim_q, b.dim_n, b.prob) for b in kid.blocks)
            shapes_ok = [g[:2] for g in got] == [e[:2] for e in expected]
            out.expect(shapes_ok, f"blocks {got} differ from planted {expected}")
            if shapes_ok:
                out.expect(all(abs(g[2] - e[2]) <= KI_TOL for g, e in zip(got, expected)),
                           f"block weights {got} differ from planted {expected}")
            out.expect(kid.dead_dim == dead, f"dead dimension {kid.dead_dim} != {dead}")
            if entropies is not None:
                out.expect(abs(kid.s_c - entropies[0]) <= KI_TOL
                           and abs(kid.s_q_given_c - entropies[1]) <= KI_TOL,
                           f"entropies ({kid.s_c}, {kid.s_q_given_c}) != {entropies}")
            return out
        return Job(label, run, check)

    for i, (rho, expected, dead, entropies) in enumerate(inputs["planted"]):
        jobs.append(ki_job(f"ki planted {i} d_A={rho.space.dims[0]}",
                           rho, expected, dead, entropies))
    for rho in inputs["generic"]:
        d = rho.space.dims[0]
        jobs.append(ki_job(f"ki generic d_A={d}", rho, [(d, 1, 1.0)], 0, None))

    def projection_job(label: str, source, m: int, delta: float) -> Job:
        def run(ctx):
            proj = qcap.typicality.project_and_renormalize(source, m, delta)
            text = _canonical({
                "kept_strings": [list(s) for s in proj.kept_strings],
                "classical_mass": proj.classical_mass, "joint_mass": proj.joint_mass,
                "branch_masses": list(proj.branch_masses),
                "dims": [[lab, d] for lab, d in proj.state.space.subsystems],
                "state_sha256": hashlib.sha256(proj.state.matrix.tobytes()).hexdigest()})
            return proj, text

        def check(proj, ctx):
            out = Checked()
            trace = complex(np.trace(proj.state.matrix))
            out.expect(abs(trace - 1.0) <= TRACE_TOL, f"trace {trace}")
            masses = [proj.classical_mass, proj.joint_mass, *proj.branch_masses]
            out.expect(all(0.0 <= x <= 1.0 + MASS_ROUNDOFF for x in masses),
                       f"masses {masses} outside [0, 1]")
            return out
        return Job(f"project {label} m={m} delta={delta}", run, check)

    for label, source, m in inputs["sources"]:
        for delta in PROJECTION_DELTAS:
            jobs.append(projection_job(label, source, m, delta))

    def typical_job(n: int, probs) -> Job:
        spec = qcap.typicality.TypicalSpec(probs, n, TYPICAL_DELTA)

        def run(ctx):
            count = qcap.typicality.typical_count(spec)
            mass = qcap.typicality.typical_mass(spec)
            return (count, mass), _canonical({"n": n, "count": count, "mass": mass})

        def check(result, ctx):
            count, mass = result
            out = Checked()
            out.expect(0.0 <= mass <= 1.0, f"mass {mass} outside [0, 1]")
            out.expect(count >= 1, "empty typical set")
            bound = qcap.typicality.typical_dimension_bound(spec)
            out.expect(math.log2(count) <= bound + 1e-9,
                       f"log2 count {math.log2(count)} exceeds the bound {bound}")
            return out
        return Job(f"typical n={n}", run, check)

    for n, probs in inputs["typical"]:
        jobs.append(typical_job(n, probs))
    return jobs


STRUCTURE = Workload(
    "structure",
    "KI decompositions (planted, up to d_A = 12), typical projections up to "
    "dimension 1024 and exact typical counts: no optimizer, so optimizer work "
    "should not move it.",
    _structure_setup, _structure_jobs)


WORKLOADS = {w.name: w for w in (FRONTIER_L1, FRONTIER_L2, CONVERSE, STRUCTURE)}
