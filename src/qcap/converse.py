"""Variational converse estimators for structured sources.

A source in block form  omega^{CQR} = sum_c p_c |c><c| tensor omega_c^{QR}
is first extended: each branch is purified into an extra reference R', and
the classical index is duplicated into a spectator C'.  A candidate encoding
is an isometry U from C tensor Q into hat-C tensor hat-Q tensor E with
|hat-C| = |C|, |hat-Q| = |Q|, and |E| = (|C||Q|)^2.  Applied branchwise it
produces the block-pure state

    tau = sum_c p_c |phi_c><phi_c|^{hatC hatQ E R R'} tensor |c><c|^{C'},
    |phi_c> = (U tensor 1_{RR'}) |c>|omega_c>.

Subject to the fidelity constraint F(omega^{CQR}, tau^{hatC hatQ R}) >= 1 - eps,
the two estimated quantities are

    Y = S(hatQ R R' | hatC)  evaluated on the E-traced average state,
    W = S(hatC | C') = sum_c p_c S(phi_c^{hatC}).

Maximization runs penalized gradient ascent over the isometry parameters with
an escalating quadratic penalty on the fidelity shortfall.  The identity
embedding U0 |cq> = |cq>|0>_E is always included as a start; it is exactly
feasible at every eps, so a feasible witness always exists.  Estimates are
lower bounds on the true constrained maxima.  Grids over eps reuse each
level's witness at the next level, which makes the reported values monotone
in eps by construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .linalg import batched_entropy, hermitize, phase_fixed_qr, sqrt_psd
from .optimize import maximize
from .sampling import seed_rng
from .states import DensityMatrix, block_form

FEASIBILITY_SLACK = 1e-6
INIT_STEP = 0.2
KAPPA0 = 10.0
MAX_CQ = 4
MAX_EPSILON = 0.5


@dataclass(frozen=True)
class ConverseOptions:
    """Budget knobs for the penalized isometry search."""

    restarts: int = 3
    iters_per_stage: int = 25
    stages: int = 4
    seed: int = 0


@dataclass(frozen=True, eq=False)
class ExtendedSource:
    """Block-form source with purified branches and duplicated index."""

    dim_c: int
    dim_q: int
    dim_r: int
    dim_rp: int
    probs: np.ndarray           # (dim_c,)
    branches: np.ndarray        # (dim_c, dim_q, dim_r, dim_rp) unit vectors
    target: np.ndarray          # omega^{CQR} as a (cqr, cqr) matrix

    @property
    def dim_cq(self) -> int:
        return self.dim_c * self.dim_q

    def branch_marginal(self, c: int) -> np.ndarray:
        """The QR marginal recovered from branch c's purification."""
        v = self.branches[c].reshape(self.dim_q * self.dim_r, self.dim_rp)
        return v @ v.conj().T


def extend_source(state: DensityMatrix, c_label: str = "C", q_label: str = "Q",
                  r_label: str = "R") -> ExtendedSource:
    """Validate block form over the classical label and purify the branches.

    The state must be block diagonal in the ``c_label`` basis within 1e-10.
    Branch purifications share one reference R' sized by the largest branch
    rank.  The product |C||Q| is capped at 4 to keep the isometry search
    tractable.
    """
    work, probs, branch_mats = block_form(state, (c_label, q_label, r_label))
    d_c, d_q, d_r = work.space.dims
    if d_c * d_q > MAX_CQ:
        raise ValidationError(
            f"|C| * |Q| = {d_c * d_q} exceeds the supported limit {MAX_CQ}")
    eigs = [np.linalg.eigh(m) for m in branch_mats]
    d_rp = max(max(int(np.sum(w > 1e-12)), 1) for w, _ in eigs)

    branches = np.zeros((d_c, d_q * d_r, d_rp), dtype=complex)
    for c, (w, v) in enumerate(eigs):
        keep = np.argsort(w)[::-1][:d_rp]
        w_k = np.clip(w[keep], 0.0, None)
        branches[c] = v[:, keep] * np.sqrt(w_k)[None, :]
        branches[c] /= np.linalg.norm(branches[c])
    target = np.zeros((d_c * d_q * d_r,) * 2, dtype=complex)
    t_view = target.reshape(d_c, d_q * d_r, d_c, d_q * d_r)
    for c, m in enumerate(branch_mats):
        t_view[c, :, c, :] = probs[c] * m
    return ExtendedSource(dim_c=d_c, dim_q=d_q, dim_r=d_r, dim_rp=d_rp,
                          probs=probs,
                          branches=branches.reshape(d_c, d_q, d_r, d_rp),
                          target=target)


@dataclass(frozen=True, eq=False)
class GadgetEstimate:
    """One converse estimate: objective value, fidelity, and witness."""

    kind: str
    epsilon: float
    value: float
    achieved_fidelity: float
    witness_isometry: np.ndarray   # (|C||Q|^3, |C||Q|), orthonormal columns


class _GadgetProblem:
    """Batched evaluation of (objective, fidelity) over isometry parameters."""

    def __init__(self, source: ExtendedSource, kind: str):
        if kind not in ("Y", "W"):
            raise ValidationError(f"objective kind must be 'Y' or 'W', got {kind!r}")
        self.src = source
        self.kind = kind
        cq = source.dim_cq
        self.dim_e = cq * cq
        self.dim_out = cq * self.dim_e
        self.n_params = 2 * self.dim_out * cq
        self.target_sqrt = sqrt_psd(source.target)
        per_row = self.dim_out * source.dim_r * source.dim_rp * 16 * source.dim_c
        self.chunk = max(16, int(4e7 / max(per_row, 1)))

    def isometries(self, thetas: np.ndarray) -> np.ndarray:
        b = thetas.shape[0]
        cq = self.src.dim_cq
        raw = thetas.reshape(b, 2, self.dim_out, cq)
        return phase_fixed_qr(raw[:, 0] + 1j * raw[:, 1])

    def params_of(self, isometry: np.ndarray) -> np.ndarray:
        return np.concatenate([isometry.real.reshape(-1), isometry.imag.reshape(-1)])

    def identity_params(self) -> np.ndarray:
        cq = self.src.dim_cq
        u0 = np.zeros((self.dim_out, cq), dtype=complex)
        view = u0.reshape(cq, self.dim_e, cq)
        for j in range(cq):
            view[j, 0, j] = 1.0
        return self.params_of(u0)

    def evaluate(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Objective values and fidelities for a parameter batch.

        Every reduced state is a Gram matrix of the weighted branch outputs
        sqrt(p_x) (U tensor 1_{RR'}) |x>|omega_x>.  The E- and C'-traced state
        rho_y on hatC hatQ R R' is formed once; the hatC and hatC hatQ R
        marginals are its partial traces.
        """
        src = self.src
        iso = self.isometries(np.asarray(thetas, dtype=float))
        b = iso.shape[0]
        c, qd, r, rp = src.dim_c, src.dim_q, src.dim_r, src.dim_rp
        cq, e, w = src.dim_cq, self.dim_e, src.dim_r * src.dim_rp
        # phi[b, x, (a, e), w]: branch x pushed through the isometry, w = RR'
        phi = iso.reshape(b, self.dim_out, c, qd).transpose(0, 2, 1, 3) \
            @ src.branches.reshape(c, qd, w)
        phi *= np.sqrt(src.probs)[:, None, None]
        if self.kind == "W":
            # per branch p_x rho_x^{hatC}; the entropy normalizes away the weight
            per_x = phi.reshape(b, c, c, qd * e * w)
            value = batched_entropy(per_x @ per_x.conj().swapaxes(-1, -2)) @ src.probs
        # g[b, (a, w), (x, e)], so rho_y = g g^dagger and the C'E output is g^dagger g
        g = phi.reshape(b, c, cq, e, w).transpose(0, 2, 4, 1, 3).reshape(b, cq * w, c * e)
        del phi
        g_h = g.conj().swapaxes(1, 2)
        rho_y = g @ g_h
        if self.kind == "Y":
            s_y = batched_entropy(rho_y if cq * w <= c * e else g_h @ g)
            rho_c = np.trace(rho_y.reshape(b, c, qd * w, c, qd * w), axis1=2, axis2=4)
            value = s_y - batched_entropy(rho_c)
        rho_f = np.trace(rho_y.reshape(b, cq * r, rp, cq * r, rp), axis1=2, axis2=4)
        m = self.target_sqrt[None] @ rho_f @ self.target_sqrt[None]
        eigs = np.clip(np.linalg.eigvalsh(hermitize(m)), 0.0, None)
        fid = np.minimum(np.sqrt(eigs).sum(axis=1), 1.0)
        return value, fid


def evaluate_isometry(source: ExtendedSource, kind: str,
                      isometry: np.ndarray) -> tuple[float, float]:
    """Objective value and fidelity of one explicit isometry witness."""
    problem = _GadgetProblem(source, kind)
    iso = np.asarray(isometry, dtype=complex)
    if iso.shape != (problem.dim_out, source.dim_cq):
        raise DimensionMismatchError(
            f"isometry shape {iso.shape} differs from ({problem.dim_out}, {source.dim_cq})")
    value, fid = problem.evaluate(problem.params_of(iso)[None, :])
    return float(value[0]), float(fid[0])


def _estimate(source: ExtendedSource, kind: str, epsilon: float,
              opts: ConverseOptions,
              warm_isometries: Sequence[np.ndarray]) -> GadgetEstimate:
    if not 0.0 <= epsilon <= MAX_EPSILON:
        raise ValidationError(f"epsilon {epsilon} outside [0, {MAX_EPSILON}]")
    problem = _GadgetProblem(source, kind)
    floor = 1.0 - epsilon

    starts = [problem.identity_params()]
    for iso in warm_isometries:
        starts.append(problem.params_of(np.asarray(iso, dtype=complex)))
    rng = seed_rng(opts.seed, "converse", kind)
    for _ in range(opts.restarts):
        starts.append(rng.normal(size=problem.n_params))

    def ascend(theta0: np.ndarray) -> np.ndarray:
        theta = theta0
        for stage in range(opts.stages):
            kappa = KAPPA0 * (10.0 ** stage)

            def objective(batch: np.ndarray) -> np.ndarray:
                value, fid = problem.evaluate(batch)
                shortfall = np.clip(floor - fid, 0.0, None)
                return value - kappa * shortfall ** 2

            thetas, _ = maximize(objective, theta[None], max_iters=opts.iters_per_stage,
                                 init_step=INIT_STEP, chunk=problem.chunk)
            theta = thetas[0]
        return theta

    ascended = [ascend(theta) for theta in starts]

    # candidate pool: raw starts too, since identity and warm isometries are
    # feasible witnesses in their own right
    batch = np.stack(starts + ascended, axis=0)
    values, fids = problem.evaluate(batch)
    feasible = np.flatnonzero(fids >= floor - FEASIBILITY_SLACK)
    if feasible.size == 0:
        raise ValidationError(
            "no feasible witness found; the identity embedding should be feasible")
    best = feasible[np.argmax(values[feasible])]
    iso = problem.isometries(batch[best][None, :])[0]
    return GadgetEstimate(kind=kind, epsilon=float(epsilon),
                          value=float(values[best]),
                          achieved_fidelity=float(fids[best]),
                          witness_isometry=iso)


def estimate_Y(source: ExtendedSource, epsilon: float,
               opts: ConverseOptions | None = None,
               warm_isometries: Sequence[np.ndarray] = ()) -> GadgetEstimate:
    """Lower-bound estimate of the largest feasible S(hatQ R R' | hatC)."""
    return _estimate(source, "Y", epsilon, opts or ConverseOptions(), warm_isometries)


def estimate_W(source: ExtendedSource, epsilon: float,
               opts: ConverseOptions | None = None,
               warm_isometries: Sequence[np.ndarray] = ()) -> GadgetEstimate:
    """Lower-bound estimate of the largest feasible S(hatC | C')."""
    return _estimate(source, "W", epsilon, opts or ConverseOptions(), warm_isometries)


def gadget_grid(source: ExtendedSource, epsilons: Sequence[float], kind: str = "Y",
                opts: ConverseOptions | None = None) -> tuple[GadgetEstimate, ...]:
    """Estimates over an ascending epsilon grid, monotone by construction.

    Each level seeds the next level's search with its witness, and a level
    that fails to beat its predecessor inherits the predecessor's estimate
    (its witness stays feasible at any larger epsilon), so reported values
    never decrease along the grid.
    """
    opts = opts or ConverseOptions()
    grid = sorted(float(x) for x in epsilons)
    out: list[GadgetEstimate] = []
    prev: GadgetEstimate | None = None
    for eps in grid:
        warm = (prev.witness_isometry,) if prev is not None else ()
        est = _estimate(source, kind, eps, opts, warm)
        if prev is not None and prev.value > est.value:
            est = GadgetEstimate(kind=kind, epsilon=eps, value=prev.value,
                                 achieved_fidelity=prev.achieved_fidelity,
                                 witness_isometry=prev.witness_isometry)
        out.append(est)
        prev = est
    return tuple(out)
