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
an escalating quadratic penalty on the fidelity shortfall.  Every reduced state
is a Gram product h h^dagger of a reshape h of the pushed-through branches, and
the exact gradient pulls entropy gradients (Daleckii-Krein) and the fidelity
gradient (``linalg.fidelity_and_gradient``) back through those factors and the
phase-fixed QR.  All starts of one penalty stage ascend in lock step, one
batched gradient and one batched line search per iteration.
The identity embedding U0 |cq> = |cq>|0>_E is always included as a start; it
is exactly feasible at every eps, so a feasible witness always exists.
Estimates are lower bounds on the true constrained maxima.  Grids over eps
reuse each level's witness at the next level, which makes the reported values
monotone in eps by construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, ValidationError, _nonnegative_int, _positive_int
from .linalg import (SUPPORT_CUTOFF, batched_entropy, entropy_and_gradient,
                     fidelity_and_gradient, fidelity_from_eigenvalues, hermitize,
                     phase_fixed_qr, phase_fixed_qr_adjoint, sqrt_psd)
from .optimize import maximize
from .sampling import _ginibre, seed_rng
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

    def __post_init__(self):
        _nonnegative_int(self.restarts,
                         f"restarts must be a non-negative integer, got {self.restarts!r}")
        _positive_int(self.iters_per_stage,
                      f"iters_per_stage must be a positive integer, got {self.iters_per_stage!r}")
        _positive_int(self.stages, f"stages must be a positive integer, got {self.stages!r}")


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


def extend_source(state: DensityMatrix) -> ExtendedSource:
    """Validate block form over the classical label and purify the branches.

    The state must be block diagonal in the C basis within 1e-10.
    Branch purifications share one reference R' sized by the largest branch
    rank; a branch of lower rank leaves its spare R' columns zero.  The
    product |C||Q| is capped at 4 to keep the isometry search tractable.
    """
    work, probs, branch_mats = block_form(state, ("C", "Q", "R"))
    d_c, d_q, d_r = work.space.dims
    if d_c * d_q > MAX_CQ:
        raise ValidationError(
            f"|C| * |Q| = {d_c * d_q} exceeds the supported limit {MAX_CQ}")
    mats = np.stack(branch_mats)
    w, v = np.linalg.eigh(mats)
    d_rp = max(int((w > SUPPORT_CUTOFF).sum(axis=1).max()), 1)
    # eigh sorts ascending, so the kept columns are the last d_rp, largest first
    keep = slice(None, -d_rp - 1, -1)
    branches = v[:, :, keep] * np.sqrt(np.maximum(w[:, keep], 0.0))[:, None, :]
    branches /= np.linalg.norm(branches, axis=(1, 2), keepdims=True)
    target = np.einsum("xy,xij->xiyj", np.diag(probs), mats).reshape((d_c * d_q * d_r,) * 2)
    return ExtendedSource(dim_c=d_c, dim_q=d_q, dim_r=d_r, dim_rp=d_rp,
                          probs=probs,
                          branches=branches.reshape(d_c, d_q, d_r, d_rp),
                          target=target)


def _gram(h: np.ndarray) -> np.ndarray:
    """h h^dagger over the last two axes."""
    return h @ h.conj().swapaxes(-1, -2)


@dataclass(frozen=True, eq=False)
class GadgetEstimate:
    """One converse estimate: objective value, fidelity, and witness."""

    kind: str
    epsilon: float
    value: float
    achieved_fidelity: float
    witness_isometry: np.ndarray   # (|C||Q|^3, |C||Q|), orthonormal columns


class _GadgetProblem:
    """Batched (objective, fidelity) and penalized gradients over isometry parameters.

    A parameter row is the flattened complex (|C||Q|^3, |C||Q|) matrix whose
    phase-fixed QR is the isometry.
    """

    def __init__(self, source: ExtendedSource, kind: str):
        if kind not in ("Y", "W"):
            raise ValidationError(f"objective kind must be 'Y' or 'W', got {kind!r}")
        self.src = source
        self.kind = kind
        cq = source.dim_cq
        self.dim_e = cq * cq
        self.dim_out = cq * self.dim_e
        self.n_params = self.dim_out * cq
        self.target_sqrt = sqrt_psd(source.target)
        per_row = self.dim_out * source.dim_r * source.dim_rp * 16 * source.dim_c
        self.chunk = max(16, int(4e7 / max(per_row, 1)))

    def isometries(self, thetas: np.ndarray) -> np.ndarray:
        return phase_fixed_qr(thetas.reshape(len(thetas), self.dim_out, self.src.dim_cq))

    def identity_params(self) -> np.ndarray:
        cq = self.src.dim_cq
        u0 = np.zeros((self.dim_out, cq), dtype=complex)
        view = u0.reshape(cq, self.dim_e, cq)
        for j in range(cq):
            view[j, 0, j] = 1.0
        return u0.reshape(-1)

    def _forward(self, thetas: np.ndarray):
        """A, U = phase_fixed_qr(A), phi and g for a parameter batch.

        phi[b, x, (a, e), w] = sqrt(p_x) (U tensor 1_{RR'}) |x>|omega_x> is
        branch x pushed through the isometry, with a = hatC hatQ and w = R R';
        g[b, (a, w), (x, e)] regroups it.  Each reduced state is h h^dagger for
        a reshape h: W's p_x rho_x^{hatC} for phi[b, x] as (hatC, rest); rho_y
        on hatC hatQ R R' (E and C' traced) for g, whose g^dagger g has the
        same spectrum; rho^{hatC} for g as (hatC, rest); and, as sqrt(omega) is
        Hermitian, M = sqrt(omega) Tr_{R'}(rho_y) sqrt(omega) for sqrt(omega)
        times g as (hatC hatQ R, R' C' E).
        """
        src = self.src
        a = thetas.reshape(len(thetas), self.dim_out, src.dim_cq)
        iso = phase_fixed_qr(a)
        b, c, qd = len(a), src.dim_c, src.dim_q
        w = src.dim_r * src.dim_rp
        phi = iso.reshape(b, self.dim_out, c, qd).transpose(0, 2, 1, 3) \
            @ src.branches.reshape(c, qd, w)
        phi *= np.sqrt(src.probs)[:, None, None]
        g = phi.reshape(b, c, src.dim_cq, self.dim_e, w).transpose(0, 2, 4, 1, 3) \
            .reshape(b, src.dim_cq * w, c * self.dim_e)
        return a, iso, phi, g

    def evaluate(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Objective values and fidelities for a parameter batch.

        Each reduced state is a Gram product of a reshape of phi or g (see
        ``_forward``), and the fidelity needs only M's eigenvalues.
        """
        src = self.src
        _, _, phi, g = self._forward(thetas)
        b, c = len(g), src.dim_c
        if self.kind == "W":
            # per branch p_x rho_x^{hatC}; the entropy normalizes away the weight
            value = batched_entropy(_gram(phi.reshape(b, c, c, -1))) @ src.probs
        else:
            s_y = batched_entropy(
                _gram(g) if g.shape[1] <= g.shape[2] else g.conj().swapaxes(1, 2) @ g)
            value = s_y - batched_entropy(_gram(g.reshape(b, c, -1)))
        m = _gram(self.target_sqrt @ g.reshape(b, len(self.target_sqrt), -1))
        return value, fidelity_from_eigenvalues(np.linalg.eigvalsh(hermitize(m)))

    def gradient(self, thetas: np.ndarray, floor: float, kappa: float) -> np.ndarray:
        """Exact gradient of value - kappa * max(0, floor - F)^2 for a batch (B, P).

        Each term is Tr[Gamma d(h h^dagger)] for one of ``_forward``'s Gram
        factors h, which pulls back to h as 2 Gamma h.  Y puts G_y on g g^dagger
        (or on g^dagger g, pulled back as 2 g G_y) and -G_c on rho^{hatC}; W
        puts p_x G_x on each branch block of phi.  The penalty puts
        pull * dF/dM on M = h h^dagger, h = sqrt(omega) g, with
        pull = 2 kappa max(0, floor - F); floor <= 1, so it is 0 wherever the
        cap at 1 binds.  Through phi = sqrt(p_x) U_x B_x the result reaches U,
        and the phase-fixed QR adjoint takes it to A.
        """
        src = self.src
        a, iso, phi, g = self._forward(thetas)
        b, c, qd = len(a), src.dim_c, src.dim_q
        w = src.dim_r * src.dim_rp
        if self.kind == "Y":
            if g.shape[1] <= g.shape[2]:
                g_bar = 2.0 * entropy_and_gradient(_gram(g))[1] @ g
            else:
                g_bar = 2.0 * g @ entropy_and_gradient(g.conj().swapaxes(1, 2) @ g)[1]
            h_c = g.reshape(b, c, -1)
            g_bar -= 2.0 * (entropy_and_gradient(_gram(h_c))[1] @ h_c).reshape(g.shape)
        else:
            g_bar = np.zeros_like(g)
        h = self.target_sqrt @ g.reshape(b, len(self.target_sqrt), -1)
        fid, d_f = fidelity_and_gradient(_gram(h))
        pull = 2.0 * kappa * np.maximum(floor - fid, 0.0)
        g_bar += 2.0 * (self.target_sqrt @ (pull[:, None, None] * d_f) @ h).reshape(g.shape)

        phi_bar = g_bar.reshape(b, src.dim_cq, w, c, self.dim_e).transpose(0, 3, 1, 4, 2) \
            .reshape(phi.shape)
        if self.kind == "W":
            per_x = phi.reshape(b, c, c, -1)
            g_x = entropy_and_gradient(_gram(per_x))[1]
            phi_bar += (2.0 * src.probs[:, None, None] * g_x @ per_x).reshape(phi.shape)
        u_bar = np.sqrt(src.probs)[:, None, None] * phi_bar \
            @ src.branches.reshape(c, qd, w).conj().swapaxes(-1, -2)
        u_bar = u_bar.transpose(0, 2, 1, 3).reshape(iso.shape)
        a_bar = phase_fixed_qr_adjoint(a, iso, u_bar)
        return a_bar.reshape(b, -1)


def _checked_isometry(problem: _GadgetProblem, isometry: np.ndarray) -> np.ndarray:
    """``isometry`` as a complex array, checked for shape, finiteness and orthonormal columns."""
    iso = np.asarray(isometry, dtype=complex)
    if iso.shape != (problem.dim_out, problem.src.dim_cq):
        raise DimensionMismatchError(
            f"isometry shape {iso.shape} differs from ({problem.dim_out}, {problem.src.dim_cq})")
    if not np.isfinite(iso).all():
        raise ValidationError("isometry has non-finite entries")
    err = np.abs(iso.conj().T @ iso - np.eye(iso.shape[1])).max()
    if err > 1e-8:
        raise ValidationError(
            f"isometry columns are not orthonormal (max |U^dagger U - 1| = {err:.2e})")
    return iso


def evaluate_isometry(source: ExtendedSource, kind: str,
                      isometry: np.ndarray) -> tuple[float, float]:
    """Objective value and fidelity of one explicit isometry witness."""
    problem = _GadgetProblem(source, kind)
    iso = _checked_isometry(problem, isometry)
    value, fid = problem.evaluate(iso.reshape(1, -1))
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
        starts.append(_checked_isometry(problem, iso).reshape(-1))
    rng = seed_rng(opts.seed, "converse", kind)
    for _ in range(opts.restarts):
        starts.append(_ginibre(rng, problem.dim_out, source.dim_cq).reshape(-1))

    # all starts ascend together, one maximize call per penalty stage
    thetas = np.stack(starts)
    for stage in range(opts.stages):
        kappa = KAPPA0 * (10.0 ** stage)

        def objective(batch: np.ndarray) -> np.ndarray:
            value, fid = problem.evaluate(batch)
            return value - kappa * np.maximum(floor - fid, 0.0) ** 2

        thetas, _ = maximize(objective, thetas, max_iters=opts.iters_per_stage,
                             init_step=INIT_STEP, chunk=problem.chunk,
                             gradient=lambda batch: problem.gradient(batch, floor, kappa))

    # candidate pool: raw starts too, since identity and warm isometries are
    # feasible witnesses in their own right
    batch = np.concatenate([np.stack(starts), thetas], axis=0)
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
    if not grid:
        raise ValidationError("the epsilon grid is empty")
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
