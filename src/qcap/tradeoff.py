"""Classical/quantum trade-off curves of a channel at a finite power level.

For a channel N and level l, an ensemble {p_x, psi_x} of pure states on
A^l tensor R yields per-use rates

    r_c = [S(avg N(rho_x)) - avg S(N(rho_x))] / l,
    r_q = avg [S(N(rho_x)) - S((N tensor id)(psi_x))] / l  (clamped at 0),

and the level-l trade-off curve is the upper concave envelope over ensembles
of the achievable (r_q, r_c) pairs, closed downward by its axis projections.
The scalarization max (1-t) r_c + t r_q is maximized by gradient ascent over
one complex d_A x d_R matrix A_x per branch, read as the weighted branch
state p_x rho_x = A_x A_x^dagger / sum_y |A_y|^2, with the exact gradient:
dS(sigma)/dsigma = -log sigma, pulled back to p_x rho_x through the output
map; psi_x = A_x / |A_x|.  Deterministic classical and maximally entangled
starting points pin the curve endpoints; random restarts and warm starts
from neighboring weights refine the interior.  All starts of one solve
ascend in lock step, one batched gradient and one batched line search per
iteration.  Every returned point carries its witness ensemble, and
re-evaluating a witness reproduces the recorded rates: the optimizer and
:func:`qcap.information.generalized_information` share one output map,
which takes rho_x to N(rho_x) and to the complementary output
N^c(rho_x)_jk = Tr[K_j rho_x K_k^dagger], whose entropy is S((N tensor id)(psi_x)).

A search uses n branches and reads the average output as N(P(rho_bar)),
rho_bar = sum_x p_x rho_x, through one fixed map: the output map's N block
with every row that P drops set to zero.  In general P is the identity and
n = D^2 + 2, D = d_A^l, Caratheodory's bound.  For a phase-covariant channel
P is the dephasing Delta in the product basis and n = D + 1: twirling an
ensemble by Z^k = diag(exp(2 pi i j k / D)), k = 0..D-1, keeps every branch
term and dephases the average, which can only raise S(N(rho_bar)), and the
objective then depends on each branch only through (diag rho_x, its branch
term), a point in D dimensions, so Caratheodory leaves D + 1 branches (Wilde,
*Quantum Information Theory*, 2nd ed., on covariant channels).  The witness
is the twirl of the n branches by Z^k for k below the twirl order, D with
Delta and 1 (no twirl) with the identity, so its average input is
P(rho_bar) and it re-evaluates to the rates the search read.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import QuantumChannel, channel_power
from .errors import NumericalFailureError, ValidationError, _nonnegative_int, _positive_int
from .information import CQEnsemble, _branch_outputs, _output_map, generalized_information
from .linalg import batched_entropy, entropy_and_gradient, per_size
from . import optimize
from .sampling import seed_rng

ENVELOPE_TOL = 1e-9
INIT_STEP = 0.3


@dataclass(frozen=True)
class OptimizerOptions:
    """Budget knobs for ensemble optimization."""

    restarts: int = 24
    max_iters: int = 80
    seed: int = 0

    def __post_init__(self):
        _nonnegative_int(self.restarts,
                         f"restarts must be a non-negative integer, got {self.restarts!r}")
        _positive_int(self.max_iters,
                      f"max_iters must be a positive integer, got {self.max_iters!r}")


@dataclass(frozen=True, eq=False)
class CurvePoint:
    """One point of a trade-off curve; synthetic points carry no witness."""

    r_q: float
    r_c: float
    weight_t: float | None
    witness: CQEnsemble | None
    synthetic: bool


@dataclass(frozen=True, eq=False)
class ScalarizedResult:
    """Outcome of one scalarized maximization."""

    ensemble: CQEnsemble
    r_q: float
    r_c: float
    value: float
    weight_t: float
    fell_back: bool
    params: np.ndarray


@dataclass(frozen=True, eq=False)
class TradeoffCurve:
    """Concave trade-off frontier with witnessed and synthetic points."""

    level_l: int
    points: tuple[CurvePoint, ...]     # envelope vertices, ascending r_q
    achieved: tuple[CurvePoint, ...]   # one witnessed point per grid weight
    c_q_endpoint: float
    c_c_endpoint: float

    def value_at(self, r_q: float) -> float:
        """Piecewise-linear envelope value at ``r_q`` inside [0, c_q]."""
        xs = np.array([p.r_q for p in self.points])
        ys = np.array([p.r_c for p in self.points])
        if r_q < -1e-12 or r_q > self.c_q_endpoint + 1e-12:
            raise ValidationError(f"r_q = {r_q} outside [0, {self.c_q_endpoint}]")
        return float(np.interp(r_q, xs, ys))


class _EnsembleProblem:
    """Batched rate evaluation for parameterized ensembles on A^l.

    A parameter row holds one complex d_A x d_R matrix A_x per branch (real
    parts, then imaginary parts).  X_x = A_x A_x^dagger / sum_y |A_y|^2 is the
    weighted branch state p_x rho_x, so p_x = Tr X_x and psi_x = A_x / |A_x|.
    The average output is N(P(sum_x X_x)), read through ``avg_map``, which
    takes row-major vec(sum_x X_x) to vec N(P(sum_x X_x)).  P, the branch
    count n and the twirl order are set once from the channel: the identity,
    d_A^2 + 2 and 1, or for a phase-covariant channel the dephasing Delta,
    d_A + 1 and d_A.  ``ensemble_of`` twirls the n branches by Z^k for k
    below the twirl order.

    The three outputs N(X_x), N^c(X_x) and the average go through the
    entropy kernel together, one call per distinct matrix size
    (:func:`qcap.linalg.per_size`): one call when d_B equals the Kraus
    count, as for dephasing, amplitude damping, erasure and the identity.
    A 2x2 output takes the kernel's closed-form spectrum, larger ones LAPACK.
    """

    def __init__(self, channel: QuantumChannel, l: int):
        power = channel_power(channel, l)
        self.out_map = _output_map(np.stack(power.kraus))
        self.d_a = power.dim_in
        self.d_b = power.dim_out
        self.d_r = power.dim_in
        if power.phase_covariant:
            # Delta keeps the d_A diagonal entries of vec(rho)
            self.n, self.twirl_order, kept = self.d_a + 1, self.d_a, np.eye(self.d_a).reshape(-1)
        else:
            self.n, self.twirl_order, kept = self.d_a ** 2 + 2, 1, np.ones(self.d_a ** 2)
        self.avg_map = self.out_map[:, :self.d_b ** 2] * kept[:, None]
        self.n_params = 2 * self.n * self.d_a * self.d_r
        per_row = self.n * (self.d_b ** 2 + len(power.kraus) ** 2) * 16
        # rows per objective call; optimize.maximize says where it binds
        self.chunk = max(8, int(6e7 / max(per_row, 1)))

    def _matrices(self, thetas: np.ndarray) -> np.ndarray:
        raw = np.asarray(thetas, dtype=float).reshape(len(thetas), self.n, 2, self.d_a, self.d_r)
        return raw[:, :, 0] + 1j * raw[:, :, 1]

    def _outputs(self, thetas: np.ndarray):
        """A_x, sum_y |A_y|^2, p_x, N(X_x), N^c(X_x) and N(P(sum_x X_x)) for a batch.

        The average output is a broadcast sum over ``avg_map``, not a
        product, so that no row's value depends on the batch it is
        evaluated in.
        """
        a = self._matrices(thetas)
        mass = (a.real ** 2 + a.imag ** 2).sum(axis=(2, 3))
        total = mass.sum(axis=1, keepdims=True)
        x = a @ a.conj().swapaxes(-1, -2) / total[..., None, None]
        sigma_b, env = _branch_outputs(self.out_map, self.d_b, x)
        x_bar = x.sum(axis=1).reshape(-1, self.d_a ** 2, 1)
        avg_b = (x_bar * self.avg_map).sum(axis=-2).reshape(-1, self.d_b, self.d_b)
        return a, total, mass / total, sigma_b, env, avg_b

    def rates(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Block (not per-use) values of (r_q, r_c) for a parameter batch."""
        _, _, probs, sigma_b, env, avg_b = self._outputs(thetas)
        s_b, s_br, s_avg = per_size(batched_entropy, sigma_b, env, avg_b)
        r_c = s_avg - (probs * s_b).sum(axis=1)
        r_q = (probs * (s_b - s_br)).sum(axis=1)
        return r_q, r_c

    def gradient(self, thetas: np.ndarray, t: float) -> np.ndarray:
        """Exact gradient of (1 - t) r_c + t r_q (block values) for a batch (B, P).

        The objective is (1-t) S(N(P(sum_x X_x))) + sum_x Tr X_x h_x with
        h_x = (2t-1) S(sigma_x) - t S(E_x), sigma_x and E_x the normalized
        N(X_x) and N^c(X_x).  The entropy gradients of the branch outputs go
        back to X_x through the transpose of the output map, which applies
        N^dagger and N^c^dagger at once; d Tr X_x adds h_x I.  P is
        self-adjoint, so the average adds (1-t) P N^dagger(G_avg), pulled
        back through ``avg_map``, to every branch.  Through
        X = A A^dagger / sum |A|^2 the gradient Gamma_x in X_x becomes
        2 (Gamma_x - c I) A_x / sum |A|^2 with c = sum_x Tr[Gamma_x X_x].
        """
        b, n, d_a = len(thetas), self.n, self.d_a
        a, total, probs, sigma_b, env, avg_b = self._outputs(thetas)
        (s_b, g_b), (s_e, g_e), (_, g_avg) = per_size(entropy_and_gradient,
                                                       sigma_b, env, avg_b)

        # Tr[Gamma dX] pulled back from vec(Gamma^T) of every output
        pw = probs[..., None, None]
        cot = np.concatenate([((2.0 * t - 1.0) * pw * g_b).swapaxes(-1, -2).reshape(b, n, -1),
                              ((-t) * pw * g_e).swapaxes(-1, -2).reshape(b, n, -1)], axis=-1)
        avg = (g_avg.swapaxes(-1, -2).reshape(b, 1, -1) * self.avg_map).sum(axis=-1)
        gam = (cot @ self.out_map.T + (1.0 - t) * avg[:, None]).reshape(
            b, n, d_a, d_a).swapaxes(-1, -2)
        h = (2.0 * t - 1.0) * s_b - t * s_e
        g_a = gam @ a + h[..., None, None] * a
        total = total[..., None, None]
        c = (a.conj() * g_a).real.sum(axis=(1, 2, 3), keepdims=True) / total
        g_a = 2.0 * (g_a - c * a) / total
        return np.stack([g_a.real, g_a.imag], axis=2).reshape(b, -1)

    def ensemble_of(self, theta: np.ndarray) -> CQEnsemble:
        """The witness: the n branches twirled by Z^j for j below the twirl order k.

        It holds (Z^j tensor 1) psi_x with weight p_x / k for every branch x
        and j = 0..k-1, Z = diag(exp(2 pi i m / d_A)).  With k = d_A its
        average input is Delta(rho_bar) whatever the channel; k = 1 leaves
        the n branches as they are.
        """
        vecs = self._matrices(theta[None, :])[0].reshape(self.n, -1)
        mass = np.linalg.norm(vecs, axis=1) ** 2
        vecs[mass == 0, 0] = 1.0  # a branch of weight 0 still needs a unit vector
        probs = mass / mass.sum()
        vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        d, k = self.d_a, self.twirl_order
        phases = np.exp(2j * np.pi * np.outer(np.arange(k), np.arange(d)) / d)
        vecs = (phases[None, :, :, None] * vecs.reshape(self.n, 1, d, self.d_r)).reshape(
            self.n * k, -1)
        return CQEnsemble(self.d_a, self.d_r, np.repeat(probs / k, k), vecs)

    def pack(self, weights: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        """Parameters with A_x = w_x v_x."""
        a = np.asarray(weights, float)[:, None] * vectors
        return np.stack([a.real, a.imag], axis=1).reshape(-1)

    def canonical_starts(self, rng: np.random.Generator) -> list[np.ndarray]:
        """Deterministic classical-basis and maximally entangled starts."""
        d_a, d_r, n = self.d_a, self.d_r, self.n
        rand = rng.normal(size=(2, n, d_a * d_r)) + 1j * rng.normal(size=(2, n, d_a * d_r))
        rand /= np.linalg.norm(rand, axis=2, keepdims=True)

        vecs = rand[0].copy()
        for i in range(d_a):
            v = np.zeros(d_a * d_r, dtype=complex)
            v[i * d_r] = 1.0
            vecs[i] = v
        weights = np.where(np.arange(n) < d_a, 1.0, 0.05)
        classical = self.pack(weights, vecs)

        vecs = rand[1].copy()
        ent = np.zeros(d_a * d_r, dtype=complex)
        ent[:: d_r + 1][:d_a] = 1.0 / np.sqrt(d_a)
        vecs[0] = ent
        weights = np.where(np.arange(n) < 1, 1.0, 0.05)
        entangled = self.pack(weights, vecs)
        return [classical, entangled]

    def random_start(self, rng: np.random.Generator) -> np.ndarray:
        weights = np.abs(rng.normal(size=self.n)) + 0.2
        vectors = rng.normal(size=(self.n, self.d_a * self.d_r)) \
            + 1j * rng.normal(size=(self.n, self.d_a * self.d_r))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        return self.pack(weights, vectors)


def evaluate_point(ensemble: CQEnsemble, channel: QuantumChannel, l: int = 1) -> tuple[float, float]:
    """Per-use rates (r_q, r_c) of an ensemble on A^l; r_q clamped at zero.

    With D = dim(A^l), the ensemble size must not exceed the larger of
    D^2 + 2, the optimizer's branch count and Caratheodory's bound for any
    ensemble, and D (D + 1), the size of its twirled witness for a
    phase-covariant channel.
    """
    power = channel_power(channel, l)
    d = power.dim_in
    bound = max(d ** 2 + 2, d * (d + 1))
    if ensemble.size > bound:
        raise ValidationError(
            f"ensemble has {ensemble.size} entries, bound for this level is {bound}")
    info = generalized_information(ensemble, power)
    return max(info.r_q, 0.0) / l, info.r_c / l


def _optimize(problem: _EnsembleProblem, t: float, opts: OptimizerOptions,
              extra_starts: Sequence[np.ndarray]) -> tuple[np.ndarray, float, bool]:
    def objective(thetas: np.ndarray) -> np.ndarray:
        r_q, r_c = problem.rates(thetas)
        return (1.0 - t) * r_c + t * r_q

    rng = seed_rng(opts.seed, "tradeoff")
    canonical = problem.canonical_starts(rng)
    starts = list(canonical)
    for extra in extra_starts:
        theta = np.asarray(extra, dtype=float)
        if theta.shape != (problem.n_params,):
            raise ValidationError("warm start has the wrong parameter shape")
        if not theta.any():
            raise ValidationError("warm start has all branch matrices zero")
        starts.append(theta)
    for _ in range(opts.restarts):
        starts.append(problem.random_start(rng))

    baseline = float(np.max(objective(np.stack(canonical))))
    thetas, values = optimize.maximize(objective, np.stack(starts), max_iters=opts.max_iters,
                                       init_step=INIT_STEP, chunk=problem.chunk,
                                       gradient=lambda th: problem.gradient(th, t))
    best = int(np.argmax(values))
    fell_back = bool(values[best] <= baseline + 1e-12)
    return thetas[best], float(values[best]), fell_back


def optimize_scalarized(channel: QuantumChannel, l: int, t: float,
                        opts: OptimizerOptions | None = None,
                        extra_starts: Sequence[np.ndarray] = ()) -> ScalarizedResult:
    """Maximize (1 - t) r_c + t r_q over ensembles at level ``l``."""
    if not 0.0 <= t <= 1.0:
        raise ValidationError(f"scalarization weight {t} outside [0, 1]")
    opts = opts or OptimizerOptions()
    problem = _EnsembleProblem(channel, l)
    theta, _, fell_back = _optimize(problem, t, opts, extra_starts)
    ens = problem.ensemble_of(theta)
    r_q, r_c = evaluate_point(ens, channel, l)
    return ScalarizedResult(ensemble=ens, r_q=r_q, r_c=r_c,
                            value=(1.0 - t) * r_c + t * r_q,
                            weight_t=float(t), fell_back=fell_back, params=theta)


def default_t_grid(count: int = 21) -> np.ndarray:
    """Chebyshev-spaced scalarization weights on [0, 1], endpoints included."""
    if count < 2:
        raise ValidationError(f"a weight grid needs at least 2 points, got {count}")
    k = np.arange(count)
    return 0.5 * (1.0 - np.cos(np.pi * k / (count - 1)))


def _upper_concave_envelope(raw: list[CurvePoint]) -> list[CurvePoint]:
    """Vertices of the upper concave envelope, ascending r_q."""
    best_at: dict[float, CurvePoint] = {}
    for p in raw:
        x = round(p.r_q, 12)
        cur = best_at.get(x)
        if cur is None or p.r_c > cur.r_c + 1e-12 or \
                (abs(p.r_c - cur.r_c) <= 1e-12 and cur.synthetic and not p.synthetic):
            best_at[x] = p
    pts = [best_at[x] for x in sorted(best_at)]
    stack: list[CurvePoint] = []
    for p in pts:
        while len(stack) >= 2:
            ax, ay = stack[-2].r_q, stack[-2].r_c
            bx, by = stack[-1].r_q, stack[-1].r_c
            cross = (bx - ax) * (p.r_c - ay) - (by - ay) * (p.r_q - ax)
            if cross >= -1e-14:
                stack.pop()
            else:
                break
        stack.append(p)
    return stack


def validate_envelope(points: Sequence[CurvePoint]) -> None:
    """Check the envelope is a function, non-increasing, and concave."""
    if not points:
        raise ValidationError("empty envelope")
    xs = np.array([p.r_q for p in points])
    ys = np.array([p.r_c for p in points])
    if np.any(np.diff(xs) <= 0) and len(points) > 1:
        raise NumericalFailureError("envelope r_q coordinates are not increasing")
    if np.any(np.diff(ys) > ENVELOPE_TOL):
        raise NumericalFailureError("envelope r_c is not non-increasing")
    if len(points) >= 3:
        slopes = np.diff(ys) / np.diff(xs)
        if np.any(np.diff(slopes) > ENVELOPE_TOL):
            raise NumericalFailureError("envelope is not concave")


def compute_curve(channel: QuantumChannel, l: int = 1,
                  t_grid: Sequence[float] | None = None,
                  opts: OptimizerOptions | None = None) -> TradeoffCurve:
    """Trace the level-``l`` trade-off curve over a scalarization grid.

    Neighboring grid points share warm starts, so the sweep is cheaper than
    independent maximizations.  The returned envelope includes synthetic
    axis-projection anchors when no witnessed point achieves them.
    """
    opts = opts or OptimizerOptions()
    grid = default_t_grid() if t_grid is None else np.asarray(sorted(float(t) for t in t_grid))
    if grid.size < 2 or not np.isfinite(grid).all() or grid[0] != 0.0 or grid[-1] != 1.0:
        raise ValidationError("the weight grid must be finite and span 0 to 1 inclusive")

    achieved: list[CurvePoint] = []
    warm: list[np.ndarray] = []
    for t in grid:
        res = optimize_scalarized(channel, l, float(t), opts, extra_starts=tuple(warm))
        warm = [res.params]
        achieved.append(CurvePoint(r_q=res.r_q, r_c=res.r_c, weight_t=float(t),
                                   witness=res.ensemble, synthetic=False))

    c_q = max(p.r_q for p in achieved)
    c_c = max(p.r_c for p in achieved)
    candidates = list(achieved)
    candidates.append(CurvePoint(r_q=0.0, r_c=c_c, weight_t=None, witness=None, synthetic=True))
    candidates.append(CurvePoint(r_q=c_q, r_c=0.0, weight_t=None, witness=None, synthetic=True))
    envelope = _upper_concave_envelope(candidates)
    validate_envelope(envelope)
    return TradeoffCurve(level_l=l, points=tuple(envelope), achieved=tuple(achieved),
                         c_q_endpoint=c_q, c_c_endpoint=c_c)
