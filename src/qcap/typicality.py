"""Strong typicality: sets, counts, masses, projectors, and source projection.

A length-n sequence over a finite alphabet is typical for a distribution p
when every symbol count N(x) satisfies |N(x) - n p(x)| <= n delta.  The rule
is applied literally: a zero-probability symbol may appear as long as its
count stays within n delta.  Conditional typicality constrains joint counts
against p(y|x) N(x) with the same slack.  The typical set of p is the
conditional typical set of the one-row p(y|x) = p(y) along a constant base
sequence, so one enumerator lists both.

Counts and masses are computed exactly by enumerating admissible count
vectors and summing multinomial weights, so they stay cheap even at block
lengths where listing sequences is impossible.  Projector construction and
sequence enumeration carry explicit resource guardrails.

The dimension bound  count <= 2^(n [H(p) + c delta])  holds exactly for
full-support p with the constant c = sum_x |log2 p(x)|; the conditional
variant uses S(Y|X) and c = sum_x [H(Y|X=x) + sum_y |log2 p(y|x)|] and
requires the conditioning sequence itself to be typical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ResourceLimitError, ValidationError, _positive_int
from .linalg import entropy_from_probs, hermitize
from .sampling import seed_rng
from .spaces import TensorSpace
from .states import DensityMatrix, block_form

PROB_TOL = 1e-12
ENUMERATION_LIMIT = 20
PROJECTOR_LOG2_LIMIT = 12.0
COUNT_EPS = 1e-9
SAMPLE_CHUNK = 512


@dataclass(frozen=True, eq=False)
class TypicalSpec:
    """A distribution, block length, and slack defining one typical set."""

    probs: np.ndarray
    n: int
    delta: float

    def __init__(self, probs, n: int, delta: float):
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValidationError("probability vector must be 1-dimensional and non-empty")
        p = _validate_conditional(p[None])[0]
        n = _positive_int(n, f"block length must be a positive integer, got {n!r}")
        if not delta > 0:
            raise ValidationError(f"slack must be positive, got {delta!r}")
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "delta", float(delta))

    @property
    def alphabet_size(self) -> int:
        return self.probs.size

    def count_windows(self) -> tuple[np.ndarray, np.ndarray]:
        """Admissible integer count range [lo, hi] per symbol."""
        return _windows(self.probs, self.n, self.n * self.delta)


def _windows(probs: np.ndarray, n: int, slack: float) -> tuple[np.ndarray, np.ndarray]:
    centers = n * probs
    lo = np.ceil(centers - slack - COUNT_EPS).astype(int)
    hi = np.floor(centers + slack + COUNT_EPS).astype(int)
    return np.clip(lo, 0, n), np.clip(hi, 0, n)


def is_typical(sequence: Sequence[int], spec: TypicalSpec) -> bool:
    """Exact membership test for one sequence of symbol indices."""
    return is_conditionally_typical(sequence, [0] * spec.n, spec.probs[None], spec.delta)


def _count_vectors(lo: np.ndarray, hi: np.ndarray, total: int) -> Iterator[tuple[int, ...]]:
    """All integer vectors with lo <= v <= hi and sum(v) == total."""
    k = lo.size
    suffix_lo = np.concatenate([np.cumsum(lo[::-1])[::-1], [0]])
    suffix_hi = np.concatenate([np.cumsum(hi[::-1])[::-1], [0]])

    def rec(i: int, remaining: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if i == k:
            if remaining == 0:
                yield prefix
            return
        low = max(lo[i], remaining - suffix_hi[i + 1])
        high = min(hi[i], remaining - suffix_lo[i + 1])
        for v in range(int(low), int(high) + 1):
            yield from rec(i + 1, remaining - v, prefix + (v,))

    yield from rec(0, total, ())


def _multinomial(n: int, counts: Sequence[int]) -> int:
    out = 1
    rest = n
    for c in counts:
        out *= math.comb(rest, c)
        rest -= c
    return out


def typical_count(spec: TypicalSpec) -> int:
    """Exact number of typical sequences."""
    return conditional_typical_count(spec.probs[None], [0] * spec.n, spec.delta)


def _mass_of_counts(probs: np.ndarray, n: int, vectors) -> float:
    use_logs = n > 60
    total = 0.0
    logs = np.where(probs > 0, np.log(np.where(probs > 0, probs, 1.0)), 0.0)
    for v in vectors:
        arr = np.asarray(v)
        if np.any((probs == 0) & (arr > 0)):
            continue
        if use_logs:
            log_term = math.lgamma(n + 1) - sum(math.lgamma(c + 1) for c in v)
            log_term += float(np.dot(arr, logs))
            total += math.exp(log_term)
        else:
            total += _multinomial(n, v) * float(np.prod(np.where(arr > 0, probs ** arr, 1.0)))
    return min(total, 1.0)


def typical_mass(spec: TypicalSpec) -> float:
    """Exact probability that an i.i.d. draw lands in the typical set."""
    return conditional_typical_mass(spec.probs[None], [0] * spec.n, spec.delta)


def enumerate_typical(spec: TypicalSpec) -> Iterator[tuple[int, ...]]:
    """Lexicographic iterator over typical sequences.  Guarded at n <= 20."""
    return _enumerate(spec.probs[None], np.zeros(spec.n, dtype=int), spec.delta)


def dimension_constant(probs) -> float:
    """c = sum over the support of |log2 p(x)|."""
    p = np.asarray(probs, dtype=float)
    supp = p[p > 0]
    return float(np.sum(np.abs(np.log2(supp))))


def typical_dimension_bound(spec: TypicalSpec) -> float:
    """log2 of the exact cardinality bound 2^(n [H + c delta])."""
    h = entropy_from_probs(spec.probs)
    return spec.n * (h + dimension_constant(spec.probs) * spec.delta)


def _validate_conditional(cond) -> np.ndarray:
    """Rows of probabilities, clipped at zero; a validated array validates again."""
    m = np.asarray(cond, dtype=float)
    if m.ndim != 2 or m.size == 0:
        raise ValidationError("conditional distribution must be a 2-d array p(y|x)")
    if not np.isfinite(m).all():
        raise ValidationError("probabilities have NaN or infinite entries")
    clipped = np.clip(m, 0.0, None)
    if (np.any(m < -PROB_TOL) or np.any(np.abs(m.sum(axis=1) - 1.0) > PROB_TOL)
            or np.any(np.abs(clipped.sum(axis=1) - 1.0) > PROB_TOL)):
        raise ValidationError("probability rows must be nonnegative and sum to 1 within 1e-12")
    return clipped


def _base_sequence(xn: Sequence[int], delta: float, kx: int) -> np.ndarray:
    """The base sequence as a non-empty 1-d array over range(kx); delta must be positive."""
    xs = np.asarray(xn, dtype=int)
    if xs.ndim != 1 or xs.size == 0:
        raise ValidationError("base sequence must be 1-dimensional and non-empty")
    if xs.min() < 0 or xs.max() >= kx:
        raise ValidationError("base sequence contains symbols outside the alphabet")
    if not delta > 0:
        raise ValidationError(f"slack must be positive, got {delta!r}")
    return xs


def is_conditionally_typical(yn: Sequence[int], xn: Sequence[int], cond,
                             delta: float) -> bool:
    """Joint-count test |N(x,y) - p(y|x) N(x)| <= n delta for all pairs."""
    m = _validate_conditional(cond)
    xs = _base_sequence(xn, delta, m.shape[0])
    ys = np.asarray(yn, dtype=int)
    if ys.shape != xs.shape:
        raise ValidationError("sequences must be 1-dimensional with equal length")
    kx, ky = m.shape
    if ys.min() < 0 or ys.max() >= ky:
        raise ValidationError("sequence contains symbols outside the alphabet")
    n = xs.size
    slack = n * float(delta)
    joint = np.zeros((kx, ky), dtype=int)
    np.add.at(joint, (xs, ys), 1)
    targets = m * joint.sum(axis=1, keepdims=True)
    return bool(np.all(np.abs(joint - targets) <= slack + COUNT_EPS))


def _per_symbol_windows(cond: np.ndarray, xn: np.ndarray,
                        delta: float) -> list[tuple[int, int, np.ndarray, np.ndarray]]:
    """(symbol, occurrences, lo, hi) per distinct symbol of the base sequence."""
    n = xn.size
    out = []
    for x in sorted(set(int(v) for v in xn)):
        n_x = int(np.sum(xn == x))
        lo, hi = _windows(cond[x], n_x, n * delta)
        out.append((x, n_x, lo, hi))
    return out


def conditional_typical_count(cond, xn: Sequence[int], delta: float) -> int:
    """Exact size of the conditional typical set for a fixed base sequence."""
    m = _validate_conditional(cond)
    xs = _base_sequence(xn, delta, m.shape[0])
    total = 1
    for _, n_x, lo, hi in _per_symbol_windows(m, xs, float(delta)):
        total *= sum(_multinomial(n_x, v) for v in _count_vectors(lo, hi, n_x))
    return total


def conditional_typical_mass(cond, xn: Sequence[int], delta: float) -> float:
    """Exact conditional probability of the conditional typical set."""
    m = _validate_conditional(cond)
    xs = _base_sequence(xn, delta, m.shape[0])
    total = 1.0
    for x, n_x, lo, hi in _per_symbol_windows(m, xs, float(delta)):
        total *= _mass_of_counts(m[x], n_x, _count_vectors(lo, hi, n_x))
    return total


def conditional_dimension_constant(cond) -> float:
    """c = sum_x [H(Y|X=x) + sum over the row support of |log2 p(y|x)|]."""
    m = _validate_conditional(cond)
    total = 0.0
    for row in m:
        total += entropy_from_probs(row) + dimension_constant(row)
    return float(total)


def conditional_dimension_bound(probs, cond, n: int, delta: float) -> float:
    """log2 of the bound 2^(n [S(Y|X) + c delta]); needs a typical base sequence."""
    p = np.asarray(probs, dtype=float)
    m = _validate_conditional(cond)
    if p.size != m.shape[0]:
        raise ValidationError("marginal and conditional alphabet sizes differ")
    message = f"need n >= 1 and positive slack, got n={n!r}, delta={delta!r}"
    n = _positive_int(n, message)
    if not delta > 0:
        raise ValidationError(message)
    s_cond = float(np.sum([p[x] * entropy_from_probs(m[x]) for x in range(p.size)]))
    return n * (s_cond + conditional_dimension_constant(m) * float(delta))


def enumerate_conditionally_typical(cond, xn: Sequence[int],
                                    delta: float) -> Iterator[tuple[int, ...]]:
    """Lexicographic iterator over conditionally typical sequences."""
    m = _validate_conditional(cond)
    return _enumerate(m, _base_sequence(xn, delta, m.shape[0]), float(delta))


def _enumerate(cond: np.ndarray, xs: np.ndarray, delta: float) -> Iterator[tuple[int, ...]]:
    """Sequences y^n whose joint counts with xs stay in their windows.  Guarded at n <= 20."""
    n = xs.size
    if n > ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"enumeration limited to n <= {ENUMERATION_LIMIT}, got {n}")
    windows = {x: (lo, hi) for x, _, lo, hi in _per_symbol_windows(cond, xs, delta)}
    ky = cond.shape[1]

    def rec(pos: int, counts: dict, prefix: tuple[int, ...]):
        if pos == n:
            yield prefix
            return
        x = int(xs[pos])
        lo, hi = windows[x]
        left = counts[x]["left"] - 1
        for y in range(ky):
            c = counts[x]["joint"][y] + 1
            if c > hi[y]:
                continue
            joint = counts[x]["joint"].copy()
            joint[y] = c
            deficit = int(np.sum(np.clip(lo - joint, 0, None)))
            if deficit > left:
                continue
            new_counts = dict(counts)
            new_counts[x] = {"joint": joint, "left": left}
            yield from rec(pos + 1, new_counts, prefix + (y,))

    init = {x: {"joint": np.zeros(ky, dtype=int), "left": int(np.sum(xs == x))}
            for x in windows}
    yield from rec(0, init, ())


def _descending_eigensystem(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(hermitize(matrix))
    order = np.argsort(w)[::-1]
    w = np.clip(w[order], 0.0, None)
    return w / w.sum(), v[:, order]


def _basis_projector_sum(sequences, bases: list[np.ndarray], dim: int,
                         n: int) -> np.ndarray:
    """Sum over sequences of the product-basis rank-1 projector chain.

    bases[t] holds the eigenvector matrix used at position t.  The sum is
    contracted leg by leg, never materializing a Kronecker power of bases.
    """
    mask = np.zeros((dim,) * n, dtype=float)
    for seq in sequences:
        mask[seq] = 1.0
    cur = mask
    for t in range(n):
        a = bases[t]
        b = np.einsum("is,js->sij", a, a.conj())
        # contract the leading symbol leg; its (i, j) pair appends at the end
        cur = np.tensordot(cur, b, axes=([0], [0]))
    perm = [2 * t for t in range(n)] + [2 * t + 1 for t in range(n)]
    full = cur.reshape((dim,) * (2 * n)).transpose(perm)
    d_tot = dim ** n
    return full.reshape(d_tot, d_tot)


def typical_projector(rho, n: int, delta: float) -> np.ndarray:
    """Projector onto the span of typical eigenbasis sequences of rho^(x n)."""
    n = _positive_int(n, f"block length must be a positive integer, got {n!r}")
    return conditional_typical_projector([rho], [0] * n, delta)


def conditional_typical_projector(branch_states: Sequence, xn: Sequence[int],
                                  delta: float) -> np.ndarray:
    """Projector from conditionally typical eigenbasis sequences along xn."""
    mats = [s.matrix if isinstance(s, DensityMatrix) else np.asarray(s, dtype=complex)
            for s in branch_states]
    dims = {m.shape[0] for m in mats}
    if len(dims) != 1:
        raise ValidationError("branch states must share one dimension")
    dim = dims.pop()
    xs = _base_sequence(xn, delta, len(mats))
    n = xs.size
    if n * math.log2(dim) > PROJECTOR_LOG2_LIMIT:
        raise ResourceLimitError(
            f"projector needs n * log2(dim) <= {PROJECTOR_LOG2_LIMIT}, "
            f"got {n * math.log2(dim):.1f}")
    eig = [_descending_eigensystem(m) for m in mats]
    cond = np.stack([w for w, _ in eig], axis=0)
    seqs = enumerate_conditionally_typical(cond, xs, delta)
    bases = [eig[int(x)][1] for x in xs]
    return _basis_projector_sum(seqs, bases, dim, n)


@dataclass(frozen=True, eq=False)
class ProjectedSource:
    """Typical-projected tensor power of a block-form source."""

    state: DensityMatrix
    kept_strings: tuple[tuple[int, ...], ...]
    classical_mass: float
    joint_mass: float
    branch_masses: tuple[float, ...]


def project_and_renormalize(omega: DensityMatrix, m: int, delta: float) -> ProjectedSource:
    """Typical projection of the m-fold power of a block-form source.

    The classical register is restricted to the typical strings of the block
    weights; each surviving branch is conjugated on its quantum register by
    the conditional typical projector of the branch marginals along the
    string and renormalized.  Classical weights are renormalized by the
    retained classical mass; the overall retained joint mass is reported.
    """
    work, probs, branches = block_form(omega, ("C", "Q", "R"))
    d_c, d_q, d_r = work.space.dims
    m = _positive_int(m, f"power must be a positive integer, got {m!r}")
    if m * math.log2(d_c * d_q) > PROJECTOR_LOG2_LIMIT:
        raise ResourceLimitError(
            f"projection needs m * log2(|C||Q|) <= {PROJECTOR_LOG2_LIMIT}")
    if m * math.log2(d_c * d_q * d_r) > PROJECTOR_LOG2_LIMIT:
        raise ResourceLimitError("projected output state would be too large to build")

    q_marginals = [b.reshape(d_q, d_r, d_q, d_r).trace(axis1=1, axis2=3)
                   for b in branches]

    kept = tuple(enumerate_typical(TypicalSpec(probs, m, delta)))
    if not kept:
        raise ValidationError("typical set of the classical register is empty")
    classical_mass = float(sum(np.prod(probs[list(s)]) for s in kept))
    if classical_mass <= 0.0:
        raise ValidationError("retained classical mass is zero")

    dq_m, dr_m = d_q ** m, d_r ** m
    out_dim = (d_c ** m) * dq_m * dr_m
    out = np.zeros((out_dim, out_dim), dtype=complex)
    out_view = out.reshape(d_c ** m, dq_m * dr_m, d_c ** m, dq_m * dr_m)
    # interleaved (q1 r1 ... qm rm) legs regrouped to (q1..qm, r1..rm)
    perm = [2 * t for t in range(m)] + [2 * t + 1 for t in range(m)]
    branch_masses = []
    joint_mass = 0.0
    for string in kept:
        joint = np.array([[1.0 + 0.0j]])
        for x in string:
            joint = np.kron(joint, branches[x])
        legs = joint.reshape((d_q, d_r) * (2 * m))
        legs = legs.transpose(perm + [2 * m + i for i in perm])
        joint = legs.reshape(dq_m * dr_m, dq_m * dr_m)
        proj = conditional_typical_projector(q_marginals, list(string), delta)
        big = np.kron(proj, np.eye(dr_m))
        cut = big @ joint @ big
        mass = float(np.trace(cut).real)
        if mass <= 1e-14:
            raise ValidationError(
                "a retained branch has zero mass under its conditional projector")
        branch_masses.append(mass)
        p_string = float(np.prod(probs[list(string)]))
        joint_mass += p_string * mass
        idx = 0
        for x in string:
            idx = idx * d_c + x
        out_view[idx, :, idx, :] += (p_string / classical_mass) * (cut / mass)

    space = TensorSpace.of(("C", d_c ** m), ("Q", dq_m), ("R", dr_m))
    state = DensityMatrix(space, hermitize(out))
    return ProjectedSource(state=state, kept_strings=kept,
                           classical_mass=classical_mass,
                           joint_mass=float(joint_mass),
                           branch_masses=tuple(branch_masses))


def sample_typical_fraction(probs, n: int, delta: float, samples: int,
                            seed: int = 0) -> float:
    """Monte Carlo fraction of i.i.d. draws that land in the typical set."""
    spec = TypicalSpec(probs, n, delta)
    samples = _positive_int(samples, "sample count must be positive")
    rng = seed_rng(seed, "typical-fraction")
    lo, hi = spec.count_windows()
    k = spec.alphabet_size
    hits = 0
    done = 0
    while done < samples:
        take = min(SAMPLE_CHUNK, samples - done)
        draws = rng.choice(k, size=(take, n), p=spec.probs)
        counts = np.stack([np.sum(draws == x, axis=1) for x in range(k)], axis=1)
        ok = np.all((counts >= lo) & (counts <= hi), axis=1)
        hits += int(np.sum(ok))
        done += take
    return hits / samples
