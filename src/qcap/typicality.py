"""Strong typicality: sets, counts, masses, projectors, and source projection.

A length-n sequence over a finite alphabet is typical for a distribution p
when every symbol count N(x) satisfies |N(x) - n p(x)| <= n delta.  The rule
is applied literally: a zero-probability symbol may appear as long as its
count stays within n delta.  Conditional typicality constrains joint counts
against p(y|x) N(x) with the same slack.  The typical set of p is the
conditional typical set of the one-row p(y|x) = p(y) along a constant base
sequence, so one enumerator lists both.  Each rule is read as one integer
count window per symbol (per base symbol for the conditional rule), and
membership, counting, masses, enumeration and sampling all test counts
against those windows.

Counts and masses come from one generating function: for a row p with count
windows [lo_y, hi_y], both are n! times the z^n coefficient of
prod_y sum_{c=lo_y..hi_y} p_y^c z^c / c!  (the count with every p_y = 1).
Each p_y is read as an exact binary fraction, so the sum is carried out in
integers: counts are exact and masses are the exact value rounded once.
This stays cheap at block lengths where listing sequences is impossible.
Projector construction and sequence enumeration carry explicit resource
guardrails.  A source projection diagonalizes each branch's Q marginal once
and clips its negative eigenvalues; every kept string's projector is built
from those eigensystems.

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

from .errors import ResourceLimitError, ValidationError, _positive_float, _positive_int
from .linalg import entropy_from_probs, hermitize
from .sampling import seed_rng
from .spaces import TensorSpace
from .states import EIGENVALUE_FLOOR, HERMITICITY_TOL, DensityMatrix, block_form

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
        object.__setattr__(self, "probs", _distribution(probs))
        object.__setattr__(self, "n", _positive_int(
            n, f"block length must be a positive integer, got {n!r}"))
        object.__setattr__(self, "delta", _positive_float(
            delta, f"slack must be positive, got {delta!r}"))

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
    # an edge past [0, n] stays there: lo > hi is an empty window, which admits no count
    return np.maximum(lo, 0), np.minimum(hi, n)


def is_typical(sequence: Sequence[int], spec: TypicalSpec) -> bool:
    """Exact membership test for one sequence of symbol indices."""
    return is_conditionally_typical(sequence, [0] * spec.n, spec.probs[None], spec.delta)


def typical_count(spec: TypicalSpec) -> int:
    """Exact number of typical sequences."""
    return conditional_typical_count(spec.probs[None], [0] * spec.n, spec.delta)


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


def _distribution(probs) -> np.ndarray:
    """A non-empty 1-d probability vector, validated as a one-row conditional."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValidationError("probability vector must be 1-dimensional and non-empty")
    return _validate_conditional(p[None])[0]


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


def _symbols(seq: Sequence[int], k: int, what: str) -> np.ndarray:
    """``seq`` as a non-empty 1-d integer array over range(k); ``what`` names it in errors."""
    s = np.asarray(seq)
    if s.ndim != 1 or s.size == 0:
        raise ValidationError(f"{what} must be 1-dimensional and non-empty")
    if not np.issubdtype(s.dtype, np.integer):
        raise ValidationError(f"{what} symbols must be integers, got {s.dtype}")
    if s.min() < 0 or s.max() >= k:
        raise ValidationError(f"{what} contains symbols outside the alphabet")
    return s


def _base_sequence(xn: Sequence[int], delta: float, kx: int) -> np.ndarray:
    """The base sequence as a non-empty 1-d integer array over range(kx); 0 < delta < inf."""
    xs = _symbols(xn, kx, "base sequence")
    _positive_float(delta, f"slack must be positive, got {delta!r}")
    return xs


def is_conditionally_typical(yn: Sequence[int], xn: Sequence[int], cond,
                             delta: float) -> bool:
    """Joint-count test |N(x,y) - p(y|x) N(x)| <= n delta, read through the count windows."""
    m = _validate_conditional(cond)
    xs = _base_sequence(xn, delta, m.shape[0])
    ys = _symbols(yn, m.shape[1], "sequence")
    if ys.size != xs.size:
        raise ValidationError("sequences must be 1-dimensional with equal length")
    for x, _, lo, hi in _per_symbol_windows(m, xs, float(delta)):
        counts = np.bincount(ys[xs == x], minlength=lo.size)
        if np.any((counts < lo) | (counts > hi)):
            return False
    return True


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


def _window_sum(probs: np.ndarray, n: int, lo: np.ndarray,
                hi: np.ndarray) -> tuple[int, int]:
    """n! [z^n] prod_y sum_{c=lo_y..hi_y} p_y^c z^c / c!  as an exact fraction (num, den).

    With p_y = a_y / b_y exactly, factor y times b_y^hi_y hi_y! / (a_y z)^lo_y
    has the integer coefficients a_y^j b_y^(hi_y-lo_y-j) hi_y! / (lo_y+j)!.
    """
    lo, hi = lo.tolist(), hi.tolist()
    k = n - sum(lo)
    if k < 0 or any(low > high for low, high in zip(lo, hi)):
        return 0, 1
    num, den = math.factorial(n), 1
    factors = []
    for p, low, high in zip(probs.tolist(), lo, hi):
        a, b = p.as_integer_ratio()
        num *= a ** low
        den *= b ** high * math.factorial(high)
        factor = np.empty(high - low + 1, dtype=object)
        term = 1
        for c in range(high, low - 1, -1):
            factor[c - low] = term * a ** (c - low) * b ** (high - c)
            term *= c
        factors.append(factor)
    poly = np.ones(1, dtype=object)
    for factor in factors[:-1]:
        poly = np.convolve(poly, factor)[:k + 1]
    # of the last product only the z^k coefficient is needed
    j = np.arange(max(0, k - poly.size + 1), min(k, factors[-1].size - 1) + 1)
    return num * int(np.sum(poly[k - j] * factors[-1][j])), den


def conditional_typical_count(cond, xn: Sequence[int], delta: float) -> int:
    """Exact size of the conditional typical set for a fixed base sequence."""
    m = _validate_conditional(cond)
    xs = _base_sequence(xn, delta, m.shape[0])
    total = 1
    for _, n_x, lo, hi in _per_symbol_windows(m, xs, float(delta)):
        num, den = _window_sum(np.ones(lo.size), n_x, lo, hi)
        total *= num // den
    return total


def conditional_typical_mass(cond, xn: Sequence[int], delta: float) -> float:
    """Exact conditional probability of the conditional typical set, rounded once."""
    m = _validate_conditional(cond)
    xs = _base_sequence(xn, delta, m.shape[0])
    num, den = 1, 1
    for x, n_x, lo, hi in _per_symbol_windows(m, xs, float(delta)):
        a, b = _window_sum(m[x], n_x, lo, hi)
        num, den = num * a, den * b
    # a clipped row may sum to 1 + 1e-12, so the exact mass can pass 1
    return min(num / den, 1.0)


def conditional_dimension_constant(cond) -> float:
    """c = sum_x [H(Y|X=x) + sum over the row support of |log2 p(y|x)|]."""
    m = _validate_conditional(cond)
    total = 0.0
    for row in m:
        total += entropy_from_probs(row) + dimension_constant(row)
    return float(total)


def conditional_dimension_bound(probs, cond, n: int, delta: float) -> float:
    """log2 of the bound 2^(n [S(Y|X) + c delta]); needs a typical base sequence."""
    p = _distribution(probs)
    m = _validate_conditional(cond)
    if p.size != m.shape[0]:
        raise ValidationError("marginal and conditional alphabet sizes differ")
    message = f"need n >= 1 and positive slack, got n={n!r}, delta={delta!r}"
    n = _positive_int(n, message)
    delta = _positive_float(delta, message)
    s_cond = float(np.sum([p[x] * entropy_from_probs(m[x]) for x in range(p.size)]))
    return n * (s_cond + conditional_dimension_constant(m) * delta)


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
    kx, ky = cond.shape
    # one joint-count table and the positions left per symbol, undone on the way back
    joint, left, windows = [[0] * ky for _ in range(kx)], [0] * kx, {}
    for x, n_x, lo, hi in _per_symbol_windows(cond, xs, delta):
        windows[x], left[x] = (lo.tolist(), hi.tolist()), n_x
    symbols = xs.tolist()

    def rec(pos: int, prefix: tuple[int, ...]):
        if pos == n:
            yield prefix
            return
        x = symbols[pos]
        lo, hi = windows[x]
        row = joint[x]
        left[x] -= 1
        for y in range(ky):
            if row[y] >= hi[y]:
                continue
            row[y] += 1
            if sum(max(low - c, 0) for low, c in zip(lo, row)) <= left[x]:
                yield from rec(pos + 1, prefix + (y,))
            row[y] -= 1
        left[x] += 1

    yield from rec(0, ())


def _descending_eigensystem(matrix: np.ndarray, clip: bool) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(hermitize(matrix))
    order = np.argsort(w)[::-1]
    w = w[order]
    if not w[0] > 0:
        raise ValidationError("a branch state needs a positive eigenvalue")
    if not clip and w[-1] < EIGENVALUE_FLOOR:
        raise ValidationError(f"a branch state has negative eigenvalue {w[-1]:.3e}")
    w = np.clip(w, 0.0, None)
    return w / w.sum(), v[:, order]


def _eigenbasis_projector(eig: Sequence[tuple[np.ndarray, np.ndarray]], xs: np.ndarray,
                          delta: float) -> np.ndarray:
    """Sum of the eigenbasis product projectors of the sequences typical along xs.

    ``eig[x]`` is branch x's descending (probabilities, eigenvectors).  The sum
    is contracted leg by leg, never materializing a Kronecker power of bases.
    """
    n, dim = xs.size, eig[0][1].shape[0]
    cur = np.zeros((dim,) * n, dtype=float)
    for seq in _enumerate(np.stack([w for w, _ in eig]), xs, delta):
        cur[seq] = 1.0
    for x in xs.tolist():
        a = eig[x][1]
        # contract the leading symbol leg; its (i, j) pair appends at the end
        cur = np.tensordot(cur, np.einsum("is,js->sij", a, a.conj()), axes=([0], [0]))
    perm = [2 * t for t in range(n)] + [2 * t + 1 for t in range(n)]
    return cur.reshape((dim,) * (2 * n)).transpose(perm).reshape(dim ** n, dim ** n)


def typical_projector(rho, n: int, delta: float) -> np.ndarray:
    """Projector onto the span of typical eigenbasis sequences of rho^(x n)."""
    n = _positive_int(n, f"block length must be a positive integer, got {n!r}")
    return conditional_typical_projector([rho], [0] * n, delta)


def conditional_typical_projector(branch_states: Sequence, xn: Sequence[int],
                                  delta: float) -> np.ndarray:
    """Projector from conditionally typical eigenbasis sequences along xn.

    Branch states must be positive semidefinite up to ``EIGENVALUE_FLOOR``.
    """
    mats = [s.matrix if isinstance(s, DensityMatrix) else np.asarray(s, dtype=complex)
            for s in branch_states]
    for m in mats:
        if (m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0 or not np.isfinite(m).all()
                or np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL):
            raise ValidationError("branch states must be finite, square and Hermitian within 1e-10")
    if len({m.shape for m in mats}) != 1:
        raise ValidationError("branch states must share one dimension")
    xs = _base_sequence(xn, delta, len(mats))
    cost = xs.size * math.log2(mats[0].shape[0])
    if cost > PROJECTOR_LOG2_LIMIT:
        raise ResourceLimitError(
            f"projector needs n * log2(dim) <= {PROJECTOR_LOG2_LIMIT}, got {cost:.1f}")
    eig = [_descending_eigensystem(m, clip=False) for m in mats]
    return _eigenbasis_projector(eig, xs, float(delta))


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
    if m * math.log2(d_c * d_q * d_r) > PROJECTOR_LOG2_LIMIT:
        raise ResourceLimitError("projected output state would be too large to build")

    spec = TypicalSpec(probs, m, delta)
    kept = tuple(enumerate_typical(spec))
    if not kept:
        raise ValidationError("typical set of the classical register is empty")
    classical_mass = typical_mass(spec)
    if classical_mass <= 0.0:
        raise ValidationError("retained classical mass is zero")
    # each branch's Q marginal is diagonalized once; its eigenvalues are clipped,
    # not rejected, because a valid source's block of weight 1e-13 divided by
    # its weight can be as far from PSD as diag(101, -100)
    eig = [_descending_eigensystem(b.reshape(d_q, d_r, d_q, d_r).trace(axis1=1, axis2=3),
                                   clip=True) for b in branches]

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
        proj = _eigenbasis_projector(eig, np.array(string), spec.delta)
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
        # every kept string is distinct, so each block is written once
        out_view[idx, :, idx, :] = hermitize((p_string / classical_mass) * (cut / mass))

    space = TensorSpace.of(("C", d_c ** m), ("Q", dq_m), ("R", dr_m))
    state = DensityMatrix(space, out)
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
