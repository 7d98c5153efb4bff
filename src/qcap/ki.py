"""Koashi-Imoto decomposition of bipartite mixed states.

For a state rho on A tensor R, the decomposition finds a unitary u on A and
a direct sum structure  A ~ (+)_c Q_c tensor N_c  (plus a possible slack
subspace outside the support of rho_A) such that

    (u tensor 1) rho (u^dag tensor 1) = (+)_c p_c omega_c^{Q_c R} tensor mu_c^{N_c}.

The Q_c parts carry all correlation with R; the N_c parts are redundancy
that a channel on A can regenerate.  The implementation works with the
operators that R steers on A, which are the d_R^2 blocks of rho in the R
basis,

    E_sr = Tr_R[(1 tensor |s><r|) rho] = <r|rho|s>_R,

normalized on the support of rho_A.  They span the same complex space as the
operators steered by a Hermitian basis of R.  They need not be Hermitian, but
the algebra they generate is closed under adjoints all the same.  The
smallest *-algebra containing the normalized operators is not always the
right object: the decomposition must be invariant under conjugation by
rho_A's modular flow, so the generators are first split into their spectral
components along classes of equal eigenvalue ratios of rho_A.  A component
keeps the entries (i, j) whose ratio lambda_i/lambda_j lies in its class, a
sum of corner maps  a -> P_i a P_j  that stays inside every admissible
algebra.  The classes partition the index pairs, so the components span one
subspace per class, each orthonormalized on its own; their sum contains the
generators and is flow invariant.  Without this step, states whose steering
span is skew to the modular flow decompose into spurious blocks and fail
reconstruction.

Everything else rests on one primitive, the commutant: the operators that
commute with a set and its adjoints form the kernel of a positive
semidefinite s^2 x s^2 operator, found with one Hermitian eigensolve.  The
algebra generated by the operators is their bicommutant, and the commutant
computed on the way is kept for the block split, so each decomposition takes
two such eigensolves.  The commutant has the form  (+)_c 1_{d_c} tensor
M_{m_c},  so a generic Hermitian element of it has eigenspaces
C^{d_c} tensor e_k; commutant elements link the eigenspaces of one block,
and polar factors of their cross blocks align the eigenspaces into product
coordinates Q_c tensor N_c (Murota, Kanno, Kojima & Kojima, Japan J. Indust.
Appl. Math. 27, 2010).  Every stage verifies its residual and raises
NumericalFailureError instead of returning a silently wrong decomposition.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .channels import QuantumChannel
from .errors import NumericalFailureError, ValidationError
from .linalg import SUPPORT_CUTOFF, entropy_from_probs, hermitize
from .sampling import seed_rng
from .spaces import TensorSpace, _as_label_set
from .states import DensityMatrix, partial_trace, permute_subsystems

FACTOR_RESIDUAL_TOL = 1e-8
RECONSTRUCTION_TOL = 1e-8
EIGEN_GAP = 1e-7
MAX_REDRAWS = 16
ALGEBRA_TOL = 1e-9


def _split_labels(space: TensorSpace, system) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """System labels (in space order) and the remaining reference labels.

    The reference may be empty, in which case the steering basis is trivial
    and the whole state is treated as redundancy.
    """
    if system is None:
        sys_labels = (space.labels[0],)
    else:
        sys_labels = _as_label_set(system)
        space.positions(sys_labels)
    sys_set = set(sys_labels)
    ref = tuple(x for x in space.labels if x not in sys_set)
    sys_ordered = tuple(x for x in space.labels if x in sys_set)
    return sys_ordered, ref


def steered_operators(rho: DensityMatrix, system: str | Iterable[str] | None = None) -> np.ndarray:
    """The operators Tr_R[(1 tensor |s><r|) rho] = <r|rho|s>_R that R steers on A.

    ``system`` names the A part (default: the first subsystem); the rest of
    the space is the reference R.  The operators are the d_R^2 blocks of rho
    in the R basis, indexed (s, r), and need not be Hermitian; their complex
    span equals that of the operators steered by a Hermitian basis of R.  With
    an empty reference the single steered operator is the state itself.
    Returns an array of shape (dim_R^2, dA, dA).
    """
    sys_labels, ref_labels = _split_labels(rho.space, system)
    ordered = sys_labels + ref_labels
    if rho.space.labels != ordered:
        rho = permute_subsystems(rho, ordered)
    d_a = rho.space.dim_of(sys_labels)
    d_r = rho.space.dim // d_a
    t = rho.matrix.reshape(d_a, d_r, d_a, d_r)
    return t.transpose(3, 1, 0, 2).reshape(d_r * d_r, d_a, d_a)


@dataclass(frozen=True, eq=False)
class AlgebraBasis:
    """Orthonormal bases of a *-algebra and its commutant on the support of a marginal state."""

    basis: np.ndarray          # (k, s, s), support eigencoordinates
    commutant: np.ndarray      # (j, s, s) orthonormal basis of the commutant
    support: np.ndarray        # (d, s) isometry into the original space
    kernel: np.ndarray         # (d, d - s) isometry onto the marginal's kernel

    @property
    def dim(self) -> int:
        return int(len(self.basis))


def _commutant(ops: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the operators commuting with every op and its adjoint.

    ``ops`` should be (close to) orthonormal.  The commutant is the kernel of
    L = sum_G ad_G^dag ad_G over G in ops and their adjoints, ad_G X = GX - XG.
    With row-major vectorization ad_G = G (x) 1 - 1 (x) G^T, and over an
    adjoint-closed set  L = S (x) 1 + 1 (x) S^T - 2 sum_G G (x) conj(G)  with
    S = sum_G G^dag G.  Eigenvalues up to ALGEBRA_TOL times the largest count
    as zero.
    """
    ops = np.concatenate([ops, ops.conj().swapaxes(-1, -2)])
    k, s, _ = ops.shape
    gram = np.einsum("xji,xjk->ik", ops.conj(), ops)
    eye = np.eye(s)
    flat = ops.reshape(k, s * s)
    cross = (flat.T @ flat.conj()).reshape(s, s, s, s).transpose(0, 2, 1, 3)
    lap = np.kron(gram, eye) + np.kron(eye, gram.T) - 2.0 * cross.reshape(s * s, s * s)
    w, v = np.linalg.eigh(hermitize(lap))
    keep = w <= ALGEBRA_TOL * max(w[-1], 1.0)
    return v[:, keep].T.reshape(-1, s, s)


def generate_algebra(ops, rho_a: DensityMatrix) -> AlgebraBasis:
    """The *-algebra generated by support-normalized steered operators.

    ``ops`` is an iterable of operators on A; ``rho_a`` the marginal state
    there.  Operators are compressed onto the support of ``rho_a``, normalized
    by rho_a^{-1/2} on both sides and split into modular spectral components
    (see the module docstring).  Together with the identity they generate the
    algebra, returned as their bicommutant along with the commutant.
    """
    if not isinstance(rho_a, DensityMatrix):
        raise ValidationError(f"rho_a must be a DensityMatrix, got {type(rho_a).__name__}")
    mat = rho_a.matrix
    d = mat.shape[0]
    stack = np.stack([np.asarray(o, dtype=complex) for o in ops])
    if stack.shape[1:] != (d, d):
        raise ValidationError(
            f"operators of shape {stack.shape[1:]} do not act on dimension {d}")
    w, v = np.linalg.eigh(hermitize(mat))
    keep = w > SUPPORT_CUTOFF
    eigs = w[keep]
    support = v[:, keep]
    s = int(eigs.size)

    compressed = np.einsum("ia,xij,jb->xab", support.conj(), stack, support)
    scale = 1.0 / np.sqrt(eigs)
    normalized = compressed * scale[None, :, None] * scale[None, None, :]

    flat = np.concatenate([np.eye(s, dtype=complex)[None], normalized]).reshape(-1, s * s)
    logs = np.log(eigs)
    classes = _group_by_gaps((logs[:, None] - logs[None, :]).reshape(-1), ALGEBRA_TOL)
    svds = [np.linalg.svd(flat[:, idx], full_matrices=False)[1:] for idx in classes]
    top = max(sv[0] for sv, _ in svds)
    parts = []
    for idx, (sv, vh) in zip(classes, svds):
        kept = vh[sv > ALGEBRA_TOL * top]
        part = np.zeros((len(kept), s * s), dtype=complex)
        part[:, idx] = kept
        parts.append(part)
    spanned = np.concatenate(parts).reshape(-1, s, s)
    comm = _commutant(spanned)
    return AlgebraBasis(basis=_commutant(comm), commutant=comm,
                        support=support, kernel=v[:, ~keep])


def _group_by_gaps(values: np.ndarray, gap: float) -> list[np.ndarray]:
    order = np.argsort(values)
    groups: list[list[int]] = [[int(order[0])]]
    for idx in order[1:]:
        if values[idx] - values[groups[-1][-1]] > gap:
            groups.append([int(idx)])
        else:
            groups[-1].append(int(idx))
    return [np.array(g, dtype=int) for g in groups]


def _polar_unitary(m: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def _linked_blocks(spaces: list[np.ndarray], comm: np.ndarray) -> list[np.ndarray] | None:
    """Group eigenspaces that commutant elements link into blocks.

    For the eigenspaces of a generic Hermitian commutant element, the summed
    weight  sum_x ||V_i^dag X_x V_j||^2  over an orthonormal commutant basis is
    1 when V_i, V_j lie in one block and 0 otherwise.  Returns None unless the
    links form equivalence classes of equal-dimension eigenspaces.
    """
    v = np.hstack(spaces)
    power = (np.abs(v.conj().T @ comm @ v) ** 2).sum(axis=0)
    edges = np.cumsum([0] + [sp.shape[1] for sp in spaces])
    link = np.add.reduceat(np.add.reduceat(power, edges[:-1], axis=0), edges[:-1], axis=1)
    adj = link > 0.5
    blocks: list[np.ndarray] = []
    seen = np.zeros(len(spaces), dtype=bool)
    for i in range(len(spaces)):
        if seen[i]:
            continue
        members = np.flatnonzero(adj[i])
        if (not adj[i, i] or not (adj[members] == adj[i]).all()
                or len({spaces[k].shape[1] for k in members}) != 1):
            return None
        seen[members] = True
        blocks.append(members)
    return blocks


@dataclass(frozen=True, eq=False)
class AlgebraFactor:
    """One direct summand of a *-algebra: M_{dim_q} tensor 1_{dim_n}."""

    subspace: np.ndarray   # (s, dim_q * dim_n) orthonormal columns, Q-major
    dim_q: int
    dim_n: int


def decompose_algebra(alg: AlgebraBasis, seed: int = 0) -> list[AlgebraFactor]:
    """Split a *-algebra into matrix-factor blocks M_{d_c} tensor 1_{m_c}.

    ``alg`` carries orthonormal bases of the algebra and of its commutant
    (+)_c 1_{d_c} tensor M_{m_c}.  A generic Hermitian element of it, drawn
    from a seeded generator, has the eigenspaces C^{d_c} tensor e_k; commutant
    elements that link two eigenspaces put them in one block, and the polar
    factor of the largest such link aligns each eigenspace to the block's
    first.  The block's columns come out in Q-major product order.  Eigenvalue
    clusters closer than 1e-7 that break this structure trigger a redraw, and
    persistent failures raise NumericalFailureError.
    """
    basis, comm = alg.basis, alg.commutant
    s = basis.shape[-1]
    rng = seed_rng(seed, "algebra-split")

    for _ in range(MAX_REDRAWS):
        coeff = rng.normal(size=len(comm)) + 1j * rng.normal(size=len(comm))
        y = np.tensordot(coeff, comm, axes=1)
        w, v = np.linalg.eigh(y + y.conj().T)
        spaces = [v[:, g] for g in _group_by_gaps(w, EIGEN_GAP)]
        blocks = _linked_blocks(spaces, comm)
        if blocks is not None and sum(len(b) ** 2 for b in blocks) == len(comm):
            break
    else:
        raise NumericalFailureError("could not resolve the commutant into blocks")

    factors: list[AlgebraFactor] = []
    for members in blocks:
        first = spaces[members[0]]
        aligned = [first]
        for k in members[1:]:
            cross = spaces[k].conj().T @ comm @ first
            link = cross[np.argmax(np.linalg.norm(cross, axis=(1, 2)))]
            aligned.append(spaces[k] @ _polar_unitary(link))
        dim_q, dim_n = first.shape[1], len(members)
        sub = np.stack(aligned, axis=2).reshape(s, dim_q * dim_n)

        # verify the factorization: every basis element must compress to q tensor 1
        t = (sub.conj().T @ basis @ sub).reshape(-1, dim_q, dim_n, dim_q, dim_n)
        qpart = np.einsum("xinjn->xij", t) / dim_n
        model = np.einsum("xij,nm->xinjm", qpart, np.eye(dim_n))
        worst = float(np.max(np.abs(t - model)))
        if worst > FACTOR_RESIDUAL_TOL:
            raise NumericalFailureError(
                f"block factorization residual {worst:.2e} exceeds {FACTOR_RESIDUAL_TOL}")
        factors.append(AlgebraFactor(subspace=sub, dim_q=dim_q, dim_n=dim_n))
    return factors


@dataclass(frozen=True, eq=False)
class KIBlock:
    """One Koashi-Imoto summand: weight, correlated part, redundant part."""

    prob: float
    dim_q: int
    dim_n: int
    omega: DensityMatrix   # on ("Q", dim_q) tensor ("R", dim_r)
    mu: DensityMatrix      # on ("N", dim_n)


@dataclass(frozen=True, eq=False)
class KIDecomposition:
    """Koashi-Imoto normal form of a bipartite state."""

    space: TensorSpace
    system_labels: tuple[str, ...]
    ref_labels: tuple[str, ...]
    dim_a: int
    dim_r: int
    u_ki: np.ndarray                 # (dim_a, dim_a) unitary; block rows first, slack last
    blocks: tuple[KIBlock, ...]
    offsets: tuple[int, ...]         # row offset of each block in KI coordinates
    dead_dim: int                    # dimension outside the support of rho_A
    s_c: float
    s_q_given_c: float
    s_cq: float
    reconstruction_error: float

    @property
    def probs(self) -> np.ndarray:
        return np.array([b.prob for b in self.blocks])


def _block_form(blocks, offsets, d_a: int, d_r: int) -> np.ndarray:
    """The direct sum of p_c omega_c tensor mu_c in KI coordinates, as (A, R, A, R)."""
    out = np.zeros((d_a, d_r, d_a, d_r), dtype=complex)
    for block, off in zip(blocks, offsets):
        dq, dn = block.dim_q, block.dim_n
        omega4 = block.omega.matrix.reshape(dq, d_r, dq, d_r)
        part = block.prob * np.einsum("qrps,nm->qnrpms", omega4, block.mu.matrix)
        d_block = dq * dn
        out[off:off + d_block, :, off:off + d_block, :] = part.reshape(
            d_block, d_r, d_block, d_r)
    return out


def ki_decompose(rho: DensityMatrix, system: str | Iterable[str] | None = None,
                 seed: int = 0) -> KIDecomposition:
    """Compute the Koashi-Imoto decomposition of ``rho`` across A | R.

    ``system`` selects the A subsystems (default: the first label); all other
    subsystems form the reference.  The returned unitary, blocks, and weights
    satisfy the reconstruction identity to 1e-8 in trace distance, enforced
    here; S_C + S_{Q|C} matches an independently computed S_CQ to 1e-9.
    """
    sys_labels, ref_labels = _split_labels(rho.space, system)
    ordered = sys_labels + ref_labels
    work = rho if rho.space.labels == ordered else permute_subsystems(rho, ordered)
    d_a = work.space.dim_of(sys_labels)
    d_r = work.space.dim // d_a

    if ref_labels:
        rho_a = partial_trace(work, sys_labels)
    else:
        rho_a = work
    ops = steered_operators(work, system=sys_labels)
    alg = generate_algebra(ops, rho_a)
    factors = decompose_algebra(alg, seed=seed)

    support = alg.support
    dead_dim = d_a - support.shape[1]

    # raw block data, then canonical ordering, then the final unitary
    t4 = work.matrix.reshape(d_a, d_r, d_a, d_r)
    raw = []
    for fac in factors:
        iso = support @ fac.subspace  # (d_a, D) columns
        dq, dn = fac.dim_q, fac.dim_n
        blk = np.einsum("ia,irjs,jb->arbs", iso.conj(), t4, iso)
        t6 = blk.reshape(dq, dn, d_r, dq, dn, d_r)
        p = float(np.einsum("qnrqnr->", t6).real)
        if p <= 0:
            raise NumericalFailureError("block received nonpositive weight")
        omega = np.einsum("qnrpns->qrps", t6).reshape(dq * d_r, dq * d_r) / p
        mu = np.einsum("qnrqmr->nm", t6) / p
        raw.append((p, dq, dn, hermitize(omega), hermitize(mu), iso))

    def sort_key(item):
        p, dq, dn, omega, mu, _ = item
        return (-round(p, 10), -dq, -dn,
                np.round(omega, 8).tobytes(), np.round(mu, 8).tobytes())

    raw.sort(key=sort_key)

    u_ki = np.vstack([item[5].conj().T for item in raw] + [alg.kernel.conj().T])
    if np.max(np.abs(u_ki @ u_ki.conj().T - np.eye(d_a))) > 1e-9:
        raise NumericalFailureError("assembled change of basis is not unitary")

    blocks = []
    offsets = []
    offset = 0
    for p, dq, dn, omega, mu, _ in raw:
        omega_dm = DensityMatrix(TensorSpace.of(("Q", dq), ("R", d_r)), omega)
        mu_dm = DensityMatrix(TensorSpace.single("N", dn), mu)
        blocks.append(KIBlock(prob=p, dim_q=dq, dim_n=dn, omega=omega_dm, mu=mu_dm))
        offsets.append(offset)
        offset += dq * dn

    # reconstruction residual in the original frame
    rho_ki = np.einsum("pa,arbs,qb->prqs", u_ki, t4, u_ki.conj())
    diff = (rho_ki - _block_form(blocks, offsets, d_a, d_r)).reshape(d_a * d_r, d_a * d_r)
    resid = float(0.5 * np.abs(np.linalg.eigvalsh(hermitize(diff))).sum())
    if resid > RECONSTRUCTION_TOL:
        raise NumericalFailureError(
            f"reconstruction residual {resid:.2e} exceeds {RECONSTRUCTION_TOL}; "
            "the steered algebra does not match the state")

    probs = np.array([b.prob for b in blocks])
    s_c = entropy_from_probs(probs)
    q_eigs = []
    s_q_given_c = 0.0
    for block in blocks:
        omega_q = partial_trace(block.omega, "Q")
        eigs = omega_q.eigenvalues()
        s_q_given_c += block.prob * entropy_from_probs(eigs)
        q_eigs.append(block.prob * eigs)
    s_cq = entropy_from_probs(np.concatenate(q_eigs))
    if abs(s_cq - (s_c + s_q_given_c)) > 1e-9:
        raise NumericalFailureError("entropy decomposition is inconsistent")

    return KIDecomposition(
        space=rho.space, system_labels=sys_labels, ref_labels=ref_labels,
        dim_a=d_a, dim_r=d_r, u_ki=u_ki, blocks=tuple(blocks),
        offsets=tuple(offsets), dead_dim=dead_dim,
        s_c=s_c, s_q_given_c=s_q_given_c, s_cq=s_cq,
        reconstruction_error=resid)


def reverse_ki_channel(kid: KIDecomposition) -> QuantumChannel:
    """A channel on A that regenerates every redundant factor of the state.

    In KI coordinates the channel keeps each Q_c part untouched and replaces
    the N_c part with mu_c; slack directions are mapped to a fixed state.
    Applying it to the A side of the decomposed state returns the state
    exactly, which is the defining fixed-point property.
    """
    d_a = kid.dim_a
    u = kid.u_ki
    kraus = []
    for block, off in zip(kid.blocks, kid.offsets):
        dq, dn = block.dim_q, block.dim_n
        w, v = np.linalg.eigh(hermitize(block.mu.matrix))
        for n in range(dn):
            for k in range(dn):
                if w[k] <= 0:
                    continue
                replace = np.sqrt(w[k]) * np.outer(v[:, k], np.eye(dn)[n])
                z = np.zeros((d_a, d_a), dtype=complex)
                z[off:off + dq * dn, off:off + dq * dn] = np.kron(np.eye(dq), replace)
                kraus.append(u.conj().T @ z @ u)
    if kid.dead_dim:
        anchor = np.zeros(d_a, dtype=complex)
        anchor[0] = 1.0
        base = d_a - kid.dead_dim
        for j in range(kid.dead_dim):
            z = np.outer(anchor, np.eye(d_a)[base + j])
            kraus.append(u.conj().T @ z @ u)
    return QuantumChannel(d_a, d_a, tuple(kraus))


def ki_state(kid: KIDecomposition) -> DensityMatrix:
    """The decomposed state assembled in KI coordinates, label order (A, R)."""
    d_a, d_r = kid.dim_a, kid.dim_r
    out = _block_form(kid.blocks, kid.offsets, d_a, d_r)
    space = TensorSpace.of(("A", d_a), ("R", d_r))
    return DensityMatrix(space, out.reshape(d_a * d_r, d_a * d_r))
