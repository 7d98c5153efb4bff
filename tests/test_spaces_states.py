"""Labeled tensor spaces, density matrices, and entropy helpers."""
import itertools

import numpy as np
import pytest

from dense_oracle import dense_validate
from qcap.errors import DimensionMismatchError, ValidationError
from qcap.linalg import binary_entropy, entropy_from_probs, hermitize, phase_fixed_qr, sqrt_psd
from qcap.sampling import random_pure, random_state, random_unitary, seed_rng
from qcap.spaces import TensorSpace
from qcap.states import (EIGENVALUE_FLOOR, DensityMatrix, PureState, basis_state, block_form,
                         conditional_entropy, entropy, fidelity,
                         maximally_entangled, maximally_mixed,
                         mutual_information, partial_trace,
                         permute_subsystems, purify, tensor, trace_distance)


def bell_state() -> PureState:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return PureState(TensorSpace.of(("A", 2), ("R", 2)), v)


def test_space_basics():
    space = TensorSpace.of(("A", 2), ("B", 3))
    assert space.labels == ("A", "B")
    assert space.dims == (2, 3)
    assert space.dim == 6
    assert space.positions("B") == (1,)
    assert space.dim_of(("A", "B")) == 6
    assert space.restrict("B").dims == (3,)
    assert space.reorder(("B", "A")).labels == ("B", "A")


def test_space_rejects_bad_subsystems():
    with pytest.raises(ValidationError):
        TensorSpace.of(("A", 0))
    with pytest.raises(ValidationError):
        TensorSpace.of(("A", 2), ("A", 3))
    with pytest.raises(ValidationError):
        TensorSpace.of(("", 2))
    with pytest.raises(ValidationError):
        space = TensorSpace.of(("A", 2))
        space.positions("missing")


def test_space_dimensions_accept_numpy_integers_only():
    space = TensorSpace.of(("A", np.int64(2)), ("B", np.uint8(3)))
    assert space.dims == (2, 3)
    assert all(type(d) is int for d in space.dims)
    for bad in (True, 2.0, np.float64(2.0), "2"):
        with pytest.raises(ValidationError, match="positive integer"):
            TensorSpace.of(("A", bad))


def test_density_matrix_validation():
    space = TensorSpace.single("A", 2)
    with pytest.raises(DimensionMismatchError):
        DensityMatrix(space, np.eye(3) / 3.0)
    with pytest.raises(ValidationError):
        DensityMatrix(space, np.diag([0.7, 0.7]))
    with pytest.raises(ValidationError):
        DensityMatrix(space, np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValidationError):
        DensityMatrix(space, np.diag([1.5, -0.5]))


def test_pure_state_validation():
    space = TensorSpace.single("A", 2)
    with pytest.raises(ValidationError):
        PureState(space, np.array([1.0, 1.0]))
    psi = PureState(space, np.array([1.0, 1.0]) / np.sqrt(2.0))
    rho = psi.density()
    assert rho.matrix == pytest.approx(np.full((2, 2), 0.5), abs=1e-12)


def test_entropy_examples():
    space = TensorSpace.single("A", 2)
    assert entropy(DensityMatrix(space, np.diag([1.0, 0.0]))) == 0.0
    assert entropy(maximally_mixed(space)) == pytest.approx(1.0, abs=1e-12)
    assert entropy(maximally_mixed(TensorSpace.single("A", 8))) == pytest.approx(3.0, abs=1e-12)
    rho = DensityMatrix(space, np.diag([0.9, 0.1]))
    assert entropy(rho) == pytest.approx(binary_entropy(0.1), abs=1e-12)


def test_entropy_from_probs_edge_cases():
    assert entropy_from_probs(np.array([1.0, 0.0])) == 0.0
    assert entropy_from_probs(np.array([0.5, 0.5])) == pytest.approx(1.0, abs=1e-15)
    # tiny negative eigenvalues from roundoff are clipped, not propagated
    assert entropy_from_probs(np.array([1.0, -1e-15])) == 0.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)


def test_partial_trace_bell():
    rho = bell_state().density()
    for label in ("A", "R"):
        marg = partial_trace(rho, (label,))
        assert marg.space.labels == (label,)
        assert marg.matrix == pytest.approx(np.eye(2) / 2.0, abs=1e-12)


def test_partial_trace_product():
    a = random_state([("A", 2)], seed_rng(0, "pt-a"))
    b = random_state([("B", 3)], seed_rng(0, "pt-b"))
    ab = tensor(a, b)
    assert partial_trace(ab, "A").matrix == pytest.approx(a.matrix, abs=1e-12)
    assert partial_trace(ab, "B").matrix == pytest.approx(b.matrix, abs=1e-12)


def test_permute_subsystems_roundtrip():
    rho = random_state([("A", 2), ("B", 3), ("C", 2)], seed_rng(1, "perm"))
    flipped = permute_subsystems(rho, ("C", "A", "B"))
    assert flipped.space.labels == ("C", "A", "B")
    back = permute_subsystems(flipped, ("A", "B", "C"))
    assert back.matrix == pytest.approx(rho.matrix, abs=1e-14)
    # marginals are unaffected by reordering
    assert partial_trace(flipped, "B").matrix == pytest.approx(
        partial_trace(rho, "B").matrix, abs=1e-14)


def test_purify_reproduces_marginal():
    for i in range(5):
        rho = random_state([("A", 3)], seed_rng(2, "purify", i))
        psi = purify(rho, ref_label="E")
        marg = partial_trace(psi.density(), "A")
        assert marg.matrix == pytest.approx(rho.matrix, abs=1e-10)
    with pytest.raises(ValidationError):
        purify(rho, ref_label="A")


def test_purify_rank_deficient():
    space = TensorSpace.single("A", 4)
    rho = DensityMatrix(space, np.diag([0.5, 0.5, 0.0, 0.0]))
    psi = purify(rho, ref_label="E")
    # reference dimension equals the rank, not the ambient dimension
    assert psi.space.dim_of("E") == 2
    assert partial_trace(psi.density(), "A").matrix == pytest.approx(rho.matrix, abs=1e-12)


def test_conditional_entropy_and_mutual_information():
    rho = bell_state().density()
    assert conditional_entropy(rho, "A", "R") == pytest.approx(-1.0, abs=1e-12)
    assert mutual_information(rho, "A", "R") == pytest.approx(2.0, abs=1e-12)
    cc = DensityMatrix(TensorSpace.of(("A", 2), ("R", 2)),
                       np.diag([0.5, 0.0, 0.0, 0.5]))
    assert conditional_entropy(cc, "A", "R") == pytest.approx(0.0, abs=1e-12)
    assert mutual_information(cc, "A", "R") == pytest.approx(1.0, abs=1e-12)


def test_conditional_mutual_information():
    ghz = np.zeros(8, dtype=complex)
    ghz[[0, 7]] = 1.0 / np.sqrt(2.0)
    rho = PureState(TensorSpace.of(("A", 2), ("B", 2), ("C", 2)), ghz).density()
    assert mutual_information(rho, "A", "B", "C") == pytest.approx(1.0, abs=1e-12)
    rng = seed_rng(3, "cmi")
    markov = tensor(random_state([("A", 2), ("C", 2)], rng), random_state([("B", 2)], rng))
    assert mutual_information(markov, "A", "B", "C") == pytest.approx(0.0, abs=1e-12)


def test_fidelity_and_trace_distance_basics():
    space = TensorSpace.single("A", 2)
    zero = basis_state(space, 0).density()
    one = basis_state(space, 1).density()
    assert fidelity(zero, zero) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)
    assert trace_distance(zero, one) == pytest.approx(1.0, abs=1e-12)
    plus = PureState(space, np.array([1.0, 1.0]) / np.sqrt(2.0)).density()
    assert fidelity(zero, plus) == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert trace_distance(zero, plus) == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_fidelity_symmetry_and_range():
    for i in range(20):
        rho = random_state(3, seed_rng(3, "fid-a", i))
        sig = random_state(3, seed_rng(3, "fid-b", i))
        f_ab = fidelity(rho, sig)
        f_ba = fidelity(sig, rho)
        assert f_ab == pytest.approx(f_ba, abs=1e-9)
        assert 0.0 <= f_ab <= 1.0


def test_maximally_entangled_marginal():
    psi = maximally_entangled(TensorSpace.of(("A", 3), ("B", 3)))
    marg = partial_trace(psi.density(), "A")
    assert marg.matrix == pytest.approx(np.eye(3) / 3.0, abs=1e-12)
    with pytest.raises(ValidationError):
        maximally_entangled(TensorSpace.of(("A", 2), ("B", 3)))


def test_sqrt_psd():
    rng = seed_rng(4, "sqrt")
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = a @ a.conj().T
    s = sqrt_psd(m)
    assert s @ s == pytest.approx(m, abs=1e-9)


def test_phase_fixed_qr_is_projection():
    rng = seed_rng(5, "qr")
    a = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    q = phase_fixed_qr(a)
    assert q.conj().T @ q == pytest.approx(np.eye(3), abs=1e-12)
    # already-orthonormal input is reproduced exactly, not just up to phase
    assert phase_fixed_qr(q) == pytest.approx(q, abs=1e-13)


def test_seeded_sampling_is_deterministic():
    a = random_state(4, seed_rng(7, "det"))
    b = random_state(4, seed_rng(7, "det"))
    assert np.array_equal(a.matrix, b.matrix)
    c = random_state(4, seed_rng(8, "det"))
    assert not np.allclose(a.matrix, c.matrix)
    u = random_unitary(3, seed_rng(7, "unitary"))
    assert u @ u.conj().T == pytest.approx(np.eye(3), abs=1e-12)
    psi = random_pure(5, seed_rng(7, "pure"))
    assert np.linalg.norm(psi.vector) == pytest.approx(1.0, abs=1e-12)


def test_block_form_parses_reordered_source():
    rng = seed_rng(3, "block-form")
    m = np.zeros((3, 4, 3, 4), dtype=complex)
    omegas = [random_state(TensorSpace.of(("Q", 2), ("R", 2)), rng).matrix for _ in range(2)]
    m[0, :, 0, :] = 0.7 * omegas[0]
    m[2, :, 2, :] = 0.3 * omegas[1]
    state = DensityMatrix(TensorSpace.of(("C", 3), ("Q", 2), ("R", 2)), m.reshape(12, 12))
    work, probs, branches = block_form(permute_subsystems(state, ("R", "C", "Q")),
                                       ("C", "Q", "R"))
    assert work.space.labels == ("C", "Q", "R")
    assert np.max(np.abs(work.matrix - state.matrix)) < 1e-15
    assert probs == pytest.approx([0.7, 0.0, 0.3], abs=1e-12)
    assert np.max(np.abs(branches[0] - omegas[0])) < 1e-12
    assert np.max(np.abs(branches[2] - omegas[1])) < 1e-12
    placeholder = np.zeros((4, 4))
    placeholder[0, 0] = 1.0
    assert np.array_equal(branches[1], placeholder)
    with pytest.raises(ValidationError, match="labels"):
        block_form(state, ("C", "Q", "E"))
    coherent = m.reshape(12, 12).copy()
    coherent[0, 8] = coherent[8, 0] = 1e-3
    with pytest.raises(ValidationError, match="not block diagonal over 'C'"):
        block_form(DensityMatrix(state.space, coherent), ("C", "Q", "R"))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_density_matrix_rejects_non_finite(bad):
    m = np.full((2, 2), 0.5, dtype=complex)
    m[0, 1] = m[1, 0] = bad
    with pytest.raises(ValidationError, match="NaN or infinite"):
        DensityMatrix(TensorSpace.single("A", 2), m)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pure_state_rejects_non_finite(bad):
    with pytest.raises(ValidationError, match="NaN or infinite"):
        PureState(TensorSpace.single("A", 2), np.array([bad, 1.0]))


def test_partial_trace_every_subset_matches_index_sum():
    dims = (2, 3, 2)
    rho = random_state([("A", 2), ("B", 3), ("C", 2)], seed_rng(5, "pt-subsets"))
    t = rho.matrix.reshape(dims + dims)
    for r in (1, 2, 3):
        for keep in itertools.combinations(range(3), r):
            kept_dims = [dims[k] for k in keep]
            d = int(np.prod(kept_dims))
            ref = np.zeros((d, d), dtype=complex)
            for i in np.ndindex(*dims):
                for j in np.ndindex(*dims):
                    if all(i[k] == j[k] for k in range(3) if k not in keep):
                        row = np.ravel_multi_index([i[k] for k in keep], kept_dims)
                        col = np.ravel_multi_index([j[k] for k in keep], kept_dims)
                        ref[row, col] += t[i + j]
            got = partial_trace(rho, ["ABC"[k] for k in keep])
            assert got.space.labels == tuple("ABC"[k] for k in keep)
            assert got.matrix == pytest.approx(ref, abs=1e-15)


def _decision(call) -> str | None:
    """The ValidationError message ``call`` raises, or None when it accepts."""
    try:
        call()
    except ValidationError as exc:
        return str(exc)
    return None


def _block_diagonal(rng, d0: int, n: int, low: float) -> np.ndarray:
    """Unit-trace block-diagonal matrix of d0 random n x n blocks, smallest eigenvalue low."""
    w = rng.uniform(0.5, 1.0, size=(d0, n))
    w[int(rng.integers(d0)), int(rng.integers(n))] = 0.0
    w = w / w.sum() * (1.0 - low)
    w[w == 0.0] = low
    m = np.zeros((d0, n, d0, n), dtype=complex)
    for c in range(d0):
        u = random_unitary(n, rng)
        m[c, :, c, :] = (u * w[c]) @ u.conj().T
    return hermitize(m.reshape(d0 * n, d0 * n))


def test_block_diagonal_negative_eigenvalue_is_rejected_like_the_dense_check():
    m = _block_diagonal(seed_rng(1, "block-negative"), 4, 3, -1e-6)
    space = TensorSpace.of(("C", 4), ("Q", 3))
    message = _decision(lambda: DensityMatrix(space, m))
    assert message is not None and "negative eigenvalue" in message
    assert message == _decision(lambda: dense_validate(m))


def test_block_diagonal_non_hermitian_entry_is_rejected():
    m = _block_diagonal(seed_rng(2, "block-hermitian"), 3, 4, 1e-3)
    m[5, 6] += 1e-6  # row and column both in block 1
    assert np.count_nonzero(m) == 3 * 4 * 4
    with pytest.raises(ValidationError, match="not Hermitian"):
        DensityMatrix(TensorSpace.of(("C", 3), ("Q", 4)), m)


def test_one_off_block_entry_takes_the_dense_check():
    # each diagonal block is PSD, but the coupling makes the whole matrix indefinite
    m = np.diag([0.5, 0.0, 0.5, 0.0]).astype(complex)
    m[1, 3] = m[3, 1] = 1e-3
    for space in (TensorSpace.of(("C", 2), ("Q", 2)), TensorSpace.single("A", 4)):
        message = _decision(lambda: DensityMatrix(space, m))
        assert message is not None and "negative eigenvalue" in message
        assert message == _decision(lambda: dense_validate(m))


@pytest.mark.parametrize("d0, n", [(1, 8), (4, 4), (8, 1), (32, 8)])
def test_block_check_decides_like_the_dense_check_around_the_floor(d0, n):
    rng = seed_rng(3, "block-floor", d0, n)
    space = TensorSpace.of(("C", d0), ("Q", n))
    for shift, accepted in ((1e-9, True), (-1e-9, False)):
        for _ in range(3):
            m = _block_diagonal(rng, d0, n, EIGENVALUE_FLOOR + shift)
            message = _decision(lambda: DensityMatrix(space, m))
            assert (message is None) == accepted
            assert message == _decision(lambda: dense_validate(m))
