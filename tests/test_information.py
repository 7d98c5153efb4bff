"""Holevo, coherent, and generalized information quantities."""
import numpy as np
import pytest

from qcap.channels import (apply_channel, compose, dephasing_channel,
                           depolarizing_channel, identity_channel, stinespring)
from qcap.errors import DimensionMismatchError, ValidationError
from qcap.information import (CQEnsemble, _branch_outputs, _output_map,
                              coherent_information, data_processing_gap,
                              generalized_information, holevo_information)
from qcap.linalg import batched_entropy, binary_entropy, entropy_of_matrix
from qcap.sampling import random_channel, random_pure, random_state, seed_rng
from qcap.spaces import TensorSpace
from qcap.states import (DensityMatrix, PureState, entropy, partial_trace,
                         maximally_entangled, purify)
from qcap.tradeoff import _EnsembleProblem


def classical_bit_ensemble(dim_r: int = 1) -> CQEnsemble:
    """Uniform {|0>, |1>} signalling ensemble with an optional copy register."""
    vecs = np.zeros((2, 2 * dim_r), dtype=complex)
    vecs[0, 0] = 1.0
    vecs[1, 2 * dim_r - 1] = 1.0
    return CQEnsemble(2, dim_r, np.array([0.5, 0.5]), vecs)


def bell_ensemble() -> CQEnsemble:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return CQEnsemble(2, 2, np.array([1.0]), v[None, :])


def test_ensemble_validation():
    with pytest.raises(ValidationError):
        CQEnsemble(2, 1, np.array([0.7, 0.7]), np.eye(2, dtype=complex))
    with pytest.raises(ValidationError):
        CQEnsemble(2, 1, np.array([0.5, 0.5]), 2.0 * np.eye(2, dtype=complex))
    with pytest.raises(DimensionMismatchError):
        CQEnsemble(2, 2, np.array([0.5, 0.5]), np.eye(2, dtype=complex))
    with pytest.raises(ValidationError):
        CQEnsemble(2, 1, np.array([-0.2, 1.2]), np.eye(2, dtype=complex))
    entries = 4097
    vecs = np.zeros((entries, 2), dtype=complex)
    vecs[:, 0] = 1.0
    with pytest.raises(ValidationError, match="4097 entries, limit 4096"):
        CQEnsemble(2, 1, np.full(entries, 1.0 / entries), vecs)


def test_ensemble_helpers():
    ens = classical_bit_ensemble()
    assert ens.size == 2
    avg = ens.average_input()
    assert avg.matrix == pytest.approx(np.eye(2) / 2.0, abs=1e-12)
    branch = ens.branch(1)
    assert branch.space.dims == (2, 1)
    rebuilt = CQEnsemble.from_states([(0.5, ens.branch(0)), (0.5, ens.branch(1))])
    assert np.array_equal(rebuilt.vectors, ens.vectors)


def test_holevo_classical_bit():
    ens = classical_bit_ensemble()
    # basis states pass through phase noise untouched
    assert holevo_information(ens, identity_channel(2)) == pytest.approx(1.0, abs=1e-12)
    assert holevo_information(ens, dephasing_channel(0.1)) == pytest.approx(1.0, abs=1e-12)
    assert holevo_information(ens, dephasing_channel(0.5)) == pytest.approx(1.0, abs=1e-12)
    assert holevo_information(ens, depolarizing_channel(1.0)) == pytest.approx(0.0, abs=1e-12)


def test_holevo_nonorthogonal_pair():
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    vecs = np.stack([np.array([1.0, 0.0], dtype=complex), plus])
    ens = CQEnsemble(2, 1, np.array([0.5, 0.5]), vecs)
    chi = holevo_information(ens, identity_channel(2))
    # average state eigenvalues (1 +- 1/sqrt(2))/2
    lam = 0.5 * (1.0 + np.sqrt(0.5))
    assert chi == pytest.approx(binary_entropy(lam), abs=1e-12)


def test_holevo_list_form_matches_ensemble_form():
    space = TensorSpace.single("A", 2)
    for i in range(10):
        rng = seed_rng(0, "holevo-match", i)
        chan = random_channel(2, 2, 2, rng)
        probs = rng.dirichlet(np.ones(3))
        vecs = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        ens = CQEnsemble(2, 1, probs, vecs)
        listed = [(float(p), PureState(space, v).density())
                  for p, v in zip(probs, vecs)]
        assert holevo_information(ens, chan) == pytest.approx(
            holevo_information(listed, chan), abs=1e-12)


def test_holevo_list_form_feeds_the_whole_state_to_the_channel():
    # a (2, 2) Bell state is one input of dimension 4, not a qubit and a spectator
    bell = maximally_entangled(TensorSpace.of(("A", 2), ("R", 2))).density()
    assert holevo_information([(1.0, bell)], identity_channel(4)) == pytest.approx(0.0, abs=1e-12)
    product = DensityMatrix(TensorSpace.of(("A", 2), ("B", 2)), np.diag([1.0, 0, 0, 0]))
    listed = [(0.5, bell), (0.5, product)]
    chi = holevo_information(listed, identity_channel(4))
    avg = 0.5 * (bell.matrix + product.matrix)
    assert chi == pytest.approx(entropy_of_matrix(avg), abs=1e-12)


def test_holevo_list_form_validation():
    chan = identity_channel(2)
    space = TensorSpace.single("A", 2)
    zero = DensityMatrix(space, np.diag([1.0, 0.0]))
    with pytest.raises(ValidationError):
        holevo_information([(0.7, zero), (0.7, zero)], chan)
    with pytest.raises(ValidationError):
        holevo_information([(1.0, "not a state")], chan)
    with pytest.raises(DimensionMismatchError):
        holevo_information([(1.0, DensityMatrix(TensorSpace.single("A", 3),
                                                np.eye(3) / 3.0))], chan)


def test_coherent_information_bell():
    psi = maximally_entangled(TensorSpace.of(("A", 2), ("R", 2)))
    assert coherent_information(psi, identity_channel(2), target="A") == pytest.approx(
        1.0, abs=1e-12)
    assert coherent_information(psi, dephasing_channel(0.5), target="A") == pytest.approx(
        0.0, abs=1e-12)
    for p in (0.05, 0.1, 0.3):
        got = coherent_information(psi, dephasing_channel(p), target="A")
        assert got == pytest.approx(1.0 - binary_entropy(p), abs=1e-12)


def test_coherent_information_density_input_purifies():
    space = TensorSpace.single("A", 2)
    mixed = DensityMatrix(space, np.diag([0.5, 0.5]))
    # the purification of the maximally mixed qubit is a Bell pair
    assert coherent_information(mixed, identity_channel(2)) == pytest.approx(1.0, abs=1e-12)
    assert coherent_information(mixed, dephasing_channel(0.1)) == pytest.approx(
        1.0 - binary_entropy(0.1), abs=1e-12)
    with pytest.raises(DimensionMismatchError):
        coherent_information(mixed, identity_channel(3))
    with pytest.raises(ValidationError):
        coherent_information(PureState(space, np.array([1.0, 0.0])), identity_channel(2))


def test_coherent_information_target_permutation():
    # reference listed first; the channel must still act on the named label
    psi = maximally_entangled(TensorSpace.of(("R", 2), ("A", 2)))
    got = coherent_information(psi, dephasing_channel(0.2), target="A")
    assert got == pytest.approx(1.0 - binary_entropy(0.2), abs=1e-12)


def test_coherent_information_matches_explicit_purification():
    # K at most and above d_B * rank; inputs on one and on two subsystems
    spaces = (TensorSpace.single("A", 4), TensorSpace.of(("A1", 2), ("A2", 2)))
    for s, space in enumerate(spaces):
        for rank in (1, 2, 4):
            for k in (2, 9):
                rng = seed_rng(4, "coherent-purified", s, rank, k)
                rho = random_state(space, rng, rank=rank)
                chan = random_channel(4, 2, k, rng)
                pure = purify(rho, ref_label="R")
                joint = PureState(TensorSpace.of(("A", 4), ("R", rank)), pure.vector)
                out = apply_channel(chan, joint.density(), target="A")
                direct = entropy(partial_trace(out, "A")) - entropy(out)
                assert coherent_information(rho, chan) == pytest.approx(direct, abs=1e-10)


def test_coherent_information_pure_target_between_references():
    rng = seed_rng(4, "coherent-middle")
    psi = random_pure(TensorSpace.of(("R", 2), ("A", 3), ("R2", 2)), rng)
    chan = random_channel(3, 2, 3, rng)
    out = apply_channel(chan, psi.density(), target="A")
    direct = entropy(partial_trace(out, "A")) - entropy(out)
    assert coherent_information(psi, chan, target="A") == pytest.approx(direct, abs=1e-10)


def test_output_map_matches_apply_channel_and_stinespring():
    qubit = [random_channel(2, 2, 3, seed_rng(4, "map-compose", i)) for i in range(2)]
    chans = [random_channel(d_a, d_b, k, seed_rng(4, "map-oracle", d_a, d_b, k))
             for d_a, d_b, k in ((2, 2, 1), (2, 3, 2), (3, 2, 5))]
    chans.append(compose(*qubit))  # K = 9 > d_A d_B
    for i, chan in enumerate(chans):
        k, d_b = len(chan.kraus), chan.dim_out
        out_map = _output_map(np.stack(chan.kraus))
        assert out_map.shape == (chan.dim_in ** 2, d_b ** 2 + k ** 2)
        v = stinespring(chan)
        for j in range(3):
            rho = random_state(TensorSpace.single("A", chan.dim_in), seed_rng(4, "map-rho", i, j))
            sigma_b, env = _branch_outputs(out_map, d_b, rho.matrix)
            assert sigma_b == pytest.approx(apply_channel(chan, rho).matrix, abs=1e-12)
            dilated = (v @ rho.matrix @ v.conj().T).reshape(d_b, k, d_b, k)
            assert env == pytest.approx(np.einsum("bjbk->jk", dilated), abs=1e-12)


def test_generalized_information_splits():
    chan = dephasing_channel(0.1)
    cc = classical_bit_ensemble(dim_r=2)
    gi = generalized_information(cc, chan)
    assert gi.r_c == pytest.approx(1.0, abs=1e-12)
    assert gi.r_q == pytest.approx(0.0, abs=1e-12)
    assert gi.i_g == pytest.approx(1.0, abs=1e-12)
    bell = bell_ensemble()
    gi = generalized_information(bell, chan)
    assert gi.r_c == pytest.approx(0.0, abs=1e-12)
    assert gi.r_q == pytest.approx(1.0 - binary_entropy(0.1), abs=1e-12)


def test_generalized_information_signed_quantum_part():
    # a noisy channel on half a Bell pair drives r_q negative; the sign is kept
    psi = maximally_entangled(TensorSpace.of(("A", 2), ("R", 2)))
    ens = CQEnsemble(2, 2, np.array([1.0]), psi.vector[None, :])
    gi = generalized_information(ens, depolarizing_channel(0.9))
    assert gi.r_q < -0.1
    assert gi.i_g == pytest.approx(gi.r_c + gi.r_q, abs=1e-15)


def test_reduction_to_holevo_trivial_reference():
    space = TensorSpace.single("A", 2)
    for i in range(25):
        rng = seed_rng(1, "red-holevo", i)
        chan = random_channel(2, 2, 2, rng)
        probs = rng.dirichlet(np.ones(4))
        vecs = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        ens = CQEnsemble(2, 1, probs, vecs)
        gi = generalized_information(ens, chan)
        assert gi.r_q == 0.0
        # independent oracle through apply_channel and entropy
        outs = [apply_channel(chan, PureState(space, v).density()) for v in vecs]
        avg = DensityMatrix(space, sum(p * o.matrix for p, o in zip(probs, outs)))
        chi = entropy(avg) - sum(p * entropy(o) for p, o in zip(probs, outs))
        assert gi.i_g == pytest.approx(chi, abs=1e-10)


def test_reduction_to_coherent_single_entry():
    for i in range(25):
        rng = seed_rng(1, "red-coherent", i)
        chan = random_channel(2, 2, 2, rng)
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        vec /= np.linalg.norm(vec)
        ens = CQEnsemble(2, 2, np.array([1.0]), vec[None, :])
        gi = generalized_information(ens, chan)
        assert gi.r_c == pytest.approx(0.0, abs=1e-12)
        pure = PureState(TensorSpace.of(("A", 2), ("R", 2)), vec)
        out = apply_channel(chan, pure.density(), target="A")
        direct = entropy(partial_trace(out, "A")) - entropy(out)
        assert gi.r_q == pytest.approx(direct, abs=1e-10)


def test_data_processing_never_negative():
    for i in range(40):
        rng = seed_rng(2, "dpi", i)
        probs = rng.dirichlet(np.ones(3))
        vecs = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        ens = CQEnsemble(2, 2, probs, vecs)
        chan = random_channel(2, 2, 2, seed_rng(2, "dpi-chan", i))
        post = random_channel(2, 2, 2, seed_rng(2, "dpi-post", i))
        assert data_processing_gap(ens, chan, post) >= -1e-9


def test_holevo_reduction_exact_on_every_channel_shape():
    # S(BR) of a trivial reference is S(B) itself, also where K < d_B
    for d_a, d_b, k in ((2, 2, 1), (2, 3, 2), (2, 4, 2), (2, 2, 2), (2, 2, 3)):
        for i in range(25):
            rng = seed_rng(1, "red-holevo-shapes", d_b, k, i)
            chan = random_channel(d_a, d_b, k, rng)
            probs = rng.dirichlet(np.ones(4))
            vecs = rng.normal(size=(4, d_a)) + 1j * rng.normal(size=(4, d_a))
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            gi = generalized_information(CQEnsemble(d_a, 1, probs, vecs), chan)
            assert gi.r_q == 0.0


def test_branch_outputs_match_channel_oracle():
    # K below, at and above d_B d_R
    for d_a, d_b, d_r, k in ((2, 2, 2, 2), (2, 2, 2, 4), (2, 2, 2, 6),
                             (2, 3, 3, 2), (3, 2, 2, 5)):
        rng = seed_rng(3, "branch-oracle", d_a, d_b, d_r, k)
        chan = random_channel(d_a, d_b, k, rng)
        probs = rng.dirichlet(np.ones(3))
        vecs = rng.normal(size=(3, d_a * d_r)) + 1j * rng.normal(size=(3, d_a * d_r))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        psi = vecs.reshape(3, d_a, d_r)
        rho = psi @ psi.conj().swapaxes(-1, -2)
        out_map = _output_map(np.stack(chan.kraus))
        sigma_b, joint = _branch_outputs(out_map, d_b, rho)
        avg_b, _ = _branch_outputs(out_map, d_b, np.tensordot(probs, rho, axes=1))
        assert joint.shape[-1] == k
        space = TensorSpace.of(("A", d_a), ("R", d_r))
        outs = [apply_channel(chan, PureState(space, v).density(), target="A") for v in vecs]
        for x, out in enumerate(outs):
            assert batched_entropy(joint[x]) == pytest.approx(entropy(out), abs=1e-12)
            assert sigma_b[x] == pytest.approx(partial_trace(out, "A").matrix, abs=1e-12)
        expected_avg = sum(p * partial_trace(o, "A").matrix for p, o in zip(probs, outs))
        assert avg_b == pytest.approx(expected_avg, abs=1e-12)


def test_ensemble_rates_match_generalized_information():
    for d_b, k in ((2, 2), (2, 4), (2, 5), (3, 2)):
        chan = random_channel(2, d_b, k, seed_rng(3, "rates-oracle-chan", d_b, k))
        problem = _EnsembleProblem(chan, 1)
        rng = seed_rng(3, "rates-oracle", d_b, k)
        x = rng.normal(size=(8, problem.n, 2, problem.d_a * problem.d_r))
        thetas = (x[:, :, 0] + 1j * x[:, :, 1]).reshape(8, -1)
        # one branch matrix zeroed: weight 0, and a unit anchor vector in the witness
        thetas[-1].reshape(problem.n, -1)[1] = 0.0
        r_q, r_c = problem.rates(thetas)
        for i, theta in enumerate(thetas):
            ens = problem.ensemble_of(theta)
            if i == len(thetas) - 1:
                assert ens.probs[1] == 0.0 and ens.vectors[1, 0] == 1.0
                assert not theta.reshape(problem.n, -1)[1].any()  # the row is left as it was
            gi = generalized_information(ens, chan)
            assert r_q[i] == pytest.approx(gi.r_q, abs=1e-12)
            assert r_c[i] == pytest.approx(gi.r_c, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ensemble_rejects_non_finite(bad):
    with pytest.raises(ValidationError, match="NaN or infinite"):
        CQEnsemble(2, 1, np.array([bad, 1.0]), np.eye(2, dtype=complex))
    vecs = np.eye(2, dtype=complex)
    vecs[0, 1] = bad
    with pytest.raises(ValidationError, match="NaN or infinite"):
        CQEnsemble(2, 1, np.array([0.5, 0.5]), vecs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
def test_holevo_list_form_checks_probabilities_like_the_ensemble(bad):
    rho = DensityMatrix(TensorSpace.single("A", 2), np.eye(2) / 2.0)
    chan = dephasing_channel(0.2)
    entries = [(bad, rho), (0.5, rho)]
    with pytest.raises(ValidationError, match="ensemble probabilities") as from_list:
        holevo_information(entries, chan)
    with pytest.raises(ValidationError, match="ensemble probabilities") as from_ensemble:
        CQEnsemble(2, 1, np.array([bad, 0.5]), np.eye(2, dtype=complex))
    assert str(from_list.value) == str(from_ensemble.value)


@pytest.mark.parametrize("dims", [(2.0, 2), (2, 1.0), (True, 2), (0, 2), (2, -1), ("2", 2)])
def test_ensemble_dimensions_must_be_positive_integers(dims):
    with pytest.raises(ValidationError, match="ensemble dimensions"):
        CQEnsemble(*dims, np.array([1.0]), np.eye(1, 4, dtype=complex))


def test_ensemble_dimensions_accept_numpy_integers():
    ens = CQEnsemble(np.int64(2), np.int64(2), np.array([1.0]), np.eye(1, 4, dtype=complex))
    assert type(ens.dim_a) is int and type(ens.dim_r) is int
    gi = generalized_information(ens, identity_channel(2))
    assert gi.i_g == pytest.approx(0.0, abs=1e-12)
