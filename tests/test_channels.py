"""Kraus channels: construction, application, composition, dilation."""
import numpy as np
import pytest

from qcap.channels import (QuantumChannel, amplitude_damping_channel,
                           apply_channel, channel_from_name, channel_power,
                           compose, dephasing_channel, depolarizing_channel,
                           erasure_channel, identity_channel, stinespring,
                           tensor_channels)
from qcap.errors import DimensionMismatchError, ResourceLimitError, ValidationError
from qcap.sampling import (random_channel, random_isometry, random_state, random_unitary,
                           seed_rng)
from qcap.spaces import TensorSpace
from qcap.states import (DensityMatrix, basis_state, entropy, maximally_mixed,
                         partial_trace)


def kraus_closure(channel: QuantumChannel) -> np.ndarray:
    return sum(k.conj().T @ k for k in channel.kraus)


def test_channel_validation():
    with pytest.raises(ValidationError):
        QuantumChannel(2, 2, (np.eye(2) * 0.5,))
    with pytest.raises(DimensionMismatchError):
        QuantumChannel(2, 2, (np.eye(3),))
    with pytest.raises(ValidationError):
        QuantumChannel(2, 2, ())


def test_identity_dimension_must_be_a_positive_integer():
    for dim in (0, -1, 2.5, True):
        with pytest.raises(ValidationError, match="identity dimension"):
            identity_channel(dim)
    with pytest.raises(ValidationError, match="identity dimension"):
        channel_from_name("identity(-1)")
    assert identity_channel(np.int64(2)).dim_in == 2


def test_named_channels_are_trace_preserving():
    for chan in (identity_channel(3), dephasing_channel(0.1),
                 depolarizing_channel(0.3), erasure_channel(0.25),
                 amplitude_damping_channel(0.4)):
        assert kraus_closure(chan) == pytest.approx(np.eye(chan.dim_in), abs=1e-12)


def test_channel_from_name():
    chan = channel_from_name("dephasing(0.1)")
    assert chan.dim_in == 2 and chan.dim_out == 2
    assert channel_from_name("identity(4)").dim_in == 4
    assert channel_from_name("erasure(0.5)").dim_out == 3
    with pytest.raises(ValidationError):
        channel_from_name("unknown(1)")
    with pytest.raises(ValidationError):
        channel_from_name("dephasing")
    with pytest.raises(ValidationError):
        channel_from_name("dephasing(abc)")
    with pytest.raises(ValidationError):
        channel_from_name("dephasing(1.5)")


def test_dephasing_action():
    space = TensorSpace.single("A", 2)
    plus = DensityMatrix(space, np.full((2, 2), 0.5))
    out = apply_channel(dephasing_channel(0.1), plus)
    # off-diagonal shrinks by 1 - 2p, populations stay
    expect = np.array([[0.5, 0.4], [0.4, 0.5]])
    assert out.matrix == pytest.approx(expect, abs=1e-12)
    flat = apply_channel(dephasing_channel(0.5), plus)
    assert flat.matrix == pytest.approx(np.eye(2) / 2.0, abs=1e-12)


def test_depolarizing_action():
    space = TensorSpace.single("A", 2)
    zero = DensityMatrix(space, np.diag([1.0, 0.0]))
    out = apply_channel(depolarizing_channel(1.0), zero)
    assert out.matrix == pytest.approx(np.eye(2) / 2.0, abs=1e-12)


def test_amplitude_damping_action():
    space = TensorSpace.single("A", 2)
    one = DensityMatrix(space, np.diag([0.0, 1.0]))
    out = apply_channel(amplitude_damping_channel(0.4), one)
    assert out.matrix == pytest.approx(np.diag([0.4, 0.6]), abs=1e-12)


def test_apply_channel_on_subsystem():
    rho = random_state([("A", 2), ("R", 3)], seed_rng(0, "apply"))
    out = apply_channel(dephasing_channel(0.5), rho, target="A")
    assert out.space.labels == ("A", "R")
    # the untouched marginal is preserved
    assert partial_trace(out, "R").matrix == pytest.approx(
        partial_trace(rho, "R").matrix, abs=1e-12)
    with pytest.raises(DimensionMismatchError):
        apply_channel(dephasing_channel(0.5), rho, target="R")
    with pytest.raises(ValidationError):
        apply_channel(dephasing_channel(0.5), rho, target="missing")


def test_apply_channel_output_dimension():
    rho = random_state([("A", 2), ("R", 2)], seed_rng(0, "erase"))
    out = apply_channel(erasure_channel(0.3), rho, target="A")
    assert out.space.dim_of("A") == 3
    assert out.space.dim_of("R") == 2
    assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_compose_matches_sequential_application():
    rho = random_state([("A", 2)], seed_rng(1, "compose"))
    first = dephasing_channel(0.2)
    second = amplitude_damping_channel(0.3)
    combined = compose(second, first)
    a = apply_channel(second, apply_channel(first, rho))
    b = apply_channel(combined, rho)
    assert b.matrix == pytest.approx(a.matrix, abs=1e-12)
    with pytest.raises(DimensionMismatchError, match="first outputs dimension 2, second expects 3"):
        compose(identity_channel(3), first)


def test_tensor_channels_and_power():
    rho = random_state([("A", 2), ("B", 2)], seed_rng(2, "tensor"))
    pair = tensor_channels(dephasing_channel(0.5), identity_channel(2))
    # the paired channel acts on the four-dimensional joint input
    with pytest.raises(DimensionMismatchError):
        apply_channel(pair, rho, target="A")
    merged = DensityMatrix(TensorSpace.single("AB", 4), rho.matrix)
    out = apply_channel(pair, merged)
    assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)
    cubed = channel_power(dephasing_channel(0.1), 3)
    assert cubed.dim_in == 8
    assert kraus_closure(cubed) == pytest.approx(np.eye(8), abs=1e-12)
    with pytest.raises(ValidationError):
        channel_power(dephasing_channel(0.1), 0)


def test_channel_power_integer_types():
    squared = channel_power(dephasing_channel(0.1), np.int64(2))
    expected = channel_power(dephasing_channel(0.1), 2)
    assert np.stack(squared.kraus) == pytest.approx(np.stack(expected.kraus), abs=0)
    for bad in (True, 2.0):
        with pytest.raises(ValidationError, match="positive integer"):
            channel_power(dephasing_channel(0.1), bad)


def test_channel_power_guard_counts_the_output_map():
    # dephrasure(0.1, 0.25) has d_out = 3 and K = 4: its level-4 output map is
    # 256 x (3^8 + 4^8), about 2^24.1 entries
    embed, erase = np.eye(3, 2), np.zeros((2, 3, 2))
    erase[0, 2, 0] = erase[1, 2, 1] = 1.0
    dephrasure_shaped = QuantumChannel(2, 3, (
        np.sqrt(0.75 * 0.9) * embed, np.sqrt(0.75 * 0.1) * embed @ np.diag([1.0, -1.0]),
        np.sqrt(0.25) * erase[0], np.sqrt(0.25) * erase[1]))
    for name in ("identity(2)", "dephasing(0.1)", "depolarizing(0.1)", "erasure(0.1)",
                 "amplitude_damping(0.1)"):
        assert channel_power(channel_from_name(name), 4).dim_in == 16
    assert len(channel_power(dephrasure_shaped, 4).kraus) == 256
    # depolarizing at l = 5 would need a 1,024 x 1,049,600 map (2^30 entries)
    for chan in (depolarizing_channel(0.1), erasure_channel(0.1), dephrasure_shaped):
        with pytest.raises(ResourceLimitError, match="output map needs 2\\^"):
            channel_power(chan, 5)


def test_stinespring_dilation():
    for i, chan in enumerate((dephasing_channel(0.15), erasure_channel(0.3),
                              random_channel(2, 3, 4, seed_rng(3, "stine", 0)))):
        v = stinespring(chan)
        assert v.conj().T @ v == pytest.approx(np.eye(chan.dim_in), abs=1e-11)
        rho = random_state(chan.dim_in, seed_rng(3, "stine-in", i))
        big = v @ rho.matrix @ v.conj().T
        env = len(chan.kraus)
        out = big.reshape(chan.dim_out, env, chan.dim_out, env)
        out = np.einsum("aebe->ab", out)
        direct = apply_channel(chan, DensityMatrix(TensorSpace.single("A", chan.dim_in),
                                                   rho.matrix))
        assert out == pytest.approx(direct.matrix, abs=1e-11)


def test_random_channel_properties():
    for i in range(10):
        chan = random_channel(2, 3, 2, seed_rng(4, "rand", i))
        assert kraus_closure(chan) == pytest.approx(np.eye(2), abs=1e-11)
        rho = random_state(2, seed_rng(4, "rand-in", i))
        out = apply_channel(chan, DensityMatrix(TensorSpace.single("A", 2), rho.matrix))
        assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-11)
        assert min(np.linalg.eigvalsh(out.matrix)) >= -1e-11


@pytest.mark.parametrize("seed", [-1, 2.5, True])
def test_seed_rng_rejects_seeds_that_are_not_non_negative_integers(seed):
    with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
        seed_rng(seed)
    with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
        random_state(2, seed)
    assert seed_rng(np.int64(2)).random() == seed_rng(2).random()


@pytest.mark.parametrize("call", [
    lambda: QuantumChannel(2.0, 2, (np.eye(2),)),
    lambda: QuantumChannel(True, True, (np.eye(1),)),
    lambda: random_channel(2, 2, 1.5, 0),
    lambda: random_isometry(3.5, 2, 0),
    lambda: random_unitary(2.5, 0),
    lambda: random_unitary(True, 0),
    lambda: random_state(4, 0, rank=2.5),
    lambda: random_state(4, 0, rank=True),
    lambda: basis_state(TensorSpace.single("A", 2), 1.5),
    lambda: basis_state(TensorSpace.single("A", 2), True)],
    ids=["channel-float", "channel-bool", "kraus-count", "isometry", "unitary-float",
         "unitary-bool", "rank-float", "rank-bool", "basis-float", "basis-bool"])
def test_integer_arguments_must_be_integers(call):
    with pytest.raises(ValidationError, match="integer|out of range"):
        call()


def test_unital_channels_cannot_lower_mixed_entropy():
    # unital qubit channels only increase entropy
    mixed = maximally_mixed(TensorSpace.single("A", 2))
    for chan in (dephasing_channel(0.2), depolarizing_channel(0.7)):
        out = apply_channel(chan, mixed)
        assert out.matrix == pytest.approx(mixed.matrix, abs=1e-12)
    rho = random_state(2, seed_rng(5, "unital"))
    rho = DensityMatrix(TensorSpace.single("A", 2), rho.matrix)
    out = apply_channel(dephasing_channel(0.3), rho)
    assert entropy(out) >= entropy(rho) - 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_channel_rejects_non_finite(bad):
    k = np.eye(2, dtype=complex)
    k[0, 1] = bad
    with pytest.raises(ValidationError, match="NaN or infinite"):
        QuantumChannel(2, 2, (k,))


def test_apply_channel_on_middle_subsystem_matches_kraus_sum():
    rho = random_state(TensorSpace.of(("A", 2), ("B", 2), ("C", 2)), seed_rng(3, "middle"))
    chan = erasure_channel(0.3)
    out = apply_channel(chan, rho, target="B")
    assert out.space.subsystems == (("A", 2), ("B", 3), ("C", 2))
    want = np.zeros((12, 12), dtype=complex)
    for k in chan.kraus:
        lift = np.kron(np.kron(np.eye(2), k), np.eye(2))
        want += lift @ rho.matrix @ lift.conj().T
    assert np.max(np.abs(out.matrix - want)) <= 1e-12
