"""Entropy kernels: the closed-form 2x2 path against LAPACK, and per-size batching."""
import numpy as np
import pytest

from qcap.linalg import (ENTROPY_CUTOFF, batched_entropy, entropy_and_gradient, hermitize,
                         per_size)
from qcap.sampling import seed_rng

from spectral_oracle import eigh_entropy, eigh_entropy_and_gradient

LEAD = (3, 4)


def _complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _gram(g):
    return g @ g.conj().swapaxes(-1, -2)


def _diagonal(small):
    """diag(1 - small, small) for every entry of ``small`` (shape LEAD)."""
    return np.stack([1.0 - small, small], axis=-1)[..., None] * np.eye(2) + 0j


def _case(name: str) -> np.ndarray:
    rng = seed_rng(0, "spectral-oracle", name)
    scale = rng.uniform(0.1, 2.0, size=LEAD)[..., None, None]
    if name == "full_rank":
        return scale * _gram(_complex(rng, *LEAD, 2, 2))
    if name == "rank_one":
        return scale * _gram(_complex(rng, *LEAD, 2, 1))
    if name == "multiple_of_identity":
        return scale * np.eye(2) + 0j
    if name == "near_degenerate":
        h = _complex(rng, *LEAD, 2, 2)
        h = hermitize(h) - 0.5 * np.trace(h, axis1=-2, axis2=-1).real[..., None, None] * np.eye(2)
        return scale * np.eye(2) + 1e-9 * h / np.linalg.norm(h, 2, axis=(-2, -1))[..., None, None]
    if name == "zero":
        return np.zeros(LEAD + (2, 2), dtype=complex)
    # diagonal, so that both paths read the small eigenvalue exactly: in a rotated
    # basis it is fixed only to ~1e-16, which log2 turns into a ~1e-4 change of G
    if name == "just_above_cutoff":
        return scale * _diagonal(rng.uniform(1.2, 2.0, size=LEAD) * ENTROPY_CUTOFF)
    if name == "just_below_cutoff":
        return scale * _diagonal(rng.uniform(0.5, 0.8, size=LEAD) * ENTROPY_CUTOFF)
    if name == "non_hermitian":
        return _complex(rng, *LEAD, 2, 2)
    raise AssertionError(name)


CASES = ("full_rank", "rank_one", "multiple_of_identity", "near_degenerate", "zero",
         "just_above_cutoff", "just_below_cutoff", "non_hermitian")


def _gradient_scale(mats, g_ref):
    """max |G|, or 1 / Tr M if larger: G = -(log2 M^ + S I) / Tr M is a sum of terms of
    size about 1 / Tr M that cancel as M^ nears I / 2, where max |G| itself goes to 0."""
    tot = np.clip(np.trace(mats, axis1=-2, axis2=-1).real, ENTROPY_CUTOFF, None)
    return max(np.abs(g_ref).max(), (1.0 / tot).max())


@pytest.mark.parametrize("name", CASES)
def test_two_by_two_kernels_match_the_eigh_oracle(name):
    mats = _case(name)
    assert mats.shape == LEAD + (2, 2)
    s_ref, g_ref = eigh_entropy_and_gradient(mats)
    s, g = entropy_and_gradient(mats)
    assert s.shape == LEAD and g.shape == LEAD + (2, 2)
    assert np.abs(s - s_ref).max() <= 1e-12
    assert np.abs(batched_entropy(mats) - eigh_entropy(mats)).max() <= 1e-12
    assert np.array_equal(batched_entropy(mats), s)
    assert np.abs(g - g_ref).max() <= 1e-9 * _gradient_scale(mats, g_ref)
    assert np.array_equal(g, g.conj().swapaxes(-1, -2))


def test_two_by_two_kernels_read_the_hermitian_part_exactly():
    mats = _case("non_hermitian")
    s, g = entropy_and_gradient(mats)
    s_h, g_h = entropy_and_gradient(hermitize(mats))
    assert np.array_equal(s, s_h) and np.array_equal(g, g_h)
    assert np.array_equal(batched_entropy(mats), batched_entropy(hermitize(mats)))


def test_rotated_near_cutoff_entropies_match_the_eigh_oracle():
    rng = seed_rng(0, "spectral-oracle", "rotated")
    u = np.linalg.qr(_complex(rng, *LEAD, 2, 2))[0]
    for small in (1.5 * ENTROPY_CUTOFF, 0.5 * ENTROPY_CUTOFF):
        mats = u @ _diagonal(np.full(LEAD, small)) @ u.conj().swapaxes(-1, -2)
        assert np.abs(batched_entropy(mats) - eigh_entropy(mats)).max() <= 1e-12
        assert np.isfinite(entropy_and_gradient(mats)[1]).all()


def test_closed_form_spectrum_is_exact_on_diagonals_and_multiples_of_identity():
    s, g = entropy_and_gradient(np.diag([0.25, 0.25]))
    assert s == 1.0 and not g.any()
    assert batched_entropy(np.diag([1.0, 0.0])) == 0.0
    assert batched_entropy(np.zeros((2, 2))) == 0.0


@pytest.mark.parametrize("d", [1, 3, 4])
def test_other_sizes_keep_the_lapack_path(d):
    rng = seed_rng(d, "spectral-oracle", "lapack")
    mats = _gram(_complex(rng, *LEAD, d, d))
    s, g = entropy_and_gradient(mats)
    s_ref, g_ref = eigh_entropy_and_gradient(mats)
    assert np.array_equal(s, s_ref) and np.array_equal(g, g_ref)
    assert np.array_equal(batched_entropy(mats), eigh_entropy(mats))


@pytest.mark.parametrize("kernel", [batched_entropy, entropy_and_gradient],
                         ids=["entropy", "entropy_and_gradient"])
def test_per_size_calls_once_per_size_and_matches_separate_calls(kernel):
    rng = seed_rng(0, "spectral-oracle", "per-size")
    batches = [_gram(_complex(rng, *lead, d, d))
               for lead, d in (((3, 5), 2), ((3, 5), 4), ((3,), 2), ((2, 2, 2), 4), ((1,), 3))]
    sizes = []

    def counted(mats):
        sizes.append(mats.shape)
        return kernel(mats)

    results = per_size(counted, *batches)
    assert sizes == [(18, 2, 2), (23, 4, 4), (1, 3, 3)]
    for mats, got in zip(batches, results):
        want = kernel(mats)
        for a, b in zip(got if isinstance(want, tuple) else (got,),
                        want if isinstance(want, tuple) else (want,)):
            assert a.shape == b.shape and np.array_equal(a, b)
