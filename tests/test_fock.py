"""Occupation-basis oracle internals."""

import numpy as np
import pytest

from dqap_lab import (
    FockBasis,
    FockVector,
    LatticeSpec,
    SizeLimitExceeded,
    SlaterState,
    Subsystem,
    build_hamiltonian,
    entanglement_entropy,
    fock_entropy,
    fock_evolve,
    fock_expectation,
    fock_reduced_dm,
    initial_state,
    many_body_matrix,
    slater_to_fock,
)

from .oracles import random_orthonormal


def test_basis_dimension_and_mask_order():
    basis = FockBasis.build(4, 2)
    assert basis.dim == 6
    assert list(basis.masks) == [3, 5, 6, 9, 10, 12]
    assert basis.index(9) == 3
    with pytest.raises(KeyError):
        basis.index(7)


def test_basis_size_caps():
    with pytest.raises(SizeLimitExceeded):
        FockBasis.build(14, 7)
    assert FockBasis.build(12, 6).dim == 924


def test_vector_shape_checked():
    from dqap_lab import DimensionMismatch

    basis = FockBasis.build(4, 2)
    with pytest.raises(DimensionMismatch):
        FockVector(basis, np.zeros(5))


def test_single_particle_sector_reproduces_matrix():
    rng = np.random.default_rng(0)
    h = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = h + h.conj().T
    basis = FockBasis.build(5, 1)
    np.testing.assert_allclose(many_body_matrix(basis, h), h, atol=1e-14)


def test_many_body_matrix_hermitian():
    spec = LatticeSpec.half_filling(6)
    m = many_body_matrix(FockBasis.build(6, 3), build_hamiltonian(spec))
    np.testing.assert_allclose(m, m.conj().T, atol=1e-14)


def test_dimer_amplitudes_L4():
    spec = LatticeSpec.half_filling(4)
    vec = slater_to_fock(SlaterState(initial_state(spec).astype(complex)))
    amp = {int(m): a for m, a in zip(vec.basis.masks, vec.amplitudes)}
    half = 0.5
    for mask in (0b0101, 0b1001, 0b0110, 0b1010):
        assert abs(amp[mask] - half) < 1e-14
    for mask in (0b0011, 0b1100):
        assert abs(amp[mask]) < 1e-14
    assert abs(vec.norm_sq - 1.0) < 1e-14


def test_column_swap_flips_all_amplitudes():
    rng = np.random.default_rng(1)
    orb = random_orthonormal(rng, 6, 3)
    a = slater_to_fock(SlaterState(orb))
    b = slater_to_fock(SlaterState(orb[:, [1, 0, 2]]))
    np.testing.assert_allclose(b.amplitudes, -a.amplitudes, atol=1e-12)


def test_dimer_energy_L8():
    spec = LatticeSpec.half_filling(8)
    vec = slater_to_fock(SlaterState(initial_state(spec).astype(complex)))
    assert abs(fock_expectation(vec, build_hamiltonian(spec)) + 4.0) < 1e-12


def test_evolution_unitary_roundtrip():
    spec = LatticeSpec.half_filling(6)
    h = build_hamiltonian(spec)
    rng = np.random.default_rng(4)
    orb = random_orthonormal(rng, 6, 3)
    vec = slater_to_fock(SlaterState(orb))
    fwd = fock_evolve(vec, h, 1j * 0.7)
    assert abs(fwd.norm_sq - 1.0) < 1e-12
    back = fock_evolve(fwd, h, -1j * 0.7)
    np.testing.assert_allclose(back.amplitudes, vec.amplitudes, atol=1e-12)
    still = fock_evolve(vec, h, 0.0)
    np.testing.assert_allclose(still.amplitudes, vec.amplitudes, atol=1e-14)


def test_reduced_dm_basic_properties():
    rng = np.random.default_rng(5)
    vec = slater_to_fock(SlaterState(random_orthonormal(rng, 8, 4)))
    rho = fock_reduced_dm(vec, [1, 4, 6])
    assert rho.shape == (8, 8)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_reduced_dm_single_bond_state():
    # (c+_0 + c+_1)/sqrt(2) |0>: either site is half filled
    basis = FockBasis.build(2, 1)
    vec = FockVector(basis, np.array([1.0, 1.0]) / np.sqrt(2.0))
    rho = fock_reduced_dm(vec, [0])
    np.testing.assert_allclose(rho, 0.5 * np.eye(2), atol=1e-14)
    assert abs(fock_entropy(vec, [0]) - np.log(2.0)) < 1e-12


def test_reduced_dm_subsystem_cap():
    spec = LatticeSpec.half_filling(10)
    vec = slater_to_fock(SlaterState(initial_state(spec).astype(complex)))
    with pytest.raises(SizeLimitExceeded):
        fock_reduced_dm(vec, list(range(9)))


@pytest.mark.parametrize("sites", [[0, 1, 2], [1, 4, 6], [0, 5]])
def test_entropy_matches_correlation_method(sites):
    rng = np.random.default_rng(6)
    st = SlaterState(random_orthonormal(rng, 8, 4))
    vec = slater_to_fock(st)
    s_fock = fock_entropy(vec, sites)
    s_corr = entanglement_entropy(st, Subsystem(sites))
    assert abs(s_fock - s_corr) < 1e-10
