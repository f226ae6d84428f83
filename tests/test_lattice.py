"""Chain geometry, bond families, and the momentum-space oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dqap_lab import lattice
from dqap_lab import (
    LatticeSpec,
    OpenShellError,
    bond_pairs,
    build_hamiltonian,
    exact_ground_energy,
    exact_ground_state,
    initial_state,
)

from .oracles import hopping_families, kspace_gap, kspace_ground_energy, kspace_levels


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(L=7),
        dict(L=0),
        dict(L=8.0),
        dict(L=8, gamma=2),
        dict(L=-8),
        dict(L="8"),
        dict(L=8, gamma=0),
        dict(L=8, gamma=-1.0),
        dict(L=8, gamma=True),
    ],
)
def test_spec_rejects_invalid_fields(kwargs):
    with pytest.raises(ValueError):
        LatticeSpec(**kwargs)


def test_half_filling_and_boundary_labels():
    spec = LatticeSpec.half_filling(12)
    assert (spec.L, spec.N, spec.gamma) == (12, 6, -1)
    assert spec.boundary == "apbc"
    assert LatticeSpec.half_filling(12, gamma=+1).boundary == "pbc"


def test_bond_pairs_explicit_L8():
    spec = LatticeSpec.half_filling(8, gamma=+1)
    a, b, w = bond_pairs(spec, 1)
    assert list(zip(a, b)) == [(0, 1), (2, 3), (4, 5), (6, 7)]
    assert np.all(w == 1.0)
    a, b, w = bond_pairs(spec, 2)
    assert list(zip(a, b)) == [(1, 2), (3, 4), (5, 6), (7, 0)]
    assert list(w) == [1.0, 1.0, 1.0, +1.0]
    _, _, w = bond_pairs(LatticeSpec.half_filling(8, gamma=-1), 2)
    assert w[-1] == -1.0


def test_bond_pairs_are_read_only():
    # the arrays are cached and shared by every caller
    spec = LatticeSpec.half_filling(8)
    for family in (1, 2):
        for arr in bond_pairs(spec, family):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0


def test_bond_pairs_rejects_unknown_family():
    with pytest.raises(ValueError):
        bond_pairs(LatticeSpec.half_filling(8), 3)


@settings(deadline=None, max_examples=20)
@given(
    L=st.sampled_from([2, 4, 6, 8, 10, 12, 16]),
    gamma=st.sampled_from([-1, +1]),
)
@example(L=2, gamma=-1)
@example(L=2, gamma=+1)
def test_families_sum_to_hamiltonian(L, gamma):
    spec = LatticeSpec(L=L, gamma=gamma)
    h = build_hamiltonian(spec)
    v1, v2 = hopping_families(L, gamma)
    np.testing.assert_allclose(h, v1 + v2, atol=0)
    np.testing.assert_allclose(h, h.T, atol=0)
    # every site touches exactly two bonds; at L = 2 both are the pair (0, 1)
    if L > 2:
        assert np.all(np.sum(h != 0.0, axis=0) == 2)


@pytest.mark.parametrize("L", [4, 6, 8, 14, 20])
@pytest.mark.parametrize("gamma", [-1, +1])
def test_spectrum_matches_momentum_oracle(L, gamma):
    spec = LatticeSpec.half_filling(L, gamma=gamma)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(build_hamiltonian(spec)),
        kspace_levels(L, spec.boundary),
        atol=1e-10,
    )


@pytest.mark.parametrize(
    "L,gamma",
    [(8, -1), (16, -1), (10, +1), (18, +1), (130, +1), (256, -1)],
)
def test_ground_energy_matches_momentum_oracle(L, gamma):
    spec = LatticeSpec.half_filling(L, gamma=gamma)
    orb, energy = exact_ground_state(spec)
    assert abs(energy - kspace_ground_energy(L, L // 2, spec.boundary)) < 1e-10
    assert orb.shape == (L, L // 2)
    np.testing.assert_allclose(orb.conj().T @ orb, np.eye(L // 2), atol=1e-12)
    h = build_hamiltonian(spec)
    assert abs(np.trace(orb.conj().T @ h @ orb) - energy) < 1e-10


def test_exact_ground_state_needs_no_dense_diagonalization(monkeypatch):
    def no_eigh(*args, **kwargs):
        raise AssertionError("dense diagonalization in exact_ground_state")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigh)
    orb, energy = exact_ground_state(LatticeSpec.half_filling(16))
    assert orb.shape == (16, 8)
    assert abs(energy - kspace_ground_energy(16, 8, "apbc")) < 1e-10


@pytest.mark.parametrize("L,gamma", [(2, +1), (8, -1), (10, +1), (160, -1), (130, +1)])
def test_ground_energy_alone_is_the_ground_state_energy(L, gamma, monkeypatch):
    spec = LatticeSpec.half_filling(L, gamma=gamma)
    _, energy = exact_ground_state(spec)

    def no_orbitals(*args, **kwargs):
        raise AssertionError("orbitals formed for the energy alone")

    monkeypatch.setattr(lattice, "_bloch_orbitals", no_orbitals)
    assert exact_ground_energy(spec) == energy


@pytest.mark.parametrize("L,gamma", [(8, +1), (16, +1), (10, -1), (18, -1)])
def test_open_shell_raises(L, gamma):
    # half filling is gapless for these parities; the oracle agrees
    spec = LatticeSpec.half_filling(L, gamma=gamma)
    assert kspace_gap(L, L // 2, spec.boundary) < 1e-10
    with pytest.raises(OpenShellError):
        exact_ground_state(spec)
    with pytest.raises(OpenShellError):
        exact_ground_energy(spec)


def test_energy_density_approaches_thermodynamic_value():
    # finite-size error of e = E/L against -2/pi falls by ~4x per doubling
    errs = []
    for L in (20, 40, 80, 160):
        _, e = exact_ground_state(LatticeSpec.half_filling(L))
        errs.append(abs(e / L + 2.0 / np.pi))
    errs = np.array(errs)
    assert errs[-1] < 1e-4
    ratios = errs[:-1] / errs[1:]
    np.testing.assert_allclose(ratios, 4.0, rtol=0.05)


def test_dimer_state_energy_and_gram():
    spec = LatticeSpec.half_filling(12)
    psi = initial_state(spec)
    np.testing.assert_allclose(psi.T @ psi, np.eye(6), atol=1e-14)
    h = build_hamiltonian(spec)
    assert abs(np.trace(psi.T @ h @ psi) - (-spec.L / 2)) < 1e-12
    # the dimer state is the odd-family ground state
    v1, _ = hopping_families(spec.L, spec.gamma)
    np.testing.assert_allclose(v1 @ psi, -psi, atol=1e-12)

