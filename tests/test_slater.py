"""Determinant-state algebra cross-checked against the occupation-basis oracle."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from scipy.linalg import expm

from dqap_lab import (
    DimensionMismatch,
    DqapParams,
    EvolutionPlan,
    FockBasis,
    LatticeSpec,
    SingularOverlapError,
    SlaterState,
    apply_bond_layer,
    block_energy,
    build_dqap_state,
    build_hamiltonian,
    build_imag_state,
    energy_expectation,
    evolve_linear_schedule,
    exact_ground_state,
    fock_evolve,
    initial_state,
    many_body_matrix,
    overlap,
    slater_to_fock,
    state_and_derivatives,
    transition_density,
)
from dqap_lab.slater import _bond_block

from .oracles import gram_trace_energy, hopping_families, kspace_ground_energy, random_orthonormal


def random_state(rng, L, N):
    return SlaterState(random_orthonormal(rng, L, N))


def elementary(L, x, xp):
    e = np.zeros((L, L))
    e[x, xp] = 1.0
    return e


# ---- overlaps ----


def test_overlap_self_is_one():
    rng = np.random.default_rng(0)
    st = random_state(rng, 8, 4)
    assert abs(overlap(st, st) - 1.0) < 1e-12


def test_overlap_conjugate_symmetry():
    rng = np.random.default_rng(1)
    a, b = random_state(rng, 8, 4), random_state(rng, 8, 4)
    assert abs(overlap(a, b) - np.conj(overlap(b, a))) < 1e-12


def test_overlap_column_swap_flips_sign():
    rng = np.random.default_rng(2)
    a, b = random_state(rng, 6, 3), random_state(rng, 6, 3)
    swapped = SlaterState(b.orbitals[:, [1, 0, 2]])
    assert abs(overlap(a, swapped) + overlap(a, b)) < 1e-12


@pytest.mark.parametrize("L,N", [(4, 2), (6, 3), (8, 4)])
def test_overlap_matches_fock(L, N):
    rng = np.random.default_rng(L)
    a, b = random_state(rng, L, N), random_state(rng, L, N)
    target = np.vdot(slater_to_fock(a).amplitudes, slater_to_fock(b).amplitudes)
    assert abs(overlap(a, b) - target) < 1e-10


def test_overlap_of_steep_imaginary_circuit_is_finite():
    # angles of 3 at L=64, M=4: the unnormalized norm is far beyond the
    # float range, but the state is stored normalized
    spec = LatticeSpec.half_filling(64)
    st = build_imag_state(spec, DqapParams(np.full((4, 2), 3.0)))
    assert abs(overlap(st, st) - 1.0) < 1e-12
    assert np.isfinite(overlap(SlaterState(exact_ground_state(spec)[0]), st))


def test_overlap_rejects_mismatched_shapes():
    rng = np.random.default_rng(3)
    with pytest.raises(DimensionMismatch):
        overlap(random_state(rng, 8, 4), random_state(rng, 8, 3))
    with pytest.raises(DimensionMismatch):
        overlap(random_state(rng, 8, 4), random_state(rng, 6, 3))


# ---- transition density ----


def test_transition_density_trace_is_particle_number():
    rng = np.random.default_rng(4)
    p = transition_density(random_state(rng, 8, 4), range(8))
    assert abs(np.trace(p) - 4.0) < 1e-10


def test_transition_density_dimer_projector():
    spec = LatticeSpec.half_filling(8)
    st = SlaterState(initial_state(spec).astype(complex))
    p = transition_density(st, range(8))
    np.testing.assert_allclose(p @ p, p, atol=1e-12)
    # 1/2 on each dimer block, zero across dimers
    assert abs(p[0, 0] - 0.5) < 1e-12
    assert abs(p[1, 0] - 0.5) < 1e-12
    assert abs(p[2, 0]) < 1e-12
    assert abs(p[2, 1]) < 1e-12


@pytest.mark.parametrize("L,N", [(4, 2), (6, 3), (8, 4), (10, 5)])
def test_transition_density_matches_fock(L, N):
    rng = np.random.default_rng(10 + L)
    spec = LatticeSpec.half_filling(L, gamma=+1)
    imag = build_imag_state(spec, DqapParams(rng.uniform(0.5, 2.0, (2, 2))))
    basis = FockBasis.build(L, N)
    hops = {(x, xp): many_body_matrix(basis, elementary(L, x, xp))
            for x in range(L) for xp in range(L)}
    # the full chain, then unordered, non-contiguous and wrap-around subsystems
    subsystems = [range(L), [5 % L, 0, 3], [L - 1, 0], [L - 2, 1, L - 1]]
    for st in (random_state(rng, L, N), imag):
        vec = slater_to_fock(st, basis)
        # matrix element <c+_xp c_x> sits at target[xp, x]
        target = np.empty((L, L), dtype=complex)
        for (x, xp), m in hops.items():
            target[xp, x] = np.vdot(vec.amplitudes, m @ vec.amplitudes)
        full = transition_density(st, range(L))
        for sites in subsystems:
            block = np.ix_(sites, sites)
            p = transition_density(st, sites)
            np.testing.assert_allclose(p, target[block], rtol=0, atol=1e-10)
            np.testing.assert_allclose(p, full[block], rtol=0, atol=1e-14)


# ---- bond layers ----


def test_bond_layer_zero_angle_is_identity():
    spec = LatticeSpec.half_filling(8)
    rng = np.random.default_rng(6)
    st = random_state(rng, 8, 4)
    for family in (1, 2):
        out = apply_bond_layer(st, family, 0.0, spec)
        np.testing.assert_allclose(out.orbitals, st.orbitals, atol=1e-15)


def test_real_bond_layer_preserves_orthonormality():
    spec = LatticeSpec.half_filling(10, gamma=+1)
    rng = np.random.default_rng(7)
    st = random_state(rng, 10, 5)
    out = apply_bond_layer(st, 2, 0.37, spec)
    gram = out.orbitals.conj().T @ out.orbitals
    np.testing.assert_allclose(gram, np.eye(5), atol=1e-12)


@pytest.mark.parametrize("family,gamma", [(1, -1), (2, -1), (2, +1)])
def test_real_bond_layer_matches_fock(family, gamma):
    L, N = 6, 3
    spec = LatticeSpec.half_filling(L, gamma=gamma)
    rng = np.random.default_rng(8)
    st = random_state(rng, L, N)
    theta = 0.83
    v = hopping_families(L, spec.gamma)[family - 1]
    out = apply_bond_layer(st, family, theta, spec)
    target = fock_evolve(slater_to_fock(st), v, 1j * theta)
    got = slater_to_fock(out)
    # compare ray-equivalent vectors through the inner product
    ov = np.vdot(target.amplitudes, got.amplitudes)
    assert abs(abs(ov) - 1.0) < 1e-10
    np.testing.assert_allclose(
        got.amplitudes, ov * target.amplitudes, atol=1e-10
    )


def check_imag_layer_against_fock(family, seed):
    L, N = 6, 3
    spec = LatticeSpec.half_filling(L, gamma=+1)
    rng = np.random.default_rng(seed)
    st = random_state(rng, L, N)
    tau = 0.41
    v = hopping_families(L, spec.gamma)[family - 1]
    out = apply_bond_layer(st, family, tau, spec, mode="imag")
    gram = out.orbitals.conj().T @ out.orbitals
    np.testing.assert_allclose(gram, np.eye(N), atol=1e-12)
    target = fock_evolve(slater_to_fock(st), v, tau)
    got = slater_to_fock(out)
    # the normalized ray, with the phase of the unnormalized state
    np.testing.assert_allclose(
        got.amplitudes, target.amplitudes / np.sqrt(target.norm_sq), atol=1e-10
    )
    return st, v, tau


@pytest.mark.parametrize("family", [1, 2])
def test_imag_bond_layer_matches_fock(family):
    check_imag_layer_against_fock(family, seed=9)


@pytest.mark.parametrize("family", [1, 2])
def test_imag_bond_layer_keeps_the_phase_that_qr_flips(family):
    # seed 10 gives, for both families, an evolved G = QR whose R diagonal
    # has a negative sign product, so det Q alone has the wrong sign and
    # only the positive-diagonal fix of the QR step restores the phase
    st, v, tau = check_imag_layer_against_fock(family, seed=10)
    r = np.linalg.qr(expm(-tau * v) @ st.orbitals)[1]
    assert np.prod(np.sign(np.diagonal(r).real)) == -1.0


def test_imag_layer_rejects_dependent_columns():
    # two equal columns leave R of the QR step with a vanishing diagonal entry
    spec = LatticeSpec.half_filling(8)
    orb = initial_state(spec).astype(complex)
    orb[:, 1] = orb[:, 0]
    with pytest.raises(SingularOverlapError):
        apply_bond_layer(SlaterState(orb), 1, 0.3, spec, mode="imag")


@pytest.mark.parametrize("mode", ["real", "imag"])
def test_bond_block_on_an_array_equals_the_scalar_calls(mode):
    # one call gives every half-layer's (c, s); each entry must be the
    # scalar call's, bit for bit, for the block pass to keep its numbers
    angles = np.concatenate([[0.0, -0.0, 1e-300, -700.0, 700.0],
                             np.random.default_rng(11).normal(scale=3.0, size=200)])
    c, s = _bond_block(angles, mode)
    ref = [_bond_block(a, mode) for a in angles]
    assert c.shape == s.shape == angles.shape
    assert c.tobytes() == np.array([r[0] for r in ref]).tobytes()
    assert s.tobytes() == np.array([r[1] for r in ref]).tobytes()


@pytest.mark.parametrize("run", [_bond_block, block_energy, state_and_derivatives])
def test_overflow_in_a_later_layer_names_its_angle(run):
    table = DqapParams([[0.5, 0.3], [0.2, 800.0]])
    args = (table.flatten(),) if run is _bond_block else (LatticeSpec.half_filling(16), table)
    with pytest.raises(SingularOverlapError, match=r"cosh\(800\)"):
        run(*args, "imag")


# ---- energies ----


def test_energy_expectation_at_exact_ground_state():
    spec = LatticeSpec.half_filling(16)
    orb, e = exact_ground_state(spec)
    st = SlaterState(orb.astype(complex))
    assert abs(energy_expectation(st, build_hamiltonian(spec)) - e) < 1e-10
    assert abs(e - kspace_ground_energy(16, 8, "apbc")) < 1e-10


@pytest.mark.parametrize("L", [10, 64, 160])
def test_energy_expectation_matches_the_gram_trace(L):
    # a random positive h keeps the trace away from zero, so the check is relative
    rng = np.random.default_rng(L)
    a = rng.normal(size=(L, L))
    spec = LatticeSpec.half_filling(L, gamma=+1 if L % 4 == 2 else -1)
    params = DqapParams(rng.uniform(0.0, 0.6, (3, 2)))
    orbitals = [random_orthonormal(rng, L, L // 2), build_imag_state(spec, params).orbitals]
    orbitals.append(np.asfortranarray(orbitals[0]))
    for h in (a @ a.T / L, build_hamiltonian(spec)):
        for orb in orbitals:
            ref = gram_trace_energy(orb, h)
            assert abs(energy_expectation(SlaterState(orb), h) - ref) <= 1e-12 * abs(ref)


def test_energy_expectation_rejects_a_complex_h():
    spec = LatticeSpec.half_filling(8)
    st = SlaterState(exact_ground_state(spec)[0])
    with pytest.raises(ValueError, match="real symmetric"):
        energy_expectation(st, build_hamiltonian(spec).astype(complex))


def test_energy_is_variational_bound():
    # N = 5 is odd, so only periodic closure gives a closed shell
    spec = LatticeSpec.half_filling(10, gamma=+1)
    h = build_hamiltonian(spec)
    _, e0 = exact_ground_state(spec)
    rng = np.random.default_rng(13)
    for _ in range(20):
        assert energy_expectation(random_state(rng, 10, 5), h) >= e0 - 1e-12


def test_translation_by_two_sites_preserves_energy():
    # the bond pattern is two-site periodic, so T^2 is a symmetry under pbc
    spec = LatticeSpec.half_filling(10, gamma=+1)
    h = build_hamiltonian(spec)
    rng = np.random.default_rng(14)
    st = random_state(rng, 10, 5)
    rolled = SlaterState(np.roll(st.orbitals, 2, axis=0))
    assert abs(energy_expectation(st, h) - energy_expectation(rolled, h)) < 1e-12
    out = apply_bond_layer(st, 2, 0.29, spec)
    out_rolled = apply_bond_layer(rolled, 2, 0.29, spec)
    np.testing.assert_allclose(
        np.roll(out.orbitals, 2, axis=0), out_rolled.orbitals, atol=1e-12
    )


# ---- the orthonormal-orbital invariant ----

_SPEC = LatticeSpec.half_filling(12)
_ANGLES = DqapParams(np.random.default_rng(15).uniform(0.0, 2.25, (3, 2)))
_STEEP = DqapParams(np.full((3, 2), 3.0))  # unnormalized norm about e^88

# builder name -> the states it returns for _SPEC
_BUILDERS = {
    "build_dqap_state": lambda: [build_dqap_state(_SPEC, _ANGLES)],
    "build_imag_state": lambda: [build_imag_state(_SPEC, _STEEP)],
    "build_dqap_state_prefixes": lambda: [
        build_dqap_state(_SPEC, DqapParams(_ANGLES.angles[:j])) for j in range(_ANGLES.M + 1)
    ],
    "evolve_linear_schedule": lambda: [
        evolve_linear_schedule(_SPEC, EvolutionPlan(T=6.0, M=40))[0]
    ],
    "exact_ground_state": lambda: [SlaterState(exact_ground_state(_SPEC)[0])],
}


@pytest.mark.parametrize("builder", _BUILDERS)
def test_every_builder_returns_orthonormal_orbitals(builder):
    # expectation values and the metric assembly read Psi+ Psi = 1 without checking it
    for state in _BUILDERS[builder]():
        gram = state.orbitals.conj().T @ state.orbitals
        np.testing.assert_allclose(gram, np.eye(_SPEC.N), rtol=0, atol=1e-12)


@pytest.mark.parametrize("builder", _BUILDERS)
def test_every_builder_returns_an_immutable_state(builder):
    for state in _BUILDERS[builder]():
        with pytest.raises(FrozenInstanceError):
            state.orbitals = np.zeros_like(state.orbitals)
