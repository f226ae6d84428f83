"""Layered circuits, parameter tables, and the derivative engine."""

import sys
import warnings
from functools import lru_cache

import numpy as np
import pytest

from dqap_lab import (
    DqapParams,
    LatticeSpec,
    SingularOverlapError,
    SlaterState,
    apply_bond_layer,
    assemble_metric_and_force,
    block_energy,
    build_dqap_state,
    build_imag_state,
    build_hamiltonian,
    energy_expectation,
    fock_evolve,
    fock_expectation,
    initial_state,
    optimize_imaginary,
    orbital_extents,
    overlap,
    slater_to_fock,
    state_and_derivatives,
    transition_density,
)
from dqap_lab.ansatz import _block_pass, _phase_pairs

from .oracles import (
    dense_circuit,
    dimer_orbitals,
    gauge_invariant_metric_and_force,
    hopping_families,
    mp_imag_energy,
    orbital_spinors,
    projected_metric_and_force,
    random_orthonormal,
    reference_block_pass,
    spinor_orbitals,
    tangent_derivatives,
    tangent_weights,
)


def random_params(rng, m, scale=1.0):
    return DqapParams(scale * rng.uniform(0.1, 1.0, size=(m, 2)))


def dimer_frame(spec):
    """Unitary X with spinor_orbitals(dimer spinors) = dimer orbitals @ X.

    A unitary circuit acts on the left, so in real mode the engine's
    state and derivatives are the dimer-frame ones times X.
    """
    bloch = spinor_orbitals(spec.L, spec.boundary, np.full((spec.N, 2), np.sqrt(0.5)))
    return dimer_orbitals(spec.L).conj().T @ bloch


# ---- parameter tables ----


def test_params_reject_bad_shapes():
    with pytest.raises(ValueError):
        DqapParams(np.zeros(4))
    with pytest.raises(ValueError):
        DqapParams(np.zeros((3, 3)))


def test_flat_ordering_follows_application_order():
    p = DqapParams([[0.1, 0.2], [0.3, 0.4]])
    np.testing.assert_allclose(p.flatten(), [0.2, 0.1, 0.4, 0.3])
    q = DqapParams.from_flat([0.2, 0.1, 0.4, 0.3])
    np.testing.assert_allclose(q.angles, p.angles)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_flatten_is_a_fresh_copy_that_round_trips_bit_for_bit(m):
    rng = np.random.default_rng(m)
    p = DqapParams(rng.normal(size=(m, 2)))
    kept = p.angles.copy()
    flat = p.flatten()
    assert flat.shape == (2 * m,) and flat.dtype == np.float64
    assert flat.flags.writeable and flat.flags.c_contiguous and flat.flags.owndata
    assert np.array_equal(flat[0::2], kept[:, 1]) and np.array_equal(flat[1::2], kept[:, 0])
    assert np.array_equal(DqapParams.from_flat(flat).angles, kept)
    flat[:] = np.nan  # writing to the flat vector leaves the table alone
    assert np.array_equal(p.angles, kept)


# ---- state builders ----


def test_zero_angles_give_dimer_state():
    spec = LatticeSpec.half_filling(8)
    st = build_dqap_state(spec, DqapParams(np.zeros((3, 2))))
    np.testing.assert_allclose(st.orbitals, initial_state(spec), atol=1e-15)


def test_zero_layer_table_is_allowed():
    spec = LatticeSpec.half_filling(6)
    st = build_dqap_state(spec, DqapParams(np.zeros((0, 2))))
    np.testing.assert_allclose(st.orbitals, initial_state(spec), atol=1e-15)


def test_builder_matches_manual_layer_sequence():
    spec = LatticeSpec.half_filling(8, gamma=+1)
    rng = np.random.default_rng(0)
    p = random_params(rng, 2)
    st = build_dqap_state(spec, p)
    manual = SlaterState(initial_state(spec))
    for m in range(2):
        manual = apply_bond_layer(manual, 2, p.angles[m, 1], spec)
        manual = apply_bond_layer(manual, 1, p.angles[m, 0], spec)
    np.testing.assert_allclose(st.orbitals, manual.orbitals, atol=1e-14)


def n_column_pass(spec, table):
    """Every real-mode state of the circuit, all N dimer orbitals evolved."""
    states = [SlaterState(initial_state(spec))]
    for layer in table:
        for family, angle in ((2, layer[1]), (1, layer[0])):
            states.append(apply_bond_layer(states[-1], family, angle, spec))
    return states


@pytest.mark.parametrize("L", [2, 4, 6, 8, 10, 16, 30, 64])
@pytest.mark.parametrize("gamma", [-1, +1])
def test_real_builders_equal_the_n_column_pass_bit_for_bit(gamma, L):
    # the builders evolve one orbital and expand its twisted translates
    spec = LatticeSpec.half_filling(L, gamma=gamma)
    rng = np.random.default_rng(L)
    for m in range(5):
        table = rng.uniform(-5.0, 5.0, (m, 2))  # angles beyond +-pi
        want = n_column_pass(spec, table)
        params = DqapParams(table)
        np.testing.assert_array_equal(build_dqap_state(spec, params).orbitals, want[-1].orbitals)
        got = [build_dqap_state(spec, DqapParams(table[:j])) for j in range(m + 1)]
        assert len(got) == m + 1
        for state, ref in zip(got, want[::2]):
            np.testing.assert_array_equal(state.orbitals, ref.orbitals)


@pytest.mark.parametrize("gamma", [-1, +1])
def test_real_circuit_energy_matches_fock(gamma):
    spec = LatticeSpec.half_filling(6, gamma=gamma)
    h = build_hamiltonian(spec)
    rng = np.random.default_rng(2)
    p = random_params(rng, 2)
    st = build_dqap_state(spec, p)
    vec = slater_to_fock(SlaterState(initial_state(spec).astype(complex)))
    v1, v2 = hopping_families(spec.L, spec.gamma)
    for m in range(2):
        vec = fock_evolve(vec, v2, 1j * p.angles[m, 1])
        vec = fock_evolve(vec, v1, 1j * p.angles[m, 0])
    assert abs(energy_expectation(st, h) - fock_expectation(vec, h)) < 1e-10


def test_imag_circuit_energy_matches_fock():
    spec = LatticeSpec.half_filling(6, gamma=+1)
    h = build_hamiltonian(spec)
    rng = np.random.default_rng(3)
    p = random_params(rng, 2)
    st = build_imag_state(spec, p)
    vec = slater_to_fock(SlaterState(initial_state(spec).astype(complex)))
    v1, v2 = hopping_families(spec.L, spec.gamma)
    for m in range(2):
        vec = fock_evolve(vec, v2, p.angles[m, 1])
        vec = fock_evolve(vec, v1, p.angles[m, 0])
    assert abs(energy_expectation(st, h) - fock_expectation(vec, h)) < 1e-10


def test_imag_odd_only_steps_keep_dimer():
    # the dimer is an eigenstate of the odd family, so odd-only
    # imaginary steps change nothing physical
    spec = LatticeSpec.half_filling(8)
    h = build_hamiltonian(spec)
    p = DqapParams([[0.6, 0.0], [0.9, 0.0]])
    st = build_imag_state(spec, p)
    assert abs(energy_expectation(st, h) - (-0.5 * spec.L)) < 1e-12


@pytest.mark.parametrize("amplitude", [0.3, 1.0, 2.0])
def test_imag_energy_matches_forty_digit_block_product(amplitude):
    # L=160, M=5: at angles up to 2 a column-max rescale in place of the
    # QR step was 4e-9 off in relative energy
    spec = LatticeSpec.half_filling(160)
    table = np.random.default_rng(0).uniform(0.0, amplitude, (5, 2))
    e = energy_expectation(build_imag_state(spec, DqapParams(table)), build_hamiltonian(spec))
    ref = float(mp_imag_energy(160, "apbc", table))
    assert abs(e - ref) < 1e-12 * abs(ref)


def test_imag_energy_of_optimized_l64_table_matches_block_product():
    # an L=64 apbc M=4 imaginary optimum, rounded to three decimals
    spec = LatticeSpec.half_filling(64)
    table = [[2.149, 2.934], [1.251, 1.643], [0.633, 0.922], [0.122, 0.37]]
    e = energy_expectation(build_imag_state(spec, DqapParams(table)), build_hamiltonian(spec))
    ref = float(mp_imag_energy(64, "apbc", table))
    assert abs(e - ref) < 1e-12 * abs(ref)


def test_imag_coefficient_overflow_raises_typed_error():
    # cosh(800) overflows; the state must not come back full of nan
    spec = LatticeSpec.half_filling(16)
    with pytest.raises(SingularOverlapError):
        build_imag_state(spec, DqapParams([[0.5, 800.0]]))
    with pytest.raises(SingularOverlapError):
        state_and_derivatives(spec, DqapParams([[0.5, 800.0]]), mode="imag")


def test_real_circuit_angle_periodicity():
    # each angle is pi periodic up to a global phase
    spec = LatticeSpec.half_filling(8)
    rng = np.random.default_rng(4)
    p = random_params(rng, 2)
    shifted = p.angles.copy()
    shifted[1, 0] += np.pi
    a = build_dqap_state(spec, p)
    b = build_dqap_state(spec, DqapParams(shifted))
    assert abs(abs(overlap(a, b)) - 1.0) < 1e-12


# ---- derivative engine ----


def test_real_derivatives_match_finite_differences():
    spec = LatticeSpec.half_filling(6)
    rng = np.random.default_rng(5)
    p = random_params(rng, 2)
    spinors, tangents = state_and_derivatives(spec, p, mode="real")
    x = dimer_frame(spec)
    flat = p.flatten()
    h = 1e-6
    for k in range(flat.size):
        up, dn = flat.copy(), flat.copy()
        up[k] += h
        dn[k] -= h
        fd = (
            build_dqap_state(spec, DqapParams.from_flat(up)).orbitals
            - build_dqap_state(spec, DqapParams.from_flat(dn)).orbitals
        ) / (2 * h)
        fd = orbital_spinors(spec.L, spec.boundary, fd @ x)
        np.testing.assert_allclose(tangents[k], tangent_weights(spinors, fd), atol=1e-8)


def test_derivative_seeds_at_zero_angles():
    spec = LatticeSpec.half_filling(8)
    spinors, tangents = state_and_derivatives(spec, DqapParams(np.zeros((1, 2))))
    psi = spinor_orbitals(spec.L, spec.boundary, spinors)
    np.testing.assert_allclose(psi, initial_state(spec) @ dimer_frame(spec), atol=1e-15)
    v1, v2 = hopping_families(spec.L, spec.gamma)
    for t, v in zip(tangents, (v2, v1)):
        seed = orbital_spinors(spec.L, spec.boundary, -1j * v @ psi)
        np.testing.assert_allclose(t, tangent_weights(spinors, seed), atol=1e-14)


def test_imag_derivatives_match_fd_of_normalized_overlap():
    # raw orbital entries are gauge dependent in imaginary mode, so the
    # check runs on ln(|<ref|state>|^2 / <state|state>), where the
    # column-rescaling ambiguity cancels exactly; so does the part of
    # each derivative along the state, which the tangent weights omit
    spec = LatticeSpec.half_filling(6)
    rng = np.random.default_rng(6)
    ref = random_orthonormal(rng, 6, 3)
    p = random_params(rng, 2, scale=0.5)

    def value(flat):
        st = build_imag_state(spec, DqapParams.from_flat(flat))
        num = overlap(SlaterState(ref), st)
        den = overlap(st, st).real
        return float(np.log(abs(num) ** 2 / den))

    spinors, tangents = state_and_derivatives(spec, p, mode="imag")
    phi = spinor_orbitals(spec.L, spec.boundary, spinors)
    derivs = spinor_orbitals(spec.L, spec.boundary, tangent_derivatives(spinors, tangents))
    flat = p.flatten()
    rphi = ref.conj().T @ phi
    gram = phi.conj().T @ phi
    grad = np.empty(flat.size)
    for k in range(flat.size):
        t_ref = np.trace(np.linalg.solve(rphi, ref.conj().T @ derivs[k]))
        t_self = np.trace(np.linalg.solve(gram, phi.conj().T @ derivs[k]))
        grad[k] = 2.0 * t_ref.real - 2.0 * t_self.real
    h = 1e-6
    for k in range(flat.size):
        up, dn = flat.copy(), flat.copy()
        up[k] += h
        dn[k] -= h
        fd = (value(up) - value(dn)) / (2 * h)
        assert abs(grad[k] - fd) < 1e-7


# (L, gamma, M) of the dense-route comparisons
_DENSE_CASES = [(8, -1, 2), (10, +1, 3), (16, -1, 4), (30, +1, 3)]
# Real mode only: the unnormalized imaginary-time G of the dense route
# loses accuracy beyond L of about 30 (3e-9 at (80, 10), O(1) at (160, 20)).
_WIDE_CASES = [(40, -1, 6), (80, +1, 10), (160, -1, 20)]


@lru_cache(maxsize=None)
def dense_case(L, gamma, m, mode):
    """The random table of one dense-route case and the dense circuit's (G, dG)."""
    p = random_params(np.random.default_rng(L), m)
    return p, dense_circuit(L, gamma, p.angles, mode)


def assert_close_to_largest(got, ref):
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def assert_tangents_match_dense_route(L, gamma, m, mode):
    # the dense blocks u = G X and du = dG X are unnormalized in imaginary
    # mode; the engine's blocks are u / |u| and its tangent weights
    # u^T J du / |u|^2, the weights of du / |u| on the unit block
    spec = LatticeSpec.half_filling(L, gamma=gamma)
    p, (g, dg) = dense_case(L, gamma, m, mode)
    spinors, tangents = state_and_derivatives(spec, p, mode=mode)
    x = dimer_frame(spec)
    u = orbital_spinors(spec.L, spec.boundary, g @ x)
    du = orbital_spinors(spec.L, spec.boundary, dg @ x)
    norm = np.linalg.norm(u, axis=1)
    assert_close_to_largest(spinors, u / norm[:, None])
    assert_close_to_largest(tangents, tangent_weights(u, du) / norm**2)


@pytest.mark.parametrize("L,gamma,m", _DENSE_CASES + _WIDE_CASES)
def test_real_derivatives_match_dense_route(L, gamma, m):
    assert_tangents_match_dense_route(L, gamma, m, "real")


@pytest.mark.parametrize("L,gamma,m", _DENSE_CASES)
def test_imag_derivatives_match_dense_route(L, gamma, m):
    assert_tangents_match_dense_route(L, gamma, m, "imag")


@pytest.mark.parametrize(
    "L,gamma,m,mode",
    [(*case, mode) for case in _DENSE_CASES for mode in ("imag", "real")]
    + [(*case, "real") for case in _WIDE_CASES],
)
def test_metric_and_force_match_dense_route(L, gamma, m, mode):
    # the dense route never re-orthonormalizes, so it is compared
    # through the column-basis invariant formulas
    spec = LatticeSpec.half_filling(L, gamma=gamma)
    p, (g, dg) = dense_case(L, gamma, m, mode)
    metric, force = assemble_metric_and_force(*state_and_derivatives(spec, p, mode=mode), spec)
    ref_metric, ref_force = gauge_invariant_metric_and_force(g, dg, build_hamiltonian(spec))
    assert np.array_equal(metric, metric.T)
    assert_close_to_largest(metric, ref_metric + ref_metric.conj())
    assert_close_to_largest(force, ref_force + ref_force.conj())


@pytest.mark.parametrize("L,gamma,m", _WIDE_CASES + [(16, +1, 4)])
def test_imag_spinors_span_the_built_state(L, gamma, m):
    # where the dense imaginary route is too inaccurate, the real-space
    # builder pins the state: equal projectors, whatever the column basis
    spec = LatticeSpec.half_filling(L, gamma=gamma)
    p = random_params(np.random.default_rng(L), m)
    phi = spinor_orbitals(spec.L, spec.boundary, state_and_derivatives(spec, p, mode="imag")[0])
    ref = transition_density(build_imag_state(spec, p), range(spec.L))
    np.testing.assert_allclose(phi @ phi.conj().T, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("mode", ["real", "imag"])
def test_every_block_has_unit_norm(mode):
    # the metric and force assembly reads psi_q+ psi_q = 1 without checking it
    spec = LatticeSpec.half_filling(160, gamma=+1)
    p = DqapParams(np.full((20, 2), 3.0))  # unnormalized block norms near e^240
    spinors, _ = state_and_derivatives(spec, p, mode=mode)
    np.testing.assert_allclose(np.linalg.norm(spinors, axis=1), 1.0, rtol=0, atol=1e-13)


@pytest.mark.parametrize("mode", ["real", "imag"])
def test_derivative_engine_needs_no_real_space_kernel(monkeypatch, mode):
    # the engine and the assembly run on the Bloch blocks alone
    def unavailable(*args, **kwargs):
        raise AssertionError("real-space kernel called")

    for name, module in list(sys.modules.items()):
        if name.startswith("dqap_lab"):
            for attr in ("apply_bond_layer", "bond_pairs"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, unavailable)
    spec = LatticeSpec.half_filling(16)
    p = random_params(np.random.default_rng(0), 3)
    metric, force = assemble_metric_and_force(*state_and_derivatives(spec, p, mode=mode), spec)
    assert metric.shape == (6, 6) and np.all(np.isfinite(force))


@pytest.mark.parametrize("mode", ["real", "imag"])
@pytest.mark.parametrize("boundary", ["apbc", "pbc"])
@pytest.mark.parametrize("m", [0, 1, 2, 5])
def test_block_pass_is_bit_identical_to_the_per_component_loop(m, boundary, mode):
    # "same numbers" as an exact property: every full-layer row of the
    # pass, and the spinors, run the same IEEE operations as the
    # per-component loop on that prefix of the table; in imaginary mode
    # so are the norms every half-layer divides by
    rng = np.random.default_rng(10 * m + len(boundary))
    for L in (4, 18, 64):
        spec = LatticeSpec.half_filling(L, gamma=-1 if boundary == "apbc" else +1)
        table = rng.normal(scale=1.5, size=(m, 2))
        p = DqapParams(table)
        rows, norms = _block_pass(spec, p, mode)
        for j in range(m + 1):
            ref, ref_norms = reference_block_pass(L, boundary, table[:j], mode, 1)
            assert np.array_equal(rows[2 * j].T, ref[0])
        assert np.array_equal(state_and_derivatives(spec, p, mode)[0], ref[0])
        if mode == "imag":
            assert norms.shape == (2 * m, L // 2)
            assert np.array_equal(norms, ref_norms)
        else:
            assert norms is None and ref_norms is None


@pytest.mark.parametrize("mode", ["real", "imag"])
@pytest.mark.parametrize("boundary", ["apbc", "pbc"])
@pytest.mark.parametrize("m", [1, 2, 5])
def test_closed_form_derivatives_match_the_forward_mode_loop(m, boundary, mode):
    # the closed-form tangent weights against those of the loop's
    # forward-mode rows
    rng = np.random.default_rng(10 * m + len(boundary))
    for L in (4, 18, 64):
        spec = LatticeSpec.half_filling(L, gamma=-1 if boundary == "apbc" else +1)
        table = rng.normal(scale=1.5, size=(m, 2))
        ref = reference_block_pass(L, boundary, table, mode, 2 * m + 1)[0]
        spinors, tangents = state_and_derivatives(spec, DqapParams(table), mode)
        assert np.array_equal(spinors, ref[0])
        tol = 1e-13 * max(1.0, np.abs(ref[1:]).max())
        np.testing.assert_allclose(tangents, tangent_weights(spinors, ref[1:]), rtol=0, atol=tol)


def _assert_metric_and_force_match(spec, table, mode):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        metric, force = assemble_metric_and_force(
            *state_and_derivatives(spec, DqapParams(table), mode), spec
        )
    assert np.isfinite(metric).all() and np.isfinite(force).all()
    assert np.array_equal(metric, metric.T)
    rows = reference_block_pass(spec.L, spec.boundary, table, mode, 2 * len(table) + 1)[0]
    refs = projected_metric_and_force(spec.L, spec.boundary, rows[0], rows[1:])
    for got, ref in zip((metric, force), refs):
        # half the real system (S + S*, f + f*) against Re S and Re f, so
        # that the bound keeps the scale of S and f
        got, ref = 0.5 * got, ref.real
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * max(1.0, np.abs(ref).max()))


@pytest.mark.parametrize("mode", ["real", "imag"])
@pytest.mark.parametrize("boundary", ["apbc", "pbc"])
@pytest.mark.parametrize("m", [1, 3, 8])
def test_tangent_metric_and_force_match_the_projected_formula(m, boundary, mode):
    # the closed-form tangents and the tangent-form assembly against the
    # projected formula on the forward-mode rows of the reference loop
    rng = np.random.default_rng(100 * m + len(boundary))
    for L in (6, 18, 64):
        spec = LatticeSpec.half_filling(L, gamma=-1 if boundary == "apbc" else +1)
        _assert_metric_and_force_match(spec, rng.normal(scale=1.5, size=(m, 2)), mode)


@pytest.mark.parametrize("angle", [5.0, 15.0])
def test_deep_imag_tangents_stay_finite(angle):
    # the suffix scale prod_{j>k} n_j^-2 underflows here, and its direct
    # product overflows; the log-space sum keeps every weight finite
    spec = LatticeSpec.half_filling(16, gamma=+1)
    _assert_metric_and_force_match(spec, np.full((60, 2), angle), "imag")


# ---- block energy ----

_NORTH_STAR = [(16, 4), (40, 6), (80, 10), (160, 20)]


@pytest.mark.parametrize("mode", ["real", "imag"])
@pytest.mark.parametrize("gamma", [-1, +1], ids=["apbc", "pbc"])
@pytest.mark.parametrize("L,m", _NORTH_STAR)
def test_block_energy_matches_real_space_energy(L, m, gamma, mode):
    spec = LatticeSpec.half_filling(L, gamma=gamma)
    p = random_params(np.random.default_rng(L + m), m)
    builder = build_dqap_state if mode == "real" else build_imag_state
    ref = energy_expectation(builder(spec, p), build_hamiltonian(spec))
    assert abs(block_energy(spec, p, mode) - ref) < 1e-12 * abs(ref)


@pytest.mark.parametrize("boundary", ["apbc", "pbc"])
@pytest.mark.parametrize("L,m", _NORTH_STAR)
def test_imag_block_energy_matches_forty_digit_block_product(L, m, boundary):
    spec = LatticeSpec.half_filling(L, gamma=-1 if boundary == "apbc" else +1)
    table = np.random.default_rng(m).uniform(0.0, 1.0, (m, 2))
    ref = float(mp_imag_energy(L, boundary, table))
    assert abs(block_energy(spec, DqapParams(table), "imag") - ref) < 1e-12 * abs(ref)


def test_block_energy_of_zero_layers_is_the_dimer_energy():
    spec = LatticeSpec.half_filling(12, gamma=+1)
    for mode in ("real", "imag"):
        assert abs(block_energy(spec, DqapParams(np.zeros((0, 2))), mode) + 0.5 * spec.L) < 1e-12


def test_block_energy_overflow_raises_typed_error():
    spec = LatticeSpec.half_filling(16)
    with pytest.raises(SingularOverlapError):
        block_energy(spec, DqapParams([[0.5, 800.0]]), "imag")


def test_imag_block_whose_norm_underflows_raises_typed_error():
    # at |angle| ~ 21 cosh and sinh agree to rounding, so a half-layer can
    # cancel a block exactly; its norm is 0, and dividing by it used to
    # return NaN with only RuntimeWarnings
    spec = LatticeSpec.half_filling(8, gamma=+1)
    p = DqapParams(np.random.default_rng(0).uniform(-21.0, 21.0, (11, 2)))
    runs = [
        lambda: block_energy(spec, p, "imag"),
        lambda: state_and_derivatives(spec, p, "imag"),
        lambda: build_imag_state(spec, p),
        lambda: optimize_imaginary(spec, p.M, init=p),  # its start energy
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for run in runs:
            with pytest.raises(SingularOverlapError):
                run()


def test_phase_pairs_are_cached_and_read_only():
    pairs, seeds_conj, seeds = _phase_pairs(12, +1, "real")
    assert _phase_pairs(12, +1, "real")[0] is pairs
    assert not any(a.flags.writeable for a in (pairs, seeds_conj, seeds))
    assert np.array_equal(pairs[1], np.ones((2, 1, 6)))
    # gen times z* and times z: -i V_q in real mode, -V_q in imaginary mode
    assert np.array_equal(seeds_conj, 1j * pairs[:, 1, 0])
    assert np.array_equal(seeds, 1j * pairs[:, 0, 0])
    _, imag_conj, imag = _phase_pairs(12, +1, "imag")
    assert np.array_equal(imag_conj, pairs[:, 1, 0]) and np.array_equal(imag, pairs[:, 0, 0])


@pytest.mark.parametrize("mode", ["real", "imag"])
def test_block_energy_needs_no_real_space_kernel(monkeypatch, mode):
    def unavailable(*args, **kwargs):
        raise AssertionError("real-space kernel called")

    for name, module in list(sys.modules.items()):
        if name.startswith("dqap_lab"):
            for attr in ("apply_bond_layer", "bond_pairs", "energy_expectation"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, unavailable)
    spec = LatticeSpec.half_filling(16)
    assert np.isfinite(block_energy(spec, random_params(np.random.default_rng(0), 3), mode))


# ---- support growth ----


def test_support_of_dimer_is_two():
    spec = LatticeSpec.half_filling(10)
    assert orbital_extents(spec, DqapParams(np.zeros((0, 2)))) == [2]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_support_grows_linearly_below_saturation(m):
    spec = LatticeSpec.half_filling(16)
    rng = np.random.default_rng(7)
    assert orbital_extents(spec, random_params(rng, m)) == [4 * j + 2 for j in range(m + 1)]


def test_support_saturates_at_chain_length():
    spec = LatticeSpec.half_filling(8)
    rng = np.random.default_rng(8)
    assert orbital_extents(spec, random_params(rng, 3)) == [2, 6, 8, 8]
