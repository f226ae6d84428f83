"""Continuous-time ramps, the closed-form schedule, and overlap analysis."""

import numpy as np
import pytest

from dqap_lab import (
    DimensionMismatch,
    DqapParams,
    EvolutionPlan,
    LatticeSpec,
    NoConvergence,
    OpenShellError,
    SlaterState,
    aggregate_times,
    build_dqap_state,
    build_hamiltonian,
    energy_expectation,
    evolve_linear_schedule,
    exact_ground_state,
    find_T_epsilon,
    FockBasis,
    fock_evolve,
    initial_state,
    intermediate_states,
    magnus_step,
    many_body_matrix,
    maximize_overlap,
    overlap,
    qab_gap,
    qab_schedule,
    scheduling_overlap,
    slater_to_fock,
    state_and_derivatives,
)
from dqap_lab import adiabatic, lattice
from dqap_lab.experiments import ExperimentConfig, run_task

from .oracles import (
    bloch_frame,
    dense_ramp,
    dense_ramp_ground_state,
    dense_ramp_step,
    hopping_families,
    kspace_levels,
    mp_ramp_eps,
    random_orthonormal,
    reference_scan_blocks,
    scalar_grid_scan,
    sequential_ramp,
    spinor_orbitals,
)


# ---- stepping ----


def test_plan_validation():
    with pytest.raises(ValueError):
        EvolutionPlan(T=0.0, M=10)
    with pytest.raises(ValueError):
        EvolutionPlan(T=1.0, M=0)
    with pytest.raises(ValueError):
        EvolutionPlan(T=1.0, M=10, order=3)
    assert EvolutionPlan(T=2.0, M=8).delta_tau == 0.25


@pytest.mark.parametrize(
    "fields",
    [{"T": np.nan, "M": 10}, {"T": np.inf, "M": 10}, {"T": -1.0, "M": 10}, {"T": True, "M": 10},
     {"T": 1.0, "M": 2.5}, {"T": 1.0, "M": 10.0}, {"T": 1.0, "M": True},
     {"T": 1.0, "M": 10, "order": True}, {"T": 1.0, "M": 10, "order": 2.0},
     {"T": 1.0, "M": 10, "order": 0}],
    ids=["T-nan", "T-inf", "T-negative", "T-bool", "M-fraction", "M-float", "M-bool",
         "order-bool", "order-float", "order-0"],
)
def test_plan_rejects_malformed_fields(fields):
    # a NaN time would otherwise step a NaN ramp and report eps = nan
    with pytest.raises(ValueError):
        EvolutionPlan(**fields)


def _dimer_spinors(spec):
    return np.full((spec.L // 2, 2), np.sqrt(0.5), dtype=complex)


def _step_real_space(orbitals, spec, plan, m):
    # one slice applied to each real-space column through its Bloch coefficients
    frame = bloch_frame(spec.L, spec.boundary)
    cols = []
    for x in orbitals.T:
        coeffs = (frame.conj().T @ x).reshape(spec.L // 2, 2)
        cols.append(frame @ magnus_step(coeffs, spec, plan, m).reshape(spec.L))
    return np.stack(cols, axis=1)


def test_step_index_range_checked():
    spec = LatticeSpec.half_filling(8)
    sp = _dimer_spinors(spec)
    plan = EvolutionPlan(T=1.0, M=4)
    with pytest.raises(ValueError):
        magnus_step(sp, spec, plan, 0)
    with pytest.raises(ValueError):
        magnus_step(sp, spec, plan, 5)


def test_step_rejects_wrong_spinor_shape():
    spec = LatticeSpec.half_filling(8)
    with pytest.raises(DimensionMismatch):
        magnus_step(np.ones((8, 2)), spec, EvolutionPlan(T=1.0, M=4), 1)


def test_step_rejects_bad_slice_ranges():
    spec = LatticeSpec.half_filling(8)
    sp = _dimer_spinors(spec)
    plan = EvolutionPlan(T=1.0, M=4)
    for bad in (range(3, 3), range(4, 2), range(1, 5, 2), range(4, 1, -1),
                range(0, 3), range(3, 6)):
        with pytest.raises(ValueError):
            magnus_step(sp, spec, plan, bad)


def _random_spinors(rng, cells):
    sp = rng.normal(size=(cells, 2)) + 1j * rng.normal(size=(cells, 2))
    return sp / np.linalg.norm(sp, axis=1, keepdims=True)


@pytest.mark.parametrize("L, gamma", [(10, +1), (12, -1)])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("start, length", [(1, 1), (5, 2), (9, 3), (100, 7), (977, 1023)])
def test_slice_range_matches_sequential_slices(L, gamma, order, start, length):
    spec = LatticeSpec.half_filling(L, gamma=gamma)
    sp = _random_spinors(np.random.default_rng(length), L // 2)
    plan = EvolutionPlan(T=20.0, M=2000, order=order)
    slices = range(start, start + length)
    got = magnus_step(sp, spec, plan, slices)
    ref = sequential_ramp(sp, L, spec.boundary, plan.T, plan.M, slices, order)
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-14)
    if length == 1:
        np.testing.assert_array_equal(magnus_step(sp, spec, plan, start), got)


@pytest.mark.parametrize("L, gamma", [(62, +1), (64, -1)])
@pytest.mark.parametrize("order", [1, 2])
def test_chunked_ramp_matches_sequential_slices(L, gamma, order):
    # 5000 slices of 31 or 32 cells span three chunks
    spec = LatticeSpec.half_filling(L, gamma=gamma)
    plan = EvolutionPlan(T=250.0, M=5000, order=order)
    assert plan.M * (L // 2) > 2 * adiabatic._CHUNK_ELEMENTS
    state, _ = evolve_linear_schedule(spec, plan)
    ref = sequential_ramp(_dimer_spinors(spec), L, spec.boundary, plan.T, plan.M,
                          range(1, plan.M + 1), order)
    np.testing.assert_allclose(state.orbitals, spinor_orbitals(L, spec.boundary, ref),
                               rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("L, M", [(8, 10), (32, 3740), (64, 5000), (256, 1100)])
def test_ramp_steps_in_bounded_chunks(L, M, monkeypatch):
    # the ramp runs through magnus_step, one call per chunk of at most
    # _CHUNK_ELEMENTS slice x cell entries, slices in order
    calls = []
    step = adiabatic.magnus_step

    def counting_step(spinors, spec, plan, m):
        calls.append(m)
        return step(spinors, spec, plan, m)

    monkeypatch.setattr(adiabatic, "magnus_step", counting_step)
    evolve_linear_schedule(LatticeSpec.half_filling(L), EvolutionPlan(T=0.05 * M, M=M))
    per_call = adiabatic._CHUNK_ELEMENTS // (L // 2)
    assert len(calls) == -(-M // per_call)
    assert all(len(r) * (L // 2) <= adiabatic._CHUNK_ELEMENTS for r in calls)
    assert [m for r in calls for m in r] == list(range(1, M + 1))


def test_tiny_step_is_near_identity():
    spec = LatticeSpec.half_filling(8)
    sp = _dimer_spinors(spec)
    out = magnus_step(sp, spec, EvolutionPlan(T=1e-9, M=1), 1)
    np.testing.assert_allclose(out, sp, atol=1e-8)


@pytest.mark.parametrize("order", [1, 2])
def test_step_preserves_gram(order):
    spec = LatticeSpec.half_filling(10, gamma=+1)
    orbitals = random_orthonormal(np.random.default_rng(3), spec.L, spec.N)
    out = _step_real_space(orbitals, spec, EvolutionPlan(T=0.8, M=2, order=order), 2)
    gram = out.conj().T @ out
    np.testing.assert_allclose(gram, np.eye(5), atol=1e-12)


def test_orders_coincide_when_families_commute():
    # at L=2 both families act on the same bond, so the commutator
    # correction vanishes identically
    spec = LatticeSpec(L=2, gamma=+1)
    sp = _dimer_spinors(spec)
    a = magnus_step(sp, spec, EvolutionPlan(T=0.6, M=1, order=1), 1)
    b = magnus_step(sp, spec, EvolutionPlan(T=0.6, M=1, order=2), 1)
    np.testing.assert_allclose(a, b, atol=1e-14)


def test_single_step_against_fine_grained_reference():
    # one slice vs the same interval resolved by 400 sub-slices of the
    # exact instantaneous evolution in the occupation basis
    spec = LatticeSpec.half_filling(6, gamma=+1)
    dt = 0.02
    out = magnus_step(_dimer_spinors(spec), spec, EvolutionPlan(T=dt, M=1, order=1), 1)
    vec = slater_to_fock(SlaterState(initial_state(spec).astype(complex)))
    v1, v2 = hopping_families(spec.L, spec.gamma)
    n_sub = 400
    for j in range(n_sub):
        s_mid = (j + 0.5) / n_sub
        vec = fock_evolve(vec, v1 + s_mid * v2, 1j * dt / n_sub)
    state = SlaterState(spinor_orbitals(spec.L, spec.boundary, out))
    ov = np.vdot(vec.amplitudes, slater_to_fock(state).amplitudes)
    assert abs(ov) > 1.0 - 1e-8


@pytest.mark.parametrize("L, gamma", [(2, +1), (8, -1), (10, +1), (30, +1), (32, -1)])
@pytest.mark.parametrize("order", [1, 2])
def test_step_matches_dense_real_space_slice(L, gamma, order):
    spec = LatticeSpec.half_filling(L, gamma=gamma)
    orbitals = random_orthonormal(np.random.default_rng(L), L, spec.N)
    plan = EvolutionPlan(T=3.0, M=7, order=order)
    v1, v2 = hopping_families(L, gamma)
    for m in (1, 4, 7):
        got = _step_real_space(orbitals, spec, plan, m)
        ref = dense_ramp_step(orbitals, v1, v2, plan.T, plan.M, m, order)
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("L, gamma", [(8, -1), (10, +1), (30, +1), (32, -1)])
@pytest.mark.parametrize("order", [1, 2])
def test_full_ramp_matches_dense_real_space_route(L, gamma, order):
    # T = 10 keeps eps near 0.1 or above: the rounding of |overlap| enters
    # eps divided by eps^2, and the dense route's rounding dominates there
    spec = LatticeSpec.half_filling(L, gamma=gamma)
    state, eps = evolve_linear_schedule(spec, EvolutionPlan(T=10.0, M=1000, order=order))
    eps_ref, energy_ref = dense_ramp(L, gamma, 10.0, 1000, order)
    assert abs(eps - eps_ref) < 1e-10 * eps_ref
    assert abs(energy_expectation(state, build_hamiltonian(spec)) - energy_ref) < 1e-10


def test_ramp_matches_forty_digit_block_product():
    pytest.importorskip("mpmath")
    spec = LatticeSpec.half_filling(32)
    _, eps = evolve_linear_schedule(spec, EvolutionPlan(T=50.0, M=1000))
    ref = float(mp_ramp_eps(32, "apbc", 50.0, 1000))
    assert abs(eps - ref) < 1e-12 * ref


def test_ramp_at_benchmark_crossing_matches_forty_digit_block_product():
    # the ramp the continuous-time search returns at L=32, dtau 0.05:
    # one chunk of 3740 slices composed by pairwise levels
    pytest.importorskip("mpmath")
    spec = LatticeSpec.half_filling(32)
    _, eps = evolve_linear_schedule(spec, EvolutionPlan(T=187.0, M=3740))
    ref = float(mp_ramp_eps(32, "apbc", 187.0, 3740))
    assert abs(eps - ref) < 1e-12 * ref


@pytest.mark.parametrize("T", [20.0, 50.0])
def test_small_ramp_distance_keeps_its_relative_precision(T):
    # eps ~ 0.018: from 2 - 2|det| the rounding of |det| would be divided
    # by eps^2, giving errors of 3e-11 and 5e-11 relative here
    pytest.importorskip("mpmath")
    spec = LatticeSpec.half_filling(8)
    M = round(T / 0.01)
    _, eps = evolve_linear_schedule(spec, EvolutionPlan(T=T, M=M))
    ref = float(mp_ramp_eps(8, "apbc", T, M))
    assert abs(eps - ref) < 2e-13 * ref


@pytest.mark.parametrize(
    "spec, error", [(LatticeSpec.half_filling(8, gamma=+1), OpenShellError)], ids=["open-shell"]
)
def test_ramp_rejects_spec_before_stepping(spec, error, monkeypatch):
    calls = []
    step = adiabatic.magnus_step

    def counting_step(*args):
        calls.append(args[-1])
        return step(*args)

    monkeypatch.setattr(adiabatic, "magnus_step", counting_step)
    with pytest.raises(error):
        evolve_linear_schedule(spec, EvolutionPlan(T=1.0, M=10))
    assert calls == []


def test_full_ramp_returns_distance_to_ground_state():
    spec = LatticeSpec.half_filling(8)
    _, eps = evolve_linear_schedule(spec, EvolutionPlan(T=1e-4, M=1))
    exact, _ = exact_ground_state(spec)
    ov0 = abs(overlap(SlaterState(exact), SlaterState(initial_state(spec))))
    assert abs(eps - np.sqrt(2.0 - 2.0 * ov0)) < 1e-3


def test_orders_agree_on_slow_ramp():
    # with delta_tau = 0.01 the commutator correction is negligible
    spec = LatticeSpec.half_filling(10, gamma=+1)
    eps1 = evolve_linear_schedule(spec, EvolutionPlan(T=50.0, M=5000, order=1))[1]
    eps2 = evolve_linear_schedule(spec, EvolutionPlan(T=50.0, M=5000, order=2))[1]
    assert abs(eps1 - eps2) / eps1 < 1e-4


def test_terminal_error_scales_inversely_with_ramp_time():
    spec = LatticeSpec.half_filling(10, gamma=+1)
    ts = [50.0, 100.0, 200.0]
    eps = [
        evolve_linear_schedule(spec, EvolutionPlan(T=t, M=round(t / 0.01)))[1]
        for t in ts
    ]
    slope = np.polyfit(np.log(ts), np.log(eps), 1)[0]
    assert abs(slope + 1.0) < 0.15


# ---- ramp-time search ----


def test_find_T_epsilon_reaches_target():
    spec = LatticeSpec.half_filling(8)
    t_star = find_T_epsilon(spec, 0.05, dtau=0.01)
    plan = EvolutionPlan(T=t_star, M=max(1, round(t_star / 0.01)))
    assert evolve_linear_schedule(spec, plan)[1] <= 0.05


def test_find_T_epsilon_returns_a_crossing_not_the_smallest_time():
    # eps(T) oscillates: a shorter ramp than the returned one already
    # meets the target, with a miss in between
    spec = LatticeSpec.half_filling(8)

    def eps_at(t):
        return evolve_linear_schedule(spec, EvolutionPlan(T=t, M=round(t / 0.01)))[1]

    assert find_T_epsilon(spec, 0.05, dtau=0.01) == 11.3125
    assert eps_at(8.25) <= 0.05 < eps_at(10.0)


def test_find_T_epsilon_searches_below_the_start_when_it_meets_the_target():
    # eps(1) = 0.7395 already meets 0.8, so the lower end is halved
    # before the bisection (it returns T = 0.4755859375, eps = 0.79991)
    spec = LatticeSpec.half_filling(8)
    t_star = find_T_epsilon(spec, 0.8, dtau=0.01)
    plan = EvolutionPlan(T=t_star, M=max(1, round(t_star / 0.01)))
    assert t_star == 0.4755859375 < adiabatic._T_START
    assert evolve_linear_schedule(spec, plan)[1] <= 0.8


def test_find_T_epsilon_monotone_in_target():
    spec = LatticeSpec.half_filling(8)
    loose = find_T_epsilon(spec, 0.1, dtau=0.01)
    tight = find_T_epsilon(spec, 0.02, dtau=0.01)
    assert tight > loose


@pytest.mark.parametrize(
    "kwargs",
    [{"target_eps": np.nan}, {"target_eps": 0.0}, {"target_eps": -0.1}, {"dtau": np.nan},
     {"dtau": 0.0}, {"order": True}],
    ids=["target-nan", "target-0", "target-negative", "dtau-nan", "dtau-0", "order-bool"],
)
def test_find_T_epsilon_rejects_malformed_inputs_before_any_ramp(kwargs, monkeypatch):
    calls = []
    step = adiabatic.magnus_step

    def counting_step(*args):
        calls.append(args[-1])
        return step(*args)

    monkeypatch.setattr(adiabatic, "magnus_step", counting_step)
    with pytest.raises(ValueError):
        find_T_epsilon(LatticeSpec.half_filling(8), **{"target_eps": 0.05, **kwargs})
    assert calls == []


def test_find_T_epsilon_cap_raises(monkeypatch):
    monkeypatch.setattr(adiabatic, "_T_CAP", 2.0)
    spec = LatticeSpec.half_filling(8)
    with pytest.raises(NoConvergence):
        find_T_epsilon(spec, 1e-5, dtau=0.01)


# ---- ramp ground states ----


def _projector(orbitals):
    return orbitals @ orbitals.conj().T


def test_grid_ground_states_match_dense_diagonalization():
    # the grid's phases, row by row, are the scalar phases the refinement
    # reads, and each grid point's ground state matches eigh
    spec = LatticeSpec.half_filling(16)
    phases = lattice._ground_phase(spec, adiabatic._GRID_CHIS)
    assert phases.shape == (151, 8)
    for chi, row in zip(adiabatic._GRID_CHIS, phases):
        np.testing.assert_array_equal(row, lattice._ground_phase(spec, float(chi)))
        ref, _ = dense_ramp_ground_state(16, -1, chi)
        orbitals = lattice._ground_orbitals(spec, float(chi))
        np.testing.assert_allclose(_projector(orbitals), _projector(ref), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("L, gamma", [(8, -1), (12, -1), (10, +1), (30, +1)])
@pytest.mark.parametrize("chi", [0.0, 0.37, 1.0, 1.5])
def test_ramp_ground_state_matches_dense_diagonalization(L, gamma, chi):
    orbitals = lattice._ground_orbitals(LatticeSpec.half_filling(L, gamma=gamma), chi)
    np.testing.assert_allclose(orbitals.conj().T @ orbitals, np.eye(L // 2), rtol=0.0, atol=1e-14)
    ref, _ = dense_ramp_ground_state(L, gamma, chi)
    np.testing.assert_allclose(_projector(orbitals), _projector(ref), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("L, gamma", [(8, +1), (10, -1), (8, -1), (12, -1), (10, +1), (30, +1)])
@pytest.mark.parametrize("chi", [0.0, 0.37, 1.0, 1.5])
def test_open_shell_raised_exactly_where_dense_gap_closes(L, gamma, chi):
    spec = LatticeSpec.half_filling(L, gamma=gamma)
    _, gap = dense_ramp_ground_state(L, gamma, chi)
    assert (gap < 1e-10) == ((L, gamma, chi) in {(8, +1, 1.0), (10, -1, 1.0)})
    if gap < 1e-10:
        with pytest.raises(OpenShellError):
            lattice._ground_orbitals(spec, chi)
        with pytest.raises(OpenShellError):
            lattice._ground_phase(spec, adiabatic._GRID_CHIS)
    else:
        lattice._ground_orbitals(spec, chi)


def test_ramp_and_overlap_scans_need_no_dense_diagonalization(monkeypatch):
    def no_eigh(*args, **kwargs):
        raise AssertionError("dense diagonalization on a ramp path")

    spec = LatticeSpec.half_filling(12)
    params = DqapParams(np.random.default_rng(12).uniform(0.0, 0.3, (3, 2)))
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigh)
    _, eps = evolve_linear_schedule(spec, EvolutionPlan(T=5.0, M=500))
    assert 0.0 < eps < 2.0
    for m in (0, 2):
        assert maximize_overlap(spec, params, m)[2] > 0.5
        assert maximize_overlap(spec, params, m, alpha=1.0)[2] > 0.5
    assert 0.0 < scheduling_overlap(spec, params, 2, 0.5, 0.5) <= 1.0


# ---- closed-form schedule ----


def test_schedule_rejects_short_chains():
    with pytest.raises(ValueError):
        qab_schedule(2, 0.5)


@pytest.mark.parametrize("L", [8, 16, 32, 64, 128, 256])
def test_schedule_endpoints(L):
    assert abs(qab_schedule(L, 0.0)) < 1e-12
    assert abs(qab_schedule(L, 1.0) - 1.0) < 1e-12


@pytest.mark.parametrize("L", [8, 64, 256])
def test_schedule_matches_endpoint_constrained_closed_form(L):
    # reconstruct the tangent-form ramp from its endpoint conditions
    # alone and compare pointwise
    g = 2.0 * np.pi / L
    b = np.arctan(np.cos(g) / np.sin(g))
    a = np.arctan((np.cos(g) - 1.0) / np.sin(g)) - b
    s = np.linspace(0.0, 1.0, 501)
    ref = np.cos(g) - np.sin(g) * np.tan(a * s + b)
    np.testing.assert_allclose(qab_schedule(L, s), ref, atol=1e-12)


def test_schedule_strictly_increasing():
    s = np.linspace(0.0, 1.0, 2001)
    for L in (8, 40, 256):
        chi = qab_schedule(L, s)
        assert np.all(np.diff(chi) > 0.0)


@pytest.mark.parametrize("L", [8, 12])
def test_schedule_satisfies_rate_equation_by_finite_differences(L):
    # second differences on an h = 1e-4 grid; truncation error grows
    # steeply with L (the ramp start sharpens), so the discrete check
    # runs at small L and the closed-form comparison covers the rest
    h = 1e-4
    s = np.arange(h, 1.0, h)
    chi = qab_schedule(L, s)
    g = 2.0 * np.pi / L
    chid = (chi[2:] - chi[:-2]) / (2 * h)
    chidd = (chi[2:] - 2 * chi[1:-1] + chi[:-2]) / h**2
    mid = chi[1:-1]
    resid = chidd - 2.0 * (mid - np.cos(g)) * chid**2 / (
        (mid - np.cos(g)) ** 2 + np.sin(g) ** 2
    )
    assert np.max(np.abs(resid)) < 1e-6


def test_schedule_flattens_near_the_endpoint():
    # uniform adiabaticity slows traversal where the gap is small: the
    # curvature magnitude decays toward s = 1
    h = 1e-4
    s = np.arange(h, 1.0, h)
    for L in (8, 64):
        chi = qab_schedule(L, s)
        chidd = np.abs(chi[2:] - 2 * chi[1:-1] + chi[:-2]) / h**2
        head = chidd[: len(chidd) // 10].mean()
        tail = chidd[-len(chidd) // 10 :].mean()
        assert tail < head


def test_gap_at_endpoint_matches_spectrum():
    for L in (8, 16, 40):
        spec = LatticeSpec.half_filling(L)
        levels = kspace_levels(L, "apbc")
        spectral_gap = levels[L // 2] - levels[L // 2 - 1]
        assert abs(qab_gap(L, 1.0) - spectral_gap) < 1e-10
        assert abs(qab_gap(L, 1.0) - 4.0 * np.sin(np.pi / L)) < 1e-12


def test_samples_cover_unit_interval():
    # the rows of the qab kind: (L, N, gamma, M, s, chi, gap)
    config = ExperimentConfig("qab", sizes=[12], options={"samples": 101})
    samples = [row[4:] for row in run_task(config, config.specs[0], {})["qab"]]
    assert len(samples) == 101
    assert samples[0][0] == 0.0 and samples[-1][0] == 1.0
    assert abs(samples[0][1]) < 1e-12
    assert abs(samples[-1][1] - 1.0) < 1e-12
    for _, chi, gap in samples[:: 20]:
        assert abs(gap - float(qab_gap(12, chi))) < 1e-12


# ---- scheduling overlap ----


def test_overlap_depth_range_checked(ladder16):
    spec = LatticeSpec.half_filling(16)
    params = ladder16[2].params
    with pytest.raises(ValueError):
        scheduling_overlap(spec, params, 3, 0.5)
    with pytest.raises(ValueError):
        maximize_overlap(spec, params, -1)


def test_zero_prefix_matches_initial_ramp_point(ladder16):
    # before any layer the circuit is the dimer state, which is the
    # ramp ground state at ramp value zero
    spec = LatticeSpec.half_filling(16)
    f = scheduling_overlap(spec, ladder16[2].params, 0, 0.0)
    assert abs(f - 1.0) < 1e-12


def test_full_prefix_matches_final_ramp_point(ladder16):
    # the converged quarter-depth circuit is the ground state at ramp
    # value one
    spec = LatticeSpec.half_filling(16)
    f = scheduling_overlap(spec, ladder16[4].params, 4, 1.0)
    assert f > 1.0 - 1e-9


def test_zero_prefix_optimum_is_the_dimer_point():
    # the dimer prefix does not depend on alpha, and the best ramp point
    # sits on the lower chi bound, which the refinement must not leave
    spec = LatticeSpec.half_filling(16)
    params = DqapParams(np.full((2, 2), 0.2))
    chi, alpha, f = maximize_overlap(spec, params, 0)
    assert chi == 0.0
    assert alpha == 1.0
    assert abs(f - 1.0) < 1e-12


def test_partial_prefix_matches_fock_route():
    spec = LatticeSpec.half_filling(8)
    params = DqapParams(np.random.default_rng(5).uniform(0.1, 1.0, (3, 2)))
    v1, v2 = hopping_families(spec.L, spec.gamma)
    basis = FockBasis.build(spec.L, spec.N)
    dimer = slater_to_fock(SlaterState(initial_state(spec)), basis)
    layer1 = fock_evolve(fock_evolve(dimer, v2, 1j * params.angles[0, 1]),
                         v1, 1j * params.angles[0, 0])
    np.testing.assert_allclose(
        slater_to_fock(intermediate_states(spec, params)[1], basis).amplitudes,
        layer1.amplitudes, rtol=0.0, atol=1e-10,
    )
    alpha = 0.4
    for chi in (0.3, 0.8):
        ground = np.linalg.eigh(many_body_matrix(basis, v1 + chi * v2))[1][:, 0]
        for m in (1, 2):
            vec = dimer
            for k in range(m):
                scale = alpha if k == m - 1 else 1.0
                vec = fock_evolve(vec, v2, 1j * params.angles[k, 1])
                vec = fock_evolve(vec, v1, 1j * scale * params.angles[k, 0])
            expected = abs(np.vdot(ground, vec.amplitudes)) ** 2
            got = scheduling_overlap(spec, params, m, chi, alpha)
            assert abs(got - expected) < 1e-10


def _prefix_state(spec, params, m, alpha):
    table, theta = adiabatic._prefix(spec, params, m)
    if m:
        table[m - 1, 0] = alpha * theta
    return build_dqap_state(spec, DqapParams(table))


@pytest.mark.parametrize("L, gamma", [(12, -1), (16, -1), (10, +1), (30, +1)])
def test_block_overlap_equals_scheduling_overlap(L, gamma):
    spec = LatticeSpec.half_filling(L, gamma=gamma)
    params = DqapParams(np.random.default_rng(L).uniform(0.0, 0.6, (3, 2)))
    phases = lattice._ground_phase(spec, adiabatic._GRID_CHIS)
    for m in range(params.M + 1):
        table, theta = adiabatic._prefix(spec, params, m)
        psi = state_and_derivatives(spec, DqapParams(table))[0]
        for alpha in (0.0, 0.5, 1.0):
            got = adiabatic._block_overlap(psi, phases, alpha * theta)
            ref = [scheduling_overlap(spec, params, m, float(chi), alpha)
                   for chi in adiabatic._GRID_CHIS]
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("L, gamma, M", [(12, -1, 3), (10, +1, 2)])
def test_block_grid_matches_scalar_scan(L, gamma, M):
    # the block grid picks the cell a determinant per grid point picks
    spec = LatticeSpec.half_filling(L, gamma=gamma)
    params = DqapParams(np.random.default_rng(L).uniform(0.0, 0.3, (M, 2)))
    chis = adiabatic._GRID_CHIS
    adjoints = np.array([lattice._ground_orbitals(spec, float(chi)).conj().T for chi in chis])
    for m in range(M + 1):
        table, theta = adiabatic._prefix(spec, params, m)
        psi = state_and_derivatives(spec, DqapParams(table))[0]
        for alphas in (chis, np.array([1.0])):
            f, chi, alpha = adiabatic._scan_blocks(spec, psi, theta, chis, alphas)
            f_ref, chi_ref, alpha_ref = scalar_grid_scan(
                adjoints, chis, alphas, lambda al: _prefix_state(spec, params, m, al)
            )
            assert (chi, alpha) == (chi_ref, alpha_ref)
            assert abs(f - f_ref) < 1e-12


def _random_scan_cases(seed, count):
    """(spec, params, m, alpha): closed shells of L in 8..128, m = 0..M, free and fixed alpha."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        gamma = int(rng.choice([-1, 1]))
        cells = 2 * int(rng.integers(2, 33)) - (gamma == 1)  # odd for pbc, even for apbc
        spec = LatticeSpec.half_filling(2 * cells, gamma=gamma)
        M = int(rng.integers(1, 5))
        params = DqapParams(rng.uniform(-1.0, 1.0, (M, 2)) * rng.choice([0.3, 1.0, 3.0]))
        for m in range(M + 1):
            yield spec, params, m, rng.choice([None, 1.0, rng.uniform(0.0, 1.5)])


def _scan_input(spec, params, m):
    table, theta = adiabatic._prefix(spec, params, m)
    return state_and_derivatives(spec, DqapParams(table))[0], theta


def test_scan_blocks_is_bit_identical_to_the_per_alpha_loop():
    chis = adiabatic._GRID_CHIS
    for spec, params, m, alpha in _random_scan_cases(7, 12):
        psi, theta = _scan_input(spec, params, m)
        centre = np.random.default_rng(m).uniform(0.0, 1.5)
        window = adiabatic._window(centre, 1e-3)
        for c, a in ((chis[1:], chis), (chis, np.array([1.0])), (window, window)):
            ref = reference_scan_blocks(spec.L, spec.boundary, psi, theta, c, a)
            assert adiabatic._scan_blocks(spec, psi, theta, c, a) == ref


def test_maximize_overlap_is_bit_identical_with_the_per_alpha_loop(monkeypatch):
    cases = list(_random_scan_cases(11, 10))
    got = [maximize_overlap(spec, params, m, alpha) for spec, params, m, alpha in cases]

    def per_alpha_loop(spec, psi, theta, chis, alphas):
        return reference_scan_blocks(spec.L, spec.boundary, psi, theta, chis, alphas)

    monkeypatch.setattr(adiabatic, "_scan_blocks", per_alpha_loop)
    for (spec, params, m, alpha), res in zip(cases, got):
        assert maximize_overlap(spec, params, m, alpha) == res


@pytest.mark.parametrize("chunk", [1000, 4096, adiabatic._CHUNK_ELEMENTS])
@pytest.mark.parametrize("L", [8, 16, 128])
def test_scan_grid_spans_chunks_within_the_bound(L, chunk, monkeypatch):
    # every (alpha, chi, q) temporary of a scan holds at most _CHUNK_ELEMENTS
    # entries, or one alpha row where a row holds more; the coarse
    # free-alpha grid spans several blocks and picks the per-row loop's point
    sizes = []
    prod = np.prod

    def spy(arr, *args, **kwargs):
        sizes.append(arr.size)
        return prod(arr, *args, **kwargs)

    spec = LatticeSpec.half_filling(L)
    params = DqapParams(np.random.default_rng(L).uniform(0.0, 0.6, (3, 2)))
    psi, theta = _scan_input(spec, params, 2)
    chis, alphas = adiabatic._GRID_CHIS[1:], adiabatic._GRID_CHIS
    ref = reference_scan_blocks(L, spec.boundary, psi, theta, chis, alphas)
    monkeypatch.setattr(adiabatic, "_CHUNK_ELEMENTS", chunk)
    monkeypatch.setattr(np, "prod", spy)
    got = adiabatic._scan_blocks(spec, psi, theta, chis, alphas)
    monkeypatch.undo()
    row = len(chis) * (L // 2)
    per_block = max(1, chunk // row)
    assert got == ref
    assert len(sizes) == -(-len(alphas) // per_block) > 1
    assert max(sizes) <= max(chunk, row)
    assert sum(sizes) == len(alphas) * row


def test_block_grid_keeps_the_first_alpha():
    # a zero last odd angle makes every alpha row equal: the first wins
    spec = LatticeSpec.half_filling(12)
    table = np.random.default_rng(3).uniform(0.1, 0.3, (2, 2))
    table[1, 0] = 0.0
    _, alpha, f = maximize_overlap(spec, DqapParams(table), 2)
    assert alpha == 0.0
    assert 0.0 < f <= 1.0


def test_maximize_overlap_takes_one_determinant(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append(1)
        return overlap(a, b)

    monkeypatch.setattr(adiabatic, "overlap", counted)
    spec = LatticeSpec.half_filling(16)
    params = DqapParams(np.random.default_rng(16).uniform(0.0, 0.3, (3, 2)))
    for alpha in (None, 1.0):
        calls.clear()
        chi, al, f = maximize_overlap(spec, params, 2, alpha)
        assert len(calls) == 1
        assert f == scheduling_overlap(spec, params, 2, chi, al)


def test_free_alpha_never_loses_to_fixed(ladder16):
    spec = LatticeSpec.half_filling(16)
    params = ladder16[4].params
    for m in (1, 2, 3):
        _, _, f_free = maximize_overlap(spec, params, m)
        _, _, f_one = maximize_overlap(spec, params, m, alpha=1.0)
        assert f_free >= f_one - 1e-12


def test_optimized_circuit_walks_monotonically_along_ramp(ladder16):
    spec = LatticeSpec.half_filling(16)
    params = ladder16[4].params
    chis = []
    fs = []
    for m in range(0, 5):
        # with its last odd half-layer whole a prefix lies off the ramp's
        # ground-state path, so read each prefix at its best partial layer
        chi, _, f = maximize_overlap(spec, params, m)
        chis.append(chi)
        fs.append(f)
    assert all(b > a for a, b in zip(chis, chis[1:]))
    assert chis[0] < 0.05 and chis[-1] > 0.9
    assert min(fs) > 0.5


def test_partial_layer_refinement_lands_inside(ladder16):
    spec = LatticeSpec.half_filling(16)
    params = ladder16[4].params
    _, alpha, f = maximize_overlap(spec, params, 2)
    assert 0.0 < alpha < 1.0
    assert f > 0.5


def test_partial_layer_ignores_pi_shift_of_odd_angles(ladder16):
    # shifting an odd-family angle by pi multiplies the state by a global
    # phase, so the partial-layer readout must not see the shift
    spec = LatticeSpec.half_filling(16)
    h = build_hamiltonian(spec)
    params = ladder16[4].params
    e = energy_expectation(build_dqap_state(spec, params), h)
    reference = [maximize_overlap(spec, params, m) for m in (1, 2, 3)]
    for shift in (-np.pi, np.pi):
        table = params.angles.copy()
        table[:, 0] += shift
        shifted = DqapParams(table)
        e_shifted = energy_expectation(build_dqap_state(spec, shifted), h)
        assert abs(e - e_shifted) < 1e-12
        for m, ref in zip((1, 2, 3), reference):
            np.testing.assert_allclose(
                maximize_overlap(spec, shifted, m), ref, rtol=0.0, atol=1e-9
            )



def test_free_alpha_is_not_pinned_by_the_chi_zero_tie():
    # every alpha ties at chi = 0; the best point lies inside the first
    # coarse chi step, at the upper alpha bound
    spec = LatticeSpec.half_filling(64)
    params = DqapParams(np.random.default_rng(643).uniform(0.0, 0.6, (3, 2)))
    chi, alpha, f = maximize_overlap(spec, params, 1)
    assert f >= 0.967508
    assert 0.0 < chi < 0.01 and alpha == 1.5


@pytest.mark.parametrize("L, gamma", [(10, +1), (12, -1), (16, -1)])
@pytest.mark.parametrize("fixed", [None, 1.0])
def test_refined_point_is_a_local_optimum_of_the_determinant_route(L, gamma, fixed):
    spec = LatticeSpec.half_filling(L, gamma=gamma)
    params = DqapParams(np.random.default_rng(L).uniform(0.0, 0.6, (3, 2)))
    chi, alpha, f = maximize_overlap(spec, params, 2, fixed)
    offsets = 2e-5 * np.arange(-10, 11)
    alphas = [alpha] if fixed is not None else np.clip(alpha + offsets, 0.0, 1.5)
    best = max(scheduling_overlap(spec, params, 2, float(c), float(a))
               for a in alphas for c in np.clip(chi + offsets, 0.0, 1.5))
    assert best <= f + 1e-10


# ---- aggregate schedule weight ----


def test_aggregate_times_real_vs_imaginary():
    table = [[1.0, 2.0], [3.0, 4.0]]
    assert aggregate_times(DqapParams(table)) == 10.0
    assert aggregate_times(DqapParams(table), mode="imag") == 5.0
    with pytest.raises(ValueError):
        aggregate_times(DqapParams(table), mode="imaginary")
