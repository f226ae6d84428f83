"""Natural-gradient machinery: metric, force, update, and full runs."""

import dataclasses
import re

import numpy as np
import pytest

from dqap_lab import (
    DqapParams,
    LatticeSpec,
    LinearSolveError,
    OptimizerConfig,
    SingularOverlapError,
    ansatz,
    assemble_metric_and_force,
    block_energy,
    build_dqap_state,
    build_hamiltonian,
    build_imag_state,
    energy_expectation,
    exact_ground_state,
    ladder,
    linear_schedule_params,
    optimize,
    optimize_imaginary,
    optimizer,
    state_and_derivatives,
    warm_start,
)

from .oracles import cell_momenta, central_difference, mp_imag_energy, reference_run


def metric_and_force(spec, params, mode="real"):
    return assemble_metric_and_force(*state_and_derivatives(spec, params, mode=mode), spec)


def random_point(rng, m):
    return DqapParams(rng.uniform(0.1, 1.0, size=(m, 2)))


def natural_gradient_step(metric, force, params, config, ridge=optimizer._RIDGE):
    """One unscaled update at the configured step: solve and shift the angles."""
    dtheta = optimizer._solve_step(metric, force, config.delta_beta, ridge)
    return DqapParams.from_flat(params.flatten() + dtheta)


# ---- metric and force ----


@pytest.mark.parametrize("mode", ["real", "imag"])
def test_metric_hermitian_and_psd(mode):
    # the assembly returns the real system S + S*, exactly symmetric
    spec = LatticeSpec.half_filling(8)
    rng = np.random.default_rng(0)
    for _ in range(25):
        s, _ = metric_and_force(spec, random_point(rng, 2), mode)
        assert s.dtype == float and np.array_equal(s, s.T)
        assert np.linalg.eigvalsh(s).min() > -1e-10


def test_metric_diagonal_is_fidelity_curvature():
    # second derivative of the squared fidelity distance along one
    # parameter equals the corresponding metric diagonal entry, half the
    # diagonal of the real system
    spec = LatticeSpec.half_filling(8)
    rng = np.random.default_rng(1)
    params = random_point(rng, 1)
    metric, _ = metric_and_force(spec, params)
    base = build_dqap_state(spec, params)
    flat = params.flatten()

    from dqap_lab import overlap

    def gap(delta, k):
        up = flat.copy()
        dn = flat.copy()
        up[k] += delta
        dn[k] -= delta
        o_up = abs(overlap(base, build_dqap_state(spec, DqapParams.from_flat(up))))
        o_dn = abs(overlap(base, build_dqap_state(spec, DqapParams.from_flat(dn))))
        return ((2 - 2 * o_up) + (2 - 2 * o_dn)) / (2 * delta**2)

    for k in range(flat.size):
        d = 1e-3
        richardson = (4.0 * gap(d / 2, k) - gap(d, k)) / 3.0
        assert abs(0.5 * metric[k, k] - richardson) < 1e-6


def test_force_vanishes_at_exact_ground_state():
    # N = 5 is odd, so only periodic closure gives a closed shell; every
    # block sits in its lower-band spinor (1, z/|z|)/sqrt 2, z = 1 + e^{iq}
    spec = LatticeSpec.half_filling(10, gamma=+1)
    z = 1.0 + np.exp(1j * cell_momenta(10, "pbc"))
    spinors = np.stack([np.ones(5), z / np.abs(z)], axis=1) / np.sqrt(2.0)
    rng = np.random.default_rng(2)
    tangents = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
    _, force = assemble_metric_and_force(spinors, tangents, spec)
    assert np.max(np.abs(force)) < 1e-8


@pytest.mark.parametrize("mode", ["real", "imag"])
def test_zero_layer_assembly_is_empty(mode):
    metric, force = metric_and_force(LatticeSpec.half_filling(8), DqapParams(np.zeros((0, 2))),
                                     mode)
    assert metric.shape == (0, 0) and force.shape == (0,)


@pytest.mark.parametrize("mode,builder", [
    ("real", build_dqap_state),
    ("imag", build_imag_state),
])
def test_energy_gradient_matches_finite_differences(mode, builder):
    spec = LatticeSpec.half_filling(8)
    h = build_hamiltonian(spec)
    rng = np.random.default_rng(3)
    params = random_point(rng, 2)
    _, grad = metric_and_force(spec, params, mode)  # f + f* is the energy gradient

    def energy(flat):
        return energy_expectation(builder(spec, DqapParams.from_flat(flat)), h)

    fd = central_difference(energy, params.flatten(), h=1e-6)
    np.testing.assert_allclose(grad, fd, atol=1e-7)


# ---- single update ----


def test_zero_force_gives_zero_step():
    spec = LatticeSpec.half_filling(8)
    rng = np.random.default_rng(5)
    params = random_point(rng, 2)
    metric, force = metric_and_force(spec, params)
    out = natural_gradient_step(metric, np.zeros_like(force), params, OptimizerConfig())
    np.testing.assert_allclose(out.flatten(), params.flatten(), atol=1e-15)


def test_one_step_lowers_energy_from_random_point():
    spec = LatticeSpec.half_filling(8)
    h = build_hamiltonian(spec)
    rng = np.random.default_rng(6)
    params = random_point(rng, 2)
    metric, force = metric_and_force(spec, params)
    stepped = natural_gradient_step(metric, force, params, OptimizerConfig())
    start = energy_expectation(build_dqap_state(spec, params), h)
    assert energy_expectation(build_dqap_state(spec, stepped), h) < start


def test_step_insensitive_to_ridge_at_generic_points():
    spec = LatticeSpec.half_filling(8)
    rng = np.random.default_rng(7)
    params = random_point(rng, 2)
    metric, force = metric_and_force(spec, params)
    a = natural_gradient_step(metric, force, params, OptimizerConfig(), ridge=0.0).flatten()
    b = natural_gradient_step(metric, force, params, OptimizerConfig()).flatten()
    assert np.linalg.norm(a - b) < 1e-6


def test_step_is_real():
    spec = LatticeSpec.half_filling(8)
    rng = np.random.default_rng(8)
    params = random_point(rng, 3)
    out = natural_gradient_step(*metric_and_force(spec, params), params, OptimizerConfig())
    assert out.angles.dtype == np.float64


# ---- full runs ----


def test_default_run_monotone_and_converged():
    spec = LatticeSpec.half_filling(8)
    res = optimize(spec, 2)
    assert res.converged
    assert len(res.trace) == res.iterations + 1
    assert np.all(np.diff(res.trace) <= 1e-12)
    assert res.trace[-1] == block_energy(spec, res.params, "real")
    assert res.energy == res.trace[-1]
    e_real = energy_expectation(build_dqap_state(spec, res.params), build_hamiltonian(spec))
    assert abs(e_real - res.energy) <= 1e-12 * abs(e_real)


def test_exact_recovery_at_quarter_depth():
    spec = LatticeSpec.half_filling(16)
    _, e_exact = exact_ground_state(spec)
    res = optimize(spec, 4, OptimizerConfig(energy_tol=1e-15, max_iters=60000))
    assert res.energy - e_exact < 1e-10


def test_energy_density_size_independent_below_quarter_depth():
    cfg = OptimizerConfig(energy_tol=1e-15, max_iters=60000)
    e16 = optimize(LatticeSpec.half_filling(16), 2, cfg).energy / 16
    e24 = optimize(LatticeSpec.half_filling(24), 2, cfg).energy / 24
    assert abs(e16 - e24) < 1e-10


def test_fifty_random_seeds_all_converge():
    # robustness of the landscape at quarter depth: every small random
    # start reaches the exact energy with a monotone trace
    spec = LatticeSpec.half_filling(16)
    _, e_exact = exact_ground_state(spec)
    fails = []
    for seed in range(50):
        cfg = OptimizerConfig(
            energy_tol=1e-15, max_iters=60000, init_mode="random", seed=seed
        )
        res = optimize(spec, 4, cfg)
        if res.energy - e_exact > 1e-8 or np.any(np.diff(res.trace) > 1e-12):
            fails.append(seed)
    assert fails == []


def test_m_zero_returns_dimer_without_iterating():
    spec = LatticeSpec.half_filling(12)
    res = optimize(spec, 0)
    assert res.iterations == 0 and res.converged
    assert res.stop_reason == "no_descent"
    assert abs(res.energy - (-0.5 * spec.L)) < 1e-12
    assert res.params.M == 0


@pytest.mark.parametrize("run", [optimize, optimize_imaginary])
def test_wrong_depth_start_table_rejected(run, monkeypatch):
    def no_run(*args):
        raise AssertionError("optimizer ran on a wrong-depth start table")

    monkeypatch.setattr(optimizer, "_run", no_run)
    spec = LatticeSpec.half_filling(8)
    for m_layers in (0, 2, 5):
        with pytest.raises(ValueError, match="4 layers"):
            run(spec, m_layers, init=DqapParams(np.full((4, 2), 0.1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("run", [optimize, optimize_imaginary])
def test_non_finite_start_table_rejected(run, bad, monkeypatch):
    # rejected before any pass: run on, a NaN angle ends as energy nan with
    # converged=True, and an infinite one in a RuntimeWarning from cos
    def no_pass(*args):
        raise AssertionError("block pass ran on a non-finite start table")

    monkeypatch.setattr(optimizer, "flat_energy", no_pass)
    spec = LatticeSpec.half_filling(8)
    with pytest.raises(ValueError, match="NaN or infinite"):
        run(spec, 2, init=DqapParams([[0.1, 0.2], [bad, 0.1]]))


def test_stop_reason_names_what_ended_the_run():
    spec = LatticeSpec.half_filling(8)
    done = optimize(spec, 2)
    assert done.stop_reason == "energy_tol" and done.converged
    for iters in (0, 3):
        cut = optimize(spec, 2, OptimizerConfig(max_iters=iters))
        assert cut.stop_reason == "max_iters" and not cut.converged
        assert cut.iterations == iters


def test_imaginary_run_improves_on_dimer():
    spec = LatticeSpec.half_filling(8)
    res = optimize_imaginary(spec, 1)
    assert res.converged
    assert res.energy < -0.5 * spec.L
    assert np.all(np.diff(res.trace) <= 1e-12)


def test_line_search_rejects_non_finite_energy(monkeypatch):
    # the first call is the start energy; the first trial energy reads
    # -inf, and it must not count as descent
    spec = LatticeSpec.half_filling(8)
    real_energy = optimizer.flat_energy
    calls = []

    def first_trial_minus_inf(spec, flat, mode):
        calls.append(flat)
        return -np.inf if len(calls) == 2 else real_energy(spec, flat, mode)

    monkeypatch.setattr(optimizer, "flat_energy", first_trial_minus_inf)
    res = optimize(spec, 2, OptimizerConfig(max_iters=1))
    assert res.iterations == 1
    assert len(calls) >= 3
    assert np.all(np.isfinite(res.trace))
    assert res.trace[1] <= res.trace[0]


def test_line_search_halves_a_trial_whose_block_overflows(monkeypatch):
    # the first call is the start energy; in the first trial's block pass
    # `_bond_block` meets a cosh that overflows, and the shift is halved
    spec = LatticeSpec.half_filling(8)
    real_energy, real_block = optimizer.flat_energy, ansatz._bond_block
    calls = []

    def counted(spec, flat, mode):
        calls.append(flat)
        return real_energy(spec, flat, mode)

    def overflow_in_first_trial(angle, mode):
        return real_block(800.0 if len(calls) == 2 else angle, mode)

    monkeypatch.setattr(optimizer, "flat_energy", counted)
    monkeypatch.setattr(ansatz, "_bond_block", overflow_in_first_trial)
    res = optimize_imaginary(spec, 2, OptimizerConfig(max_iters=1))
    assert res.iterations == 1
    assert len(calls) >= 3
    assert not np.array_equal(res.params.flatten(), calls[1])
    assert np.all(np.isfinite(res.trace))
    assert res.trace[1] <= res.trace[0]


def test_line_search_stops_when_every_trial_overflows(monkeypatch):
    # the first call is the start energy; every trial's block pass then
    # raises, so the run ends on its start table
    spec = LatticeSpec.half_filling(8)
    real_energy = optimizer.flat_energy
    calls = []

    def every_trial_singular(spec, flat, mode):
        calls.append(flat)
        if len(calls) > 1:
            raise SingularOverlapError("block coefficient overflows")
        return real_energy(spec, flat, mode)

    start = linear_schedule_params(2, OptimizerConfig().init_scale)
    monkeypatch.setattr(optimizer, "flat_energy", every_trial_singular)
    res = optimize_imaginary(spec, 2)
    assert res.stop_reason == "no_descent" and res.converged
    assert res.iterations == 0
    assert len(calls) == 1 + optimizer._MAX_HALVINGS
    assert np.array_equal(res.params.angles, start.angles)
    assert np.array_equal(res.trace, [real_energy(spec, start.flatten(), "imag")])


@pytest.mark.parametrize("run", [optimize, optimize_imaginary])
def test_each_iteration_runs_one_block_pass(monkeypatch, run):
    # the derivatives read the pass of the accepted trial: every
    # `_bond_block` call of the run belongs to a block energy
    real_block, real_energy = ansatz._bond_block, optimizer.flat_energy
    real_derivs = optimizer.state_and_derivatives
    calls = {"block": 0, "energy": 0, "derivs": 0}

    def counter(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(ansatz, "_bond_block", counter("block", real_block))
    monkeypatch.setattr(optimizer, "flat_energy", counter("energy", real_energy))
    monkeypatch.setattr(optimizer, "state_and_derivatives", counter("derivs", real_derivs))
    ansatz._table_pass.cache_clear()
    spec = LatticeSpec.half_filling(16, gamma=+1)
    res = run(spec, 3, OptimizerConfig(init_mode="random", seed=2, max_iters=30))
    assert res.iterations > 0 and calls["derivs"] >= res.iterations
    assert calls["block"] == calls["energy"]


def _assert_same_run(res, ref):
    assert np.array_equal(res.params.angles, ref.params.angles)
    assert np.array_equal(res.trace, ref.trace)
    assert (res.iterations, res.stop_reason) == (ref.iterations, ref.stop_reason)


@pytest.mark.parametrize("init_mode", ["linear-schedule", "random"])
@pytest.mark.parametrize("L,gamma", [(16, -1), (14, +1)])
@pytest.mark.parametrize("run,mode", [(optimize, "real"), (optimize_imaginary, "imag")])
def test_run_is_bit_identical_to_the_per_trial_table_loop(run, mode, L, gamma, init_mode):
    # the run scores each trial by its flat vector; the earlier loop built
    # a table per trial and scanned the step twice, and must agree bit for bit
    spec = LatticeSpec.half_filling(L, gamma=gamma)
    config = OptimizerConfig(init_mode=init_mode, seed=5, max_iters=400)
    res = run(spec, 3, config)
    assert res.iterations > 0
    _assert_same_run(res, reference_run(spec, optimizer._initial_params(3, config, None),
                                        mode, config))


def test_run_is_bit_identical_to_the_per_trial_table_loop_when_a_trial_overflows(monkeypatch):
    # the first trial's block pass meets a cosh that overflows in both runs
    spec = LatticeSpec.half_filling(14, gamma=+1)
    config = OptimizerConfig(max_iters=20)
    real_block = ansatz._bond_block
    calls = []

    def overflow_in_first_trial(angle, mode):
        calls.append(angle)
        return real_block(800.0 if len(calls) == 2 else angle, mode)

    monkeypatch.setattr(ansatz, "_bond_block", overflow_in_first_trial)
    results = []
    for go in (lambda: optimize_imaginary(spec, 2, config),
               lambda: reference_run(spec, optimizer._initial_params(2, config, None),
                                     "imag", config)):
        ansatz._table_pass.cache_clear()
        calls.clear()
        results.append(go())
        assert len(calls) > 2  # the overflowing trial was halved
    assert results[0].iterations > 0
    _assert_same_run(*results)


@pytest.mark.parametrize("run", [optimize, optimize_imaginary])
def test_non_finite_step_raises_before_any_trial(monkeypatch, run):
    real_assemble, real_energy = optimizer.assemble_metric_and_force, optimizer.flat_energy
    energies = []

    def nan_force(*args):
        metric, force = real_assemble(*args)
        return metric, np.full_like(force, np.nan)

    def counted(spec, flat, mode):
        energies.append(flat)
        return real_energy(spec, flat, mode)

    monkeypatch.setattr(optimizer, "assemble_metric_and_force", nan_force)
    monkeypatch.setattr(optimizer, "flat_energy", counted)
    with pytest.raises(LinearSolveError, match="non-finite step"):
        run(LatticeSpec.half_filling(8), 2)
    assert len(energies) == 1  # the start energy alone


@pytest.mark.parametrize("run", [optimize, optimize_imaginary])
def test_block_pass_cache_is_transparent(monkeypatch, run):
    # a run that recomputes every pass returns the same result bit for bit
    spec = LatticeSpec.half_filling(16, gamma=+1)
    config = OptimizerConfig(init_mode="random", seed=3, max_iters=30)
    cached = run(spec, 3, config)
    real_pass = ansatz._table_pass

    def uncached(*args):
        real_pass.cache_clear()
        return real_pass(*args)

    monkeypatch.setattr(ansatz, "_table_pass", uncached)
    fresh = run(spec, 3, config)
    assert np.array_equal(fresh.params.angles, cached.params.angles)
    assert np.array_equal(fresh.trace, cached.trace)
    assert (fresh.iterations, fresh.stop_reason) == (cached.iterations, cached.stop_reason)
    rows, norms = ansatz._block_pass(spec, cached.params, "imag")
    assert not rows.flags.writeable and not norms.flags.writeable


@pytest.mark.parametrize("run,builder", [
    (optimize, build_dqap_state),
    (optimize_imaginary, build_imag_state),
])
def test_trace_holds_the_energy_of_the_built_state(run, builder):
    # the trace ends on the block energy of the returned table, bit for
    # bit, which is the reported energy and the real-space energy of the
    # built state up to rounding
    spec = LatticeSpec.half_filling(16, gamma=+1)
    h = build_hamiltonian(spec)
    mode = "real" if run is optimize else "imag"
    res = run(spec, 3, OptimizerConfig(init_mode="random", seed=1, max_iters=40))
    assert res.iterations > 0
    assert res.trace[-1] == block_energy(spec, res.params, mode)
    assert res.energy == res.trace[-1]
    e_real = energy_expectation(builder(spec, res.params), h)
    assert abs(e_real - res.energy) <= 1e-12 * abs(e_real)


def test_large_step_imaginary_rung_matches_block_product():
    # at delta_beta = 0.1 the warm-started L=30 pbc depth-2 rung used to
    # reach a state whose inverse Gram matrix was not positive definite
    spec = LatticeSpec.half_filling(30, gamma=+1)
    res = ladder(spec, [2], OptimizerConfig(delta_beta=0.1), "imag")[2]
    assert res.stop_reason == "energy_tol"
    assert abs(res.energy - float(mp_imag_energy(30, "pbc", res.params.angles))) < 1e-12


def test_imaginary_ladder_l64_is_monotone_and_exact():
    # before the QR step the M=3 and M=4 rungs stopped on no_descent,
    # and M=4 ended above M=3
    spec = LatticeSpec.half_filling(64)
    _, e_exact = exact_ground_state(spec)
    energies = []
    for res in ladder(spec, range(1, 5), mode="imag").values():
        assert res.stop_reason == "energy_tol"
        assert abs(res.energy - float(mp_imag_energy(64, "apbc", res.params.angles))) < (
            1e-12 * abs(res.energy)
        )
        energies.append(res.energy)
    assert np.all(np.diff(energies) < 0)
    assert energies[-1] - e_exact < 1e-8


@pytest.mark.parametrize("L, gamma, mode, counts", [
    (16, -1, "real", {1: 19, 2: 19, 3: 23, 4: 29}),
    (160, -1, "real", {1: 19, 2: 19, 3: 22}),
    (30, +1, "imag", {1: 36, 2: 55, 3: 52}),
])
def test_benchmark_ladders_keep_their_iteration_counts(L, gamma, mode, counts):
    # the ladders perfbench times, at the CLI's default settings: a change
    # to the block pass, the assembly or the line search that moves a count
    # changes the numbers, however small its rounding
    rungs = ladder(LatticeSpec.half_filling(L, gamma=gamma), tuple(counts), OptimizerConfig(), mode)
    assert {m: res.iterations for m, res in rungs.items()} == counts
    assert all(res.stop_reason == "energy_tol" for res in rungs.values())


# ---- step control ----


def test_first_step_respects_trust_cap():
    # small random angles sit where the metric is nearly singular, so the
    # uncapped first step moves an angle by about 0.33
    spec = LatticeSpec.half_filling(8)
    start = optimize(spec, 3, OptimizerConfig(init_mode="random", seed=0, max_iters=0))
    one = optimize(spec, 3, OptimizerConfig(init_mode="random", seed=0, max_iters=1))
    assert one.iterations == 1
    shift = np.max(np.abs(one.params.angles - start.params.angles))
    assert 0.0 < shift <= 0.1 * (1.0 + 1e-12)


def test_warm_start_ladder_reaches_quarter_depth_in_few_iterations():
    spec = LatticeSpec.half_filling(40)
    _, e_exact = exact_ground_state(spec)
    rungs = ladder(spec, range(1, 11), OptimizerConfig(energy_tol=1e-15, max_iters=60000))
    assert all(res.stop_reason == "energy_tol" for res in rungs.values())
    total = sum(res.iterations for res in rungs.values())
    assert rungs[10].energy - e_exact < 1e-10
    assert total < 1000


@pytest.mark.parametrize("mode,run", [("real", optimize), ("imag", optimize_imaginary)])
def test_ladder_runs_depth_zero_apart_from_the_warm_start_rungs(mode, run):
    spec = LatticeSpec.half_filling(12)
    rungs = ladder(spec, [0, 2], mode=mode)
    assert list(rungs) == [0, 2]
    for got, want in ((rungs[0], run(spec, 0)), (rungs[2], ladder(spec, [2], mode=mode)[2])):
        assert np.array_equal(got.params.angles, want.params.angles)
        assert np.array_equal(got.trace, want.trace)
        assert (got.energy, got.iterations, got.stop_reason) == (
            want.energy, want.iterations, want.stop_reason)


@pytest.mark.parametrize("mode", ["real", "imag"])
def test_ladder_never_builds_a_real_space_state(mode, monkeypatch):
    # every rung runs on the Bloch blocks alone, with the same numbers
    spec = LatticeSpec.half_filling(16)
    want = ladder(spec, [0, 1, 2], mode=mode)

    def no_real_space(*args, **kwargs):
        raise AssertionError("a real-space state was built")

    monkeypatch.setattr(ansatz, "_forward_pass", no_real_space)
    got = ladder(spec, [0, 1, 2], mode=mode)
    assert list(got) == list(want)
    for m in want:
        assert np.array_equal(got[m].params.angles, want[m].params.angles)
        assert np.array_equal(got[m].trace, want[m].trace)
        assert (got[m].iterations, got[m].stop_reason) == (
            want[m].iterations, want[m].stop_reason)


def _no_rung(monkeypatch):
    def no_rung(*args, **kwargs):
        raise AssertionError("a rung ran")

    monkeypatch.setattr(optimizer, "optimize", no_rung)
    monkeypatch.setattr(optimizer, "optimize_imaginary", no_rung)


def test_ladder_rejects_an_unknown_mode_before_any_rung(monkeypatch):
    _no_rung(monkeypatch)
    with pytest.raises(ValueError, match="mode"):
        ladder(LatticeSpec.half_filling(8), [1, 2], mode="bogus")


@pytest.mark.parametrize("depths", [
    [-1],  # returned {}
    [3, -1],  # dropped the -1
    [],  # failed inside max()
    [2.5],  # a TypeError from range
])
def test_ladder_rejects_malformed_depths_before_any_rung(depths, monkeypatch):
    _no_rung(monkeypatch)
    with pytest.raises(ValueError, match=re.escape(f"got {depths!r}")):
        ladder(LatticeSpec.half_filling(8), depths)


@pytest.mark.parametrize("field,value", [
    ("delta_beta", 0.0),
    ("delta_beta", -0.01),
    ("delta_beta", float("nan")),
    ("delta_beta", float("inf")),
    ("delta_beta", True),
    ("init_scale", "abc"),
    ("init_scale", 0.0),
    ("init_scale", float("nan")),
    ("energy_tol", -1e-13),
    ("energy_tol", float("inf")),
    ("energy_tol", "1e-13"),
    ("max_iters", -1),
    ("max_iters", 1e999),
    ("max_iters", 10.0),
    ("max_iters", True),
    ("seed", "x"),
    ("seed", 1.5),
    ("seed", True),
])
def test_malformed_settings_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        OptimizerConfig(**{field: value})


# ---- initialization ----


def test_linear_schedule_values():
    p = linear_schedule_params(4, 0.02)
    np.testing.assert_allclose(p.angles[:, 0], 0.02)
    np.testing.assert_allclose(p.angles[:, 1], 0.02 * np.array([1, 2, 3, 4]) / 4)


def test_random_init_bounded_and_reproducible():
    spec = LatticeSpec.half_filling(8)
    cfg = OptimizerConfig(init_mode="random", seed=11, max_iters=0)
    a = optimize(spec, 3, cfg).params.angles
    b = optimize(spec, 3, cfg).params.angles
    np.testing.assert_allclose(a, b)
    assert np.all(a >= 0.0) and np.all(a <= 0.01)
    c = optimize(spec, 3, OptimizerConfig(init_mode="random", seed=12, max_iters=0))
    assert np.any(c.params.angles != a)


def test_ridge_is_not_a_setting():
    # the step solve shifts the kept metric modes by the fixed optimizer._RIDGE
    with pytest.raises(TypeError, match="ridge"):
        OptimizerConfig(ridge=0.0)


def test_random_init_without_a_seed_is_rejected():
    # a draw from OS entropy could not be reproduced
    with pytest.raises(ValueError, match="seed"):
        OptimizerConfig(init_mode="random")
    with pytest.raises(ValueError, match="seed"):
        dataclasses.replace(OptimizerConfig(init_mode="random", seed=3), seed=None)
    assert OptimizerConfig(seed=None).seed is None  # the schedule start draws nothing


def test_unknown_init_mode_rejected():
    with pytest.raises(ValueError):
        OptimizerConfig(init_mode="bogus")


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(OptimizerConfig)])
def test_config_fields_cannot_be_assigned(field):
    # an assignment would skip the checks: init_mode = "bogus" used to
    # start from random angles, max_iters = -5 to stop after 0 iterations
    cfg = OptimizerConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, field, getattr(cfg, field))


@pytest.mark.parametrize("field,value", [("init_mode", "bogus"), ("max_iters", -5)])
def test_replace_validates(field, value):
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(OptimizerConfig(), **{field: value})


# ---- warm start ----


def test_warm_start_mid_insertion_rule():
    grown = warm_start(DqapParams([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_allclose(grown.angles, [[1, 2], [2, 3], [3, 4]])


def test_warm_start_all_equal_layers():
    grown = warm_start(DqapParams(0.7 * np.ones((4, 2))))
    np.testing.assert_allclose(grown.angles, 0.7 * np.ones((5, 2)))


def test_warm_start_single_layer_duplicates():
    grown = warm_start(DqapParams([[0.3, 0.9]]))
    np.testing.assert_allclose(grown.angles, [[0.3, 0.9], [0.3, 0.9]])


def test_warm_start_beats_random_init():
    spec = LatticeSpec.half_filling(40)
    res = ladder(spec, [3], OptimizerConfig(energy_tol=1e-15, max_iters=60000))[3]
    rand = optimize(
        spec,
        3,
        OptimizerConfig(
            energy_tol=1e-15, max_iters=60000, init_mode="random", seed=0
        ),
    )
    assert abs(rand.energy - res.energy) < 1e-9
    assert res.iterations < rand.iterations
