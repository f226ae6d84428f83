"""Correlation-block spectra, entropies, mutual information, diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqap_lab import (
    DqapParams,
    LatticeSpec,
    OptimizerConfig,
    SlaterState,
    Subsystem,
    boundary_rank_diagnostic,
    build_dqap_state,
    correlation_spectrum,
    entanglement_entropy,
    entropy_from_levels,
    entropy_mode_form,
    exact_ground_state,
    fock_entropy,
    initial_state,
    mutual_information,
    one_particle_dm,
    optimize,
    scaling_exponents,
    slater_to_fock,
)

LN2 = np.log(2.0)


def circuit_state(L, m, seed):
    spec = LatticeSpec.half_filling(L)
    rng = np.random.default_rng(seed)
    return build_dqap_state(spec, DqapParams(rng.uniform(0.1, 1.0, (m, 2))))


def cyclic_distance(x, xp, L):
    d = abs(x - xp)
    return min(d, L - d)


# ---- subsystems ----


def test_subsystem_rejects_duplicates():
    with pytest.raises(ValueError):
        Subsystem((1, 2, 1))


def test_contiguous_wraps_around():
    assert Subsystem.contiguous(6, 4, 8).sites == (6, 7, 0, 1)
    assert Subsystem.half_chain(8).sites == (0, 1, 2, 3)


@pytest.mark.parametrize(
    "sites,expect",
    [((0, 1), True), ((2, 3), True), ((1, 2), False), ((0, 1, 2, 3), True), ((4,), False)],
)
def test_bond_preserving_flag(sites, expect):
    assert Subsystem(sites).bond_preserving is expect


def test_one_particle_dm_range_checked():
    st_ = SlaterState(initial_state(LatticeSpec.half_filling(8)))
    with pytest.raises(ValueError):
        one_particle_dm(st_, Subsystem((0, 9)))


# ---- entropies on closed-form states ----


def test_dimer_single_site_entropy():
    st_ = SlaterState(initial_state(LatticeSpec.half_filling(8)))
    assert abs(entanglement_entropy(st_, Subsystem((0,))) - LN2) < 1e-12


def test_dimer_bond_preserving_cut_has_zero_entropy():
    st_ = SlaterState(initial_state(LatticeSpec.half_filling(8)))
    assert abs(entanglement_entropy(st_, Subsystem.half_chain(8))) < 1e-12


def test_dimer_bond_cutting_pair():
    # sites {1, 2} sever two dimers: one half-filled mode per cut bond
    st_ = SlaterState(initial_state(LatticeSpec.half_filling(8)))
    assert abs(entanglement_entropy(st_, Subsystem((1, 2))) - 2 * LN2) < 1e-12


def test_whole_system_entropy_vanishes():
    st_ = circuit_state(8, 2, seed=0)
    assert abs(entanglement_entropy(st_, Subsystem(tuple(range(8))))) < 1e-10


def test_exact_ground_state_entropy_matches_fock():
    spec = LatticeSpec.half_filling(8)
    orb, _ = exact_ground_state(spec)
    st_ = SlaterState(orb.astype(complex))
    sub = [0, 1, 2]
    s_corr = entanglement_entropy(st_, Subsystem(tuple(sub)))
    s_fock = fock_entropy(slater_to_fock(st_), sub)
    assert abs(s_corr - s_fock) < 1e-10


def test_complement_has_equal_entropy():
    st_ = circuit_state(8, 2, seed=1)
    a = (0, 1, 5)
    b = tuple(x for x in range(8) if x not in a)
    assert abs(
        entanglement_entropy(st_, Subsystem(a)) - entanglement_entropy(st_, Subsystem(b))
    ) < 1e-10


@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_subadditivity(data):
    seed = data.draw(st.integers(0, 5))
    st_ = circuit_state(8, 2, seed=seed)
    sites = data.draw(st.permutations(range(8)))
    na = data.draw(st.integers(1, 3))
    nb = data.draw(st.integers(1, 3))
    a, b = tuple(sites[:na]), tuple(sites[na : na + nb])
    s_ab = entanglement_entropy(st_, Subsystem(a + b))
    s_a = entanglement_entropy(st_, Subsystem(a))
    s_b = entanglement_entropy(st_, Subsystem(b))
    assert s_ab <= s_a + s_b + 1e-10


def test_mode_form_agrees_with_direct_entropy():
    st_ = circuit_state(10, 2, seed=2)
    levels = correlation_spectrum(st_, Subsystem.half_chain(10))
    assert abs(entropy_from_levels(levels) - entropy_mode_form(levels)) < 1e-8
    # levels within 1e-12 of 0 or 1 still carry entropy (about 3e-12 each
    # here); only the exact boundary levels contribute nothing
    near_boundary = [0.0, 1e-15, 1e-13, 0.3, 1.0 - 1e-13, 1.0]
    assert abs(entropy_from_levels(near_boundary) - entropy_mode_form(near_boundary)) < 1e-14


def test_entropy_rejects_level_excursions():
    with pytest.raises(ValueError):
        entropy_from_levels([-1e-6, 0.5])
    with pytest.raises(ValueError):
        entropy_from_levels([0.5, 1.0 + 1e-6])
    # within the tolerance the clamp absorbs rounding noise
    assert entropy_from_levels([-5e-9, 1.0 + 5e-9]) == 0.0


def test_particle_hole_symmetric_spectrum_at_half_filling():
    st_ = circuit_state(12, 2, seed=3)
    levels = correlation_spectrum(st_, Subsystem.half_chain(12))
    np.testing.assert_allclose(levels, np.sort(1.0 - levels), atol=1e-8)


# ---- mutual information ----


def test_mutual_information_dimer_values():
    st_ = SlaterState(initial_state(LatticeSpec.half_filling(8)))
    assert abs(mutual_information(st_, 0, 1) - 2 * LN2) < 1e-12
    assert abs(mutual_information(st_, 0, 2)) < 1e-12


def test_mutual_information_needs_distinct_sites():
    st_ = SlaterState(initial_state(LatticeSpec.half_filling(8)))
    with pytest.raises(ValueError):
        mutual_information(st_, 3, 3)


def test_correlation_cone_any_angles():
    # the circuit spreads correlations at most 2 sites per half layer in
    # each direction, so beyond cyclic distance 4M+1 the mutual
    # information vanishes identically, optimized or not
    L, m = 40, 2
    st_ = circuit_state(L, m, seed=4)
    for x in range(0, L, 7):
        for xp in range(x + 1, L):
            if cyclic_distance(x, xp, L) > 4 * m + 1:
                assert mutual_information(st_, x, xp) <= 1e-12


def test_correlation_cone_edge_is_populated_after_optimization():
    L, m = 40, 2
    spec = LatticeSpec.half_filling(L)
    res = optimize(spec, m, OptimizerConfig(energy_tol=1e-15, max_iters=60000))
    st_ = build_dqap_state(spec, res.params)
    edge = 4 * m + 1
    vals = [
        mutual_information(st_, x, (x + edge) % L) for x in range(L)
    ]
    assert max(vals) > 1e-6
    for x in range(L):
        for xp in range(x + 1, L):
            if cyclic_distance(x, xp, L) > edge:
                assert mutual_information(st_, x, xp) <= 1e-12


# ---- rank diagnostics ----


def test_diagnostic_dimer_half_chain():
    st_ = SlaterState(initial_state(LatticeSpec.half_filling(8)))
    diag = boundary_rank_diagnostic(st_, Subsystem.half_chain(8))
    assert diag.rank == 0
    assert (diag.n_zero, diag.n_one) == (2, 2)
    assert diag.pairwise_degenerate
    assert diag.bond_preserving



@pytest.mark.parametrize("L, m", [(8, 1), (16, 3), (32, 5), (64, 8)])
def test_diagnostic_rank_matches_singular_values(L, m):
    # D is Hermitian, so the rank read off its eigenvalues is the
    # singular-value rank of D^2 - D, for every cut size
    st_ = circuit_state(L, m, seed=L + m)
    for size in range(2, L // 2 + 1):
        cut = Subsystem.contiguous(1, size, L)
        d = one_particle_dm(st_, cut)
        sv = np.linalg.svd(d @ d - d, compute_uv=False)
        assert boundary_rank_diagnostic(st_, cut).rank == int((sv > 1e-8).sum())

def test_diagnostic_shapes_track_depth():
    # below saturation each layer pair converts two pinned eigenvalues
    # per cut side into an interior degenerate pair
    spec = LatticeSpec.half_filling(16)
    cfg = OptimizerConfig(energy_tol=1e-15, max_iters=60000)
    half = Subsystem.half_chain(16)
    res2 = optimize(spec, 2, cfg)
    d2 = boundary_rank_diagnostic(build_dqap_state(spec, res2.params), half)
    assert d2.rank == 8
    assert (d2.n_zero, d2.n_one) == (0, 0)
    assert d2.pairwise_degenerate
    res3 = optimize(spec, 3, cfg)
    d3 = boundary_rank_diagnostic(build_dqap_state(spec, res3.params), half)
    assert d3.rank == 8
    assert not d3.pairwise_degenerate


def test_half_chain_entropy_size_independent_below_quarter_depth():
    cfg = OptimizerConfig(energy_tol=1e-15, max_iters=60000)
    out = {}
    for L in (16, 24):
        spec = LatticeSpec.half_filling(L)
        res = optimize(spec, 2, cfg)
        out[L] = entanglement_entropy(
            build_dqap_state(spec, res.params), Subsystem.half_chain(L)
        )
    assert abs(out[16] - out[24]) < 1e-8


# ---- scaling exponents ----


def test_scaling_exponents_on_synthetic_series():
    ms = [4, 5, 6, 7]
    s = [0.3 + np.log(m) / 3.0 for m in ms]
    err = [2.0 / m**2 for m in ms]
    mids, exp_s, exp_e = scaling_exponents(ms, s, err)
    np.testing.assert_allclose(mids, [4, 5, 6])
    np.testing.assert_allclose(exp_s, 1.0, atol=1e-12)
    np.testing.assert_allclose(exp_e, 1.0, atol=1e-12)


def test_scaling_exponents_validation():
    with pytest.raises(ValueError):
        scaling_exponents([2, 4], [0.1, 0.2], [1.0, 0.5])
    with pytest.raises(ValueError):
        scaling_exponents([2, 3], [0.1, 0.2], [1.0, 0.0])
    with pytest.raises(ValueError):
        scaling_exponents([2], [0.1], [1.0])
    with pytest.raises(ValueError):
        scaling_exponents([2, 3], [0.1], [1.0, 0.5])
    with pytest.raises(ValueError, match="at least 1"):
        scaling_exponents([0, 1], [0.1, 0.2], [1.0, 0.5])
