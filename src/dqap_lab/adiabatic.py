"""Continuous-time interpolation runs and schedule diagnostics.

The reference process ramps the even bond family in linearly on top of
the odd family over a total time T, H(s) = V1 + s V2 with s = tau / T.
Time stepping uses a commutator expansion of the ordered exponential
over each slice.

The ramp never mixes cell momenta: it runs as the L/2 independent 2 x 2
Bloch blocks H_q(s) of V1 + s V2; `lattice` sets them out and builds
their ground states.  The dimer state puts one fermion in every block,
in the spinor (1, 1)/sqrt 2, so a ramped state is an (L/2, 2) spinor
array and a slice costs O(L).  Every ramp quantity comes from these
blocks, with no dense diagonalization: the steps, the terminal distance,
the O(L) shell check, and the ramp ground states that the overlap scans
compare against.

Over slice m the first-order generator is dt H_q(s_mid).  The
second-order commutator term (dt^2/6) [H_q(s_m), H_q(s_{m-1})] is
diagonal in each block,

    -(dt^2 / 3) sin q (s_{m-1} - s_m) sigma_z,

because [sigma_x, cos q sigma_x + sin q sigma_y] = 2i sin q sigma_z.
Either generator is n . sigma for a real 3-vector n per block, and
exp(-i n . sigma) = cos|n| - i (sin|n| / |n|) n . sigma exactly.

That exponential is in SU(2), [[alpha, beta], [-conj(beta), conj(alpha)]],
so a slice is one pair (alpha, beta) per cell momentum.  A run of
consecutive slices is evaluated cell-major, as (L/2, n_slices) arrays
with the slices on the contiguous axis, in one pass, and multiplied by
pairwise levels along that axis, later slice on the left:

    alpha = alpha1 alpha0 - beta1 conj(beta0),
    beta  = alpha1 beta0 + beta1 conj(alpha0),

with an odd last slice carried up a level.  Cell-major, every numpy
inner loop runs along the slices, which at small L far outnumber the
cells.  The ramp steps chunks of `_CHUNK_ELEMENTS` slice x cell entries
this way, so each temporary stays near 1 MB at any L, and the spinors
are touched once per chunk.

The closed-form optimal ramp keeps the adiabaticity rate uniform along
the path.  Writing g for 2 pi / L, the ramp and instantaneous gap are

    ramp(s) = cos g - sin g * tan(a s + b),     s in [0, 1]
    gap(x)  = 2 sqrt((x - cos g)^2 + sin^2 g)

with a = -atan(sin g / (1 - cos g)), b = atan(cos g / sin g); the
coefficients satisfy ramp(0) = 0 and ramp(1) = 1 identically, and the
ramp solves  x'' = 2 (x - cos g) x'^2 / ((x - cos g)^2 + sin^2 g).

The overlap scans match the m-layer circuit prefix, its last odd
half-layer scaled by alpha, to the ramp ground state it overlaps best.
Both put one fermion in every Bloch block, so the squared overlap is the
product over q of |c (a + conj(u_q) b) + s (b + conj(u_q) a)|^2 / 2:
(a, b) are the prefix spinors before that half-layer, (c, s) its
`slater._bond_block` and (1, u_q)/sqrt 2 the ground spinor.  A scan point
costs O(L) and no determinant.  A scan forms the alpha-free sums once,
fills its (alpha, chi) grid in blocks of alpha rows of at most
`_SCAN_ELEMENTS` amplitudes, and takes one argmax: ties go to the first
alpha, then the first chi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ansatz import DqapParams, _block_pass, build_dqap_state
from .errors import DimensionMismatch, NoConvergence
from .lattice import (
    LatticeSpec, _bloch_orbitals, _cell_momenta, _ground_orbitals, _ground_phase,
    is_finite_positive, is_int,
)
from .slater import SlaterState, _bond_block, overlap

# slice x cell entries per magnus_step call of a ramp: about 1 MB per complex
# temporary.  The chunks group the pairwise product, so another size moves the
# last digits of eps; 1 << 14 also made find_T_epsilon(L=32, 0.05, dtau=0.05)
# 6% slower in a warm process (18.1 -> 19.3 ms, 2 vCPUs).
_CHUNK_ELEMENTS = 1 << 16
# amplitudes per block of an overlap scan's (alpha, chi, q) grid: 256 KB complex
# temporaries that stay in L2.  Against 1 << 16 it took a free-alpha
# maximize_overlap from 1.87 to 1.71 ms at L=16 and from 20.6 to 17.6 ms at
# L=256 in a warm process (2 vCPUs); the blocking changes no grid cell.
_SCAN_ELEMENTS = 1 << 14
_T_START = 1.0  # first ramp time tried by find_T_epsilon
_T_CAP = 1e6  # longest ramp time find_T_epsilon tries
# maximize_overlap's coarse step and upper end of chi and alpha, its window steps and half-width
_GRID_STEP, _GRID_BOUND, _REFINE_STEPS, _WINDOW = 0.01, 1.5, (1e-3, 1e-4, 1e-5), 10
_GRID_CHIS = np.arange(0.0, _GRID_BOUND + _GRID_STEP / 2, _GRID_STEP)
_GRID_CHIS.flags.writeable = False


@dataclass(frozen=True)
class EvolutionPlan:
    """Total ramp time T sliced into M equal steps; expansion order 1 or 2."""

    T: float
    M: int
    order: int = 1

    def __post_init__(self):
        if not is_finite_positive(self.T) or not (is_int(self.M) and self.M >= 1):
            raise ValueError(f"need finite T > 0 and int M >= 1, got T={self.T!r}, M={self.M!r}")
        if not (is_int(self.order) and self.order in (1, 2)):
            raise ValueError(f"order must be 1 or 2, got {self.order!r}")

    @property
    def delta_tau(self) -> float:
        return self.T / self.M


def _slice_blocks(spec, plan, slices):
    """SU(2) pairs (alpha, beta), each (L/2, len(slices)), of the slices' block exponentials.

    Row n holds cell momentum q_n and column j slice slices[j], so the
    slices run along the contiguous axis.  A block is
    [[alpha, beta], [-conj(beta), conj(alpha)]] with
    alpha = c - i k w_z (alpha = c at order 1) and beta = -i k w, where
    the generator is n . sigma = dt [[w_z, w], [conj(w), -w_z]],
    c = cos|n| and k = dt sin|n| / |n|.
    """
    _, emiq, sin_q = _cell_momenta(spec.L, spec.gamma)
    dt = plan.delta_tau
    m = np.arange(slices.start, slices.stop)
    s_prev, s_next = (m - 1) * dt / plan.T, m * dt / plan.T
    # |w| >= 1 - s_mid > 0
    w = -1.0 - 0.5 * (s_prev + s_next) * emiq[:, None]
    if plan.order == 2:
        w_z = (dt / 3.0 * (s_next - s_prev)) * sin_q[:, None]
        r = np.sqrt(w.real**2 + w.imag**2 + w_z**2)
    else:
        r = np.abs(w)
    dtr = dt * r
    c = np.cos(dtr)
    k = np.sin(dtr) / r  # sin|n| / |n| times dt
    alpha = c - 1j * k * w_z if plan.order == 2 else c
    return alpha, -1j * k * w


def _compose(alpha, beta):
    """Product of the SU(2) pairs along axis 1, later columns on the left, by pairwise levels.

    Columns 2i and 2i+1 become U_{2i+1} U_{2i} (module docstring); an
    odd last column is carried up a level unchanged.  Returns the
    product's (alpha, beta), each (L/2,).
    """
    # operand order as written: numpy's SIMD complex multiply is not commutative
    # bit for bit, and tests/oracles.py `reference_slice_product` pins it
    while alpha.shape[1] > 1:
        n = alpha.shape[1] & ~1
        a0, a1, b0, b1 = alpha[:, 0:n:2], alpha[:, 1:n:2], beta[:, 0:n:2], beta[:, 1:n:2]
        a = a1 * a0 - b1 * b0.conj()
        b = a1 * b0 + b1 * a0.conj()
        if n < alpha.shape[1]:
            a = np.concatenate((a, alpha[:, n:]), axis=1)
            b = np.concatenate((b, beta[:, n:]), axis=1)
        alpha, beta = a, b
    return alpha[:, 0], beta[:, 0]


def magnus_step(spinors, spec: LatticeSpec, plan: EvolutionPlan, m: int | range):
    """Advance an (L/2, 2) spinor array over slice m, or over a range of consecutive slices.

    Slice m runs from (m-1) dt to m dt (m = 1..M); an int m is the
    one-slice range(m, m + 1).  Row n holds the sublattice amplitudes of
    cell momentum q_n.  Every slice of the range is exponentiated in
    closed form as an SU(2) pair in one vectorized pass, the pairs are
    multiplied by pairwise levels, and the product is applied to the
    spinors once (module docstring); a slice costs O(L).  Raises
    ValueError for an m that is neither an int (bool is not) nor a
    range, an empty range, a step other than 1 or a slice outside 1..M.
    """
    if not (is_int(m) or isinstance(m, range)):
        raise ValueError(f"m must be an int or a range of slices, got {m!r}")
    slices = m if isinstance(m, range) else range(m, m + 1)
    if slices.step != 1 or len(slices) == 0:
        raise ValueError(f"slices must be a non-empty range of step 1, got {slices}")
    if slices.start < 1 or slices.stop - 1 > plan.M:
        raise ValueError(f"slices {slices.start}..{slices.stop - 1} outside 1..{plan.M}")
    spinors = np.asarray(spinors)
    if spinors.shape != (spec.L // 2, 2):
        raise DimensionMismatch(
            f"spinors must have shape {(spec.L // 2, 2)}, got {spinors.shape}"
        )
    alpha, beta = _compose(*_slice_blocks(spec, plan, slices))
    a, b = spinors[:, 0], spinors[:, 1]
    out = np.empty(spinors.shape, dtype=complex)
    out[:, 0] = alpha * a + beta * b
    out[:, 1] = alpha.conj() * b - beta.conj() * a
    return out


def _ramp_distance(u, spinors):
    """Terminal distance sqrt(2 - 2 |<exact|psi>|) of ramped (L/2, 2) spinors.

    The exact ground state puts every block in phi_q = (1, u_q)/sqrt 2,
    `u` from `_ground_phase` at chi = 1, so |<exact|psi>| = prod_q
    sqrt(1 - p_q), where p_q = |<phi_q^perp|psi_q>|^2 / |psi_q|^2 is the
    weight of psi_q in the orthogonal spinor (1, -u_q)/sqrt 2.  Then

        2 - 2 |<exact|psi>| = -2 expm1(sum_q log1p(-p_q) / 2),

    which keeps the relative precision of small p_q; taking 2 - 2 |det|
    instead would divide the rounding of |det| by eps^2.  Rounding can
    put p_q a hair above 1, so it is clipped there.
    """
    a, b = spinors[:, 0], spinors[:, 1]
    perp = np.abs(a - u.conj() * b) ** 2
    p = np.minimum(perp / (2.0 * (np.abs(a) ** 2 + np.abs(b) ** 2)), 1.0)
    return float(np.sqrt(-2.0 * np.expm1(0.5 * np.log1p(-p).sum())))


def evolve_linear_schedule(spec: LatticeSpec, plan: EvolutionPlan):
    """Run the full linear ramp from the dimer state.

    Raises OpenShellError when the final ground state is not unique,
    before any slice is stepped.

    Returns
    -------
    (state, eps) : final SlaterState, whose columns are the Bloch
        orbitals of the ramped spinors, and the terminal distance
        sqrt(2 - 2 |<exact|state>|) to the exact ground state, taken
        from the per-block weights outside the ground spinor
        (`_ramp_distance`).
    """
    u = _ground_phase(spec, 1.0)  # rejects an open shell
    spinors = np.full((spec.L // 2, 2), np.sqrt(0.5), dtype=complex)
    per_call = max(1, _CHUNK_ELEMENTS // (spec.L // 2))
    for start in range(1, plan.M + 1, per_call):
        stop = min(start + per_call, plan.M + 1)
        spinors = magnus_step(spinors, spec, plan, range(start, stop))
    return SlaterState(_bloch_orbitals(spec, spinors)), _ramp_distance(u, spinors)


def find_T_epsilon(
    spec: LatticeSpec, target_eps: float, dtau: float = 0.01, order: int = 1
) -> float:
    """A ramp time at which the terminal distance crosses below the target.

    Doubles T from 1 until eps(T) <= target_eps, which brackets a
    crossing in [T/2, T].  When T = 1 already meets the target, the
    lower end is instead halved while eps stays below it (down to 1e-6).
    Bisection then keeps eps <= target_eps at the upper end, stops at 1%
    relative width and returns the upper end.  eps(T) oscillates in T,
    so the result is one crossing of the target, not the smallest ramp
    time reaching it: at L=8 apbc, target 0.05, dtau 0.01 it returns
    11.3125, while eps(8.25) = 0.0495 and eps(10) = 0.0850.  Each ramp
    has M = max(1, round(T / dtau)) slices, the nearest integer count, so
    its step T / M may be slightly larger than `dtau`: T = 11.3125 gives
    M = 1131 and a step of 0.0100022.  Raises ValueError for a
    non-finite or non-positive target_eps or dtau before any ramp runs,
    and NoConvergence if T passes 1e6 before the target is met.
    """
    for name, value in (("target_eps", target_eps), ("dtau", dtau)):
        if not is_finite_positive(value):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")

    def eps_at(T):
        plan = EvolutionPlan(T=T, M=max(1, round(T / dtau)), order=order)
        return evolve_linear_schedule(spec, plan)[1]

    t_hi = _T_START
    while eps_at(t_hi) > target_eps:
        t_hi *= 2.0
        if t_hi > _T_CAP:
            raise NoConvergence(f"no T <= {_T_CAP} reaches eps <= {target_eps} for L={spec.L}")
    t_lo = t_hi / 2.0
    if t_hi == _T_START:
        while t_lo > 1e-6 and eps_at(t_lo) <= target_eps:
            t_lo /= 2.0
    while (t_hi - t_lo) / t_hi > 0.01:
        mid = 0.5 * (t_lo + t_hi)
        if eps_at(mid) <= target_eps:
            t_hi = mid
        else:
            t_lo = mid
    return t_hi


def qab_schedule(L: int, s):
    """Closed-form uniform-adiabaticity ramp value(s) at s in [0, 1]."""
    if L < 4:
        raise ValueError(f"ramp needs L >= 4, got {L}")
    g = 2.0 * np.pi / L
    a = -np.arctan(np.sin(g) / (1.0 - np.cos(g)))
    b = np.arctan(np.cos(g) / np.sin(g))
    return np.cos(g) - np.sin(g) * np.tan(a * np.asarray(s, dtype=float) + b)


def qab_gap(L: int, chi):
    """Instantaneous spectral gap along the ramp, 2 sqrt((x-cos g)^2 + sin^2 g)."""
    g = 2.0 * np.pi / L
    chi = np.asarray(chi, dtype=float)
    return 2.0 * np.sqrt((chi - np.cos(g)) ** 2 + np.sin(g) ** 2)


def _reduced_odd_angle(angle):
    """Odd-family angle shifted by a multiple of pi into (-pi/2, pi/2].

    The odd family covers every site, so shifting its angle by pi
    multiplies the state by the global phase (-1)^N.  Scaling the reduced
    representative makes the partial layer independent of which one an
    optimized table holds.
    """
    return angle - np.pi * np.ceil(angle / np.pi - 0.5)


def _prefix(spec, params, m):
    """The m-layer prefix as (table, theta): layers 1..m, layer m's odd angle set to 0.

    theta is that angle after `_reduced_odd_angle` (0 at m = 0); the
    prefix at partial layer alpha sets it to alpha * theta.  Raises
    ValueError for m outside 0..M.
    """
    if not 0 <= m <= params.M:
        raise ValueError(f"prefix depth {m} outside 0..{params.M}")
    table = params.angles[:m].copy()
    theta = _reduced_odd_angle(table[-1, 0]) if m else 0.0
    table[-1:, 0] = 0.0  # no row at m = 0
    return table, theta


def scheduling_overlap(
    spec: LatticeSpec, params: DqapParams, m: int, chi: float, alpha: float = 1.0
) -> float:
    """Squared overlap of the m-layer circuit prefix with a ramp ground state.

    The prefix applies layers 1..m-1 in full and scales the odd-family
    angle of layer m by alpha (m = 0 is the bare dimer state).  That
    angle is first reduced modulo pi to its representative in
    (-pi/2, pi/2], which changes the state only by a global
    phase.  Used to read off which ramp point the circuit has reached
    after m layers.
    """
    table, theta = _prefix(spec, params, m)
    table[-1:, 0] = alpha * theta
    prefix = build_dqap_state(spec, DqapParams(table))
    return float(abs(overlap(SlaterState(_ground_orbitals(spec, chi)), prefix)) ** 2)


def _block_overlap(psi, u, angle):
    """The module docstring's block product for spinors psi, phases u (..., L/2) and odd angle(s).

    Shape shape(angle) + shape(u)[:-1]; the angles run in blocks of at
    most `_SCAN_ELEMENTS` amplitudes, or of one angle where it has more,
    so a block's temporaries stay in L2.  A block holds q on its second
    axis, so the product over q multiplies whole contiguous slabs, in the
    order of a per-row np.prod; how the rows are blocked changes no cell.
    """
    a, b = psi.T.reshape((2, -1) + (1,) * (u.ndim - 1))
    uc = np.ascontiguousarray(np.moveaxis(u, -1, 0)).conj()
    x, y = a + uc * b, b + uc * a  # (L/2,) + shape(u)[:-1]
    c, s = (np.reshape(v, (-1,) + (1,) * x.ndim) for v in _bond_block(angle, "real"))
    out = np.empty(c.shape[:1] + x.shape[1:])
    rows = max(1, _SCAN_ELEMENTS // x.size)
    for i in range(0, len(out), rows):
        amp = c[i : i + rows] * x
        amp += s[i : i + rows] * y
        mag = np.abs(amp)
        mag **= 2
        mag *= 0.5
        np.prod(mag, axis=1, out=out[i : i + rows])
    return out.reshape(np.shape(angle) + x.shape[1:])


def _scan_blocks(spec, psi, theta, chis, alphas):
    """(f, chi, alpha) at the first maximum of `_block_overlap` on the alpha-major grid."""
    grid = _block_overlap(psi, _ground_phase(spec, chis), alphas * theta)
    i, j = np.unravel_index(np.argmax(grid), grid.shape)
    return float(grid[i, j]), float(chis[j]), float(alphas[i])


def _window(centre, step):
    """`_WINDOW` steps either side of centre, clipped to [0, `_GRID_BOUND`]."""
    return np.clip(centre + step * np.arange(-_WINDOW, _WINDOW + 1), 0.0, _GRID_BOUND)


def maximize_overlap(spec: LatticeSpec, params: DqapParams, m: int, alpha: float | None = None):
    """Best (chi, alpha) for the m-layer prefix by a grid scan and finer windows.

    Scans chi (and alpha unless fixed) over [0, 1.5] in steps of 0.01,
    then 10 steps either side of the best point, clipped to [0, 1.5], at
    steps 1e-3, 1e-4 and 1e-5, a free alpha together with chi.  Every
    alpha ties at chi = 0 (the dimer target), so a free alpha's grid
    starts at 0.01.  As in `scheduling_overlap`, alpha scales the last
    odd-family angle reduced to (-pi/2, pi/2], so tables whose
    odd angles differ by multiples of pi agree.  At m = 0 the prefix is
    the dimer state, which no alpha changes; a free alpha is then
    reported as 1.  The search runs on the blocks; overlap_sq is
    `scheduling_overlap` at the optimum.  Returns (chi, alpha, overlap_sq).
    """
    if m == 0 and alpha is None:
        alpha = 1.0  # the dimer prefix does not depend on alpha
    table, theta = _prefix(spec, params, m)
    psi = _block_pass(spec, DqapParams(table), "real")[0][-1].T
    alphas = _GRID_CHIS if alpha is None else np.array([alpha])
    chis = _GRID_CHIS[1:] if alpha is None else _GRID_CHIS
    _, chi, al = _scan_blocks(spec, psi, theta, chis, alphas)
    for step in _REFINE_STEPS:
        if alpha is None:
            alphas = _window(al, step)
        _, chi, al = _scan_blocks(spec, psi, theta, _window(chi, step), alphas)
    return chi, al, scheduling_overlap(spec, params, m, chi, al)

