"""Layered bond-alternation circuits and their parameter derivatives.

One circuit layer applies the even-family exponential first, then the
odd-family one.  With M layers and two angles per layer there are
K = 2M parameters; the flat ordering follows application order,

    k = 0, 1, 2, 3, ...  ->  even(1), odd(1), even(2), odd(2), ...

One table type, `DqapParams`, serves both modes: the same angles are
real-time angles or imaginary-time steps depending on which build
function (or which `mode` argument) the caller picks.

One forward pass, `_forward_pass`, is the only real-space loop over
half-layers: it applies each half-layer to the dimer state with
`slater.apply_bond_layer` and returns the last state.  Its two readers
are `build_dqap_state` and `build_imag_state`; the partial-layer
prefixes of `adiabatic` are `build_dqap_state` on a truncated table.
In real mode the pass evolves the first dimer orbital c alone, as an
(L, 1) state.  Both bond families commute with the twisted translation
T_gamma, a shift by two sites whose entries that wrap past the boundary
take the factor gamma (the two-site invariance `_block_pass` rests on);
column n of the dimer state is T_gamma^n c, and a real-time half-layer
acts on each column alone, so column n of the circuit state is
T_gamma^n c as well, with the same cyclic extent.  The builders expand
only the state they keep (`_translates`), as one copy of a strided view
of the length-2L array [gamma c, c].  Multiplying by gamma = +-1 is exact, so the
expansion equals the N-column pass bit for bit.  Imaginary mode keeps all
N columns, because its QR step couples them.

One block pass, `_block_pass`, runs the circuit on the Bloch blocks
instead.  The dimer state, both bond families and the boundary twist are
invariant under translation by two sites, so the circuit state puts one
fermion in each cell momentum q (`lattice`): an (L/2, 2) spinor array,
starting from (1, 1)/sqrt 2, the layout `adiabatic.magnus_step` uses.
Half-layer k multiplies every block by B_k = c + s [[0, z], [z*, 0]],
with (c, s) from one `slater._bond_block` call on all angles, z = e^{-iq}
for the even family and z = 1 for the odd one.  The pass keeps every
half-layer: row k + 1 of its (2M + 1, 2, L/2) stack holds the blocks
after half-layer k, component-major.  One loop over (c, s (z, z*),
row k, row k + 1) writes it in place as s (z, z*) psi[::-1], then adds
c psi: no scratch array, and since IEEE addition commutes it is
c psi + s (z, z*) psi[::-1] bit for bit.  The pairs (z, z*) are cached
per chain (`_phase_pairs`).  The stack is read-only and memoized
on (L, gamma, mode, table) for one table, so the pass of the last
line-search trial the optimizer accepts is the pass its next
`state_and_derivatives` reads.  The pass has four readers:

- `block_energy`, the last row's energy sum_q <psi_q|H_q|psi_q>: the
  optimizer's line-search energy.
- `state_and_derivatives`, the derivative engine, in closed form at
  cost O(M L).  Every B_k has determinant c^2 - s^2 = 1 in both modes,
  and for a 2x2 matrix U of determinant 1, U^T J U = J with
  J = [[0, 1], [-1, 0]].  So with v_k the blocks after half-layer k,
  g_k = G_k v_k their image under the generator G_k = -i V_q (real) or
  -V_q (imag), V_q = -[[0, z], [z*, 0]], and psi the final blocks, the
  weight of derivative k on psi_perp = (-psi_1*, psi_0*) is

      t_k = psi^T J d_k psi = v_k^T J g_k.

  The natural-gradient metric and force are unchanged by adding a
  per-block multiple of psi to a derivative, so they read t_k alone: the
  engine returns the (K, L/2) weights t_k and no derivative vectors.
- `adiabatic.maximize_overlap`, the last row of a prefix table.
- `orbital_extents`, the rows after each full layer.  Entry 2j + a of
  the first real-mode orbital is (1/N) sum_q e^{iqj} psi_{q,a}, the
  dimer orbital of cell 0 carried through the blocks.  With
  q = (2 pi n + phi)/N that is e^{i phi j/N} times entry j of the
  inverse DFT over n of psi_{q_n,a} (`np.fft.ifft`); the phase leaves
  every magnitude, so the extent is read off the blocks.

In imaginary mode every half-layer ends by dividing each block by its
norm n_k, which the pass keeps, (2M, L/2).  Derivative k is then the
derivative of the unnormalized circuit over the same norms, so t_k
takes the factor prod_{j>k} n_j^{-2}, formed as exp(-2 sum_{j>k} log n_j)
because the product itself overflows in deep tables.  The division keeps
the state normalized (the norms are not part of the state), so the
optimizer uses the same normalized formulas in both modes.  A block that
cancels exactly (cosh = sinh to rounding above |angle| ~ 19) has norm 0
and raises `SingularOverlapError`.  Real mode divides nothing, so only
the imaginary loop runs under `np.errstate`, where 0/0 leaves a NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SingularOverlapError
from .lattice import LatticeSpec, _block_hopping, _cell_momenta, initial_state
from .slater import SlaterState, _bond_block, apply_bond_layer

_SUPPORT_TOL = 1e-12  # magnitude above which orbital_extents counts a site


def _as_table(values, name):
    tab = np.asarray(values, dtype=float)
    if tab.ndim != 2 or tab.shape[1] != 2:
        raise ValueError(f"{name} must have shape (M, 2), got {tab.shape}")
    return tab


@dataclass
class DqapParams:
    """Layer angles, shape (M, 2): column 0 odd family, column 1 even.

    The table carries no mode: `build_dqap_state` reads it as real-time
    angles, `build_imag_state` as imaginary-time steps.
    """

    angles: np.ndarray

    def __post_init__(self):
        self.angles = _as_table(self.angles, "angles")

    @property
    def M(self) -> int:
        return self.angles.shape[0]

    def flatten(self) -> np.ndarray:
        """Flat vector in application order: even(1), odd(1), even(2), ..."""
        return self.angles[:, ::-1].flatten()

    @classmethod
    def from_flat(cls, flat):
        flat = np.asarray(flat, dtype=float)
        return cls(flat.reshape(-1, 2)[:, ::-1])


def _forward_pass(spec: LatticeSpec, table, mode: str) -> SlaterState:
    """The dimer state carried through every half-layer of `table`, in application order.

    `table` has the (M, 2) layout of `DqapParams.angles`.  In real mode
    the state holds the first orbital alone, (L, 1), which `_translates`
    expands; in imaginary mode it holds all N.
    """
    orbitals = initial_state(spec)
    state = SlaterState(orbitals if mode == "imag" else orbitals[:, :1])
    # The flat table runs even(1), odd(1), even(2), ...: family 2, 1, 2, ...
    for k, ang in enumerate(table[:, ::-1].ravel()):
        state = apply_bond_layer(state, 2 - k % 2, ang, spec, mode=mode)
    return state


def _translates(spec: LatticeSpec, state: SlaterState) -> SlaterState:
    """The (L, N) state whose column n is T_gamma^n of the one orbital of `state`.

    Entry (i, n) is c[i - 2n], times gamma where i - 2n < 0: element
    L + i - 2n of the length-2L array [gamma c, c].
    """
    c = state.orbitals[:, 0]
    L = spec.L
    twisted = np.concatenate((spec.gamma * c, c))
    step = twisted.itemsize
    view = np.lib.stride_tricks.as_strided(twisted[L:], (L, spec.N), (step, -2 * step))
    return SlaterState(view.copy())


def build_dqap_state(spec: LatticeSpec, params: DqapParams) -> SlaterState:
    """Apply the M-layer real-time circuit to the dimer state.

    The pass evolves the first dimer orbital alone; column n of the
    result is its twisted translate T_gamma^n, a shift by 2n sites with
    the entries that wrap past the boundary times gamma (module
    docstring), equal bit for bit to evolving all N columns.
    """
    return _translates(spec, _forward_pass(spec, params.angles, "real"))


def build_imag_state(spec: LatticeSpec, params: DqapParams) -> SlaterState:
    """Apply the M-layer imaginary-time circuit to the dimer state."""
    return _forward_pass(spec, params.angles, "imag")


@lru_cache(maxsize=16)
def _phase_pairs(L, gamma, mode):
    """(z, z*) of the even and odd family (z = 1), (2, 2, 1, L/2), and gen times them; read-only."""
    emiq = _cell_momenta(L, gamma)[1]
    pairs = np.ones((2, 2, 1, L // 2), dtype=complex)
    pairs[0] = np.stack((emiq, emiq.conj()))[:, None]
    seeds = (1j if mode == "real" else 1.0) * pairs  # gen: -i V_q (real) or -V_q (imag)
    for arr in (pairs, seeds):
        arr.flags.writeable = False  # shared by every caller through the cache
    return pairs, seeds


def _block_pass(spec: LatticeSpec, params: DqapParams, mode: str):
    """Bloch blocks after every half-layer, and in imaginary mode their norms.

    Returns (rows, norms): rows (2M + 1, 2, L/2), row 0 the dimer
    blocks and row k + 1 the blocks after half-layer k, component-major;
    norms (2M, L/2), the norms n_k that imaginary mode divides the blocks
    of half-layer k by, and None in real mode.  Both are read-only and
    shared through `_table_pass`'s one-entry cache.
    """
    return _table_pass(spec.L, spec.gamma, mode, params.flatten().tobytes())


@lru_cache(maxsize=1)
def _table_pass(L, gamma, mode, flat):
    """`_block_pass` on the flat table whose float64 bytes are `flat`."""
    pairs, _ = _phase_pairs(L, gamma, mode)
    c, s = _bond_block(np.frombuffer(flat), mode)
    sz = (s.reshape(-1, 2, 1, 1, 1) * pairs).reshape(-1, 2, L // 2)
    rows = np.empty((len(c) + 1, 2, L // 2), dtype=complex)
    rows[0] = np.sqrt(0.5)
    norms = np.empty((len(c), L // 2)) if mode == "imag" else None
    steps = zip(c.tolist(), sz, rows[:-1], rows[1:])
    if mode == "real":
        for ck, szk, prev, cur in steps:
            np.multiply(szk, prev[::-1], out=cur)
            cur += ck * prev
    else:
        mag = np.empty((2, L // 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            for (ck, szk, prev, cur), nk in zip(steps, norms):
                np.multiply(szk, prev[::-1], out=cur)
                cur += ck * prev
                np.abs(cur, out=mag)
                np.hypot(mag[0], mag[1], out=nk)
                cur /= nk
        if not np.isfinite(rows[-1]).all():  # a zero norm left NaN
            raise SingularOverlapError("a Bloch block's norm underflows to zero")
    for arr in (rows, norms):
        if arr is not None:
            arr.flags.writeable = False  # shared by every caller through the cache
    return rows, norms


def state_and_derivatives(spec: LatticeSpec, params: DqapParams, mode="real"):
    """Final Bloch spinors plus the tangent weights of all K = 2M parameter derivatives.

    Returns
    -------
    (spinors, tangents) : complex arrays (L/2, 2) and (K, L/2).
        Row n of `spinors` holds the sublattice amplitudes of cell
        momentum q_n (`lattice._bloch_orbitals` maps them to real-space
        orbitals); every block has unit norm in both modes.
        tangents[k, n] = t_k = psi^T J d_k psi, the weight of the
        derivative by flat parameter k on psi_perp = (-psi_1*, psi_0*)
        at q_n, in closed form (module docstring); in imaginary mode it
        includes the suffix scale of the norms.  It is the only part of
        the derivative the metric and force read.  `spinors` is a
        read-only view of the cached pass.

    Raises
    ------
    SingularOverlapError
        In imaginary mode, if a block coefficient overflows or a block's norm is 0.
    """
    rows, norms = _block_pass(spec, params, mode)
    v = rows[1:].reshape(params.M, 2, 2, spec.N)  # (layer, family, component, q)
    v0, v1 = v[:, :, 0], v[:, :, 1]
    gen = _phase_pairs(spec.L, spec.gamma, mode)[1].reshape(2, 2, spec.N)
    tangents = (v0 * (gen[:, 1] * v0) - v1 * (gen[:, 0] * v1)).reshape(-1, spec.N)
    if mode == "imag":
        log_n = np.log(norms)
        suffix = np.zeros_like(log_n)  # sum_{j > k} log n_j
        suffix[:-1] = np.cumsum(log_n[::-1], axis=0)[::-1][1:]
        tangents *= np.exp(-2.0 * suffix)
    return rows[-1].T, tangents


def block_energy(spec: LatticeSpec, params: DqapParams, mode="real") -> float:
    """Hopping energy of the circuit state from its Bloch blocks alone.

    E = sum_q 2 Re(conj(psi_q0) h01_q psi_q1), with h01_q the hopping
    entry of H_q (`lattice._block_hopping`) and psi_q the unit-norm
    block of the last row of the pass: no real-space orbitals.
    It equals `slater.energy_expectation` of the built state up to
    rounding.

    Raises
    ------
    SingularOverlapError
        In imaginary mode, if a block coefficient overflows or a block's norm is 0.
    """
    psi = _block_pass(spec, params, mode)[0][-1]
    return 2.0 * float((psi[0].conj() * _block_hopping(spec) * psi[1]).real.sum())


def orbital_extents(spec: LatticeSpec, params: DqapParams) -> list[int]:
    """Cyclic extent of the real-mode orbitals after each full layer: M + 1 ints.

    Every orbital is a twisted translate of the first, so all N share
    one extent; the first is, up to a phase per site, the inverse DFT
    over q of the blocks of `_block_pass` (module docstring).  A site
    counts when its magnitude exceeds 1e-12, and the window is cyclic:
    support {L-1, 0} has extent 2.
    """
    from numpy.fft import ifft  # loaded on the first call, not at import

    rows = _block_pass(spec, params, "real")[0][::2]
    # site 2j + a has the magnitude of ifft(rows[layer, a])[j]
    mag = np.abs(ifft(rows, axis=-1)).transpose(0, 2, 1).reshape(-1, spec.L)
    extents = []
    for occupied in mag > _SUPPORT_TOL:
        pos = np.flatnonzero(occupied)
        gaps = np.diff(pos, append=pos[0] + spec.L)  # the last gap wraps around
        extents.append(spec.L + 1 - int(gaps.max()))
    return extents
