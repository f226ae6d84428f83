"""Layered bond-alternation circuits and their parameter derivatives.

One circuit layer applies the even-family exponential first, then the
odd-family one.  With M layers and two angles per layer there are
K = 2M parameters; the flat ordering follows application order,

    k = 0, 1, 2, 3, ...  ->  even(1), odd(1), even(2), odd(2), ...

One table type, `DqapParams`, serves both modes: the same angles are
real-time angles or imaginary-time steps depending on which build
function (or which `mode` argument) the caller picks.

One forward pass, `_forward_pass`, is the only real-space loop over
half-layers: it yields the dimer state and then the state after each
half-layer, each applied by `slater.apply_bond_layer`.  Its readers are
`build_dqap_state` and `build_imag_state`, which keep its last state, and
`intermediate_states`, which keeps every second one; the partial-layer
prefixes of `adiabatic` are `build_dqap_state` on a truncated table.

One block pass, `_block_pass`, runs the circuit on the Bloch blocks
instead.  The dimer state, both bond families and the boundary twist are
invariant under translation by two sites, so the circuit state puts one
fermion in each cell momentum q (`lattice`): an (L/2, 2) spinor array,
starting from (1, 1)/sqrt 2, the layout `adiabatic.magnus_step` uses.
Half-layer k multiplies every block by c + s [[0, z], [z*, 0]], with
(c, s) from one `slater._bond_block` call on all angles, z = e^{-iq}
for the even family and z = 1 for the odd one.  The pass holds its rows
component-major, (2, rows, L/2), so a half-layer is one in-place swap
rotation, psi <- c psi + s (z, z*) psi[::-1], with the pairs (z, z*)
cached per chain (`_phase_pairs`) and s (z, z*) formed for all half-layers
at once.  The pass has two readers:

- `state_and_derivatives`, the derivative engine.  The same block
  transports the derivatives created so far, and derivative k is seeded
  with the generator -i V_q (real) or -V_q (imag) applied to the rotated
  spinors, V_q = -[[0, z], [z*, 0]].  Every derivative therefore ends
  in the final frame, at total cost O(M^2 L) without any backward pass.
- `block_energy`, the state alone at cost O(M L), and its energy
  sum_q <psi_q|H_q|psi_q>: the optimizer's line-search energy.

In imaginary mode every half-layer ends by dividing each block, and its
live derivatives, by the block's norm.  The natural-gradient metric and
force are invariant under G -> GX, dG -> dG X for any invertible column
change X, and this one is diagonal, so it changes no result; it keeps
the state normalized (the norm is dropped, not stored), so the optimizer
uses the same normalized formulas in both modes.  A block that cancels
exactly (cosh = sinh to rounding above |angle| ~ 19) has norm 0 and
raises `SingularOverlapError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SingularOverlapError
from .lattice import LatticeSpec, _block_hopping, _cell_momenta, initial_state
from .slater import SlaterState, _bond_block, apply_bond_layer

_SUPPORT_TOL = 1e-12  # magnitude above which orbital_support counts an entry


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
        return self.angles[:, ::-1].reshape(-1).copy()

    @classmethod
    def from_flat(cls, flat):
        flat = np.asarray(flat, dtype=float)
        return cls(flat.reshape(-1, 2)[:, ::-1])


def _forward_pass(spec: LatticeSpec, table, mode: str):
    """Yield the dimer state, then the state after each half-layer of `table`.

    `table` has the (M, 2) layout of `DqapParams.angles`; 2M + 1 states
    are yielded in application order.  Readers that need only the last
    state should iterate and keep it, so that earlier states can be freed.
    """
    state = SlaterState(initial_state(spec))
    yield state
    # The flat table runs even(1), odd(1), even(2), ...: family 2, 1, 2, ...
    for k, ang in enumerate(table[:, ::-1].ravel()):
        state = apply_bond_layer(state, 2 - k % 2, ang, spec, mode=mode)
        yield state


def build_dqap_state(spec: LatticeSpec, params: DqapParams) -> SlaterState:
    """Apply the M-layer real-time circuit to the dimer state."""
    for state in _forward_pass(spec, params.angles, "real"):
        pass
    return state


def build_imag_state(spec: LatticeSpec, params: DqapParams) -> SlaterState:
    """Apply the M-layer imaginary-time circuit to the dimer state."""
    for state in _forward_pass(spec, params.angles, "imag"):
        pass
    return state


def intermediate_states(spec: LatticeSpec, params: DqapParams):
    """States after 0, 1, ..., M full layers (M+1 entries)."""
    return list(_forward_pass(spec, params.angles, "real"))[::2]


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


def _block_pass(spec: LatticeSpec, params: DqapParams, mode: str, rows: int) -> np.ndarray:
    """Bloch blocks after the circuit, shape (rows, L/2, 2).

    Row 0 is the state; with rows = 2M + 1, row k + 1 is its derivative
    by flat angle k, and with rows = 1 the pass carries the state alone.
    Each half-layer swap-rotates the live rows in place, seeds the
    derivative it creates where there is a row for it, and in imaginary
    mode divides the live rows by the state block's norm (module docstring).
    """
    pairs, seeds = _phase_pairs(spec.L, spec.gamma, mode)
    c, s = _bond_block(params.flatten(), mode)
    sz = (s.reshape(-1, 2, 1, 1, 1) * pairs).reshape(-1, *pairs.shape[1:])
    st = np.zeros((2, rows, spec.N), dtype=complex)
    st[:, 0] = np.sqrt(0.5)
    swapped = np.empty_like(st)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, (ck, szk) in enumerate(zip(c, sz)):
            live = st[:, : k + 1]
            np.multiply(szk, live[::-1], out=swapped[:, : k + 1])
            live *= ck
            live += swapped[:, : k + 1]
            if k + 1 < rows:
                np.multiply(seeds[k % 2], st[::-1, :1], out=st[:, k + 1 : k + 2])
            if mode == "imag":
                st[:, : k + 2] /= np.hypot(np.abs(st[0, 0]), np.abs(st[1, 0]))
    if mode == "imag" and not np.isfinite(st[:, 0]).all():  # a zero norm left NaN
        raise SingularOverlapError("a Bloch block's norm underflows to zero")
    return st.transpose(1, 2, 0)


def state_and_derivatives(spec: LatticeSpec, params: DqapParams, mode="real"):
    """Final Bloch spinors plus all K = 2M parameter derivatives in one pass.

    Returns
    -------
    (spinors, derivs) : complex arrays (L/2, 2) and (K, L/2, 2).
        Row n of `spinors` holds the sublattice amplitudes of cell
        momentum q_n (`lattice._bloch_orbitals` maps them to real-space
        orbitals); derivs[k] is their derivative by flat parameter k, in
        the same column basis.  Every block has unit norm in both modes
        (module docstring).

    Raises
    ------
    SingularOverlapError
        In imaginary mode, if a block coefficient overflows or a block's norm is 0.
    """
    stack = _block_pass(spec, params, mode, 2 * params.M + 1)
    return stack[0], stack[1:]


def block_energy(spec: LatticeSpec, params: DqapParams, mode="real") -> float:
    """Hopping energy of the circuit state from its Bloch blocks alone.

    E = sum_q 2 Re(conj(psi_q0) h01_q psi_q1), with h01_q the hopping
    entry of H_q (`lattice._block_hopping`) and psi_q the unit-norm
    block of a state-only pass: no derivatives, no real-space orbitals.
    It equals `slater.energy_expectation` of the built state up to
    rounding.

    Raises
    ------
    SingularOverlapError
        In imaginary mode, if a block coefficient overflows or a block's norm is 0.
    """
    psi = _block_pass(spec, params, mode, 1)[0]
    return 2.0 * float(np.sum((psi[:, 0].conj() * _block_hopping(spec) * psi[:, 1]).real))


def orbital_support(state: SlaterState) -> np.ndarray:
    """Minimal cyclic window length holding each orbital's support.

    An entry counts as occupied when its magnitude exceeds 1e-12.
    The window is cyclic: support {L-1, 0} has extent 2.  Returns an
    int array of length N.
    """
    L = state.L
    out = np.zeros(state.N, dtype=int)
    mag = np.abs(state.orbitals) > _SUPPORT_TOL
    for n in range(state.N):
        pos = np.flatnonzero(mag[:, n])
        if len(pos) == 0:
            continue
        if len(pos) == 1:
            out[n] = 1
            continue
        gaps = np.diff(pos)
        wrap = pos[0] + L - pos[-1]
        out[n] = L - max(gaps.max(), wrap) + 1
    return out
