"""Layered bond-alternation circuits and their parameter derivatives.

One circuit layer applies the even-family exponential first, then the
odd-family one.  With M layers and two angles per layer there are
K = 2M parameters; the flat ordering follows application order,

    k = 0, 1, 2, 3, ...  ->  even(1), odd(1), even(2), odd(2), ...

One table type, `DqapParams`, serves both modes: the same angles are
real-time angles or imaginary-time steps depending on which build
function (or which `mode` argument) the caller picks.

One forward pass, `_forward_pass`, is the only loop over half-layers:
it yields the dimer state and then the state after each half-layer,
each applied by `slater.apply_bond_layer`.  The two circuit builders
keep its last state, `intermediate_states` keeps every second one, and
the partial-layer prefixes of `adiabatic` run it on a truncated table.
The derivative engine, `state_and_derivatives`, runs the same pass with
a (K, L, N) derivative array: at half-layer k the layer receives slices
0..k as its tangents, transports the derivatives created so far with
the state's own 2x2 blocks and seeds slice k with the bond generator
applied to the rotated state.  Every derivative therefore ends in the
final frame, at total cost O(M^2 L N) without any backward pass.

In imaginary mode every half-layer ends with a QR step, G = QR: the
prefix state becomes Q and all live derivatives are multiplied by
R^-1 in the same step.  The natural-gradient metric, force and energy
are invariant under G -> GX, dG -> dG X for any invertible X, so this
changes no result.  It keeps the state normalized (the norm det R is
dropped, not stored), so the optimizer uses the same normalized
formulas in both modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import LatticeSpec, initial_state
from .slater import SlaterState, apply_bond_layer

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


def _forward_pass(spec: LatticeSpec, table, mode: str, derivs=None):
    """Yield the dimer state, then the state after each half-layer of `table`.

    `table` has the (M, 2) layout of `DqapParams.angles`; 2M + 1 states
    are yielded in application order.  Readers that need only the last
    state should iterate and keep it, so that earlier states can be freed.
    With a (2M, L, N) array `derivs`, half-layer k updates `derivs[:k+1]`
    as its tangents (`slater.apply_bond_layer`), so after the last one
    derivs[k] is the derivative of the last state by flat angle k.
    """
    state = SlaterState(initial_state(spec))
    yield state
    # The flat table runs even(1), odd(1), even(2), ...: family 2, 1, 2, ...
    for k, ang in enumerate(table[:, ::-1].ravel()):
        tangents = None if derivs is None else derivs[: k + 1]
        state = apply_bond_layer(state, 2 - k % 2, ang, spec, mode=mode, tangents=tangents)
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


def state_and_derivatives(spec: LatticeSpec, params: DqapParams, mode="real"):
    """Final state plus all K = 2M parameter derivatives in one pass.

    Returns
    -------
    (state, derivs) : SlaterState and complex array (K, L, N).
        derivs[k] is the derivative of the final orbital matrix with
        respect to flat parameter k, in the same column basis as the
        state (imaginary mode re-orthonormalizes both together, so the
        state is normalized in both modes).
    """
    # The state and the derivatives stay two arrays: a single rotation over
    # both spills its temporaries out of cache one depth sooner (about 10%
    # slower at L=160, M=3, 2-vCPU VM).
    derivs = np.empty((2 * params.M, spec.L, spec.N), dtype=complex)
    for state in _forward_pass(spec, params.angles, mode, derivs):
        pass
    return state, derivs


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
