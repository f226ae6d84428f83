"""Layered bond-alternation circuits and their parameter derivatives.

One circuit layer applies the even-family exponential first, then the
odd-family one.  With M layers and two angles per layer there are
K = 2M parameters; the flat ordering follows application order,

    k = 0, 1, 2, 3, ...  ->  even(1), odd(1), even(2), odd(2), ...

One table type, `DqapParams`, serves both modes: the same angles are
real-time angles or imaginary-time steps depending on which build
function (or which `mode` argument) the caller picks.

States come from one forward pass, `_forward_pass`: it yields the
dimer state and then the state after each half-layer, each half-layer
applied by `slater.apply_bond_layer`.  The two circuit builders keep
its last state, `intermediate_states` keeps every second one, and the
partial-layer prefixes of `adiabatic` run it on a truncated table.

The derivative engine, `state_and_derivatives`, walks the same
half-layer sequence once more, because it carries the derivative
stacks along.  It shares the bond block with `apply_bond_layer`: the
same 2x2 coefficients, the same in-place row update and the same QR
step act on the state and on the derivatives.  After each half-layer
it transports the already-created derivative stacks with the state's
rotation, then seeds the new derivative with the bond generator
applied to the current prefix state.  Every seed therefore
ends in the final frame, at total cost O(M^2 L N) without any
backward pass.

In imaginary mode every half-layer ends with a QR step, G = QR: the
prefix state becomes Q and all live derivative stacks are multiplied by
R^-1 in the same step.  The natural-gradient metric, force and energy
are invariant under G -> GX, dG -> dG X for any invertible X, so this
changes no result; it keeps the state orthonormal, so the optimizer
uses the same normalized formulas in both modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import LatticeSpec, bond_pairs, initial_state
from .slater import (
    SlaterState,
    _bond_block,
    _orthonormalize,
    _rotate_rows,
    apply_bond_layer,
)


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

    def with_flat(self, flat) -> "DqapParams":
        return DqapParams.from_flat(flat)


def _half_layers(table):
    """(family, angle) pairs in application order."""
    out = []
    for m in range(table.shape[0]):
        out.append((2, table[m, 1]))
        out.append((1, table[m, 0]))
    return out


def _forward_pass(spec: LatticeSpec, table, mode: str):
    """Yield the dimer state, then the state after each half-layer of `table`.

    `table` has the (M, 2) layout of `DqapParams.angles`; 2M + 1 states
    are yielded in application order.  Readers that need only the last
    state should iterate and keep it, so that earlier states can be freed.
    """
    state = SlaterState(initial_state(spec))
    yield state
    for family, ang in _half_layers(table):
        state = apply_bond_layer(state, family, ang, spec, mode=mode)
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


def _apply_generator(orb, a, b, w, t):
    """Bond-family generator -t*w*(c+_a c_b + h.c.) acting on orbitals."""
    out = np.zeros_like(orb)
    out[a] = -t * w[:, None] * orb[b]
    out[b] = -t * w[:, None] * orb[a]
    return out


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
    # stack[0] is the state's orbital matrix, stack[1 + k] the derivative
    # by flat parameter k.  The state and the live derivatives are rotated
    # as two arrays: a single rotation over both spills its temporaries out
    # of cache one depth sooner (about 10% slower at L=160, M=3, 2-vCPU VM).
    stack = np.zeros((2 * params.M + 1, spec.L, spec.N), dtype=complex)
    stack[0] = initial_state(spec)
    pairs = {f: bond_pairs(spec, f) for f in (1, 2)}
    factor = -1j if mode == "real" else -1.0
    log_scale = 0.0
    for k, (family, ang) in enumerate(_half_layers(params.angles), start=1):
        a, b, w = pairs[family]
        c, s = _bond_block(spec, ang, w, mode)
        _rotate_rows(stack[0], a, b, c, s)
        if k > 1:
            _rotate_rows(stack[1:k], a, b, c, s)
        stack[k] = factor * _apply_generator(stack[0], a, b, w, spec.t)
        if mode == "imag":
            log_scale += _orthonormalize(stack[: k + 1])
    state = SlaterState(stack[0], log_scale=log_scale)
    return state, stack[1:]


def orbital_support(state: SlaterState, threshold: float = 1e-12) -> np.ndarray:
    """Minimal cyclic window length holding each orbital's support.

    An entry counts as occupied when its magnitude exceeds `threshold`.
    The window is cyclic: support {L-1, 0} has extent 2.  Returns an
    int array of length N.
    """
    L = state.L
    out = np.zeros(state.N, dtype=int)
    mag = np.abs(state.orbitals) > threshold
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
