"""Free-fermion chain geometry, its hopping matrix and the exact ground state.

The chain has L sites (L even) holding N = L/2 fermions and a boundary
phase gamma: +1 for periodic, -1 for antiperiodic closure.  The hopping
amplitude is the unit of energy, t = 1, so every angle and ramp time is
in units of 1/t.  The full hopping operator splits into two
checkerboard bond families,

    odd family   : bonds (1,2), (3,4), ..., (L-1,L)     [1-based]
    even family  : bonds (2,3), (4,5), ..., (L-2,L-1) and the
                   boundary bond (L,1) carrying weight gamma,

so that their sum is the nearest-neighbour Hamiltonian.  Internally all
site indices are 0-based; file output and documentation use 1-based
labels.

Both families are invariant under translation by two sites, so V1 + chi V2
splits into L/2 independent 2 x 2 Bloch blocks.  Cell j holds sites
(2j, 2j+1); an orbital with amplitudes e^{iqj} (a, b) / sqrt(L/2) on them sees

    H_q(chi) = -[[0, 1 + chi e^{-iq}], [1 + chi e^{iq}, 0]],

where the boundary bond closes the chain with e^{iq L/2} = gamma, so
q = (2 pi n + phi) / (L/2), n = 0..L/2-1, with phi = 0 for periodic and
phi = pi for antiperiodic closure.  H_q(chi) has levels -+|z|,
z = 1 + chi e^{iq}, so the ground state of V1 + chi V2 puts every block in
its lower-band spinor (1, z/|z|)/sqrt 2 and has energy -sum_q |z|.  Its
shell is closed when every block gap 2|z| is at least 1e-10.  The exact
ground state is the chi = 1 case, closed for gamma = -1 when N is even and
for gamma = +1 when N is odd; the ramp in `adiabatic` reads the other chi.
No ground state comes from a dense diagonalization.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral, Real

import numpy as np

from .errors import OpenShellError

# Degeneracy threshold for the shell check.
_GAP_TOL = 1e-10


# Checks of config values, shared by every module: bools fail, numpy scalars pass.
def is_int(v):
    return isinstance(v, Integral) and not isinstance(v, bool)


def is_finite_nonnegative(v):
    real = isinstance(v, Real) and not isinstance(v, bool)
    return real and 0 <= v <= sys.float_info.max  # also rejects NaN


def is_finite_positive(v):
    return is_finite_nonnegative(v) and v > 0


@dataclass(frozen=True)
class LatticeSpec:
    """Chain geometry: site count L and boundary phase gamma; half filled."""

    L: int
    gamma: int = -1

    def __post_init__(self):
        if not (is_int(self.L) and self.L >= 2 and self.L % 2 == 0):
            raise ValueError(f"L must be an even int >= 2, got {self.L!r}")
        if not (is_int(self.gamma) and self.gamma in (+1, -1)):
            raise ValueError(f"gamma must be +1 or -1, got {self.gamma!r}")

    @classmethod
    def half_filling(cls, L, gamma=-1):
        """The spec LatticeSpec(L, gamma); every chain is half filled."""
        return cls(L=L, gamma=gamma)

    @property
    def N(self) -> int:
        """Fermion number, L/2."""
        return self.L // 2

    @property
    def boundary(self) -> str:
        return "pbc" if self.gamma == +1 else "apbc"


@lru_cache(maxsize=16)
def bond_pairs(spec: LatticeSpec, family: int):
    """Site-index pairs and weights of one checkerboard bond family.

    Parameters
    ----------
    spec : LatticeSpec
    family : int
        1 for the odd family (0-based pairs (0,1), (2,3), ...),
        2 for the even family (pairs (1,2), (3,4), ... plus the
        boundary pair (L-1, 0) with weight gamma).

    Returns
    -------
    (a, b, w) : int arrays of left/right sites and float weight array.
        Each pair contributes -w * (c+_a c_b + c+_b c_a).  The
        arrays are cached per (spec, family) and read-only.
    """
    L = spec.L
    if family == 1:
        a = np.arange(0, L, 2)
        b = a + 1
        w = np.ones(L // 2)
    elif family == 2:
        a = np.arange(1, L - 1, 2)
        b = a + 1
        a = np.append(a, L - 1)
        b = np.append(b, 0)
        w = np.ones(L // 2)
        w[-1] = spec.gamma
    else:
        raise ValueError(f"family must be 1 or 2, got {family}")
    for arr in (a, b, w):
        arr.flags.writeable = False  # shared by every caller through the cache
    return a, b, w


def build_hamiltonian(spec: LatticeSpec) -> np.ndarray:
    """Full nearest-neighbour hopping matrix, the sum of both bond families.

    Each family's pairs are subtracted in place: at L = 2 both families
    hold the pair (0, 1), and their weights add.
    """
    h = np.zeros((spec.L, spec.L))
    for family in (1, 2):
        a, b, w = bond_pairs(spec, family)
        h[a, b] -= w
        h[b, a] -= w
    return h


@lru_cache(maxsize=16)
def _cell_momenta(L, gamma):
    """Cell momenta q of an L-site chain with closure gamma, with e^{-iq} and sin q."""
    cells = L // 2
    phi = 0.0 if gamma == +1 else np.pi
    q = (2.0 * np.pi * np.arange(cells) + phi) / cells
    grid = (q, np.exp(-1j * q), np.sin(q))
    for arr in grid:
        arr.flags.writeable = False  # shared by every caller through the cache
    return grid


@lru_cache(maxsize=16)
def _block_hopping(spec):
    """Hopping entries h01_q = -(1 + e^{-iq}) of the Bloch blocks H_q, read-only."""
    h01 = -(1.0 + _cell_momenta(spec.L, spec.gamma)[1])
    h01.flags.writeable = False  # shared by every caller through the cache
    return h01


def _bloch_orbitals(spec, spinors):
    """Real-space (L, L/2) orbitals; column n is the Bloch wave of spinors[n]."""
    q = _cell_momenta(spec.L, spec.gamma)[0]
    cells = spec.L // 2
    phase = np.exp(1j * np.outer(np.arange(cells), q)) / np.sqrt(cells)
    # row 2j + a, column n: phase[j, n] * spinors[n, a]
    return (phase[:, None, :] * spinors.T).reshape(spec.L, cells)


def _ground_phase(spec, chi):
    """Unit phases u_q = z / |z|, z = 1 + chi e^{iq}, of the lower-band spinors of H_q(chi).

    The lower-band spinor of every block is (1, u_q)/sqrt 2.  `chi` is a
    scalar or an array; the result has shape shape(chi) + (L/2,).
    Raises OpenShellError where a block gap 2|z| is below 1e-10.
    """
    _, emiq, _ = _cell_momenta(spec.L, spec.gamma)
    z = 1.0 + np.multiply.outer(chi, emiq.conj())
    r = np.abs(z)
    gap = 2.0 * r.min()
    if gap < _GAP_TOL:
        raise OpenShellError(f"block gap {gap:.3e} for L={spec.L}, {spec.boundary}")
    return z / r


def _ground_orbitals(spec, chi):
    """(L, L/2) orbitals of the ground state of V1 + chi V2, for a scalar chi."""
    u = _ground_phase(spec, chi)
    return _bloch_orbitals(spec, np.stack((np.ones_like(u), u), axis=-1) * np.sqrt(0.5))


def exact_ground_energy(spec: LatticeSpec) -> float:
    """Ground-state energy -sum_q |1 + e^{iq}| of the chain at half filling, in O(L).

    Raises OpenShellError (through `_ground_phase`) when a block gap is
    below 1e-10, as `exact_ground_state` does.
    """
    _ground_phase(spec, 1.0)
    return -float(np.abs(_block_hopping(spec)).sum())


def exact_ground_state(spec: LatticeSpec):
    """Ground-state orbitals and energy of the chain at half filling.

    The chi = 1 case of `_ground_orbitals`: one lower-band Bloch orbital
    per cell momentum, with the energy of `exact_ground_energy` (module
    docstring).  Raises OpenShellError when a block gap is below
    1e-10, since the determinant state is then not unique.

    Returns
    -------
    (orbitals, energy) : (L, N) complex orthonormal array, float.
    """
    return _ground_orbitals(spec, 1.0), exact_ground_energy(spec)


def initial_state(spec: LatticeSpec) -> np.ndarray:
    """Orbital matrix of the dimer product state.

    Column n holds amplitude 1/sqrt(2) on the two sites of the n-th odd
    bond, so the state is the ground state of the odd bond family alone
    with energy -L/2.
    """
    psi = np.zeros((spec.L, spec.N))
    n = np.arange(spec.N)
    psi[2 * n, n] = 1.0
    psi[2 * n + 1, n] = 1.0
    return psi / np.sqrt(2.0)
