"""Free-fermion chain geometry and quadratic Hamiltonians.

The chain has L sites (L even), hopping amplitude t, and a boundary
phase gamma: +1 for periodic, -1 for antiperiodic closure.  The full
hopping operator splits into two checkerboard bond families,

    odd family   : bonds (1,2), (3,4), ..., (L-1,L)     [1-based]
    even family  : bonds (2,3), (4,5), ..., (L-2,L-1) and the
                   boundary bond (L,1) carrying weight gamma,

so that their sum is the nearest-neighbour Hamiltonian.  Internally all
site indices are 0-based; file output and documentation use 1-based
labels.

Half filling N = L/2 closes a shell for gamma = -1 when N is even and
for gamma = +1 when N is odd; the ground-state builder checks the
actual Fermi gap rather than the parity rule so that non-half-filled
cases are handled uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OpenShellError

# Degeneracy threshold for the shell check, in units of t.
_GAP_TOL = 1e-10


@dataclass(frozen=True)
class LatticeSpec:
    """Chain geometry: site count L, fermion number N, boundary phase, hopping t."""

    L: int
    N: int
    gamma: int = -1
    t: float = 1.0

    def __post_init__(self):
        if self.L < 2 or self.L % 2:
            raise ValueError(f"L must be even and >= 2, got {self.L}")
        if not 0 < self.N <= self.L:
            raise ValueError(f"N must lie in (0, L], got N={self.N}")
        if self.gamma not in (+1, -1):
            raise ValueError(f"gamma must be +1 or -1, got {self.gamma}")
        if self.t <= 0:
            raise ValueError(f"t must be positive, got {self.t}")

    @classmethod
    def half_filling(cls, L, gamma=-1, t=1.0):
        return cls(L=L, N=L // 2, gamma=gamma, t=t)

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
        Each pair contributes -t * w * (c+_a c_b + c+_b c_a).  The
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


def _bond_matrix(spec, family):
    a, b, w = bond_pairs(spec, family)
    h = np.zeros((spec.L, spec.L))
    h[a, b] = -spec.t * w
    h[b, a] = -spec.t * w
    return h


def build_v1(spec: LatticeSpec) -> np.ndarray:
    """Hopping matrix of the odd bond family (dimer pattern)."""
    return _bond_matrix(spec, 1)


def build_v2(spec: LatticeSpec) -> np.ndarray:
    """Hopping matrix of the even bond family, including the boundary bond."""
    return _bond_matrix(spec, 2)


def build_hamiltonian(spec: LatticeSpec) -> np.ndarray:
    """Full nearest-neighbour hopping matrix, the sum of both families."""
    return build_v1(spec) + build_v2(spec)


def single_particle_spectrum(spec: LatticeSpec) -> np.ndarray:
    """Eigenvalues of the hopping matrix, ascending."""
    return np.linalg.eigvalsh(build_hamiltonian(spec))


def exact_ground_state(spec: LatticeSpec):
    """Ground-state orbitals and energy of the quadratic Hamiltonian.

    Fills the N lowest single-particle levels.  Raises OpenShellError
    when levels N and N+1 are degenerate within 1e-10 * t, since the
    determinant state is then not unique.

    Returns
    -------
    (orbitals, energy) : (L, N) float array of eigenvectors, float.
    """
    h = build_hamiltonian(spec)
    vals, vecs = np.linalg.eigh(h)
    gap = vals[spec.N] - vals[spec.N - 1] if spec.N < spec.L else np.inf
    if gap < _GAP_TOL * spec.t:
        raise OpenShellError(
            f"levels {spec.N} and {spec.N + 1} degenerate (gap {gap:.3e}) "
            f"for L={spec.L}, N={spec.N}, {spec.boundary}"
        )
    return vecs[:, : spec.N].copy(), float(vals[: spec.N].sum())


def initial_state(spec: LatticeSpec) -> np.ndarray:
    """Orbital matrix of the dimer product state.

    Column n holds amplitude 1/sqrt(2) on the two sites of the n-th odd
    bond, so the state is the ground state of the odd bond family alone
    with energy -t * L/2.  Requires N = L/2.
    """
    if spec.N != spec.L // 2:
        raise ValueError(f"dimer state needs N = L/2, got N={spec.N}, L={spec.L}")
    psi = np.zeros((spec.L, spec.N))
    n = np.arange(spec.N)
    psi[2 * n, n] = 1.0
    psi[2 * n + 1, n] = 1.0
    return psi / np.sqrt(2.0)
