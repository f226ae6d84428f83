"""Brute-force many-body oracle in the occupation-number basis.

Everything here is deliberately naive: states are dense vectors over
all C(L, N) fermion configurations, operators are dense matrices, and
evolution goes through a full eigendecomposition.  The point is an
independent route to every quantity the determinant algebra produces,
usable as a cross-check at small sizes: a basis takes L <= 12 sites.

Conventions: bit x of a basis mask is site x (0-based); a mask encodes
the state c+_{x1} ... c+_{xN} |0> with x1 < ... < xN; basis vectors are
ordered by ascending mask value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SizeLimitExceeded
from .slater import SlaterState

# L <= 12 bounds the basis at C(12, 6) = 924 masks, so no dimension cap is needed
_MAX_SITES = 12
_MAX_SUBSYSTEM = 8


@dataclass(frozen=True)
class FockBasis:
    """All occupation masks for N fermions on L sites, ascending."""

    L: int
    N: int
    masks: np.ndarray

    @classmethod
    def build(cls, L, N):
        if L > _MAX_SITES:
            raise SizeLimitExceeded(f"L={L} exceeds the oracle cap of {_MAX_SITES}")
        masks = np.sort(
            np.fromiter(
                (sum(1 << x for x in c) for c in itertools.combinations(range(L), N)),
                dtype=np.int64,
                count=math.comb(L, N),
            )
        )
        return cls(L=L, N=N, masks=masks)

    @property
    def dim(self) -> int:
        return len(self.masks)

    def index(self, mask: int) -> int:
        i = int(np.searchsorted(self.masks, mask))
        if i >= self.dim or self.masks[i] != mask:
            raise KeyError(f"mask {mask:b} not in basis")
        return i


@dataclass
class FockVector:
    """Dense many-body vector over a FockBasis."""

    basis: FockBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.basis.dim,):
            raise DimensionMismatch(
                f"amplitudes shape {self.amplitudes.shape} != basis dim {self.basis.dim}"
            )

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


def _occupied(mask, L):
    return [x for x in range(L) if mask >> x & 1]


def slater_to_fock(state: SlaterState, basis: FockBasis | None = None) -> FockVector:
    """Expand a determinant state: amplitude on mask m is det of the
    orbital rows at m's occupied sites."""
    if basis is None:
        basis = FockBasis.build(state.L, state.N)
    if basis.L != state.L or basis.N != state.N:
        raise DimensionMismatch(
            f"basis is (L={basis.L}, N={basis.N}), state is (L={state.L}, N={state.N})"
        )
    amps = np.empty(basis.dim, dtype=complex)
    for i, m in enumerate(basis.masks):
        rows = _occupied(int(m), state.L)
        amps[i] = np.linalg.det(state.orbitals[rows, :])
    return FockVector(basis, amps)


def _hop_sign(mask, x, xp):
    """Sign of c+_x c_xp on |mask>: parity of occupied sites strictly
    between x and xp (endpoints excluded)."""
    lo, hi = (x, xp) if x < xp else (xp, x)
    between = ((1 << hi) - 1) & ~((1 << (lo + 1)) - 1)
    return -1 if bin(mask & between).count("1") % 2 else +1


def many_body_matrix(basis: FockBasis, h: np.ndarray) -> np.ndarray:
    """Dense matrix of sum_{x,xp} h[x,xp] c+_x c_xp on the basis.

    For a single fermion (N = 1) this reproduces h itself.
    """
    if h.shape != (basis.L, basis.L):
        raise DimensionMismatch(f"h has shape {h.shape}, basis has L={basis.L}")
    xs, xps = np.nonzero(h)
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    for i, m in enumerate(basis.masks):
        m = int(m)
        for x, xp in zip(xs, xps):
            x, xp = int(x), int(xp)
            if not m >> xp & 1:
                continue
            if x == xp:
                out[i, i] += h[x, x]
                continue
            if m >> x & 1:
                continue
            j = basis.index((m ^ (1 << xp)) | (1 << x))
            out[j, i] += h[x, xp] * _hop_sign(m, x, xp)
    return out


def fock_expectation(vec: FockVector, h: np.ndarray) -> float:
    """Normalized expectation of the quadratic operator with matrix h."""
    hv = many_body_matrix(vec.basis, h) @ vec.amplitudes
    return float(np.vdot(vec.amplitudes, hv).real / vec.norm_sq)


def fock_evolve(vec: FockVector, h: np.ndarray, z: complex) -> FockVector:
    """Apply exp(-z * H) for the quadratic H with one-body matrix h.

    z = i*theta gives real-time evolution, z = tau imaginary time; any
    complex z is accepted.  Uses the full Hermitian eigendecomposition.
    """
    hmb = many_body_matrix(vec.basis, h)
    if not np.allclose(hmb, hmb.conj().T, atol=1e-12):
        raise ValueError("one-body matrix must be Hermitian")
    w, u = np.linalg.eigh(hmb)
    amps = u @ (np.exp(-z * w) * (u.conj().T @ vec.amplitudes))
    return FockVector(vec.basis, amps)


def _inversions(seq):
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return inv


def fock_reduced_dm(vec: FockVector, sites) -> np.ndarray:
    """Reduced density matrix of the normalized state on `sites`.

    Subsystem occupation indices use the site order given in `sites`;
    the environment keeps ascending order.  The sign of each amplitude
    is the parity of the permutation that reorders the ascending
    creation string into (subsystem sites, then environment sites).
    Returns a 2^len(sites) square Hermitian matrix with unit trace.
    """
    sites = list(sites)
    la = len(sites)
    if la > _MAX_SUBSYSTEM:
        raise SizeLimitExceeded(f"subsystem of {la} sites exceeds cap {_MAX_SUBSYSTEM}")
    if len(set(sites)) != la or any(not 0 <= x < vec.basis.L for x in sites):
        raise ValueError(f"invalid subsystem {sites} for L={vec.basis.L}")
    a_set = set(sites)
    env = [x for x in range(vec.basis.L) if x not in a_set]
    w = np.zeros((1 << la, 1 << len(env)), dtype=complex)
    for i, m in enumerate(vec.basis.masks):
        m = int(m)
        a_idx = sum(1 << p for p, x in enumerate(sites) if m >> x & 1)
        e_idx = sum(1 << p for p, x in enumerate(env) if m >> x & 1)
        target = [x for x in sites if m >> x & 1] + [x for x in env if m >> x & 1]
        sign = -1 if _inversions(target) % 2 else +1
        w[a_idx, e_idx] += sign * vec.amplitudes[i]
    rho = w @ w.conj().T
    return rho / vec.norm_sq


def fock_entropy(vec: FockVector, sites) -> float:
    """Von Neumann entropy of the reduced state on `sites`."""
    lam = np.linalg.eigvalsh(fock_reduced_dm(vec, sites))
    lam = lam[lam > 1e-14]
    return float(-(lam * np.log(lam)).sum())
