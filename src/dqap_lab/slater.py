"""Slater-determinant states and the operations closed over them.

A determinant state is an L x N orbital matrix; the physical state is
the antisymmetrized product of its columns.  Quadratic-exponential
layers act column-wise, so every circuit in this package stays inside
this family and all expectation values reduce to determinants and
products of orbital matrices.

Every state the package builds is normalized: it is its orthonormal
orbitals, Psi+ Psi = 1, and nothing else.  Exact orbitals are Bloch
waves (`lattice`), real-time layers are unitary, and imaginary-time
layers are followed by a QR step, the stabilization of determinant
quantum Monte Carlo (White et al., PRB 40, 506 (1989)).  G = QR keeps Q,
with R's diagonal made positive, so det Q has the phase of det G.  The
norm prod diag R is dropped: every quantity the package reports
(energies, overlaps with the exact state, entropies) is a normalized
one.  So overlaps are plain determinants that cannot overflow, and
expectation values need no Gram solve.  The invariant is not checked at run time
(that would cost O(L N^2) per half-layer); the tests pin it for every
builder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularOverlapError
from .lattice import LatticeSpec, bond_pairs

# Relative magnitude below which a diagonal entry of R in the QR step is
# treated as zero.
_SINGULAR_TOL = 1e-14


@dataclass(frozen=True)
class SlaterState:
    """Normalized determinant state: its orthonormal orbitals (L, N).

    The columns of `orbitals` are orthonormal (module docstring), so the
    state has unit norm.  The field cannot be reassigned; operations that
    evolve a state, such as `apply_bond_layer`, return a new one.
    """

    orbitals: np.ndarray

    def __post_init__(self):
        orbitals = np.asarray(self.orbitals, dtype=complex)
        if orbitals.ndim != 2:
            raise DimensionMismatch(f"orbitals must be 2d, got {orbitals.shape}")
        if orbitals.shape[0] < orbitals.shape[1]:
            raise DimensionMismatch(f"more orbitals than sites: {orbitals.shape}")
        object.__setattr__(self, "orbitals", orbitals)

    @property
    def L(self) -> int:
        return self.orbitals.shape[0]

    @property
    def N(self) -> int:
        return self.orbitals.shape[1]


def overlap(psi: SlaterState, phi: SlaterState) -> complex:
    """Many-body overlap <psi|phi> = det(Psi+ Phi) of two normalized states.

    Uses the pivoted-LU determinant; its magnitude is at most 1.
    """
    if psi.L != phi.L or psi.N != phi.N:
        raise DimensionMismatch(
            f"states have shapes {psi.orbitals.shape} and {phi.orbitals.shape}"
        )
    return complex(np.linalg.det(psi.orbitals.conj().T @ phi.orbitals))


def transition_density(state: SlaterState, sites) -> np.ndarray:
    """One-particle density matrix P = Psi_A Psi_A+ on the given sites.

    Psi_A holds the orbital rows of `sites`, in their order, so
    P[i, j] = <c+_{s_j} c_{s_i}> costs O(|A|^2 N) and no L x L array is
    formed.  With `range(state.L)` it is the full L x L matrix: Hermitian,
    idempotent, trace N.
    """
    rows = state.orbitals[list(sites)]
    return rows @ rows.conj().T


def _bond_block(angle, mode):
    """(c, s) of the 2x2 bond blocks [[c, s w], [s w*, c]] of an angle, or of each in an array.

    w is the bond's weight, or the cell phase of a Bloch block; both
    half-layer kernels read their blocks from here, `apply_bond_layer`
    one angle at a time and `ansatz._block_pass` all angles in one call.

    Raises
    ------
    SingularOverlapError
        If an imaginary-mode coefficient is not finite (cosh overflows),
        naming the first such angle.
    """
    if mode == "real":
        return np.cos(angle), 1j * np.sin(angle)
    if mode != "imag":
        raise ValueError(f"mode must be 'real' or 'imag', got {mode!r}")
    with np.errstate(over="ignore"):
        c = np.cosh(angle)
    if not np.isfinite(c).all():
        bad = np.extract(~np.isfinite(c), angle)[0]
        raise SingularOverlapError(f"imaginary bond coefficient cosh({bad:.6g}) overflows")
    return c, np.sinh(angle)


def _rotate_rows(arr, a, b, c, s):
    """Apply the blocks [[c, s], [s, c]] in place to row pairs (a, b) of arr (L, N)."""
    ra, rb = arr[a], arr[b]
    arr[a] = c * ra + s * rb
    arr[b] = s * ra + c * rb


def _orthonormalize(orb):
    """Replace orb (L, N) by Q of G = QR in place.

    R's diagonal is made positive, so det Q keeps the phase of det G: Q
    spans the normalized ray of G.

    Raises
    ------
    SingularOverlapError
        If a diagonal entry of R is below 1e-14 of R's largest entry (or
        R is not finite): the columns are linearly dependent to tolerance.
    """
    q, r = np.linalg.qr(orb)
    d = np.diagonal(r)
    mag = np.abs(d)
    if not mag.min() > _SINGULAR_TOL * np.abs(r).max():
        raise SingularOverlapError("orbital columns are linearly dependent to tolerance")
    orb[:] = q * (d / mag)


def apply_bond_layer(
    state: SlaterState,
    family: int,
    angle: float,
    spec: LatticeSpec,
    mode: str = "real",
) -> SlaterState:
    """Apply exp(-i*angle*V_family) (real) or exp(-angle*V_family) (imag).

    Each bond of the family mixes exactly one pair of sites, so the
    exponential acts as independent 2x2 blocks.  With the bond operator
    -w*(c+_a c_b + h.c.) the block on (a, b) is

        real:  [[cos(angle), i*w*sin(angle)], [i*w*sin(angle), cos(angle)]]
        imag:  [[cosh(angle), w*sinh(angle)], [w*sinh(angle), cosh(angle)]]

    where w = +1 in the bulk and w = gamma on the boundary bond.
    Real mode is unitary; imaginary mode re-orthonormalizes the columns,
    so the result is the normalized evolved state.  This is the
    real-space kernel of the circuit builders; the angle derivatives
    come from the Bloch blocks instead (`ansatz.state_and_derivatives`).

    Raises
    ------
    SingularOverlapError
        In imaginary mode, if a block coefficient overflows or the
        evolved columns are linearly dependent to tolerance.
    """
    if state.L != spec.L:
        raise DimensionMismatch(f"state has L={state.L}, spec has L={spec.L}")
    a, b, w = bond_pairs(spec, family)
    c, s = _bond_block(angle, mode)
    orb = state.orbitals.copy()
    _rotate_rows(orb, a, b, c, s * w[:, None])
    if mode == "imag":
        _orthonormalize(orb)
    return SlaterState(orb)


def energy_expectation(state: SlaterState, h: np.ndarray) -> float:
    """Normalized quadratic expectation tr[Psi+ h Psi] (orthonormal Psi) of a real symmetric h.

    For real symmetric h the trace is sum_ij v_ij (h v)_ij over the real
    (L, 2N) view v of Psi (of a C-ordered copy where Psi is not
    contiguous), so it costs one O(L^2 N) real product and forms no
    N x N matrix.  A complex h raises ValueError.
    """
    if h.shape != (state.L, state.L):
        raise DimensionMismatch(f"h has shape {h.shape}, state has L={state.L}")
    if np.iscomplexobj(h):
        raise ValueError(f"h must be real symmetric, got dtype {h.dtype}")
    v = np.ascontiguousarray(state.orbitals).view(float)
    return float(np.sum(v * (h @ v)))
