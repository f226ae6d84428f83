"""Slater-determinant states and the operations closed over them.

A determinant state is an L x N orbital matrix; the physical state is
the antisymmetrized product of its columns.  Quadratic-exponential
layers act column-wise, so every circuit in this package stays inside
this family and all expectation values reduce to determinants and
linear solves.

Every state the package builds has orthonormal orbitals, Psi+ Psi = 1:
exact orbitals are Bloch waves (`lattice`), real-time layers are
unitary, and imaginary-time layers are followed by a QR step, the
standard stabilization of determinant quantum Monte Carlo (White et
al., PRB 40, 506 (1989)).  G = QR keeps Q, with R's diagonal made positive so that
det G = det Q * prod diag R, and log prod diag R is accumulated on the
state.  The stored orbitals stay orthonormal however large the
imaginary angles grow; the norm lives only in `log_scale`, which
`overlap` folds back in.  Expectation values therefore need no Gram
solve.  The invariant is not checked at run time (that would cost
O(L N^2) per half-layer); the tests pin it for every builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, SingularOverlapError
from .lattice import LatticeSpec, bond_pairs

# Relative magnitude below which an overlap determinant, or a diagonal entry
# of R in the QR step, is treated as zero.
_SINGULAR_TOL = 1e-14


@dataclass(frozen=True)
class SlaterState:
    """Determinant state: orthonormal orbitals (L, N) and a log scale.

    The columns of `orbitals` are orthonormal (module docstring).
    `log_scale` is the accumulated log of the determinant factors pulled
    out of the orbitals by imaginary-time layers; the stored matrix times
    exp(log_scale) is the true (unnormalized) state.

    A state is immutable: the fields cannot be reassigned, and the
    orbital array is made read-only (a complex input array is taken over,
    not copied, so the caller's array becomes read-only too).  Operations
    that evolve a state, such as `apply_bond_layer`, return a new one.
    This keeps the cached `projector` valid for the life of the state.
    """

    orbitals: np.ndarray
    log_scale: float = 0.0

    def __post_init__(self):
        orbitals = np.asarray(self.orbitals, dtype=complex)
        if orbitals.ndim != 2:
            raise DimensionMismatch(f"orbitals must be 2d, got {orbitals.shape}")
        if orbitals.shape[0] < orbitals.shape[1]:
            raise DimensionMismatch(f"more orbitals than sites: {orbitals.shape}")
        orbitals.setflags(write=False)
        object.__setattr__(self, "orbitals", orbitals)

    @cached_property
    def projector(self) -> np.ndarray:
        """The L x L one-particle projector `transition_density(self, self)`, read-only.

        Computed on first access and kept, so every correlation block of
        one state shares one N x N solve.
        """
        p = transition_density(self, self)
        p.setflags(write=False)
        return p

    @property
    def L(self) -> int:
        return self.orbitals.shape[0]

    @property
    def N(self) -> int:
        return self.orbitals.shape[1]


def _check_compatible(psi: SlaterState, phi: SlaterState):
    if psi.L != phi.L or psi.N != phi.N:
        raise DimensionMismatch(
            f"states have shapes {psi.orbitals.shape} and {phi.orbitals.shape}"
        )


def _overlap_matrix(psi, phi):
    return psi.orbitals.conj().T @ phi.orbitals


def _solve_overlap(a, rhs):
    """Solve a @ x = rhs, rejecting relative determinants below tolerance."""
    scale = np.linalg.norm(a, axis=0)
    if np.any(scale == 0.0):
        raise SingularOverlapError("overlap matrix has a null column")
    sign, logdet = np.linalg.slogdet(a)
    if sign == 0 or logdet - np.log(scale).sum() < np.log(_SINGULAR_TOL):
        raise SingularOverlapError("overlap determinant vanishes to tolerance")
    return np.linalg.solve(a, rhs)


def overlap(psi: SlaterState, phi: SlaterState) -> complex:
    """Many-body overlap <psi|phi> = det(Psi+ Phi), with scale factors restored.

    Uses the pivoted-LU determinant.  For heavily scaled imaginary-time
    states the exp of the accumulated log factors can overflow; compare
    ratios of overlaps in that regime.
    """
    _check_compatible(psi, phi)
    det = np.linalg.det(_overlap_matrix(psi, phi))
    return complex(det * np.exp(psi.log_scale + phi.log_scale))


def transition_density(psi: SlaterState, phi: SlaterState) -> np.ndarray:
    """Normalized one-body transition matrix between determinant states.

    Returns the L x L matrix P with

        P[i, j] = <psi| c+_j c_i |phi> / <psi|phi>,

    i.e. P = Phi (Psi+ Phi)^(-1) Psi+.  With psi = phi this is the
    one-particle density matrix projector (idempotent, trace N);
    column-scale accumulators cancel in the ratio.

    Raises
    ------
    SingularOverlapError
        If det(Psi+ Phi) is below 1e-14 relative to its column norms.
    """
    _check_compatible(psi, phi)
    a = _overlap_matrix(psi, phi)
    x = _solve_overlap(a, psi.orbitals.conj().T)
    return phi.orbitals @ x


def _bond_block(spec, angle, w, mode):
    """Entries (c, s) of the 2x2 blocks [[c, s], [s, c]] of one bond family.

    c is a scalar; s has one row per bond, shape (n_bonds, 1).

    Raises
    ------
    SingularOverlapError
        If an imaginary-mode coefficient is not finite (cosh overflows).
    """
    th = angle * spec.t
    if mode == "real":
        return np.cos(th), 1j * np.sin(th) * w[:, None]
    if mode != "imag":
        raise ValueError(f"mode must be 'real' or 'imag', got {mode!r}")
    with np.errstate(over="ignore"):
        c = np.cosh(th)
    if not np.isfinite(c):
        raise SingularOverlapError(f"imaginary bond coefficient cosh({float(th):.6g}) overflows")
    return c, np.sinh(th) * w[:, None]


def _rotate_rows(arr, a, b, c, s):
    """Apply the blocks [[c, s], [s, c]] in place to row pairs (a, b) of arr (..., L, N)."""
    ra, rb = arr[..., a, :], arr[..., b, :]
    arr[..., a, :] = c * ra + s * rb
    arr[..., b, :] = s * ra + c * rb


def _apply_generator(orb, a, b, w, t):
    """Bond-family generator -t*w*(c+_a c_b + h.c.) acting on orbitals."""
    out = np.zeros_like(orb)
    out[a] = -t * w[:, None] * orb[b]
    out[b] = -t * w[:, None] * orb[a]
    return out


def _orthonormalize(orb, tangents=None):
    """Replace orb (L, N) by Q of G = QR in place; return log det R.

    R's diagonal is made positive, so det G = det Q * exp(log det R) keeps
    the determinant's phase.  Any `tangents` slices (k, L, N) are
    multiplied by R^-1 on the right, the same change of column basis.

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
    phase = d / mag
    orb[:] = q * phase
    if tangents is not None:
        tangents[:] = tangents @ np.linalg.inv(r / phase[:, None])
    return float(np.log(mag).sum())


def apply_bond_layer(
    state: SlaterState,
    family: int,
    angle: float,
    spec: LatticeSpec,
    mode: str = "real",
    *,
    tangents: np.ndarray | None = None,
) -> SlaterState:
    """Apply exp(-i*angle*V_family) (real) or exp(-angle*V_family) (imag).

    Each bond of the family mixes exactly one pair of sites, so the
    exponential acts as independent 2x2 blocks.  With the bond operator
    -t*w*(c+_a c_b + h.c.) the block on (a, b) is

        real:  [[cos(angle*t), i*w*sin(angle*t)], [i*w*sin(angle*t), cos(angle*t)]]
        imag:  [[cosh(angle*t), w*sinh(angle*t)], [w*sinh(angle*t), cosh(angle*t)]]

    where w = +1 in the bulk and w = gamma on the boundary bond.
    Real mode is unitary; imaginary mode re-orthonormalizes the columns
    and adds the log of the removed determinant factor to `log_scale`.

    `tangents`, if given, is a complex (k+1, L, N) array updated in
    place.  Slices 0..k-1 hold derivatives of the input orbitals; they
    are transported by the same 2x2 blocks (and in imaginary mode by the
    same R^-1 of the QR step), so they become derivatives of the result.
    Slice k is overwritten with the derivative of the result by `angle`:
    the generator -i*V_family (real) or -V_family (imag) applied to the
    rotated orbitals, before the QR step.  Every slice ends in the
    result's column basis.

    Raises
    ------
    SingularOverlapError
        In imaginary mode, if a block coefficient overflows or the
        evolved columns are linearly dependent to tolerance.
    """
    if state.L != spec.L:
        raise DimensionMismatch(f"state has L={state.L}, spec has L={spec.L}")
    a, b, w = bond_pairs(spec, family)
    c, s = _bond_block(spec, angle, w, mode)
    orb = state.orbitals.copy()
    _rotate_rows(orb, a, b, c, s)
    if tangents is not None:
        k = len(tangents) - 1
        if k:
            _rotate_rows(tangents[:k], a, b, c, s)
        tangents[k] = (-1j if mode == "real" else -1.0) * _apply_generator(orb, a, b, w, spec.t)
    if mode == "real":
        return SlaterState(orb, log_scale=state.log_scale)
    dlog = _orthonormalize(orb, tangents)
    return SlaterState(orb, log_scale=state.log_scale + dlog)


def energy_expectation(state: SlaterState, h: np.ndarray) -> float:
    """Normalized quadratic expectation Re tr[Psi+ h Psi] (orthonormal Psi)."""
    if h.shape != (state.L, state.L):
        raise DimensionMismatch(f"h has shape {h.shape}, state has L={state.L}")
    rhs = state.orbitals.conj().T @ (h @ state.orbitals)
    return float(np.trace(rhs).real)
