"""Entanglement diagnostics from the one-particle density matrix.

For a determinant state all reduced-state spectra follow from the
correlation block D_A of the subsystem's orbital rows (Peschel, J. Phys.
A 36, L205 (2003)): the entanglement entropy is the free-fermion
binary-entropy sum over its eigenvalues, and deviations of D_A from a
projector measure how many correlation modes straddle the cut.

A subsystem is "bond preserving" when it severs no odd-family dimer
bond, i.e. every site's dimer partner is inside as well.  Cuts of this
kind match the natural structure of the circuit states; other cuts are
allowed and simply flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .slater import SlaterState, transition_density

_LEVEL_TOL = 1e-8  # eigenvalues may stray this far outside [0, 1]
_PAIR_TOL = 1e-6  # pairwise-degeneracy comparison


@dataclass(frozen=True)
class Subsystem:
    """An ordered collection of distinct 0-based sites."""

    sites: tuple

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(int(x) for x in self.sites))
        if len(set(self.sites)) != len(self.sites):
            raise ValueError(f"duplicate sites in subsystem {self.sites}")

    @classmethod
    def contiguous(cls, start, size, L):
        return cls(tuple((start + i) % L for i in range(size)))

    @classmethod
    def half_chain(cls, L):
        return cls.contiguous(0, L // 2, L)

    @property
    def bond_preserving(self) -> bool:
        sset = set(self.sites)
        return all(x ^ 1 in sset for x in sset)


@dataclass(frozen=True)
class SpectrumDiagnostic:
    """Projector-deviation summary of a correlation block."""

    rank: int
    n_zero: int
    n_one: int
    pairwise_degenerate: bool
    levels: np.ndarray
    bond_preserving: bool


def _check_sites(sites, L):
    """Raise ValueError if a site lies outside 0..L-1."""
    if any(not 0 <= x < L for x in sites):
        raise ValueError(f"subsystem {list(sites)} out of range for L={L}")


def one_particle_dm(state: SlaterState, subsystem: Subsystem) -> np.ndarray:
    """Correlation block D[i, j] = <c+_{s_i} c_{s_j}> on the subsystem sites.

    A fresh |A| x |A| array from the subsystem's orbital rows, at cost
    O(|A|^2 N).
    """
    sites = list(subsystem.sites)
    _check_sites(sites, state.L)
    return transition_density(state, sites).T


def correlation_spectrum(state: SlaterState, subsystem: Subsystem) -> np.ndarray:
    """Eigenvalues (ascending) of the subsystem correlation block."""
    return np.linalg.eigvalsh(one_particle_dm(state, subsystem))


def _xlogx(x):
    """x log x elementwise, 0 at x = 0."""
    return x * np.log(np.where(x > 0.0, x, 1.0))


def _check_levels(lo, hi):
    """Raise if the lowest or highest correlation level strays more than 1e-8 outside [0, 1]."""
    if lo < -_LEVEL_TOL or hi > 1.0 + _LEVEL_TOL:
        raise ValueError(f"correlation levels outside [0,1]: {lo}, {hi}")


def entropy_from_levels(levels) -> float:
    """Binary-entropy sum over correlation eigenvalues.

    Levels are clamped to [0, 1]; an excursion beyond the clamp larger
    than 1e-8 signals a broken input and raises.
    """
    d = np.asarray(levels, dtype=float)
    if d.size:
        _check_levels(d.min(), d.max())
    d = np.clip(d, 0.0, 1.0)
    return float(-(_xlogx(d) + _xlogx(1.0 - d)).sum())


def entropy_mode_form(levels) -> float:
    """Same entropy through the mode-energy parametrization.

    Each eigenvalue strictly inside (0, 1) maps to lam = ln((1-d)/d) and
    contributes lam/(1+e^lam) + ln(1+e^-lam), with 1/(1+e^lam) taken as
    exp(-logaddexp(0, lam)) so that nothing overflows; only levels at
    exactly 0 or 1 contribute nothing.  Used as an internal consistency
    check of the spectrum.
    """
    d = np.asarray(levels, dtype=float)
    d = d[(d > 0.0) & (d < 1.0)]
    lam = np.log1p(-d) - np.log(d)
    return float((lam * np.exp(-np.logaddexp(0.0, lam)) + np.logaddexp(0.0, -lam)).sum())


def entanglement_entropy(state: SlaterState, subsystem: Subsystem) -> float:
    """Von Neumann entropy of the reduced state on the subsystem."""
    return entropy_from_levels(correlation_spectrum(state, subsystem))


def _binary_entropy(p):
    """-p log p - (1-p) log(1-p) of one level clamped to [0, 1], in scalar arithmetic."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    q = 1.0 - p
    return -(p * math.log(p) + q * math.log(q))


def mutual_information(state: SlaterState, x: int, xp: int) -> float:
    """I(x : xp) = S_x + S_xp - S_{x,xp} between two single sites.

    The 2x2 correlation block [[a, b], [b*, e]] comes from
    `transition_density`; its levels are mid -+ hypot((a - e)/2, |b|),
    mid = (a + e)/2, in closed form, and all four binary entropies are
    scalar arithmetic.  The levels pass the same [0, 1] check as
    `entropy_from_levels`.
    """
    if x == xp:
        raise ValueError("mutual information needs two distinct sites")
    _check_sites((x, xp), state.L)
    (a, b), (_, e) = transition_density(state, (x, xp)).tolist()
    a, e = a.real, e.real
    mid, half = 0.5 * (a + e), math.hypot(0.5 * (a - e), abs(b))
    levels = (a, e, mid - half, mid + half)
    _check_levels(min(levels), max(levels))
    ha, he, lo, hi = map(_binary_entropy, levels)
    return (ha + he) - (lo + hi)


def boundary_rank_diagnostic(state: SlaterState, subsystem: Subsystem) -> SpectrumDiagnostic:
    """How far the correlation block is from a projector.

    Reports the rank of D^2 - D (singular values above 1e-8), the
    counts of eigenvalues pinned at 0 and 1 within 1e-8, and whether the
    interior eigenvalues are pairwise degenerate within 1e-6.  D is
    Hermitian, so the singular values of D^2 - D are |l^2 - l| over its
    eigenvalues l.
    """
    levels = correlation_spectrum(state, subsystem)
    rank = int((np.abs(levels * levels - levels) > _LEVEL_TOL).sum())
    n_zero = int((np.abs(levels) <= _LEVEL_TOL).sum())
    n_one = int((np.abs(levels - 1.0) <= _LEVEL_TOL).sum())
    interior = levels[(levels > _LEVEL_TOL) & (levels < 1.0 - _LEVEL_TOL)]
    if len(interior) % 2 == 0 and len(interior) > 0:
        pairs = interior.reshape(-1, 2)
        pairwise = bool(np.all(np.abs(pairs[:, 1] - pairs[:, 0]) < _PAIR_TOL))
    else:
        pairwise = len(interior) == 0
    return SpectrumDiagnostic(
        rank=rank,
        n_zero=n_zero,
        n_one=n_one,
        pairwise_degenerate=pairwise,
        levels=levels,
        bond_preserving=subsystem.bond_preserving,
    )


def scaling_exponents(ms, entropies, energy_errors):
    """Finite-difference convergence exponents between consecutive depths.

    Parameters
    ----------
    ms : ascending consecutive integer depths, all at least 1
    entropies : S at each depth
    energy_errors : per-site energy error at each depth, all positive

    Returns
    -------
    (ms[:-1], exp_entropy, exp_energy) : arrays; entry i is the exponent
        estimated from depths ms[i] and ms[i] + 1.  The entropy exponent
        is 3 dS / dln M; the energy exponent is -dln(err) / (2 dln M),
        so an err ~ 1/M^2 tail gives +1.
    """
    ms = np.asarray(ms, dtype=int)
    s = np.asarray(entropies, dtype=float)
    err = np.asarray(energy_errors, dtype=float)
    if not (len(ms) == len(s) == len(err)) or len(ms) < 2:
        raise ValueError("need equal-length series of at least two depths")
    if np.any(np.diff(ms) != 1):
        raise ValueError("depths must be consecutive integers")
    if ms[0] < 1:
        raise ValueError("depths must be at least 1 to take logs")
    if np.any(err <= 0.0):
        raise ValueError("energy errors must be positive to take logs")
    dlog = np.log(ms[1:] / ms[:-1].astype(float))
    exp_s = 3.0 * np.diff(s) / dlog
    exp_e = 0.5 * (np.log(err[:-1]) - np.log(err[1:])) / dlog
    return ms[:-1].copy(), exp_s, exp_e
