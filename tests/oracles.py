"""Reference values computed independently of the package internals.

Momentum-space sums pin the chain energetics (the closure phase shifts
the allowed modes by half a spacing), finite differences pin analytic
derivatives, and random orthonormal frames feed the property tests.
Quadratic expectations have the N x N Gram-trace route.
The continuous-time ramp has a dense real-space route (an eigh-based
exponential per slice, and eigh ground states along the ramp) and a
40-digit mpmath product of its 2 x 2 momentum blocks.  The layered
circuit and its angle derivatives have a dense route too:
`scipy.linalg.expm` half-layers with forward-mode derivatives and no
re-orthonormalization; its Bloch-block pass has the earlier
per-component loop, which must match bit for bit.  The ramp's Bloch
spinors have a one-slice-at-a-time route and the earlier slice-major
product, which must match bit for bit, and any Bloch spinors a map to
real-space orbitals.  The overlap grid scan has a scalar route,
one determinant per grid point, and a per-row route on the blocks.
The extent of real-space orbitals has a per-column loop.
Nothing here calls back into dqap_lab, so agreement is meaningful, bar
one exception: `reference_run` is the earlier natural-gradient run loop,
which drives the package's own kernels with a table object per trial and
must match `optimizer._run` bit for bit.
"""

import numpy as np
from scipy.linalg import expm


def kspace_modes(L, boundary):
    n = np.arange(L)
    if boundary == "apbc":
        return 2.0 * np.pi * (n + 0.5) / L
    if boundary == "pbc":
        return 2.0 * np.pi * n / L
    raise ValueError(f"unknown boundary {boundary!r}")


def kspace_levels(L, boundary):
    """Single-particle levels -2 cos k, ascending."""
    return np.sort(-2.0 * np.cos(kspace_modes(L, boundary)))


def kspace_ground_energy(L, N, boundary):
    return float(kspace_levels(L, boundary)[:N].sum())


def kspace_gap(L, N, boundary):
    lv = kspace_levels(L, boundary)
    return float(lv[N] - lv[N - 1])


def central_difference(fn, x0, h=1e-5):
    """Componentwise central finite-difference gradient of a scalar."""
    x0 = np.asarray(x0, dtype=float)
    grad = np.zeros(x0.size)
    for k in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[k] += h
        xm[k] -= h
        grad[k] = (fn(xp) - fn(xm)) / (2.0 * h)
    return grad


def random_orthonormal(rng, L, N):
    """Haar-ish random L x N frame with orthonormal columns."""
    q, r = np.linalg.qr(rng.normal(size=(L, N)) + 1j * rng.normal(size=(L, N)))
    return q * np.sign(np.diagonal(r))


def gram_trace_energy(orbitals, h):
    """Re tr[Psi+ (h Psi)]: the quadratic expectation through the N x N Gram product."""
    return float(np.trace(orbitals.conj().T @ (h @ orbitals)).real)


def hopping_families(L, gamma):
    """Dense hopping matrices (V1, V2): odd bonds (2j, 2j+1), even bonds (2j+1, 2j+2).

    The boundary bond (L-1, 0) belongs to the even family with weight gamma.
    """
    v1 = np.zeros((L, L))
    v2 = np.zeros((L, L))
    for j in range(0, L, 2):
        v1[j, j + 1] = v1[j + 1, j] = -1.0
    for j in range(1, L - 1, 2):
        v2[j, j + 1] = v2[j + 1, j] = -1.0
    v2[L - 1, 0] = v2[0, L - 1] = -gamma
    return v1, v2


def dimer_orbitals(L):
    """(L, L/2) orbitals of the dimer product state: column n on sites 2n, 2n+1."""
    orbitals = np.zeros((L, L // 2), dtype=complex)
    for n in range(L // 2):
        orbitals[2 * n, n] = orbitals[2 * n + 1, n] = np.sqrt(0.5)
    return orbitals


def orbital_support(orbitals):
    """Minimal cyclic window length holding each column's support, (N,) ints.

    An entry counts as occupied when its magnitude exceeds 1e-12.  The
    window is cyclic: support {L-1, 0} has extent 2.
    """
    L, N = orbitals.shape
    out = np.zeros(N, dtype=int)
    mag = np.abs(orbitals) > 1e-12
    for n in range(N):
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


def dense_circuit(L, gamma, table, mode):
    """Layered circuit on the dimer state and its angle derivatives, by dense exponentials.

    `table` has the (M, 2) layout of the circuit tables: column 0 odd
    family, column 1 even.  Flat angle k = 0, 1, 2, ... is even(1),
    odd(1), even(2), ...; half-layer k applies U_k = expm(-i theta_k V)
    (mode 'real') or expm(-theta_k V) (mode 'imag') with V the dense
    family matrix.  Forward mode: U_k carries every derivative made so
    far, and the new one is -i V (or -V) applied to the new state.

    Returns (G, dG): the (L, L/2) orbitals and the (2M, L, L/2)
    derivatives, never re-orthonormalized.
    """
    v1, v2 = hopping_families(L, gamma)
    factor = -1j if mode == "real" else -1.0
    g = dimer_orbitals(L)
    derivs = []
    for k, theta in enumerate(np.asarray(table, dtype=float)[:, ::-1].ravel()):
        v = v2 if k % 2 == 0 else v1
        u = expm(factor * theta * v)
        g = u @ g
        derivs = [u @ d for d in derivs] + [factor * (v @ g)]
    return g, np.array(derivs).reshape(-1, L, L // 2)


def gauge_invariant_metric_and_force(g, dg, h):
    """Metric S and force f of orbitals G with derivatives dG, for any column basis.

    With the Gram matrix n = G+ G,

        S_kk' = tr[dG_k+ dG_k' n^-1] - tr[dG_k+ G n^-1 G+ dG_k' n^-1]
        f_k   = tr[dG_k+ (h G - G n^-1 G+ h G) n^-1]

    which equal the orthonormal-frame formulas for G -> G X, dG -> dG X
    with X X+ = n^-1.
    """
    ninv = np.linalg.inv(g.conj().T @ g)
    proj = g @ ninv @ g.conj().T
    right = np.array([d @ ninv for d in dg])  # dG_k n^-1
    metric = np.einsum("kia,lia->kl", dg.conj(), right - proj @ right)
    hg = h @ g
    resid = (hg - proj @ hg) @ ninv
    force = np.einsum("kia,ia->k", dg.conj(), resid)
    return metric, force


def dense_ramp_step(orbitals, v1, v2, T, M, m, order=1):
    """Slice m of the linear ramp V1 + (tau/T) V2 on real-space orbitals.

    Generator dt (H_prev + H_next) / 2, plus (order 2) the commutator
    term i dt^2/6 [H_next, H_prev]; exponentiated by eigendecomposition.
    """
    dt = T / M
    h_prev = v1 + (m - 1) * dt / T * v2
    h_next = v1 + m * dt / T * v2
    herm = 0.5 * dt * (h_next + h_prev)
    if order == 2:
        herm = herm + 1j * (dt**2 / 6.0) * (h_next @ h_prev - h_prev @ h_next)
    w, u = np.linalg.eigh(herm)
    return (u * np.exp(-1j * w)) @ (u.conj().T @ orbitals)


def dense_ramp(L, gamma, T, M, order=1):
    """Full ramp from the dimer state in real space: (eps, energy) at its end."""
    v1, v2 = hopping_families(L, gamma)
    orbitals = dimer_orbitals(L)
    for m in range(1, M + 1):
        orbitals = dense_ramp_step(orbitals, v1, v2, T, M, m, order)
    h = v1 + v2
    exact = np.linalg.eigh(h)[1][:, : L // 2]
    ov = abs(np.linalg.det(exact.conj().T @ orbitals))
    energy = float(np.trace(orbitals.conj().T @ h @ orbitals).real)
    return float(np.sqrt(max(2.0 - 2.0 * ov, 0.0))), energy


def dense_ramp_ground_state(L, gamma, chi):
    """Ground orbitals (L, L/2) of V1 + chi V2 by dense eigh, and the gap above them."""
    v1, v2 = hopping_families(L, gamma)
    vals, vecs = np.linalg.eigh(v1 + chi * v2)
    return vecs[:, : L // 2], float(vals[L // 2] - vals[L // 2 - 1])


def cell_momenta(L, boundary):
    """Momenta q of the L/2 two-site cells; the closure twists them by pi/(L/2) for apbc."""
    cells = L // 2
    phi = {"pbc": 0.0, "apbc": np.pi}[boundary]
    return (2.0 * np.pi * np.arange(cells) + phi) / cells


def bloch_frame(L, boundary):
    """Unitary L x L frame; column 2n + s is the Bloch wave of momentum q_n on sublattice s.

    A real-space vector x has Bloch coefficients (F^+ x).reshape(L/2, 2).
    """
    q = cell_momenta(L, boundary)
    cells = L // 2
    frame = np.zeros((L, L), dtype=complex)
    phase = np.exp(1j * np.outer(np.arange(cells), q)) / np.sqrt(cells)
    frame[0::2, 0::2] = phase
    frame[1::2, 1::2] = phase
    return frame


def reference_block_pass(L, boundary, table, mode, rows):
    """Bloch blocks (rows, L/2, 2) and imaginary norms of the circuit, by the per-component loop.

    `table` has the (M, 2) layout of the circuit tables.  Returns
    (stack, norms): row 0 of the stack is the state and row k + 1, where
    there is one, its derivative by flat angle k; norms (2M, L/2) holds
    the norm of each block after half-layer k, which imaginary mode
    divides by, and is None in real mode.  This is the spinor-major loop
    the package ran before its component-major pass: one scalar (c, s)
    per half-layer, the two components rotated as separate strided views,
    and the same elementwise operations, so the two must agree bit for
    bit, not only to rounding.
    """
    emiq = np.exp(-1j * cell_momenta(L, boundary))
    gen = 1j if mode == "real" else 1.0
    stack = np.zeros((rows, L // 2, 2), dtype=complex)
    stack[0] = np.sqrt(0.5)
    psi = stack[0]
    flat = np.asarray(table, dtype=float)[:, ::-1].ravel()
    norms = np.empty((len(flat), L // 2)) if mode == "imag" else None
    for k, ang in enumerate(flat):
        if mode == "real":
            c, s = np.cos(ang), 1j * np.sin(ang)
        else:
            c, s = np.cosh(ang), np.sinh(ang)
        z = emiq if k % 2 == 0 else 1.0
        live = stack[: k + 1]
        a, b = live[..., 0], live[..., 1]
        live[..., 0], live[..., 1] = c * a + s * z * b, s * np.conj(z) * a + c * b
        if k + 1 < rows:
            stack[k + 1, :, 0] = gen * z * psi[:, 1]
            stack[k + 1, :, 1] = gen * np.conj(z) * psi[:, 0]
        if mode == "imag":
            norms[k] = np.hypot(np.abs(psi[:, 0]), np.abs(psi[:, 1]))
            stack[: k + 2] /= norms[k][:, None]
    return stack, norms


def tangent_weights(spinors, derivs):
    """psi_q^T J a_kq, J = [[0, 1], [-1, 0]]: the weight of each derivative on psi_perp, (K, L/2)."""
    return spinors[:, 0] * derivs[..., 1] - spinors[:, 1] * derivs[..., 0]


def tangent_derivatives(spinors, tangents):
    """Derivatives (K, L/2, 2) orthogonal to unit spinors, from tangent weights (K, L/2).

    Entry k, q is t_kq psi_perp_q with psi_perp = (-psi_1*, psi_0*), so
    `tangent_weights` gives back t_kq.
    """
    perp = np.stack([-spinors[:, 1].conj(), spinors[:, 0].conj()], axis=1)
    return tangents[..., None] * perp


def projected_metric_and_force(L, boundary, spinors, derivs):
    """Metric and force of unit Bloch spinors (L/2, 2) and derivatives (K, L/2, 2), projected form.

    S_kk' = sum_q [a_kq+ a_k'q - conj(psi_q+ a_kq) (psi_q+ a_k'q)] and
    f_k = sum_q a_kq+ (H_q psi_q - psi_q E_q), with H_q the Bloch block
    -[[0, 1 + e^{-iq}], [1 + e^{iq}, 0]] and E_q = psi_q+ H_q psi_q.
    """
    h01 = -(1.0 + np.exp(-1j * cell_momenta(L, boundary)))
    hpsi = np.stack([h01 * spinors[:, 1], h01.conj() * spinors[:, 0]], axis=1)
    e_q = np.sum(spinors.conj() * hpsi, axis=1)
    proj = np.einsum("qs,kqs->kq", spinors.conj(), derivs)
    metric = np.einsum("kqs,lqs->kl", derivs.conj(), derivs) - proj.conj() @ proj.T
    force = np.einsum("kqs,qs->k", derivs.conj(), hpsi - spinors * e_q[:, None])
    return metric, force


def spinor_orbitals(L, boundary, spinors):
    """Real-space orbitals (..., L, L/2) of Bloch spinors (..., L/2, 2), through `bloch_frame`.

    Column n is the Bloch wave of momentum q_n with sublattice amplitudes
    spinors[..., n, :].
    """
    frame = bloch_frame(L, boundary)
    spinors = np.asarray(spinors)
    return frame[:, 0::2] * spinors[..., None, :, 0] + frame[:, 1::2] * spinors[..., None, :, 1]


def orbital_spinors(L, boundary, orbitals):
    """Bloch spinors (..., L/2, 2) of real-space orbitals (..., L, L/2), through `bloch_frame`.

    The inverse of `spinor_orbitals`: column n of `orbitals` must be a
    Bloch wave of momentum q_n, and only its two coefficients on q_n are kept.
    """
    coef = bloch_frame(L, boundary).conj().T @ np.asarray(orbitals)
    n = np.arange(L // 2)
    return np.stack([coef[..., 2 * n, n], coef[..., 2 * n + 1, n]], axis=-1)


def sequential_ramp(spinors, L, boundary, T, M, slices, order=1):
    """Bloch spinors (L/2, 2) stepped through `slices` of the ramp one slice at a time.

    Slice m applies, to every cell momentum q, the closed-form exponential
    of dt [[w_z, w], [conj(w), -w_z]] with w = -1 - s_mid e^{-iq} and
    (order 2) w_z = (dt / 3) (s_m - s_{m-1}) sin q:
    exp(-i n . sigma) = cos|n| - i (sin|n| / |n|) n . sigma.
    """
    q = cell_momenta(L, boundary)
    emiq, sin_q = np.exp(-1j * q), np.sin(q)
    dt = T / M
    spinors = np.asarray(spinors, dtype=complex)
    a, b = spinors[:, 0], spinors[:, 1]
    for m in slices:
        s_prev, s_next = (m - 1) * dt / T, m * dt / T
        w = -1.0 - 0.5 * (s_prev + s_next) * emiq
        w_z = (dt / 3.0 * (s_next - s_prev)) * sin_q if order == 2 else np.zeros(len(q))
        r = np.sqrt(np.abs(w) ** 2 + w_z**2)
        c, k = np.cos(dt * r), np.sin(dt * r) / r
        g = -1j * k * w
        a, b = (c - 1j * k * w_z) * a + g * b, (c + 1j * k * w_z) * b - g.conj() * a
    return np.stack([a, b], axis=1)


def reference_slice_product(spinors, L, boundary, T, M, slices, order=1):
    """Bloch spinors (L/2, 2) stepped through `slices` by the slice-major SU(2) product.

    Each slice's block exponential is a pair (alpha, beta), and the pairs
    are formed as (len(slices), L/2) arrays, slices on axis 0, multiplied
    by pairwise levels (rows 2i and 2i+1 become U_{2i+1} U_{2i}, an odd
    last row carried up) and applied to the spinors once.  This is the
    layout the package ran before it went cell-major, with the same
    elementwise operations in the same operand order, so the two must
    agree bit for bit.
    """
    q = cell_momenta(L, boundary)
    emiq, sin_q = np.exp(-1j * q), np.sin(q)
    dt = T / M
    m = np.arange(slices.start, slices.stop)[:, None]
    s_prev, s_next = (m - 1) * dt / T, m * dt / T
    w = -1.0 - 0.5 * (s_prev + s_next) * emiq
    if order == 2:
        w_z = (dt / 3.0 * (s_next - s_prev)) * sin_q
        r = np.sqrt(w.real**2 + w.imag**2 + w_z**2)
    else:
        r = np.abs(w)
    c = np.cos(dt * r)
    k = np.sin(dt * r) / r
    alpha = c - 1j * k * w_z if order == 2 else c
    beta = -1j * k * w
    while len(alpha) > 1:
        n = len(alpha) & ~1
        a0, a1, b0, b1 = alpha[0:n:2], alpha[1:n:2], beta[0:n:2], beta[1:n:2]
        a = a1 * a0 - b1 * b0.conj()
        b = a1 * b0 + b1 * a0.conj()
        if n < len(alpha):
            a, b = np.concatenate((a, alpha[n:])), np.concatenate((b, beta[n:]))
        alpha, beta = a, b
    alpha, beta = alpha[0], beta[0]
    spinors = np.asarray(spinors)
    a, b = spinors[:, 0], spinors[:, 1]
    out = np.empty(spinors.shape, dtype=complex)
    out[:, 0] = alpha * a + beta * b
    out[:, 1] = alpha.conj() * b - beta.conj() * a
    return out


def mp_ramp_eps(L, boundary, T, M, dps=40):
    """Order-1 ramp's terminal distance, as a product of 2 x 2 blocks in mpmath.

    Each slice applies exp(-i dt H_q(s_mid)) to the dimer spinor of every
    cell momentum, using H_q^2 = |h_q|^2 for the off-diagonal block.
    """
    import mpmath as mp

    with mp.workdps(dps):
        cells = L // 2
        phi = mp.mpf(0) if boundary == "pbc" else mp.pi
        dt = mp.mpf(T) / M
        amp = mp.mpf(1)
        for n in range(cells):
            eiq = mp.expjpi((2 * n + phi / mp.pi) / cells)
            a = b = mp.sqrt(mp.mpf(1) / 2)
            for m in range(1, M + 1):
                s = (m - mp.mpf(1) / 2) / M
                h01 = -(1 + s * mp.conj(eiq))  # block entry <A|H_q|B>
                r = abs(h01)
                c, k = mp.cos(dt * r), mp.sin(dt * r) / r
                a, b = c * a - 1j * k * h01 * b, -1j * k * mp.conj(h01) * a + c * b
            # ground spinor of H_q(1): (1, e^{i arg(1 + e^{iq})}) / sqrt 2
            z = 1 + eiq
            amp *= abs(a + mp.conj(z / abs(z)) * b) / mp.sqrt(2)
        return mp.sqrt(2 - 2 * amp)


def mp_imag_energy(L, boundary, table, dps=40):
    """Energy of the imaginary circuit, as a product of normalized 2 x 2 blocks in mpmath.

    `table` has the (M, 2) layout of the circuit tables: column 0 odd
    family, column 1 even.  Each layer applies exp(-tau V) of the even
    block V(q) = -[[0, e^{-iq}], [e^{iq}, 0]], then of the odd block
    V = -sigma_x, to the dimer spinor (1, 1)/sqrt 2 of every cell
    momentum q.  Since V^2 = 1, exp(-tau V) = cosh(tau) - sinh(tau) V.
    The spinor is renormalized after every block.
    """
    import mpmath as mp

    with mp.workdps(dps):
        cells = L // 2
        phi = {"pbc": 0, "apbc": 1}[boundary]  # closure twist, in units of pi
        energy = mp.mpf(0)
        for n in range(cells):
            eiq = mp.expjpi(mp.mpf(2 * n + phi) / cells)
            a = b = mp.sqrt(mp.mpf(1) / 2)
            for odd, even in table:
                for tau, z in ((even, mp.conj(eiq)), (odd, 1)):
                    c, s = mp.cosh(mp.mpf(tau)), mp.sinh(mp.mpf(tau))
                    a, b = c * a + s * z * b, s * mp.conj(z) * a + c * b
                    norm = mp.sqrt(abs(a) ** 2 + abs(b) ** 2)
                    a, b = a / norm, b / norm
            h01 = -(1 + mp.conj(eiq))  # block entry <A|H_q|B>
            energy += 2 * mp.re(mp.conj(a) * h01 * b)
        return energy


def reference_scan_blocks(L, boundary, psi, theta, chis, alphas):
    """Grid scan of the Bloch-block overlap, one alpha row at a time: (f, chi, alpha).

    psi (L/2, 2) are the prefix spinors before its last odd half-layer,
    theta that half-layer's angle and u_q = z/|z|, z = 1 + chi e^{iq}, the
    ramp ground phases.  Row alpha is prod_q |c (a + conj(u_q) b) +
    s (b + conj(u_q) a)|^2 / 2 at (c, s) = (cos, i sin)(alpha theta).  This
    is the per-row loop the package ran before it filled the grid in
    chunks, with the same elementwise operations, so the two must agree
    bit for bit; np.argmax keeps the first maximum, alpha-major.
    """
    q = cell_momenta(L, boundary)
    z = 1.0 + np.multiply.outer(chis, np.exp(1j * q))
    u = z / np.abs(z)
    a, b = psi[:, 0], psi[:, 1]
    rows = []
    for al in alphas:
        c, s = np.cos(al * theta), 1j * np.sin(al * theta)
        amp = c * (a + u.conj() * b) + s * (b + u.conj() * a)
        rows.append(np.prod(0.5 * np.abs(amp) ** 2, axis=-1))
    grid = np.array(rows)
    i, j = np.unravel_index(np.argmax(grid), grid.shape)
    return float(grid[i, j]), float(chis[j]), float(alphas[i])


def scalar_grid_scan(adjoints, chis, alphas, prefix_state):
    """Grid scan of |det(adjoint prefix(alpha))|^2, one determinant per (alpha, chi) point.

    `adjoints[i]` is the conjugate transpose of the target at `chis[i]`;
    the states `prefix_state(alpha)` returns carry `orbitals`.  Points are
    visited alpha by alpha, chi by
    chi, and a point replaces the best only when strictly greater.
    Returns (f, chi, alpha).
    """
    f_best, chi_best, al_best = -1.0, 0.0, float(alphas[0])
    for al in alphas:
        st = prefix_state(float(al))
        for chi, adj in zip(chis, adjoints):
            det = np.linalg.det(adj @ st.orbitals)
            f = float(abs(complex(det)) ** 2)
            if f > f_best:
                f_best, chi_best, al_best = f, float(chi), float(al)
    return f_best, chi_best, al_best


def reference_run(spec, params, mode, config):
    """The earlier `optimizer._run`: a `DqapParams` and a `block_energy` per
    trial, and a finiteness scan of the step apart from the trust cap's."""
    import math

    from dqap_lab import (DqapParams, LinearSolveError, OptResult, SingularOverlapError,
                          assemble_metric_and_force, block_energy, state_and_derivatives)
    from dqap_lab.optimizer import (_MAX_HALVINGS, _RIDGE, _STEP_GROWTH, _TRUST_CAP,
                                    _solve_step)

    trace = [block_energy(spec, params, mode)]
    stop_reason = "no_descent" if params.M == 0 else "max_iters"
    db = config.delta_beta
    while params.M and len(trace) - 1 < config.max_iters:
        metric, force = assemble_metric_and_force(
            *state_and_derivatives(spec, params, mode=mode), spec
        )
        dtheta = _solve_step(metric, force, db, _RIDGE)
        if not np.isfinite(dtheta).all():
            raise LinearSolveError("natural-gradient system produced non-finite step")
        largest = np.abs(dtheta).max()
        if largest > _TRUST_CAP:
            dtheta *= _TRUST_CAP / largest
        flat = params.flatten()
        scale = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = DqapParams.from_flat(flat + scale * dtheta)
            try:
                energy = block_energy(spec, trial, mode)
            except SingularOverlapError:
                energy = math.inf
            if math.isfinite(energy) and energy <= trace[-1]:
                break
            scale *= 0.5
        else:
            stop_reason = "no_descent"
            break
        db = db * _STEP_GROWTH if scale == 1.0 else max(config.delta_beta, db * scale)
        params = trial
        trace.append(energy)
        if abs(trace[-1] - trace[-2]) / (abs(trace[-1]) + 1.0) < config.energy_tol:
            stop_reason = "energy_tol"
            break
    converged = stop_reason != "max_iters"
    return OptResult(params, trace[-1], np.asarray(trace), len(trace) - 1, converged, stop_reason)
