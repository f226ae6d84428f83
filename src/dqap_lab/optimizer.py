"""Natural-gradient minimization of the hopping energy over circuit angles.

The update solves (S + S* + ridge) dtheta = -delta_beta (f + f*) where S
is the overlap metric of the parameter derivatives, f the force vector
and the ridge a fixed 1e-10.  Both read each derivative only through its
weight t on the direction orthogonal to its normalized Bloch block, and
the derivative engine (`ansatz.state_and_derivatives`) hands over these
weights in closed form at cost O(M L).  `assemble_metric_and_force`
returns the real system the solver solves, S + S* = 2 Re(conj(t) t^T)
and f + f* = 2 Re(conj(t) w), formed on the real view of t at cost
O(K^2 L), with the metric exactly symmetric.  The energy the run
compares is the block energy (`ansatz.block_energy`, one block pass at
cost O(M L)): the start, every line-search trial and the trace read it,
and the run reports the last one.  The pass is memoized for one table,
so the weights of the accepted trial come from the pass its energy ran:
an iteration runs one block pass per trial and no other.  No real-space
state is built.

Both modes optimize the same table type, `DqapParams`; the mode is
named by the caller, through `optimize` (real) or `optimize_imaginary`.
`ladder` runs either one depth by depth, the paper's warm-start ladder:
each depth M + 1 starts from the optimized M-layer table grown by
`warm_start`.

With the metric on the left this flow is a discretized imaginary-time
evolution projected onto the variational manifold, so the energy trace
is non-increasing for small delta_beta.  That bound is first order; at
finite delta_beta a shift along a soft metric mode can leave the linear
regime, so the run loop halves the shift until a trial's block energy is
finite and no higher than the last; a trial whose imaginary-time block
coefficient overflows (`SingularOverlapError`) counts as energy +inf.
Well-conditioned steps are taken whole.

delta_beta adapts per run, in both modes.  It starts at the configured
value; a step taken whole multiplies it by 1.5, and a step that needed
halvings sets it to its accepted fraction, never below the configured
value.  A trust cap scales every proposed shift so that no angle moves
by more than 0.1 in one iteration, which keeps the grown step inside
the region where the line search finds descent.  Without the floor,
runs of halvings can shrink delta_beta until a random start stalls far
above its minimum; without the cap, grown steps can throw a random
start onto a plateau where it stalls too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ansatz import DqapParams, block_energy, state_and_derivatives
from .errors import LinearSolveError, SingularOverlapError
from .lattice import LatticeSpec, _block_hopping, is_finite_nonnegative, is_finite_positive, is_int

_LSTSQ_CUTOFF = 1e-12
_RIDGE = 1e-10  # shift of the kept metric modes; the step hardly depends on it
_MAX_HALVINGS = 60
_TRUST_CAP = 0.1  # largest angle shift per iteration
_STEP_GROWTH = 1.5  # delta_beta factor after a step taken whole
_INIT_MODES = ("linear-schedule", "random")


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the natural-gradient loop.

    delta_beta is the initial and minimum step of a run, which grows it
    after every step taken whole under a trust cap of 0.1 per angle
    (see the module docstring); real- and imaginary-time runs share
    this rule.  A run stops when the relative energy change of one
    iteration falls below energy_tol, when no halving of the proposed
    shift lowers the energy, or after max_iters iterations.

    init_mode is 'linear-schedule' or 'random' (a uniform draw seeded by
    seed, which 'random' requires); init_scale is the base step of the
    schedule and the upper bound of the draw.  An explicit table passed
    to `optimize` replaces either.  A value of the wrong type or range
    raises ValueError, also through `dataclasses.replace`; the fields
    cannot be assigned after the checks.
    """

    max_iters: int = 200_000
    energy_tol: float = 1e-13
    delta_beta: float = 0.01
    init_mode: str = "linear-schedule"
    init_scale: float = 0.01
    seed: int | None = None

    def __post_init__(self):
        checks = [
            ("delta_beta", "a finite positive real", is_finite_positive),
            ("init_scale", "a finite positive real", is_finite_positive),
            ("energy_tol", "a finite non-negative real", is_finite_nonnegative),
            ("max_iters", "a non-negative int", lambda v: is_int(v) and v >= 0),
            ("seed", "a non-negative int or None", lambda v: v is None or is_int(v) and v >= 0),
        ]
        for name, what, ok in checks:
            value = getattr(self, name)
            if not ok(value):
                raise ValueError(f"{name} must be {what}, got {value!r}")
        if self.init_mode not in _INIT_MODES:
            raise ValueError(f"unknown init_mode {self.init_mode!r}")
        if self.init_mode == "random" and self.seed is None:
            raise ValueError("init_mode 'random' needs a seed, or the start cannot be reproduced")


@dataclass
class OptResult:
    """Outcome of a run.

    trace holds the block energies (`ansatz.block_energy`) the run
    compared: the start and one per accepted step.  energy is trace[-1],
    the block energy of params.

    stop_reason is 'energy_tol' (the energy change fell below the
    tolerance), 'no_descent' (no halving of the proposed shift gives a
    finite energy no higher than the last, or there are no angles to
    move) or 'max_iters'.
    converged is true for the first two.
    """

    params: DqapParams
    energy: float
    trace: np.ndarray
    iterations: int
    converged: bool
    stop_reason: str


def assemble_metric_and_force(
    spinors: np.ndarray, tangents: np.ndarray, spec: LatticeSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Real system (S + S*, f + f*) from Bloch spinors (L/2, 2) and tangent weights (K, L/2).

    Every block psi_q has unit norm and the blocks of different cell
    momenta are orthogonal, so the real-space traces of the metric and
    force split into sums over q of the projected formulas

        S_kk' = sum_q [a_kq+ a_k'q - conj(psi_q+ a_kq) (psi_q+ a_k'q)]
        f_k   = sum_q a_kq+ (H_q psi_q - psi_q E_q),   E_q = psi_q+ H_q psi_q,

    with H_q = -[[0, 1 + e^{-iq}], [1 + e^{iq}, 0]] and a_kq the
    derivative of block q by flat parameter k.  Both read only the part
    of a_kq along psi_perp = (-psi_1*, psi_0*), whose weight is
    t_kq = psi_q^T J a_kq with J = [[0, 1], [-1, 0]]
    (`ansatz.state_and_derivatives`), so they are evaluated in tangent form,

        S_kk' = sum_q conj(t_kq) t_k'q,   f_k = sum_q conj(t_kq) w_q,
        w_q = psi_q^T J H_q psi_q,

    which has no cancellation between |a|^2 and |psi+ a|^2.  The solver
    reads only their real parts, so both are formed on the real view
    r = tangents.view(float), which interleaves Re t and Im t:
    S + S* = 2 r r^T, exactly symmetric (numpy forms it as one syrk), and
    f + f* = 2 r w.view(float).  The cost is O(K^2 L).  K = 0 gives an
    empty metric and force.
    """
    h01 = _block_hopping(spec)
    psi0, psi1 = spinors[:, 0], spinors[:, 1]
    w = h01.conj() * psi0 * psi0 - h01 * psi1 * psi1
    tr = tangents.view(float)
    return 2.0 * (tr @ tr.T), 2.0 * (tr @ w.view(float))


def _solve_step(metric, force, delta_beta: float, ridge: float):
    """Proposed angle shift: pseudo-solve of the regularized real system.

    `metric` and `force` are the real system (S + S*, f + f*) of
    `assemble_metric_and_force`; the metric is symmetric PSD up to
    rounding and factorized spectrally (symmetric eigendecomposition).
    Modes below 1e-12 of the top eigenvalue carry force components that
    are pure cancellation noise, and the ridge alone would amplify that
    noise into wild parameter jumps; those modes are truncated, the rest
    inverted with the ridge shift.
    """
    b = -delta_beta * force
    try:
        w, v = np.linalg.eigh(metric)
    except np.linalg.LinAlgError as exc:
        raise LinearSolveError("metric eigendecomposition failed") from exc
    top = w[-1] if len(w) else 0.0
    if top <= 0.0:
        return np.zeros(len(b))
    keep = w > _LSTSQ_CUTOFF * top
    # The copy fixes the operand layout of both products; skipping it when
    # every mode is kept changes the step's last bits.
    vk = v[:, keep]
    dtheta = vk @ ((vk.T @ b) / (w[keep] + ridge))
    if not np.isfinite(dtheta).all():
        raise LinearSolveError("natural-gradient system produced non-finite step")
    return dtheta


def linear_schedule_params(m_layers, scale):
    """Angles of the discretized interpolation: odd family constant at
    scale, even family ramping linearly to it over the M layers."""
    table = np.empty((m_layers, 2))
    table[:, 0] = scale
    table[:, 1] = scale * np.arange(1, m_layers + 1) / max(m_layers, 1)
    return DqapParams(table)


def _initial_params(m_layers, config, init):
    if init is not None:
        if init.M != m_layers:
            raise ValueError(f"start table has {init.M} layers, need {m_layers}")
        if not np.isfinite(init.angles).all():
            raise ValueError("start table holds a NaN or infinite angle")
        return DqapParams(np.asarray(init.angles, dtype=float).copy())
    if config.init_mode == "linear-schedule":
        return linear_schedule_params(m_layers, config.init_scale)
    rng = np.random.default_rng(config.seed)
    return DqapParams(rng.uniform(0.0, config.init_scale, (m_layers, 2)))


def _run(spec, params, mode, config):
    trace = [block_energy(spec, params, mode)]
    stop_reason = "no_descent" if params.M == 0 else "max_iters"
    db = config.delta_beta
    while params.M and len(trace) - 1 < config.max_iters:
        metric, force = assemble_metric_and_force(
            *state_and_derivatives(spec, params, mode=mode), spec
        )
        dtheta = _solve_step(metric, force, db, _RIDGE)
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
            # No scale of the proposed shift descends: the state sits at
            # the numerical floor of this basin.
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


def optimize(
    spec: LatticeSpec,
    m_layers: int,
    config: OptimizerConfig | None = None,
    init: DqapParams | None = None,
) -> OptResult:
    """Minimize the hopping energy over an M-layer real-time circuit."""
    config = config or OptimizerConfig()
    params = _initial_params(m_layers, config, init)
    return _run(spec, params, "real", config)


def optimize_imaginary(
    spec: LatticeSpec,
    m_layers: int,
    config: OptimizerConfig | None = None,
    init: DqapParams | None = None,
) -> OptResult:
    """Minimize the hopping energy over an M-layer imaginary-time circuit."""
    config = config or OptimizerConfig()
    params = _initial_params(m_layers, config, init)
    return _run(spec, params, "imag", config)


def warm_start(params: DqapParams) -> DqapParams:
    """Grow an optimized M-layer table to M+1 layers.

    Inserts the average of layers j and j+1 after layer j, with
    j = M // 2 (for M = 1 the single layer is duplicated).  The new
    table is the usual initialization for the next optimization rung.
    """
    table = params.angles
    m = table.shape[0]
    if m == 0:
        raise ValueError("cannot warm-start from an empty table")
    if m == 1:
        new = np.vstack([table[0], table[0]])
    else:
        j = m // 2
        new = np.insert(table, j, 0.5 * (table[j - 1] + table[j]), axis=0)
    return DqapParams(new)


def ladder(
    spec: LatticeSpec, depths, config: OptimizerConfig | None = None, mode: str = "real"
) -> dict:
    """Optimize at each depth, warm-starting every rung from the last.

    Runs depth 0 first when it is requested (the bare dimer result),
    then every depth from 1 to max(depths) in `mode` ("real" or
    "imag"); depth M + 1 starts from `warm_start` of the optimized
    M-layer table, depth 1 from `config`'s initialization.  Returns
    {depth: OptResult} for the requested depths.  Any other mode, no
    depth at all or a depth that is not a non-negative int raises
    ValueError before the first rung runs.
    """
    if mode not in ("real", "imag"):
        raise ValueError(f"mode must be 'real' or 'imag', got {mode!r}")
    depths = list(depths)
    if not depths or not all(is_int(m) and m >= 0 for m in depths):
        raise ValueError(f"depths must be a non-empty list of non-negative ints, got {depths!r}")
    # looked up at call time, so that rebinding the module's names (as a
    # tracer does) reaches every ladder
    run = optimize if mode == "real" else optimize_imaginary
    out = {0: run(spec, 0, config)} if 0 in depths else {}
    init = None
    for m in range(1, max(depths) + 1):
        res = run(spec, m, config, init=init)
        init = warm_start(res.params)
        if m in depths:
            out[m] = res
    return out
