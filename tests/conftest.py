"""Session-wide fixtures.

The optimized warm-start ladder is the expensive shared input: it
optimizes depth 1, then grows depth by depth with the mid-layer
insertion rule.  It is built once per session and reused across the
scheduling-overlap tests.  Stopping uses a tight energy tolerance so
that saddle plateaus (where per-step progress can transiently dip below
a loose threshold) are traversed rather than mistaken for convergence.
"""

import pytest

from dqap_lab import (
    LatticeSpec,
    OptimizerConfig,
    optimize,
    warm_start,
)

TIGHT = dict(energy_tol=1e-15, max_iters=60_000)


def build_ladder(L, gamma, top):
    """Warm-start ladder of optimizations at depths 1..top.

    Returns {m: OptResult}; every rung is initialized from the previous
    one through the mid-layer insertion rule.
    """
    spec = LatticeSpec.half_filling(L, gamma=gamma)
    cfg = OptimizerConfig(**TIGHT)
    out = {}
    params = None
    for m in range(1, top + 1):
        init = warm_start(params) if params is not None else None
        out[m] = optimize(spec, m, cfg, init=init)
        params = out[m].params
    return out


@pytest.fixture(scope="session")
def ladder16():
    return build_ladder(16, -1, 4)
