"""Session-wide fixtures.

The optimized warm-start ladder is the expensive shared input: it
optimizes depth 1, then grows depth by depth with the mid-layer
insertion rule (`optimizer.ladder`).  It is built once per session and
reused across the scheduling-overlap tests.  Stopping uses a tight
energy tolerance so that saddle plateaus (where per-step progress can
transiently dip below a loose threshold) are traversed rather than
mistaken for convergence.
"""

import pytest

from dqap_lab import LatticeSpec, OptimizerConfig, ladder

TIGHT = dict(energy_tol=1e-15, max_iters=60_000)


@pytest.fixture(scope="session")
def ladder16():
    return ladder(LatticeSpec.half_filling(16), range(1, 5), OptimizerConfig(**TIGHT))
