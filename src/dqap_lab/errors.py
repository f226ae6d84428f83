"""Exception types shared across the package."""


class DqapError(Exception):
    """Base class for package errors."""


class OpenShellError(DqapError):
    """Filling does not close a shell: the Fermi level is degenerate."""


class DimensionMismatch(DqapError):
    """Operands describe different lattice sizes or particle numbers."""


class SingularOverlapError(DqapError):
    """Imaginary-time evolution leaves no normalizable state.

    A bond coefficient overflows, or the evolved orbital columns are
    linearly dependent to tolerance.
    """


class LinearSolveError(DqapError):
    """Natural-gradient linear system could not be solved."""


class SizeLimitExceeded(DqapError):
    """Requested many-body enumeration is larger than the configured cap."""


class ConfigError(DqapError):
    """Experiment configuration is malformed or inconsistent."""


class NoConvergence(DqapError):
    """Iterative search exhausted its budget without meeting the target."""
