"""Failure modes raised by the numerical kernels.

Every error carries enough context (parameters, residuals, iteration
counts) to reproduce the failing call.
"""


class MVPBError(Exception):
    """Base class for all package-specific failures."""


class IllConditioned(MVPBError):
    """A linear solve or eigendecomposition is too ill-conditioned to trust."""


class BranchSwap(MVPBError):
    """Eigenvalue continuation lost track of a branch (overlap fell below threshold)."""


class NoConvergence(MVPBError):
    """An iterative solver (Newton, fixed point) exhausted its iteration budget."""


class Instability(MVPBError):
    """A time integration produced non-finite values or norm blow-up."""


class CFLViolation(MVPBError):
    """Requested time step violates the advective stability limit."""


class MemoryBudget(MVPBError):
    """Requested resolution would exceed the configured memory budget."""


class MissingStudy(MVPBError):
    """A report/consolidation step needs the output of a study that was not run."""


class ConfigError(MVPBError):
    """Malformed or inconsistent run configuration."""


class AliasingWarning(UserWarning):
    """Spectral energy at the Nyquist mode exceeds the aliasing tolerance."""
