"""Exception types shared across the package."""


class CrtSpectraError(Exception):
    """Base class for package errors."""


class CapacityError(CrtSpectraError):
    """A requested computation exceeds the configured cell budget."""


class IncompleteCascade(CrtSpectraError):
    """A network assembly is missing cascade or perturbation values."""


class TailError(CrtSpectraError):
    """A renewal integrand has not decayed at the window edges."""


class WindowUnresolved(CrtSpectraError):
    """A fitting window touches the discretization limits."""


class GuardError(CrtSpectraError):
    """A numerical guard has failed: bracketing, count order or the Dirichlet floor."""
