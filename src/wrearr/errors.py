"""Exception types shared across the package."""

__all__ = [
    "WrearrError",
    "ValidationError",
    "ParseError",
    "EigenSolverError",
    "InfiniteValueError",
    "NormOverflowError",
]


class WrearrError(Exception):
    """Base class for all library errors."""


class ValidationError(WrearrError):
    """An input violates a structural invariant (CLI exit code 3)."""


class ParseError(WrearrError):
    """Malformed input file or option string (CLI exit code 2)."""


class EigenSolverError(WrearrError):
    """The Jacobi iteration failed to converge on one block.

    A non-convergence error also carries the number of ``sweeps`` run and the
    final ``off_diagonal`` measure, the largest ratio the stopping rule bounds.
    """

    def __init__(self, block_index, message, sweeps=None, off_diagonal=None):
        if sweeps is not None:
            message += f" after {sweeps} sweeps (off-diagonal measure {off_diagonal:.3e})"
        super().__init__(f"block {block_index}: {message}")
        self.block_index = block_index
        self.sweeps = sweeps
        self.off_diagonal = off_diagonal


class InfiniteValueError(WrearrError):
    """Functional calculus produced an infinite value on the spectrum."""


class NormOverflowError(WrearrError):
    """A finite norm or integral exceeds the largest float (CLI exit code 3)."""
