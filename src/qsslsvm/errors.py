"""Exception types shared across the package.

Two families, matching the CLI exit codes: ``InputError`` covers anything
the caller can fix by changing files or parameters (exit code 2), and
``NumericalError`` covers failures of an otherwise well-formed request
(exit code 3).  Plain ``OSError`` is left alone and maps to exit code 4.
The pipeline re-raises an error from one of its stages as the same
object, with the stage name in a ``stage`` attribute.
"""


class InputError(ValueError):
    """Bad user input: files, parameters, or configuration."""


class ParseError(InputError):
    """Malformed dataset or graph file; carries a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ParameterError(InputError):
    """Argument outside its documented range."""


class ConfigurationError(InputError):
    """Inconsistent run configuration (e.g. phase range exceeded)."""


class LayoutError(InputError):
    """Tensor layout or matrix dimensions do not match."""


class DegreeError(InputError):
    """Graph has an isolated vertex where degrees >= 1 are required."""


class NumericalError(ArithmeticError):
    """Numerical failure of an otherwise valid request."""


class SymmetryError(NumericalError):
    """Matrix is not Hermitian within tolerance."""


class EncodingError(NumericalError):
    """Data cannot be encoded as a quantum state (e.g. zero-norm sample)."""


class DegenerateSystemError(NumericalError):
    """Nothing left to solve: all eigenvalues filtered out or zero model."""


class AmplitudeOverflowError(NumericalError):
    """Conditional rotation would require an amplitude above one."""
