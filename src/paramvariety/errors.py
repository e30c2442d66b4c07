"""Exception types shared across the toolkit, with the CLI exit-code map.

Exit codes: 0 success, 2 usage/parse/data-shape, 3 numeric failure,
4 algebra resource cap, 5 internal invariant violation.
"""

EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_RESOURCE = 4
EXIT_INTERNAL = 5


class ParamVarietyError(Exception):
    exit_code = EXIT_INTERNAL


class UsageError(ParamVarietyError, ValueError):
    """A value given on the command line or to a library call that is
    malformed, out of range or inconsistent with the model."""
    exit_code = EXIT_USAGE


# --- algebra layer ---------------------------------------------------------

class DivisionByZero(ParamVarietyError):
    """Inversion or division by the zero rational function."""


class ZeroPolynomial(ParamVarietyError):
    """Operation needs a nonzero polynomial (e.g. leading term of 0)."""


class UnknownVariable(ParamVarietyError):
    """A monomial mentions a variable the ordering does not contain."""


class RingMismatch(ParamVarietyError):
    """Operands live in different polynomial rings."""


# --- Groebner engine -------------------------------------------------------

class ResourceExhausted(ParamVarietyError):
    """Basis computation hit a configured size cap before finishing."""
    exit_code = EXIT_RESOURCE


class InvalidBlock(ParamVarietyError):
    """Elimination keep-set is not a suffix of the variable order."""


# --- model layer ------------------------------------------------------------

class ModelSyntaxError(ParamVarietyError):
    """A parse error; reason is the message without its line and column."""
    exit_code = EXIT_USAGE

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        self.reason = message
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column else "")
            message = f"{where}: {message}"
        super().__init__(message)


class UndeclaredSymbol(ModelSyntaxError):
    pass


class NonPolynomialModel(ModelSyntaxError):
    """Right-hand side is not polynomial in the state/input variables."""


# --- IO-equation derivation --------------------------------------------------

class InternalError(ParamVarietyError):
    """An invariant the theory guarantees was violated (a bug)."""


class MultipleIOEquations(ParamVarietyError):
    """More than one state-free element appeared in the reduced basis."""


class NoParameterDependence(ParamVarietyError):
    """Every coefficient of the input-output equation is parameter-free."""
    exit_code = EXIT_USAGE


# --- numeric layer ------------------------------------------------------------

class JetOrderMismatch(ParamVarietyError):
    exit_code = EXIT_USAGE


class InsufficientData(ParamVarietyError):
    exit_code = EXIT_USAGE


class DatasetFormatError(ParamVarietyError):
    """A dataset file that does not parse; the message names file and line."""
    exit_code = EXIT_USAGE


class IllConditioned(ParamVarietyError):
    exit_code = EXIT_NUMERIC


class BlowUp(ParamVarietyError):
    exit_code = EXIT_NUMERIC

    def __init__(self, message, time=None):
        self.time = time
        super().__init__(message)


class DegenerateEigenvalues(ParamVarietyError):
    exit_code = EXIT_NUMERIC


# --- extension check ------------------------------------------------------------

class MissingLeading(ParamVarietyError):
    """No basis element has positive degree in an eliminated variable."""
