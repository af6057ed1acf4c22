"""Exception types, and the generation check, shared across the package."""

from fractions import Fraction


class FractalTutteError(Exception):
    """Base class for all errors raised by this package."""


class SizeLimitExceeded(FractalTutteError):
    """A requested computation would exceed a hard size guard."""


class ZeroPolynomial(FractalTutteError):
    """An operation that needs a nonzero polynomial received zero."""


class DomainError(FractalTutteError):
    """A numeric argument lies outside its valid domain."""


def shown(value) -> str:
    """str(value) for a message, also where an int in it is past the
    interpreter's int/str limit (4300 digits by default): such an int,
    alone, in a tuple or list, or in a Fraction, is written by
    ``scalars.decimal_str``."""
    try:
        return str(value)
    except ValueError:
        pass
    if isinstance(value, (tuple, list)):
        inner = ", ".join(map(shown, value))
        if isinstance(value, list):
            return f"[{inner}]"
        return f"({inner},)" if len(value) == 1 else f"({inner})"
    if isinstance(value, Fraction):
        num, den = value.as_integer_ratio()
        return shown(num) if den == 1 else f"{shown(num)}/{shown(den)}"
    from .scalars import decimal_str  # scalars imports this module
    return decimal_str(value)


def check_generation(n: int, limit: float, what: str) -> None:
    """Refuse n outside 0..limit before any work; ``what`` names the
    computation and the cost that sets its limit."""
    if n < 0:
        raise DomainError(f"generation must be nonnegative, got {shown(n)}")
    if n > limit:
        raise SizeLimitExceeded(
            f"{what} is limited to n <= {limit}, got n = {shown(n)}")
