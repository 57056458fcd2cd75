"""Error taxonomy shared by every module, and the one integer check every
public function runs on each integer argument: require_int."""

from operator import index


class InvalidModulusError(ValueError):
    """A modulus below 2 was supplied where modular reduction is required."""


class OutOfDomainError(ValueError):
    """Arguments fall outside the mathematical domain of the operation."""


class ResourceGuardError(RuntimeError):
    """The request exceeds a configured resource limit.

    `partial` carries whatever evidence was computed before the guard fired,
    e.g. an incomplete factorization.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


def require_int(name: str, value, least: int, error: type = OutOfDomainError) -> int:
    """value as an int (bool and other int types count, by operator.index),
    or error naming `name` and value when it is no integer or below least."""
    try:
        n = index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if n < least:
        try:
            shown = str(n)
        except ValueError:  # more digits than Python prints
            shown = f"{'a negative' if n < 0 else 'an'} integer of {n.bit_length()} bits"
        floor = f"at least {least}" if least else "nonnegative"
        raise error(f"{name} must be {floor}, got {shown}")
    return n
