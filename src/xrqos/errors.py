"""Exception hierarchy shared across the toolkit, and ``require``, the number check that raises it.

Records, their field declarations and the JSON and CSV format of a record table live in ``records``."""
import math
import sys

from . import _EXPORTS

__all__ = _EXPORTS["errors"].split()


class XrqosError(Exception):
    """Base class for all toolkit errors."""


class DomainError(XrqosError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ConfigError(XrqosError, ValueError):
    """A model object is missing data required by the requested operation."""


class UnknownKeyError(XrqosError, LookupError):
    """A registry lookup failed; the message lists the valid keys."""


class ProfileError(XrqosError, ValueError):
    """A profile file failed to parse or validate."""


# Half-lines that read better as words than as intervals.
_RANGE_WORDS = {
    "(-inf, inf)": "must be finite",
    "(0, inf)": "must be positive and finite",
    "(0, inf]": "must be positive",
    "[0, inf)": "cannot be negative or infinite",
    "[0, inf]": "cannot be negative",
}


def require(name: str, value, *, gt=None, ge=None, lt=None, le=None):
    """``value`` if it is a number within every given bound; otherwise a DomainError naming ``name``.

    NaN never passes. An infinity, or an integer beyond every float, passes
    only as an explicit closed bound (``le=math.inf``), so a check without an
    upper bound asks for a finite number. A value that the bounds cannot be
    compared with is not a number.
    """
    try:
        if (
            (gt is None or value > gt)
            and (ge is None or value >= ge)
            and (lt is None or value < lt)
            and (le is None or value <= le)
            and (-sys.float_info.max <= value <= sys.float_info.max or value == le)
        ):
            return value
    except TypeError:
        raise DomainError(f"{name} must be a number, got {value!r}") from None
    got = value
    if isinstance(value, int) and not -sys.float_info.max <= value <= sys.float_info.max:
        digits = int(math.log10(abs(value))) + 1  # one off at most, next to a power of ten
        digits += (abs(value) >= 10**digits) - (abs(value) < 10 ** (digits - 1))
        got = f"{'a negative' if value < 0 else 'an'} integer of {digits} digits"  # Python writes at most 4,300
        if value > 0 and le == math.inf:  # an interval closed at infinity holds it, so its words would pass it
            raise DomainError(f"{name} lies beyond the float range, got {got}")
    low = f"({gt}" if gt is not None else f"[{ge}" if ge is not None else "(-inf"
    high = f"{lt})" if lt is not None else f"{le}]" if le is not None else "inf)"
    interval = f"{low}, {high}"
    raise DomainError(f"{name} {_RANGE_WORDS.get(interval, f'must lie in {interval}')}, got {got}")
