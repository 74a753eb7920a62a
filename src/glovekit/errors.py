"""The two toolkit errors (``glovekit.cli`` turns each into its exit code) and one range rule."""

import sys


class GlovekitError(Exception):
    """Bad data, shape or value in an input, option or call: exit code 3."""


class TransportError(GlovekitError):
    """Byte transport failed or ended before the session completed: exit code 4."""


def require_positive(name: str, value: float) -> None:
    """GlovekitError unless ``value`` is above 0 and at most the largest float."""
    _require(name, value, "positive", value > 0)


def require_nonnegative(name: str, value: float) -> None:
    """GlovekitError unless ``value`` is 0 or above and at most the largest float."""
    _require(name, value, "nonnegative", value >= 0)


def _require(name: str, value: float, kind: str, in_range: bool) -> None:
    # NaN is never in range; infinity and ints no float holds exceed the largest float
    if not (in_range and value <= sys.float_info.max):
        raise GlovekitError(f"{name} must be {kind} and finite, got {value}")
