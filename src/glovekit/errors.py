"""The two toolkit errors; ``glovekit.cli`` turns each into its exit code."""


class GlovekitError(Exception):
    """Bad data, shape or value in an input, option or call: exit code 3."""


class TransportError(GlovekitError):
    """Byte transport failed or ended before the session completed: exit code 4."""
