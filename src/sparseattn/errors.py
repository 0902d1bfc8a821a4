"""Exception types shared across the package.

Plain ``ValueError`` is used for ordinary domain errors (bad argument
values); the classes below exist so the CLI can map failure families to
distinct exit codes.
"""


class ConfigError(ValueError):
    """Invalid configuration: unknown method, missing artifact, bad grid."""


class DataError(ValueError):
    """Malformed or inconsistent data file (tensor, graph, checkpoint)."""
