"""Exception hierarchy for the Pass-Join reproduction library.

All errors raised by the public API derive from :class:`PassJoinError`, so
callers can catch a single base class.  More specific subclasses signal the
usual misuse cases: invalid thresholds, malformed configuration, inputs that
violate a documented precondition, and dataset-generation problems.
"""

from __future__ import annotations


class PassJoinError(Exception):
    """Base class for every error raised by this library."""


class InvalidThresholdError(PassJoinError, ValueError):
    """The edit-distance threshold ``tau`` is not a non-negative integer,
    or exceeds the ``max_tau`` an index was built for."""

    def __init__(self, tau: object, max_tau: int | None = None) -> None:
        super().__init__(
            f"edit-distance threshold must be a non-negative integer, got {tau!r}"
            if max_tau is None else
            f"threshold {tau} exceeds this index's max_tau={max_tau}"
        )
        self.tau = tau


class InvalidPartitionError(PassJoinError, ValueError):
    """A string cannot be partitioned into the requested number of segments."""


class ConfigurationError(PassJoinError, ValueError):
    """A configuration value is out of range or inconsistent.

    Raised at construction time by :class:`repro.config.JoinConfig` and
    :class:`repro.config.ServiceConfig` so a bad knob (``shards < 1``, an
    unknown ``shard_backend``, ``migration_batch < 1``, ...) fails with a
    clear message instead of deep inside the serving stack.
    """


#: Short alias for :class:`ConfigurationError`.
ConfigError = ConfigurationError


class UnknownMethodError(ConfigurationError):
    """A selection/verification/algorithm name does not match a known method."""

    def __init__(self, kind: str, name: str, known: tuple[str, ...]) -> None:
        super().__init__(
            f"unknown {kind} {name!r}; expected one of {', '.join(sorted(known))}"
        )
        self.kind = kind
        self.name = name
        self.known = known


class DatasetError(PassJoinError):
    """A dataset could not be generated, loaded, or parsed."""


class ExperimentError(PassJoinError):
    """A benchmark experiment was misconfigured or failed to run."""


class ServiceError(PassJoinError):
    """The similarity-search service rejected a request or misbehaved.

    Raised by the service clients when the server answers ``ok: false`` or
    violates the JSON-lines protocol (truncated stream, non-JSON reply).
    """


class ProtocolError(ServiceError):
    """The JSON-lines wire protocol itself was violated.

    Raised by the service clients when the server closes the connection
    mid-response, sends a truncated or non-JSON frame, or the transport
    resets underneath a request — instead of leaking a bare
    ``json.JSONDecodeError`` or ``ConnectionResetError``.  Subclasses
    :class:`ServiceError`, so existing ``except ServiceError`` handlers
    keep working.
    """
