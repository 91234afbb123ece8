"""Exception hierarchy for the repro (CompilerGym reproduction) package.

The exception names mirror the ones exposed by the original CompilerGym
release so that user code ports across with no changes.
"""


class CompilerGymError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(CompilerGymError):
    """A state or semantics validation check failed.

    Attributes:
        type: A short machine-readable category for the error.
        data: Optional structured payload describing the failure.
    """

    def __init__(self, type: str, data: dict = None):  # noqa: A002 - match upstream API
        self.type = type
        self.data = dict(data or {})
        super().__init__(type)

    def __repr__(self) -> str:
        return f"ValidationError(type={self.type!r}, data={self.data!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, ValidationError):
            return NotImplemented
        return self.type == other.type and self.data == other.data

    def __hash__(self) -> int:
        return hash(self.type)


class SessionNotFound(CompilerGymError):
    """The requested compilation session does not exist in the service."""


class ServiceError(CompilerGymError):
    """The compiler service encountered an internal error."""


class ServiceOSError(ServiceError):
    """The compiler service encountered an operating-system level error."""


class ServiceInitError(ServiceError):
    """The compiler service failed to initialize."""


class ServiceTransportError(ServiceError):
    """Communication with the compiler service failed."""


class ServiceIsClosed(ServiceError):
    """An operation was attempted on a closed service."""


class ServiceIsDown(ServiceError):
    """The service (or the fleet member hosting the session) is unreachable.

    The gateway's answer, per session, to a session-scoped call — a lone
    ``step``, each sub-request of a ``step_sessions`` batch, a fork or a
    session parameter alike — when the fleet is partially down: sessions on
    surviving daemons keep stepping and only the sessions whose daemon is
    dead, or failed the call at the connection, receive this error, instead
    of the whole batch failing. Non-retryable — a stepped session's episode
    ends through the environment's fault-tolerance path, which marks it
    ``info["service_is_down"]``.
    """


class PermissionDeniedError(ServiceError):
    """The service rejected the call on authentication or ownership grounds.

    Raised when a client presents no (or an invalid) auth token to a service
    that requires one, or when a session-scoped call names a session owned
    by a different tenant. Never retried: no amount of restarting makes a
    foreign session yours.
    """


class EnvironmentNotSupported(ServiceInitError):
    """The environment is not supported on the current system."""


class BenchmarkInitError(CompilerGymError, ValueError):
    """A benchmark could not be initialized (missing, malformed, etc.)."""


class DatasetInitError(CompilerGymError):
    """A dataset could not be initialized."""


class DownloadFailed(CompilerGymError, IOError):
    """Downloading a dataset artifact failed."""


class TooManyRequests(DownloadFailed):
    """The dataset server rejected the request due to rate limiting."""


class OpaqueFunctionError(CompilerGymError):
    """The simulated interpreter reached a call it cannot evaluate."""
