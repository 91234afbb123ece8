"""Client/service runtime.

The backend of the original system is a gRPC client/server split: the Python
frontend talks to a compiler service process through RPCs. This reproduction
keeps the same layering — a message schema (:mod:`proto`), the four-method
:class:`CompilationSession` integration interface, a service runtime that maps
sessions to the Gym API, and a :class:`ServiceConnection` that adds timeouts,
retries and fault tolerance — over a pluggable :class:`ServiceTransport`:
in-process (the default), or a socket to the standalone multi-client daemon
in :mod:`repro.core.service.runtime.server` (``repro-compilergym serve``).
"""

from repro.core.service.compilation_session import CompilationSession
from repro.core.service.connection import ConnectionOpts, ServiceConnection
from repro.core.service.proto import (
    ActionSpaceMessage,
    Event,
    ObservationSpaceMessage,
    SessionState,
    StepReply,
    StepRequest,
)
from repro.core.service.runtime.compiler_gym_service import CompilerGymServiceRuntime
from repro.core.service.transport import (
    InProcessTransport,
    ServiceTransport,
    SocketTransport,
    parse_service_url,
)

__all__ = [
    "ActionSpaceMessage",
    "CompilationSession",
    "CompilerGymServiceRuntime",
    "ConnectionOpts",
    "Event",
    "InProcessTransport",
    "ObservationSpaceMessage",
    "ServiceConnection",
    "ServiceTransport",
    "SessionState",
    "SocketTransport",
    "StepReply",
    "StepRequest",
    "parse_service_url",
]
