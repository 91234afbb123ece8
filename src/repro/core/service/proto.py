"""Message schema for the client/service boundary.

The upstream project defines these messages as protocol buffers; here they are
plain dataclasses with the same field names so the rest of the code reads
identically. Keeping an explicit message layer (rather than passing Python
objects around freely) preserves the serialization discipline of the original
design and lets the socket transport encode them. Each field's annotation is
its wire kind (see :func:`~repro.core.service.wire.wire_message`): a primitive
or a list of primitives travels raw and is checked by exact type on both ends.

Observations are raw values, in the order of the request's
``observation_space_names``: whatever the session's ``get_observation``
returned, each one a private copy. Upstream's protobuf ``Event`` union, which
wraps each observation in one of a set of typed slots, is not reproduced: the
codec carries the value's own type instead.
"""

from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.core.service.wire import raise_remote_error, wire_message


@wire_message
@dataclass
class ActionSpaceMessage:
    """Description of an action space exposed by a compilation session."""

    name: str
    space: Any


@wire_message
@dataclass
class ObservationSpaceMessage:
    """Description of an observation space exposed by a compilation session."""

    name: str
    space: Any
    deterministic: bool = True
    platform_dependent: bool = False
    default_observation: Any = None


@wire_message
@dataclass
class StartSessionRequest:
    """Start a session under ``session_id``, answering
    ``observation_space_names`` on its initial state.

    The caller names the session: an id in ``[0, 2**63)`` that no other
    tenant holds. A start under an id the caller already holds ends that
    session first, as ``end_session`` would, so a reset is one round trip,
    and the caller always knows the one id it may have to end. ``verify_ir``
    has the session check its program after every action (see
    :attr:`CompilationSession.verify_ir`), and its forks with it."""

    session_id: int
    benchmark_uri: str
    action_space: int = 0
    observation_space_names: List[str] = field(default_factory=list)
    verify_ir: bool = False


@wire_message
@dataclass
class StartSessionReply:
    """``session_id`` echoes the request's."""

    session_id: int
    observations: List[Any] = field(default_factory=list)
    new_action_space: Optional[ActionSpaceMessage] = None


@wire_message
@dataclass
class StepRequest:
    session_id: int
    actions: List[Any] = field(default_factory=list)
    observation_space_names: List[str] = field(default_factory=list)


@wire_message
@dataclass
class StepReply:
    end_of_session: bool = False
    action_had_no_effect: bool = False
    new_action_space: Optional[ActionSpaceMessage] = None
    observations: List[Any] = field(default_factory=list)


@wire_message
@dataclass
class StepSessionsRequest:
    """Batch of independent per-session step requests, applied in one call.

    The runtime steps the sub-requests in request order on the thread that
    received the batch, each under its own session lock and tenant check,
    and replies once with every outcome: a vectorized pool's whole step is a
    single call, and over a socket a single round trip.
    """

    requests: List[StepRequest] = field(default_factory=list)


@wire_message
@dataclass
class SessionStepResult:
    """Outcome of one sub-request of a :class:`StepSessionsRequest`, in the
    request's position in the batch.

    ``wall_time_s`` is the runtime-measured service time of this sub-step
    (including any wait on the session lock), letting the client attribute
    per-session latency to its call accounting even though the batch
    traveled as one call.
    """

    reply: Optional[StepReply] = None
    error: Optional[Any] = None
    wall_time_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self) -> StepReply:
        """The reply, or the error raised as a standalone ``step`` RPC raises it."""
        if self.error is not None:
            raise_remote_error("step", self.error)
        return self.reply


@wire_message
@dataclass
class StepSessionsReply:
    """Per-session outcomes, in the order of the request batch."""

    results: List[SessionStepResult] = field(default_factory=list)


@wire_message
@dataclass
class ForkSessionRequest:
    """Fork the caller's session ``session_id`` into a new one under
    ``fork_id``, which the caller names as it names a start's (see
    :class:`StartSessionRequest`) and which must not be the parent's."""

    session_id: int
    fork_id: int


@wire_message
@dataclass
class ForkSessionReply:
    """``session_id`` echoes the request's ``fork_id``."""

    session_id: int


@wire_message
@dataclass
class EndSessionRequest:
    session_id: int


@wire_message
@dataclass
class EndSessionReply:
    remaining_sessions: int = 0


@wire_message
@dataclass
class GetSpacesReply:
    action_spaces: List[ActionSpaceMessage] = field(default_factory=list)
    observation_spaces: List[ObservationSpaceMessage] = field(default_factory=list)


@wire_message
@dataclass
class HelloRequest:
    """Connection handshake: the first RPC a client sends on every socket.

    Carries the client's auth token, checked against the server's accepted
    set when authentication is configured.
    """

    token: Optional[str] = None
    client: str = ""


@wire_message
@dataclass
class HelloReply:
    """The server's half of the handshake: who answered."""

    server: str = ""
