"""Message schema for the client/service boundary.

The upstream project defines these messages as protocol buffers; here they are
plain dataclasses with the same field names so the rest of the code reads
identically. Keeping an explicit message layer (rather than passing Python
objects around freely) preserves the serialization discipline of the original
design and lets the socket transport encode them.
"""

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.service.wire import raise_remote_error, wire_message


@wire_message
@dataclass
class Event:
    """A tagged union value used for observations and action payloads."""

    int64_value: Optional[int] = None
    double_value: Optional[float] = None
    string_value: Optional[str] = None
    bytes_value: Optional[bytes] = None
    int64_list: Optional[List[int]] = None
    double_list: Optional[List[float]] = None
    event_dict: Optional[Dict[str, "Event"]] = None
    opaque: Any = None

    def value(self) -> Any:
        """Return whichever payload field is set."""
        for attr in (
            "int64_value",
            "double_value",
            "string_value",
            "bytes_value",
            "int64_list",
            "double_list",
            "event_dict",
            "opaque",
        ):
            value = getattr(self, attr)
            if value is not None:
                return value
        return None

    @classmethod
    def from_value(cls, value: Any) -> "Event":
        """Wrap an arbitrary Python value in the appropriate payload field."""
        if isinstance(value, bool):
            return cls(int64_value=int(value))
        if isinstance(value, int):
            return cls(int64_value=value)
        if isinstance(value, float):
            return cls(double_value=value)
        if isinstance(value, str):
            return cls(string_value=value)
        if isinstance(value, (bytes, bytearray)):
            return cls(bytes_value=bytes(value))
        if isinstance(value, (list, tuple)) and value and all(isinstance(v, int) for v in value):
            return cls(int64_list=list(value))
        if isinstance(value, (list, tuple)) and value and all(isinstance(v, (int, float)) for v in value):
            return cls(double_list=[float(v) for v in value])
        return cls(opaque=value)


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
    """Start a session, answering ``observation_space_names`` on its initial
    state. ``end_session_id`` names a session of the caller's to end first, as
    ``end_session`` would, but on a best-effort basis: an unknown or foreign id
    is skipped, and nothing about it fails the start. A reset is then one
    round trip. ``verify_ir`` has the session check its program after every
    action (see :attr:`CompilationSession.verify_ir`), and its forks with it."""

    benchmark_uri: str
    action_space: int = 0
    observation_space_names: List[str] = field(default_factory=list)
    end_session_id: Optional[int] = None
    verify_ir: bool = False


@wire_message
@dataclass
class StartSessionReply:
    session_id: int
    observations: List[Event] = field(default_factory=list)
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
    observations: List[Event] = field(default_factory=list)


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
    """Outcome of one sub-request of a :class:`StepSessionsRequest`.

    ``wall_time_s`` is the runtime-measured service time of this sub-step
    (including any wait on the session lock), letting the client attribute
    per-session latency to its call accounting even though the batch
    traveled as one call.
    """

    session_id: int
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
    session_id: int


@wire_message
@dataclass
class ForkSessionReply:
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
