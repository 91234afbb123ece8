"""Golden frames: the exact bytes this build writes for each wire message.

``tests/fixtures/wire_golden_frames.json`` holds the frame of one instance of
every registered message (each the payload of a reply envelope), one request
envelope and one reply envelope. A frame that changes by one byte is a wire
format change: a peer of the previous build would decode it differently, or
not at all. Such a change must bump ``WIRE_VERSION``, after which
``python tests/test_wire_golden.py --record`` rewrites the fixture.

The instances hold no opaque values (spaces, exceptions): their pickles
depend on the Python and numpy versions, not on this codec.
"""

import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.service.proto import (
    ActionSpaceMessage,
    EndSessionReply,
    EndSessionRequest,
    ForkSessionReply,
    ForkSessionRequest,
    GetSpacesReply,
    HelloReply,
    HelloRequest,
    ObservationSpaceMessage,
    SessionStepResult,
    StartSessionReply,
    StartSessionRequest,
    StepReply,
    StepRequest,
    StepSessionsReply,
    StepSessionsRequest,
)
from repro.core.service.wire import REPLY_OK, WIRE_VERSION, frame_bytes, message_registry, read_frame

GOLDEN = Path(__file__).parent / "fixtures" / "wire_golden_frames.json"


def _autophase(*values):
    return np.array(values, dtype="<i8")


def golden_messages() -> dict:
    """One instance of every registered message, by tag, plus the two
    envelopes, each as the value passed to ``frame_bytes``."""
    step = StepRequest(8, [5, 12], ["Autophase", "IrInstructionCount"])
    reply = StepReply(False, True, None, [_autophase(3, 0, 6), 123])
    messages = {
        "ActionSpaceMessage": ActionSpaceMessage("passes", ["-dce", "-gvn"]),
        "ObservationSpaceMessage": ObservationSpaceMessage("IrInstructionCount", [0, None], True, True, 0),
        "StartSessionRequest": StartSessionRequest(
            9, "benchmark://cbench-v1/crc32", 1, ["Autophase", "IrInstructionCount"], True
        ),
        "StartSessionReply": StartSessionReply(9, [_autophase(1, 2), 42]),
        "StepRequest": step,
        "StepReply": reply,
        "StepSessionsRequest": StepSessionsRequest([step, StepRequest(9, [1])]),
        "SessionStepResult": SessionStepResult(StepReply(observations=[121]), None, 0.25),
        "StepSessionsReply": StepSessionsReply([
            SessionStepResult(reply, None, 0.5), SessionStepResult(None, "failed", 0.125),
        ]),
        "ForkSessionRequest": ForkSessionRequest(8, 10),
        "ForkSessionReply": ForkSessionReply(10),
        "EndSessionRequest": EndSessionRequest(10),
        "EndSessionReply": EndSessionReply(2),
        "GetSpacesReply": GetSpacesReply(
            [ActionSpaceMessage("passes", ["-dce"])], [ObservationSpaceMessage("Ir", "text")]
        ),
        "HelloRequest": HelloRequest("secret", "repro-client-pid1"),
        "HelloReply": HelloReply("repro-serve-pid2"),
    }
    frames = {tag: (0, REPLY_OK, message) for tag, message in messages.items()}
    frames["request envelope"] = (5, "step", (step,))
    frames["reply envelope"] = (5, REPLY_OK, reply)
    return frames


def record() -> dict:
    return {
        "wire_version": WIRE_VERSION,
        "frames": {name: frame_bytes(value).hex() for name, value in golden_messages().items()},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_every_registered_message_has_a_golden_frame(golden):
    assert set(message_registry()) <= set(golden["frames"]), (
        "A new wire message needs a golden frame: add an instance to golden_messages() "
        "and run `python tests/test_wire_golden.py --record`."
    )


@pytest.mark.parametrize("name", sorted(golden_messages()))
def test_a_frame_is_byte_identical_to_its_golden_frame(golden, name):
    frame = frame_bytes(golden_messages()[name])
    assert frame.hex() == golden["frames"][name], (
        f"The wire frame of {name} changed. A peer of the previous build decodes "
        f"it differently: bump WIRE_VERSION (now {WIRE_VERSION}, recorded at "
        f"{golden['wire_version']}) and run `python tests/test_wire_golden.py --record`."
    )
    # And it decodes to what was sent: re-encoding the decoded value gives
    # the same bytes (numpy arrays do not compare as dataclass fields).
    assert frame_bytes(read_frame(io.BytesIO(frame))) == frame


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_wire_golden.py --record")
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
