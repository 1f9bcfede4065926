"""Link-layer frames.

The network stack is payload-agnostic: diffusion messages (interests,
events, reinforcements, ...) are opaque payloads carried in a
:class:`Frame`.  Frame size — not Python object size — drives air time and
therefore energy and contention, exactly as in the ns-2 study (64-byte
events, 36-byte control messages).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["Frame", "BROADCAST", "FrameKind"]

#: Link-layer broadcast address (interest floods, exploratory floods).
BROADCAST = -1


class FrameKind:
    """Frame type tags used by the MAC (plain constants, not an Enum, to
    keep the per-frame cost minimal on the hot path)."""

    DATA = "data"
    ACK = "ack"


@dataclass
class Frame:
    """One link-layer frame.

    Attributes
    ----------
    src:
        Transmitting node id.
    dst:
        Destination node id, or :data:`BROADCAST`.
    size:
        Frame size in bytes (drives air time).
    payload:
        Opaque upper-layer message (a diffusion message in practice).
    kind:
        :class:`FrameKind` tag; ACK frames never leave the MAC.
    msg_class:
        Message class for energy attribution ("interest", "data",
        "aggregate", "ack", ...); see
        :data:`repro.net.energy.MESSAGE_CLASSES`.  Derived from the
        payload's ``wire_class`` by the MAC.
    frame_id:
        Id unique on its channel: the MAC draws it from
        :attr:`repro.net.radio.Channel.frame_ids` (used for tracing and
        for matching ACKs to transmissions).  0 for a frame built
        outside a MAC.
    """

    src: int
    dst: int
    size: int
    payload: Any = None
    kind: str = FrameKind.DATA
    msg_class: str = "other"
    frame_id: int = 0

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"frame size must be positive, got {self.size}")

    @property
    def is_broadcast(self) -> bool:
        return self.dst == BROADCAST

    def ack_frame(self, ack_size: int, frame_id: int = 0) -> "Frame":
        """Build the ACK frame a receiver returns for this unicast frame.

        ``frame_id`` is the ACK's own id; the MAC draws it from its
        channel, like a data frame's.
        """
        if self.is_broadcast:
            raise ValueError("broadcast frames are not acknowledged")
        return Frame(
            src=self.dst,
            dst=self.src,
            size=ack_size,
            payload=self.frame_id,
            kind=FrameKind.ACK,
            msg_class="ack",
            frame_id=frame_id,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dst = "BCAST" if self.is_broadcast else str(self.dst)
        return f"<Frame #{self.frame_id} {self.kind} {self.src}->{dst} {self.size}B>"
