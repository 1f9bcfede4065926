"""Sensor node: radio + MAC + energy + protocol composition, with failures.

A :class:`Node` wires one radio and one MAC onto the shared channel and
hosts a single protocol agent (a diffusion instantiation).  Node failure
follows the paper's dynamics experiment (§5.3): a down node neither
transmits nor receives; on recovery its protocol state is still present but
stale, and is repaired by the normal interest/exploratory refresh cycle —
the same behaviour as energized-off ns-2 nodes.
"""

from __future__ import annotations

from typing import Any, Optional, Protocol

from ..sim import RngRegistry, Simulator, Tracer
from .energy import EnergyMeter, EnergyParams
from .mac import CsmaMac, MacParams
from .packet import BROADCAST
from .radio import Channel, Radio

__all__ = ["Node", "ProtocolAgent", "BROADCAST"]


class ProtocolAgent(Protocol):
    """What a node expects from its protocol layer."""

    def on_message(self, msg: Any, from_id: int) -> None:  # pragma: no cover
        """Handle an upper-layer message delivered by the MAC."""


class Node:
    """One sensor node."""

    def __init__(
        self,
        node_id: int,
        x: float,
        y: float,
        sim: Simulator,
        channel: Channel,
        tracer: Tracer,
        rng_registry: RngRegistry,
        energy_params: Optional[EnergyParams] = None,
        mac_params: Optional[MacParams] = None,
    ) -> None:
        self.node_id = node_id
        self.x = x
        self.y = y
        self.sim = sim
        self.tracer = tracer
        self._up = True
        self.energy = EnergyMeter(energy_params or EnergyParams())
        self.radio = Radio(node_id, x, y, channel, self.energy)
        self.mac = CsmaMac(
            sim,
            self.radio,
            mac_params or MacParams(),
            rng_registry.stream(f"mac.{node_id}"),
            tracer,
        )
        self.mac.receive_callback = self._deliver
        self.protocol: Optional[ProtocolAgent] = None
        #: sim time of this node's first failure (None if it never failed);
        #: feeds the lifetime metric time_to_first_death
        self.first_down_at: Optional[float] = None

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------
    @property
    def up(self) -> bool:
        return self._up

    def fail(self) -> None:
        """Turn the node off (idempotent)."""
        if not self._up:
            return
        self._up = False
        self.radio.up = False
        if self.first_down_at is None:
            self.first_down_at = self.sim.now
        self.mac.fail()
        self.tracer.count("node.fail")
        self.tracer.record("node.fail", node=self.node_id)

    def recover(self) -> None:
        """Turn the node back on (idempotent)."""
        if self._up:
            return
        self._up = True
        self.radio.up = True
        self.tracer.count("node.recover")
        self.tracer.record("node.recover", node=self.node_id)

    # ------------------------------------------------------------------
    # protocol plumbing
    # ------------------------------------------------------------------
    def set_protocol(self, agent: ProtocolAgent) -> None:
        self.protocol = agent

    def send(self, msg: Any, dst: int, size: int) -> bool:
        """Hand a protocol message to the MAC (``dst`` may be BROADCAST)."""
        return self.mac.send(msg, dst, size)

    def broadcast(self, msg: Any, size: int) -> bool:
        return self.mac.send(msg, BROADCAST, size)

    def _deliver(self, payload: Any, from_id: int) -> None:
        if not self._up:
            return
        if self.protocol is not None:
            self.protocol.on_message(payload, from_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self._up else "DOWN"
        return f"<Node {self.node_id} ({self.x:.1f},{self.y:.1f}) {state}>"
