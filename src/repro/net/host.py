"""End hosts.

A host owns one NIC port (data center servers in the paper are single-homed
to their rack's edge switch) and a demultiplexer from flow id to transport
endpoint.  Hosts never forward: a packet arriving for a different
destination is dropped and counted — this is why DIBS refuses to detour
toward host-facing ports.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.node import Node
from repro.net.packet import Packet
from repro.sim.engine import Scheduler

__all__ = ["Host"]


class Host(Node):
    """A server attached to the fabric by a single NIC."""

    is_host = True

    def __init__(self, node_id: int, name: str, scheduler: Scheduler) -> None:
        super().__init__(node_id, name, scheduler)
        self._endpoints: dict[int, Callable[[Packet], None]] = {}
        self.misdelivered = 0
        self.unclaimed = 0
        self.trace_paths = False
        # Optional trace callback ``(time, host, packet)`` fired when a
        # path-tracing packet reaches its destination (see repro.obs.trace).
        # Only consulted when the packet actually carries a path, so runs
        # without ``trace_paths`` never pay for it.
        self.on_path: Optional[Callable[[float, "Host", Packet], None]] = None
        # Attached by repro.obs.spans.SpanRecorder; samples originated
        # DATA packets for hop-by-hop span tracing.
        self.span_recorder = None

    # ------------------------------------------------------------------
    @property
    def nic(self):
        """The host's single NIC port."""
        if not self.ports:
            raise RuntimeError(f"host {self.name} has no NIC attached")
        return self.ports[0]

    def send(self, pkt: Packet) -> bool:
        """Hand a packet to the NIC.  Returns ``False`` on NIC queue drop."""
        if self.trace_paths and pkt.path is None:
            pkt.path = []
        if pkt.path is not None:
            pkt.path.append(self.name)
        if self.span_recorder is not None:
            self.span_recorder.on_send(self, pkt)
        if not self.ports:  # the nic property, inlined
            raise RuntimeError(f"host {self.name} has no NIC attached")
        return self.ports[0].send(pkt)

    # ------------------------------------------------------------------
    def register(self, flow_id: int, endpoint: Callable[[Packet], None]) -> None:
        """Bind ``endpoint`` to receive packets of ``flow_id``."""
        if flow_id in self._endpoints:
            raise ValueError(f"flow {flow_id} already registered on {self.name}")
        self._endpoints[flow_id] = endpoint

    def unregister(self, flow_id: int) -> None:
        self._endpoints.pop(flow_id, None)

    def counter_dict(self) -> dict[str, int]:
        """Host-level delivery counters for the observability registry."""
        return {"misdelivered": self.misdelivered, "unclaimed": self.unclaimed}

    def receive(self, pkt: Packet, in_port: int) -> None:
        if pkt.dst != self.node_id:
            # Hosts do not forward (§2 footnote 4).
            self.misdelivered += 1
            if pkt.span is not None:
                pkt.span.rec.end(
                    pkt.span, "dropped:misdelivered", self.scheduler.now,
                    where=self.name,
                )
            return
        if pkt.span is not None:
            pkt.span.rec.end(
                pkt.span, "delivered", self.scheduler.now, where=self.name
            )
        if pkt.path is not None:
            pkt.path.append(self.name)
            if self.on_path is not None:
                self.on_path(self.scheduler.now, self, pkt)
        endpoints = self._endpoints
        flow_id = pkt.flow_id
        if flow_id in endpoints:  # ``in`` plus a subscript: no call
            endpoints[flow_id](pkt)
        else:
            self.unclaimed += 1
