"""Combined input/output-queued (CIOQ) switch architecture (§4).

The paper notes DIBS "can be implemented in a variety of switch
architectures": besides the output-queued model, many real switches place
a shallow queue at each *input* port and move packets to the egress queues
through a fabric running at a small speedup over line rate.  "When a
packet arrives at an input port, the forwarding engine determines its
output port.  If the desired output queue is full, the forwarding engine
can detour the packet to another output port."

:class:`CioqSwitch` models exactly that: per-input FIFO ingress buffers, a
per-input fabric server with configurable speedup, and the stock
:class:`~repro.net.switch.Switch` pipeline — including the DIBS hook — at
fabric-service time.  With speedup >= 2 a CIOQ switch is work-conserving
enough that behaviour converges to the output-queued model; with speedup 1
input-side head-of-line blocking appears, which the tests exercise.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.config import DibsConfig
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue
from repro.net.switch import Switch
from repro.sim.engine import Scheduler

__all__ = ["CioqSwitch"]


class CioqSwitch(Switch):
    """Input + output queued switch with a fabric speedup."""

    def __init__(
        self,
        node_id: int,
        name: str,
        scheduler: Scheduler,
        dibs: Optional[DibsConfig] = None,
        rng: Optional[random.Random] = None,
        ecmp_mode: str = "flow",
        fabric_speedup: float = 2.0,
        ingress_capacity_pkts: int = 16,
    ) -> None:
        super().__init__(node_id, name, scheduler, dibs=dibs, rng=rng, ecmp_mode=ecmp_mode)
        if fabric_speedup <= 0:
            raise ValueError("fabric speedup must be positive")
        if ingress_capacity_pkts < 1:
            raise ValueError("ingress capacity must be at least one packet")
        self.fabric_speedup = fabric_speedup
        self.ingress_capacity_pkts = ingress_capacity_pkts
        self._ingress: dict[int, DropTailQueue] = {}
        self._ingress_busy: dict[int, bool] = {}
        self.ingress_drops = 0
        # Packets crossing the fabric (dequeued from ingress, not yet at
        # the forwarding engine); counted by the conservation audit so the
        # ledger stays exact mid-run.
        self.in_fabric = 0

    # ------------------------------------------------------------------
    def _ingress_queue(self, in_port: int) -> DropTailQueue:
        queue = self._ingress.get(in_port)
        if queue is None:
            queue = DropTailQueue(self.ingress_capacity_pkts)
            self._ingress[in_port] = queue
            self._ingress_busy[in_port] = False
        return queue

    def receive(self, pkt: Packet, in_port: int) -> None:
        queue = self._ingress_queue(in_port)
        if not queue.enqueue(pkt):
            self.ingress_drops += 1
            if self.on_drop is not None:
                self.on_drop(self.scheduler.now, self, pkt, "ingress_overflow")
            return
        if not self._ingress_busy[in_port]:
            self._serve(in_port)

    def _serve(self, in_port: int) -> None:
        queue = self._ingress[in_port]
        pkt = queue.dequeue()
        if pkt is None:
            self._ingress_busy[in_port] = False
            return
        self._ingress_busy[in_port] = True
        # The fabric moves the packet at speedup x the ingress line rate.
        line_rate = self.ports[in_port].rate_bps
        service = pkt.size * 8.0 / (line_rate * self.fabric_speedup)
        self.in_fabric += 1
        sched = self.scheduler
        sched.schedule_at(sched.now + service, self._forward_after_fabric, pkt, in_port)

    def _forward_after_fabric(self, pkt: Packet, in_port: int) -> None:
        # The standard pipeline (TTL, FIB, ECMP, DIBS) runs at the
        # forwarding engine, i.e. when the fabric delivers the packet.
        self.in_fabric -= 1
        super().receive(pkt, in_port)
        self._serve(in_port)

    # ------------------------------------------------------------------
    def ingress_occupancy(self) -> dict[int, int]:
        """Packets waiting in each input buffer (for tests/metrics)."""
        return {port: len(queue) for port, queue in self._ingress.items()}
