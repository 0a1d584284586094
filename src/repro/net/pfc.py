"""Hop-by-hop Ethernet flow control (PAUSE / PFC) — the §6 baseline.

The paper positions DIBS against lossless Ethernet: "when buffer of a
switch gets full, it pauses its upstream switch, and the pause message
eventually cascades to the sender."  This module implements that
mechanism so the comparison can be run:

* every switch watches its egress-queue occupancies,
* when any queue crosses the XOFF threshold, the switch sends PAUSE to
  *all* upstream neighbors (the coarse, priority-less PAUSE of 802.3x;
  per-queue targeting is what PFC priorities refine),
* when every queue has drained below the XON threshold, it sends RESUME.

Pause frames travel with the link's propagation delay but skip data queues
(they are highest-priority control traffic).  The paused peer stops
transmitting at the next packet boundary, so the XOFF threshold needs
headroom below the physical capacity — exactly the tuning burden the paper
points out DIBS avoids.  This implementation exposes the classic PFC
pathologies the paper cites: head-of-line blocking (a paused link stalls
*all* traffic through it, not just the hot flow) and pause cascades toward
the senders.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.link import Port
from repro.net.switch import Switch

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network

__all__ = ["PfcController", "enable_pfc"]


class PfcController:
    """Watches one switch's egress queues and paces its upstream peers.

    Pause frames are *timed* (real 802.3x PAUSE carries a quanta count and
    expires) and refreshed while congestion persists.  Expiry is what
    breaks the circular pause dependencies — the deadlocks the paper cites
    [22] — at the cost of a trickle of leaked packets around the cycle,
    which is also how real lossless Ethernet escapes misconfiguration.
    """

    def __init__(
        self,
        switch: Switch,
        xoff_pkts: int,
        xon_pkts: int,
        pause_duration_s: float = 200e-6,
    ) -> None:
        if xon_pkts >= xoff_pkts:
            raise ValueError("XON threshold must be below XOFF")
        if xoff_pkts < 1:
            raise ValueError("XOFF threshold must be at least 1")
        if pause_duration_s <= 0:
            raise ValueError("pause duration must be positive")
        self.switch = switch
        self.xoff_pkts = xoff_pkts
        self.xon_pkts = xon_pkts
        self.pause_duration_s = pause_duration_s
        self.refresh_s = pause_duration_s / 2.0
        self.paused_upstream = False
        self.pause_frames_sent = 0
        self.resume_frames_sent = 0
        self._last_pause_at = -1.0

    def attach(self) -> None:
        """Register occupancy observers on every port of the switch."""
        for port in self.switch.ports:
            port.on_queue_change = self._on_queue_change

    def counters_dict(self) -> dict[str, int]:
        """Control-frame counters for the observability registry."""
        return {
            "pause_frames_sent": self.pause_frames_sent,
            "resume_frames_sent": self.resume_frames_sent,
        }

    # ------------------------------------------------------------------
    def _on_queue_change(self, port: Port) -> None:
        ports = self.switch.ports
        if any(len(p.queue) >= self.xoff_pkts for p in ports):
            now = self.switch.scheduler.now
            if now - self._last_pause_at >= self.refresh_s or not self.paused_upstream:
                self._pause_all(now)
        elif self.paused_upstream and all(len(p.queue) <= self.xon_pkts for p in ports):
            self._resume_all()

    def _pause_all(self, now: float) -> None:
        self.paused_upstream = True
        self._last_pause_at = now
        sched = self.switch.scheduler
        for port in self.switch.ports:
            peer = self._peer_port(port)
            if peer is not None:
                self.pause_frames_sent += 1
                sched.schedule_at(now + port.delay_s, peer.pause, self.pause_duration_s)

    def _resume_all(self) -> None:
        self.paused_upstream = False
        sched = self.switch.scheduler
        for port in self.switch.ports:
            peer = self._peer_port(port)
            if peer is not None:
                self.resume_frames_sent += 1
                sched.schedule_at(sched.now + port.delay_s, peer.resume)

    @staticmethod
    def _peer_port(port: Port) -> Port | None:
        if port.peer_node is None:
            return None
        return port.peer_node.ports[port.peer_port_index]


def enable_pfc(
    network: "Network",
    xoff_fraction: float = 0.8,
    xon_fraction: float = 0.5,
    pause_duration_s: float = 200e-6,
):
    """Attach a :class:`PfcController` to every switch in ``network``.

    Thresholds are fractions of each switch's per-port buffer capacity.
    Returns the controllers (for inspecting pause counts).
    """
    if not 0.0 < xon_fraction < xoff_fraction <= 1.0:
        raise ValueError("need 0 < xon_fraction < xoff_fraction <= 1")
    controllers = []
    for switch in network.switches:
        capacity = min(port.queue.capacity_hint for port in switch.ports)
        xoff = max(2, int(capacity * xoff_fraction))
        xon = max(1, min(xoff - 1, int(capacity * xon_fraction)))
        controller = PfcController(
            switch, xoff_pkts=xoff, xon_pkts=xon, pause_duration_s=pause_duration_s
        )
        controller.attach()
        controllers.append(controller)
    return controllers
