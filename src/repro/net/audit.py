"""Packet-conservation auditing.

A packet-level simulator has one global invariant: every packet created by
a transport endpoint is eventually (a) delivered to a transport endpoint,
(b) delivered to a host that didn't want it (misdelivered/unclaimed),
(c) dropped with a recorded cause, (d) still parked in some queue, or
(e) in flight on a link (transmitted but not yet delivered — each port
keeps these on an in-flight FIFO and reads out its length in O(1), see
:attr:`repro.net.link.Port.in_flight`).
:func:`conservation_report` computes both sides of that ledger from the
counters the simulator already keeps, and :func:`assert_conserved` is used
by the integration tests after every quiescent run — a failing audit means
packets are silently leaking or duplicating somewhere in the pipeline.
Because propagating packets are counted, the ledger is exact at *any*
simulated time, which is what lets the periodic in-run invariant checks
(:mod:`repro.faults.guards`) audit mid-flight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network

__all__ = ["ConservationReport", "conservation_report", "assert_conserved"]


@dataclass(frozen=True)
class ConservationReport:
    """Both sides of the packet ledger."""

    data_sent: int
    acks_sent: int
    data_delivered: int
    acks_delivered: int
    unclaimed: int
    misdelivered: int
    dropped: int
    parked: int
    in_flight: int = 0

    @property
    def created(self) -> int:
        return self.data_sent + self.acks_sent

    @property
    def accounted(self) -> int:
        return (
            self.data_delivered
            + self.acks_delivered
            + self.unclaimed
            + self.misdelivered
            + self.dropped
            + self.parked
            + self.in_flight
        )

    @property
    def leaked(self) -> int:
        """Packets created but not accounted for (0 when conserved)."""
        return self.created - self.accounted

    def as_dict(self) -> dict[str, int]:
        return {
            "data_sent": self.data_sent,
            "acks_sent": self.acks_sent,
            "data_delivered": self.data_delivered,
            "acks_delivered": self.acks_delivered,
            "unclaimed": self.unclaimed,
            "misdelivered": self.misdelivered,
            "dropped": self.dropped,
            "parked": self.parked,
            "in_flight": self.in_flight,
            "leaked": self.leaked,
        }


def conservation_report(network: "Network") -> ConservationReport:
    """Build the ledger for a network.  Exact at any simulated time:
    packets propagating on a link are counted in the ``in_flight`` column."""
    # One pass, not four generator sums: mid-run checks audit often.
    data_sent = acks_sent = data_delivered = acks_delivered = 0
    for f in network.collector.flows:
        data_sent += f.packets_sent
        acks_sent += f.acks_sent
        data_delivered += f.packets_received
        acks_delivered += f.acks_received
    unclaimed = sum(h.unclaimed for h in network.hosts)
    misdelivered = sum(h.misdelivered for h in network.hosts)
    dropped = network.counters().total_drops()
    parked = 0
    in_flight = 0
    for switch in network.switches:
        for port in switch.ports:
            parked += len(port.queue)
            in_flight += port.in_flight
        if hasattr(switch, "ingress_occupancy"):
            parked += sum(switch.ingress_occupancy().values())
        in_flight += getattr(switch, "in_fabric", 0)
    for host in network.hosts:
        for port in host.ports:
            parked += len(port.queue)
            in_flight += port.in_flight
    return ConservationReport(
        data_sent=data_sent,
        acks_sent=acks_sent,
        data_delivered=data_delivered,
        acks_delivered=acks_delivered,
        unclaimed=unclaimed,
        misdelivered=misdelivered,
        dropped=dropped,
        parked=parked,
        in_flight=in_flight,
    )


def assert_conserved(network: "Network") -> ConservationReport:
    """Raise ``AssertionError`` (with the full ledger) on any leak."""
    report = conservation_report(network)
    if report.leaked != 0:
        raise AssertionError(f"packet conservation violated: {report.as_dict()}")
    return report
