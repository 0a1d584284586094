"""Packet representation.

A single :class:`Packet` class serves data segments and acknowledgements.
Packets are the hottest objects in the simulator, hence ``__slots__`` and a
flat field layout rather than nested header objects.

Sizes are *wire* sizes in bytes: a full-MTU data segment is 1500 bytes
(Table 1 of the paper), a bare ACK is 40 bytes.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "Packet",
    "DATA",
    "ACK",
    "MTU_BYTES",
    "ACK_BYTES",
    "HEADER_BYTES",
    "MSS_BYTES",
    "DEFAULT_TTL",
]

DATA = 0
ACK = 1

MTU_BYTES = 1500
HEADER_BYTES = 40
MSS_BYTES = MTU_BYTES - HEADER_BYTES  # 1460 payload bytes per full segment
ACK_BYTES = 40
DEFAULT_TTL = 255


class Packet:
    """One packet on the wire.

    Attributes
    ----------
    flow_id:
        Identifier of the flow (shared by both directions; ACKs carry the
        data flow's id so switches hash them consistently).
    src, dst:
        Host ids (integers assigned by the :class:`~repro.net.network.Network`).
    kind:
        ``DATA`` or ``ACK``.
    seq:
        For DATA: byte offset of the first payload byte.  For ACK: unused.
    payload:
        Payload bytes carried (DATA only).
    ack_seq:
        For ACK: cumulative acknowledgement — next expected byte.
    size:
        Wire size in bytes (headers included).
    ttl:
        Remaining hop budget; each switch decrements it (§5.5.3).
    ecn_capable / ecn_ce:
        ECN Capable Transport flag and Congestion Experienced mark.
    ece:
        ECN-Echo on an ACK (receiver copies the data packet's CE bit).
    priority:
        pFabric priority = remaining flow size in bytes; lower is better.
        ``None`` for non-pFabric traffic.
    detours / hops:
        Counters maintained by switches; ``detours`` counts DIBS decisions
        applied to this packet, ``hops`` counts switch traversals.
    path:
        Optional list of node names for tracing (enabled per-network).
    span:
        Sampled hop-by-hop span (see :mod:`repro.obs.spans`); ``None``
        unless this transmission was sampled.
    is_retransmit:
        Marked by the sender so RTT sampling can apply Karn's rule.
    flight_next / flight_event:
        Owned by the transmitting :class:`~repro.net.link.Port` while the
        packet is on the wire: the next packet on that port's in-flight
        FIFO and the pending delivery event.  Both are ``None`` whenever
        the packet is not propagating (cleared on delivery and on a
        link-down kill).
    """

    __slots__ = (
        "flow_id",
        "src",
        "dst",
        "kind",
        "seq",
        "payload",
        "ack_seq",
        "size",
        "ttl",
        "ecn_capable",
        "ecn_ce",
        "ece",
        "priority",
        "detours",
        "hops",
        "path",
        "span",
        "is_retransmit",
        "sent_at",
        "sack",
        "rate_signal",
        "flight_next",
        "flight_event",
    )

    def __init__(
        self,
        flow_id: int,
        src: int,
        dst: int,
        kind: int = DATA,
        seq: int = 0,
        payload: int = MSS_BYTES,
        ack_seq: int = 0,
        size: Optional[int] = None,
        ttl: int = DEFAULT_TTL,
        ecn_capable: bool = False,
        priority: Optional[int] = None,
    ) -> None:
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.kind = kind
        self.seq = seq
        self.payload = payload
        self.ack_seq = ack_seq
        if size is None:
            size = HEADER_BYTES + payload if kind == DATA else ACK_BYTES
        self.size = size
        self.ttl = ttl
        self.ecn_capable = ecn_capable
        self.ecn_ce = False
        self.ece = False
        self.priority = priority
        self.detours = 0
        self.hops = 0
        self.path: Optional[list[str]] = None
        # Sampled span biography (repro.obs.spans.PacketSpan); None for the
        # unsampled overwhelming majority.
        self.span = None
        self.is_retransmit = False
        self.sent_at = 0.0
        # SACK blocks on an ACK: up to 3 (start, end) byte ranges the
        # receiver holds beyond the cumulative ack point.
        self.sack: Optional[tuple[tuple[int, int], ...]] = None
        # Switch-assisted explicit rate (FairQ): each FairQ hop writes the
        # min of the existing signal and its own per-port fair share; the
        # receiver echoes the value on ACKs and the sender paces to it.
        # None everywhere else — legacy schemes never touch the field.
        self.rate_signal: Optional[float] = None
        # In-flight FIFO links (see repro.net.link.Port); a store-and-forward
        # packet is on at most one port's FIFO at a time.
        self.flight_next: Optional[Packet] = None
        self.flight_event = None

    @property
    def is_data(self) -> bool:
        return self.kind == DATA

    @property
    def is_ack(self) -> bool:
        return self.kind == ACK

    @property
    def end_seq(self) -> int:
        """One past the last payload byte (DATA only)."""
        return self.seq + self.payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "DATA" if self.kind == DATA else "ACK"
        return (
            f"<Packet {kind} flow={self.flow_id} {self.src}->{self.dst} "
            f"seq={self.seq} ack={self.ack_seq} size={self.size} ttl={self.ttl} "
            f"ce={int(self.ecn_ce)} detours={self.detours}>"
        )
