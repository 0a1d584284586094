"""TCP sender/receiver with optional DCTCP congestion control.

The model is a NewReno-flavoured TCP at packet granularity:

* slow start and congestion avoidance with byte counting,
* fast retransmit after a configurable dup-ACK threshold (NewReno partial
  acks during recovery), or disabled entirely — the paper's DIBS host
  setting (§4),
* RTO with SRTT/RTTVAR estimation (Karn's rule) and exponential backoff,
  bounded below by ``min_rto`` (Table 1: 10 ms),
* go-back-N recovery on timeout,
* DCTCP: data packets are ECN-capable, the receiver echoes CE per packet,
  and the sender maintains the fraction-of-marked-bytes estimator ``alpha``
  and cuts its window by ``alpha/2`` once per window with marks [18].

The receiver acknowledges every data segment cumulatively and records flow
completion on the shared :class:`~repro.transport.base.FlowHandle` the
moment it holds all bytes — the paper's receiver-side FCT.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.host import Host
from repro.net.packet import ACK, DATA, Packet
from repro.sim.engine import Event, Scheduler
from repro.transport.base import FlowHandle, TcpConfig

__all__ = ["TcpSender", "TcpReceiver"]


class TcpSender:
    """Transmitting endpoint of one flow.

    ``_priority_tag`` is the hook for a per-segment priority (pFabric's
    remaining flow size, :class:`repro.transport.pfabric.PFabricSender`):
    a subclass defines it as a method returning the tag.  Plain TCP sends
    no priority, so the hook is ``None`` and a segment pays no call for it.
    """

    _priority_tag: Optional[Callable[[], Optional[int]]] = None

    __slots__ = (
        "host",
        "scheduler",
        "config",
        "_ecn_capable",
        "flow",
        "size",
        "snd_una",
        "next_seq",
        "max_sent",
        "cwnd",
        "ssthresh",
        "dupacks",
        "in_recovery",
        "recover_seq",
        "srtt",
        "rttvar",
        "rto",
        "_rto_timer",
        "_armed_rto",
        "_send_times",
        "alpha",
        "_dctcp_window_end",
        "_dctcp_acked",
        "_dctcp_marked",
        "_ecn_recover_seq",
        "_sacked",
        "_sack_rtx_high",
        "done",
    )

    def __init__(self, host: Host, flow: FlowHandle, config: TcpConfig) -> None:
        self.host = host
        self.scheduler: Scheduler = host.scheduler
        self.config = config
        # TcpConfig is frozen and never reassigned: read its derived
        # property once, not once per segment.
        self._ecn_capable = config.ecn_capable
        self.flow = flow
        self.size = flow.size

        self.snd_una = 0
        self.next_seq = 0
        self.max_sent = 0
        self.cwnd = float(config.init_cwnd_pkts * config.mss)
        self.ssthresh = float(config.max_cwnd_pkts * config.mss)
        self.dupacks = 0
        self.in_recovery = False
        self.recover_seq = 0

        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = config.min_rto
        self._rto_timer: Optional[Event] = None
        self._armed_rto = 0.0
        self._send_times: dict[int, float] = {}

        # DCTCP estimator state [18].
        self.alpha = 1.0
        self._dctcp_window_end = 0
        self._dctcp_acked = 0
        self._dctcp_marked = 0
        # Classic-ECN once-per-window halving state.
        self._ecn_recover_seq = 0
        # SACK scoreboard: disjoint sorted (start, end) ranges the receiver
        # holds above snd_una, and the recovery retransmission high mark.
        self._sacked: list[tuple[int, int]] = []
        self._sack_rtx_high = 0

        self.done = False
        host.register(flow.flow_id, self.on_ack)

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin transmitting (call once, at the flow's start time)."""
        self._try_send()

    def _try_send(self) -> None:
        cfg = self.config
        while self.next_seq < self.size and (self.next_seq - self.snd_una) < self.cwnd:
            # Two-operand clamps in this file are comparisons, not
            # min()/max() calls (hot: per segment and per ACK); each keeps
            # the builtin's choice of operand: min(a, b) is
            # ``b if b < a else a``, max(a, b) is ``b if b > a else a``.
            rest = self.size - self.next_seq
            payload = rest if rest < cfg.mss else cfg.mss
            self._transmit_segment(self.next_seq, payload)
            self.next_seq += payload
        if self._rto_timer is None and self.snd_una < self.next_seq:
            self._arm_timer()

    def _transmit_segment(self, seq: int, payload: int) -> None:
        cfg = self.config
        pkt = Packet(
            flow_id=self.flow.flow_id,
            src=self.host.node_id,
            dst=self.flow.dst,
            kind=DATA,
            seq=seq,
            payload=payload,
            ttl=cfg.ttl,
            ecn_capable=self._ecn_capable,
            priority=None if self._priority_tag is None else self._priority_tag(),
        )
        pkt.sent_at = self.scheduler.now
        end = seq + payload
        if seq < self.max_sent:
            pkt.is_retransmit = True
            self.flow.retransmits += 1
            self._send_times.pop(end, None)  # Karn: never sample a retransmit
        else:
            self.max_sent = end
            self._send_times[end] = self.scheduler.now
        self.flow.packets_sent += 1
        self.host.send(pkt)

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def on_ack(self, pkt: Packet) -> None:
        if pkt.kind != ACK:
            return
        self.flow.acks_received += 1
        if self.done:
            return
        if self.config.sack and pkt.sack:
            self._sack_update(pkt.sack)
        ack_seq = pkt.ack_seq
        if ack_seq > self.snd_una:
            self._on_new_ack(ack_seq, pkt.ece)
        elif ack_seq == self.snd_una and self.snd_una < self.next_seq:
            self._on_dup_ack(pkt.ece)
        if not self.done:
            self._try_send()

    def _on_new_ack(self, ack_seq: int, ece: bool) -> None:
        cfg = self.config
        acked = ack_seq - self.snd_una
        self.snd_una = ack_seq
        self.dupacks = 0

        sent_at = self._send_times.pop(ack_seq, None)
        if sent_at is not None:
            self._sample_rtt(self.scheduler.now - sent_at)

        if cfg.dctcp:
            self._dctcp_on_ack(acked, ece)
        elif cfg.ecn and ece and self.snd_una > self._ecn_recover_seq:
            self.ssthresh = max(2.0 * cfg.mss, self.cwnd / 2.0)
            self.cwnd = self.ssthresh
            self._ecn_recover_seq = self.next_seq

        if self.in_recovery:
            if ack_seq >= self.recover_seq:
                self.in_recovery = False
                self.cwnd = self.ssthresh
                self._sack_rtx_high = 0
            else:
                # Partial ACK: retransmit the next real hole (SACK) or the
                # cumulative point (NewReno) right away.
                self._retransmit_hole()
                self._arm_timer()
        else:
            self._grow_cwnd(acked)

        if self.snd_una >= self.size:
            self._finish()
            return
        self._arm_timer()

    def _grow_cwnd(self, acked_bytes: int) -> None:
        cfg = self.config
        if self.cwnd < self.ssthresh:
            step = 2 * cfg.mss  # slow start (ABC, L=2)
            self.cwnd += step if step < acked_bytes else acked_bytes
        else:
            self.cwnd += cfg.mss * acked_bytes / self.cwnd  # congestion avoidance
        cap = float(cfg.max_cwnd_pkts * cfg.mss)
        if cap < self.cwnd:
            self.cwnd = cap

    def _on_dup_ack(self, ece: bool) -> None:
        cfg = self.config
        self.dupacks += 1
        if cfg.dctcp and ece:
            # Dup ACKs still carry marks; count a full segment as marked so
            # alpha keeps tracking congestion during reordering.
            self._dctcp_marked += cfg.mss
            self._dctcp_acked += cfg.mss
        threshold = cfg.fast_retransmit_threshold
        if threshold is None:
            return  # the DIBS host setting: reordering never triggers loss recovery
        if self.in_recovery:
            self.cwnd += cfg.mss  # window inflation keeps the ACK clock running
            if cfg.sack:
                # SACK recovery: each dup-ACK may expose another hole.
                self._retransmit_next_sack_hole()
            return
        if self.dupacks >= threshold:
            flight = self.next_seq - self.snd_una
            self.ssthresh = max(2.0 * cfg.mss, flight / 2.0)
            self.cwnd = self.ssthresh
            self.in_recovery = True
            self.recover_seq = self.next_seq
            self._sack_rtx_high = 0
            self._retransmit_hole()
            self._arm_timer()

    # ------------------------------------------------------------------
    # SACK scoreboard
    # ------------------------------------------------------------------
    def _sack_update(self, blocks) -> None:
        """Merge advertised blocks into the disjoint, sorted scoreboard."""
        ranges = [r for r in self._sacked if r[1] > self.snd_una]
        for start, end in blocks:
            start = max(start, self.snd_una)
            if end > start:
                ranges.append((start, end))
        ranges.sort()
        merged: list[tuple[int, int]] = []
        for start, end in ranges:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        self._sacked = merged

    def _first_hole(self, from_seq: int):
        """First unsacked byte position at/after ``from_seq`` that lies
        below the highest sacked byte; ``None`` when no hole is known."""
        if not self._sacked:
            return None
        seq = from_seq
        for start, end in self._sacked:
            if seq < start:
                return seq
            seq = max(seq, end)
        return None  # everything up to the last block is sacked

    def _retransmit_hole(self) -> None:
        """Retransmit the most urgent missing segment: the first SACK hole
        not already resent this recovery, else the cumulative ack point."""
        seq = None
        if self.config.sack:
            seq = self._first_hole(max(self.snd_una, self._sack_rtx_high))
            if seq is None:
                if self._sack_rtx_high > self.snd_una:
                    # Every known hole was already retransmitted once this
                    # recovery; a second copy would be a duplicate.  If the
                    # retransmission itself is lost, the RTO covers it.
                    return
                seq = self.snd_una
        else:
            seq = self.snd_una
        payload = min(self.config.mss, self.size - seq)
        if payload > 0:
            self._transmit_segment(seq, payload)
            self._sack_rtx_high = max(self._sack_rtx_high, seq + payload)

    def _retransmit_next_sack_hole(self) -> None:
        """During SACK recovery, fill one further hole per dup-ACK."""
        seq = self._first_hole(max(self.snd_una, self._sack_rtx_high))
        if seq is None or seq >= self.recover_seq:
            return
        payload = min(self.config.mss, self.size - seq)
        if payload > 0:
            self._transmit_segment(seq, payload)
            self._sack_rtx_high = seq + payload

    # ------------------------------------------------------------------
    # DCTCP estimator [18]
    # ------------------------------------------------------------------
    def _dctcp_on_ack(self, acked_bytes: int, ece: bool) -> None:
        cfg = self.config
        self._dctcp_acked += acked_bytes
        if ece:
            self._dctcp_marked += acked_bytes
        if self.snd_una >= self._dctcp_window_end:
            if self._dctcp_acked > 0:
                fraction = self._dctcp_marked / self._dctcp_acked
                self.alpha = (1.0 - cfg.dctcp_g) * self.alpha + cfg.dctcp_g * fraction
                if self._dctcp_marked > 0 and not self.in_recovery:
                    self.cwnd = max(float(cfg.mss), self.cwnd * (1.0 - self.alpha / 2.0))
                    # Exit slow start: a marked window is congestion.
                    self.ssthresh = self.cwnd
            self._dctcp_acked = 0
            self._dctcp_marked = 0
            self._dctcp_window_end = self.next_seq

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------
    def _sample_rtt(self, rtt: float) -> None:
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - rtt)
            self.srtt = 0.875 * self.srtt + 0.125 * rtt
        cfg = self.config
        rto = self.srtt + 4.0 * self.rttvar
        rto = rto if rto > cfg.min_rto else cfg.min_rto
        self.rto = rto if rto < cfg.max_rto else cfg.max_rto

    def _arm_timer(self) -> None:
        if self._rto_timer is not None:
            self._rto_timer.cancel()
        self._armed_rto = self.rto
        sched = self.scheduler
        self._rto_timer = sched.schedule_at(sched.now + self.rto, self._on_timeout)

    def _cancel_timer(self) -> None:
        if self._rto_timer is not None:
            self._rto_timer.cancel()
            self._rto_timer = None

    def _on_timeout(self) -> None:
        if self.done:
            return
        self._rto_timer = None
        if self.snd_una >= self.next_seq:
            return  # nothing outstanding
        cfg = self.config
        self.flow.timeouts += 1
        # The flow spent this timer's whole armed duration waiting; the
        # forensics layer reports the sum as the RTO component of FCT.
        self.flow.rto_wait_s += self._armed_rto
        flight = self.next_seq - self.snd_una
        self.ssthresh = max(2.0 * cfg.mss, flight / 2.0)
        self.cwnd = float(cfg.mss)
        self.in_recovery = False
        self.dupacks = 0
        self._send_times.clear()  # Karn: outstanding samples are now invalid
        self._sacked.clear()  # conservative: the receiver may renege
        self._sack_rtx_high = 0
        self.next_seq = self.snd_una  # go-back-N
        self.rto = min(cfg.max_rto, self.rto * 2.0)
        if cfg.dctcp:
            self._dctcp_acked = 0
            self._dctcp_marked = 0
            self._dctcp_window_end = self.next_seq
        self._try_send()

    def _finish(self) -> None:
        self.done = True
        if self.flow.sender_done_time is None:
            self.flow.sender_done_time = self.scheduler.now
        self._cancel_timer()
        self._send_times.clear()

    # ------------------------------------------------------------------
    @property
    def bytes_in_flight(self) -> int:
        return self.next_seq - self.snd_una


class TcpReceiver:
    """Receiving endpoint: cumulative ACKs with CE echo.

    With ``delayed_ack_segments == 1`` (default) every data segment is
    acknowledged immediately.  With larger values the receiver coalesces,
    flushing early on (a) the delayed-ACK timer, (b) any out-of-order
    arrival (dup-ACKs must stay prompt for fast retransmit), and (c) a
    change in the incoming CE state — the DCTCP receiver state machine,
    which acknowledges the *previous* run's marking before starting the
    new run so the sender's fraction-of-marked-bytes stays exact.

    ``_annotate_ack`` is the hook for stamping extra fields on an outgoing
    ACK (:class:`repro.transport.fairq.FairQReceiver` echoes the in-band
    fair-share signal): a subclass defines it as a method taking the ACK.
    Plain TCP stamps nothing, so the hook is ``None`` and an ACK pays no
    call for it.
    """

    _annotate_ack: Optional[Callable[[Packet], None]] = None

    __slots__ = (
        "host",
        "scheduler",
        "config",
        "_ecn_capable",
        "flow",
        "rcv_next",
        "_ooo",
        "ack_priority",
        "_pending_segments",
        "_pending_ce",
        "_delack_timer",
    )

    def __init__(
        self,
        host: Host,
        flow: FlowHandle,
        config: TcpConfig,
        ack_priority: Optional[int] = None,
    ) -> None:
        self.host = host
        self.scheduler: Scheduler = host.scheduler
        self.config = config
        self._ecn_capable = config.ecn_capable  # frozen config: read once
        self.flow = flow
        self.rcv_next = 0
        self._ooo: dict[int, int] = {}  # seq -> end of out-of-order segments
        self.ack_priority = ack_priority
        self._pending_segments = 0
        self._pending_ce: Optional[bool] = None
        self._delack_timer = None
        host.register(flow.flow_id, self.on_data)

    def on_data(self, pkt: Packet) -> None:
        if pkt.kind != DATA:
            return
        self.flow.packets_received += 1
        if pkt.ecn_ce:
            self.flow.marked_acks += 1
        seq = pkt.seq
        end = seq + pkt.payload  # == pkt.end_seq, without the property call
        in_order = seq <= self.rcv_next
        if end > self.rcv_next:
            existing_end = self._ooo.get(seq)
            if existing_end is None or end > existing_end:
                self._ooo[seq] = end
            while self.rcv_next in self._ooo:
                self.rcv_next = self._ooo.pop(self.rcv_next)
            self.flow.bytes_received = self.rcv_next

        ce = pkt.ecn_ce
        if self.config.delayed_ack_segments <= 1:
            self._send_ack(echo_ce=ce)
        else:
            if self._pending_ce is not None and ce != self._pending_ce:
                # CE run changed: flush the previous run's echo first.
                self._flush_pending()
            self._pending_segments += 1
            self._pending_ce = ce
            complete = self.rcv_next >= self.flow.size
            if (
                not in_order
                or self._pending_segments >= self.config.delayed_ack_segments
                or complete
            ):
                self._flush_pending()
            else:
                self._arm_delack()

        if self.rcv_next >= self.flow.size:
            self.flow.mark_received_all(self.scheduler.now)

    # ------------------------------------------------------------------
    def _arm_delack(self) -> None:
        if self._delack_timer is None:
            sched = self.scheduler
            self._delack_timer = sched.schedule_at(
                sched.now + self.config.delayed_ack_timeout, self._on_delack_timeout
            )

    def _on_delack_timeout(self) -> None:
        self._delack_timer = None
        if self._pending_segments:
            self._flush_pending()

    def _flush_pending(self) -> None:
        ce = bool(self._pending_ce)
        self._pending_segments = 0
        self._pending_ce = None
        if self._delack_timer is not None:
            self._delack_timer.cancel()
            self._delack_timer = None
        self._send_ack(echo_ce=ce)

    def _send_ack(self, echo_ce: bool) -> None:
        ack = Packet(
            flow_id=self.flow.flow_id,
            src=self.host.node_id,
            dst=self.flow.src,
            kind=ACK,
            ack_seq=self.rcv_next,
            ttl=self.config.ttl,
            priority=self.ack_priority,
        )
        ack.ece = echo_ce and self._ecn_capable
        if self.config.sack and self._ooo:
            ack.sack = self._sack_blocks()
        if self._annotate_ack is not None:
            self._annotate_ack(ack)
        self.flow.acks_sent += 1
        self.host.send(ack)

    def _sack_blocks(self) -> tuple[tuple[int, int], ...]:
        """Up to 3 coalesced out-of-order blocks above rcv_next."""
        ranges = sorted(self._ooo.items())
        merged: list[tuple[int, int]] = []
        for start, end in ranges:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return tuple(merged[:3])
