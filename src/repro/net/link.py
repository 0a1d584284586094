"""Ports and links.

A *link* in this simulator is a pair of unidirectional :class:`Port`
transmitters, one on each endpoint (full duplex, as in Ethernet).  Each port
owns an output queue and models store-and-forward serialisation: a packet of
``S`` bytes occupies the transmitter for ``8*S/rate`` seconds and is
delivered to the peer ``delay`` seconds after its last bit leaves.

Ports also keep the counters the metrics layer consumes (bytes sent, busy
time) — link utilisation for the hot-link analysis of Figures 4–5 is derived
from deltas of ``bytes_sent``.

tx-done elision
---------------
A transmission costs up to two scheduler events: a tx-done at
serialization end (``send()`` with no packet: it frees the transmitter
and starts the next packet) and a ``_deliver`` at serialization end plus
propagation.  When the output queue is empty at transmit start, the
tx-done is a provable no-op — there is nothing to transmit next, and
nothing can appear in the queue without passing through :meth:`Port.send`
on this same port.  Those events are *elided*: the port reserves the
event's sequence number (:meth:`Scheduler.reserve_seq`) so every later
event keeps the exact ``(time, seq)`` position it would have had, and
either

* **settles** the reservation lazily once the scheduler's dispatch position
  ``(now, now_seq)`` has passed the reserved point — applying the event's
  only effect (``busy = False``) and counting it in ``events_processed`` —
  or
* **materializes** it at its original ``(time, seq)`` via
  :meth:`Scheduler.schedule_reserved` the moment the no-op proof stops
  holding (a packet arrives behind the in-progress transmission, or a
  pause/fault transition needs the event's side effects in their turn).

A tx-done that is not elided goes on the calendar together with its
packet's delivery, in one :meth:`Scheduler.schedule_tx` call.  Every
other delivery (an idle send's, or one whose tx-done is elided) is one
:meth:`Scheduler.schedule_reserved` call at its absolute arrival time,
under the fresh sequence number taken next to the tx-done's reservation,
on a fixed and on a jittered link alike.

Either way the observable simulation — every queue occupancy, ECN mark,
delivery time and event count — is bit-identical to a transmit path that
dispatches every tx-done for real and passes every packet through
its queue's methods.  The golden corpus (``tests/golden``) holds results
recorded while both paths agreed, and ``bench_engine_speed.py`` compares
against that path at the commit that still had it.  The ``busy``
attribute is a property so an external reader always observes the
settled state.
"""

from __future__ import annotations

from typing import Optional

from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue, DynamicBufferQueue, EcnQueue
from repro.sim.engine import Scheduler, SimulationError

__all__ = ["Port", "connect"]


class Port:
    """One direction of a full-duplex link, plus its output queue.

    Besides the transmit/queue machinery, a port carries the fault state the
    injector (:mod:`repro.faults`) manipulates: an ``up`` flag (a down port
    rejects new sends and kills packets already propagating, both recorded
    as ``link_down`` drops) and a ``corrupt_next`` budget (the next N
    deliveries are discarded as CRC failures, recorded as ``corrupt``
    drops).  Packets between transmit start and delivery are tracked on an
    in-flight FIFO so the conservation ledger (:mod:`repro.net.audit`) is
    exact at any simulated time, not just at quiescence.  The FIFO is
    threaded through the packets themselves (``Packet.flight_next``, with
    the delivery event in ``Packet.flight_event``): the port keeps only
    head, tail and count, so linking a packet in and out costs attribute
    stores rather than container calls.
    """

    __slots__ = (
        "node",
        "index",
        "queue",
        "rate_bps",
        "delay_s",
        "peer_node",
        "peer_port_index",
        "peer_is_host",
        "_busy",
        "paused",
        "up",
        "scheduler",
        "bytes_sent",
        "pkts_sent",
        "bytes_killed",
        "busy_seconds",
        "drops_link_down",
        "drops_corrupt",
        "corrupt_next",
        "on_queue_change",
        "_pause_expiry",
        "_flight_head",
        "_flight_tail",
        "_flight_count",
        "pauses_received",
        "_s_per_byte",
        "_peer_receive",
        "_txdone_seq",
        "_tx_end",
        "_fast_q",
        "_plain_q",
        "_ecn_q",
        "_pool",
        "jitter_s",
        "_jitter_rng",
        "_last_arrival",
    )

    def __init__(self, node: Node, queue, rate_bps: float, delay_s: float) -> None:
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        if delay_s < 0:
            raise ValueError("propagation delay cannot be negative")
        self.node = node
        self.queue = queue
        self.rate_bps = rate_bps
        self.delay_s = delay_s
        self.scheduler: Scheduler = node.scheduler
        self.index = node.add_port(self)
        self.peer_node: Optional[Node] = None
        self.peer_port_index: int = -1
        self.peer_is_host = False
        self._busy = False
        self.paused = False  # Ethernet flow control (see repro.net.pfc)
        self.up = True  # link fault state (see repro.faults)
        self.bytes_sent = 0
        self.pkts_sent = 0
        # Full sizes of packets killed mid-flight by set_down() — kept
        # separate so utilisation (bytes_sent deltas) counts only bytes
        # that actually crossed the wire.
        self.bytes_killed = 0
        self.busy_seconds = 0.0
        self.drops_link_down = 0
        self.drops_corrupt = 0
        self.corrupt_next = 0
        # Optional observer invoked after every enqueue/dequeue on this
        # port's queue; used by PFC to watch occupancy thresholds.
        self.on_queue_change = None
        self._pause_expiry = None
        # Packets scheduled for delivery but not yet arrived, as a FIFO
        # linked through Packet.flight_next.  Deliveries fire in FIFO order
        # (each packet's arrival time is its predecessor's tx-done plus its
        # own serialization plus the propagation delay, clamped monotone
        # under jitter), so _deliver always unlinks the head.
        self._flight_head: Optional[Packet] = None
        self._flight_tail: Optional[Packet] = None
        self._flight_count = 0
        self.pauses_received = 0
        # Hot-path hoists: serialization seconds per byte, and the peer's
        # bound receive method (rebound by attach_peer).
        self._s_per_byte = 8.0 / rate_bps
        self._peer_receive = None
        # tx-done elision state (see module docstring): the reserved
        # sequence number of the elided event (-1 = none) and the absolute
        # time the current/last serialization finishes.
        self._txdone_seq = -1
        self._tx_end = 0.0
        # Jittered propagation (hostile-regime scenarios, e.g. space-DC
        # links): delay_s becomes the *minimum* delay and each delivery
        # adds a uniform draw in [0, jitter_s) from a seeded stream.  None
        # keeps the fixed-delay fast path untouched; see set_jitter().
        self.jitter_s = 0.0
        self._jitter_rng = None
        self._last_arrival = 0.0
        # Queues whose enqueue-then-immediate-dequeue round trip is a
        # provable no-op on an empty queue (no ECN mark at occupancy
        # 1 <= threshold, and a DBA pool's take-then-release nets to
        # zero): sends to an idle port skip the queue entirely (see
        # send()).  A DynamicBufferQueue's admission depends on the
        # switch-wide pool, so even an empty one may reject: ``_pool``
        # holds that pool (None for every other queue) and the idle send
        # tests it first.  Exact types only — subclasses (BShare's sojourn
        # EWMA, FairQ's rate stamps) need every packet to pass through.
        qtype = type(queue)
        self._fast_q = qtype in (DropTailQueue, EcnQueue, DynamicBufferQueue)
        self._pool = queue.pool if qtype is DynamicBufferQueue else None
        # Exact droptail/ECN queues (``_plain_q``; ``_ecn_q`` for ECN) are
        # plain deques with a capacity: send() enqueues into a busy one and
        # dequeues from it, and the switch tests its fullness, all without
        # a queue method call.
        self._plain_q = qtype is DropTailQueue or qtype is EcnQueue
        self._ecn_q = qtype is EcnQueue

    # ------------------------------------------------------------------
    def attach_peer(self, peer: "Port") -> None:
        self.peer_node = peer.node
        self.peer_port_index = peer.index
        self.peer_is_host = peer.node.is_host
        self._peer_receive = peer.node.receive

    # ------------------------------------------------------------------
    def set_jitter(self, jitter_s: float, rng) -> None:
        """Make the propagation delay a distribution: each delivery takes
        ``delay_s`` plus a uniform draw in ``[0, jitter_s)`` from ``rng``.

        ``rng`` must come from the network's seeded stream factory
        (draws happen in event-dispatch order, which is deterministic, so
        jittered runs replay bit-identically).  Arrival times are clamped
        monotone per port — a link delivers in FIFO order no matter the
        draw — which both models real links (no single-link reordering)
        and keeps the in-flight FIFO's head the next packet to arrive.
        Jittered deliveries keep their absolute arrival time, and take
        the same insert path as fixed-delay ones (see the module
        docstring).
        """
        if jitter_s < 0:
            raise ValueError("jitter cannot be negative")
        self.jitter_s = jitter_s
        self._jitter_rng = rng if jitter_s > 0 else None

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """Whether the transmitter is serializing a packet.

        A property rather than a raw attribute so that an elided tx-done
        whose turn has already passed is settled before the flag is read —
        external readers always observe the same state a dispatched
        tx-done would have left.
        """
        if self._txdone_seq >= 0:
            self._settle_tx()
        return self._busy

    @property
    def in_flight(self) -> int:
        """Packets transmitted (or transmitting) but not yet delivered."""
        return self._flight_count

    def counter_dict(self) -> dict[str, int]:
        """This port's counters (plus its queue's) for the observability
        registry (:mod:`repro.obs.counters`).  ``qlen`` and ``in_flight``
        are instantaneous gauges; everything else is cumulative."""
        counters = self.queue.counter_dict()
        counters.update(
            bytes_sent=self.bytes_sent,
            pkts_sent=self.pkts_sent,
            bytes_killed=self.bytes_killed,
            link_down=self.drops_link_down,
            corrupt=self.drops_corrupt,
            pauses_received=self.pauses_received,
            in_flight=self._flight_count,
            qlen=len(self.queue),
        )
        return counters

    # ------------------------------------------------------------------
    # tx-done elision plumbing (see module docstring)
    # ------------------------------------------------------------------
    def _settle_tx(self, materialize: bool = False) -> None:
        """Apply the live elided tx-done (callers test ``_txdone_seq >= 0``)
        if its turn in the ``(time, seq)`` total order has passed.  Its only
        effect is freeing the transmitter: the output queue is necessarily
        empty while a reservation is live (any enqueue goes through
        :meth:`send`, which settles or materializes first), so a dispatched
        tx-done would have found nothing to transmit.  With ``materialize``
        (the no-op proof is about to break: a pause, a fault transition, the
        run's end), a tx-done whose turn has not passed goes back on the
        calendar instead, at its reserved ``(time, seq)``."""
        seq = self._txdone_seq
        sched = self.scheduler
        te = self._tx_end
        now = sched.now
        if now > te or (now == te and sched._now_seq > seq):
            self._txdone_seq = -1
            self._busy = False
            sched._events_elided += 1
            profiler = sched.profiler
            if profiler is not None:
                # Keep profiles summing to the logical event count: the
                # elided dispatch contributes its event, and (truthfully)
                # zero wall time, to the link.tx category.
                profiler.record(self.send, 0.0)
        elif materialize:
            self._txdone_seq = -1
            sched.schedule_reserved(te, seq, self.send)

    # ------------------------------------------------------------------
    def send(self, pkt: Optional[Packet] = None) -> bool:
        """Enqueue ``pkt`` for transmission.  Returns ``False`` on tail drop
        (or, for a down port, a recorded ``link_down`` drop).

        Called with no packet, this is the tx-done (the callback of every
        tx-done event) and the restart of :meth:`resume` and
        :meth:`set_up`: the transmitter is free, so it starts the next
        queued packet, if any, and returns whether it did.  A transmission
        starts in one place, the end of this method."""
        if pkt is not None:
            if not self.up:
                self.drops_link_down += 1
                if pkt.span is not None:
                    pkt.span.rec.end(
                        pkt.span, "dropped:link_down", self.scheduler.now,
                        where=self.node.name,
                    )
                return False
            seqr = self._txdone_seq
            if seqr >= 0:
                # Inline settle (see _settle_tx): an idle port with a passed
                # elided tx-done still reads ``_busy`` until settled — do it
                # before the fast-path test so the idle case is recognized.
                sched = self.scheduler
                te = self._tx_end
                now = sched.now
                if now > te or (now == te and sched._now_seq > seqr):
                    self._txdone_seq = -1
                    self._busy = False
                    sched._events_elided += 1
                    if sched.profiler is not None:
                        sched.profiler.record(self.send, 0.0)
            queue = self.queue
            size = pkt.size
            fast = (not self._busy and not self.paused and self._fast_q
                    and not queue._q and self.on_queue_change is None)
            if fast and (pool := self._pool) is not None:
                # DBA port: the idle send may bypass the queue only if the
                # pool admits the packet at occupancy 0 (==
                # pool.admits(0, size, 0)); a refused packet takes the queue
                # path, which drops and counts it.
                free = pool.total_bytes - pool.used_bytes
                fast = free >= size and (pool.reserved_pkts_per_port > 0 or size <= pool.alpha * free)
            if fast:
                # Fast path (the common case under light-to-moderate load):
                # idle transmitter, empty droptail/ECN/DBA queue, no
                # occupancy observer.  The enqueue-then-dequeue round trip
                # would be a no-op — the packet is admitted (below
                # capacity, or by the pool test above, whose
                # take-then-release nets to zero), and at occupancy 1
                # nothing marks (the ECN threshold is >= 1 by construction)
                # — so the packet goes straight to the transmitter.
                # ``enqueues`` is still counted: observably the packet
                # passed through the queue.
                queue.enqueues += 1
            else:
                if self._plain_q:
                    # Inlined DropTailQueue/EcnQueue.enqueue (hot: once per
                    # packet that meets a busy droptail/ECN port), mirroring
                    # the inlined dequeue below.  Occupancy is read once for
                    # the drop and the mark; the mark compares the occupancy
                    # including this packet with the live threshold (the
                    # runtime controller retunes it).
                    q = queue._q
                    n = len(q)
                    admitted = n < queue.capacity_pkts
                    if admitted:
                        if self._ecn_q and pkt.ecn_capable and n + 1 > queue.mark_threshold_pkts:
                            pkt.ecn_ce = True
                            queue.marks += 1
                            if pkt.span is not None:
                                pkt.span.hops[-1]["ecn"] = True
                        q.append(pkt)
                        queue.byte_count += size
                        queue.enqueues += 1
                    else:
                        queue.drops += 1
                else:
                    admitted = queue.enqueue(pkt)
                if not admitted:
                    # Tail drop.  Idempotent finish: the switch's _drop also
                    # observes this and fires first for switch-initiated
                    # drops.
                    if pkt.span is not None:
                        pkt.span.rec.end(
                            pkt.span, "dropped:overflow", self.scheduler.now,
                            where=self.node.name,
                        )
                    return False
                if pkt.span is not None:
                    hop = pkt.span.hops[-1]
                    hop["port"] = self.index
                    hop["t_q"] = self.scheduler.now
                if self.on_queue_change is not None:
                    self.on_queue_change(self)
                seqr = self._txdone_seq
                if seqr >= 0:
                    # The queue is no longer empty and the elided tx-done's
                    # turn has not passed (it would have settled above): it
                    # is no longer a no-op — put it back on the calendar
                    # (inlined _settle_tx(materialize=True), hot under
                    # sustained load).
                    self._txdone_seq = -1
                    self.scheduler.schedule_reserved(self._tx_end, seqr, self.send)
                if self._busy or self.paused:
                    return True
                pkt = None  # idle: transmit the queue's head
        if pkt is None:
            # The transmitter is free: take the queue's head, unless the
            # port is paused or down.
            queue = self.queue
            if self.up and not self.paused:
                if not self._plain_q:
                    pkt = queue.dequeue()
                elif q := queue._q:
                    # Inlined DropTailQueue.dequeue (hot: once per
                    # transmitted packet) for droptail and ECN ports.  A DBA
                    # port (``_pool`` set) keeps the method call even though
                    # it shares the idle bypass: its dequeue releases the
                    # packet's pool bytes and raises on a negative pool
                    # balance.
                    pkt = q.popleft()
                    queue.byte_count -= pkt.size
            if pkt is None:
                self._busy = False
                return False
            if self.on_queue_change is not None:
                self.on_queue_change(self)
            size = pkt.size
        # Transmit start.
        self._busy = True
        tx = size * self._s_per_byte
        self.bytes_sent += size
        self.pkts_sent += 1
        self.busy_seconds += tx
        sched = self.scheduler
        self._tx_end = sched.now + tx
        if pkt.span is not None:
            hop = pkt.span.hops[-1]
            now_t = sched.now
            if "t_q" not in hop:  # the idle bypass: queued as it is sent
                hop["port"] = self.index
                hop["t_q"] = now_t
            hop["t_tx"] = now_t
            hop["q_s"] = now_t - hop["t_q"]
            hop["tx_s"] = tx
            hop["prop_s"] = self.delay_s
        # The delivery's arrival: fixed, or the jittered draw (see
        # set_jitter), FIFO-clamped.
        rng = self._jitter_rng
        if rng is None:
            arrival = sched.now + (tx + self.delay_s)
        else:
            arrival = self._tx_end + self.delay_s + self.jitter_s * rng.random()
            if arrival < self._last_arrival:
                arrival = self._last_arrival
            self._last_arrival = arrival
        if not queue._q:
            # Nothing left to transmit when serialization ends: elide the
            # tx-done (reserve its sequence number so the total order is
            # unchanged) instead of dispatching a no-op event.  Inlined
            # Scheduler.reserve_seq (hot path), then the delivery under
            # the next, fresh, sequence number.
            seq = sched._seq
            sched._seq = seq + 2
            self._txdone_seq = seq
            pkt.flight_event = sched.schedule_reserved(arrival, seq + 1, self._deliver, pkt)
        else:
            # The tx-done goes on the calendar with the delivery, in one
            # call.  Its callback is send(): the transmitter frees up when
            # the last bit leaves and immediately starts the next packet;
            # propagation of the in-flight packet continues independently.
            pkt.flight_event = sched.schedule_tx(
                tx, self.send, arrival, self._deliver, pkt)
        # Link onto the in-flight FIFO (pkt.flight_next is None: a packet
        # off the wire never keeps a link).
        if self._flight_count:
            self._flight_tail.flight_next = pkt
        else:
            self._flight_head = pkt
        self._flight_tail = pkt
        self._flight_count += 1
        return True

    def _restart(self) -> None:
        """Restart the transmitter once a pause or an outage ends: settle or
        materialize an elided tx-done, then start the queue's head if idle."""
        if self._txdone_seq >= 0:
            self._settle_tx(materialize=True)
        if not self._busy and not self.paused:
            self.send()

    def pause(self, duration_s: Optional[float] = None) -> None:
        """Stop transmitting after the current packet (PFC PAUSE).

        Real 802.3x PAUSE frames carry a pause time and expire — which is
        what breaks circular pause dependencies (deadlocks).  ``duration_s``
        models that; ``None`` pauses until an explicit :meth:`resume`.
        """
        self.paused = True
        self.pauses_received += 1
        if self._pause_expiry is not None:
            self._pause_expiry.cancel()
            self._pause_expiry = None
        if duration_s is not None:
            self._pause_expiry = self.scheduler.schedule_once(duration_s, self.resume)

    def resume(self) -> None:
        """Resume transmission (PFC XON or PAUSE expiry)."""
        if self._pause_expiry is not None:
            self._pause_expiry.cancel()
            self._pause_expiry = None
        if not self.paused:
            return
        self.paused = False
        self._restart()

    def _deliver(self, pkt: Packet) -> None:
        receive = self._peer_receive
        if receive is None:
            # A real error, not an assert: a miswired topology must fail
            # loudly even under ``python -O`` (which strips asserts).
            raise SimulationError(
                f"port {self.node.name}[{self.index}] delivered a packet but is not connected"
            )
        # Unlink the head (which is ``pkt``) before ``receive``: the
        # receiver may forward this same packet onto another port, which
        # links it into that port's FIFO.  The delivery handle is dropped
        # too — its event is recycled once this callback returns.
        nxt = pkt.flight_next
        self._flight_head = nxt
        if nxt is None:
            self._flight_tail = None
        else:
            pkt.flight_next = None
        pkt.flight_event = None
        self._flight_count -= 1
        if self.corrupt_next > 0:
            # Injected corruption: the frame fails its CRC at the receiver
            # and is discarded — to the transport this is an ordinary loss.
            self.corrupt_next -= 1
            self.drops_corrupt += 1
            if pkt.span is not None:
                pkt.span.rec.end(
                    pkt.span, "dropped:corrupt", self.scheduler.now,
                    where=self.peer_node.name,
                )
            return
        receive(pkt, self.peer_port_index)

    # ------------------------------------------------------------------
    # fault state (driven by repro.faults.FaultInjector)
    # ------------------------------------------------------------------
    def set_down(self) -> int:
        """Take this link direction down.

        New sends are rejected (counted as ``link_down`` drops), queued
        packets stay parked until recovery, and packets already propagating
        are killed mid-flight (their deliveries cancelled and counted as
        ``link_down`` drops).  The utilisation counters credited at
        transmit start are corrected for the packet caught mid-serialization
        (its untransmitted remainder never crossed the wire), and the full
        size of every killed packet is tallied in ``bytes_killed``.
        Returns the number of packets killed.
        """
        if not self.up:
            return 0
        if self._txdone_seq >= 0:
            # Keep event-for-event behaviour: a pending tx-done fires on
            # the (now down) port and clears ``busy``.
            self._settle_tx(materialize=True)
        self.up = False
        now = self.scheduler.now
        if self._busy and self._flight_count and now < self._tx_end:
            # The newest in-flight packet is still serializing: back out
            # the part of its transmit-start credit that never made it
            # onto the wire.  (Counted in whole bytes; the sub-byte
            # truncation is below measurement granularity.  The remainder
            # is at most the packet's own serialization, so the undo never
            # exceeds its size.)
            remainder_s = self._tx_end - now
            self.bytes_sent -= int(remainder_s * self.rate_bps / 8.0)
            self.busy_seconds -= remainder_s
        killed = self._flight_count
        pkt = self._flight_head
        self._flight_head = self._flight_tail = None
        self._flight_count = 0
        while pkt is not None:
            pkt.flight_event.cancel()
            # Clear both links: a killed packet must not keep its (soon
            # recycled) event, nor the event its packet, alive as a cycle.
            nxt = pkt.flight_next
            pkt.flight_next = None
            pkt.flight_event = None
            self.drops_link_down += 1
            self.bytes_killed += pkt.size
            if pkt.span is not None:
                pkt.span.rec.end(
                    pkt.span, "dropped:link_down", now, where=self.node.name
                )
            pkt = nxt
        return killed

    def set_up(self) -> None:
        """Bring the link direction back; resume draining any parked queue."""
        if self.up:
            return
        self.up = True
        self._restart()


def connect(port_a: Port, port_b: Port) -> None:
    """Wire two ports into a full-duplex link."""
    if port_a.peer_node is not None or port_b.peer_node is not None:
        raise ValueError("port already connected")
    port_a.attach_peer(port_b)
    port_b.attach_peer(port_a)
