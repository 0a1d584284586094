"""Output-port queue disciplines.

Four disciplines cover everything the paper evaluates:

* :class:`DropTailQueue` — fixed per-port FIFO measured in packets, the
  default NS-3 configuration (Table 1: 100 packets per port).
* :class:`EcnQueue` — droptail FIFO that additionally sets the ECN CE
  codepoint on arriving ECN-capable packets once the instantaneous queue
  length reaches the marking threshold K (DCTCP's single-threshold RED).
* :class:`PFabricQueue` — the tiny (24-packet) priority queue of pFabric:
  dequeues the highest-priority (smallest remaining flow size) packet and,
  when full, evicts the lowest-priority resident to admit a better arrival.
* :class:`DynamicBufferQueue` — a port queue drawing from a switch-wide
  :class:`SharedBufferPool`, modelling Dynamic Buffer Allocation on shared
  memory switches such as the Arista 7050QX (§5.5.2).

Two competitor disciplines from the related work (ROADMAP item 4) share
the same interface:

* :class:`BShareQueue` — shared-buffer allocation driven by measured
  packet queueing delay instead of the DT alpha threshold (BShare),
* :class:`FairQQueue` — ECN FIFO that additionally computes a per-port
  fair rate from active-flow counts and signals it in-band (FairQ).

All queues expose the same interface used by ports and switches:
``enqueue(pkt) -> bool``, ``dequeue() -> Packet | None``, ``is_full()``,
``__len__``, ``byte_count``, ``capacity_hint``.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.net.packet import DATA, MTU_BYTES, Packet

__all__ = [
    "DropTailQueue",
    "EcnQueue",
    "PFabricQueue",
    "SharedBufferPool",
    "DynamicBufferQueue",
    "BShareQueue",
    "FairQQueue",
    "INFINITE_CAPACITY",
]

INFINITE_CAPACITY = 1 << 60


class DropTailQueue:
    """Fixed-capacity FIFO; arrivals beyond capacity are rejected.

    ``capacity_pkts`` may be :data:`INFINITE_CAPACITY` to model the
    infinite-buffer baseline of Figure 6.
    """

    __slots__ = ("capacity_pkts", "_q", "byte_count", "drops", "enqueues")

    def __init__(self, capacity_pkts: int) -> None:
        if capacity_pkts <= 0:
            raise ValueError(f"queue capacity must be positive, got {capacity_pkts}")
        self.capacity_pkts = capacity_pkts
        self._q: deque[Packet] = deque()
        self.byte_count = 0
        self.drops = 0
        self.enqueues = 0

    def is_full(self) -> bool:
        return len(self._q) >= self.capacity_pkts

    def enqueue(self, pkt: Packet) -> bool:
        # Hot path (one call per hop per packet): a single _q load.
        q = self._q
        if len(q) >= self.capacity_pkts:
            self.drops += 1
            return False
        q.append(pkt)
        self.byte_count += pkt.size
        self.enqueues += 1
        return True

    def dequeue(self) -> Optional[Packet]:
        q = self._q
        if not q:
            return None
        pkt = q.popleft()
        self.byte_count -= pkt.size
        return pkt

    def __len__(self) -> int:
        return len(self._q)

    @property
    def capacity_hint(self) -> int:
        """Nominal packet capacity (used by occupancy metrics)."""
        return self.capacity_pkts

    def counter_dict(self) -> dict[str, int]:
        """Cumulative counters for the observability registry
        (:mod:`repro.obs.counters`); subclasses extend with their extras."""
        return {"enqueues": self.enqueues, "queue_drops": self.drops}

    def clear(self) -> None:
        """Discard all queued packets and reset ``byte_count`` to zero.

        Counters (``drops``/``enqueues``) are cumulative history and are
        deliberately *not* reset — clearing empties the buffer, it does not
        rewrite what the queue already saw.
        """
        self._q.clear()
        self.byte_count = 0


class EcnQueue(DropTailQueue):
    """Droptail FIFO with DCTCP-style instantaneous ECN marking.

    An arriving ECN-capable packet gets its CE bit set when the queue
    occupancy (including itself) exceeds ``mark_threshold_pkts`` — the
    single-threshold marking of the DCTCP AQM.  Non-ECN packets are
    unaffected (they are simply enqueued or dropped).
    """

    __slots__ = ("mark_threshold_pkts", "marks")

    def __init__(self, capacity_pkts: int, mark_threshold_pkts: int) -> None:
        super().__init__(capacity_pkts)
        if mark_threshold_pkts <= 0:
            raise ValueError("ECN mark threshold must be positive")
        self.mark_threshold_pkts = mark_threshold_pkts
        self.marks = 0

    def enqueue(self, pkt: Packet) -> bool:
        # Hot path: occupancy is read once for both the drop and the mark
        # decision (the mark compares occupancy *including* this packet).
        q = self._q
        n = len(q)
        if n >= self.capacity_pkts:
            self.drops += 1
            return False
        if pkt.ecn_capable and n + 1 > self.mark_threshold_pkts:
            pkt.ecn_ce = True
            self.marks += 1
            if pkt.span is not None:
                pkt.span.hops[-1]["ecn"] = True
        q.append(pkt)
        self.byte_count += pkt.size
        self.enqueues += 1
        return True

    def counter_dict(self) -> dict[str, int]:
        counters = super().counter_dict()
        counters["ecn_marks"] = self.marks
        # The live tunable (a gauge, not a cumulative count): snapshots and
        # traces capture runtime-controller retunes, not just the static
        # config the scenario started with.
        counters["mark_threshold_pkts"] = self.mark_threshold_pkts
        return counters


class PFabricQueue:
    """pFabric's shallow priority queue (Alizadeh et al., SIGCOMM 2013).

    ``priority`` is the packet's remaining-flow-size tag; *smaller is
    better*.  Dequeue returns the best-priority packet (FIFO among equals).
    On overflow, if the arrival beats the currently worst resident, that
    resident is evicted; otherwise the arrival is dropped.  Packets without
    a priority tag are treated as worst-priority.
    """

    __slots__ = ("capacity_pkts", "_q", "byte_count", "drops", "enqueues", "evictions", "_seq")

    def __init__(self, capacity_pkts: int = 24) -> None:
        if capacity_pkts <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity_pkts = capacity_pkts
        # Linear scan over <=24 packets is cheaper than a heap + lazy delete.
        self._q: list[tuple[int, int, Packet]] = []  # (priority, seq, pkt)
        self.byte_count = 0
        self.drops = 0
        self.enqueues = 0
        self.evictions = 0
        self._seq = 0

    @staticmethod
    def _prio(pkt: Packet) -> int:
        return pkt.priority if pkt.priority is not None else 1 << 62

    def is_full(self) -> bool:
        return len(self._q) >= self.capacity_pkts

    def enqueue(self, pkt: Packet) -> bool:
        prio = self._prio(pkt)
        if len(self._q) >= self.capacity_pkts:
            # Find the worst resident (max priority; latest arrival breaks ties
            # so we keep older packets of the same flow intact).
            worst_idx = max(range(len(self._q)), key=lambda i: (self._q[i][0], self._q[i][1]))
            if self._q[worst_idx][0] <= prio:
                self.drops += 1
                return False
            evicted = self._q.pop(worst_idx)[2]
            self.byte_count -= evicted.size
            self.evictions += 1
            self.drops += 1  # the evicted packet is a drop
        self._q.append((prio, self._seq, pkt))
        self._seq += 1
        self.byte_count += pkt.size
        self.enqueues += 1
        return True

    def dequeue(self) -> Optional[Packet]:
        if not self._q:
            return None
        best_idx = min(range(len(self._q)), key=lambda i: (self._q[i][0], self._q[i][1]))
        pkt = self._q.pop(best_idx)[2]
        self.byte_count -= pkt.size
        return pkt

    def __len__(self) -> int:
        return len(self._q)

    @property
    def capacity_hint(self) -> int:
        return self.capacity_pkts

    def counter_dict(self) -> dict[str, int]:
        return {
            "enqueues": self.enqueues,
            "queue_drops": self.drops,
            "pfabric_evictions": self.evictions,
            # pFabric's only tunable (gauge).
            "capacity_pkts": self.capacity_pkts,
        }

    def clear(self) -> None:
        """Discard all queued packets; counters keep their history."""
        self._q.clear()
        self.byte_count = 0


class SharedBufferPool:
    """Switch-wide packet-memory pool for Dynamic Buffer Allocation.

    Models the shared-memory architecture of §5.5.2: ports draw buffer space
    from one pool; a port may keep growing its queue while (a) the pool has
    free bytes and (b) its own occupancy stays below the DBA dynamic
    threshold ``alpha * free_bytes``.  Each port also gets a small reserved
    allotment so one hot port cannot deadlock the others.
    """

    __slots__ = ("total_bytes", "used_bytes", "alpha", "reserved_pkts_per_port")

    def __init__(self, total_bytes: int, alpha: float = 1.0, reserved_pkts_per_port: int = 2) -> None:
        if total_bytes <= 0:
            raise ValueError("pool size must be positive")
        self.total_bytes = total_bytes
        self.used_bytes = 0
        self.alpha = alpha
        self.reserved_pkts_per_port = reserved_pkts_per_port

    @property
    def free_bytes(self) -> int:
        return self.total_bytes - self.used_bytes

    def admits(self, queue_bytes: int, pkt_size: int, queue_pkts: int) -> bool:
        """DBA admission test for a port currently holding ``queue_bytes``."""
        free = self.total_bytes - self.used_bytes  # hot: no property call
        if free < pkt_size:
            return False
        if queue_pkts < self.reserved_pkts_per_port:
            return True
        return queue_bytes + pkt_size <= self.alpha * free

    def take(self, nbytes: int) -> None:
        self.used_bytes += nbytes

    def release(self, nbytes: int) -> None:
        self.used_bytes -= nbytes
        if self.used_bytes < 0:  # pragma: no cover - defensive
            raise AssertionError("shared buffer pool accounting went negative")


class DynamicBufferQueue:
    """Per-port FIFO backed by a :class:`SharedBufferPool` (DBA switch).

    Supports the same ECN marking as :class:`EcnQueue` when
    ``mark_threshold_pkts`` is given.
    """

    __slots__ = ("pool", "_q", "byte_count", "drops", "enqueues", "marks", "mark_threshold_pkts")

    def __init__(self, pool: SharedBufferPool, mark_threshold_pkts: Optional[int] = None) -> None:
        if mark_threshold_pkts is not None and mark_threshold_pkts < 1:
            raise ValueError("ECN mark threshold must be positive")
        self.pool = pool
        self._q: deque[Packet] = deque()
        self.byte_count = 0
        self.drops = 0
        self.enqueues = 0
        self.marks = 0
        self.mark_threshold_pkts = mark_threshold_pkts

    def is_full(self) -> bool:
        # "Full" for DIBS purposes means DBA would reject a full-MTU packet.
        return not self.pool.admits(self.byte_count, MTU_BYTES, len(self._q))

    def enqueue(self, pkt: Packet) -> bool:
        n = len(self._q)
        if not self.pool.admits(self.byte_count, pkt.size, n):
            self.drops += 1
            return False
        if (
            self.mark_threshold_pkts is not None
            and pkt.ecn_capable
            and n + 1 > self.mark_threshold_pkts
        ):
            pkt.ecn_ce = True
            self.marks += 1
            if pkt.span is not None:
                pkt.span.hops[-1]["ecn"] = True
        self._q.append(pkt)
        self.byte_count += pkt.size
        self.pool.used_bytes += pkt.size  # inlined SharedBufferPool.take
        self.enqueues += 1
        return True

    def dequeue(self) -> Optional[Packet]:
        if not self._q:
            return None
        pkt = self._q.popleft()
        self.byte_count -= pkt.size
        pool = self.pool
        pool.used_bytes -= pkt.size  # inlined SharedBufferPool.release
        if pool.used_bytes < 0:
            raise AssertionError("shared buffer pool accounting went negative")
        return pkt

    def __len__(self) -> int:
        return len(self._q)

    @property
    def capacity_hint(self) -> int:
        return max(1, self.pool.total_bytes // MTU_BYTES)

    def counter_dict(self) -> dict[str, int]:
        counters = {
            "enqueues": self.enqueues,
            "queue_drops": self.drops,
            "ecn_marks": self.marks,
        }
        # Live tunables (gauges): the ECN threshold when marking is on, and
        # the shared pool's DBA alpha in milli-units (counter values stay
        # integers), so traces capture runtime-controller retunes.
        if self.mark_threshold_pkts is not None:
            counters["mark_threshold_pkts"] = self.mark_threshold_pkts
        counters["dba_alpha_milli"] = int(self.pool.alpha * 1000)
        return counters

    def clear(self) -> None:
        """Discard all queued packets, returning their bytes to the shared
        pool (without this the pool would leak the cleared occupancy);
        counters keep their history."""
        if self.byte_count:
            self.pool.release(self.byte_count)
        self._q.clear()
        self.byte_count = 0


class BShareQueue(DynamicBufferQueue):
    """Shared-buffer port queue allocated from measured queueing delay.

    BShare (PAPERS.md: "Packet Queueing Delay-Driven Buffer Sharing")
    replaces the DT-style dynamic threshold ``alpha * free_bytes`` with an
    admission limit scaled by how the port's *measured* packet sojourn time
    compares to a target delay: a port whose packets currently wait longer
    than ``target_delay_s`` sees its share of the free pool shrink
    proportionally (``limit *= target/ewma``), so slow-draining ports stop
    hoarding shared memory long before they fill it, while fast ports keep
    the full dynamic threshold.  The sojourn estimate is an EWMA of
    per-packet queueing delay sampled at dequeue.

    The pool accounting contract is exactly the parent's: every admitted
    packet takes its bytes from the pool once (``enqueue``), and releases
    them exactly once — at ``dequeue`` or, for packets discarded wholesale,
    at ``clear()``.  The timestamp deque shadows ``_q`` 1:1.  Unlike its
    parent, this queue stays off the port's idle-send bypass
    (``Port._fast_q`` matches exact types only): every ``dequeue`` feeds
    the sojourn EWMA, so an enqueue-then-dequeue round trip is not a no-op.
    """

    __slots__ = ("scheduler", "target_delay_s", "delay_gain", "delay_ewma_s", "_tq")

    def __init__(
        self,
        pool: SharedBufferPool,
        scheduler,
        target_delay_s: float,
        mark_threshold_pkts: Optional[int] = None,
        delay_gain: float = 0.125,
    ) -> None:
        super().__init__(pool, mark_threshold_pkts=mark_threshold_pkts)
        if target_delay_s <= 0:
            raise ValueError("BShare target delay must be positive")
        if not 0.0 < delay_gain <= 1.0:
            raise ValueError("BShare delay gain must be in (0, 1]")
        self.scheduler = scheduler
        self.target_delay_s = target_delay_s
        self.delay_gain = delay_gain
        self.delay_ewma_s = 0.0
        self._tq: deque[float] = deque()  # enqueue timestamps, parallel to _q

    def _admits(self, pkt_size: int) -> bool:
        pool = self.pool
        free = pool.total_bytes - pool.used_bytes
        if free < pkt_size:
            return False
        if len(self._q) < pool.reserved_pkts_per_port:
            return True
        limit = pool.alpha * free
        ewma = self.delay_ewma_s
        if ewma > self.target_delay_s:
            limit *= self.target_delay_s / ewma
        return self.byte_count + pkt_size <= limit

    def is_full(self) -> bool:
        return not self._admits(MTU_BYTES)

    def enqueue(self, pkt: Packet) -> bool:
        if not self._admits(pkt.size):
            self.drops += 1
            return False
        if (
            self.mark_threshold_pkts is not None
            and pkt.ecn_capable
            and len(self._q) + 1 > self.mark_threshold_pkts
        ):
            pkt.ecn_ce = True
            self.marks += 1
            if pkt.span is not None:
                pkt.span.hops[-1]["ecn"] = True
        self._q.append(pkt)
        self._tq.append(self.scheduler.now)
        self.byte_count += pkt.size
        self.pool.used_bytes += pkt.size  # inlined SharedBufferPool.take
        self.enqueues += 1
        return True

    def dequeue(self) -> Optional[Packet]:
        pkt = super().dequeue()
        if pkt is not None:
            sojourn = self.scheduler.now - self._tq.popleft()
            self.delay_ewma_s += self.delay_gain * (sojourn - self.delay_ewma_s)
        return pkt

    def clear(self) -> None:
        """Discard queued packets; the parent releases the pool bytes
        exactly once, and the timestamp shadow must drop with the packets
        (stale timestamps would corrupt every later sojourn sample)."""
        super().clear()
        self._tq.clear()

    def counter_dict(self) -> dict[str, int]:
        counters = super().counter_dict()
        # Gauge, in microseconds so the counter stays an integer.
        counters["bshare_delay_ewma_us"] = int(self.delay_ewma_s * 1e6)
        return counters


class FairQQueue(EcnQueue):
    """ECN FIFO that also computes and signals a per-port fair rate.

    FairQ (PAPERS.md: "fair and fast rate allocation") makes the switch an
    active participant: each port estimates its count of active flows from
    the distinct DATA flow ids seen during the current and previous
    measurement epochs (an epoch is the time to serialize ``epoch_pkts``
    full MTUs), divides the line rate evenly, and writes the resulting
    share into ``pkt.rate_signal`` — keeping the minimum across hops, so a
    flow learns the fair share of its bottleneck port.  Receivers echo the
    signal on ACKs and :class:`~repro.transport.fairq.FairQSender` paces to
    it.  ECN marking is inherited unchanged as the safety net.

    Subclassing :class:`EcnQueue` deliberately keeps this queue off the
    port's idle-send bypass (``Port._fast_q`` matches the exact types
    ``DropTailQueue``, ``EcnQueue`` and ``DynamicBufferQueue`` only), so
    every packet passes through ``enqueue`` and gets stamped.
    """

    __slots__ = (
        "scheduler",
        "rate_bps",
        "epoch_s",
        "_epoch_start",
        "_cur_flows",
        "_prev_flows",
        "rate_stamps",
    )

    def __init__(
        self,
        capacity_pkts: int,
        mark_threshold_pkts: int,
        rate_bps: float,
        scheduler,
        epoch_pkts: int = 64,
    ) -> None:
        super().__init__(capacity_pkts, mark_threshold_pkts)
        if rate_bps <= 0:
            raise ValueError("FairQ port rate must be positive")
        if epoch_pkts <= 0:
            raise ValueError("FairQ epoch must be positive")
        self.scheduler = scheduler
        self.rate_bps = rate_bps
        self.epoch_s = epoch_pkts * MTU_BYTES * 8.0 / rate_bps
        self._epoch_start = 0.0
        self._cur_flows: set[int] = set()
        self._prev_flows: frozenset[int] = frozenset()
        self.rate_stamps = 0

    def active_flows(self) -> int:
        """Flows seen this epoch or the last (never reported below 1)."""
        return max(1, len(self._cur_flows | self._prev_flows))

    def _note_flow(self, flow_id: int) -> None:
        elapsed = self.scheduler.now - self._epoch_start
        if elapsed >= self.epoch_s:
            # Rotate: the finished epoch becomes history; after a full
            # silent epoch the history is dropped too, so departed flows
            # stop depressing the share within two epochs.
            self._prev_flows = (
                frozenset() if elapsed >= 2.0 * self.epoch_s else frozenset(self._cur_flows)
            )
            self._cur_flows = set()
            self._epoch_start = self.scheduler.now
        self._cur_flows.add(flow_id)

    def enqueue(self, pkt: Packet) -> bool:
        if pkt.kind == DATA:
            self._note_flow(pkt.flow_id)
            share = self.rate_bps / self.active_flows()
            signal = pkt.rate_signal
            if signal is None or share < signal:
                pkt.rate_signal = share
                self.rate_stamps += 1
        return super().enqueue(pkt)

    def counter_dict(self) -> dict[str, int]:
        counters = super().counter_dict()
        counters["fairq_rate_stamps"] = self.rate_stamps
        # Gauge: the live flow-count estimate behind the signalled share.
        counters["fairq_active_flows"] = self.active_flows()
        return counters
