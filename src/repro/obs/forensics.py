"""Post-hoc forensics: FCT attribution, packet odysseys, flight recorder.

Three consumers of the span records produced by :mod:`repro.obs.spans`:

* :func:`attribute_flows` decomposes each sampled flow's completion time
  into **serialization**, **propagation**, **queueing**, **detour-loop**,
  and **retransmit/RTO** components — the answer to "why was this flow's
  FCT what it was".
* :func:`format_odyssey` renders one span's hop-by-hop detour odyssey —
  the §5.5-style path-length story for a single packet.
* :class:`FlightRecorder` keeps a fixed-size ring of recent span, detour,
  drop and counter records and dumps it as a JSONL bundle (readable by
  ``repro trace`` and ``repro explain``) when something goes wrong:
  watchdog/livelock aborts, invariant failures, controller breaker trips.

Attribution semantics
---------------------
Per delivered sampled packet, one-way latency ``t_deliver - t_send`` is
partitioned exactly into

``serialization`` (sum of per-hop ``tx_s``) + ``queueing`` (sum of
per-hop ``q_s`` — **all** hops, detoured ones included, so the per-hop
queueing delays of an odyssey sum to the flow's queueing component) +
``propagation`` (the remainder: wire time, including any link jitter).

``detour_loop`` is an *of-which* overlay, not a fourth disjoint part: the
cost charged to hops where DIBS detoured the packet (their queueing,
their serialization, and the propagation of the detour egress).

``retransmit_rto`` is per sampled segment: the delivering transmission's
send time minus the segment's first send time — the recovery latency a
drop-plus-retransmit (or RTO) inflicted on that byte range.  Because
sampling keys on ``(flow, seq)``, the original and every retransmission
of a sampled segment are all sampled, so this is exact for sampled
segments, not an estimate.

All functions are pure over the record lists and group by ``(seed,
flow)``; results are bit-identical whether spans come from one serial
process, per-seed trace files written by ``--workers`` runs, or a
``--resume`` replay.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Union

from repro.obs.trace import counters_record, meta_record, read_trace, tap

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network

__all__ = [
    "FlightRecorder",
    "attribute_flows",
    "find_span_files",
    "format_attribution",
    "format_odyssey",
    "load_spans",
    "span_components",
]

PathLike = Union[str, Path]

# Attribution payload layout version (fct_attribution.json).
ATTRIBUTION_VERSION = 1


# ----------------------------------------------------------------------
# loading span records
# ----------------------------------------------------------------------
def find_span_files(target: PathLike) -> list[Path]:
    """Resolve a trace file, flight dump, or artifacts directory into the
    JSONL files that may hold span records (sorted, deterministic)."""
    path = Path(target)
    if path.is_file():
        return [path]
    if path.is_dir():
        out = set(path.glob("*.jsonl"))
        out.update(path.glob("flight-*.jsonl"))
        return sorted(out)
    raise FileNotFoundError(f"no such trace file or artifacts directory: {target}")


def load_spans(target: PathLike) -> list[dict]:
    """All span records reachable from ``target`` (file or directory)."""
    records: list[dict] = []
    for path in find_span_files(target):
        records.extend(read_trace(path, kind="span"))
    return records


# ----------------------------------------------------------------------
# per-span decomposition
# ----------------------------------------------------------------------
def span_components(span: dict) -> dict:
    """Decompose one span into latency components (seconds).

    Always returns queueing/serialization/detour sums; the propagation
    remainder and total only for delivered spans (a dropped packet has no
    defined one-way latency)."""
    hops = span["hops"]
    queueing = 0.0
    serialization = 0.0
    detour_loop = 0.0
    detour_hops = 0
    for i, hop in enumerate(hops):
        q_s = hop.get("q_s", 0.0)
        tx_s = hop.get("tx_s", 0.0)
        queueing += q_s
        serialization += tx_s
        if hop.get("detour"):
            detour_hops += 1
            cost = q_s + tx_s
            if "t_tx" in hop:
                if i + 1 < len(hops):
                    arrival = hops[i + 1]["t_in"]
                elif span["status"] == "delivered":
                    arrival = span["t"]
                else:
                    arrival = hop["t_tx"] + tx_s
                cost += arrival - (hop["t_tx"] + tx_s)
            detour_loop += cost
    out = {
        "queueing_s": queueing,
        "serialization_s": serialization,
        "detour_loop_s": detour_loop,
        "detour_hops": detour_hops,
        "hops": len(hops),
    }
    if span["status"] == "delivered":
        total = span["t"] - span["t_send"]
        out["latency_s"] = total
        out["propagation_s"] = total - queueing - serialization
    return out


# ----------------------------------------------------------------------
# per-flow attribution
# ----------------------------------------------------------------------
def attribute_flows(spans: Iterable[dict]) -> list[dict]:
    """Roll sampled spans up into one decomposition row per (seed, flow),
    ranked slowest first by the span-derived FCT.

    Per segment ``(flow, seq)`` only the earliest delivery contributes
    latency components (duplicate deliveries of a retransmitted segment
    would double-count), and its retransmit/RTO recovery is the delivering
    transmission's send time minus the segment's first send time.
    """
    # Group by (seed, flow); within a group keep input order (per-seed
    # emission order — identical from memory or a per-seed trace file).
    flows: dict[tuple, dict] = {}
    for span in spans:
        key = (span.get("seed", 0), span["flow"])
        group = flows.get(key)
        if group is None:
            group = flows[key] = {"spans": [], "segments": {}}
        group["spans"].append(span)
        seg = group["segments"].setdefault(
            span["seq"], {"first_send": span["t_send"], "delivered": None}
        )
        if span["t_send"] < seg["first_send"]:
            seg["first_send"] = span["t_send"]
        if span["status"] == "delivered" and (
            seg["delivered"] is None or span["t"] < seg["delivered"]["t"]
        ):
            seg["delivered"] = span

    rows = []
    for (seed, flow), group in flows.items():
        spans_here = group["spans"]
        delivered = [seg for seg in group["segments"].values() if seg["delivered"]]
        row = {
            "seed": seed,
            "flow": flow,
            "spans": len(spans_here),
            "sampled_pkts": len(group["segments"]),
            "delivered_pkts": len(delivered),
            "dropped_spans": sum(1 for s in spans_here if s["status"].startswith("dropped")),
            "unfinished_spans": sum(1 for s in spans_here if s["status"] == "unfinished"),
            "latency_s": 0.0,
            "serialization_s": 0.0,
            "propagation_s": 0.0,
            "queueing_s": 0.0,
            "detour_loop_s": 0.0,
            "retransmit_rto_s": 0.0,
            "detour_hops": 0,
            "max_hops": max((len(s["hops"]) for s in spans_here), default=0),
            "max_detours": 0,
        }
        first_send = min(s["t_send"] for s in spans_here)
        last_delivery = None
        # Iterate segments in seq order: deterministic regardless of how
        # the caller interleaved multi-seed record lists.
        for seq in sorted(group["segments"]):
            seg = group["segments"][seq]
            span = seg["delivered"]
            if span is None:
                continue
            comp = span_components(span)
            row["latency_s"] += comp["latency_s"]
            row["serialization_s"] += comp["serialization_s"]
            row["propagation_s"] += comp["propagation_s"]
            row["queueing_s"] += comp["queueing_s"]
            row["detour_loop_s"] += comp["detour_loop_s"]
            row["retransmit_rto_s"] += span["t_send"] - seg["first_send"]
            row["detour_hops"] += comp["detour_hops"]
            if comp["detour_hops"] > row["max_detours"]:
                row["max_detours"] = comp["detour_hops"]
            if last_delivery is None or span["t"] > last_delivery:
                last_delivery = span["t"]
        row["first_send_s"] = first_send
        row["last_delivery_s"] = last_delivery
        row["span_fct_s"] = (
            last_delivery - first_send if last_delivery is not None else None
        )
        rows.append(row)

    # Slowest first; rows with no delivery at all sink to the bottom.
    rows.sort(
        key=lambda r: (
            (0, -r["span_fct_s"]) if r["span_fct_s"] is not None else (1, 0),
            r["seed"],
            r["flow"],
        )
    )
    return rows


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _us(value: Optional[float]) -> str:
    return f"{value * 1e6:9.1f}" if value is not None else "        -"


def format_attribution(rows: list[dict], limit: int = 10) -> str:
    """Human-readable ranked decomposition table (times in microseconds)."""
    if not rows:
        return "(no sampled spans)"
    lines = [
        "rank  seed  flow    span_fct_us   queueing   serializ     propag"
        "     detour    rtx/rto  pkts  detours",
    ]
    for rank, row in enumerate(rows[:limit], start=1):
        fct = row["span_fct_s"]
        lines.append(
            f"{rank:4d}  {row['seed']:4d}  {row['flow']:4d}  "
            f"{_us(fct) if fct is not None else '          -':>13s}  "
            f"{_us(row['queueing_s'])}  {_us(row['serialization_s'])}  "
            f"{_us(row['propagation_s'])}  {_us(row['detour_loop_s'])}  "
            f"{_us(row['retransmit_rto_s'])}  "
            f"{row['delivered_pkts']:3d}/{row['sampled_pkts']:<3d} {row['detour_hops']:5d}"
        )
    if len(rows) > limit:
        lines.append(f"... and {len(rows) - limit} more flows")
    return "\n".join(lines)


def format_odyssey(span: dict) -> str:
    """Render one span's hop-by-hop odyssey, detours and delays included."""
    head = (
        f"flow {span['flow']} seq {span['seq']} ({span['size']} B"
        f"{', retransmit' if span.get('rtx') else ''}) — {span['status']}"
        f", sent t={span['t_send']:.6f}s, ended t={span['t']:.6f}s"
    )
    lines = [head]
    comp = span_components(span)
    for hop in span["hops"]:
        parts = [f"  {hop['node']:<14s} t_in={hop['t_in']:.6f}s"]
        if "ttl" in hop:
            parts.append(f"ttl={hop['ttl']}")
        if "port" in hop:
            parts.append(f"out=port{hop['port']}")
        if "q_s" in hop:
            parts.append(f"queued={hop['q_s'] * 1e6:.1f}us")
        if "tx_s" in hop:
            parts.append(f"tx={hop['tx_s'] * 1e6:.1f}us")
        if hop.get("detour"):
            parts.append(
                f"DETOUR({hop.get('cause', '?')}, desired=port{hop.get('desired', '?')})"
            )
        if hop.get("ecn"):
            parts.append("ECN-marked")
        lines.append(" ".join(parts))
    if "end" in span:
        lines.append(f"  -> {span['end']}")
    summary = (
        f"  totals: queueing={comp['queueing_s'] * 1e6:.1f}us"
        f" serialization={comp['serialization_s'] * 1e6:.1f}us"
    )
    if "latency_s" in comp:
        summary += (
            f" propagation={comp['propagation_s'] * 1e6:.1f}us"
            f" one-way={comp['latency_s'] * 1e6:.1f}us"
        )
    summary += f" detour_hops={comp['detour_hops']}/{comp['hops']}"
    lines.append(summary)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# flight recorder
# ----------------------------------------------------------------------
# Run-loop-hook cadence for ring counter snapshots.  Coarse: the snapshots
# bracket the span/detour/drop records with fabric-wide context without
# paying a counters() walk more than a few times per ring-full of events.
_COUNTER_SNAPSHOT_EVENTS = 16_384


class FlightRecorder:
    """Fixed-size ring of recent observability records, dumped on anomaly.

    Install once per run.  The ring receives span records (via
    :class:`repro.obs.spans.SpanRecorder`), detour/drop records (through
    :func:`repro.obs.trace.tap`, the same records the trace file gets), and
    periodic fabric counter snapshots from a run-loop hook (never a
    scheduled event — metrics stay bit-identical with the recorder on).

    :meth:`dump` writes the ring as a JSONL bundle in the trace schema —
    a ``meta`` record carrying the reason, the ring in order, a final
    counters snapshot — readable by ``repro trace`` and ``repro explain``.
    One dump per distinct reason, ``max_dumps`` total: an abort storm
    cannot fill the disk.
    """

    def __init__(
        self,
        network: "Network",
        out_dir: PathLike,
        capacity: int = 4096,
        label: Optional[str] = None,
        seed: Optional[int] = None,
        max_dumps: int = 4,
    ) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be at least 1")
        self.network = network
        self.out_dir = Path(out_dir)
        self.capacity = capacity
        self.label = label
        self.seed = seed
        self.max_dumps = max_dumps
        self.ring: deque = deque(maxlen=capacity)
        self.dumps: list[Path] = []
        self.records_seen = 0
        self._reasons: set[str] = set()
        self._hook = None

    # ------------------------------------------------------------------
    def install(self) -> "FlightRecorder":
        """Subscribe to the switch detour/drop records and start the
        periodic counter snapshots."""
        tap(self.network, self.record, paths=False)
        self._hook = self.network.scheduler.add_hook(
            self._counters_tick, _COUNTER_SNAPSHOT_EVENTS
        )
        return self

    def finish(self) -> None:
        """Stop the periodic counter snapshots (dumps stay on disk)."""
        if self._hook is not None:
            self.network.scheduler.remove_hook(self._hook)
            self._hook = None

    def contribute(self, result) -> None:
        """Dumps live on disk; the result carries nothing of them."""

    # ------------------------------------------------------------------
    def record(self, record: dict) -> None:
        """Append one trace-schema record to the ring."""
        self.ring.append(record)
        self.records_seen += 1

    def _counters_tick(self, scheduler) -> None:
        self.record(counters_record(self.network))

    # ------------------------------------------------------------------
    def dump(self, reason: str, detail: str = "") -> Optional[Path]:
        """Write the ring as ``flight-<n>-<reason>.jsonl`` under
        ``out_dir``.  Deduplicated per reason and capped at ``max_dumps``;
        returns the written path, or ``None`` when suppressed."""
        if reason in self._reasons or len(self.dumps) >= self.max_dumps:
            return None
        self._reasons.add(reason)
        slug = "".join(c if c.isalnum() or c in "-_" else "-" for c in reason)[:64]
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"flight-{len(self.dumps)}-{slug}.jsonl"
        with path.open("w") as fh:
            def write(record: dict) -> None:
                fh.write(json.dumps(record, separators=(",", ":"), default=str) + "\n")

            write(meta_record(
                self.network.scheduler.now, self.label, self.seed,
                reason=reason, detail=detail,
                ring_capacity=self.capacity, records_seen=self.records_seen,
            ))
            for record in self.ring:
                write(record)
            write(counters_record(self.network))
        self.dumps.append(path)
        return path
