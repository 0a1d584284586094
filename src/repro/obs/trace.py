"""Structured trace writer: one versioned JSONL schema for run events.

The anatomy traces (:class:`repro.metrics.trace.DetourTrace`,
:class:`~repro.metrics.trace.QueueOccupancyTrace`) each invented their own
in-memory tuple layout, and per-packet paths lived only on ``Packet.path``.
This module unifies all of them behind one on-disk format a ``repro trace``
invocation can filter and summarize after the fact.

Schema (version 2) — one JSON object per line, every record carrying:

* ``v`` — schema version (integer, currently 2; version-1 files are still
  read — v2 only *adds* the ``span`` record type),
* ``type`` — ``meta`` | ``detour`` | ``drop`` | ``occupancy`` | ``path``
  | ``counters`` | ``span``,
* ``t`` — simulated time in seconds.

Type-specific fields:

==============  =============================================================
``meta``        ``label``, ``seed``, ``schema`` (field documentation)
``detour``      ``switch``, ``flow``, ``detours`` (nth detour of the packet)
``drop``        ``node``, ``flow``, ``reason``
``occupancy``   ``switch``, ``qlen`` (per-port packet counts)
``path``        ``host``, ``flow``, ``path`` (node names visited)
``counters``    ``counters`` (flat ``scope.counter -> value`` snapshot)
``span``        ``flow``, ``seq``, ``status``, ``hops`` (hop-by-hop
                biography of a sampled packet; see :mod:`repro.obs.spans`)
==============  =============================================================

Every observer of detour, drop and path events subscribes through
:func:`tap`, which *chains* the ``Switch.on_detour`` / ``Switch.on_drop``
/ ``Host.on_path`` callbacks and hands each subscriber the versioned
record: the file writer here, the flight recorder's ring
(:class:`repro.obs.forensics.FlightRecorder`) and the in-memory anatomy
log (:class:`repro.metrics.trace.DetourTrace`) all observe one run in any
attach order.  The writer samples occupancy from a scheduler run-loop
hook, so tracing never schedules events and the event calendar stays
bit-identical.
"""

from __future__ import annotations

import json
import warnings
from collections import Counter
from pathlib import Path
from typing import IO, Callable, Iterator, Optional, Sequence, Union

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "TRACE_TYPES",
    "TraceWriter",
    "tap",
    "meta_record",
    "counters_record",
    "read_trace",
    "validate_record",
    "summarize_trace",
    "format_trace_summary",
]

TRACE_SCHEMA_VERSION = 2

# Versions a reader accepts: v2 added the span record type without
# changing any v1 record, so v1 files remain readable.
_SUPPORTED_VERSIONS = (1, 2)

# Required fields beyond the common (v, type, t) triple.
TRACE_TYPES: dict[str, tuple[str, ...]] = {
    "meta": (),
    "detour": ("switch", "flow", "detours"),
    "drop": ("node", "flow", "reason"),
    "occupancy": ("switch", "qlen"),
    "path": ("host", "flow", "path"),
    "counters": ("counters",),
    "span": ("flow", "seq", "status", "hops"),
}

# How often (processed events) the occupancy hook compares sim time against
# the next sample point.  Event-count cadence keeps the calendar untouched;
# 256 events bounds the sampling jitter to a sliver of simulated time at
# packet-pipeline event rates.
_OCCUPANCY_CHECK_EVENTS = 256


def tap(network, sink: Callable[[dict], None], paths: bool = True) -> None:
    """Subscribe ``sink`` to ``network``'s detour and drop events — and,
    with ``paths``, to every delivered packet's path — as trace records.

    Chains onto whatever callbacks are already installed, so any number
    of sinks observe one run; the newest subscriber sees each event first.
    """
    def chain_detour(previous):
        def on_detour(time, switch, pkt):
            sink({
                "v": TRACE_SCHEMA_VERSION, "type": "detour", "t": time,
                "switch": switch.name, "flow": pkt.flow_id, "detours": pkt.detours,
            })
            if previous is not None:
                previous(time, switch, pkt)
        return on_detour

    def chain_drop(previous):
        def on_drop(time, switch, pkt, reason):
            sink({
                "v": TRACE_SCHEMA_VERSION, "type": "drop", "t": time,
                "node": switch.name, "flow": pkt.flow_id, "reason": reason,
            })
            if previous is not None:
                previous(time, switch, pkt, reason)
        return on_drop

    def chain_path(previous):
        def on_path(time, host, pkt):
            sink({
                "v": TRACE_SCHEMA_VERSION, "type": "path", "t": time,
                "host": host.name, "flow": pkt.flow_id, "path": list(pkt.path),
            })
            if previous is not None:
                previous(time, host, pkt)
        return on_path

    for switch in network.switches:
        switch.on_detour = chain_detour(switch.on_detour)
        switch.on_drop = chain_drop(switch.on_drop)
    if paths:
        for host in network.hosts:
            host.on_path = chain_path(host.on_path)


def meta_record(t: float, label, seed, **extra) -> dict:
    """The ``meta`` record that opens a trace file or a flight-recorder
    dump; ``extra`` fields go between ``seed`` and the schema."""
    return {
        "v": TRACE_SCHEMA_VERSION, "type": "meta", "t": t,
        "label": label, "seed": seed, **extra,
        "schema": {kind: list(fields) for kind, fields in TRACE_TYPES.items()},
    }


def counters_record(network) -> dict:
    """A ``counters`` record: the network's flat counter snapshot now."""
    return {
        "v": TRACE_SCHEMA_VERSION, "type": "counters", "t": network.scheduler.now,
        "counters": network.counters().flat(),
    }


class TraceWriter:
    """Writes the unified JSONL trace for one simulation run."""

    def __init__(
        self,
        path: Union[str, Path],
        occupancy_interval_s: float = 0.0,
        occupancy_switches: Optional[Sequence[str]] = None,
        label: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> None:
        if occupancy_interval_s < 0:
            raise ValueError("occupancy interval cannot be negative")
        self.path = Path(path)
        self.occupancy_interval_s = occupancy_interval_s
        self.occupancy_switches = list(occupancy_switches) if occupancy_switches else None
        self.label = label
        self.seed = seed
        self.records_written = 0
        self._fh: Optional[IO[str]] = None
        self._network = None
        self._hook = None
        self._occ_targets = []
        self._next_occ_t = 0.0

    # ------------------------------------------------------------------
    def attach(self, network) -> "TraceWriter":
        """Open the file, write the ``meta`` record, and hook the network."""
        self._network = network
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w")
        self._write(meta_record(network.scheduler.now, self.label, self.seed))
        tap(network, self._write)
        if self.occupancy_interval_s > 0:
            names = self.occupancy_switches or [s.name for s in network.switches]
            self._occ_targets = [network.switch(name) for name in names]
            self._next_occ_t = network.scheduler.now
            self._hook = network.scheduler.add_hook(
                self._occupancy_tick, _OCCUPANCY_CHECK_EVENTS
            )
        return self

    def finish(self) -> None:
        """Write the final counters snapshot and close the file."""
        if self._fh is None:
            return
        if self._network is not None:
            if self._hook is not None:
                self._network.scheduler.remove_hook(self._hook)
                self._hook = None
            self._write(counters_record(self._network))
        self._fh.close()
        self._fh = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.finish()

    def contribute(self, result) -> None:
        """The trace lives in its file; the result carries nothing of it."""

    # ------------------------------------------------------------------
    def write_record(self, record: dict) -> None:
        """Write one externally-built record (e.g. a finished span from
        :class:`repro.obs.spans.SpanRecorder`).  No-op when the writer is
        not open."""
        if self._fh is None:
            return
        self._write(record)

    def _write(self, record: dict) -> None:
        self._fh.write(json.dumps(record, separators=(",", ":"), default=str) + "\n")
        self.records_written += 1

    def _occupancy_tick(self, scheduler) -> None:
        if scheduler.now < self._next_occ_t:
            return
        t = scheduler.now
        for switch in self._occ_targets:
            self._write({
                "v": TRACE_SCHEMA_VERSION, "type": "occupancy", "t": t,
                "switch": switch.name, "qlen": switch.queue_occupancy(),
            })
        # Skip ahead past any intervals the event gap jumped over.
        interval = self.occupancy_interval_s
        self._next_occ_t = t + interval - ((t - self._next_occ_t) % interval)


# ----------------------------------------------------------------------
# readers
# ----------------------------------------------------------------------
def validate_record(record: dict) -> dict:
    """Validate one trace record against the schema; returns it."""
    if not isinstance(record, dict):
        raise ValueError(f"trace record must be an object, got {type(record).__name__}")
    version = record.get("v")
    if version not in _SUPPORTED_VERSIONS:
        raise ValueError(f"unsupported trace schema version {version!r}")
    kind = record.get("type")
    if kind not in TRACE_TYPES:
        raise ValueError(f"unknown trace record type {kind!r}")
    if "t" not in record:
        raise ValueError(f"trace record of type {kind!r} is missing 't'")
    missing = [field for field in TRACE_TYPES[kind] if field not in record]
    if missing:
        raise ValueError(f"trace record of type {kind!r} is missing {missing}")
    return record


def read_trace(path: Union[str, Path], kind: Optional[str] = None) -> Iterator[dict]:
    """Yield validated records from a trace file, optionally one type only.

    A truncated *final* line — the torn write a SIGKILL or power loss
    leaves behind — is tolerated: complete records are yielded and a
    ``RuntimeWarning`` is issued.  Malformed JSON anywhere *before* the
    last line, and any record that parses but violates the schema, still
    raise ``ValueError`` (those indicate corruption, not a torn tail).
    """
    torn = None
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if torn is not None:
                # A complete line after the malformed one: not a torn
                # tail but mid-file corruption.
                torn_lineno, torn_exc = torn
                raise ValueError(f"{path}:{torn_lineno}: {torn_exc}") from torn_exc
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                torn = (lineno, exc)
                continue
            try:
                record = validate_record(record)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if kind is None or record["type"] == kind:
                yield record
    if torn is not None:
        warnings.warn(
            f"{path}:{torn[0]}: ignoring truncated final trace line "
            "(torn write from an interrupted run)",
            RuntimeWarning,
            stacklevel=2,
        )


def summarize_trace(path: Union[str, Path]) -> dict:
    """End-to-end roll-up of a trace file (the ``repro trace`` summary)."""
    counts: Counter[str] = Counter()
    detours_by_switch: Counter[str] = Counter()
    drops_by_reason: Counter[str] = Counter()
    max_detours = 0
    peak_occupancy = 0
    peak_occupancy_switch = None
    t_min = None
    t_max = None
    meta = None
    final_counters = None
    for record in read_trace(path):
        counts[record["type"]] += 1
        t = record["t"]
        t_min = t if t_min is None else min(t_min, t)
        t_max = t if t_max is None else max(t_max, t)
        kind = record["type"]
        if kind == "meta":
            meta = {k: record.get(k) for k in ("label", "seed")}
        elif kind == "detour":
            detours_by_switch[record["switch"]] += 1
            max_detours = max(max_detours, record["detours"])
        elif kind == "drop":
            drops_by_reason[record["reason"]] += 1
        elif kind == "occupancy":
            q = max(record["qlen"]) if record["qlen"] else 0
            if q > peak_occupancy:
                peak_occupancy = q
                peak_occupancy_switch = record["switch"]
        elif kind == "counters":
            final_counters = record["counters"]
    return {
        "records": sum(counts.values()),
        "by_type": dict(counts),
        "t_range_s": [t_min, t_max],
        "meta": meta,
        "detours_by_switch": dict(detours_by_switch),
        "max_detours_per_packet": max_detours,
        "drops_by_reason": dict(drops_by_reason),
        "peak_occupancy_pkts": peak_occupancy,
        "peak_occupancy_switch": peak_occupancy_switch,
        "final_counters": final_counters,
    }


def format_trace_summary(summary: dict) -> str:
    """Human-readable rendering of :func:`summarize_trace` output."""
    lines = [f"{summary['records']} records"]
    if summary["meta"]:
        lines[0] += f" (label={summary['meta'].get('label')}, seed={summary['meta'].get('seed')})"
    by_type = ", ".join(f"{k}={v}" for k, v in sorted(summary["by_type"].items()))
    lines.append(f"by type: {by_type}")
    t_min, t_max = summary["t_range_s"]
    if t_min is not None:
        lines.append(f"sim-time range: {t_min:.6f}s .. {t_max:.6f}s")
    if summary["drops_by_reason"]:
        drops = ", ".join(f"{k}={v}" for k, v in sorted(summary["drops_by_reason"].items()))
        lines.append(f"drops: {drops}")
    if summary["detours_by_switch"]:
        top = sorted(summary["detours_by_switch"].items(), key=lambda kv: -kv[1])[:5]
        lines.append(
            "top detour switches: "
            + ", ".join(f"{name}={count}" for name, count in top)
            + f" (max per packet: {summary['max_detours_per_packet']})"
        )
    if summary["peak_occupancy_switch"] is not None:
        lines.append(
            f"peak queue occupancy: {summary['peak_occupancy_pkts']} pkts "
            f"on {summary['peak_occupancy_switch']}"
        )
    if summary["final_counters"]:
        total_drops = sum(
            v for k, v in summary["final_counters"].items() if ".queue_drops" in k
        )
        lines.append(
            f"final counters: {len(summary['final_counters'])} scoped values "
            f"(queue drops recorded: {total_drops})"
        )
    return "\n".join(lines)
