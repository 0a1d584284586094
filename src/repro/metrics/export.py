"""Result export: one artifact bundle per run, plus the typed writers.

:func:`write_artifacts` is the single entry point: given an
:class:`~repro.experiments.runner.ExperimentResult` and an output
directory it emits everything a run produced — per-flow and per-query
CSVs, the result JSON (scenario + metrics + scheduler profile), executor
telemetry JSON, a copy of any structured trace files, and a
``manifest.json`` indexing the bundle.  The individual ``write_*`` /
``export_*`` names remain for callers that want exactly one artifact;
they are the same writers ``write_artifacts`` composes.

Downstream users typically want raw per-flow records to plot their own
CDFs; these helpers dump everything the collector knows in stable, typed
formats.  Used by the examples and handy for comparing runs across code
versions.
"""

from __future__ import annotations

import csv
import glob as _glob
import json
import shutil
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.parallel import RunTelemetry
    from repro.experiments.runner import ExperimentResult, RunOptions
    from repro.metrics.collector import MetricsCollector

__all__ = ["write_artifacts", "MANIFEST_VERSION", "flows_to_records",
           "queries_to_records", "write_flows_csv", "write_queries_csv",
           "export_result_json", "export_telemetry_json"]

# Bumped when the bundle layout (file names / manifest keys) changes.
# v2: added spans.jsonl, fct_attribution.json, timeseries.json and the
# rto_wait_s flow column.
MANIFEST_VERSION = 2

PathLike = Union[str, Path]

_FLOW_FIELDS = [
    "flow_id", "kind", "src", "dst", "size", "start_time",
    "receiver_done_time", "fct", "retransmits", "timeouts", "rto_wait_s",
    "packets_sent", "packets_received", "completed",
]

_QUERY_FIELDS = ["query_id", "target", "start_time", "done_time", "qct", "degree", "completed"]


def flows_to_records(collector: "MetricsCollector") -> list[dict]:
    """One plain dict per flow, completed or not."""
    records = []
    for flow in collector.flows:
        records.append(
            {
                "flow_id": flow.flow_id,
                "kind": flow.kind,
                "src": flow.src,
                "dst": flow.dst,
                "size": flow.size,
                "start_time": flow.start_time,
                "receiver_done_time": flow.receiver_done_time,
                "fct": flow.fct,
                "retransmits": flow.retransmits,
                "timeouts": flow.timeouts,
                "rto_wait_s": flow.rto_wait_s,
                "packets_sent": flow.packets_sent,
                "packets_received": flow.packets_received,
                "completed": flow.completed,
            }
        )
    return records


def queries_to_records(collector: "MetricsCollector") -> list[dict]:
    """One plain dict per query."""
    return [
        {
            "query_id": q.query_id,
            "target": q.target,
            "start_time": q.start_time,
            "done_time": q.done_time,
            "qct": q.qct,
            "degree": len(q.flows),
            "completed": q.completed,
        }
        for q in collector.queries
    ]


def write_flows_csv(collector: "MetricsCollector", path: PathLike) -> Path:
    """Dump all flow records to CSV; returns the written path.

    Prefer :func:`write_artifacts` for the full bundle; this writes the
    same ``flows.csv`` on its own.
    """
    return _write_csv(Path(path), _FLOW_FIELDS, flows_to_records(collector))


def write_queries_csv(collector: "MetricsCollector", path: PathLike) -> Path:
    """Dump all query records to CSV; returns the written path.

    Prefer :func:`write_artifacts` for the full bundle; this writes the
    same ``queries.csv`` on its own.
    """
    return _write_csv(Path(path), _QUERY_FIELDS, queries_to_records(collector))


def _write_csv(path: Path, fields: list[str], records: list[dict]) -> Path:
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(records)
    return path


def export_result_json(result: "ExperimentResult", path: PathLike) -> Path:
    """Serialize an :class:`ExperimentResult` (scenario + metrics) to JSON.

    Prefer :func:`write_artifacts` for the full bundle; this writes the
    same ``result.json`` on its own.
    """
    from dataclasses import asdict

    from repro.experiments.runner import fingerprint

    scenario = asdict(result.scenario)
    # The detour policy object isn't JSON-serializable; its name is.
    payload = {
        "scenario": scenario,
        "qct_values": result.qct_values,
        "bg_fct_short_values": result.bg_fct_short_values,
        "bg_fct_large_values": result.bg_fct_large_values,
        "qct_p99_ms": result.qct_p99_ms,
        "bg_fct_p99_ms": result.bg_fct_p99_ms,
        "queries_started": result.queries_started,
        "queries_completed": result.queries_completed,
        "drops": result.drops,
        "detours": result.detours,
        "ecn_marks": result.ecn_marks,
        "timeouts": result.timeouts,
        "retransmits": result.retransmits,
        "events": result.events,
        "wall_seconds": result.wall_seconds,
        "faults_applied": result.faults_applied,
        "fault_packets_killed": result.fault_packets_killed,
        "invariant_checks": result.invariant_checks,
        "controller": result.controller_stats,
        "profile": result.profile,
        "fingerprint": fingerprint(result),
    }
    out = Path(path)
    out.write_text(json.dumps(payload, indent=2, default=str))
    return out


def export_telemetry_json(telemetry: "RunTelemetry", path: PathLike) -> Path:
    """Serialize sweep-execution telemetry from the parallel executor.

    The payload covers throughput (runs completed, events/sec, per-run wall
    time, speedup), failure containment (retry and per-reason failure
    counts, replay-bundle paths), graceful-degradation accounting (backoff
    waits and total backoff seconds, timeout escalations, whether the sweep
    was interrupted), and journal activity (cells resumed from / written to
    a ``--journal-dir``) — everything ``RunTelemetry.as_dict`` carries.

    Prefer :func:`write_artifacts` for the full bundle; this writes the
    same ``telemetry.json`` on its own.
    """
    out = Path(path)
    out.write_text(json.dumps(telemetry.as_dict(), indent=2, default=str))
    return out


def write_artifacts(
    result: "ExperimentResult",
    out_dir: PathLike,
    telemetry: Optional["RunTelemetry"] = None,
    options: Optional["RunOptions"] = None,
) -> dict[str, Path]:
    """Write the full artifact bundle for one run into ``out_dir``.

    The bundle (every piece optional except ``result.json`` and the
    manifest):

    ===================  ==============================================
    ``result.json``      scenario + metrics + scheduler profile
    ``flows.csv``        per-flow records (needs ``result.collector``)
    ``queries.csv``      per-query records (needs ``result.collector``)
    ``telemetry.json``   executor telemetry, when ``telemetry`` is given
    ``profile.json``     the scheduler profile alone, when profiled
    ``trace*.jsonl``     copies of the structured trace file(s)
    ``spans.jsonl``      finished packet spans (``options.span_sample_rate``)
    ``fct_attribution.json``  per-flow FCT decomposition from the spans
    ``timeseries.json``  goodput/utilization series (``timeseries_interval_s``)
    ``manifest.json``    index of the above + skip reasons
    ===================  ==============================================

    ``options`` are the :class:`~repro.experiments.runner.RunOptions` the
    run was watched with: its ``trace_file`` is copied (a ``{seed}`` or
    ``{cell}`` placeholder matches every per-run file), and spans a
    result that crossed a process boundary no longer holds are read back
    from it.  Results that crossed a process boundary carry no collector,
    so their CSVs are skipped (the manifest says so).  A cell resumed from
    a journal did not run, so it left no trace, spans or per-flow
    records: the manifest lists the resumed journal keys, and when every
    cell was resumed it gives that as the reason for each missing
    artifact.  Returns ``{artifact: path}`` for everything written.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    skipped: dict[str, str] = {}
    resumed = list(telemetry.resumed_keys) if telemetry is not None else []
    none_ran = bool(resumed) and telemetry.runs_completed == len(resumed)
    not_run = "every cell was resumed from the journal: none ran, so none left output"

    written["result"] = export_result_json(result, out / "result.json")

    collector = getattr(result, "collector", None)
    if collector is not None:
        written["flows"] = write_flows_csv(collector, out / "flows.csv")
        written["queries"] = write_queries_csv(collector, out / "queries.csv")
    else:
        skipped["flows"] = skipped["queries"] = not_run if none_ran else (
            "no collector on this result (it crossed a process boundary)"
        )

    if telemetry is not None:
        written["telemetry"] = export_telemetry_json(telemetry, out / "telemetry.json")

    if result.profile:
        profile_path = out / "profile.json"
        profile_path.write_text(json.dumps(result.profile, indent=2))
        written["profile"] = profile_path

    trace_file = options.trace_file if options is not None else None
    if trace_file:
        matches = sorted(_glob.glob(trace_file.replace("{seed}", "*").replace("{cell}", "*")))
        if not matches:
            skipped["trace"] = not_run if none_ran else f"no trace file matching {trace_file!r}"
        for i, src in enumerate(matches):
            dst = out / Path(src).name
            if dst.resolve() != Path(src).resolve():
                shutil.copyfile(src, dst)
            written["trace" if i == 0 else f"trace_{i}"] = dst

    # Packet spans + the FCT attribution built from them.  In-memory
    # records (serial runs) are authoritative; a result that crossed a
    # process boundary recovers its spans from the copied trace files.
    span_records = getattr(result, "span_records", None)
    if span_records is None and options is not None and options.span_sample_rate > 0:
        from repro.obs.trace import read_trace

        recovered: list[dict] = []
        for name in sorted(n for n in written if n.startswith("trace")):
            recovered.extend(read_trace(written[name], kind="span"))
        span_records = recovered or None
        if span_records is None:
            skipped["spans"] = not_run if none_ran else (
                "spans were sampled but neither in-memory records nor a "
                "trace file reached the exporter"
            )
    if span_records:
        from repro.obs.forensics import ATTRIBUTION_VERSION, attribute_flows

        spans_path = out / "spans.jsonl"
        with spans_path.open("w") as fh:
            for record in span_records:
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        written["spans"] = spans_path
        attribution_path = out / "fct_attribution.json"
        attribution_path.write_text(json.dumps({
            "version": ATTRIBUTION_VERSION,
            "flows": attribute_flows(span_records),
        }, indent=2))
        written["fct_attribution"] = attribution_path

    if getattr(result, "timeseries", None):
        timeseries_path = out / "timeseries.json"
        timeseries_path.write_text(json.dumps(result.timeseries, indent=2))
        written["timeseries"] = timeseries_path

    manifest = {
        "version": MANIFEST_VERSION,
        "scenario": result.scenario.name,
        "scheme": result.scenario.scheme,
        "artifacts": {name: path.name for name, path in written.items()},
        "skipped": skipped,
    }
    if resumed:
        manifest["resumed"] = {"journal_keys": resumed, "note": (
            "loaded from the journal, not run: these cells left no instrumentation output")}
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2))
    written["manifest"] = manifest_path
    return written
