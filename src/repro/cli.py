"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``      one scenario (any scheme), print the headline metrics
``sweep``    sweep one Scenario parameter across values and schemes
``replay``   re-execute a failure replay bundle from a journal
``trace``    summarize (or filter) a structured JSONL trace file
``explain``  forensics on sampled spans: ranked FCT decomposition of the
             slowest flows + a packet's detour odyssey
``schemes``  list available schemes and the Table 1/2 defaults
``topo``     describe a topology (sizes, degrees, diameter)
``serve``    run the async job server (admission control, per-tenant
             fairness, crash retries, graceful SIGTERM drain)
``jobs``     inspect a journal directory: completed entries and failure
             replay bundles

Examples::

    python -m repro run --scheme dibs --qps 125 --seeds 0,1,2
    python -m repro serve --state-dir runs/service --workers 4 --port 8642
    python -m repro jobs runs/service
    python -m repro run --scheme dibs --profile --trace-file run.trace.jsonl
    python -m repro trace run.trace.jsonl
    python -m repro sweep --param buffer_pkts --values 5,10,25,50 \
        --schemes dctcp,dibs
    python -m repro sweep --param qps --values 40,125,250 --seeds 0,1,2 \
        --workers 4 --run-timeout 300 --journal-dir runs/qps --resume
    python -m repro replay runs/qps/failures/<hash>.bundle.json
    python -m repro topo --topology fattree --k 8

Observability flags (repro.obs) on ``run``/``sweep``: ``--profile``
buckets scheduler wall time per callback category; ``--heartbeat S``
emits progress JSONL every S wall seconds (``--heartbeat-path`` to a
file, default stderr); ``--trace-file F`` records detours, drops, path
and occupancy events as versioned JSONL readable by ``repro trace``;
``--spans`` (or ``--span-sample-rate R``) samples per-packet odyssey
spans readable by ``repro explain``; ``--flight-recorder DIR`` dumps a
ring of recent events on aborts/breaker trips; ``--timeseries-interval-s
S`` samples goodput/utilization series into the artifact bundle.
None of these perturbs the event calendar: metrics are bit-identical
with instrumentation on or off.  All but ``--timeseries-interval-s``
(whose series is part of the result) only watch the run: they form its
RunOptions, so they leave its journal key alone, and a cell resumed
from ``--journal-dir`` brings no trace, spans, profile or heartbeat of
its own.  ``run --out-dir DIR`` writes the full
artifact bundle (CSVs, JSON, profile, trace) via
repro.metrics.export.write_artifacts.

``--workers N`` fans the (value x scheme x seed) grid out over N worker
processes (results identical to serial; see repro.experiments.parallel).
``--journal-dir DIR`` checkpoints every completed (value, scheme, seed)
cell atomically; ``--resume`` skips already-journaled cells, so an
interrupted sweep restarted with the same arguments produces bit-identical
pooled results.  Exit codes: 0 ok, 1 permanently failed runs, 130
interrupted (SIGINT/SIGTERM; partial results printed, journal flushed).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from typing import Optional, Sequence

from repro.experiments.journal import (
    RunJournal,
    load_replay_bundle,
    scenario_from_json_dict,
)
from repro.experiments.parallel import RunTelemetry
from repro.experiments.report import format_sweep, format_table
from repro.experiments.runner import RunOptions, run_pooled, run_scenario
from repro.experiments.scenarios import PAPER_DEFAULTS, SCALED_DEFAULTS, Scenario
from repro.experiments.schemes import available_schemes, get_scheme
from repro.experiments.sweep import sweep as run_sweep

__all__ = ["main", "build_parser"]

_OPTION_FIELDS = tuple(field.name for field in fields(RunOptions))

# Conventional "terminated by SIGINT" exit status, distinct from 1 (failed
# runs) so supervisors/CI can tell an interrupted sweep from a broken one.
EXIT_INTERRUPTED = 130

# Scenario fields, plus the two numeric RunOptions fields (their flags are
# made the same way).
_NUMERIC_FIELDS = {
    "k": int,
    "buffer_pkts": int,
    "ecn_threshold_pkts": int,
    "ttl": int,
    "incast_degree": int,
    "response_bytes": int,
    "qps": float,
    "bg_interarrival_s": float,
    "duration_s": float,
    "drain_s": float,
    "oversubscription": float,
    "seed": int,
    "link_flap_rate": float,
    "link_flap_downtime_s": float,
    "corrupt_rate": float,
    "invariant_check_interval_s": float,
    "max_pending_events": int,
    "trace_occupancy_interval_s": float,
    "span_sample_rate": float,
    "timeseries_interval_s": float,
    "link_jitter_s": float,
    "bg_diurnal_period_s": float,
    "bg_diurnal_amplitude": float,
    "link_rate_bps": float,
    "link_delay_s": float,
    "min_rto_s": float,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DIBS (EuroSys 2014) reproduction: run simulated data center experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario")
    _add_scenario_args(run_p)
    run_p.add_argument("--seeds", default="0", help="comma-separated seeds to pool (default: 0)")
    run_p.add_argument("--out-dir", default=None, dest="out_dir", metavar="DIR",
                       help="write the full artifact bundle (flows/queries CSVs, "
                            "result + telemetry JSON, profile, trace) into DIR")
    _add_parallel_args(run_p)

    sweep_p = sub.add_parser("sweep", help="sweep a scenario parameter")
    _add_scenario_args(sweep_p)
    sweep_p.add_argument("--param", required=True, help="Scenario field to sweep")
    sweep_p.add_argument("--values", required=True, help="comma-separated values")
    sweep_p.add_argument("--schemes", default="dctcp,dibs", help="comma-separated schemes")
    sweep_p.add_argument("--seeds", default="0", help="comma-separated seeds to pool")
    _add_parallel_args(sweep_p)

    trace_p = sub.add_parser(
        "trace",
        help="summarize or filter a structured JSONL trace written by --trace-file",
    )
    trace_p.add_argument("file", help="path to a .trace.jsonl file")
    trace_p.add_argument("--type", default=None, dest="record_type",
                         choices=["meta", "detour", "drop", "occupancy", "path",
                                  "counters", "span"],
                         help="print matching records as JSONL instead of the summary")
    trace_p.add_argument("--limit", type=int, default=None,
                         help="stop after N records (with --type)")

    explain_p = sub.add_parser(
        "explain",
        help="reconstruct sampled packet odysseys and rank flows by "
             "tail-FCT decomposition (needs spans: run with --spans)",
    )
    explain_p.add_argument("target",
                           help="a trace/spans .jsonl file, a flight-recorder dump, "
                                "or an artifacts directory (--out-dir)")
    explain_p.add_argument("--flows", type=int, default=10, dest="flow_limit",
                           help="rows in the ranked attribution table (default: 10)")
    explain_p.add_argument("--flow", type=int, default=None, dest="flow_id",
                           help="also print the hop-by-hop odyssey of this flow's "
                                "most-detoured span (default: the slowest flow)")

    replay_p = sub.add_parser(
        "replay",
        help="re-execute a failure replay bundle written under --journal-dir",
    )
    replay_p.add_argument("bundle", help="path to a failures/<hash>.bundle.json")

    serve_p = sub.add_parser(
        "serve",
        help="run the HTTP job server (see repro.server): journal-deduped "
             "scenario runs with admission control, per-tenant DRR fairness, "
             "crash retries, circuit breaking, and graceful SIGTERM drain",
    )
    serve_p.add_argument("--state-dir", required=True, dest="state_dir", metavar="DIR",
                         help="durable state: run journal, failures/, spool.json, "
                              "heartbeat.jsonl")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8642,
                         help="listen port (0 = ephemeral; the bound port is "
                              "announced as a JSON line on stdout)")
    serve_p.add_argument("--workers", type=int, default=2,
                         help="simulation worker processes (default: 2)")
    serve_p.add_argument("--max-retries", type=int, default=2, dest="max_retries",
                         help="retries per job after a transient failure (default: 2)")
    serve_p.add_argument("--run-timeout", type=float, default=None, dest="run_timeout",
                         help="per-run timeout in seconds (escalates x1.5 per retry)")
    serve_p.add_argument("--rate", type=float, default=20.0, dest="rate_per_s",
                         help="sustained admission rate, jobs/second (default: 20)")
    serve_p.add_argument("--burst", type=int, default=20,
                         help="admission token-bucket burst (default: 20)")
    serve_p.add_argument("--max-queued", type=int, default=64, dest="max_queued",
                         help="hard queue-depth bound; beyond it submissions shed "
                              "with 503 + Retry-After (default: 64)")
    serve_p.add_argument("--breaker-threshold", type=int, default=3,
                         dest="breaker_threshold",
                         help="consecutive permanent failures that trip a scenario "
                              "class's circuit breaker (default: 3)")
    serve_p.add_argument("--breaker-cooldown", type=float, default=30.0,
                         dest="breaker_cooldown",
                         help="seconds an open breaker waits before half-opening "
                              "(default: 30)")
    serve_p.add_argument("--quantum", type=int, default=1,
                         help="DRR quantum: launches granted per tenant per ring "
                              "sweep (default: 1)")
    serve_p.add_argument("--heartbeat", type=float, default=5.0,
                         dest="heartbeat_interval",
                         help="seconds between heartbeat.jsonl progress records "
                              "(default: 5)")
    serve_p.add_argument("--drain-timeout", type=float, default=60.0,
                         dest="drain_timeout",
                         help="seconds SIGTERM waits for in-flight runs before "
                              "spooling them (default: 60)")

    jobs_p = sub.add_parser(
        "jobs",
        help="list a journal directory's completed entries and failure bundles",
    )
    jobs_p.add_argument("journal_dir", metavar="JOURNAL_DIR",
                        help="a --journal-dir / serve --state-dir directory")
    jobs_p.add_argument("--failures", action="store_true",
                        help="show only failure replay bundles")
    jobs_p.add_argument("--limit", type=int, default=None,
                        help="show at most N rows per section (newest first)")

    sub.add_parser("schemes", help="list schemes and defaults")

    topo_p = sub.add_parser("topo", help="describe a topology")
    topo_p.add_argument("--topology", default="fattree",
                        choices=["fattree", "testbed", "leafspine", "linear", "jellyfish"])
    topo_p.add_argument("--k", type=int, default=4)
    topo_p.add_argument("--seed", type=int, default=0)

    return parser


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    # Choices come from the live registry, so schemes registered by a
    # plugin/conftest before parser construction are accepted too.
    parser.add_argument("--scheme", default="dibs", choices=available_schemes())
    parser.add_argument("--paper-defaults", action="store_true",
                        help="start from the paper's K=8 Table 1/2 point instead of the scaled one")
    for field, cast in _NUMERIC_FIELDS.items():
        flag = "--" + field.replace("_", "-")
        parser.add_argument(flag, type=cast, default=None, dest=field)
    parser.add_argument("--no-background", action="store_true", help="disable background traffic")
    parser.add_argument("--no-query", action="store_true", help="disable query traffic")
    parser.add_argument("--detour-policy", default=None,
                        choices=["random", "load-aware", "flow-based", "probabilistic"])
    parser.add_argument("--faults", default=None, metavar="SPEC.json",
                        help="JSON fault schedule (see repro.faults.schedule) "
                             "applied to every run")
    parser.add_argument("--no-watchdog", action="store_true",
                        help="disable the livelock watchdog (on by default)")
    # Runtime control (repro.control).
    parser.add_argument("--controller", action="store_true",
                        help="install the closed-loop runtime controller "
                             "(detour-storm breaker + live retuning of the "
                             "ECN threshold, detour cap, and DBA alpha)")
    parser.add_argument("--controller-spec", default=None, dest="controller_spec",
                        metavar="SPEC.json",
                        help="JSON ControllerSpec overrides (see "
                             "repro.control.spec); implies --controller")
    # Observability (repro.obs).  None of these changes simulated behaviour.
    parser.add_argument("--profile", action="store_true",
                        help="profile scheduler wall time per callback category "
                             "and print the breakdown after the run")
    parser.add_argument("--heartbeat", type=float, default=None, metavar="SECONDS",
                        dest="heartbeat_interval_s",
                        help="emit a progress heartbeat (JSONL) every SECONDS of "
                             "wall time while simulating")
    parser.add_argument("--heartbeat-path", default=None, dest="heartbeat_path",
                        metavar="FILE",
                        help="append heartbeat records to FILE instead of stderr "
                             "('{seed}' expands per seed)")
    parser.add_argument("--trace-file", default=None, dest="trace_file", metavar="FILE",
                        help="record a structured JSONL event trace to FILE "
                             "('{seed}' expands per seed); inspect with "
                             "'repro trace FILE'")
    parser.add_argument("--spans", action="store_true",
                        help="sample per-packet spans at the default 1/64 rate "
                             "(equivalent to --span-sample-rate 0.015625); "
                             "inspect with 'repro explain'")
    parser.add_argument("--flight-recorder", default=None, dest="flight_recorder_dir",
                        metavar="DIR",
                        help="keep a ring of recent events and dump it into DIR "
                             "on watchdog/invariant aborts and breaker trips "
                             "('{seed}' expands per seed)")


def _add_parallel_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for (value x scheme x seed) fan-out "
                             "(1 = serial; results are identical either way)")
    parser.add_argument("--run-timeout", type=float, default=None, dest="run_timeout",
                        help="per-run timeout in wall-clock seconds (parallel mode; "
                             "escalates x1.5 per retry)")
    parser.add_argument("--max-retries", type=int, default=1, dest="max_retries",
                        help="retries per failed run before it is recorded as failed "
                             "(jittered exponential backoff between attempts)")
    parser.add_argument("--journal-dir", default=None, dest="journal_dir", metavar="DIR",
                        help="checkpoint every completed run into DIR (atomic, "
                             "content-keyed); failed runs dump replay bundles under "
                             "DIR/failures/")
    parser.add_argument("--resume", action="store_true",
                        help="skip runs already journaled in --journal-dir; the "
                             "resumed output is bit-identical to an uninterrupted run")


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    base = PAPER_DEFAULTS if args.paper_defaults else SCALED_DEFAULTS
    overrides = {"scheme": args.scheme, "name": "cli"}
    for field in _NUMERIC_FIELDS:
        value = getattr(args, field, None)
        if value is not None and field not in _OPTION_FIELDS:
            overrides[field] = value
    if args.no_background:
        overrides["bg_enabled"] = False
    if args.no_query:
        overrides["query_enabled"] = False
    if args.detour_policy is not None:
        overrides["detour_policy"] = args.detour_policy
    if getattr(args, "faults", None):
        from repro.faults import load_fault_spec

        overrides["faults"] = load_fault_spec(args.faults)
    if getattr(args, "no_watchdog", False):
        overrides["watchdog"] = False
    if getattr(args, "controller_spec", None):
        from repro.control.spec import ControllerSpec

        with open(args.controller_spec) as fh:
            spec = ControllerSpec.from_json_text(fh.read())
        # Canonical JSON keeps the journal's scenario hash stable across
        # cosmetic reformattings of the same spec file.
        overrides["controller"] = True
        overrides["controller_spec"] = spec.to_json_text()
    if getattr(args, "controller", False):
        overrides["controller"] = True
    return base.with_overrides(**overrides)


def _options_from_args(args: argparse.Namespace) -> RunOptions:
    """The run options the observability flags ask for (each flag's
    ``dest`` is its RunOptions field)."""
    values = {name: getattr(args, name) for name in _OPTION_FIELDS
              if getattr(args, name, None) is not None}
    if getattr(args, "spans", False) and "span_sample_rate" not in values:
        from repro.obs.spans import DEFAULT_SPAN_RATE

        values["span_sample_rate"] = DEFAULT_SPAN_RATE
    return RunOptions(**values)


def _parse_seeds(text: str) -> tuple[int, ...]:
    return tuple(int(s) for s in text.split(",") if s.strip())


def _parse_values(text: str):
    values = []
    for raw in text.split(","):
        raw = raw.strip()
        if not raw:
            continue
        number = float(raw)
        values.append(int(number) if number == int(number) else number)
    return values


def _journal_from_args(args: argparse.Namespace):
    """Build the RunJournal (or None) requested on the command line."""
    if getattr(args, "resume", False) and not getattr(args, "journal_dir", None):
        raise SystemExit("error: --resume requires --journal-dir")
    if getattr(args, "journal_dir", None):
        return RunJournal(args.journal_dir)
    return None


def _exit_code(telemetry: RunTelemetry) -> int:
    if telemetry.interrupted:
        return EXIT_INTERRUPTED
    return 1 if telemetry.runs_failed else 0


def _cmd_run(args: argparse.Namespace) -> tuple[str, int]:
    scenario = _scenario_from_args(args)
    telemetry = RunTelemetry()
    journal = _journal_from_args(args)
    try:
        options = _options_from_args(args)
        result = run_pooled(
            scenario,
            seeds=_parse_seeds(args.seeds),
            workers=args.workers,
            run_timeout_s=args.run_timeout,
            max_retries=args.max_retries,
            telemetry=telemetry,
            journal=journal,
            resume=args.resume,
            options=options,
        )
    except ValueError as exc:  # options refused before any run started
        return f"error: {exc}", 1
    except RuntimeError as exc:
        # Every seed failed (e.g. a watchdog or invariant abort), or the
        # run was interrupted before any seed completed.
        return f"error: {exc}\n\n{telemetry.summary()}", _exit_code(telemetry) or 1
    rows = [result.row()]
    rows[0]["flows"] = f"{result.flows_completed}/{result.flows_total}"
    rows[0]["events"] = result.events
    rows[0]["wall_s"] = f"{result.wall_seconds:.1f}"
    if result.faults_applied:
        rows[0]["faults"] = sum(result.faults_applied.values())
    text = format_table(rows, title=f"scheme={scenario.scheme} (seeds={args.seeds})")
    if result.profile:
        from repro.obs.profiler import format_profile

        text += "\n\n" + format_profile(result.profile)
    if getattr(args, "out_dir", None):
        from repro.metrics.export import write_artifacts

        written = write_artifacts(result, args.out_dir, telemetry=telemetry,
                                  options=options)
        names = ", ".join(sorted(path.name for path in written.values()))
        text += f"\n\nartifacts -> {args.out_dir}: {names}"
    if telemetry.runs_failed or telemetry.interrupted or telemetry.cells_resumed:
        text += "\n\n" + telemetry.summary()
    return text, _exit_code(telemetry)


def _cmd_sweep(args: argparse.Namespace) -> tuple[str, int]:
    scenario = _scenario_from_args(args)
    schemes = tuple(s.strip() for s in args.schemes.split(","))
    try:
        for scheme in schemes:
            get_scheme(scheme)  # typos fail here, not halfway into the grid
    except ValueError as exc:
        return f"error: {exc}", 1
    telemetry = RunTelemetry()
    journal = _journal_from_args(args)
    try:
        results = run_sweep(
            scenario,
            args.param,
            _parse_values(args.values),
            schemes=schemes,
            seeds=_parse_seeds(args.seeds),
            workers=args.workers,
            run_timeout_s=args.run_timeout,
            max_retries=args.max_retries,
            telemetry=telemetry,
            journal=journal,
            resume=args.resume,
            options=_options_from_args(args),
        )
    except ValueError as exc:  # options refused before any run started
        return f"error: {exc}", 1
    table = format_sweep(results, args.param, title=f"sweep over {args.param}")
    return table + "\n\n" + telemetry.summary(), _exit_code(telemetry)


def _cmd_replay(args: argparse.Namespace) -> tuple[str, int]:
    """Re-execute a journaled failure from its replay bundle alone.

    Exit code 0 when the recorded abort reproduces (same exception class),
    1 when the run completes or fails differently.  Bundles for
    non-deterministic failures (wall-clock timeouts, worker crashes) carry
    no expected exception; replaying them just reruns the scenario and
    reports the outcome.
    """
    bundle = load_replay_bundle(args.bundle)
    scenario = scenario_from_json_dict(bundle["scenario"])
    expect = bundle.get("expect_exception")
    lines = [
        f"replaying {bundle['key']} (scenario hash {bundle['hash'][:12]}…, "
        f"seed {bundle.get('seed')})",
        f"recorded failure: {bundle['reason']} after {len(bundle.get('attempts', []))} attempt(s)",
    ]
    try:
        result = run_scenario(scenario)
    except Exception as exc:  # noqa: BLE001 - replay reports, never propagates
        got = type(exc).__name__
        if expect and got == expect:
            lines.append(f"reproduced {got}: {exc}")
            return "\n".join(lines), 0
        lines.append(f"failed differently: expected {expect or 'completion'}, got {got}: {exc}")
        return "\n".join(lines), 1
    lines.append(
        f"run completed ({result.events} events, "
        f"{result.queries_completed}/{result.queries_started} queries)"
    )
    if expect:
        lines.append(f"did NOT reproduce the recorded {expect}")
        return "\n".join(lines), 1
    lines.append("recorded failure was not a deterministic abort (timeout/crash); "
                 "completion here is consistent with a transient cause")
    return "\n".join(lines), 0


def _cmd_trace(args: argparse.Namespace) -> tuple[str, int]:
    """Summarize a structured trace, or dump records of one type."""
    import json

    from repro.obs.trace import format_trace_summary, read_trace, summarize_trace

    try:
        if args.record_type:
            lines = []
            for record in read_trace(args.file, kind=args.record_type):
                lines.append(json.dumps(record, sort_keys=True))
                if args.limit is not None and len(lines) >= args.limit:
                    break
            return "\n".join(lines) if lines else f"(no {args.record_type} records)", 0
        return format_trace_summary(summarize_trace(args.file)), 0
    except FileNotFoundError:
        return f"error: no such trace file: {args.file}", 1
    except ValueError as exc:
        return f"error: invalid trace: {exc}", 1


def _cmd_explain(args: argparse.Namespace) -> tuple[str, int]:
    """Forensics over sampled spans: attribution table + one odyssey."""
    from repro.obs.forensics import (
        attribute_flows,
        format_attribution,
        format_odyssey,
        load_spans,
        span_components,
    )

    try:
        spans = load_spans(args.target)
    except FileNotFoundError:
        return f"error: no such file or directory: {args.target}", 1
    except ValueError as exc:
        return f"error: invalid trace: {exc}", 1
    if not spans:
        return (f"no span records in {args.target} "
                "(sample spans with --spans / --span-sample-rate)"), 1
    rows = attribute_flows(spans)
    parts = [format_attribution(rows, limit=args.flow_limit)]
    # Pick the flow to narrate: an explicit --flow, else the slowest
    # (attribute_flows already ranks rows by span FCT, slowest first).
    flow_id = args.flow_id if args.flow_id is not None else rows[0]["flow"]
    candidates = [s for s in spans if s["flow"] == flow_id]
    if not candidates:
        parts.append(f"flow {flow_id}: no sampled spans")
        return "\n\n".join(parts), 1
    # Most-detoured span breaks ties by latest send: the storm survivor.
    odyssey = max(candidates,
                  key=lambda s: (span_components(s)["detour_hops"], s["t_send"]))
    parts.append(format_odyssey(odyssey))
    return "\n\n".join(parts), 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the job server until SIGTERM/SIGINT; exits 0 on a clean drain."""
    from repro.server import serve_main

    return serve_main(
        args.state_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_retries=args.max_retries,
        run_timeout_s=args.run_timeout,
        rate_per_s=args.rate_per_s,
        burst=args.burst,
        max_queued=args.max_queued,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        quantum=args.quantum,
        heartbeat_interval_s=args.heartbeat_interval,
        drain_timeout_s=args.drain_timeout,
    )


def _cmd_jobs(args: argparse.Namespace) -> tuple[str, int]:
    """List a journal directory: completed entries + failure bundles."""
    import os.path

    if not os.path.isdir(args.journal_dir):
        return f"error: no such journal directory: {args.journal_dir}", 1
    journal = RunJournal(args.journal_dir)
    sections = []

    def clip(rows):
        rows.sort(key=lambda r: r.pop("_mtime"), reverse=True)
        return rows[: args.limit] if args.limit is not None else rows

    if not args.failures:
        entries = []
        for entry in journal.iter_entries():
            scenario = entry.get("scenario") or {}
            result = entry.get("result") or {}
            entries.append({
                "key": entry.get("hash", "")[:12],
                "scenario": f"{scenario.get('name')}:{scenario.get('scheme')}",
                "seed": scenario.get("seed"),
                "status": "ok",
                "attempts": len(entry.get("attempts") or ()) + 1,
                "wall_s": f"{float(result.get('wall_seconds') or 0.0):.2f}",
                "events": result.get("events"),
                "fingerprint": (entry.get("fingerprint") or "-")[:12],
                "_mtime": entry.get("_mtime", 0.0),
            })
        if entries:
            sections.append(format_table(
                clip(entries), title=f"journaled runs ({len(entries)})"))
    bundles = []
    for bundle in journal.iter_bundles():
        attempts = bundle.get("attempts") or ()
        last_wall = attempts[-1].get("wall_s") if attempts else None
        bundles.append({
            "key": bundle.get("hash", "")[:12],
            "scenario": bundle.get("scenario_class")
            or f"{(bundle.get('scenario') or {}).get('name')}:"
               f"{(bundle.get('scenario') or {}).get('scheme')}",
            "seed": bundle.get("seed"),
            "status": "failed",
            "attempts": len(attempts),
            "wall_s": f"{float(last_wall or 0.0):.2f}",
            "reason": str(bundle.get("reason", ""))[:48],
            "_mtime": bundle.get("_mtime", 0.0),
        })
    if bundles:
        sections.append(format_table(
            clip(bundles), title=f"failure bundles ({len(bundles)})"))
    stats = journal.stats()
    sections.append(
        f"{stats['entries']} journaled, {stats['failure_bundles']} failed, "
        f"{stats['claims']} claimed in {args.journal_dir}"
    )
    return "\n\n".join(sections), 0


def _cmd_schemes() -> str:
    rows = []
    for name in available_schemes():
        spec = get_scheme(name)
        rows.append({
            "scheme": name,
            "queues": spec.discipline,
            "dibs": "on" if spec.dibs_enabled else "off",
            "description": spec.description,
        })
    defaults = [
        {"parameter": k, "paper": getattr(PAPER_DEFAULTS, k), "scaled": getattr(SCALED_DEFAULTS, k)}
        for k in ("k", "buffer_pkts", "ecn_threshold_pkts", "qps", "incast_degree",
                  "response_bytes", "bg_interarrival_s", "duration_s")
    ]
    return format_table(rows, title="schemes") + "\n\n" + format_table(defaults, title="defaults")


def _cmd_topo(args: argparse.Namespace) -> str:
    scenario = SCALED_DEFAULTS.with_overrides(topology=args.topology, k=args.k, seed=args.seed)
    topo = scenario.build_topology()
    rows = [{
        "name": topo.name,
        "hosts": len(topo.hosts),
        "switches": len(topo.switches),
        "links": len(topo.links),
        "diameter": topo.diameter(),
    }]
    return format_table(rows, title="topology")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    code = 0
    if args.command == "run":
        text, code = _cmd_run(args)
        print(text)
    elif args.command == "sweep":
        text, code = _cmd_sweep(args)
        print(text)
    elif args.command == "replay":
        text, code = _cmd_replay(args)
        print(text)
    elif args.command == "trace":
        text, code = _cmd_trace(args)
        print(text)
    elif args.command == "explain":
        text, code = _cmd_explain(args)
        print(text)
    elif args.command == "serve":
        code = _cmd_serve(args)
    elif args.command == "jobs":
        text, code = _cmd_jobs(args)
        print(text)
    elif args.command == "schemes":
        print(_cmd_schemes())
    elif args.command == "topo":
        print(_cmd_topo(args))
    else:  # pragma: no cover - argparse enforces choices
        return 2
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
