"""Parallel sweep execution: fan (value x scheme x seed) runs across processes.

The sweep grids behind Figures 7–16 are embarrassingly parallel — every
(parameter value, scheme, seed) cell is an independent simulation.  This
module fans those runs out over worker processes while preserving the exact
semantics of the serial path:

* **Determinism** — every run is keyed; per-cell results are merged in seed
  order by :func:`repro.experiments.runner.merge_results`, the same pooling
  the serial ``run_pooled`` uses.  Same seeds ⇒ bit-identical pooled
  percentiles and counters, independent of worker count or completion order.
* **Isolation** — runs execute in worker processes, so a crashing or
  wedged simulation cannot take the sweep down.  Up to ``workers``
  long-lived processes each run one cell at a time; a worker serves
  again only after a clean result, and one whose run raised, timed out
  or crashed is replaced.  Crashed, raising, and timed-out runs are
  settled by the shared policy in :mod:`repro.experiments.settle`
  (retries with deterministic backoff and ×1.5 timeout escalation) and
  recorded in :class:`RunTelemetry` instead of raising.
* **Durability** — with a :class:`~repro.experiments.journal.RunJournal`
  attached, every completed cell is checkpointed atomically the moment it
  settles, ``resume=True`` skips already-journaled cells, and a permanent
  failure dumps a self-contained replay bundle.
* **Graceful shutdown** — SIGINT/SIGTERM drains in-flight results, flushes
  them to the journal, terminates and joins every worker (no orphans), and
  returns the partial results with ``telemetry.interrupted`` set so
  callers can distinguish "interrupted" from "failed".
* **One loop, two pools** — :class:`WorkerPool` hands runs to its
  worker processes one at a time and reports settlements (ok / error /
  timeout / crash) from :meth:`WorkerPool.poll`; :class:`InlinePool` is
  a pool of one in-process worker with the same surface.  ``workers=1``,
  or a platform whose multiprocessing offers neither ``fork`` nor
  ``spawn``, drives the inline pool through the same loop, with identical
  results and the same telemetry shape.  ``repro serve`` (:mod:`repro.server.scheduler`)
  drives a :class:`WorkerPool` indefinitely as a job server.

Scenarios cross the process boundary as plain dicts (``dataclasses.asdict``
of the frozen :class:`~repro.experiments.scenarios.Scenario` built via
``with_overrides``) down the serving worker's pipe, next to the pool's
:class:`~repro.experiments.runner.RunOptions` as a dict, and results come back
as plain dicts (:func:`~repro.experiments.runner.result_to_dict`),
rehydrated by the parent, so the wire protocol works under both start
methods.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import time
import traceback as traceback_mod
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.runner import (
    NO_OPTIONS,
    ExperimentResult,
    RunOptions,
    merge_results,
    result_from_dict,
    result_to_dict,
    run_scenario,
)
from repro.experiments.scenarios import Scenario
from repro.experiments.settle import Cell, Settler

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.journal import RunJournal
    from repro.obs.heartbeat import ExecutorHeartbeat

__all__ = [
    "RunRequest",
    "RunFailure",
    "RunProgress",
    "RunTelemetry",
    "Settlement",
    "InlinePool",
    "WorkerPool",
    "execute_runs",
    "run_grid",
    "default_workers",
]

ProgressHook = Callable[["RunProgress"], None]

# How long an interrupted batch keeps collecting the results of the runs
# still in flight before it stops their workers.
_SHUTDOWN_DRAIN_S = 0.25
_POLL_S = 0.05
# How often an idle worker checks that its parent is still alive.
_PARENT_CHECK_S = 1.0


def default_workers() -> int:
    """A sensible default worker count: all cores but one, at least 1."""
    return max(1, (os.cpu_count() or 2) - 1)


# ----------------------------------------------------------------------
# protocol records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunRequest:
    """One unit of work: a fully specified scenario plus a result key."""

    key: Hashable
    scenario: Scenario


@dataclass
class RunFailure:
    """A run that exhausted its retry budget."""

    key: Hashable
    attempts: int
    reason: str
    bundle: Optional[str] = None  # replay-bundle path, when a journal is attached

    def as_dict(self) -> dict:
        return {
            "key": str(self.key),
            "attempts": self.attempts,
            "reason": self.reason,
            "bundle": self.bundle,
        }


@dataclass
class RunProgress:
    """Snapshot handed to the progress hook each time a run settles."""

    key: Hashable
    status: str  # "ok" | "retry" | "failed" | "resumed"
    attempt: int
    completed: int
    total: int
    wall_seconds: float
    events: int


@dataclass
class RunTelemetry:
    """Aggregate execution telemetry for one sweep/pool invocation.

    ``wall_seconds`` is executor wall-clock; ``run_seconds`` is the sum of
    per-run wall time (≈ CPU time claimed across workers), so their ratio
    is the achieved parallel speedup.
    """

    workers: int = 1
    mode: str = "serial"  # "serial" | "parallel"
    runs_total: int = 0
    runs_completed: int = 0
    runs_failed: int = 0
    retries: int = 0
    events_total: int = 0
    wall_seconds: float = 0.0
    run_seconds: float = 0.0
    per_run_wall: Dict[str, float] = field(default_factory=dict)
    failure_counts: Dict[str, int] = field(default_factory=dict)
    failures: list = field(default_factory=list)
    # Robustness accounting (journal / backoff / shutdown).
    backoff_waits: int = 0
    backoff_total_s: float = 0.0
    timeout_escalations: int = 0
    interrupted: bool = False
    cells_resumed: int = 0
    cells_journaled: int = 0

    # ------------------------------------------------------------------
    @property
    def events_per_second(self) -> float:
        """Simulator events processed per executor wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.events_total / self.wall_seconds

    @property
    def speedup(self) -> float:
        """Achieved run-time compression vs strictly serial execution."""
        if self.wall_seconds <= 0:
            return 1.0
        return self.run_seconds / self.wall_seconds

    # ------------------------------------------------------------------
    def record_success(self, key: Hashable, wall: float, events: int) -> None:
        self.runs_completed += 1
        self.events_total += events
        self.run_seconds += wall
        self.per_run_wall[str(key)] = wall

    def record_retry(self, reason: str, wall: float, backoff_s: float = 0.0) -> None:
        self.retries += 1
        self.run_seconds += wall
        self.failure_counts[reason] = self.failure_counts.get(reason, 0) + 1
        if backoff_s > 0:
            self.backoff_waits += 1
            self.backoff_total_s += backoff_s

    def record_failure(self, key: Hashable, attempts: int, reason: str, wall: float,
                       bundle: Optional[str] = None) -> None:
        self.runs_failed += 1
        self.run_seconds += wall
        self.failure_counts[reason] = self.failure_counts.get(reason, 0) + 1
        self.failures.append(RunFailure(key=key, attempts=attempts, reason=reason, bundle=bundle))

    def record_resumed(self, key: Hashable) -> None:
        """A cell satisfied from the journal: completed without execution."""
        self.runs_completed += 1
        self.cells_resumed += 1

    def as_dict(self) -> dict:
        """Plain-builtin view for JSON export (see ``metrics.export``)."""
        return {
            "workers": self.workers,
            "mode": self.mode,
            "runs_total": self.runs_total,
            "runs_completed": self.runs_completed,
            "runs_failed": self.runs_failed,
            "retries": self.retries,
            "events_total": self.events_total,
            "events_per_second": self.events_per_second,
            "wall_seconds": self.wall_seconds,
            "run_seconds": self.run_seconds,
            "speedup": self.speedup,
            "per_run_wall": dict(self.per_run_wall),
            "failure_counts": dict(self.failure_counts),
            "failures": [f.as_dict() for f in self.failures],
            "backoff_waits": self.backoff_waits,
            "backoff_total_s": self.backoff_total_s,
            "timeout_escalations": self.timeout_escalations,
            "interrupted": self.interrupted,
            "cells_resumed": self.cells_resumed,
            "cells_journaled": self.cells_journaled,
        }

    def summary(self) -> str:
        """One-line human summary for CLI/bench footers."""
        line = (
            f"{self.runs_completed}/{self.runs_total} runs ok"
            f" ({self.mode}, workers={self.workers})"
            f" | {self.events_total} events @ {self.events_per_second:,.0f}/s"
            f" | wall {self.wall_seconds:.1f}s, speedup {self.speedup:.2f}x"
        )
        if self.runs_failed or self.retries:
            line += f" | retries {self.retries}, failed {self.runs_failed}"
        if self.backoff_waits:
            line += f" | backoff {self.backoff_waits} waits ({self.backoff_total_s:.2f}s)"
        if self.cells_resumed or self.cells_journaled:
            line += f" | journal: {self.cells_resumed} resumed, {self.cells_journaled} written"
        if self.interrupted:
            line += " | INTERRUPTED (partial results)"
        return line


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _run_request(scenario: Scenario, options: RunOptions) -> Tuple[str, object]:
    """Run one scenario: ``("ok", result)`` or ``("error", reason payload)``.

    Shared by the worker process and :class:`InlinePool`.  ``run_scenario``
    is looked up on this module at call time.
    """
    try:
        return "ok", run_scenario(scenario, options)
    except Exception as exc:  # noqa: BLE001 - settled by the caller's policy
        return "error", _error_payload(exc)


def _error_payload(exc: BaseException) -> dict:
    return {"reason": f"{type(exc).__name__}: {exc}", "traceback": traceback_mod.format_exc()}


def _serve_launches(conn) -> None:
    """The body of a worker process: run launches until told to stop.

    Each message on ``conn``, the worker's own pipe to the parent, is
    ``(launch_id, (scenario_dict, options_dict))``; every outcome — success or any
    exception — is sent back on the same pipe as ``(launch_id, status,
    payload)``, and an unreported death is how the parent recognizes a
    crash.  ``None`` on the pipe, or a parent that went away, ends the
    loop.  No pipe is shared: writers to a shared queue take turns under
    one lock, and a worker killed while holding it would leave every
    other worker unable to report.

    Workers ignore SIGINT: a Ctrl-C in the parent's terminal reaches the
    whole foreground process group, and shutdown is the parent's job — it
    drains finished results, then stops the workers.  SIGTERM is reset to
    its default: the parent forks workers while its own handler turns
    SIGTERM into ``KeyboardInterrupt`` (or, under ``repro serve``, into a
    wake-up of its event loop), and a worker that inherited it would
    survive ``terminate()``.
    """
    for signum, action in ((signal.SIGINT, signal.SIG_IGN), (signal.SIGTERM, signal.SIG_DFL)):
        try:
            signal.signal(signum, action)
        except (ValueError, OSError):  # pragma: no cover - exotic platform
            pass
    parent = os.getppid()
    while True:
        while not conn.poll(_PARENT_CHECK_S):
            if os.getppid() != parent:
                return  # orphaned: nobody will read a result
        try:
            message = conn.recv()
        except EOFError:  # the parent closed our pipe
            return
        if message is None:
            return
        launch_id, (scenario_dict, options_dict) = message
        try:
            status, payload = _run_request(Scenario(**scenario_dict),
                                           RunOptions(**options_dict))
            if status == "ok":
                payload = result_to_dict(payload, include_scenario=False)
        except BaseException as exc:  # noqa: BLE001 - the whole point is containment
            status, payload = "error", _error_payload(exc)
        try:
            conn.send((launch_id, status, payload))
        except OSError:  # the parent closed our pipe
            return


@dataclass
class _Worker:
    proc: object
    conn: object  # the parent's end of the worker's pipe


@dataclass
class _Launch:
    worker: _Worker
    request: RunRequest
    attempt: int
    started: float
    timeout_s: Optional[float]


def _mp_context():
    for method in ("fork", "spawn"):
        try:
            return multiprocessing.get_context(method)
        except ValueError:  # pragma: no cover - platform dependent
            continue
    return None  # pragma: no cover - no multiprocessing at all


# ----------------------------------------------------------------------
# persistent worker pool
# ----------------------------------------------------------------------
@dataclass
class Settlement:
    """One launch reaching a terminal state, as reported by ``WorkerPool.poll``.

    ``status`` is one of:

    * ``"ok"``      — ``payload`` is the worker's ``result_to_dict`` output,
      or the live result from :class:`InlinePool` (see :attr:`result`);
    * ``"error"``   — the worker raised; ``payload`` carries ``reason`` and
      ``traceback``;
    * ``"timeout"`` — the launch exceeded its ``timeout_s`` and its worker
      was terminated (``exitcode`` set);
    * ``"crash"``   — the worker died without reporting (``exitcode`` set).
    """

    launch_id: int
    request: RunRequest
    attempt: int
    status: str
    payload: object  # see status above; None for timeout and crash
    wall: float
    timeout_s: Optional[float]
    exitcode: Optional[int] = None

    @property
    def reason(self) -> str:
        """Canonical failure-reason string (matches the historical executor)."""
        if self.status == "ok":
            return ""
        if self.status == "timeout":
            return f"timeout after {self.timeout_s:g}s"
        if self.status == "crash":
            return f"worker crashed (exit code {self.exitcode})"
        if isinstance(self.payload, dict):
            return str(self.payload.get("reason", "unknown error"))
        return str(self.payload)

    @property
    def traceback(self) -> Optional[str]:
        if isinstance(self.payload, dict):
            return self.payload.get("traceback")
        return None

    @property
    def result(self) -> ExperimentResult:
        """An ``ok`` settlement's result, rehydrated with the request's scenario."""
        if isinstance(self.payload, ExperimentResult):
            return self.payload
        return result_from_dict(self.payload, scenario=self.request.scenario)


class WorkerPool:
    """A pool of up to ``workers`` long-lived simulation worker processes.

    The pool owns the multiprocessing context, the worker processes and
    their pipes, and the table of in-flight launches.  Callers
    :meth:`launch` requests while :attr:`has_slot` and harvest
    :class:`Settlement` records from :meth:`poll`; the settlement policy
    lives in :mod:`repro.experiments.settle` and launch order in the caller
    (the batch executor below, or the ``repro serve`` scheduler).

    A worker is forked when a launch finds none idle, so the pool holds no
    more processes than it has had launches in flight at once, and what
    this process changed before the pool's first launch (a monkeypatch, an
    environment variable) reaches every worker.  Each worker takes one
    launch at a time on its own pipe and answers on the same pipe, so a
    worker killed mid-answer loses only its own launch; results do not
    depend on which worker ran a cell, or on what it ran before
    (:class:`InlinePool` runs every cell in one process).
    A worker goes back to the idle set only after an ``ok`` settlement: one
    whose run raised is stopped with a sentinel and joined, one that timed
    out is terminated, one that died is joined, and the next launch forks
    a replacement.  An idle worker that died is replaced at the next
    launch without a settlement.

    Crash detection and per-launch timeouts are handled inside ``poll``:
    a launch past its deadline has its worker terminated and settles as
    ``timeout``; a worker that exits without reporting (its pipe closes
    with no answer in it) settles its launch as ``crash``.

    Every launch runs under the pool's ``options`` (how runs are watched).
    """

    def __init__(self, workers: int, ctx=None, options: RunOptions = NO_OPTIONS) -> None:
        self.workers = max(1, int(workers))
        self.options = options
        self.ctx = ctx if ctx is not None else _mp_context()
        if self.ctx is None:  # pragma: no cover - platform dependent
            raise RuntimeError("multiprocessing is unavailable on this platform")
        self._running: Dict[int, _Launch] = {}
        self._idle: List[_Worker] = []
        self._next_launch_id = 0
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def active(self) -> int:
        return len(self._running)

    @property
    def has_slot(self) -> bool:
        return len(self._running) < self.workers

    def running_info(self) -> List[dict]:
        """Status rows for heartbeats / ``/readyz``: key, attempt, wall, and
        the pid of the worker serving the launch."""
        now = time.perf_counter()
        return [
            {
                "launch_id": launch_id,
                "key": str(entry.request.key),
                "attempt": entry.attempt,
                "wall_s": round(now - entry.started, 2),
                "pid": entry.worker.proc.pid,
            }
            for launch_id, entry in self._running.items()
        ]

    def pids(self) -> List[int]:
        """Pids of the workers serving in-flight launches."""
        return [entry.worker.proc.pid for entry in self._running.values()]

    def pid_of(self, launch_id: int) -> Optional[int]:
        entry = self._running.get(launch_id)
        return entry.worker.proc.pid if entry is not None else None

    # ------------------------------------------------------------------
    def _start_worker(self) -> _Worker:
        conn, child_conn = self.ctx.Pipe()
        proc = self.ctx.Process(target=_serve_launches, args=(child_conn,), daemon=True)
        proc.start()
        child_conn.close()  # the worker holds its own end
        return _Worker(proc, conn)

    @staticmethod
    def _send(worker: _Worker, message) -> bool:
        try:
            worker.conn.send(message)
            return True
        except OSError:  # the worker is gone
            return False

    @staticmethod
    def _reap(worker: _Worker, join_timeout_s: float = 5.0) -> None:
        """Join a worker that was told to stop or has died, killing it if it
        is still alive after ``join_timeout_s``."""
        worker.proc.join(join_timeout_s)
        if worker.proc.is_alive():
            worker.proc.kill()
            worker.proc.join()
        worker.conn.close()

    def launch(self, request: RunRequest, attempt: int = 1,
               timeout_s: Optional[float] = None) -> int:
        """Hand ``request`` to an idle worker, starting one if none is idle;
        returns the launch id."""
        if self._closed:
            raise RuntimeError("pool is shut down")
        launch_id = self._next_launch_id
        self._next_launch_id += 1
        message = (launch_id, (asdict(request.scenario), asdict(self.options)))
        while self._idle:
            worker = self._idle.pop()
            if worker.proc.is_alive() and self._send(worker, message):
                break
            self._reap(worker)  # died while idle: replaced, not settled
        else:
            worker = self._start_worker()
            self._send(worker, message)  # if it died already, poll settles a crash
        self._running[launch_id] = _Launch(worker, request, attempt,
                                           time.perf_counter(), timeout_s)
        return launch_id

    def kill(self, launch_id: int) -> bool:
        """Forcibly terminate a running launch's worker (it settles as a crash)."""
        entry = self._running.get(launch_id)
        if entry is None or not entry.worker.proc.is_alive():
            return False
        entry.worker.proc.terminate()
        return True

    # ------------------------------------------------------------------
    def _receive(self, launch_id: int, settled: List[Settlement]) -> None:
        """Settle a launch whose pipe is readable or whose worker died:
        from the worker's answer, or as a crash when the pipe holds none."""
        entry = self._running.pop(launch_id)
        worker = entry.worker
        try:
            message = worker.conn.recv() if worker.conn.poll() else None
        except (EOFError, OSError):  # closed before (or while) answering
            message = None
        wall = time.perf_counter() - entry.started
        if message is None:
            self._reap(worker)
            settled.append(Settlement(launch_id, entry.request, entry.attempt, "crash", None,
                                      wall, entry.timeout_s, worker.proc.exitcode))
            return
        _, status, payload = message
        if status == "ok":
            self._idle.append(worker)
        else:  # retire it: its sentinel, then a join
            self._send(worker, None)
            self._reap(worker)
        settled.append(Settlement(launch_id, entry.request, entry.attempt,
                                  "ok" if status == "ok" else "error",
                                  payload, wall, entry.timeout_s))

    def poll(self, block_s: float = 0.0, window: bool = False) -> List[Settlement]:
        """Harvest settlements: completions, timeouts, and crashes.

        Blocks up to ``block_s`` for the first answer or closed pipe
        (``window=True`` instead keeps collecting for the whole interval —
        used while shutting down, when completeness beats latency), then
        sweeps the in-flight table for expired timeouts and dead workers.
        """
        settled: List[Settlement] = []
        deadline = time.perf_counter() + block_s
        while True:
            pipes = {entry.worker.conn: launch_id for launch_id, entry in self._running.items()}
            remaining = max(0.0, deadline - time.perf_counter())
            if not pipes:
                time.sleep(remaining)
                break
            for conn in multiprocessing.connection.wait(list(pipes), timeout=remaining):
                self._receive(pipes[conn], settled)
            if time.perf_counter() >= deadline or (settled and not window):
                break
        now = time.perf_counter()
        for launch_id, entry in list(self._running.items()):
            worker = entry.worker
            if entry.timeout_s is not None and now - entry.started > entry.timeout_s:
                worker.proc.terminate()
                self._reap(worker)
                del self._running[launch_id]
                settled.append(Settlement(launch_id, entry.request, entry.attempt,
                                          "timeout", None, now - entry.started,
                                          entry.timeout_s, worker.proc.exitcode))
            elif not worker.proc.is_alive():
                self._receive(launch_id, settled)
        return settled

    # ------------------------------------------------------------------
    def shutdown(self, join_timeout_s: float = 5.0) -> None:
        """Stop every worker — terminate the busy ones, send the idle ones
        their sentinel — and join them all, closing their pipes."""
        if self._closed:
            return
        busy = [entry.worker for entry in self._running.values()]
        for worker in busy:
            if worker.proc.is_alive():
                worker.proc.terminate()
        for worker in self._idle:
            self._send(worker, None)
        for worker in busy + self._idle:
            self._reap(worker, join_timeout_s)
        self._running.clear()
        self._idle.clear()
        self._closed = True


class InlinePool:
    """A pool of one in-process worker: the serial executor.

    :meth:`launch` queues the request and the next :meth:`poll` runs it to
    completion in this process, so an ``ok`` settlement carries the live
    :class:`ExperimentResult` (with its ``collector``).  There is no
    isolation: the pool enforces no timeout (settlements report
    ``timeout_s=None``), and a ``KeyboardInterrupt`` inside the run
    propagates out of ``poll`` with the launch dropped.
    """

    workers = 1

    def __init__(self, options: RunOptions = NO_OPTIONS) -> None:
        self.options = options
        self._queued: Optional[Tuple[int, RunRequest, int]] = None
        self._next_launch_id = 0

    @property
    def active(self) -> int:
        return 0 if self._queued is None else 1

    @property
    def has_slot(self) -> bool:
        return self._queued is None

    def running_info(self) -> List[dict]:
        if self._queued is None:
            return []
        launch_id, request, attempt = self._queued
        return [{"launch_id": launch_id, "key": str(request.key), "attempt": attempt,
                 "wall_s": 0.0, "pid": os.getpid()}]

    def launch(self, request: RunRequest, attempt: int = 1,
               timeout_s: Optional[float] = None) -> int:
        if self._queued is not None:
            raise RuntimeError("the inline pool runs one launch at a time")
        launch_id = self._next_launch_id
        self._next_launch_id += 1
        self._queued = (launch_id, request, attempt)
        return launch_id

    def poll(self, block_s: float = 0.0, window: bool = False) -> List[Settlement]:
        """Run the queued launch, or wait ``block_s`` when there is none."""
        if self._queued is None:
            if block_s > 0:
                time.sleep(block_s)
            return []
        (launch_id, request, attempt), self._queued = self._queued, None
        started = time.perf_counter()
        status, payload = _run_request(request.scenario, self.options)
        return [Settlement(launch_id, request, attempt, status, payload,
                           time.perf_counter() - started, None)]

    def shutdown(self, join_timeout_s: float = 5.0) -> None:
        self._queued = None


# ----------------------------------------------------------------------
# executor
# ----------------------------------------------------------------------
def execute_runs(
    requests: Sequence[RunRequest],
    workers: int = 1,
    timeout_s: Optional[float] = None,
    max_retries: int = 1,
    progress: Optional[ProgressHook] = None,
    telemetry: Optional[RunTelemetry] = None,
    journal: Optional["RunJournal"] = None,
    resume: bool = False,
    heartbeat: Optional["ExecutorHeartbeat"] = None,
    options: RunOptions = NO_OPTIONS,
) -> Dict[Hashable, ExperimentResult]:
    """Execute every request, serially or across worker processes.

    ``heartbeat`` (an :class:`repro.obs.heartbeat.ExecutorHeartbeat`)
    emits periodic JSONL progress records — completed/total counts, the
    per-worker in-flight table, and ``finished``, the fingerprint of each
    cell that settled ``ok`` since the previous record — from the
    executor's poll loop, plus one last record when the batch ends, making
    a long ``--workers N`` sweep legible while it runs.

    Returns results keyed by ``request.key``; permanently failed runs are
    *absent* from the mapping and recorded in ``telemetry.failures``.  A run
    is retried ``max_retries`` times after its first failure (crash, raised
    exception, or ``timeout_s`` exceeded) before being declared failed; each
    retry waits a capped, deterministically jittered exponential backoff and
    runs under a timeout escalated ×1.5 per attempt.  Fresh work launches
    in request order; a retry queues behind it.

    With ``journal`` attached every settled run is checkpointed atomically
    (successes as journal entries, permanent failures as replay bundles);
    ``resume=True`` additionally satisfies already-journaled requests from
    disk without re-running them, and takes a journal claim per cell so
    concurrent resumers execute each cell once.

    A SIGINT/SIGTERM during execution stops cleanly: in-flight completions
    are drained and journaled, workers are terminated and joined, and the
    partial result mapping is returned with ``telemetry.interrupted`` set.

    Every run executes under ``options`` (:class:`RunOptions`).  A request
    satisfied from the journal is not run, so it brings no profile, trace,
    spans or heartbeat of its own.
    """
    if telemetry is None:
        telemetry = RunTelemetry()
    telemetry.runs_total = len(requests)
    started = time.perf_counter()
    ctx = _mp_context() if workers > 1 else None
    if ctx is None:
        telemetry.mode = "serial"
        pool = InlinePool(options)
    else:
        telemetry.mode = "parallel"
        pool = WorkerPool(workers, ctx=ctx, options=options)
    telemetry.workers = pool.workers
    settler = Settler(journal, max_retries, use_claims=resume)
    with _interrupt_on_sigterm():
        results = _drive(pool, settler, requests, timeout_s, progress, telemetry, heartbeat)
    telemetry.wall_seconds = time.perf_counter() - started
    return results


def _notify(progress: Optional[ProgressHook], event: RunProgress) -> None:
    if progress is not None:
        progress(event)


class _interrupt_on_sigterm:
    """Convert SIGTERM to KeyboardInterrupt for the duration of a block.

    Lets one graceful-shutdown path serve both Ctrl-C and a supervisor's
    TERM.  No-op when not in the main thread (where ``signal.signal`` is
    unavailable) or on platforms without SIGTERM.
    """

    def __enter__(self):
        self._previous = None
        if threading.current_thread() is threading.main_thread():
            try:
                self._previous = signal.signal(signal.SIGTERM, self._raise)
            except (ValueError, OSError, AttributeError):  # pragma: no cover
                self._previous = None
        return self

    def __exit__(self, *exc_info):
        if self._previous is not None:
            signal.signal(signal.SIGTERM, self._previous)
        return False

    @staticmethod
    def _raise(signum, frame):
        raise KeyboardInterrupt(f"signal {signum}")


def _drive(pool, settler: Settler, requests, timeout_s, progress, telemetry,
           heartbeat) -> Dict[Hashable, ExperimentResult]:
    """The batch loop: FIFO launches into ``pool`` until every cell settles."""
    results: Dict[Hashable, ExperimentResult] = {}
    total = len(requests)
    # Cells waiting to launch: fresh work in request order, then retries and
    # claim-parked cells, each due at its ``ready_at``.
    pending: deque = deque(Cell(request, timeout_s) for request in requests)
    launched: Dict[int, Cell] = {}

    def pop_ready(now: float) -> Optional[Cell]:
        for index, cell in enumerate(pending):
            if cell.ready_at <= now:
                del pending[index]
                return cell
        return None

    # Fingerprints of the cells that settled ok since the last heartbeat
    # record, by key; kept only when a heartbeat is attached.
    finished: Dict[str, str] = {}

    def beat(emit) -> None:
        beats = heartbeat.beats
        emit(completed=len(results), total=total,
             running=[{"key": row["key"], "attempt": row["attempt"],
                       "wall_s": row["wall_s"]} for row in pool.running_info()],
             pending=len(pending), extra={"finished": finished})
        if heartbeat.beats != beats:
            finished.clear()

    def report(key, status, attempt, wall, events) -> None:
        _notify(progress, RunProgress(key, status, attempt, len(results), total, wall, events))

    def handle(settlement: Settlement) -> None:
        cell = launched.pop(settlement.launch_id)
        key, wall = cell.request.key, settlement.wall
        verdict = settler.settle(cell, settlement)
        if verdict.action == "ok":
            results[key] = verdict.result
            telemetry.record_success(key, wall, verdict.result.events)
            if settler.journal is not None:
                telemetry.cells_journaled += 1
            if heartbeat is not None:
                finished[str(key)] = verdict.result.fingerprint
            report(key, "ok", settlement.attempt, wall, verdict.result.events)
        elif verdict.action == "retry":
            telemetry.record_retry(verdict.reason, wall, verdict.backoff_s)
            telemetry.timeout_escalations += verdict.escalated
            pending.append(cell)
            report(key, "retry", settlement.attempt, wall, 0)
        else:
            telemetry.record_failure(key, settlement.attempt, verdict.reason, wall,
                                     verdict.bundle)
            report(key, "failed", settlement.attempt, wall, 0)

    def fill() -> None:
        now = time.monotonic()
        while pool.has_slot:
            cell = pop_ready(now)
            if cell is None:
                break
            verdict = settler.acquire(cell)
            if verdict.action == "launch":
                launched[pool.launch(cell.request, cell.attempt, cell.timeout_s)] = cell
            elif verdict.action == "resumed":
                results[cell.request.key] = verdict.result
                telemetry.record_resumed(cell.request.key)
                report(cell.request.key, "resumed", 0, 0.0, verdict.result.events)
            else:  # parked behind a peer's claim
                pending.append(cell)

    # Settlements taken from the pool and not yet handled.
    settled: deque = deque()
    try:
        while pending or pool.active:
            fill()
            if heartbeat is not None:
                beat(heartbeat.maybe_emit)
            settled.extend(pool.poll(block_s=_POLL_S))
            if settled:
                # Relaunch into the slots this poll freed before handling
                # (and journaling) its settlements, so the workers that
                # just finished do not wait on the journal writes.
                fill()
            while settled:
                handle(settled.popleft())
    except KeyboardInterrupt:
        # Graceful shutdown: collect whatever already finished (journaling
        # it as usual), then terminate the stragglers below.  The partial
        # results are returned to the caller; exit-code policy is theirs.
        telemetry.interrupted = True
        try:
            if pool.active:
                settled.extend(pool.poll(block_s=_SHUTDOWN_DRAIN_S, window=True))
            while settled:
                handle(settled.popleft())
        except (KeyboardInterrupt, Exception):  # noqa: BLE001 - already shutting down
            pass
    finally:
        pool.shutdown()
        # Release claims for cells we never finished so a restart (ours or
        # a peer's) is not blocked until the claim goes stale.
        settler.release_all()
    if heartbeat is not None:
        beat(heartbeat.emit)  # the last record: every remaining fingerprint
    return results


# ----------------------------------------------------------------------
# grid-level helpers
# ----------------------------------------------------------------------
def run_grid(
    cells: Mapping[Hashable, Scenario],
    seeds: Sequence[int] = (0,),
    options: RunOptions = NO_OPTIONS,
    **execute_kwargs,
) -> Dict[Hashable, ExperimentResult]:
    """Run every (cell, seed) combination and pool seeds per cell.

    ``cells`` maps a caller-chosen key to the cell's base scenario.  Fan-out
    happens at (cell, seed) granularity — the finest unit — and each cell's
    per-seed results are merged in ``seeds`` order, so the pooled output is
    identical to calling the serial ``run_pooled`` per cell.  Cells whose
    every seed failed are absent from the returned mapping (see
    ``telemetry.failures``).  The other keyword arguments (``workers``,
    ``timeout_s``, ``max_retries``, ``progress``, ``telemetry``,
    ``journal``, ``resume``, ``heartbeat``) are :func:`execute_runs`'.

    With ``journal``/``resume``, per-(cell, seed) results are checkpointed
    and reloaded before the merge — the merge itself always runs over the
    full seed-ordered set, so a resumed grid is bit-identical to an
    uninterrupted one.  ``options`` that would run several seeds into one
    trace file raise ``ValueError`` before any run starts.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    options.check_seeds(seeds)
    requests = [
        RunRequest(key=(cell_key, seed), scenario=scenario.with_overrides(seed=seed))
        for cell_key, scenario in cells.items()
        for seed in seeds
    ]
    raw = execute_runs(requests, options=options, **execute_kwargs)
    merged: Dict[Hashable, ExperimentResult] = {}
    for cell_key, scenario in cells.items():
        per_seed = [raw[(cell_key, seed)] for seed in seeds if (cell_key, seed) in raw]
        if per_seed:
            merged[cell_key] = merge_results(scenario, per_seed)
    return merged

