"""Progress heartbeats: periodic JSONL status records while work runs.

A multi-hour sweep used to be a black box between launch and the final
table.  Two emitters fix that, sharing one writer and one line format:

* :class:`SimHeartbeat` rides a scheduler run-loop hook
  (:meth:`repro.sim.engine.Scheduler.add_hook`): every few thousand
  processed events it checks the wall clock and, once the configured
  interval has elapsed, appends a record with events/sec, the sim-time to
  wall-time rate, and the pending-event depth.  Because it is a hook, not
  a scheduled event, it cannot perturb the event calendar — results stay
  bit-identical with heartbeats on or off.
* :class:`ExecutorHeartbeat` is called from the sweep executor's poll loop
  and reports completed/total runs plus the status of every in-flight
  worker; the batch executor adds ``finished``, the fingerprint of each
  cell that settled ``ok`` since its previous record, and writes one last
  record when the batch ends.

Records are single JSON objects per line, appended (never truncated) so
several worker processes can share one file — every record carries ``pid``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import IO, Optional, Union

__all__ = ["HeartbeatWriter", "SimHeartbeat", "ExecutorHeartbeat"]

# How often (in processed events) the sim hook rechecks the wall clock.
# Coarse on purpose: ~2k events between clock reads keeps the hook cost
# far below the per-event work while still bounding heartbeat jitter to a
# fraction of a second at realistic event rates.
_CHECK_EVERY_EVENTS = 2048


class HeartbeatWriter:
    """Append-mode JSONL sink shared by the heartbeat emitters.

    ``path=None`` writes to stderr (handy for interactive runs); a path is
    opened in append mode and each record is flushed immediately so a tail
    of the file is always live.
    """

    def __init__(self, path: Optional[Union[str, os.PathLike]] = None) -> None:
        self.path = str(path) if path is not None else None
        self._fh: Optional[IO[str]] = None
        if self.path is not None:
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._fh = open(self.path, "a")

    def emit(self, record: dict) -> None:
        line = json.dumps(record, separators=(",", ":"), default=str)
        if self._fh is not None:
            self._fh.write(line + "\n")
            self._fh.flush()
        else:
            print(line, file=sys.stderr, flush=True)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class SimHeartbeat:
    """Periodic progress records from inside a running simulation."""

    def __init__(
        self,
        writer: HeartbeatWriter,
        interval_s: float,
        label: Optional[str] = None,
        seed: Optional[int] = None,
        controller=None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("heartbeat interval must be positive")
        self.writer = writer
        self.interval_s = interval_s
        self.label = label
        self.seed = seed
        # Optional repro.control.RuntimeController: when attached, every
        # record carries the live knob values and breaker states, so a tail
        # of the heartbeat file shows what the control loop is doing.
        self.controller = controller
        self._handle = None
        self._scheduler = None
        self._started_wall = 0.0
        self._last_wall = 0.0
        self._last_events = 0
        self._last_sim = 0.0
        self.beats = 0

    def install(self, scheduler) -> "SimHeartbeat":
        now = time.perf_counter()
        self._scheduler = scheduler
        self._started_wall = now
        self._last_wall = now
        self._last_events = scheduler.events_processed
        self._last_sim = scheduler.now
        self._handle = scheduler.add_hook(self._tick, _CHECK_EVERY_EVENTS)
        return self

    def uninstall(self) -> None:
        if self._scheduler is not None and self._handle is not None:
            self._scheduler.remove_hook(self._handle)
            self._handle = None

    # ------------------------------------------------------------------
    def _tick(self, scheduler) -> None:
        now = time.perf_counter()
        if now - self._last_wall < self.interval_s:
            return
        self._emit(scheduler, now, final=False)

    def finish(self) -> None:
        """Emit one closing record (even if the interval never elapsed),
        detach from the scheduler and close the writer."""
        if self._scheduler is not None:
            self._emit(self._scheduler, time.perf_counter(), final=True)
        self.uninstall()
        self.writer.close()

    def contribute(self, result) -> None:
        """Records go to the writer; the result carries nothing of them."""

    def _emit(self, scheduler, now: float, final: bool) -> None:
        dt = now - self._last_wall
        events = scheduler.events_processed
        record = {
            "type": "sim",
            "pid": os.getpid(),
            "t_wall_s": round(now - self._started_wall, 6),
            "t_sim_s": scheduler.now,
            "events": events,
            "pending": scheduler.pending,
            "events_per_s": round((events - self._last_events) / dt, 1) if dt > 0 else 0.0,
            "sim_rate": round((scheduler.now - self._last_sim) / dt, 6) if dt > 0 else 0.0,
        }
        if self.label is not None:
            record["label"] = self.label
        if self.seed is not None:
            record["seed"] = self.seed
        if self.controller is not None:
            record["controller"] = self.controller.heartbeat_dict()
        if final:
            record["final"] = True
        self.writer.emit(record)
        self.beats += 1
        self._last_wall = now
        self._last_events = events
        self._last_sim = scheduler.now


class ExecutorHeartbeat:
    """Progress records from the sweep executor's poll loop.

    The executor calls :meth:`maybe_emit` on every poll iteration with the
    current in-flight table; a record is written once per ``interval_s``.
    """

    def __init__(self, writer: HeartbeatWriter, interval_s: float = 5.0) -> None:
        if interval_s <= 0:
            raise ValueError("heartbeat interval must be positive")
        self.writer = writer
        self.interval_s = interval_s
        self._started = time.perf_counter()
        self._last = self._started
        self.beats = 0

    def maybe_emit(self, completed: int, total: int, running: list[dict],
                   pending: int = 0, extra: Optional[dict] = None) -> None:
        now = time.perf_counter()
        if now - self._last < self.interval_s:
            return
        self.emit(completed, total, running, pending, now, extra=extra)

    def emit(self, completed: int, total: int, running: list[dict],
             pending: int = 0, now: Optional[float] = None,
             extra: Optional[dict] = None) -> None:
        now = time.perf_counter() if now is None else now
        record = {
            "type": "executor",
            "pid": os.getpid(),
            "t_wall_s": round(now - self._started, 6),
            "completed": completed,
            "total": total,
            "in_flight": len(running),
            "queued": pending,
            "workers": running,
        }
        if extra:
            # Caller-supplied context (e.g. ``repro serve`` pool saturation
            # and breaker states); reserved keys above win on collision.
            record.update({k: v for k, v in extra.items() if k not in record})
        self.writer.emit(record)
        self.beats += 1
        self._last = now
