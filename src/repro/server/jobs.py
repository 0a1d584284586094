"""Job records, the thread-safe job store, and the shutdown spool.

A *job* is one scenario submission flowing through ``repro serve``:

    queued ──► running ──► done
       │          │  └───► failed      (retry budget exhausted; bundle kept)
       │          └──────► queued      (transient failure, retry w/ backoff)
       ├────────► cancelled            (client DELETE while still queued)
       ├────────► done (cached=True)   (journal dedupe hit at submit time)
       └────────► spooled              (SIGTERM drain; replayed on restart)

``done``, ``failed``, and ``cancelled`` are terminal.  ``spooled`` is
terminal *for this process*: the job is persisted to ``spool.json`` and
re-enters as ``queued`` when a server restarts on the same state
directory, so a drain loses no accepted work.

The store is plain dict-under-lock — the HTTP threads and the scheduler
thread both touch it — and every mutation happens through the scheduler,
which owns state transitions.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.experiments.journal import scenario_class, scenario_from_json_dict, scenario_hash
from repro.experiments.runner import fingerprint
from repro.experiments.scenarios import Scenario

__all__ = [
    "SPOOL_VERSION",
    "TERMINAL_STATES",
    "Job",
    "JobStore",
    "read_spool",
    "write_spool",
]

SPOOL_VERSION = 1

TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})


@dataclass
class Job:
    """One submission and everything that happened to it."""

    id: str
    tenant: str
    priority: int
    scenario: Scenario
    key: str  # content hash (journal key) of the scenario
    state: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    attempt: int = 0  # attempts launched so far
    attempts: List[dict] = field(default_factory=list)  # failure history
    result: Optional[dict] = None  # result_to_dict payload (scenario omitted)
    error: Optional[str] = None
    bundle: Optional[str] = None  # replay-bundle path on permanent failure
    cached: bool = False  # satisfied from the journal without executing
    pid: Optional[int] = None  # worker pid while running (chaos tooling)

    @property
    def scenario_class(self) -> str:
        return scenario_class(self.scenario)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    # ------------------------------------------------------------------
    def view(self, full_result: bool = False) -> dict:
        """JSON view for the HTTP API.

        The default view keeps the result to headline numbers; the full
        ``result_to_dict`` payload (per-flow samples included) is behind
        ``full_result`` / the ``/jobs/<id>/result`` endpoint.
        """
        view = {
            "id": self.id,
            "tenant": self.tenant,
            "priority": self.priority,
            "state": self.state,
            "key": self.key,
            "scenario_class": self.scenario_class,
            "scheme": self.scenario.scheme,
            "seed": self.scenario.seed,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempt": self.attempt,
            "attempts": list(self.attempts),
            "cached": self.cached,
            "error": self.error,
            "bundle": self.bundle,
            "pid": self.pid,
        }
        if self.result is not None:
            summary = {
                name: self.result.get(name)
                for name in ("events", "wall_seconds", "flows_total",
                             "flows_completed", "queries_started",
                             "queries_completed")
            }
            summary["drops_total"] = sum((self.result.get("drops") or {}).values())
            summary["fingerprint"] = fingerprint(self.result)
            view["result"] = summary
            if full_result:
                view["result_full"] = self.result
        return view

    def spool_record(self) -> dict:
        """The restart-survivable essence of a not-yet-run job."""
        return {
            "id": self.id,
            "tenant": self.tenant,
            "priority": self.priority,
            "scenario": asdict(self.scenario),
            "submitted_at": self.submitted_at,
        }


class JobStore:
    """Thread-safe registry of every job this server has seen."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._jobs: Dict[str, Job] = {}
        self._active_by_key: Dict[str, str] = {}  # content key -> live job id
        self._seq = 0

    # ------------------------------------------------------------------
    def create(self, tenant: str, priority: int, scenario: Scenario,
               job_id: Optional[str] = None,
               submitted_at: Optional[float] = None) -> Job:
        key = scenario_hash(scenario)
        with self._lock:
            self._seq += 1
            if job_id is None:
                job_id = f"j{self._seq:06d}-{key[:8]}"
            job = Job(id=job_id, tenant=tenant, priority=priority,
                      scenario=scenario, key=key)
            if submitted_at is not None:
                job.submitted_at = submitted_at
            self._jobs[job.id] = job
            return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self, tenant: Optional[str] = None,
             state: Optional[str] = None) -> List[Job]:
        with self._lock:
            rows = list(self._jobs.values())
        if tenant is not None:
            rows = [j for j in rows if j.tenant == tenant]
        if state is not None:
            rows = [j for j in rows if j.state == state]
        rows.sort(key=lambda j: j.id)
        return rows

    # ------------------------------------------------------------------
    # active-key dedupe (one execution per content key at a time)
    # ------------------------------------------------------------------
    def active_for_key(self, key: str) -> Optional[Job]:
        with self._lock:
            job_id = self._active_by_key.get(key)
            return self._jobs.get(job_id) if job_id else None

    def mark_active(self, job: Job) -> None:
        with self._lock:
            self._active_by_key[job.key] = job.id

    def clear_active(self, job: Job) -> None:
        with self._lock:
            if self._active_by_key.get(job.key) == job.id:
                del self._active_by_key[job.key]

    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        with self._lock:
            counts: Dict[str, int] = {}
            for job in self._jobs.values():
                counts[job.state] = counts.get(job.state, 0) + 1
            counts["total"] = len(self._jobs)
            return counts


# ----------------------------------------------------------------------
# spool (SIGTERM drain persistence)
# ----------------------------------------------------------------------
def write_spool(path: Path, jobs: List[Job]) -> Path:
    """Persist queued jobs atomically (temp file + ``os.replace``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": SPOOL_VERSION,
        "spooled_at": time.time(),
        "jobs": [job.spool_record() for job in jobs],
    }
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str))
    os.replace(tmp, path)
    return path


def read_spool(path: Path) -> List[dict]:
    """Load spooled job records; a missing or torn spool reads as empty.

    Each record's scenario is rehydrated eagerly so a corrupt row is
    dropped here rather than detonating inside the scheduler.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return []
    if not isinstance(payload, dict) or payload.get("version") != SPOOL_VERSION:
        return []
    records = []
    for row in payload.get("jobs", []):
        if not isinstance(row, dict) or not isinstance(row.get("scenario"), dict):
            continue
        try:
            row = dict(row)
            row["scenario"] = scenario_from_json_dict(row["scenario"])
        except (TypeError, ValueError):
            continue
        records.append(row)
    return records
