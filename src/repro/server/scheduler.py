"""The persistent job scheduler behind ``repro serve``.

``experiments.parallel`` runs a batch to exhaustion; this module runs the
same :class:`~repro.experiments.parallel.WorkerPool` *forever*, fed by
concurrent tenants.  One scheduler thread owns every state transition:

1. **Admission** happens on the HTTP thread (:meth:`JobScheduler.submit`):
   circuit-breaker check, journal dedupe, active-key dedupe, then the
   token-bucket/queue-depth gate.  Everything past that point is the
   scheduler thread's.
2. **Fairness** — queued jobs sit in per-tenant priority queues served by
   deficit round robin: each sweep of the tenant ring grants ``quantum``
   credits, a launch costs one, so concurrent tenants interleave
   regardless of who submitted first, while a tenant alone gets the whole
   pool.  Within a tenant, higher ``priority`` launches first.
3. **Settlement** — claims, retries, backoff, timeout escalation, and the
   journal writes are the executor's shared policy
   (:class:`~repro.experiments.settle.Settler`), the same one the batch
   sweep drives.  Journal claims serialize execution across server
   replicas sharing a state directory; ready retries launch ahead of DRR
   picks; permanent failures feed the per-scenario-class circuit breaker.
4. **Drain** — :meth:`drain` stops launches, lets in-flight jobs finish
   and journal (bounded by ``drain_timeout_s``), spools everything still
   queued to ``spool.json``, and joins every worker: zero orphans, and a
   restart on the same state directory replays the spool.
"""

from __future__ import annotations

import heapq
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.experiments.journal import RunJournal, scenario_class, scenario_hash
from repro.experiments.parallel import RunRequest, Settlement, WorkerPool
from repro.experiments.runner import ExperimentResult, result_to_dict
from repro.experiments.scenarios import Scenario
from repro.experiments.settle import Cell, Settler
from repro.server.admission import AdmissionGate, ClassBreaker
from repro.server.jobs import Job, JobStore, read_spool, write_spool

__all__ = ["JobScheduler", "SubmitOutcome"]

_POLL_S = 0.05


class SubmitOutcome:
    """What happened to a submission: maps 1:1 onto an HTTP response."""

    __slots__ = ("status", "job", "retry_after_s", "info")

    def __init__(self, status: str, job: Optional[Job] = None,
                 retry_after_s: float = 0.0, info: Optional[dict] = None) -> None:
        self.status = status  # queued | cached | deduped | shed | breaker-open
        self.job = job
        self.retry_after_s = retry_after_s
        self.info = info or {}


class JobScheduler:
    """Admission-gated, tenant-fair, crash-tolerant job execution."""

    def __init__(
        self,
        store: JobStore,
        journal: Optional[RunJournal] = None,
        workers: int = 2,
        max_retries: int = 2,
        run_timeout_s: Optional[float] = None,
        quantum: int = 1,
        admission: Optional[AdmissionGate] = None,
        breaker: Optional[ClassBreaker] = None,
        heartbeat=None,
        spool_path=None,
        drain_timeout_s: float = 60.0,
        poll_interval_s: float = _POLL_S,
    ) -> None:
        if quantum < 1:
            raise ValueError("DRR quantum must be at least one")
        self.store = store
        self.journal = journal
        self.workers = max(1, int(workers))
        self.settler = Settler(journal, max_retries, use_claims=True)
        self.run_timeout_s = run_timeout_s
        self.quantum = int(quantum)
        self.admission = admission
        self.breaker = breaker
        self.heartbeat = heartbeat
        self.spool_path = spool_path
        self.drain_timeout_s = drain_timeout_s
        self.poll_interval_s = poll_interval_s

        self._lock = threading.RLock()
        self._tenant_queues: Dict[str, List[tuple]] = {}  # heap of (-prio, seq, id)
        self._ring: List[str] = []
        self._ring_index = 0
        self._deficit: Dict[str, float] = {}
        self._retry_heap: List[tuple] = []  # (ready_at, seq, cell)
        self._claim_waits: Dict[str, Cell] = {}  # job_id -> cell parked behind a claim
        self._running: Dict[int, Cell] = {}  # launch_id -> cell
        self._seq = 0

        self._pool: Optional[WorkerPool] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._draining = False
        self._drained = threading.Event()

        # Counters (exported via stats()).
        self.launches = 0
        self.retries = 0
        self.timeout_escalations = 0
        self.dedupe_cached = 0
        self.dedupe_active = 0
        self.spooled = 0
        self.spool_replayed = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "JobScheduler":
        if self._thread is not None:
            raise RuntimeError("scheduler already started")
        self._pool = WorkerPool(self.workers)
        self.replay_spool()
        self._thread = threading.Thread(target=self._loop, name="repro-serve-scheduler",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Hard stop (tests / error paths); ``drain`` is the graceful exit."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        if self._pool is not None:
            self._pool.shutdown()

    # ------------------------------------------------------------------
    # submission (HTTP thread)
    # ------------------------------------------------------------------
    def submit(self, tenant: str, priority: int, scenario: Scenario) -> SubmitOutcome:
        cls = scenario_class(scenario)
        if self.breaker is not None:
            allowed, info = self.breaker.check(cls)
            if not allowed:
                return SubmitOutcome("breaker-open",
                                     retry_after_s=info.get("retry_after_s", 1.0),
                                     info=info)
        with self._lock:
            if self._draining:
                return SubmitOutcome("shed", retry_after_s=5.0,
                                     info={"reason": "draining"})
            # No Job record exists until the submission is admitted (or is
            # a cache hit the client will poll): retaining records for
            # shed/deduped probes would let a rejected-submission flood
            # grow the store without bound — exactly what the gate exists
            # to prevent.
            key = scenario_hash(scenario)
            # Journal dedupe: a content-identical run already completed.
            if self.journal is not None:
                cached = self.journal.lookup(RunRequest(key=key, scenario=scenario))
                if cached is not None:
                    job = self.store.create(tenant, priority, scenario)
                    self._finish_cached_locked(job, cached)
                    return SubmitOutcome("cached", job=job)
            # Active dedupe: the same content key is already queued/running.
            active = self.store.active_for_key(key)
            if active is not None and not active.terminal:
                self.dedupe_active += 1
                return SubmitOutcome("deduped", job=active)
            # Admission gate: bounded queue depth + token-bucket arrivals.
            if self.admission is not None:
                ok, retry_after, reason = self.admission.admit(self._backlog_locked())
                if not ok:
                    return SubmitOutcome("shed", retry_after_s=retry_after,
                                         info={"reason": reason})
            job = self.store.create(tenant, priority, scenario)
            self._enqueue_locked(job)
            return SubmitOutcome("queued", job=job)

    def cancel(self, job_id: str) -> Tuple[bool, str]:
        """Cancel a queued job; running and terminal jobs are refused."""
        with self._lock:
            job = self.store.get(job_id)
            if job is None:
                return False, "not-found"
            if job.state == "running":
                return False, "running"
            if job.terminal:
                return False, job.state
            job.state = "cancelled"
            job.finished_at = time.time()
            self._claim_waits.pop(job.id, None)
            # A job cancelled out of retry backoff still holds its journal
            # claim; drop it so resubmissions (here or on a replica) are
            # not parked until the claim TTL.
            self.settler.release(job.id)
            self.store.clear_active(job)
            return True, "cancelled"

    # ------------------------------------------------------------------
    # queue plumbing (call with the lock held)
    # ------------------------------------------------------------------
    def _enqueue_locked(self, job: Job, replayed: bool = False) -> None:
        self._seq += 1
        queue = self._tenant_queues.setdefault(job.tenant, [])
        if not queue and job.tenant not in self._ring:
            self._ring.append(job.tenant)
            self._deficit.setdefault(job.tenant, 0.0)
        heapq.heappush(queue, (-job.priority, self._seq, job.id))
        job.state = "queued"
        self.store.mark_active(job)
        if replayed:
            self.spool_replayed += 1

    def _backlog_locked(self) -> int:
        queued = sum(len(q) for q in self._tenant_queues.values())
        return queued + len(self._retry_heap) + len(self._claim_waits)

    def _drr_next_locked(self) -> Optional[Job]:
        """Deficit round robin over the tenant ring; one launch per call."""
        sweeps = 0
        while self._ring and sweeps <= 2 * len(self._ring) + 1:
            sweeps += 1
            self._ring_index %= len(self._ring)
            tenant = self._ring[self._ring_index]
            queue = self._tenant_queues.get(tenant)
            # Drop cancelled jobs lazily.
            while queue:
                job = self.store.get(queue[0][2])
                if job is None or job.state != "queued":
                    heapq.heappop(queue)
                    continue
                break
            if not queue:
                self._ring.pop(self._ring_index)
                self._deficit.pop(tenant, None)
                continue
            if self._deficit.get(tenant, 0.0) >= 1.0:
                _, _, job_id = heapq.heappop(queue)
                self._deficit[tenant] -= 1.0
                if not queue:
                    # DRR resets an emptied queue's deficit: departing work
                    # does not bank credit for later.
                    self._ring.pop(self._ring_index)
                    self._deficit.pop(tenant, None)
                return self.store.get(job_id)
            self._deficit[tenant] = self._deficit.get(tenant, 0.0) + self.quantum
            self._ring_index += 1
        return None

    def _retry_ready_locked(self, now: float) -> Optional[Tuple[Job, Cell]]:
        while self._retry_heap and self._retry_heap[0][0] <= now:
            _, _, cell = heapq.heappop(self._retry_heap)
            job = self.store.get(cell.request.key)
            if job is not None and job.state == "queued":
                return job, cell
        return None

    def _finish_cached_locked(self, job: Job, cached: ExperimentResult) -> None:
        job.result = result_to_dict(cached, include_scenario=False)
        job.state = "done"
        job.cached = True
        job.finished_at = time.time()
        self.dedupe_cached += 1

    # ------------------------------------------------------------------
    # the scheduler loop
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.is_set():
            self._tick()

    def _tick(self) -> None:
        pool = self._pool
        with self._lock:
            if not self._draining:
                self._launch_ready_locked()
            self._recheck_claims_locked()
        for settlement in pool.poll(block_s=self.poll_interval_s):
            with self._lock:
                self._settle_locked(settlement)
        self._emit_heartbeat()

    def _launch_ready_locked(self) -> None:
        pool = self._pool
        now = time.monotonic()
        while pool.has_slot:
            picked = self._retry_ready_locked(now)
            if picked is not None:
                job, cell = picked
            else:
                job = self._drr_next_locked()
                if job is None:
                    return
                cell = Cell(RunRequest(key=job.id, scenario=job.scenario),
                            self.run_timeout_s, attempts=job.attempts)
            self._launch_locked(job, cell)

    def _launch_locked(self, job: Job, cell: Cell) -> None:
        verdict = self.settler.acquire(cell)
        if verdict.action == "resumed":
            # A replica sharing this journal finished the same content key
            # since submission.
            self._finish_cached_locked(job, verdict.result)
            self.store.clear_active(job)
            if self.breaker is not None:
                self.breaker.record_success(job.scenario_class)
            return
        if verdict.action == "parked":
            self._claim_waits[job.id] = cell
            return
        job.state = "running"
        job.attempt = cell.attempt
        if job.started_at is None:
            job.started_at = time.time()
        launch_id = self._pool.launch(cell.request, attempt=cell.attempt,
                                      timeout_s=cell.timeout_s)
        job.pid = self._pool.pid_of(launch_id)
        self._running[launch_id] = cell
        self.launches += 1

    def _recheck_claims_locked(self) -> None:
        now = time.monotonic()
        for job_id, cell in list(self._claim_waits.items()):
            job = self.store.get(job_id)
            if job is None or job.state != "queued":
                del self._claim_waits[job_id]
            elif cell.ready_at <= now and self._pool.has_slot and not self._draining:
                del self._claim_waits[job_id]
                self._launch_locked(job, cell)  # re-claims or re-parks

    # ------------------------------------------------------------------
    def _settle_locked(self, settlement: Settlement) -> None:
        cell = self._running.pop(settlement.launch_id, None)
        job = self.store.get(cell.request.key) if cell is not None else None
        if job is None:  # pragma: no cover - settlement for an unknown launch
            return
        job.pid = None
        verdict = self.settler.settle(cell, settlement, draining=self._draining)
        if verdict.action == "ok":
            job.result = settlement.payload
            job.state = "done"
            job.finished_at = time.time()
            self.store.clear_active(job)
            if self.breaker is not None:
                self.breaker.record_success(job.scenario_class)
        elif verdict.action == "retry":
            job.state = "queued"
            self.retries += 1
            self.timeout_escalations += verdict.escalated
            self._seq += 1
            heapq.heappush(self._retry_heap, (cell.ready_at, self._seq, cell))
        elif verdict.action == "requeue":
            # Mid-drain transient failure: hand the job to the next
            # incarnation instead of burning the drain window on backoff.
            # Re-enqueue (launches are blocked while draining) so the job
            # sits in a tenant queue where the drain's spool scan finds it;
            # flipping the state alone would strand it in no collection.
            self._enqueue_locked(job)
        else:
            job.state = "failed"
            job.error = verdict.reason
            job.bundle = verdict.bundle
            job.finished_at = time.time()
            self.store.clear_active(job)
            if self.breaker is not None:
                self.breaker.record_failure(job.scenario_class, verdict.reason,
                                            verdict.bundle)

    # ------------------------------------------------------------------
    # drain (SIGTERM) and spool
    # ------------------------------------------------------------------
    def drain(self, timeout_s: Optional[float] = None) -> dict:
        """Graceful shutdown: finish in-flight work, spool the rest.

        Stops launching, waits up to ``timeout_s`` (default
        ``drain_timeout_s``) for running jobs to settle and journal, then
        terminates any stragglers (their jobs are spooled for a retry on
        restart), persists every still-queued job to ``spool.json``, and
        joins all workers.  Returns a summary dict.
        """
        timeout_s = self.drain_timeout_s if timeout_s is None else timeout_s
        with self._lock:
            self._draining = True
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with self._lock:
                if not self._running:
                    break
            time.sleep(0.02)
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        # Drain any settlements the loop missed between its last poll and
        # the stop flag.
        if self._pool is not None:
            for settlement in self._pool.poll(block_s=0.2, window=True):
                with self._lock:
                    self._settle_locked(settlement)
        with self._lock:
            interrupted: List[Job] = []
            for cell in self._running.values():
                job = self.store.get(cell.request.key)
                if job is not None:
                    interrupted.append(job)
            self._running.clear()
            spooling = interrupted + self._queued_jobs_locked()
            for job in spooling:
                self.settler.release(job.id)
                job.state = "spooled"
                job.pid = None
            self._tenant_queues.clear()
            self._ring.clear()
            self._retry_heap.clear()
            self._claim_waits.clear()
            if self.spool_path is not None and spooling:
                write_spool(self.spool_path, spooling)
            self.spooled = len(spooling)
        if self._pool is not None:
            self._pool.shutdown()
        self._drained.set()
        return {"spooled": self.spooled, "jobs": self.store.counts()}

    def _queued_jobs_locked(self) -> List[Job]:
        seen = set()
        jobs: List[Job] = []
        for queue in self._tenant_queues.values():
            for _, _, job_id in queue:
                seen.add(job_id)
        for _, _, cell in self._retry_heap:
            seen.add(cell.request.key)
        seen.update(self._claim_waits.keys())
        for job_id in sorted(seen):
            job = self.store.get(job_id)
            if job is not None and job.state == "queued":
                jobs.append(job)
        return jobs

    def replay_spool(self) -> int:
        """Re-enqueue jobs a previous incarnation spooled on drain."""
        if self.spool_path is None:
            return 0
        records = read_spool(self.spool_path)
        if not records:
            return 0
        with self._lock:
            for row in records:
                job = self.store.create(
                    tenant=str(row.get("tenant", "default")),
                    priority=int(row.get("priority", 0)),
                    scenario=row["scenario"],
                    submitted_at=row.get("submitted_at"),
                )
                self._enqueue_locked(job, replayed=True)
        try:
            self.spool_path.unlink()
        except OSError:  # pragma: no cover - best effort
            pass
        return len(records)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def _emit_heartbeat(self) -> None:
        if self.heartbeat is None:
            return
        counts = self.store.counts()
        completed = sum(counts.get(state, 0) for state in ("done", "failed", "cancelled"))
        with self._lock:
            pending = self._backlog_locked()
        self.heartbeat.maybe_emit(
            completed=completed,
            total=counts.get("total", 0),
            running=self._pool.running_info() if self._pool else [],
            pending=pending,
            extra={"server": self.stats(light=True)},
        )

    def running_pids(self) -> List[int]:
        return self._pool.pids() if self._pool is not None else []

    def idle(self) -> bool:
        with self._lock:
            return (not self._running and self._backlog_locked() == 0)

    def wait_idle(self, timeout_s: float = 30.0) -> bool:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.idle():
                return True
            time.sleep(0.02)
        return False

    def stats(self, light: bool = False) -> dict:
        with self._lock:
            active = self._pool.active if self._pool is not None else 0
            queued = self._backlog_locked()
            tenants = {tenant: len(queue)
                       for tenant, queue in self._tenant_queues.items() if queue}
            out = {
                "draining": self._draining,
                "workers": self.workers,
                "active": active,
                "saturation": round(active / self.workers, 3),
                "queued": queued,
                "retry_wait": len(self._retry_heap),
                "claim_wait": len(self._claim_waits),
                "tenants": tenants,
                "launches": self.launches,
                "retries": self.retries,
                "timeout_escalations": self.timeout_escalations,
                "dedupe_cached": self.dedupe_cached,
                "dedupe_active": self.dedupe_active,
                "spool_replayed": self.spool_replayed,
            }
        if light:
            return out
        out["jobs"] = self.store.counts()
        if self.admission is not None:
            out["admission"] = self.admission.stats()
        if self.breaker is not None:
            out["breakers"] = self.breaker.states()
        if self.journal is not None:
            out["journal"] = self.journal.stats()
        return out

