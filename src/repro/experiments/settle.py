"""Per-cell settlement: the one retry/claim/journal policy every executor drives.

A *cell* is one :class:`~repro.experiments.parallel.RunRequest` on its way
to a terminal state.  Three drivers move cells: the serial sweep (an
in-process pool of one), the ``--workers N`` sweep (a
:class:`~repro.experiments.parallel.WorkerPool`), and the ``repro serve``
:class:`~repro.server.scheduler.JobScheduler`.  They differ only in which
cell launches next; everything around a launch is decided here by a
:class:`Settler`:

* **Claims** — with claims on, :meth:`Settler.acquire` first looks the cell
  up in the journal (``resumed``: a peer or an earlier run finished it),
  then takes its execution claim (``launch``).  A claim held by a live peer
  parks the cell until ``cell.ready_at``, ``_CLAIM_RECHECK_S`` later.  A
  claim is kept across retries and released by the journal write that
  settles the cell, or by :meth:`Settler.release`.
* **Retry eligibility** — a failed attempt is retried while its attempt
  number is at most ``max_retries``, unless its reason starts with one of
  ``_NON_RETRYABLE_PREFIXES``: those are the deterministic aborts of the
  robustness guards, which the same scenario and seed repeat every time.
* **Backoff and escalation** — retry ``n + 1`` waits ``_backoff_delay``
  (capped exponential, jitter keyed on the cell and attempt, so reruns
  repeat it and cells do not retry in lockstep) and runs under the last
  attempt's timeout ×1.5.
* **Journal** — a success is written as an entry carrying the attempt log;
  a permanent failure as a replay bundle.

The constants are read at call time, so tests can monkeypatch them.
Every time here is ``time.monotonic()``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Hashable, List, NamedTuple, Optional

from repro.sim.rng import stable_hash

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.journal import RunJournal
    from repro.experiments.parallel import RunRequest, Settlement
    from repro.experiments.runner import ExperimentResult

__all__ = ["Cell", "Settler", "Verdict"]

# Retry n + 1 waits min(cap, base * 2**(n-1)) scaled by a jitter factor in
# [0.5, 1.5) drawn from an RNG stream keyed on (run key, attempt).
_BACKOFF_BASE_S = 0.05
_BACKOFF_CAP_S = 5.0
# Each retry gets 1.5x the previous attempt's timeout: transient slowness
# gets headroom instead of hitting the same wall again.
_TIMEOUT_ESCALATION = 1.5
# Deterministic aborts raised by the robustness guards (repro.faults and
# repro.sim.engine): retrying only burns wall clock.
_NON_RETRYABLE_PREFIXES = ("LivelockError", "InvariantError", "ResourceError")
# How often a cell parked behind a peer's journal claim re-checks for the
# entry (or for the claim going stale).
_CLAIM_RECHECK_S = 0.1


def _retryable(reason: str) -> bool:
    return not reason.startswith(_NON_RETRYABLE_PREFIXES)


def _backoff_delay(key: Hashable, attempt: int) -> float:
    """Deterministic jittered exponential backoff before retry ``attempt + 1``."""
    rng = random.Random(stable_hash(str(key), "retry-backoff", attempt))
    delay = min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * (2 ** (attempt - 1)))
    return delay * (0.5 + rng.random())


@dataclass(eq=False)
class Cell:
    """One request's settlement state across its attempts."""

    request: "RunRequest"
    timeout_s: Optional[float] = None  # the next launch's wall-clock limit
    attempt: int = 1  # the next launch's attempt number
    attempts: List[dict] = field(default_factory=list)  # failed attempts, journaled on settle
    ready_at: float = 0.0  # monotonic time the next launch (or claim recheck) is due


class Verdict(NamedTuple):
    """What a driver does next with a cell.

    ``action`` is ``launch`` / ``resumed`` / ``parked`` from
    :meth:`Settler.acquire`, and ``ok`` / ``retry`` / ``requeue`` /
    ``failed`` from :meth:`Settler.settle`.
    """

    action: str
    result: Optional["ExperimentResult"] = None  # ok, resumed
    reason: str = ""  # retry, requeue, failed
    backoff_s: float = 0.0  # retry
    escalated: bool = False  # retry: the next timeout grew
    bundle: Optional[str] = None  # failed, with a journal attached


_LAUNCH = Verdict("launch")
_PARKED = Verdict("parked")


class Settler:
    """The settlement policy for one executor's cells.

    ``use_claims`` is the caller's rule (the batch executor claims when
    resuming, the server whenever it has a journal); claims need a
    journal.  :attr:`claims` maps the key of every cell whose claim this
    executor holds to its request.
    """

    def __init__(self, journal: Optional["RunJournal"], max_retries: int,
                 use_claims: bool) -> None:
        self.journal = journal
        self.max_retries = max(0, int(max_retries))
        self.use_claims = use_claims and journal is not None
        self.claims: Dict[Hashable, "RunRequest"] = {}

    def acquire(self, cell: Cell) -> Verdict:
        """Decide whether ``cell`` may launch now."""
        request = cell.request
        if not self.use_claims or request.key in self.claims:
            return _LAUNCH
        cached = self.journal.lookup(request)
        if cached is None:
            if not self.journal.try_claim(request):
                cell.ready_at = time.monotonic() + _CLAIM_RECHECK_S
                return _PARKED
            # A peer writes its entry before dropping its claim, so a claim
            # won just after a peer finished sees the entry here.
            cached = self.journal.lookup(request)
            if cached is None:
                self.claims[request.key] = request
                return _LAUNCH
            self.journal.release_claim(request)
        return Verdict("resumed", result=cached)

    def settle(self, cell: Cell, settlement: "Settlement", draining: bool = False) -> Verdict:
        """Apply the policy to one finished launch of ``cell``.

        On ``retry`` the cell is ready to re-queue: its attempt, timeout and
        ``ready_at`` are advanced.  ``draining`` turns a transient failure
        into ``requeue``: the claim is released and no retry is scheduled,
        so the work can be handed to the next incarnation.
        """
        request = cell.request
        if settlement.status == "ok":
            result = settlement.result
            if self.journal is not None:
                self.journal.record_success(request, result, attempts=cell.attempts)
                self.claims.pop(request.key, None)  # the entry write released it
            return Verdict("ok", result=result)
        reason = settlement.reason
        record = {"attempt": settlement.attempt, "reason": reason,
                  "wall_s": settlement.wall, "timeout_s": settlement.timeout_s}
        cell.attempts.append(record)
        if _retryable(reason):
            if draining:
                self.release(request.key)
                return Verdict("requeue", reason=reason)
            if settlement.attempt <= self.max_retries:
                backoff = _backoff_delay(request.key, settlement.attempt)
                record["backoff_s"] = backoff
                escalated = settlement.timeout_s is not None
                cell.timeout_s = (settlement.timeout_s * _TIMEOUT_ESCALATION
                                  if escalated else None)
                cell.attempt = settlement.attempt + 1
                cell.ready_at = time.monotonic() + backoff
                return Verdict("retry", reason=reason, backoff_s=backoff, escalated=escalated)
        bundle = None
        if self.journal is not None:
            bundle = str(self.journal.record_failure(request, reason, cell.attempts,
                                                     settlement.traceback))
            self.claims.pop(request.key, None)  # the bundle write released it
        return Verdict("failed", reason=reason, bundle=bundle)

    def release(self, key: Hashable) -> None:
        """Drop the claim on ``key``, if this executor holds it."""
        request = self.claims.pop(key, None)
        if request is not None:
            self.journal.release_claim(request)

    def release_all(self) -> None:
        for key in list(self.claims):
            self.release(key)
