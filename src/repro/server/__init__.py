"""``repro serve``: a crash-tolerant async job server over the sweep executor.

The batch executor (:mod:`repro.experiments.parallel`) answers "run this
grid to completion"; this package answers "keep accepting scenario runs
from concurrent tenants and never fall over":

* :mod:`repro.server.jobs` — job records, the thread-safe store, the
  shutdown spool;
* :mod:`repro.server.admission` — token-bucket + queue-depth admission,
  per-scenario-class circuit breaker;
* :mod:`repro.server.scheduler` — DRR tenant fairness, retries/backoff,
  journal claims, graceful drain over the shared :class:`WorkerPool`;
* :mod:`repro.server.app` — the stdlib asyncio HTTP front end.
"""

from repro._exports import export_lazily

__all__ = export_lazily(__name__, {
    "AdmissionGate": "repro.server.admission",
    "ClassBreaker": "repro.server.admission",
    "Job": "repro.server.jobs",
    "JobScheduler": "repro.server.scheduler",
    "JobStore": "repro.server.jobs",
    "ReproServer": "repro.server.app",
    "SubmitOutcome": "repro.server.scheduler",
    "build_server": "repro.server.app",
    "read_spool": "repro.server.jobs",
    "retry_after_header": "repro.server.admission",
    "scenario_from_submission": "repro.server.app",
    "serve_main": "repro.server.app",
    "write_spool": "repro.server.jobs",
})
