"""Durable run journal: checkpointed, resumable, replayable sweeps.

The sweep grids behind Figures 7–16 are hours of CPU time at full scale; a
worker OOM, a ``LivelockError`` at seed 47/50, or a Ctrl-C used to throw
every completed cell away.  :class:`RunJournal` makes the experiment layer
re-entrant:

* **Content-keyed entries** — every completed (experiment, value, scheme,
  seed) cell is persisted as one JSON file named by a SHA-256 hash of the
  fully-specified scenario (see :func:`scenario_hash`).  Two grids that
  contain the same scenario point share the entry, and any change to any
  scenario knob — including the seed — changes the key, so a stale journal
  can never satisfy a different experiment.
* **Atomic writes** — entries land via temp file + ``os.replace`` in the
  same directory, so a SIGKILL at any instant leaves either the previous
  state or the complete new file, never a torn one.  Readers ignore
  ``*.tmp.*`` droppings from killed writers.
* **Resume** — ``execute_runs(..., journal=..., resume=True)`` (CLI:
  ``--journal-dir DIR --resume``) rehydrates journaled cells instead of
  re-running them; the final merge goes through the ordinary seed-ordered
  ``merge_results`` path, so a resumed sweep is bit-identical to an
  uninterrupted one.
* **Replay bundles** — a run that permanently fails (crash, timeout,
  ``LivelockError``, ``InvariantError``, ``ResourceError``) dumps a
  self-contained bundle under ``failures/``: scenario, seed, fault spec,
  per-attempt history (reason, wall time, timeout, backoff), and the
  worker traceback.  ``repro replay bundle.json`` re-executes the scenario
  from the bundle alone and checks the same exception class reproduces.

* **Execution claims** — two processes sharing a journal directory (two
  ``--resume`` sweeps, or two ``repro serve`` replicas) can both miss the
  same content key and double-run it.  :meth:`RunJournal.try_claim`
  creates ``<hash>.claim`` with ``O_CREAT | O_EXCL`` — an atomic
  filesystem mutex — so exactly one process executes the cell while the
  others wait for the entry to land.  A claim whose owner pid is dead, or
  that is older than the TTL, reads as stale and can be taken over, so a
  SIGKILLed claimant never wedges the grid.

Directory layout::

    <journal-dir>/
        <scenario-hash>.json            one completed cell (schema v1)
        <scenario-hash>.claim           execution claim (transient)
        failures/
            <scenario-hash>.bundle.json replay bundle for a failed cell

``failures/`` is bounded: at most ``max_bundles_per_class`` bundles are
retained per scenario class (``<name>:<scheme>``) — newest first — so a
crash-looping submitter cannot fill the disk with replay bundles.

Nothing is buffered in memory: every write is flushed at cell granularity,
so "flushing the journal" on shutdown is a no-op by construction.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import asdict
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

from repro.experiments.runner import (
    ExperimentResult,
    fingerprint,
    result_from_dict,
    result_to_dict,
)
from repro.experiments.scenarios import Scenario

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_CLAIM_TTL_S",
    "DEFAULT_MAX_BUNDLES_PER_CLASS",
    "RunJournal",
    "scenario_hash",
    "scenario_class",
    "scenario_from_json_dict",
    "load_replay_bundle",
    "exception_class_from_reason",
]

SCHEMA_VERSION = 1

# A claim older than this is presumed abandoned even if its pid check is
# inconclusive (e.g. the pid was recycled).  Generous: a legitimate cell
# run at full paper scale is minutes, not hours.
DEFAULT_CLAIM_TTL_S = 3600.0

# Newest replay bundles retained per scenario class before pruning.
DEFAULT_MAX_BUNDLES_PER_CLASS = 16

# "ValueError: ..." / "LivelockError: ..." -> the class name; reasons like
# "timeout after 5s" or "worker crashed (exit code -9)" yield None.
_REASON_CLASS_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*):")

PathLike = Union[str, Path]


def scenario_hash(scenario: Scenario) -> str:
    """Stable content hash of a fully-specified scenario point.

    Canonical JSON (sorted keys, tight separators) over ``asdict`` output,
    hashed with SHA-256.  Every scenario field participates, so any
    override — seed included — yields a different journal key.  The blob
    keeps a constant ``"trace_paths": false`` member (a retired execution
    flag), so every key stays byte-identical to the journals written
    while it existed.
    """
    blob = json.dumps(
        {"scenario": asdict(scenario), "trace_paths": False},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def scenario_class(scenario: Scenario) -> str:
    """Coarse grouping key for failure bundling and circuit breaking.

    ``<name>:<scheme>`` groups every seed/value variation of one logical
    experiment: a crash-looping tenant's submissions share a class no
    matter how many distinct seeds they burn through.
    """
    return f"{scenario.name}:{scenario.scheme}"


def scenario_from_json_dict(data: dict) -> Scenario:
    """Rebuild a :class:`Scenario` from a JSON-decoded ``asdict`` payload.

    JSON turns the ``faults`` tuple-of-tuples into lists; convert back so
    the frozen dataclass matches what produced the hash.
    """
    fields = dict(data)
    if fields.get("faults") is not None:
        fields["faults"] = tuple(tuple(row) for row in fields["faults"])
    return Scenario(**fields)


def exception_class_from_reason(reason: str) -> Optional[str]:
    """Extract the exception class from an executor failure reason, if any."""
    match = _REASON_CLASS_RE.match(reason)
    return match.group(1) if match else None


def _atomic_write_json(path: Path, payload: dict) -> Path:
    """Write JSON durably: temp file in the same directory + ``os.replace``."""
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str))
    os.replace(tmp, path)
    return path


class RunJournal:
    """A directory of durable, content-keyed per-run checkpoints."""

    def __init__(
        self,
        directory: PathLike,
        max_bundles_per_class: int = DEFAULT_MAX_BUNDLES_PER_CLASS,
        claim_ttl_s: float = DEFAULT_CLAIM_TTL_S,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.failures_dir = self.directory / "failures"
        self.max_bundles_per_class = max_bundles_per_class
        self.claim_ttl_s = claim_ttl_s

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def entry_path(self, request) -> Path:
        return self.directory / f"{self._hash(request)}.json"

    def bundle_path(self, request) -> Path:
        return self.failures_dir / f"{self._hash(request)}.bundle.json"

    def claim_path(self, request) -> Path:
        return self.directory / f"{self._hash(request)}.claim"

    @staticmethod
    def _hash(request) -> str:
        return scenario_hash(request.scenario)

    # ------------------------------------------------------------------
    # execution claims
    # ------------------------------------------------------------------
    def try_claim(self, request) -> bool:
        """Atomically claim the right to execute this cell.

        Creates ``<hash>.claim`` with ``O_CREAT | O_EXCL`` — the classic
        filesystem mutex — carrying the claimant's pid and wall time.
        Returns ``False`` when a *live* claim is already held elsewhere.
        A stale claim (dead owner pid on this host, or older than
        ``claim_ttl_s``) is taken over via compare-and-rename (see
        :meth:`_remove_stale_claim`) and re-contested; the loser of that
        re-contest sees the winner's fresh claim and backs off.

        The claim is an execution-dedupe optimisation, not a correctness
        gate: entry writes stay atomic and content-addressed, so even a
        pathological double-claim converges on one identical entry.
        """
        path = self.claim_path(request)
        payload = json.dumps(
            {"pid": os.getpid(), "time": time.time(), "key": str(request.key)},
            separators=(",", ":"),
        )
        for _ in range(8):  # bounded re-contests of stale claims
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            except FileExistsError:
                if self._remove_stale_claim(path):
                    continue
                return False
            except OSError:  # pragma: no cover - unwritable directory
                return False
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            return True
        return False  # pragma: no cover - perpetual stale-claim churn

    def _remove_stale_claim(self, path: Path) -> bool:
        """Remove ``path`` iff it still holds a stale claim.

        Returns ``True`` when the caller should re-contest the O_EXCL
        create, ``False`` when the claim turned out live.

        A plain unlink would race: two processes judge the same claim
        stale, the winner unlinks and writes a *fresh* claim, and the
        loser's unlink then destroys that fresh claim — both believe they
        own execution.  Instead the stale claim is renamed aside to a
        unique name (atomic: exactly one contender gets the file), its
        content is re-verified against the bytes that were judged stale,
        and a claim that changed in between — a takeover winner's fresh
        claim — is renamed back untouched.
        """
        try:
            stale_raw = path.read_bytes()
        except OSError:
            return True  # vanished already: re-contest the create
        if not self._claim_is_stale(path, stale_raw):
            return False
        aside = path.with_name(
            f"{path.name}.stale.{os.getpid()}.{time.monotonic_ns()}")
        try:
            os.rename(path, aside)
        except OSError:
            return True  # another contender renamed it first: re-contest
        try:
            moved_raw = aside.read_bytes()
        except OSError:  # pragma: no cover - aside file is exclusively ours
            moved_raw = None
        if moved_raw == stale_raw:
            try:
                aside.unlink()
            except OSError:  # pragma: no cover - best effort
                pass
            return True
        # The claim changed between the staleness read and the rename:
        # we grabbed a fresh claim, not the stale one.  Restore and back
        # off.
        try:
            os.rename(aside, path)
        except OSError:  # pragma: no cover - restore is best effort
            pass
        return False

    def release_claim(self, request) -> None:
        """Drop the execution claim (idempotent; missing file is fine)."""
        try:
            self.claim_path(request).unlink()
        except OSError:
            pass

    def claim_count(self) -> int:
        return sum(1 for _ in self.directory.glob("*.claim"))

    def _claim_is_stale(self, path: Path, raw: Optional[bytes] = None) -> bool:
        if raw is None:
            try:
                raw = path.read_bytes()
            except OSError:
                return False  # gone already - the create loop re-contests
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            data = None
        if not isinstance(data, dict):
            # Torn: fall back to the file clock.
            try:
                return (time.time() - path.stat().st_mtime) > self.claim_ttl_s
            except OSError:
                return False
        if time.time() - float(data.get("time") or 0) > self.claim_ttl_s:
            return True
        pid = data.get("pid")
        if isinstance(pid, int) and pid > 0:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return True  # owner died without releasing
            except OSError:
                return False  # alive but not ours (EPERM) or unknowable
        return False

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    def lookup(self, request) -> Optional[ExperimentResult]:
        """Return the journaled result for this request, or ``None``.

        Defensive on every axis: a missing file, undecodable JSON (cannot
        happen through the atomic writer, but the directory is user-owned),
        a schema mismatch, a hash mismatch, or a stored result whose
        fingerprint no longer matches the one recorded with it all read as
        "not journaled".  Entries written before fingerprints were recorded
        carry none and load unchecked.
        """
        path = self.entry_path(request)
        try:
            entry = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict) or entry.get("schema") != SCHEMA_VERSION:
            return None
        if entry.get("hash") != self._hash(request) or "result" not in entry:
            return None
        stored = entry.get("fingerprint")
        if stored is not None and fingerprint(entry["result"]) != stored:
            return None
        return result_from_dict(entry["result"], scenario=request.scenario)

    def completed_count(self) -> int:
        """Number of completed cells currently journaled."""
        return sum(1 for _ in self.directory.glob("*.json"))

    # ------------------------------------------------------------------
    # write side
    # ------------------------------------------------------------------
    def record_success(
        self,
        request,
        result: ExperimentResult,
        attempts: Optional[Sequence[dict]] = None,
    ) -> Path:
        """Persist one completed cell atomically; returns the entry path.

        A success supersedes any earlier failure bundle for the same cell
        (e.g. a timeout that passed on retry): the stale bundle is removed
        so ``failures/`` only lists cells that are still failed.
        """
        payload = result_to_dict(result, include_scenario=False)
        entry = {
            "schema": SCHEMA_VERSION,
            "kind": "result",
            "hash": self._hash(request),
            "key": str(request.key),
            "scenario": asdict(request.scenario),
            "attempts": list(attempts or ()),
            "fingerprint": fingerprint(payload),
            "result": payload,
        }
        path = _atomic_write_json(self.entry_path(request), entry)
        stale_bundle = self.bundle_path(request)
        if stale_bundle.exists():
            try:
                stale_bundle.unlink()
            except OSError:  # pragma: no cover - best effort
                pass
        # The entry now exists, so any execution claim is moot.
        self.release_claim(request)
        return path

    def record_failure(
        self,
        request,
        reason: str,
        attempts: Sequence[dict],
        traceback_text: Optional[str] = None,
    ) -> Path:
        """Dump a self-contained replay bundle for a permanently failed run.

        The bundle directory stays bounded: after the write, bundles of the
        same scenario class beyond ``max_bundles_per_class`` (newest first)
        are pruned, so a crash-looping scenario class cannot fill the disk.
        """
        self.failures_dir.mkdir(parents=True, exist_ok=True)
        bundle = {
            "schema": SCHEMA_VERSION,
            "kind": "replay-bundle",
            "hash": self._hash(request),
            "key": str(request.key),
            "scenario": asdict(request.scenario),
            "scenario_class": scenario_class(request.scenario),
            "seed": request.scenario.seed,
            "faults": request.scenario.faults,
            "reason": reason,
            "expect_exception": exception_class_from_reason(reason),
            "attempts": list(attempts),
            "traceback": traceback_text,
        }
        path = _atomic_write_json(self.bundle_path(request), bundle)
        self.release_claim(request)
        self._prune_bundles(scenario_class(request.scenario), keep=path)
        return path

    def _prune_bundles(self, cls: str, keep: Optional[Path] = None) -> int:
        """Retain only the newest ``max_bundles_per_class`` bundles of ``cls``."""
        if self.max_bundles_per_class <= 0:
            return 0
        candidates = []
        for path in self.failures_dir.glob("*.bundle.json"):
            try:
                data = json.loads(path.read_text())
            except (OSError, ValueError):
                continue  # torn or foreign file: not ours to prune
            bundle_cls = data.get("scenario_class")
            if bundle_cls is None and isinstance(data.get("scenario"), dict):
                # Pre-claim-era bundle: derive the class from the scenario.
                scen = data["scenario"]
                bundle_cls = f"{scen.get('name')}:{scen.get('scheme')}"
            if bundle_cls != cls:
                continue
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue
            candidates.append((mtime, path))
        candidates.sort(key=lambda item: item[0], reverse=True)
        pruned = 0
        for _, path in candidates[self.max_bundles_per_class:]:
            if keep is not None and path == keep:
                continue
            try:
                path.unlink()
                pruned += 1
            except OSError:  # pragma: no cover - best effort
                pass
        return pruned

    # ------------------------------------------------------------------
    # inspection (``repro jobs``, ``/readyz``)
    # ------------------------------------------------------------------
    def iter_entries(self) -> Iterator[dict]:
        """Yield every journaled success entry (schema-checked, torn-safe)."""
        for path in sorted(self.directory.glob("*.json")):
            try:
                entry = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            if not isinstance(entry, dict) or entry.get("schema") != SCHEMA_VERSION:
                continue
            if entry.get("kind") != "result":
                continue
            entry["_path"] = str(path)
            try:
                entry["_mtime"] = path.stat().st_mtime
            except OSError:
                entry["_mtime"] = 0.0
            yield entry

    def iter_bundles(self) -> Iterator[dict]:
        """Yield every failure replay bundle (schema-checked, torn-safe)."""
        if not self.failures_dir.is_dir():
            return
        for path in sorted(self.failures_dir.glob("*.bundle.json")):
            try:
                bundle = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            if not isinstance(bundle, dict) or bundle.get("kind") != "replay-bundle":
                continue
            bundle["_path"] = str(path)
            try:
                bundle["_mtime"] = path.stat().st_mtime
            except OSError:
                bundle["_mtime"] = 0.0
            yield bundle

    def stats(self) -> dict:
        """Size counters for health endpoints and operator tooling."""
        return {
            "entries": self.completed_count(),
            "failure_bundles": (
                sum(1 for _ in self.failures_dir.glob("*.bundle.json"))
                if self.failures_dir.is_dir() else 0
            ),
            "claims": self.claim_count(),
        }


def load_replay_bundle(path: PathLike) -> dict:
    """Load and sanity-check a replay bundle written by ``record_failure``."""
    bundle = json.loads(Path(path).read_text())
    if not isinstance(bundle, dict) or bundle.get("kind") != "replay-bundle":
        raise ValueError(f"{path} is not a replay bundle")
    if bundle.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"{path} has schema {bundle.get('schema')!r}, expected {SCHEMA_VERSION}"
        )
    if "scenario" not in bundle:
        raise ValueError(f"{path} carries no scenario")
    return bundle
