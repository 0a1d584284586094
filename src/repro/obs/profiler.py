"""Opt-in scheduler profiling: wall time per callback category.

Answering "where does a simulated second go?" used to mean an external
profiler run.  :class:`SchedulerProfiler` buckets the run loop's wall time
and event counts per callback *category* — link delivery, link transmit,
switch fabric forwarding, transport timers, workload arming, PFC control,
fault machinery — cheap enough to leave on for a real experiment (<5%
overhead) and free when off: the profiler's sampling window shares the
run loop's one countdown with the run-loop hooks, and the loop's slow
path (:meth:`repro.sim.engine.Scheduler._beat`) closes it, so neither
adds a per-event branch.

Categories are derived from the callback's module and qualified name and
memoized per function object, so steady-state attribution is one dict hit.

Attribution is *sampled* by default (``sample_stride=16``): the run loop
reads the clock once per jittered window of ~16-31 events and charges the
whole window — its event count and wall time — to the category of the
event that closed it.  Totals stay exact (windows partition the event
stream, and a trailing partial window is flushed when the loop exits);
the per-category split is statistical, converging like any sampling
profiler.  This matters because simulator events run in the low
microseconds: a per-event ``perf_counter`` read alone (~70ns) would blow
the 5% budget, while the sampled loop's per-event cost is a local
countdown decrement.  ``sample_stride=1`` is exact mode in the same
loop: every window holds one event, so the clock is read once per event
and each event is charged from the previous read — for when per-event
precision is worth the extra overhead (``bench_obs_overhead.py``'s
"profiled exact" arm measures it).

Elided tx-done events (see :mod:`repro.net.link`) never reach a run loop;
the port settles them by calling :meth:`SchedulerProfiler.record` with a
truthful zero wall time, so category event counts still sum to the
logical ``events_processed`` while the wall split
reflects only work that actually happened.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["SchedulerProfiler", "profile_category", "merge_profiles"]

# Ordered (module prefix, qualname fragment, category) rules; first match
# wins.  ``None`` fragments match any qualname.
_RULES: tuple[tuple[str, str | None, str], ...] = (
    ("repro.net.link", "_deliver", "link.deliver"),
    ("repro.net.link", "pause", "pfc"),
    ("repro.net.link", "resume", "pfc"),
    ("repro.net.link", None, "link.tx"),
    ("repro.net.cioq", None, "switch.forward"),
    ("repro.net.pfc", None, "pfc"),
    ("repro.transport", None, "transport.timer"),
    ("repro.workload", None, "workload.arm"),
    ("repro.faults", None, "faults"),
    ("repro.obs", None, "obs"),
    ("repro.metrics", None, "obs"),
)


def profile_category(fn: Callable) -> str:
    """Map a scheduled callback to its profile category."""
    target = getattr(fn, "__func__", fn)
    module = getattr(target, "__module__", "") or ""
    qualname = getattr(target, "__qualname__", "") or ""
    for prefix, fragment, category in _RULES:
        if module.startswith(prefix) and (fragment is None or fragment in qualname):
            return category
    return "other"


class SchedulerProfiler:
    """Accumulates per-category event counts and wall seconds.

    Install by assigning to ``scheduler.profiler`` (or via
    :meth:`install`); the scheduler's instrumented run loop attributes
    into the slot memo directly (see module docstring for the sampled
    versus exact trade-off selected by ``sample_stride``).
    """

    __slots__ = ("_slots", "_by_fn", "sample_stride")

    def __init__(self, sample_stride: int = 16) -> None:
        if sample_stride < 1:
            raise ValueError(f"sample_stride must be >= 1, got {sample_stride}")
        # 1 = exact per-event timing; >= 2 = one clock read per jittered
        # window of [stride, 2*stride) events, charged to the closing event.
        self.sample_stride = sample_stride
        # category -> [events, wall_seconds]
        self._slots: dict[str, list] = {}
        # function object -> its category's slot (memoized hot path)
        self._by_fn: dict[object, list] = {}

    def install(self, scheduler) -> "SchedulerProfiler":
        scheduler.profiler = self
        return self

    def finish(self) -> None:
        """Nothing to flush: the slots are read by :meth:`contribute`."""

    def contribute(self, result) -> None:
        result.profile = self.as_dict()

    # ------------------------------------------------------------------
    def _slot_for(self, key: object, fn: Callable) -> list:
        """Miss path of the attribution memo: categorize ``fn`` and cache
        its slot under ``key`` (the underlying function object).  The hot
        path — one ``_by_fn`` lookup plus two slot increments — is inlined
        into :meth:`repro.sim.engine.Scheduler._beat`, so changes to the
        memo layout must be mirrored there."""
        category = profile_category(fn)
        slot = self._slots.setdefault(category, [0, 0.0])
        self._by_fn[key] = slot
        return slot

    def record(self, fn: Callable, elapsed: float, events: int = 1) -> None:
        """Charge ``events`` events and ``elapsed`` wall seconds to
        ``fn``'s category."""
        # Bound methods are fresh objects per schedule; the underlying
        # function object is the stable memoization key.
        key = getattr(fn, "__func__", fn)
        slot = self._by_fn.get(key)
        if slot is None:
            slot = self._slot_for(key, fn)
        slot[0] += events
        slot[1] += elapsed

    # ------------------------------------------------------------------
    @property
    def total_events(self) -> int:
        return sum(slot[0] for slot in self._slots.values())

    @property
    def total_wall_s(self) -> float:
        return sum(slot[1] for slot in self._slots.values())

    def as_dict(self) -> dict:
        """Plain-builtin payload carried on ``ExperimentResult.profile``."""
        return {
            "categories": {
                category: {"events": slot[0], "wall_s": slot[1]}
                for category, slot in sorted(self._slots.items())
            },
            "total_events": self.total_events,
            "total_wall_s": self.total_wall_s,
            "sample_stride": self.sample_stride,
        }

    def table(self) -> list[dict]:
        """Rows for the CLI/bench profile table, heaviest category first."""
        return profile_table(self.as_dict())

    def format_table(self) -> str:
        return format_profile(self.as_dict())


# ----------------------------------------------------------------------
# payload-level helpers (work on as_dict() output, so merged / deserialized
# profiles render identically to live ones)
# ----------------------------------------------------------------------
def profile_table(profile: dict) -> list[dict]:
    total_wall = profile.get("total_wall_s", 0.0) or 0.0
    rows = []
    for category, data in profile.get("categories", {}).items():
        events, wall = data["events"], data["wall_s"]
        rows.append({
            "category": category,
            "events": events,
            "wall_s": wall,
            "wall_pct": 100.0 * wall / total_wall if total_wall > 0 else 0.0,
            "us_per_event": 1e6 * wall / events if events else 0.0,
        })
    rows.sort(key=lambda r: r["wall_s"], reverse=True)
    return rows


def format_profile(profile: dict) -> str:
    """Render a profile payload as an aligned text table."""
    header = f"{'category':<18} {'events':>10} {'wall_s':>9} {'%':>6} {'us/ev':>8}"
    lines = [header, "-" * len(header)]
    for row in profile_table(profile):
        lines.append(
            f"{row['category']:<18} {row['events']:>10} {row['wall_s']:>9.3f} "
            f"{row['wall_pct']:>6.1f} {row['us_per_event']:>8.2f}"
        )
    lines.append(
        f"{'total':<18} {profile.get('total_events', 0):>10} "
        f"{profile.get('total_wall_s', 0.0):>9.3f}"
    )
    return "\n".join(lines)


def merge_profiles(profiles) -> dict | None:
    """Sum per-category counts/wall over payloads (``None`` entries skipped);
    returns ``None`` when nothing was profiled — used when pooling seeds.

    ``sample_stride`` (the field that says whether a profile is exact) is
    carried through when every input agrees on it, and left out otherwise.
    """
    merged: dict[str, list] = {}
    strides = set()
    for profile in profiles:
        if not profile:
            continue
        strides.add(profile.get("sample_stride"))
        for category, data in profile.get("categories", {}).items():
            slot = merged.setdefault(category, [0, 0.0])
            slot[0] += data["events"]
            slot[1] += data["wall_s"]
    if not strides:  # nothing was profiled
        return None
    out = {
        "categories": {
            category: {"events": slot[0], "wall_s": slot[1]}
            for category, slot in sorted(merged.items())
        },
        "total_events": sum(slot[0] for slot in merged.values()),
        "total_wall_s": sum(slot[1] for slot in merged.values()),
    }
    if len(strides) == 1 and None not in strides:
        out["sample_stride"] = strides.pop()
    return out
