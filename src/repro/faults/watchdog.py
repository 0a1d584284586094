"""Livelock watchdog.

A simulator bug (or a pathological DIBS configuration — e.g. every detour
port down, TTL effectively disabled) can put the event loop into a state
where it processes events forever without simulated time advancing, or
bounces a packet between switches indefinitely.  Both freeze wall-clock
progress while the process looks busy, which is the worst failure mode for
an unattended parameter sweep.

The watchdog catches both:

* **Stalled clock** — it hooks the scheduler's run loop
  (:meth:`~repro.sim.engine.Scheduler.add_hook`, NOT a scheduled event: a
  livelock freezes simulated time, so a time-scheduled check would never
  fire) and is called every ``check_every_events`` processed events.
  If the clock has not moved across ``stall_checks`` consecutive calls, the
  run aborts with :class:`~repro.sim.engine.LivelockError`.
* **Hop explosion** — installing the watchdog tightens every switch's
  per-packet hop guard to a TTL-derived bound, so a packet circling the
  fabric raises :class:`LivelockError` at the switch that exceeds it rather
  than looping until float exhaustion.

Both checks are deterministic (event counts and hop counts, no wall-clock
reads), so a watchdog abort reproduces exactly under the same seed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sim.engine import LivelockError, Scheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network

__all__ = ["Watchdog", "LivelockError"]


class Watchdog:
    """Aborts a run that stops making simulated-time progress."""

    def __init__(
        self,
        scheduler: Scheduler,
        check_every_events: int = 100_000,
        stall_checks: int = 2,
        max_hops: Optional[int] = None,
        recorder=None,
    ) -> None:
        if check_every_events < 1:
            raise ValueError("check interval must be at least one event")
        if stall_checks < 1:
            raise ValueError("stall_checks must be at least 1")
        self.scheduler = scheduler
        self.check_every_events = check_every_events
        self.stall_checks = stall_checks
        self.max_hops = max_hops
        # Optional repro.obs.forensics.FlightRecorder, dumped just before a
        # livelock abort — the ring holds the packet storm that caused it.
        self.recorder = recorder
        self.checks_run = 0
        self._last_now: Optional[float] = None
        self._stalled_for = 0
        self._hook: Optional[tuple] = None

    def install(self, network: Optional["Network"] = None) -> "Watchdog":
        """Attach to the scheduler's run loop as a hook (firing in install
        order with the other hooks); optionally arm the hop guard on every
        switch of ``network``."""
        if self._hook is None:
            self._hook = self.scheduler.add_hook(self._tick, self.check_every_events)
        if network is not None and self.max_hops is not None:
            for switch in network.switches:
                switch.hop_limit = self.max_hops
        return self

    def uninstall(self) -> None:
        """Detach this watchdog's hook (other hooks stay installed)."""
        if self._hook is not None:
            self.scheduler.remove_hook(self._hook)
            self._hook = None

    def _tick(self, scheduler: Scheduler) -> None:
        self.checks_run += 1
        now = scheduler.now
        if self._last_now is not None and now == self._last_now:
            self._stalled_for += 1
            if self._stalled_for >= self.stall_checks:
                message = (
                    f"simulated time stuck at {now!r} for "
                    f"{self._stalled_for * self.check_every_events} events — "
                    f"likely a zero-delay event cycle (livelock)"
                )
                if self.recorder is not None:
                    self.recorder.dump("watchdog-stall", message)
                raise LivelockError(message)
        else:
            self._stalled_for = 0
        self._last_now = now
