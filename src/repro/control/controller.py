"""The closed-loop runtime controller.

One :class:`RuntimeController` per run.  It registers a scheduler
run-loop hook (event-count cadence — never a scheduled event, so the
event calendar is byte-identical with the controller installed or not
*until the first actuation*), and on every tick:

1. reads the switches' pipeline counters (the values a
   ``Network.counters()`` snapshot carries, without building one) and
   computes windowed deltas — per-switch detour rate, fabric-wide drop
   rate — plus two gauges read directly off the switches: hottest-switch
   buffer occupancy and a queueing-delay RTT proxy;
2. runs the per-switch detour-storm circuit breaker: a switch whose
   windowed detour rate explodes has detouring disabled (fall back to
   drop) for ``cooldown_s`` simulated seconds, then re-armed;
3. retunes the global mitigation knobs (ECN mark threshold, detour
   budget, DBA alpha) through :class:`~repro.control.actuators.Actuators`
   with hysteresis (tighten above the high watermark, relax below the
   low one, hold in the dead band) and a per-knob rate limit.

Every input is a counter delta or the simulated clock; every random-free
decision is a pure function of those.  Controlled runs therefore stay
bit-identical serial vs parallel and across ``--resume`` replays.

Counters are exported under the ``controller`` scope of
``Network.counters()`` (so traces and telemetry capture retunes and
degraded-mode windows) and summarized into
``ExperimentResult.controller_stats``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.control.actuators import Actuators
from repro.control.spec import ControllerSpec
from repro.net.packet import MTU_BYTES

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network

__all__ = ["RuntimeController"]

class _BreakerState:
    """Per-switch circuit-breaker window and trip state."""

    __slots__ = ("prev_forwards", "prev_detours", "tripped", "rearm_at")

    def __init__(self) -> None:
        self.prev_forwards = 0
        self.prev_detours = 0
        self.tripped = False
        self.rearm_at = 0.0


class RuntimeController:
    """Watches telemetry, retunes mitigation knobs, fails DIBS soft."""

    def __init__(
        self,
        network: "Network",
        spec: Optional[ControllerSpec] = None,
        transport: Optional[object] = None,
    ) -> None:
        self.network = network
        self.spec = spec if spec is not None else ControllerSpec()
        self.spec.validate()
        self.actuators = Actuators(network, transport=transport)

        # Cumulative decision counters (exported into controller_stats).
        self.ticks = 0
        self.breaker_trips = 0
        self.breaker_rearms = 0
        self.degraded_ticks = 0  # tick x switch spent in degraded mode
        self.retunes_ecn = 0
        self.retunes_detour_cap = 0
        self.retunes_alpha = 0

        # Knob state: live values plus install-time baselines (the
        # relaxation ceiling).
        self._ecn_baseline = self.actuators.current_ecn_threshold()
        self._ecn_current = self._ecn_baseline
        self._cap_baseline = self.actuators.current_detour_cap()
        self._cap_current = self._cap_baseline
        self._alpha_baseline = self.actuators.current_dba_alpha()
        self._alpha_current = self._alpha_baseline
        self._last_retune = {"ecn": -1e18, "cap": -1e18, "alpha": -1e18}

        # Fabric-wide window baselines.
        self._prev_forwards = 0
        self._prev_drops = 0

        # Last-computed gauges (telemetry only; decisions never read them
        # back).
        self._occupancy_milli = 0
        self._queue_delay_proxy_us = 0

        self._breakers = {sw.name: _BreakerState() for sw in network.switches}
        self._hook_handle = None
        # Optional repro.obs.forensics.FlightRecorder: a breaker trip is an
        # anomaly worth a flight dump (the ring shows the detour storm that
        # caused it).
        self.recorder = None

    # ------------------------------------------------------------------
    def install(self) -> "RuntimeController":
        """Attach the run-loop hook and the ``controller`` counter scope,
        and prime the counter windows (call once, before ``network.run``)."""
        if self._hook_handle is not None:
            raise RuntimeError("controller already installed")
        self._prime_windows()
        self._hook_handle = self.network.scheduler.add_hook(
            self._tick, self.spec.cadence_events
        )
        self.network.counter_registry.register("controller", self.counters_dict)
        return self

    def _prime_windows(self) -> None:
        forwards = drops = 0
        for switch in self.network.switches:
            counters = switch.counters
            state = self._breakers[switch.name]
            state.prev_forwards = counters.forwards
            state.prev_detours = counters.detours
            forwards += counters.forwards
            drops += counters.drops
        self._prev_forwards = forwards
        self._prev_drops = drops

    # ------------------------------------------------------------------
    # the control loop body (one run-loop hook invocation)
    # ------------------------------------------------------------------
    def _tick(self, scheduler) -> None:
        self.ticks += 1
        now = scheduler.now
        spec = self.spec
        total_forwards = total_drops = 0

        # --- per-switch detour-storm circuit breaker -------------------
        for switch in self.network.switches:
            counters = switch.counters
            state = self._breakers[switch.name]
            forwards = counters.forwards
            detours = counters.detours
            total_forwards += forwards
            total_drops += counters.drops
            d_forwards = forwards - state.prev_forwards
            d_detours = detours - state.prev_detours
            state.prev_forwards = forwards
            state.prev_detours = detours
            if state.tripped:
                self.degraded_ticks += 1
                if now >= state.rearm_at:
                    state.tripped = False
                    self.actuators.set_detour_enabled(switch, True)
                    self.breaker_rearms += 1
            elif (
                d_detours >= spec.min_window_detours
                and d_detours > spec.detour_rate_trip * max(1, d_forwards)
            ):
                state.tripped = True
                state.rearm_at = now + spec.cooldown_s
                self.actuators.set_detour_enabled(switch, False)
                self.breaker_trips += 1
                if self.recorder is not None:
                    self.recorder.dump(
                        "breaker-trip",
                        f"{switch.name}: {d_detours} detours vs "
                        f"{d_forwards} forwards in window at t={now:.6f}s",
                    )

        # --- windowed fabric signals -----------------------------------
        d_forwards = total_forwards - self._prev_forwards
        d_drops = total_drops - self._prev_drops
        self._prev_forwards = total_forwards
        self._prev_drops = total_drops
        drop_rate = d_drops / max(1, d_forwards)

        switches = self.network.switches
        occupancy = 0.0
        queued_delay = 0.0
        ports = 0
        for switch in switches:
            fill = switch.buffer_fill_fraction()
            if fill > occupancy:
                # Hottest switch, not the mean: incast concentrates on one
                # or two switches and a fabric mean dilutes the signal.
                occupancy = fill
            for port in switch.ports:
                queued_delay += len(port.queue) * MTU_BYTES * 8.0 / port.rate_bps
                ports += 1
        # Mean per-hop queueing delay — the RTT proxy (propagation is a
        # scenario constant; queueing is the part congestion moves).
        queue_delay_proxy = queued_delay / max(1, ports)
        self._occupancy_milli = int(occupancy * 1000)
        self._queue_delay_proxy_us = int(queue_delay_proxy * 1e6)

        # --- hysteresis bands ------------------------------------------
        if drop_rate >= spec.drop_rate_high or occupancy >= spec.occupancy_high:
            self._tighten(now)
        elif drop_rate <= spec.drop_rate_low and occupancy <= spec.occupancy_low:
            self._relax(now)
        # in the dead band: hold every knob.

    # ------------------------------------------------------------------
    # knob movement (rate limited, clamped)
    # ------------------------------------------------------------------
    def _may_retune(self, knob: str, now: float) -> bool:
        return now - self._last_retune[knob] >= self.spec.min_retune_interval_s

    def _tighten(self, now: float) -> None:
        spec = self.spec
        if self._ecn_current is not None and self._may_retune("ecn", now):
            new = max(spec.ecn_min_threshold_pkts, self._ecn_current - spec.ecn_step_pkts)
            if new != self._ecn_current and self.actuators.set_ecn_threshold(new):
                self._ecn_current = new
                self.retunes_ecn += 1
                self._last_retune["ecn"] = now
        if self._may_retune("cap", now):
            cur = self._cap_current
            if cur == 0:  # unlimited: first tighten imposes the max cap
                new = spec.detour_cap_max
            else:
                new = max(spec.detour_cap_min, cur - spec.detour_cap_step)
            if new != cur:
                self.actuators.set_detour_cap(new)
                self._cap_current = new
                self.retunes_detour_cap += 1
                self._last_retune["cap"] = now
        if self._alpha_current is not None and self._may_retune("alpha", now):
            new = max(spec.dba_alpha_min, self._alpha_current - spec.dba_alpha_step)
            if new != self._alpha_current:
                self.actuators.set_dba_alpha(new)
                self._alpha_current = new
                self.retunes_alpha += 1
                self._last_retune["alpha"] = now

    def _relax(self, now: float) -> None:
        spec = self.spec
        if (
            self._ecn_current is not None
            and self._ecn_current < self._ecn_baseline
            and self._may_retune("ecn", now)
        ):
            new = min(self._ecn_baseline, self._ecn_current + spec.ecn_step_pkts)
            if self.actuators.set_ecn_threshold(new):
                self._ecn_current = new
                self.retunes_ecn += 1
                self._last_retune["ecn"] = now
        if self._cap_current != self._cap_baseline and self._may_retune("cap", now):
            cur = self._cap_current
            if self._cap_baseline == 0:
                # Step back up; past the max cap the budget goes unlimited
                # again (the baseline).
                new = cur + spec.detour_cap_step
                if new > spec.detour_cap_max:
                    new = 0
            else:
                new = min(self._cap_baseline, cur + spec.detour_cap_step)
            self.actuators.set_detour_cap(new)
            self._cap_current = new
            self.retunes_detour_cap += 1
            self._last_retune["cap"] = now
        if (
            self._alpha_current is not None
            and self._alpha_current < self._alpha_baseline
            and self._may_retune("alpha", now)
        ):
            new = min(self._alpha_baseline, self._alpha_current + spec.dba_alpha_step)
            self.actuators.set_dba_alpha(new)
            self._alpha_current = new
            self.retunes_alpha += 1
            self._last_retune["alpha"] = now

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    @property
    def degraded_now(self) -> int:
        """Switches currently running with detouring breaker-disabled."""
        return sum(1 for state in self._breakers.values() if state.tripped)

    def counters_dict(self) -> dict[str, int]:
        """The ``controller`` counter scope: cumulative decision counters
        plus instantaneous knob/signal gauges, so traces and counter
        snapshots capture every retune and degraded window."""
        counters = self.stats_dict()
        counters.update(
            degraded_now=self.degraded_now,
            occupancy_milli=self._occupancy_milli,
            queue_delay_proxy_us=self._queue_delay_proxy_us,
            ecn_threshold_pkts=self._ecn_current if self._ecn_current is not None else 0,
            detour_cap=self._cap_current,
            dba_alpha_milli=(
                int(self._alpha_current * 1000) if self._alpha_current is not None else 0
            ),
        )
        return counters

    def heartbeat_dict(self) -> dict:
        """Live control-plane state for :class:`repro.obs.heartbeat.SimHeartbeat`
        records: current knob values and which switches are breaker-tripped."""
        return {
            "ecn_threshold_pkts": self._ecn_current,
            "detour_cap": self._cap_current,
            "dba_alpha": self._alpha_current,
            "degraded_now": self.degraded_now,
            "breakers_tripped": sorted(
                name for name, state in self._breakers.items() if state.tripped
            ),
        }

    def finish(self) -> None:
        """Nothing to flush: the hook stays, and stats are read by
        :meth:`contribute`."""

    def contribute(self, result) -> None:
        result.controller_stats = self.stats_dict()

    def stats_dict(self) -> dict[str, int]:
        """Cumulative counters only (safe to sum across pooled seeds);
        this is what lands in ``ExperimentResult.controller_stats``."""
        return {
            "ticks": self.ticks,
            "breaker_trips": self.breaker_trips,
            "breaker_rearms": self.breaker_rearms,
            "degraded_ticks": self.degraded_ticks,
            "retunes_ecn": self.retunes_ecn,
            "retunes_detour_cap": self.retunes_detour_cap,
            "retunes_alpha": self.retunes_alpha,
            "retunes_total": self.retunes_ecn + self.retunes_detour_cap + self.retunes_alpha,
        }
