"""Controller configuration.

A :class:`ControllerSpec` is the complete policy of the runtime
controller: how often it wakes up, the watermarks of its hysteresis
bands, the circuit-breaker trip condition, and the bounds/steps of every
actuated knob.  Scenarios carry the spec as a *canonical JSON string*
(``Scenario.controller_spec``) so the frozen dataclass round-trips
through ``asdict`` → JSON → ``Scenario(**fields)`` unchanged — the same
invariant every other scenario field honours for the journal hash and
the worker-process boundary.

Hysteresis layout (see docs/INTERNALS.md): every windowed signal has a
*high* and a *low* watermark with a dead band between them.  The
controller tightens only above high, relaxes only below low, and holds
inside the band, so a signal hovering near one threshold cannot make the
loop oscillate.  Rate limiting (``min_retune_interval_s`` of simulated
time per knob) bounds the retune frequency even when a signal swings
across the whole band every window.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Optional

__all__ = ["ControllerSpec"]


@dataclass(frozen=True)
class ControllerSpec:
    """Policy knobs of the closed control loop (all simulated-time/event
    units; nothing here reads a wall clock)."""

    # Run-loop hook cadence: one controller tick per this many dispatched
    # events (elided tx-dones are not dispatched, so they do not count).
    # Event-count cadence never perturbs the event calendar, and the
    # dispatched-event stream is a function of the seed, so the tick times
    # are deterministic.
    cadence_events: int = 2_000

    # --- detour-storm circuit breaker (per switch) ---------------------
    # Trip when, within one window, detours exceed ``detour_rate_trip`` of
    # forwards AND at least ``min_window_detours`` detours happened (the
    # floor keeps a two-packet blip at startup from tripping anything).
    detour_rate_trip: float = 0.25
    min_window_detours: int = 30
    # Simulated seconds of degraded (detours-off) operation before re-arm.
    cooldown_s: float = 0.050

    # --- hysteresis watermarks ----------------------------------------
    # Windowed drop rate = switch drops / forwards over one window.
    drop_rate_high: float = 0.02
    drop_rate_low: float = 0.002
    # Hottest-switch buffer occupancy (fill fraction) at tick time — the
    # max over switches, not the mean: incast concentrates on one or two
    # switches and a fabric-wide mean dilutes exactly the signal the
    # controller needs to act on.
    occupancy_high: float = 0.25
    occupancy_low: float = 0.08
    # Per-knob rate limit in simulated seconds.
    min_retune_interval_s: float = 0.010

    # --- ECN mark threshold actuator ----------------------------------
    ecn_min_threshold_pkts: int = 2
    ecn_step_pkts: int = 2

    # --- detour budget ("detour TTL") actuator ------------------------
    # DibsConfig.max_detours_per_packet: 0 means unlimited (the paper's
    # configuration).  Tightening an unlimited budget first imposes
    # ``detour_cap_max``, then steps down toward ``detour_cap_min``.
    detour_cap_min: int = 8
    detour_cap_max: int = 64
    detour_cap_step: int = 8

    # --- DBA alpha actuator -------------------------------------------
    dba_alpha_min: float = 0.25
    dba_alpha_step: float = 0.25

    # ------------------------------------------------------------------
    def validate(self) -> None:
        if self.cadence_events < 1:
            raise ValueError("cadence_events must be at least 1")
        if not (0.0 < self.detour_rate_trip <= 1.0):
            raise ValueError("detour_rate_trip must be in (0, 1]")
        if self.min_window_detours < 1:
            raise ValueError("min_window_detours must be at least 1")
        if self.cooldown_s <= 0:
            raise ValueError("cooldown_s must be positive")
        if not (0.0 <= self.drop_rate_low < self.drop_rate_high):
            raise ValueError("need 0 <= drop_rate_low < drop_rate_high")
        if not (0.0 <= self.occupancy_low < self.occupancy_high):
            raise ValueError("need 0 <= occupancy_low < occupancy_high")
        if self.min_retune_interval_s < 0:
            raise ValueError("min_retune_interval_s cannot be negative")
        if self.ecn_min_threshold_pkts < 1 or self.ecn_step_pkts < 1:
            raise ValueError("ECN threshold bounds must be positive")
        if not (0 < self.detour_cap_min <= self.detour_cap_max):
            raise ValueError("need 0 < detour_cap_min <= detour_cap_max")
        if self.detour_cap_step < 1:
            raise ValueError("detour_cap_step must be positive")
        if not (0.0 < self.dba_alpha_min):
            raise ValueError("dba_alpha_min must be positive")
        if self.dba_alpha_step <= 0:
            raise ValueError("dba_alpha_step must be positive")

    # ------------------------------------------------------------------
    # JSON round trip (the Scenario.controller_spec wire format)
    # ------------------------------------------------------------------
    @classmethod
    def from_json_text(cls, text: Optional[str]) -> "ControllerSpec":
        """Parse a spec from JSON text; ``None``/empty gives the defaults.

        Unknown keys are an error (a typoed knob silently running the
        defaults is the worst possible failure mode for a sweep)."""
        if not text:
            spec = cls()
        else:
            try:
                payload = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ValueError(f"controller spec is not valid JSON: {exc}") from exc
            if not isinstance(payload, dict):
                raise ValueError("controller spec must be a JSON object")
            known = {f.name for f in fields(cls)}
            unknown = sorted(set(payload) - known)
            if unknown:
                raise ValueError(
                    f"unknown controller spec keys: {unknown}; known: {sorted(known)}"
                )
            spec = cls(**payload)
        spec.validate()
        return spec

    def to_json_text(self) -> str:
        """Canonical (sorted, compact) JSON — stable under round trips, so
        the scenario journal hash does not depend on key order."""
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
