"""Closed-loop runtime control (ROADMAP item 5, wanctl-style).

The simulator's mitigation knobs — the ECN marking threshold, the DBA
dynamic-threshold ``alpha``, the per-packet detour budget — are static
per-scenario configuration everywhere else in the tree.  This package
closes the loop at runtime: :class:`RuntimeController` rides the
scheduler's run-loop hooks, reads windowed deltas out of
``Network.counters()`` snapshots, and retunes those knobs live through
:class:`Actuators`, with hysteresis and per-knob rate limiting so the
loop itself cannot thrash.

It also carries DIBS's graceful-degradation guard: a per-switch
detour-storm circuit breaker that temporarily disables detouring (fall
back to plain drop) when the windowed detour rate explodes, re-arming
after a cooldown.  Every decision derives from counters plus simulated
time — never wall clock — so controlled runs stay bit-identical across
worker processes and ``--resume`` replays.
"""

from repro._exports import export_lazily

__all__ = export_lazily(__name__, {
    "Actuators": "repro.control.actuators",
    "ControllerSpec": "repro.control.spec",
    "RuntimeController": "repro.control.controller",
})
