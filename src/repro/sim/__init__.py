"""Discrete-event simulation substrate (scheduler + deterministic RNG)."""

from repro._exports import export_lazily

__all__ = export_lazily(__name__, {
    "Event": "repro.sim.engine",
    "Scheduler": "repro.sim.engine",
    "SimulationError": "repro.sim.engine",
    "RngFactory": "repro.sim.rng",
    "stable_hash": "repro.sim.rng",
})
