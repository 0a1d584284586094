"""Fault injection and runtime robustness guards.

This package makes runs-under-failure first-class: deterministic fault
schedules (:mod:`repro.faults.schedule`) applied by an injector
(:mod:`repro.faults.injector`), a livelock watchdog hooked into the
scheduler's run loop (:mod:`repro.faults.watchdog`), and periodic in-run
invariant checks (:mod:`repro.faults.guards`).

The paper's robustness claim — DIBS keeps working as long as congestion is
transient — only means something if the simulator can *create* the
non-transient cases: dead core links shrinking the detour mask, crashed
switches, random link flaps, CRC corruption.  Everything here is
deterministic given the scenario seed, so faulty runs remain bit-identical
across the serial and parallel executors.
"""

from repro._exports import export_lazily

__all__ = export_lazily(__name__, {
    "FaultEvent": "repro.faults.schedule",
    "FaultSchedule": "repro.faults.schedule",
    "FaultInjector": "repro.faults.injector",
    "install_faults": "repro.faults.injector",
    "load_fault_spec": "repro.faults.schedule",
    "Watchdog": "repro.faults.watchdog",
    "InvariantChecker": "repro.faults.guards",
    "InvariantError": "repro.faults.guards",
    "LivelockError": "repro.sim.engine",
    "LINK_DOWN": "repro.faults.schedule",
    "LINK_UP": "repro.faults.schedule",
    "SWITCH_FAIL": "repro.faults.schedule",
    "SWITCH_RECOVER": "repro.faults.schedule",
    "PACKET_CORRUPT": "repro.faults.schedule",
    "FAULT_KINDS": "repro.faults.schedule",
})
