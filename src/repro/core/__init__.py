"""DIBS core: detour policies and switch-side configuration."""

from repro._exports import export_lazily

__all__ = export_lazily(__name__, {
    "DibsConfig": "repro.core.config",
    "DetourPolicy": "repro.core.detour",
    "RandomDetourPolicy": "repro.core.detour",
    "LoadAwareDetourPolicy": "repro.core.detour",
    "FlowBasedDetourPolicy": "repro.core.detour",
    "ProbabilisticDetourPolicy": "repro.core.detour",
    "make_policy": "repro.core.detour",
})
