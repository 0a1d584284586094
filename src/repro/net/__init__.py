"""Packet-level network substrate: packets, queues, links, switches, hosts."""

from repro._exports import export_lazily

__all__ = export_lazily(__name__, {
    "Host": "repro.net.host",
    "Port": "repro.net.link",
    "connect": "repro.net.link",
    "Network": "repro.net.network",
    "SwitchQueueConfig": "repro.net.network",
    "Node": "repro.net.node",
    "Packet": "repro.net.packet",
    "ACK": "repro.net.packet",
    "DATA": "repro.net.packet",
    "DEFAULT_TTL": "repro.net.packet",
    "MSS_BYTES": "repro.net.packet",
    "MTU_BYTES": "repro.net.packet",
    "INFINITE_CAPACITY": "repro.net.queues",
    "DropTailQueue": "repro.net.queues",
    "DynamicBufferQueue": "repro.net.queues",
    "EcnQueue": "repro.net.queues",
    "PFabricQueue": "repro.net.queues",
    "SharedBufferPool": "repro.net.queues",
    "Switch": "repro.net.switch",
    "SwitchCounters": "repro.net.switch",
    "ConservationReport": "repro.net.audit",
    "assert_conserved": "repro.net.audit",
    "conservation_report": "repro.net.audit",
    "PfcController": "repro.net.pfc",
    "enable_pfc": "repro.net.pfc",
    "CioqSwitch": "repro.net.cioq",
})
