"""Transport protocols: TCP/NewReno, DCTCP, pFabric, FairQ, Tiny-Buffer."""

from repro._exports import export_lazily

__all__ = export_lazily(__name__, {
    "FlowHandle": "repro.transport.base",
    "TcpConfig": "repro.transport.base",
    "dctcp_config": "repro.transport.base",
    "dibs_host_config": "repro.transport.base",
    "TcpSender": "repro.transport.tcp",
    "TcpReceiver": "repro.transport.tcp",
    "PacedSender": "repro.transport.pacing",
    "FairQConfig": "repro.transport.fairq",
    "FairQSender": "repro.transport.fairq",
    "FairQReceiver": "repro.transport.fairq",
    "TinyBufferConfig": "repro.transport.tinybuf",
    "TinyBufferSender": "repro.transport.tinybuf",
    "PFabricConfig": "repro.transport.pfabric",
    "PFabricSender": "repro.transport.pfabric",
    "PFabricReceiver": "repro.transport.pfabric",
    "MptcpConfig": "repro.transport.mptcp",
    "MptcpFlow": "repro.transport.mptcp",
    "start_mptcp_flow": "repro.transport.mptcp",
})
