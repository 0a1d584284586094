"""Data center topologies."""

from repro._exports import export_lazily

__all__ = export_lazily(__name__, {
    "LinkSpec": "repro.topo.base",
    "Topology": "repro.topo.base",
    "fat_tree": "repro.topo.fattree",
    "fat_tree_stats": "repro.topo.fattree",
    "hyperx": "repro.topo.hyperx",
    "click_testbed": "repro.topo.testbed",
    "leaf_spine": "repro.topo.misc",
    "linear": "repro.topo.misc",
    "jellyfish": "repro.topo.misc",
})
