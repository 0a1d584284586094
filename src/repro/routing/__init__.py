"""Shortest-path FIB computation with ECMP next-hop sets."""

from repro._exports import export_lazily

__all__ = export_lazily(__name__, {
    "compute_fibs": "repro.routing.fib",
    "shortest_path_lengths": "repro.routing.fib",
})
