"""Post-run analysis: comparisons and terminal charts."""

from repro._exports import export_lazily

__all__ = export_lazily(__name__, {
    "bar_chart": "repro.analysis.asciiplot",
    "cdf_plot": "repro.analysis.asciiplot",
    "line_plot": "repro.analysis.asciiplot",
    "sparkline": "repro.analysis.asciiplot",
    "Comparison": "repro.analysis.compare",
    "compare": "repro.analysis.compare",
    "improvement_pct": "repro.analysis.compare",
})
