"""repro.obs — the unified instrumentation layer.

Zero-dependency observability for every solver family in the library:

* :class:`MetricsRegistry` — process-local counters, gauges and
  histograms with labels (``prunes{rule="pr2",solver="bb-ghw"}``),
* :class:`Tracer` — nested wall-clock spans with a near-zero-cost
  no-op mode,
* :class:`Budget` — the one wall-clock / operation budget all solver
  loops share,
* :class:`RunReport` — the structured JSONL telemetry record the
  experiment runner and CLI emit.

Activation is ambient::

    from repro import obs

    with obs.instrument() as ins:
        result = branch_and_bound_ghw(hypergraph)
    print(ins.metrics.snapshot()['prunes{rule="pr1",solver="bb-ghw"}'])

Outside an :func:`instrument` block, :func:`current` returns a disabled
pair whose instruments are shared no-ops, so uninstrumented callers pay
(almost) nothing. Metric-name and span conventions are documented in
``docs/observability.md``.
"""

from repro._lazy import lazy_exports
from repro.obs.budget import Budget
from repro.obs.control import LocalControl, SolverControl
from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    series_key,
)
from repro.obs.runtime import (
    DISABLED,
    Instruments,
    current,
    instrument,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Span, Tracer

# Read once a run is over: writing and rendering reports.
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "render": ("render_metrics", "render_report", "render_spans"),
    "report": (
        "SCHEMA_VERSION",
        "RunReport",
        "append_jsonl",
        "peak_rss_kb",
        "read_jsonl",
        "validate_report",
    ),
})

__all__ = [
    "Budget",
    "Counter",
    "DISABLED",
    "Gauge",
    "Histogram",
    "Instruments",
    "LocalControl",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullMetricsRegistry",
    "NullTracer",
    "RunReport",
    "SCHEMA_VERSION",
    "SolverControl",
    "Span",
    "Tracer",
    "append_jsonl",
    "current",
    "instrument",
    "peak_rss_kb",
    "read_jsonl",
    "render_metrics",
    "render_report",
    "render_spans",
    "series_key",
    "validate_report",
]
