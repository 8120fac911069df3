"""Observability: causal spans, time-series metrics, histograms, exporters.

The layer is strictly additive — every producer defaults to a disabled
:class:`~repro.obs.spans.SpanTracer` / :class:`~repro.obs.metrics.MetricsSampler`
so the hot paths pay a single branch when tracing is off.  On top of
the per-machine collectors sit the fleet-level pieces the always-on
service uses: request-scoped trace contexts
(:mod:`repro.obs.context`), log-bucketed latency histograms with
exemplars (:mod:`repro.obs.histogram`, the one latency aggregator),
per-shard flight recorders with postmortem bundles
(:mod:`repro.obs.flightrec`), and the declarative SLO burn-rate engine
(:mod:`repro.obs.slo`).  Wall-clock profiling lives outside the
package, in ``perfbench/``.  See ``docs/observability.md`` for the span
model and export formats.
"""

from .context import TraceContext, causal_tree, make_trace_id, spans_for_trace
from .export import (chrome_trace, ensure_valid_chrome_trace, span_summary_table,
                     span_tree_roots, spans_jsonl, validate_chrome_trace,
                     write_chrome_trace)
from .flightrec import FlightRecorder
from .histogram import LatencyHistogram
from .metrics import MetricsSampler
from .slo import SloBreach, SloEngine, SloRule, default_slos, load_slo_spec
from .spans import NULL_SPAN, Span, SpanTracer, disabled_tracer
from .writer import write_json, write_text

__all__ = [
    "Span",
    "SpanTracer",
    "NULL_SPAN",
    "disabled_tracer",
    "TraceContext",
    "make_trace_id",
    "causal_tree",
    "spans_for_trace",
    "LatencyHistogram",
    "FlightRecorder",
    "SloRule",
    "SloEngine",
    "SloBreach",
    "default_slos",
    "load_slo_spec",
    "MetricsSampler",
    "chrome_trace",
    "validate_chrome_trace",
    "ensure_valid_chrome_trace",
    "write_chrome_trace",
    "spans_jsonl",
    "span_tree_roots",
    "span_summary_table",
    "write_json",
    "write_text",
]
