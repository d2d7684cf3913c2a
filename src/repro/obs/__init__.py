"""Unified telemetry: metrics registry, span tracer and exporters.

``repro.obs`` is the one queryable surface for everything the system
measures about itself.  It has two halves:

``repro.obs.metrics``
    A process-global :class:`MetricsRegistry` of counters, gauges and
    fixed-bucket histograms.  Instruments are cheap enough for hot
    paths and — unless registered with ``always=True`` — record nothing
    while telemetry is disabled.
``repro.obs.trace``
    A thread-safe span tracer: nested wall-clock spans with attributes.
    Process-pool shard workers record spans locally and ship them back
    in their :class:`~repro.analysis.engine.ShardResult`; the
    coordinator adopts them so one timeline covers the whole build.

Telemetry is **off by default**.  It turns on when the environment
variable ``REPRO_TELEMETRY`` is set to anything but ``0``/``false``/
``off``/``no``, when a ``repro`` subcommand receives ``--trace`` or
``--metrics-out`` (the CLI exports the environment variable so
process-pool workers inherit it), or programmatically via
:func:`set_telemetry`.  Instrumentation never perturbs results: every
byte-identity oracle holds with telemetry on, and the stream-replay
overhead is gated as an on/off throughput ratio in ``tests/test_obs.py``.

A few counters are *always on* regardless of the switch: they back
pre-existing public accessors (``materialized_record_count()``,
``CorpusEngine.last_plan["faults"]``, ``StreamHealth``) that must keep
answering even in untraced runs.  The registry is their single source
of truth; the old accessors remain as back-compat reads.

Exporters (``repro.obs.export``): a JSON metrics snapshot (attached to
every ``--json`` document), Prometheus text exposition
(``--metrics-out metrics.prom``) and a Chrome trace-event timeline
(``--trace trace.json``, loadable in ``chrome://tracing`` / Perfetto).
See ``docs/observability.md`` for the metric catalogue.
"""

from repro.obs.metrics import (
    TELEMETRY_ENV_VAR,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    enable_telemetry,
    gauge,
    histogram,
    metric_value,
    registry,
    set_telemetry,
    telemetry_enabled,
)
from repro.obs.trace import Span, SpanRecord, Tracer, tracer
from repro.obs.export import (
    chrome_trace,
    metrics_snapshot,
    prometheus_text,
    write_chrome_trace,
    write_prometheus,
)


def reset_all() -> None:
    """Zero every metric and drop every recorded span (tests, benches)."""

    registry().reset()
    tracer().reset()


__all__ = [
    "TELEMETRY_ENV_VAR",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanRecord",
    "Tracer",
    "chrome_trace",
    "counter",
    "enable_telemetry",
    "gauge",
    "histogram",
    "metric_value",
    "metrics_snapshot",
    "prometheus_text",
    "registry",
    "reset_all",
    "set_telemetry",
    "telemetry_enabled",
    "tracer",
    "write_chrome_trace",
    "write_prometheus",
]
