"""``repro.obs``: the whole-system observability layer.

Metrics (counters / gauges / histograms with a zero-cost disabled path),
phase-span tracing, and a hot-block profiler read off the translation
cache -- the measurement substrate the ROADMAP's performance work reports
against.  See ``docs/observability.md`` for the metric vocabulary and
``repro stats`` for the CLI surface.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_HISTOGRAM,
    NULL_REGISTRY,
)
from repro.obs.profiler import BlockProfile, HotBlockProfiler
from repro.obs.render import render_snapshot
from repro.obs.session import ObsSession
from repro.obs.spans import NULL_TRACER, SpanRecord, Tracer

__all__ = [
    "BlockProfile",
    "Counter",
    "Gauge",
    "Histogram",
    "HotBlockProfiler",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_HISTOGRAM",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "ObsSession",
    "SpanRecord",
    "Tracer",
    "render_snapshot",
]
