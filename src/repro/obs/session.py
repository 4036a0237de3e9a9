"""One observability session: registry + tracer + profiler, as a unit.

Every analysis run that wants telemetry needs the same three pieces
wired the same way -- a :class:`~repro.obs.metrics.MetricsRegistry` for
the component gauges/counters, a :class:`~repro.obs.spans.Tracer` for
the boot/attack/detection/report phases, and a
:class:`~repro.obs.profiler.HotBlockProfiler` that ranks the machine's
translated blocks at snapshot time.  The profiler implements no
per-instruction hook, so an observed run executes the same tier as an
unobserved one.  :class:`ObsSession` bundles them so call sites read::

    session = ObsSession.create(metrics_enabled)
    faros = Faros(metrics=session.registry)
    with session.span("detection"):
        replay(recording, plugins=session.plugins_for(faros),
               metrics=session.registry)
    snap = session.snapshot()

A disabled session hands out the process-wide null registry/tracer and
no profiler, so the disabled path allocates three attribute slots and
nothing else.
"""

from __future__ import annotations

from typing import List, Optional

from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.obs.profiler import HotBlockProfiler
from repro.obs.spans import NULL_TRACER, Tracer

__all__ = ["ObsSession"]


class ObsSession:
    """The per-run observability bundle (see module docstring)."""

    def __init__(
        self,
        registry: MetricsRegistry,
        tracer: Tracer,
        profiler: Optional[HotBlockProfiler],
        top_blocks: int = 10,
    ) -> None:
        self.registry = registry
        self.tracer = tracer
        self.profiler = profiler
        #: Default hot-block ranking depth for :meth:`snapshot`.
        self.top_blocks = top_blocks

    @classmethod
    def create(cls, enabled: bool, top_blocks: int = 10) -> "ObsSession":
        """An enabled session with fresh instruments, or the null wiring."""
        if not enabled:
            return cls(NULL_REGISTRY, NULL_TRACER, None)
        return cls(
            MetricsRegistry(enabled=True),
            Tracer(enabled=True),
            HotBlockProfiler(),
            top_blocks=top_blocks,
        )

    @property
    def enabled(self) -> bool:
        return self.registry.enabled

    def span(self, name: str, clock=None):
        """Trace the enclosed block as phase *name* (no-op when disabled)."""
        return self.tracer.span(name, clock=clock)

    def plugins_for(self, faros) -> List:
        """The plugin list for an analysis run: FAROS, then the profiler
        when the session is enabled."""
        if self.profiler is None:
            return [faros]
        return [faros, self.profiler]

    def snapshot(self, top_blocks: Optional[int] = None) -> dict:
        """Everything this session observed, as one JSON-ready dict."""
        n = self.top_blocks if top_blocks is None else top_blocks
        snap = self.registry.snapshot()
        snap["spans"] = self.tracer.to_dicts()
        snap["hot_blocks"] = (
            self.profiler.snapshot(n) if self.profiler is not None else None
        )
        return snap
