"""Unified observability plane: clocks, tracing, profiling, metrics hub.

Five subsystems (serving, partitioned training, the fused engine,
streaming, online adaptation) each grew their own slice of telemetry;
this package is the cross-cutting layer that makes them observable as
*one* system, in three planes:

* **Deterministic time** (:mod:`repro.obs.clock`) — every latency
  measurement in the repository routes through one injectable clock
  pair (:func:`now` monotonic / :func:`wall_time` epoch).  Installing a
  :class:`FakeClock` under :func:`use_clock` makes latency-dependent
  behaviour (micro-batch ``max_wait`` deadlines, rolling QPS, span
  durations, training wall-clock) fully reproducible under test.
* **Deterministic tracing** (:mod:`repro.obs.tracing`) — a span-tree
  :class:`Tracer` with a context-manager + decorator API instrumented
  along the full serving request path (admission → queue wait → batch
  assembly → subgraph extraction → engine forward → response), the
  streaming ingest path (event apply → watermark fold → delta
  invalidation) and the training step path.  Trees export as a
  flamegraph-style text rendering and as Chrome-trace JSON.  Disabled
  (the default, :data:`NULL_TRACER`), every instrumentation point costs
  one dict-free null context manager — ``benchmarks/test_obs_overhead.py``
  checks that stays under 2% of serving p95 and engine step time.
* **Per-kernel engine profiling** (:mod:`repro.obs.profiling`) — a
  :class:`KernelProfiler` installed into the
  :class:`~repro.nn.engine.ExecutionPlan` replay loops accumulates
  per-:class:`~repro.nn.engine.OpKernel` call counts, cumulative time
  and estimated FLOPs/bytes, surfaced through
  :meth:`~repro.nn.engine.CompiledLoss.profile_report`.
* **A federated** :class:`MetricsHub` (:mod:`repro.obs.hub`) — the
  per-component registries (gateway
  :class:`~repro.serving.metrics.MetricsRegistry`, streaming
  :meth:`~repro.streaming.features.StreamingFeatureStore.freshness_report`,
  :class:`~repro.training.online.OnlineAdapter` drift/swap counters,
  :class:`~repro.training.parallel.ParallelTrainer` per-shard timings)
  federate under namespaced counter/gauge/histogram series with
  Prometheus-text and JSONL exporters.

On top of the passive planes sits the **active health plane**:

* **SLO engine** (:mod:`repro.obs.slo`) — declarative :class:`SLO`
  objectives over hub series with error budgets and SRE-style
  multi-window burn-rate alerting (fast 5m/1h page + slow 6h/3d
  ticket pairs), deterministic under :class:`FakeClock`.
* **Anomaly detection** (:mod:`repro.obs.anomaly`) — EWMA
  mean/variance z-score detectors over hub series (ingest-rate
  collapse, p95 step-changes, cache hit-rate cliffs) with warm-up
  suppression, baseline freezing and hysteresis.
* **Health probes** (:mod:`repro.obs.health`) — per-subsystem
  liveness/readiness (gateway, streaming, online adapter, durable
  journal, model registry) aggregated by a :class:`HealthServer`.
* **Flight recorder** (:mod:`repro.obs.recorder`) — bounded ring
  buffers of recent trace roots, metric samples and alert/probe
  transitions; ``dump()`` freezes them into one JSON diagnostic
  bundle, automatically on alert firing, probe flips and
  durability incidents.

See ``docs/observability.md`` for the design guide and
``examples/observability.py`` / ``examples/health_plane.py`` for
end-to-end tours.
"""

from .anomaly import AnomalyMonitor, EwmaZScoreDetector
from .clock import (
    Clock,
    FakeClock,
    SystemClock,
    get_clock,
    now,
    set_clock,
    use_clock,
    wall_time,
)
from .health import (
    HealthServer,
    ProbeResult,
    durable_probe,
    gateway_probe,
    online_probe,
    registry_probe,
    streaming_probe,
)
from .hub import MetricsHub
from .profiling import KernelProfiler, estimate_cost, profile_kernels
from .recorder import (
    FlightRecorder,
    get_recorder,
    note,
    set_recorder,
    use_recorder,
)
from .slo import DEFAULT_BURN_WINDOWS, SLO, BurnWindow, SLOEngine, Transition
from .tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    span,
    tracing_enabled,
    use_tracer,
)

__all__ = [
    "Clock",
    "SystemClock",
    "FakeClock",
    "get_clock",
    "set_clock",
    "use_clock",
    "now",
    "wall_time",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "span",
    "tracing_enabled",
    "KernelProfiler",
    "estimate_cost",
    "profile_kernels",
    "MetricsHub",
    "Transition",
    "BurnWindow",
    "DEFAULT_BURN_WINDOWS",
    "SLO",
    "SLOEngine",
    "EwmaZScoreDetector",
    "AnomalyMonitor",
    "ProbeResult",
    "HealthServer",
    "gateway_probe",
    "streaming_probe",
    "online_probe",
    "durable_probe",
    "registry_probe",
    "FlightRecorder",
    "get_recorder",
    "set_recorder",
    "use_recorder",
    "note",
]
