"""A federated metrics hub: one namespaced view over every registry.

Each subsystem keeps its own telemetry object — the gateway's
:class:`~repro.serving.metrics.MetricsRegistry`, the streaming store's
``freshness_report()``, the :class:`~repro.training.parallel.ParallelTrainer`
per-block timings.  A :class:`MetricsHub` federates them and stores
nothing itself: every source registers under a unique namespace with a
zero-argument ``collect`` callable, and :meth:`MetricsHub.collect`
pulls all of them into one flat list of series with explicit kinds
(``counter`` / ``gauge`` / ``histogram``).  Sources are read at
collection time, so a hub is free to outlive model swaps and gateway
restarts, and each quantity is counted once, by its owner.

:meth:`~MetricsHub.to_prometheus` renders Prometheus text exposition
(histograms as summaries with p50/p95/p99 quantile labels), and
:func:`series_values` is the one reader the SLO engine and the anomaly
monitor turn a collection into ``{"namespace.name": value}`` with.

Source ``collect`` callables return a ``name -> spec`` mapping where a
spec is either a bare number (treated as a gauge) or a dict::

    {"kind": "counter", "value": 42.0}
    {"kind": "gauge", "value": 0.93, "help": "HELP text for the exporter"}
    {"kind": "histogram", "summary": {"count": ..., "mean": ...,
                                      "p50": ..., "p95": ..., "p99": ...}}

An ad-hoc series needs no instrument of its own: a dict-backed source
(``hub.register_source("app", lambda: values)``) exports whatever the
caller last wrote into ``values``.  Histogram summaries come from their
owner (:meth:`~repro.serving.metrics.RollingWindow.summary`), so every
percentile in the repository is computed by
:func:`~repro.serving.metrics.percentile_summary`.  The ``attach_*``
helpers build these adapters for the in-repo sources; they are
duck-typed, so the hub module imports nothing outside :mod:`repro.obs`.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional

__all__ = ["MetricsHub", "series_values"]

_KINDS = ("counter", "gauge", "histogram")
_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _sanitize(name: str) -> str:
    """Prometheus-legal metric name (dots and dashes become ``_``)."""
    clean = _NAME_RE.sub("_", name)
    if not clean or clean[0].isdigit():
        clean = "_" + clean
    return clean


def _normalise_spec(namespace: str, name: str, spec: object) -> Dict[str, object]:
    """One source entry -> a canonical series dict (raises on bad kinds)."""
    if isinstance(spec, (int, float, bool)):
        return {"namespace": namespace, "name": name, "kind": "gauge",
                "value": float(spec)}
    if isinstance(spec, dict):
        kind = spec.get("kind", "gauge")
        if kind not in _KINDS:
            raise ValueError(
                f"series {namespace}.{name} has unknown kind {kind!r}; "
                f"expected one of {_KINDS}"
            )
        if kind == "histogram":
            summary = spec.get("summary")
            if summary is None:
                raise ValueError(
                    f"histogram series {namespace}.{name} needs a 'summary' dict"
                )
            row = {"namespace": namespace, "name": name, "kind": "histogram",
                   "value": {key: float(val) for key, val in summary.items()}}
        else:
            row = {"namespace": namespace, "name": name, "kind": kind,
                   "value": float(spec.get("value", 0.0))}
        if spec.get("help"):
            row["help"] = str(spec["help"])
        return row
    raise ValueError(
        f"series {namespace}.{name} has unsupported spec type "
        f"{type(spec).__name__}"
    )


def series_values(rows: List[Dict[str, object]],
                  field: Optional[str] = None) -> Dict[str, float]:
    """``{"namespace.name": value}`` over one :meth:`MetricsHub.collect`.

    The one series reader of the SLO engine and the anomaly monitor.
    Without ``field`` it reads the scalar series (counters, gauges);
    with one, that key of each histogram summary.  A series of the
    other shape, or a summary without ``field``, is absent: no data.

    >>> hub = MetricsHub()
    >>> hub.register_source("app", lambda: {"depth": 3, "latency": {
    ...     "kind": "histogram", "summary": {"mean": 0.5, "p95": 0.9}}})
    >>> series_values(hub.collect()), series_values(hub.collect(), "p95")
    ({'app.depth': 3.0}, {'app.latency': 0.9})
    """
    out: Dict[str, float] = {}
    for row in rows:
        value = row["value"]
        if isinstance(value, dict):
            if field is None or field not in value:
                continue
            value = value[field]
        elif field is not None:
            continue
        out[f"{row['namespace']}.{row['name']}"] = float(value)
    return out


class MetricsHub:
    """Federates per-component metric sources under unique namespaces.

    >>> hub = MetricsHub()
    >>> hub.register_source("build", lambda: {"runs_total":
    ...     {"kind": "counter", "value": 3}})
    >>> hub.register_source("app", lambda: {"errors_total": 1})
    >>> [f"{s['namespace']}.{s['name']}={s['value']}" for s in hub.collect()]
    ['app.errors_total=1.0', 'build.runs_total=3.0']
    >>> hub.register_source("build", lambda: {})
    Traceback (most recent call last):
        ...
    ValueError: metrics namespace 'build' is already registered
    """

    def __init__(self) -> None:
        self._sources: Dict[str, Callable[[], Dict[str, object]]] = {}

    def register_source(self, namespace: str,
                        collect: Callable[[], Dict[str, object]]) -> None:
        """Attach a pull-based source; the namespace must be unused."""
        if not namespace:
            raise ValueError("metrics namespace must be non-empty")
        if namespace in self._sources:
            raise ValueError(
                f"metrics namespace {namespace!r} is already registered"
            )
        self._sources[namespace] = collect

    def collect(self) -> List[Dict[str, object]]:
        """Every series from every namespace, sorted for stable export."""
        rows = [_normalise_spec(namespace, name, spec)
                for namespace, collect_fn in self._sources.items()
                for name, spec in collect_fn().items()]
        rows.sort(key=lambda row: (row["namespace"], row["name"]))
        return rows

    # ------------------------------------------------------------------
    # exporters
    # ------------------------------------------------------------------
    @staticmethod
    def _escape_help(text: str) -> str:
        r"""Prometheus HELP escaping: backslash and newline only.

        >>> MetricsHub._escape_help('a\\b\nc')
        'a\\\\b\\nc'
        """
        return text.replace("\\", "\\\\").replace("\n", "\\n")

    def to_prometheus(self) -> str:
        """Prometheus text exposition (histograms as quantile summaries).

        Hardened for hostile series names: HELP text is escaped
        (backslashes, newlines), each metric family's ``# TYPE`` (and
        ``# HELP``) is emitted exactly once, and two distinct series
        whose names collide *after* :func:`_sanitize` (``"a.b"`` vs
        ``"a_b"``) raise ``ValueError`` instead of silently exporting
        conflicting samples under one name — including collisions with
        the ``_sum`` / ``_count`` / ``_observations_total`` families a
        summary series derives.
        """
        lines: List[str] = []
        claimed: Dict[str, str] = {}  # sanitized family -> source series

        def _claim(family: str, source: str) -> None:
            prior = claimed.get(family)
            if prior is not None:
                raise ValueError(
                    f"metric name collision after sanitisation: series "
                    f"{source!r} and {prior!r} both export family {family!r}"
                )
            claimed[family] = source

        for row in self.collect():
            metric = _sanitize(f"{row['namespace']}_{row['name']}")
            source = f"{row['namespace']}.{row['name']}"
            kind = row["kind"]
            help_text = row.get("help")
            _claim(metric, source)
            if help_text:
                lines.append(f"# HELP {metric} {self._escape_help(help_text)}")
            if kind == "histogram":
                summary = row["value"]
                for derived in (f"{metric}_sum", f"{metric}_count"):
                    _claim(derived, source)
                lines.append(f"# TYPE {metric} summary")
                for quantile, key in (("0.5", "p50"), ("0.95", "p95"),
                                      ("0.99", "p99")):
                    lines.append(
                        f'{metric}{{quantile="{quantile}"}} '
                        f"{summary.get(key, 0.0):.9g}"
                    )
                # `count` is the retained-window population — the same
                # one `mean` was computed over, so `_sum`/`_count` stay
                # a consistent pair.  The monotone lifetime total is
                # exported as its own counter series.
                count = summary.get("count", 0.0)
                lines.append(
                    f"{metric}_sum {summary.get('mean', 0.0) * count:.9g}"
                )
                lines.append(f"{metric}_count {count:.9g}")
                total = summary.get("total")
                if total is not None:
                    _claim(f"{metric}_observations_total", source)
                    lines.append(
                        f"# TYPE {metric}_observations_total counter"
                    )
                    lines.append(
                        f"{metric}_observations_total {float(total):.9g}"
                    )
            else:
                lines.append(f"# TYPE {metric} {kind}")
                lines.append(f"{metric} {row['value']:.9g}")
        return "\n".join(lines) + ("\n" if lines else "")

    # ------------------------------------------------------------------
    # adapters for the in-repo sources (duck-typed; no imports)
    # ------------------------------------------------------------------
    def attach_registry(self, registry, namespace: str = "serving") -> None:
        """Federate a gateway :class:`~repro.serving.metrics.MetricsRegistry`."""

        def collect() -> Dict[str, object]:
            report = registry.snapshot()
            out: Dict[str, object] = {
                "qps": {"kind": "gauge", "value": report.get("qps", 0.0)},
                "cache_hit_rate": {"kind": "gauge",
                                   "value": report.get("cache_hit_rate", 0.0)},
            }
            if "qps_lifetime" in report:
                out["qps_lifetime"] = {"kind": "gauge",
                                       "value": report["qps_lifetime"]}
            for name, value in report.get("counters", {}).items():
                out[name] = {"kind": "counter", "value": value}
            for name, summary in report.get("distributions", {}).items():
                out[name] = {"kind": "histogram", "summary": summary}
            return out

        self.register_source(namespace, collect)

    def attach_streaming(self, store, namespace: str = "streaming") -> None:
        """Federate a streaming store's ``freshness_report()``."""
        counters = ("ticks_applied", "late_ticks_accepted", "ticks_dropped")

        def collect() -> Dict[str, object]:
            report = store.freshness_report()
            out: Dict[str, object] = {}
            for name, value in report.items():
                if value is None:
                    continue
                kind = "counter" if name in counters else "gauge"
                out[name] = {"kind": kind, "value": float(value)}
            return out

        self.register_source(namespace, collect)

    def attach_parallel(self, trainer, namespace: str = "parallel") -> None:
        """Federate a :class:`~repro.training.parallel.ParallelTrainer`."""

        def collect() -> Dict[str, object]:
            timings = trainer.shard_timings()
            out: Dict[str, object] = {
                "train_steps": {"kind": "counter",
                                "value": float(timings.get("steps", 0))},
            }
            for shard, seconds in enumerate(
                    timings.get("shard_step_seconds", [])):
                out[f"shard{shard}_step_seconds"] = {
                    "kind": "counter", "value": float(seconds),
                }
            return out

        self.register_source(namespace, collect)
