"""Process-global metrics registry: counters, gauges, histograms.

Design rules, in the spirit of :mod:`repro.faults`:

- **Zero dependencies, near-zero cost when off.**  Whether telemetry is
  enabled is a single cached environment lookup; a disabled gated
  instrument returns after one method call.
- **One source of truth.**  Pre-existing ad-hoc counters
  (``materialized_record_count()``, shard fault stats, stream health)
  are registered with ``always=True`` so they count in untraced runs
  too; their legacy accessors read back through the registry.
- **Labels are kwargs.**  ``c.inc(2, status="hit")`` records into the
  ``status="hit"`` series of ``c``; the unlabeled series is the empty
  label set.  Label values are stringified at record time.

Instruments are interned by name: asking the registry for an existing
name returns the same object (with the same type, or ``ValueError``).
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Iterable, List, Optional, Tuple

#: Environment variable that switches gated instruments (and the span
#: tracer) on.  Anything but ""/"0"/"false"/"off"/"no" enables.
TELEMETRY_ENV_VAR = "REPRO_TELEMETRY"

_FALSEY = frozenset({"", "0", "false", "off", "no"})

#: Cached parse of the environment switch, keyed on the raw value so a
#: changed environment (tests, CLI) is picked up on the next check.
_ENV_STATE: Dict[str, object] = {"raw": object(), "on": False}

#: Programmatic override: ``None`` defers to the environment.
_OVERRIDE: Optional[bool] = None


def telemetry_enabled() -> bool:
    """Whether gated instruments and the tracer currently record."""

    if _OVERRIDE is not None:
        return _OVERRIDE
    raw = os.environ.get(TELEMETRY_ENV_VAR)
    if raw is not _ENV_STATE["raw"]:
        _ENV_STATE["raw"] = raw
        _ENV_STATE["on"] = raw is not None and raw.strip().lower() not in _FALSEY
    return bool(_ENV_STATE["on"])


def set_telemetry(on: Optional[bool]) -> None:
    """Override the telemetry switch in-process (``None`` restores env).

    The override does **not** reach process-pool workers; use
    :func:`enable_telemetry` when shard spans must record too.
    """

    global _OVERRIDE
    _OVERRIDE = on


def enable_telemetry() -> None:
    """Enable telemetry via the environment, so child processes inherit.

    This is what the CLI calls when ``--trace``/``--metrics-out`` is
    given: process-pool shard workers see the exported variable and
    record their spans for the coordinator to adopt.
    """

    os.environ[TELEMETRY_ENV_VAR] = "1"


#: Label sets are stored as sorted ``(name, value)`` tuples.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


class _Instrument:
    """Shared bookkeeping: name, help text, the enabled gate, a lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", *, always: bool = False) -> None:
        self.name = name
        self.help = help
        #: Always-on instruments back legacy accessors and record even
        #: while telemetry is disabled.
        self.always = bool(always)
        self._lock = threading.Lock()

    def _recording(self) -> bool:
        return self.always or telemetry_enabled()


class Counter(_Instrument):
    """A monotonically increasing sum per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", *, always: bool = False) -> None:
        super().__init__(name, help, always=always)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, value: float = 1.0, **labels: object) -> None:
        if not self._recording():
            return
        if value < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {value})")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + value

    def value(self, **labels: object) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """The sum across every label set."""

        with self._lock:
            return sum(self._values.values())

    def series(self) -> List[Dict]:
        with self._lock:
            items = sorted(self._values.items())
        return [{"labels": dict(key), "value": value} for key, value in items]

    def reset(self) -> None:
        with self._lock:
            self._values.clear()


class Gauge(_Instrument):
    """A point-in-time value per label set (last write wins)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", *, always: bool = False) -> None:
        super().__init__(name, help, always=always)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        if not self._recording():
            return
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def add(self, value: float, **labels: object) -> None:
        if not self._recording():
            return
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + value

    def value(self, **labels: object) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def series(self) -> List[Dict]:
        with self._lock:
            items = sorted(self._values.items())
        return [{"labels": dict(key), "value": value} for key, value in items]

    def reset(self) -> None:
        with self._lock:
            self._values.clear()


#: Default histogram buckets: latency in seconds, 1 ms .. 10 s.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class Histogram(_Instrument):
    """Fixed upper-bound buckets plus sum and count, per label set.

    Bucket counts are **non-cumulative** internally; exporters produce
    the cumulative ``le`` form Prometheus expects.  The implicit
    ``+Inf`` bucket is the last slot.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        *,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        always: bool = False,
    ) -> None:
        super().__init__(name, help, always=always)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket bound")
        self.buckets = bounds
        self._series: Dict[LabelKey, Dict] = {}

    def _slot(self, key: LabelKey) -> Dict:
        slot = self._series.get(key)
        if slot is None:
            slot = {"counts": [0] * (len(self.buckets) + 1), "sum": 0.0, "count": 0}
            self._series[key] = slot
        return slot

    def observe(self, value: float, **labels: object) -> None:
        if not self._recording():
            return
        value = float(value)
        index = 0
        for bound in self.buckets:
            if value <= bound:
                break
            index += 1
        with self._lock:
            slot = self._slot(_label_key(labels))
            slot["counts"][index] += 1
            slot["sum"] += value
            slot["count"] += 1

    def snapshot(self, **labels: object) -> Dict:
        """``{"counts": [...], "sum": s, "count": n}`` for one label set."""

        with self._lock:
            slot = self._slot(_label_key(labels))
            return {
                "counts": list(slot["counts"]),
                "sum": slot["sum"],
                "count": slot["count"],
            }

    def series(self) -> List[Dict]:
        with self._lock:
            items = sorted(self._series.items())
            return [
                {
                    "labels": dict(key),
                    "counts": list(slot["counts"]),
                    "sum": slot["sum"],
                    "count": slot["count"],
                }
                for key, slot in items
            ]

    def reset(self) -> None:
        with self._lock:
            self._series.clear()


class MetricsRegistry:
    """Interns instruments by name and snapshots them for export."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Instrument] = {}

    def _intern(self, cls, name: str, help: str, always: bool, **kwargs) -> _Instrument:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}, "
                        f"not {cls.kind}"
                    )
                if always and not existing.always:
                    existing.always = True
                return existing
            metric = cls(name, help, always=always, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", *, always: bool = False) -> Counter:
        return self._intern(Counter, name, help, always)

    def gauge(self, name: str, help: str = "", *, always: bool = False) -> Gauge:
        return self._intern(Gauge, name, help, always)

    def histogram(
        self,
        name: str,
        help: str = "",
        *,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        always: bool = False,
    ) -> Histogram:
        return self._intern(Histogram, name, help, always, buckets=buckets)

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._metrics.get(name)

    def metrics(self) -> List[_Instrument]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def value(self, name: str, **labels: object) -> float:
        """A counter's or gauge's current value (0.0 when unregistered)."""

        metric = self.get(name)
        if metric is None:
            return 0.0
        if not isinstance(metric, (Counter, Gauge)):
            raise ValueError(f"metric {name!r} is a {metric.kind}, not a scalar")
        return metric.value(**labels)

    def snapshot(self) -> Dict:
        """Every non-empty series, as one JSON-able mapping by name."""

        document: Dict[str, Dict] = {}
        for metric in self.metrics():
            series = metric.series()
            if not series:
                continue
            entry: Dict = {"type": metric.kind, "help": metric.help, "series": series}
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
            document[metric.name] = entry
        return document

    def reset(self) -> None:
        """Zero every series; registrations (and helps) survive."""

        for metric in self.metrics():
            metric.reset()


#: The process-global default registry all instrumentation records into.
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    return _REGISTRY


def counter(name: str, help: str = "", *, always: bool = False) -> Counter:
    return _REGISTRY.counter(name, help, always=always)


def gauge(name: str, help: str = "", *, always: bool = False) -> Gauge:
    return _REGISTRY.gauge(name, help, always=always)


def histogram(
    name: str,
    help: str = "",
    *,
    buckets: Iterable[float] = DEFAULT_BUCKETS,
    always: bool = False,
) -> Histogram:
    return _REGISTRY.histogram(name, help, buckets=buckets, always=always)


def metric_value(name: str, **labels: object) -> float:
    """Read a scalar metric off the default registry (0.0 if absent)."""

    return _REGISTRY.value(name, **labels)
