"""Counters, gauges and histograms for scheduled runs.

A :class:`MetricsRegistry` aggregates what the paper's tables report —
nodes expanded, LB phases, donations per matcher, the ledger lines —
plus operational counters the tables never needed (grid retries).  Instruments are named Prometheus-style with optional
``{key=value}`` labels, snapshot to plain JSON, and render as the table
``python -m repro stats`` prints.

The registry must *reproduce* the ledger identity

    P * T_par == T_calc + T_idle + T_lb

for every run it records: :func:`record_run` copies the ledger lines
verbatim and :func:`check_snapshot_identity` re-asserts the identity on
a loaded snapshot, so a snapshot that fails it was corrupted, not
measured.

Recording is strictly observational — instruments only ever *read*
:class:`~repro.core.metrics.RunMetrics`; the purity suite asserts a run
recorded into a registry is bit-identical to an unrecorded one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.core.metrics import RunMetrics

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "record_run",
    "load_snapshot",
    "render_snapshot",
    "check_snapshot_identity",
]

#: Default histogram bucket upper bounds (work counts / transfer sizes).
DEFAULT_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 500.0)


def _qualified(name: str, labels: Mapping[str, str] | None) -> str:
    """Canonical instrument key: ``name{k1=v1,k2=v2}`` with sorted keys."""
    if not name:
        raise ValueError("instrument name must be non-empty")
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


@dataclass
class Counter:
    """Monotonically increasing count (events, nodes, bytes)."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount


@dataclass
class Gauge:
    """Last-written value (ledger lines, efficiencies, sizes)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass
class Histogram:
    """Fixed-bucket distribution (cumulative counts, Prometheus-style).

    ``bucket_counts[i]`` counts observations ``<= buckets[i]``; one
    implicit ``+Inf`` bucket at the end catches the rest.
    """

    name: str
    buckets: tuple[float, ...] = DEFAULT_BUCKETS
    bucket_counts: list[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0

    def __post_init__(self) -> None:
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError(f"histogram {self.name} buckets must be sorted")
        if not self.bucket_counts:
            self.bucket_counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    ``counter`` / ``gauge`` / ``histogram`` create-or-return, so call
    sites never need to pre-register; labels become part of the key.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str, labels: Mapping[str, str] | None = None) -> Counter:
        key = _qualified(name, labels)
        if key not in self._counters:
            self._counters[key] = Counter(key)
        return self._counters[key]

    def gauge(self, name: str, labels: Mapping[str, str] | None = None) -> Gauge:
        key = _qualified(name, labels)
        if key not in self._gauges:
            self._gauges[key] = Gauge(key)
        return self._gauges[key]

    def histogram(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        *,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        key = _qualified(name, labels)
        if key not in self._histograms:
            self._histograms[key] = Histogram(key, tuple(buckets))
        return self._histograms[key]

    # -- persistence -------------------------------------------------------

    def snapshot(self) -> dict:
        """The full registry as one JSON-ready dict (sorted keys)."""
        return {
            "schema": 1,
            "counters": {k: self._counters[k].value for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k].value for k in sorted(self._gauges)},
            "histograms": {
                k: {
                    "buckets": list(h.buckets),
                    "bucket_counts": list(h.bucket_counts),
                    "count": h.count,
                    "total": h.total,
                }
                for k, h in sorted(self._histograms.items())
            },
        }

    def save_json(self, path: str | Path) -> Path:
        """Durably write :meth:`snapshot` to ``path`` (unique staged
        temp + fsyncs — safe against concurrent savers and crashes)."""
        from repro.util.atomic import atomic_write_text

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        return atomic_write_text(
            path, json.dumps(self.snapshot(), indent=1, sort_keys=True) + "\n"
        )

    def fold(self, other: "MetricsRegistry") -> None:
        """Merge ``other``'s instruments into this registry.

        Counters add, gauges take ``other``'s last-written value, and
        histograms merge bucket-for-bucket (instruments must agree on
        bucket bounds, which same-named instruments always do).  The
        serve layer uses this to fold each job's private registry into
        the service-wide one after the job finishes, so per-job
        recording never races across worker threads.
        """
        for key, counter in other._counters.items():
            self._counters.setdefault(key, Counter(key)).value += counter.value
        for key, gauge in other._gauges.items():
            self._gauges.setdefault(key, Gauge(key)).value = gauge.value
        for key, hist in other._histograms.items():
            mine = self._histograms.setdefault(
                key, Histogram(key, tuple(hist.buckets))
            )
            if tuple(mine.buckets) != tuple(hist.buckets):
                raise ValueError(
                    f"cannot fold histogram {key}: bucket bounds differ"
                )
            mine.count += hist.count
            mine.total += hist.total
            for i, n in enumerate(hist.bucket_counts):
                mine.bucket_counts[i] += n


def load_snapshot(path: str | Path) -> dict:
    """Read a snapshot written by :meth:`MetricsRegistry.save_json`."""
    from repro.errors import RecordStoreError

    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise RecordStoreError(f"cannot read metrics snapshot {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != 1:
        raise RecordStoreError(
            f"{path} is not a schema-1 metrics snapshot "
            f"(schema={payload.get('schema') if isinstance(payload, dict) else '?'})"
        )
    return payload


def record_run(registry: MetricsRegistry, metrics: "RunMetrics") -> None:
    """Fold one run's :class:`~repro.core.metrics.RunMetrics` into the
    registry — the per-scheme ledger lines Table 3-5 report, plus the
    machine counters."""
    scheme = {"scheme": metrics.scheme}
    registry.counter("runs_total").inc()
    registry.counter("search.nodes_expanded", scheme).inc(metrics.total_work)
    registry.counter("machine.expansion_cycles", scheme).inc(metrics.n_expand)
    registry.counter("lb.phases", scheme).inc(metrics.n_lb)
    registry.counter("lb.transfers", scheme).inc(metrics.n_transfers)
    registry.counter("lb.init_phases", scheme).inc(metrics.n_init_lb)
    ledger = metrics.ledger
    for line, value in (
        ("ledger.t_calc", ledger.t_calc),
        ("ledger.t_idle", ledger.t_idle),
        ("ledger.t_lb", ledger.t_lb),
        ("ledger.t_par", ledger.elapsed),
    ):
        registry.gauge(line, scheme).set(value)
    registry.gauge("run.n_pes", scheme).set(metrics.n_pes)
    registry.gauge("run.efficiency", scheme).set(metrics.efficiency)


def check_snapshot_identity(snapshot: dict, *, rel_tol: float = 1e-9) -> list[str]:
    """Verify ``P * T_par == T_calc + T_idle + T_lb`` per scheme in a
    snapshot; return the schemes that pass.

    Raises :class:`~repro.errors.RecordStoreError` naming the first
    scheme whose recorded ledger lines break the identity — the canonical
    invariant every registry snapshot must reproduce.  A snapshot saved
    before the ledger lost its recovery line may still carry a
    ``ledger.t_recovery`` gauge; it must read 0, since the identity no
    longer has a term for it.
    """
    from repro.errors import RecordStoreError

    gauges = snapshot.get("gauges", {})
    schemes = sorted(
        key.split("scheme=", 1)[1].rstrip("}")
        for key in gauges
        if key.startswith("ledger.t_par{scheme=")
    )
    for scheme in schemes:
        label = f"{{scheme={scheme}}}"
        recovery = gauges.get(f"ledger.t_recovery{label}", 0.0)
        if recovery != 0.0:
            raise RecordStoreError(
                f"snapshot charges {scheme!r} T_recovery={recovery!r}; the "
                "ledger has no recovery line, so its efficiency cannot be stated"
            )
        lhs = gauges[f"run.n_pes{label}"] * gauges[f"ledger.t_par{label}"]
        rhs = (
            gauges[f"ledger.t_calc{label}"]
            + gauges[f"ledger.t_idle{label}"]
            + gauges[f"ledger.t_lb{label}"]
        )
        scale = max(abs(lhs), abs(rhs), 1.0)
        if abs(lhs - rhs) > rel_tol * scale:
            raise RecordStoreError(
                f"snapshot breaks the ledger identity for {scheme!r}: "
                f"P*T_par={lhs!r} != T_calc+T_idle+T_lb={rhs!r}"
            )
    return schemes


def _fmt(value: float) -> str:
    """Stable numeric rendering: integers stay integral, floats get 6
    significant digits."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def render_snapshot(snapshot: dict) -> str:
    """The human table ``python -m repro stats`` prints (deterministic)."""
    lines: list[str] = []
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    if counters:
        lines.append("counters:")
        width = max(len(k) for k in counters)
        for key in sorted(counters):
            lines.append(f"  {key:<{width}}  {_fmt(counters[key])}")
    if gauges:
        lines.append("gauges:")
        width = max(len(k) for k in gauges)
        for key in sorted(gauges):
            lines.append(f"  {key:<{width}}  {_fmt(gauges[key])}")
    if histograms:
        lines.append("histograms:")
        for key in sorted(histograms):
            h = histograms[key]
            mean = h["total"] / h["count"] if h["count"] else 0.0
            lines.append(
                f"  {key}  count={h['count']}  mean={_fmt(mean)}  "
                f"total={_fmt(h['total'])}"
            )
            bounds = [*(_fmt(b) for b in h["buckets"]), "+Inf"]
            cells = " ".join(
                f"<={b}:{c}" for b, c in zip(bounds, h["bucket_counts"]) if c
            )
            if cells:
                lines.append(f"    {cells}")
    if not lines:
        lines.append("(empty registry)")
    return "\n".join(lines)
