"""Exporters: JSONL event log, Prometheus text exposition, console summary.

Three pluggable views of the same :class:`~repro.obs.metrics.
MetricsRegistry` + :class:`~repro.obs.tracing.Tracer` state:

* **JSONL** — an append-only event log (``events.jsonl``).  Each
  telemetry save appends one *snapshot* event carrying the full
  cumulative registry and span tree plus a ``run_id``/``seq`` pair;
  :func:`load_run_state` keeps only the newest snapshot per run and
  merges across runs, so a directory accumulating several runs (a
  training run followed by a serving session, say) reads back as one
  coherent aggregate.
* **Prometheus** — standard text exposition (``metrics.prom``):
  counters and gauges as samples, histograms as cumulative
  ``_bucket{le=...}`` series plus ``_sum``/``_count``.
* **Console** — a human-readable summary grouping counters, gauges,
  histograms, and the span tree (what ``repro metrics-report`` prints).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.obs.flight import TRACES_FILENAME
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_metric_key,
)
from repro.obs.slo import SLO_FILENAME
from repro.obs.spans import SPANS_FILENAME
from repro.obs.tracing import Tracer
from repro.utils.logging import get_logger

__all__ = [
    "EVENTS_FILENAME",
    "JsonlExporter",
    "find_event_logs",
    "find_named_files",
    "load_events",
    "load_events_tolerant",
    "load_jsonl_tolerant",
    "load_run_state",
    "load_run_state_tree",
    "load_slo_summaries",
    "load_span_logs",
    "load_traces",
    "render_prometheus",
    "render_console_summary",
]

logger = get_logger("obs.export")

# Canonical event-log filename (re-exported by repro.obs.telemetry).
EVENTS_FILENAME = "events.jsonl"


class JsonlExporter:
    """Append-only JSONL event log."""

    def __init__(self, path) -> None:
        self.path = Path(path)

    def emit(self, kind: str, payload: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        record = {"kind": kind, **payload}
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, default=_json_safe) + "\n")

    def emit_snapshot(self, run_id: str, seq: int, wall_time: float,
                      registry: MetricsRegistry,
                      tracer: Optional[Tracer] = None) -> None:
        self.emit("snapshot", {
            "run_id": run_id,
            "seq": seq,
            "wall_time": wall_time,
            "metrics": registry.to_dict(),
            "spans": tracer.to_dict() if tracer is not None else None,
        })


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    raise TypeError(f"not JSON serializable: {value!r}")


def load_jsonl_tolerant(path) -> Tuple[List[dict], int]:
    """All JSON-object lines of a JSONL file, skipping corrupt ones.

    A process killed mid-write (a crashed fleet shard, say) leaves a
    truncated final line — and must not poison every report over the
    directory.  Undecodable or non-object lines are skipped and
    *counted*; the count is returned and logged as one warning per
    file, so silent data loss is impossible but a single bad byte
    costs one line, not the whole log.
    """
    path = Path(path)
    events: List[dict] = []
    skipped = 0
    with path.open("r", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if not isinstance(event, dict):
                skipped += 1
                continue
            events.append(event)
    if skipped:
        logger.warning("skipped %d corrupt line(s) in %s", skipped, path)
    return events, skipped


def load_events_tolerant(path) -> Tuple[List[dict], int]:
    """:func:`load_events` plus the skipped-line count."""
    return load_jsonl_tolerant(path)


def load_events(path) -> List[dict]:
    """All events in a JSONL log, in file order (corrupt lines skipped
    with a counted warning — see :func:`load_jsonl_tolerant`)."""
    events, _skipped = load_jsonl_tolerant(path)
    return events


def load_run_state(path) -> Tuple[MetricsRegistry, Tracer, int]:
    """Aggregate a JSONL log into ``(registry, tracer, num_runs)``.

    Snapshots are cumulative within a run, so only the highest-``seq``
    snapshot per ``run_id`` counts; distinct runs then merge (sums).
    """
    latest: Dict[str, dict] = {}
    for event in load_events(path):
        if event.get("kind") != "snapshot":
            continue
        run_id = event.get("run_id", "?")
        seen = latest.get(run_id)
        if seen is None or event.get("seq", 0) >= seen.get("seq", 0):
            latest[run_id] = event
    registry = MetricsRegistry()
    tracer = Tracer()
    for event in latest.values():
        registry = registry.merged_with(
            MetricsRegistry.from_dict(event.get("metrics") or {}))
        spans = event.get("spans")
        if spans:
            tracer = tracer.merged_with(Tracer.from_dict(spans))
    return registry, tracer, len(latest)


def find_event_logs(root) -> List[Path]:
    """Event logs under a telemetry directory: root + immediate subdirs.

    Multi-process runs shard their telemetry into per-process
    subdirectories (the serving fleet writes ``<dir>/shard-<id>/
    events.jsonl``; the coordinating process may write ``<dir>/
    events.jsonl`` directly), so a report over ``<dir>`` must sweep one
    level down.  Subdirectories are visited in sorted order for stable
    output.
    """
    return find_named_files(root, EVENTS_FILENAME)


def find_named_files(root, filename: str) -> List[Path]:
    """``filename`` under ``root`` and its immediate subdirectories
    (the telemetry-tree sweep rule, shared by every per-run artifact:
    event logs, trace dumps, span logs, SLO summaries)."""
    root = Path(root)
    logs: List[Path] = []
    direct = root / filename
    if direct.exists():
        logs.append(direct)
    if root.is_dir():
        for sub in sorted(root.iterdir()):
            candidate = sub / filename
            if sub.is_dir() and candidate.exists():
                logs.append(candidate)
    return logs


def load_run_state_tree(root) -> Tuple[MetricsRegistry, Tracer, int, int]:
    """Aggregate every event log under ``root`` (one level deep).

    Returns ``(registry, tracer, num_runs, num_logs)``.  Run ids are
    globally unique (pid + wall clock), so summing run counts across
    logs never double-counts, and the metric merge is the same
    commutative fold :func:`load_run_state` does within one log.
    """
    registry = MetricsRegistry()
    tracer = Tracer()
    num_runs = 0
    logs = find_event_logs(root)
    for log in logs:
        log_registry, log_tracer, runs = load_run_state(log)
        registry = registry.merged_with(log_registry)
        tracer = tracer.merged_with(log_tracer)
        num_runs += runs
    return registry, tracer, num_runs, len(logs)


# ----------------------------------------------------------------------
# Request-trace / SLO artifacts (swept with the same one-level rule)
# ----------------------------------------------------------------------
def load_traces(root) -> Tuple[List[dict], List[dict], int]:
    """Flight-recorder dumps under ``root``: kept traces + loose spans.

    Sweeps ``traces.jsonl`` one level deep and splits the lines into
    ``(traces, spans, num_logs)`` — ``"kind": "trace"`` records (each
    a :class:`~repro.obs.flight.TraceRecord` dict with its
    ``keep_reason``) and ``"kind": "span"`` records (process-level
    events the router dumped alongside, e.g. supervisor lifecycle).
    """
    traces: List[dict] = []
    spans: List[dict] = []
    logs = find_named_files(root, TRACES_FILENAME)
    for log in logs:
        events, _skipped = load_jsonl_tolerant(log)
        for event in events:
            if event.get("kind") == "trace":
                traces.append(event)
            elif event.get("kind") == "span":
                spans.append(event)
    return traces, spans, len(logs)


def load_span_logs(root) -> List[dict]:
    """Per-process span logs (``spans.jsonl``) under ``root``, one
    level deep — the shard-side records ``repro trace-report`` joins
    with the router's flight dump by ``trace`` id."""
    spans: List[dict] = []
    for log in find_named_files(root, SPANS_FILENAME):
        events, _skipped = load_jsonl_tolerant(log)
        spans.extend(event for event in events
                     if event.get("kind") in (None, "span")
                     or "ts_ms" in event)
    return spans


def load_slo_summaries(root) -> List[Tuple[Path, dict]]:
    """Persisted SLO summaries (``slo.json``) under ``root``."""
    out: List[Tuple[Path, dict]] = []
    for path in find_named_files(root, SLO_FILENAME):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            logger.warning("skipped unreadable SLO summary %s", path)
            continue
        if isinstance(payload, dict):
            out.append((path, payload))
    return out


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _prom_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _prom_escape(value: str) -> str:
    """Escape a label value per the exposition format: backslash,
    double quote, and newline (in that order — escaping the escape
    character first keeps the output unambiguous)."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _prom_labels(labels: Dict[str, str], extra: str = "") -> str:
    parts = [f'{k}="{_prom_escape(v)}"' for k, v in sorted(labels.items())]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _fmt(value: float) -> str:
    if value != value:                       # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus text-format exposition of the whole registry."""
    lines: List[str] = []
    typed: set = set()
    for key, metric in registry.items():
        name, labels = parse_metric_key(key)
        pname = _prom_name(name)
        if isinstance(metric, Counter):
            if pname not in typed:
                lines.append(f"# TYPE {pname} counter")
                typed.add(pname)
            lines.append(f"{pname}{_prom_labels(labels)} "
                         f"{_fmt(metric.value)}")
        elif isinstance(metric, Gauge):
            if pname not in typed:
                lines.append(f"# TYPE {pname} gauge")
                typed.add(pname)
            lines.append(f"{pname}{_prom_labels(labels)} "
                         f"{_fmt(metric.value)}")
        elif isinstance(metric, Histogram):
            if pname not in typed:
                lines.append(f"# TYPE {pname} histogram")
                typed.add(pname)
            cumulative = 0
            for bound, count in zip(metric.bounds, metric.bucket_counts):
                cumulative += count
                le = 'le="%s"' % _fmt(bound)
                lines.append(f"{pname}_bucket{_prom_labels(labels, le)} "
                             f"{cumulative}")
            inf = 'le="+Inf"'
            lines.append(f"{pname}_bucket{_prom_labels(labels, inf)} "
                         f"{metric.count}")
            lines.append(f"{pname}_sum{_prom_labels(labels)} "
                         f"{_fmt(metric.total)}")
            lines.append(f"{pname}_count{_prom_labels(labels)} "
                         f"{metric.count}")
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Console summary
# ----------------------------------------------------------------------
def render_console_summary(registry: MetricsRegistry,
                           tracer: Optional[Tracer] = None,
                           title: str = "telemetry summary") -> str:
    """Human-readable rollup of metrics and the span tree."""
    counters: List[Tuple[str, Counter]] = []
    gauges: List[Tuple[str, Gauge]] = []
    histograms: List[Tuple[str, Histogram]] = []
    for key, metric in registry.items():
        if isinstance(metric, Counter):
            counters.append((key, metric))
        elif isinstance(metric, Gauge):
            gauges.append((key, metric))
        elif isinstance(metric, Histogram):
            histograms.append((key, metric))

    lines = [title, "=" * max(24, len(title))]
    if counters:
        lines.append("counters")
        for key, counter in counters:
            lines.append(f"  {key:<44} {counter.value:>14.6g}")
    if gauges:
        lines.append("gauges")
        for key, gauge in gauges:
            lines.append(f"  {key:<44} {gauge.value:>14.6g}")
    if histograms:
        lines.append("histograms"
                     "  (lifetime count/mean; window percentiles)")
        for key, hist in histograms:
            if hist.count:
                lines.append(
                    f"  {key:<40} count={hist.count:<8} "
                    f"mean={hist.lifetime_mean:<10.4g} "
                    f"p50={hist.percentile(50):<10.4g} "
                    f"p95={hist.percentile(95):<10.4g} "
                    f"max={hist.max:.4g}")
            else:
                lines.append(f"  {key:<40} count=0")
    if not (counters or gauges or histograms):
        lines.append("(no metrics recorded)")
    if tracer is not None and not tracer.empty:
        lines.append("spans  (count, total, self time)")
        for row in tracer.render().splitlines():
            lines.append(f"  {row}")
    return "\n".join(lines)
