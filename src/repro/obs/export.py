"""Trace export: Chrome/Perfetto trace-event JSON and flat JSONL spans.

A recorded :class:`~repro.sim.Trace` is an in-memory list; this module
turns it into artifacts any run can ship:

* :func:`chrome_trace` — the Trace Event Format understood by
  ``chrome://tracing`` and Perfetto: complete events (``ph: "X"``) with
  ``pid``/``tid``/``ts``/``dur`` in microseconds, instant events
  (``ph: "i"``) for points, and metadata events naming the tracks.
  Links get one track each (the Figure-2 gantt), other categories one
  track per category, and — when exported from a job built with
  ``enable_trace=True`` — each worker's compute ops get a track too.
* :func:`span_log_lines` — one JSON object per span/point, grep- and
  pandas-friendly.
* :func:`summarize_trace` — the ``repro trace <run.json>`` summary:
  per-category counts, busy time, and the longest events.

Simulated time starts at 0 and is in seconds; exported timestamps are
microseconds per the trace-event spec.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "chrome_trace",
    "job_chrome_trace",
    "span_log_lines",
    "write_chrome_trace",
    "write_span_log",
    "summarize_trace",
    "load_trace_file",
]

_SECONDS_TO_US = 1e6


class _Tracks:
    """Assigns stable (pid, tid) pairs and emits naming metadata."""

    def __init__(self) -> None:
        self._pids: Dict[str, int] = {}
        self._tids: Dict[Tuple[int, str], int] = {}
        self.metadata: List[Dict[str, Any]] = []

    def track(self, process: str, thread: str) -> Tuple[int, int]:
        pid = self._pids.get(process)
        if pid is None:
            pid = len(self._pids)
            self._pids[process] = pid
            self.metadata.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "name": "process_name",
                    "args": {"name": process},
                }
            )
        key = (pid, thread)
        tid = self._tids.get(key)
        if tid is None:
            tid = sum(1 for existing_pid, _ in self._tids if existing_pid == pid)
            self._tids[key] = tid
            self.metadata.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": thread},
                }
            )
        return pid, tid


def _span_track(category: str, name: str) -> Tuple[str, str]:
    """Process/thread naming: links by link, the rest by category."""
    if category == "link":
        return "network", name
    return category, category


def chrome_trace(trace, extra_events: Optional[List[Dict[str, Any]]] = None) -> Dict[str, Any]:
    """Convert a :class:`~repro.sim.Trace` to a trace-event JSON dict.

    The result serialises directly with ``json.dump`` and loads in
    ``chrome://tracing`` / Perfetto.  ``extra_events`` (already in
    trace-event form) are merged in — :func:`job_chrome_trace` uses it
    for compute ops.
    """
    tracks = _Tracks()
    events: List[Dict[str, Any]] = []
    for span in trace.spans:
        pid, tid = tracks.track(*_span_track(span.category, span.name))
        events.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "name": span.name,
                "cat": span.category,
                "ts": span.start * _SECONDS_TO_US,
                "dur": max(0.0, span.duration) * _SECONDS_TO_US,
                "args": dict(span.meta),
            }
        )
    for when, category, name in trace.points:
        pid, tid = tracks.track(*_span_track(category, name))
        events.append(
            {
                "ph": "i",
                "pid": pid,
                "tid": tid,
                "name": name,
                "cat": category,
                "ts": when * _SECONDS_TO_US,
                "s": "t",
            }
        )
    if extra_events:
        for event in extra_events:
            pid, tid = tracks.track(event.pop("_process"), event.pop("_thread"))
            event["pid"] = pid
            event["tid"] = tid
            events.append(event)
    events.sort(key=lambda event: (event["ts"], event["pid"], event["tid"]))
    return {
        "traceEvents": tracks.metadata + events,
        "displayTimeUnit": "ms",
    }


def job_chrome_trace(job) -> Dict[str, Any]:
    """Chrome trace for a completed :class:`TrainingJob`: the network
    trace plus each worker's recorded compute ops on its own track."""
    compute: List[Dict[str, Any]] = []
    for worker, engine in job.engines.items():
        if not getattr(engine, "record_ops", False):
            continue
        for op in engine.ops:
            if op.started_at is None or op.finished_at is None:
                continue
            compute.append(
                {
                    "_process": "compute",
                    "_thread": worker,
                    "ph": "X",
                    "name": op.name,
                    "cat": op.kind.value,
                    "ts": op.started_at * _SECONDS_TO_US,
                    "dur": max(0.0, op.finished_at - op.started_at) * _SECONDS_TO_US,
                    "args": {},
                }
            )
    return chrome_trace(job.trace, extra_events=compute)


def span_log_lines(trace) -> Iterator[str]:
    """Flat JSONL: one object per span, then one per point event."""
    for span in trace.spans:
        yield json.dumps(
            {
                "type": "span",
                "category": span.category,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "duration": span.duration,
                "meta": dict(span.meta),
            },
            sort_keys=True,
        )
    for when, category, name in trace.points:
        yield json.dumps(
            {"type": "point", "category": category, "name": name, "t": when},
            sort_keys=True,
        )


def write_chrome_trace(trace_or_doc, path: str) -> None:
    """Write a Trace (or a prebuilt trace-event dict) as JSON to ``path``."""
    doc = trace_or_doc if isinstance(trace_or_doc, dict) else chrome_trace(trace_or_doc)
    with open(path, "w") as handle:
        json.dump(doc, handle)
        handle.write("\n")


def write_span_log(trace, path: str) -> None:
    """Write the flat JSONL span log to ``path``."""
    with open(path, "w") as handle:
        for line in span_log_lines(trace):
            handle.write(line)
            handle.write("\n")


def load_trace_file(path: str) -> List[Dict[str, Any]]:
    """Load the event list from a trace-event JSON file (either the
    ``{"traceEvents": [...]}`` envelope or a bare list); ``ValueError``
    for JSON that :func:`summarize_trace` cannot read."""
    with open(path) as handle:
        doc = json.load(handle)
    events = doc.get("traceEvents") if isinstance(doc, dict) else doc
    if not isinstance(events, list):
        raise ValueError("expected a list of events or an object with a 'traceEvents' list")
    for index, event in enumerate(events):
        if not isinstance(event, dict) or not isinstance(event.get("cat", ""), str):
            raise ValueError(f"event {index} is not an object with a string 'cat'")
        phase = event.get("ph")
        if phase == "X" and not all(_is_number(event.get(key)) for key in ("ts", "dur")):
            raise ValueError(f"event {index}: an 'X' event needs numeric 'ts' and 'dur'")
        if phase == "M" and event.get("name") in ("process_name", "thread_name"):
            ids, args = (event.get("pid"), event.get("tid")), event.get("args")
            ids_ok = all(isinstance(value, (int, str)) for value in ids)
            if not ids_ok or not isinstance(args, dict) or "name" not in args:
                raise ValueError(f"event {index}: an 'M' event needs 'pid', 'tid' and 'args.name'")
    return events


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def summarize_trace(events: List[Dict[str, Any]], top: int = 5) -> str:
    """Human-readable summary of a trace-event list."""
    names: Dict[Tuple[int, int], str] = {}
    processes: Dict[int, str] = {}
    complete: List[Dict[str, Any]] = []
    instants = 0
    instant_counts: Dict[str, int] = defaultdict(int)
    tuning_names: Dict[str, str] = {}
    for event in events:
        phase = event.get("ph")
        if phase == "M":
            if event.get("name") == "thread_name":
                names[(event["pid"], event["tid"])] = event["args"]["name"]
            elif event.get("name") == "process_name":
                processes[event["pid"]] = event["args"]["name"]
        elif phase == "X":
            complete.append(event)
        elif phase == "i":
            instants += 1
            instant_counts[event.get("cat", "?")] += 1
            if event.get("cat", "").startswith("tuning."):
                tuning_names[event["cat"]] = str(event.get("name", ""))
    if not complete and not instants:
        return "empty trace (no events)"

    by_category: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for event in complete:
        by_category[event.get("cat", "?")].append(event)
    first = min((event["ts"] for event in complete), default=0.0)
    last = max((event["ts"] + event.get("dur", 0.0) for event in complete), default=0.0)
    wall_us = max(last - first, 0.0)

    lines = [
        f"trace: {len(complete)} spans, {instants} instant events, "
        f"{len(names)} tracks, wall {wall_us / 1e3:.3f} ms",
        "",
        f"{'category':<12} {'spans':>7} {'busy (ms)':>10} {'busy %':>7}",
    ]
    for category in sorted(by_category):
        spans = by_category[category]
        busy = sum(event.get("dur", 0.0) for event in spans)
        share = 100.0 * busy / wall_us if wall_us > 0 else 0.0
        lines.append(
            f"{category:<12} {len(spans):>7} {busy / 1e3:>10.3f} {share:>6.1f}%"
        )
    if instant_counts:
        # Point events carry the delivery-protocol and recovery story:
        # retransmits, stale-epoch drops, dedup absorptions, crashes.
        lines.append("")
        lines.append(f"{'events':<22} {'count':>7}")
        for category in sorted(instant_counts):
            lines.append(f"{category:<22} {instant_counts[category]:>7}")
    membership_points = {
        category: count
        for category, count in instant_counts.items()
        if category.startswith("membership.")
    }
    membership_spans = {
        category: spans
        for category, spans in by_category.items()
        if category.startswith("membership.")
    }
    if membership_points or membership_spans:
        # The elastic-membership story: scale events, and how long the
        # cluster spent quiescing, syncing joiners, and parked.
        lines.append("")
        lines.append(f"{'membership':<22} {'count':>7} {'total (ms)':>11}")
        for category in sorted(set(membership_points) | set(membership_spans)):
            count = membership_points.get(category, 0)
            spans = membership_spans.get(category, [])
            total = sum(event.get("dur", 0.0) for event in spans)
            lines.append(
                f"{category:<22} {count + len(spans):>7} {total / 1e3:>11.3f}"
            )
    tuning_points = {
        category: count
        for category, count in instant_counts.items()
        if category.startswith("tuning.")
    }
    if tuning_points:
        # The drift-control story: knob reconfigures, change-point
        # alarms, and (when an experiment stamped it) the cumulative
        # regret against the free-retuning oracle.
        lines.append("")
        lines.append(f"{'tuning':<22} {'count':>7}  last")
        for category in sorted(tuning_points):
            lines.append(
                f"{category:<22} {tuning_points[category]:>7}  "
                f"{tuning_names.get(category, '')}"
            )
    longest = sorted(complete, key=lambda event: event.get("dur", 0.0), reverse=True)
    lines.append("")
    lines.append(f"longest {min(top, len(longest))} events:")
    for event in longest[:top]:
        track = names.get((event["pid"], event["tid"]), "?")
        process = processes.get(event["pid"], "?")
        lines.append(
            f"  {event.get('dur', 0.0) / 1e3:9.3f} ms  "
            f"{process}/{track}  {event['name']} @{event['ts'] / 1e3:.3f} ms"
        )
    return "\n".join(lines)
