"""Run artifacts: persist one observed run to a directory, read it back.

A run directory is self-describing provenance for a result — the trace
that was priced, the spans that show where the work went, the metric
totals, and the exact configuration that produced them:

    run-dir/
      manifest.json   counts + artifact inventory + format version
      config.json     caller-supplied configuration / provenance dict
      metrics.json    MetricsRegistry export (counters/gauges/histograms)
      spans.jsonl     one span per line, in recording order
      trace.json      serialized ExecutionTrace (when one was captured)

``repro metrics <dir>`` summarizes a run directory and
``repro metrics <dir> --diff <other>`` aligns two of them; the functions
here back both subcommands so library users get the same views.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.obs.context import Observer
from repro.obs.metrics import flatten_jsonable

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "RunArtifacts",
    "write_run_artifacts",
    "load_run_artifacts",
    "summarize_run",
    "diff_runs",
]

ARTIFACT_FORMAT_VERSION = 1

_MANIFEST = "manifest.json"
_CONFIG = "config.json"
_METRICS = "metrics.json"
_SPANS = "spans.jsonl"
_TRACE = "trace.json"


@dataclass(frozen=True)
class RunArtifacts:
    """One run directory, loaded."""

    path: str
    manifest: Dict[str, Any]
    config: Dict[str, Any]
    metrics: Dict[str, Any]
    spans: List[Dict[str, Any]]
    trace: Optional[Dict[str, Any]] = None

    def span_names(self) -> Dict[str, int]:
        """Span count per name, in first-seen order."""
        counts: Dict[str, int] = {}
        for s in self.spans:
            counts[s["name"]] = counts.get(s["name"], 0) + 1
        return counts


def write_run_artifacts(
    observer: Observer,
    out_dir: str,
    config: Optional[Dict[str, Any]] = None,
    trace=None,
) -> str:
    """Persist ``observer``'s spans and metrics (plus config and trace).

    Parameters
    ----------
    observer:
        The observer that watched the run.
    out_dir:
        Run directory; created if missing.
    config:
        Arbitrary JSON-serialisable provenance (CLI arguments, experiment
        parameters, versions).
    trace:
        Optional :class:`~repro.engine.trace.ExecutionTrace` (anything
        with a ``to_jsonable()`` method) to persist alongside.

    Returns
    -------
    str
        The run directory path.
    """
    os.makedirs(out_dir, exist_ok=True)
    config = dict(config or {})

    spans = [s.to_jsonable() for s in observer.tracer.spans]
    with open(os.path.join(out_dir, _SPANS), "w") as fh:
        for s in spans:
            fh.write(json.dumps(s, sort_keys=True) + "\n")

    with open(os.path.join(out_dir, _METRICS), "w") as fh:
        fh.write(observer.metrics.to_json())

    with open(os.path.join(out_dir, _CONFIG), "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True, default=str)

    trace_written = False
    if trace is not None:
        with open(os.path.join(out_dir, _TRACE), "w") as fh:
            json.dump(trace.to_jsonable(), fh, sort_keys=True)
        trace_written = True

    manifest = {
        "format_version": ARTIFACT_FORMAT_VERSION,
        "num_spans": len(spans),
        "num_counters": len(observer.metrics.counters),
        "num_gauges": len(observer.metrics.gauges),
        "num_histograms": len(observer.metrics.histograms),
        "final_tick": observer.tracer.clock.ticks,
        "artifacts": sorted(
            [_SPANS, _METRICS, _CONFIG] + ([_TRACE] if trace_written else [])
        ),
    }
    with open(os.path.join(out_dir, _MANIFEST), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return out_dir


def _parse_object(data: bytes, where: str) -> Dict[str, Any]:
    """The JSON object in ``data``; anything else is a
    :class:`ReproError` naming ``where``."""
    try:
        value = json.loads(data)
    except ValueError as exc:  # bad JSON or UTF-8, or an over-long integer
        raise ReproError(f"malformed JSON in {where!r}: {exc}") from exc
    if not isinstance(value, dict):
        raise ReproError(
            f"{where!r} holds a JSON {type(value).__name__}, not an object"
        )
    return value


def _read_object(path: str) -> Dict[str, Any]:
    with open(path, "rb") as fh:
        return _parse_object(fh.read(), path)


def load_run_artifacts(run_dir: str) -> RunArtifacts:
    """Load a run directory written by :func:`write_run_artifacts`."""
    manifest_path = os.path.join(run_dir, _MANIFEST)
    if not os.path.isfile(manifest_path):
        raise ReproError(
            f"{run_dir!r} is not a run directory (missing {_MANIFEST})"
        )
    manifest = _read_object(manifest_path)
    version = manifest.get("format_version")
    if version != ARTIFACT_FORMAT_VERSION:
        raise ReproError(
            f"run artifact format {version!r} is not supported "
            f"(expected {ARTIFACT_FORMAT_VERSION})"
        )

    def _optional(name, default):
        path = os.path.join(run_dir, name)
        return _read_object(path) if os.path.isfile(path) else default

    spans: List[Dict[str, Any]] = []
    spans_path = os.path.join(run_dir, _SPANS)
    if os.path.isfile(spans_path):
        with open(spans_path, "rb") as fh:
            for number, line in enumerate(fh, 1):
                if line.strip():
                    spans.append(_parse_object(line, f"{spans_path}:{number}"))

    return RunArtifacts(
        path=run_dir,
        manifest=manifest,
        config=_optional(_CONFIG, {}),
        metrics=_optional(_METRICS, {}),
        spans=spans,
        trace=_optional(_TRACE, None),
    )


# ------------------------------------------------------------------ #
# Views backing `repro metrics`
# ------------------------------------------------------------------ #


def summarize_run(run_dir: str) -> List[Tuple[str, str, str]]:
    """(section, key, value) rows describing one run directory."""
    run = load_run_artifacts(run_dir)
    rows: List[Tuple[str, str, str]] = []
    rows.append(("run", "path", run.path))
    rows.append(("run", "spans", str(run.manifest.get("num_spans", 0))))
    rows.append(("run", "final_tick", str(run.manifest.get("final_tick", 0))))
    for key, value in sorted(run.config.items()):
        rows.append(("config", str(key), str(value)))
    for name, count in sorted(run.span_names().items()):
        rows.append(("spans", name, str(count)))
    for kind, key, value in flatten_jsonable(run.metrics):
        rows.append((kind, key, _fmt(value)))
    return rows


def diff_runs(
    run_dir_a: str, run_dir_b: str
) -> List[Tuple[str, str, str, str]]:
    """(key, a, b, delta) rows aligning two runs' scalar metrics.

    Metrics present in only one run show ``-`` on the other side; the
    delta column is ``b - a`` where both sides exist.
    """
    a = _scalars(load_run_artifacts(run_dir_a))
    b = _scalars(load_run_artifacts(run_dir_b))
    rows: List[Tuple[str, str, str, str]] = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va is None:
            rows.append((key, "-", _fmt(vb), "-"))
        elif vb is None:
            rows.append((key, _fmt(va), "-", "-"))
        else:
            rows.append((key, _fmt(va), _fmt(vb), _fmt(vb - va)))
    return rows


def _scalars(run: RunArtifacts) -> Dict[str, float]:
    flat = {key: value for _, key, value in flatten_jsonable(run.metrics)}
    for name, count in sorted(run.span_names().items()):
        flat[f"spans.{name}"] = float(count)
    return flat


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"
