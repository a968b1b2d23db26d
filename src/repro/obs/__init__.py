"""repro.obs — zero-perturbation observability (spans, metrics, artifacts).

Three layers, all opt-in:

* **Spans** (:mod:`repro.obs.span`) — structured intervals on a simulated
  clock, emitted by the partitioners, the proxy profiler, the sync engine
  (per superstep: gather/apply/sync) and the fault-aware pricing walk.
* **Metrics** (:mod:`repro.obs.metrics`) — counters, gauges and
  histograms (edge ops, sync bytes, replication factor, straggler slack
  per barrier, CCR estimation error) with JSON export.
* **Run artifacts** (:mod:`repro.obs.artifacts`) — persist trace +
  spans + metrics + config to a run directory; ``repro process
  --obs-dir`` writes one, ``repro metrics`` summarizes and diffs them.

Contract: with an observer installed, every instrumented computation
produces byte-identical traces and results to an unobserved run — the
observer only reads values the run already computed.  The differential
test in tests/test_obs_inert.py holds the subsystem to that.
"""

from repro.obs.artifacts import (
    ARTIFACT_FORMAT_VERSION,
    RunArtifacts,
    diff_runs,
    load_run_artifacts,
    summarize_run,
    write_run_artifacts,
)
from repro.obs.context import (
    Observer,
    counter_add,
    current,
    enabled,
    event,
    gauge_set,
    histogram_record,
    is_enabled,
    span,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.span import SimulatedClock, Span, Tracer

__all__ = [
    # context
    "Observer",
    "current",
    "enabled",
    "is_enabled",
    "span",
    "event",
    "counter_add",
    "gauge_set",
    "histogram_record",
    # spans
    "SimulatedClock",
    "Span",
    "Tracer",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    # artifacts
    "ARTIFACT_FORMAT_VERSION",
    "RunArtifacts",
    "write_run_artifacts",
    "load_run_artifacts",
    "summarize_run",
    "diff_runs",
]
