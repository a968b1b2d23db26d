"""Tests of the benchmark harness: ``python -m pytest bench -q``."""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bench.tracer import BOUNDARIES, Tracer, install, layer_metrics, self_times

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class Fake:
    def outer(self):
        self.inner()
        self.inner()
        return "done"

    def inner(self):
        return 1

    def broken(self):
        raise ValueError("boom")


def _clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_is_duration_minus_children():
    # outer [0, 10] holds inner [1, 3] and inner [4, 7].
    tracer = Tracer(clock=_clock(0.0, 1.0, 3.0, 4.0, 7.0, 10.0))
    with tracer:
        tracer.wrap(Fake, "outer", "service")
        tracer.wrap(Fake, "inner", "engine")
        assert Fake().outer() == "done"
    assert [s[3] for s in tracer.spans] == [None, 0, 0]
    assert self_times(tracer.spans) == [5.0, 2.0, 3.0]
    metrics = layer_metrics(tracer.spans, tracer.counts, window_s=12.0)
    assert metrics["service.self_s"] == 5.0
    assert metrics["engine.calls"] == 2
    assert metrics["engine.self_s"] == 5.0
    assert metrics["other.self_s"] == 2.0


def test_wrappers_are_restored_even_when_the_call_raises():
    originals = dict(vars(Fake))
    tracer = Tracer(clock=_clock(0.0, 1.0))
    with tracer:
        tracer.wrap(Fake, "broken", "engine")
        assert vars(Fake)["broken"] is not originals["broken"]
        with pytest.raises(ValueError):
            Fake().broken()
    assert tracer.spans == [["engine", 0.0, 1.0, None]]
    assert all(vars(Fake)[name] is fn for name, fn in originals.items())


def test_install_wraps_and_restores_every_boundary(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    report = importlib.import_module("repro.engine.report")
    runtime = importlib.import_module("repro.engine.runtime")
    price = report.simulate_execution
    originals = {
        (module, cls, method): vars(getattr(importlib.import_module(module), cls))[method]
        for module, cls, method, _ in BOUNDARIES
    }
    with Tracer() as tracer:
        install(tracer)
        for (module, cls, method), fn in originals.items():
            assert vars(getattr(importlib.import_module(module), cls))[method] is not fn
        assert runtime.simulate_execution is not price
    for (module, cls, method), fn in originals.items():
        assert vars(getattr(importlib.import_module(module), cls))[method] is fn
    assert report.simulate_execution is price and runtime.simulate_execution is price


def _smoke(tmp_path: Path, name: str, trace: int) -> tuple:
    out = tmp_path / f"{name}.json"
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--smoke", "--reps", "1",
         "--trace", str(trace), "--check", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return elapsed, line, json.loads(out.read_text(encoding="utf-8"))


def test_smoke_run_reports_every_metric_and_repeats_its_digests(tmp_path):
    elapsed, line, traced = _smoke(tmp_path, "traced", trace=1)
    assert elapsed < 20.0
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert (tmp_path / "traced.spans.json").exists()
    for name, result in traced["workloads"].items():
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            entry = result["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"], (name, metric["name"])
    assert set(line["metrics"]) == {
        f"{name}.{metric['name']}" for name in traced["workloads"] for metric in SPEC["per_layer"]
    }
    _, _, plain = _smoke(tmp_path, "plain", trace=0)
    for name, result in plain["workloads"].items():
        assert result["digest"] == traced["workloads"][name]["digest"], name
