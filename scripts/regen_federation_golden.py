#!/usr/bin/env python
"""Regenerate the federation compat golden hash fixture.

Writes ``tests/golden/federation_compat.sha256`` — the sha256 of the
canonical 40-job service trace that ``tests/test_federation_compat.py``
pins.  The service replays on the federation's event loop as a 1-shard
federation, so this one hash covers both.  Run only after an
*intentional* semantic change to that loop or to the per-job service
policies::

    PYTHONPATH=src python scripts/regen_federation_golden.py
"""

import hashlib
import pathlib
import sys

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from tests.test_federation_compat import (  # noqa: E402
    GOLDEN_PATH,
    _cluster,
    _service_knobs,
    _workload,
)

from repro.service import JobService  # noqa: E402


def main() -> int:
    result = JobService(_cluster(), **_service_knobs()).run_workload(
        _workload()
    )
    digest = hashlib.sha256(result.trace_json().encode("utf-8")).hexdigest()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(digest + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}: {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
