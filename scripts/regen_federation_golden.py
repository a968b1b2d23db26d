#!/usr/bin/env python
"""Regenerate the federation compat golden hash fixture.

Writes ``tests/golden/federation_compat.sha256`` — the sha256 of the
canonical 40-job service trace that ``tests/test_federation_compat.py``
pins: the service view of a 1-shard federation replay with no shard
faults.  Run only after an *intentional* semantic change to the replay
loop or to the per-job service policies::

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

from repro.faults.shards import ShardFaultSchedule  # noqa: E402
from repro.federation import FederationService  # noqa: E402


def main() -> int:
    result = FederationService([_cluster()], **_service_knobs()).run_workload(
        _workload(), shard_faults=ShardFaultSchedule()
    ).service_view()
    digest = hashlib.sha256(result.trace_json().encode("utf-8")).hexdigest()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(digest + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}: {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
