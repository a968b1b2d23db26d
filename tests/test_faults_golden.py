"""``repro faults`` and ``repro workload --shards`` pinned byte for byte.

Each configuration runs one command in a scratch directory and records
its stdout and the bytes of the file it saves.  Together they pin both
schedules' ``describe()`` rows, both ``to_json`` layouts (machine
schedules keep insertion order, shard schedules sort keys) and both
seeded draw orders end to end.

To re-record after an intentional output change::

    PYTHONPATH=src python tests/test_faults_golden.py
"""

import contextlib
import io
import json
import os
import pathlib
import tempfile

import pytest

from repro.cli import main

_GOLDEN = pathlib.Path(__file__).parent / "golden" / "faults_stdout.json"

#: id -> (argv, name of the file the command saves).  Every rate is
#: non-zero and every seed draws at least one event of each kind.
FAULTS_GOLDEN_CONFIGS = {
    "machine-schedule": (
        ["faults", "--machines", "4", "--supersteps", "30", "--seed", "5",
         "--crash-rate", "0.05", "--slowdown-rate", "0.05",
         "--network-rate", "0.1", "--output", "schedule.json"],
        "schedule.json",
    ),
    "shard-schedule": (
        ["faults", "--shards", "3", "--seed", "7", "--crash-rate", "0.6",
         "--partition-rate", "0.6", "--slowdown-rate", "0.6",
         "--output", "schedule.json"],
        "schedule.json",
    ),
    "workload-shard-faults": (
        ["workload", "--jobs", "12", "--shards", "3",
         "--shard-fault-seed", "7", "--shard-crash-rate", "0.5",
         "--shard-partition-rate", "0.5", "--shard-slowdown-rate", "0.5",
         "--output", "workload.json"],
        "workload.json",
    ),
}


def faults_golden_output(config_id, workdir):
    """(stdout, saved file text) of one pinned command run in ``workdir``."""
    argv, saved = FAULTS_GOLDEN_CONFIGS[config_id]
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        text = (pathlib.Path(workdir) / saved).read_text(encoding="utf-8")
    finally:
        os.chdir(cwd)
    return {"stdout": out.getvalue(), "file": text}


@pytest.mark.parametrize("config_id", sorted(FAULTS_GOLDEN_CONFIGS))
def test_output_matches_fixture(config_id, tmp_path):
    expected = json.loads(_GOLDEN.read_text())[config_id]
    assert faults_golden_output(config_id, tmp_path) == expected


if __name__ == "__main__":
    golden = {}
    for config_id in sorted(FAULTS_GOLDEN_CONFIGS):
        with tempfile.TemporaryDirectory() as tmp:
            golden[config_id] = faults_golden_output(config_id, tmp)
    _GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {_GOLDEN}")
