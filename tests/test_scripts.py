"""Smoke tests of the scripts under scripts/."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_schedule_fingerprint_is_reproducible():
    cmd = [sys.executable, str(ROOT / "scripts" / "schedule_fingerprint.py"), str(ROOT),
           "--workloads", "transfer_mix", "--txns", "16"]
    runs = [subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            for _ in range(2)]
    assert runs[0] == runs[1]
    lines = runs[0].splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "transfer_mix seed=3 txns=16 earliest", "transfer_mix seed=3 txns=16 inverted"
    ]
    for line in lines:
        fields = dict(f.split("=") for f in line.split(": ")[1].split())
        assert list(fields) == ["refreshes", "txn", "dmerge", "smerge", "corr", "idle",
                                "schedule", "seeks", "bindings", "committed", "state"]
        kinds = [int(fields[k]) for k in ("txn", "dmerge", "smerge", "corr")]
        assert sum(kinds) == int(fields["refreshes"]) and min(kinds) > 0
        idle = dict(f.split(":") for f in fields["idle"].split(","))
        assert list(idle) == ["txn", "dmerge", "smerge", "corr"]
        assert all(0 <= int(idle[k]) <= int(fields[k]) for k in idle)
        assert int(idle["corr"]) > 0  # a correction refresh that changes nothing
        assert int(fields["seeks"]) > 0 and int(fields["bindings"]) > 0


def test_schedule_fingerprint_against_itself_is_same():
    cmd = [sys.executable, str(ROOT / "scripts" / "schedule_fingerprint.py"), str(ROOT),
           "--against", str(ROOT), "--workloads", "transfer_mix", "--txns", "16"]
    done = subprocess.run(cmd, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    lines = [line.split(" idle=") for line in done.stdout.splitlines()]
    assert [head for head, _idle in lines] == [
        "transfer_mix seed=3 txns=16 earliest: same", "transfer_mix seed=3 txns=16 inverted: same"
    ]
    assert all(idle.startswith("txn:") for _head, idle in lines)  # shown though unmoved

