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
    assert all("refreshes=" in line and "state=" in line for line in lines)
