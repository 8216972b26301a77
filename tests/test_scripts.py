"""Smoke tests of the scripts under scripts/."""

import os
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
        assert list(fields) == ["refreshes", "txn", "dmerge", "smerge", "corr",
                                "schedule", "seeks", "bindings", "committed", "state"]
        kinds = [int(fields[k]) for k in ("txn", "dmerge", "smerge", "corr")]
        assert sum(kinds) == int(fields["refreshes"]) and min(kinds) > 0
        assert int(fields["seeks"]) > 0 and int(fields["bindings"]) > 0


def test_schedule_fingerprint_against_itself_is_same():
    cmd = [sys.executable, str(ROOT / "scripts" / "schedule_fingerprint.py"), str(ROOT),
           "--against", str(ROOT), "--workloads", "transfer_mix", "--txns", "16"]
    done = subprocess.run(cmd, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "transfer_mix seed=3 txns=16 earliest: same", "transfer_mix seed=3 txns=16 inverted: same"
    ]


def _run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_counter_chain_script_verifies():
    lines = _run_script("run_counter_chain.py", "--k", "8")
    assert [line.split()[0] for line in lines] == ["earliest", "inverted"]
    assert all(line.endswith("verified=True") for line in lines)


def test_birthday_check_script_reports_overlap():
    (line,) = _run_script("run_birthday_check.py", "--n", "1000", "--alpha", "2")
    assert line.startswith("n=1000 alpha=2.0 txns=60 pairs=1770 mean_common_skus=")
    assert line.endswith("(expected 4.0)")

